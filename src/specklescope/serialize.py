"""File formats: curve CSV and replicas, spectrum/evidence/report JSON, frames.

All writers are atomic (temp file + rename) and deterministic: identical
inputs produce byte-identical files, so pipeline runs can be diffed.
"""

from __future__ import annotations

import csv
import io
import json
import os
import struct
import tempfile
from dataclasses import replace
from pathlib import Path
from typing import Any

import numpy as np

from .correlation import CorrelationCurve, Harmonic, ModulationSpectrum
from .errors import FormatError
from .reconstruct import ApertureReport, Candidate, CandidateSet
from .speckle import FrameStack
from .spectrum import EvidenceRow, EvidenceTable

__all__ = [
    "atomic_write_text",
    "atomic_write_bytes",
    "write_curve_csv",
    "read_curve_csv",
    "write_replicas",
    "read_replicas",
    "spectrum_to_dict",
    "spectrum_from_dict",
    "evidence_to_dict",
    "evidence_from_dict",
    "report_to_dict",
    "write_json",
    "read_json",
    "write_frames",
    "read_frames",
]

_FRAME_MAGIC = b"SPKLSTK1"


def atomic_write_bytes(path: str | Path, data: bytes) -> None:
    """Write bytes so the destination is never seen half-written."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str | Path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


# ---------------------------------------------------------------------------
# curves
# ---------------------------------------------------------------------------


def write_curve_csv(curve: CorrelationCurve, path: str | Path) -> None:
    """Curve as CSV with columns delta1_rad, g_value and optionally sigma."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if curve.sigma is None:
        writer.writerow(["delta1_rad", "g_value"])
        for d, v in zip(curve.delta1, curve.values):
            writer.writerow([repr(float(d)), repr(float(v))])
    else:
        writer.writerow(["delta1_rad", "g_value", "sigma"])
        for d, v, s in zip(curve.delta1, curve.values, curve.sigma):
            writer.writerow([repr(float(d)), repr(float(v)), repr(float(s))])
    atomic_write_text(path, buf.getvalue())


def read_curve_csv(path: str | Path, m: int) -> CorrelationCurve:
    """Read a curve CSV; the correlation order is not stored in the file.

    A foreign header, a row of the wrong length or a bad value is a FormatError.
    """
    try:
        with open(path, newline="") as fh:
            rows = [line for line in csv.reader(fh) if line]
        header = rows.pop(0) if rows else None
        if header not in (["delta1_rad", "g_value"], ["delta1_rad", "g_value", "sigma"]):
            raise ValueError(f"not a curve CSV (header {header})")
        if any(len(line) != len(header) for line in rows):
            raise ValueError(f"every row needs {len(header)} cells")
        columns = np.array([[float(cell) for cell in line] for line in rows])
        columns = columns.reshape(-1, len(header)).T
        sigma = columns[2] if len(header) == 3 else None
        return CorrelationCurve(m=m, delta1=columns[0], values=columns[1], sigma=sigma)
    except (csv.Error, ValueError) as exc:
        raise FormatError(f"{path}: {exc}") from exc


def write_replicas(replicas: np.ndarray, path: str | Path) -> None:
    """Bootstrap replica curves (one row per resample) as a .npy file."""
    buf = io.BytesIO()
    np.save(buf, replicas, allow_pickle=False)
    atomic_write_bytes(path, buf.getvalue())


def read_replicas(path: str | Path, curve: CorrelationCurve) -> CorrelationCurve:
    """`curve` with its bootstrap replicas read from a .npy file.

    Anything but a finite 2-D float64 array with at least two rows and one
    column per curve sample is a FormatError; nothing is unpickled.
    """
    try:
        with open(path, "rb") as fh:
            replicas = np.lib.format.read_array(fh, allow_pickle=False)
        if replicas.dtype != np.float64 or replicas.ndim != 2 or len(replicas) < 2:
            raise ValueError(f"need float64 rows of >= 2 resamples, got {replicas.dtype}"
                             f" array of shape {replicas.shape}")
        return replace(curve, replicas=replicas)
    except (OSError, EOFError, ValueError) as exc:
        raise FormatError(f"{path}: not replicas of this curve: {exc}") from exc


# ---------------------------------------------------------------------------
# spectra
# ---------------------------------------------------------------------------


def spectrum_to_dict(spectrum: ModulationSpectrum) -> dict[str, Any]:
    return {
        "m": spectrum.m,
        "A0": spectrum.a0,
        "sigma_A0": spectrum.sigma_a0,
        "kind": spectrum.kind,
        "residual_rms": spectrum.residual_rms,
        "leakage": spectrum.leakage,
        "harmonics": [
            {
                "kappa": h.kappa,
                "f": h.f,
                "A": h.amplitude,
                "sigma_A": h.sigma_a,
                "sigma_f": h.sigma_f,
            }
            for h in spectrum.harmonics
        ],
    }


def spectrum_from_dict(data: dict[str, Any]) -> ModulationSpectrum:
    harmonics = tuple(
        Harmonic(
            kappa=int(h["kappa"]),
            f=float(h["f"]),
            amplitude=float(h["A"]),
            sigma_a=float(h.get("sigma_A", 0.0)),
            sigma_f=float(h.get("sigma_f", 0.0)),
        )
        for h in data["harmonics"]
    )
    return ModulationSpectrum(
        m=int(data["m"]),
        a0=float(data["A0"]),
        sigma_a0=float(data.get("sigma_A0", 0.0)),
        harmonics=harmonics,
        kind=str(data.get("kind", "free")),
        residual_rms=float(data.get("residual_rms", 0.0)),
        leakage=data.get("leakage"),
    )


# ---------------------------------------------------------------------------
# evidence
# ---------------------------------------------------------------------------


def evidence_to_dict(table: EvidenceTable) -> dict[str, Any]:
    rows = []
    for f in sorted(table.rows):
        row = table.rows[f]
        rows.append(
            {
                "f": row.f,
                "status": row.status,
                "A": row.amplitude,
                "sigma_A": row.sigma_a,
                "present_orders": list(row.present_orders),
                "absent_orders": list(row.absent_orders),
                "conflict": row.conflict,
            }
        )
    return {
        "span_hint": table.span_hint,
        "orders_measured": list(table.orders_measured),
        "rows": rows,
    }


def evidence_from_dict(data: dict[str, Any]) -> EvidenceTable:
    rows = {}
    for r in data["rows"]:
        f = int(r["f"])
        rows[f] = EvidenceRow(
            f=f,
            status=str(r["status"]),
            amplitude=None if r.get("A") is None else float(r["A"]),
            sigma_a=None if r.get("sigma_A") is None else float(r["sigma_A"]),
            present_orders=tuple(r.get("present_orders", ())),
            absent_orders=tuple(r.get("absent_orders", ())),
            conflict=bool(r.get("conflict", False)),
        )
    return EvidenceTable(
        span_hint=int(data["span_hint"]),
        rows=rows,
        orders_measured=tuple(data.get("orders_measured", ())),
    )


# ---------------------------------------------------------------------------
# reconstruction report
# ---------------------------------------------------------------------------


def _candidate_to_dict(candidate: Candidate) -> dict[str, Any]:
    return {
        "x": list(candidate.geometry.x),
        "score": candidate.score,
        "chi2_by_order": {str(m): chi2 for m, chi2 in candidate.chi2_by_order},
    }


def report_to_dict(
    candidate_set: CandidateSet, apertures: list[ApertureReport]
) -> dict[str, Any]:
    return {
        "evidence": evidence_to_dict(candidate_set.evidence),
        "candidates": [_candidate_to_dict(c) for c in candidate_set.candidates],
        "apertures": [
            {"m": a.m, "r_moving": a.moving, "r_total": a.total} for a in apertures
        ],
        "exhaustive": candidate_set.exhaustive,
    }


def write_json(path: str | Path, data: dict[str, Any]) -> None:
    atomic_write_text(path, json.dumps(data, indent=2, sort_keys=True) + "\n")


def read_json(path: str | Path) -> dict[str, Any]:
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise FormatError(f"{path}: not JSON: {exc}") from exc


# ---------------------------------------------------------------------------
# frame container
# ---------------------------------------------------------------------------


def write_frames(stack: FrameStack, path: str | Path) -> None:
    """Binary frame container: magic, header length, JSON header, raw data."""
    header = {
        "N": stack.n_sources,
        "R": stack.n_frames,
        "P": stack.n_pixels,
        "seed": stack.seed,
        "bits": stack.bits,
        "delta_axis": [float(v) for v in stack.delta_axis],
        "dtype": "float64",
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    payload = np.ascontiguousarray(stack.intensities, dtype=np.float64).tobytes()
    blob = b"".join(
        [_FRAME_MAGIC, struct.pack("<Q", len(header_bytes)), header_bytes, payload]
    )
    atomic_write_bytes(path, blob)


def read_frames(path: str | Path) -> FrameStack:
    """Read a frame container; a truncated or malformed file is a FormatError."""
    size = os.path.getsize(path)
    with open(path, "rb") as fh:
        try:
            magic = fh.read(len(_FRAME_MAGIC))
            if magic != _FRAME_MAGIC:
                raise FormatError(f"{path}: not a frame container (magic {magic!r})")
            (header_len,) = struct.unpack("<Q", fh.read(8))
            if fh.tell() + header_len > size:
                raise FormatError(f"{path}: {header_len}-byte header overruns a {size}-byte file")
            header = json.loads(fh.read(header_len).decode("utf-8"))
            n_frames, n_pixels = int(header["R"]), int(header["P"])
            data = fh.read(n_frames * n_pixels * 8)
            if len(data) != n_frames * n_pixels * 8:
                raise FormatError(f"{path}: truncated frame payload")
            return FrameStack(
                intensities=np.frombuffer(data, dtype=np.float64).reshape(n_frames, n_pixels),
                delta_axis=np.asarray(header["delta_axis"], dtype=float),
                n_sources=int(header["N"]),
                seed=int(header["seed"]),
                bits=None if header.get("bits") is None else int(header["bits"]),
            )
        except FormatError:
            raise
        except (struct.error, KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"{path}: malformed frame container: {exc!r}") from exc
