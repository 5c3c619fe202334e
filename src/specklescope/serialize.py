"""File formats: curve CSV and replicas, spectrum/evidence/report JSON, frames.

All writers are atomic (temp file + rename) and deterministic: identical
inputs produce byte-identical files, so pipeline runs can be diffed.
numpy and the array-holding classes are imported by the functions that
read or write arrays, so the JSON records load without numpy.
"""

from __future__ import annotations

import csv
import io
import json
import os
import struct
import tempfile
import tokenize
from collections.abc import Callable, Iterable, Iterator, Sequence
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path
from typing import TYPE_CHECKING, Any, BinaryIO

from .errors import FormatError, OutputError
from .geometry import SourceGeometry
from .records import Candidate, CandidateSet, EvidenceRow, EvidenceTable

if TYPE_CHECKING:
    import numpy as np

    from .correlation import CorrelationCurve, ModulationSpectrum
    from .speckle import FrameStream

__all__ = [
    "atomic_write_text",
    "atomic_write_bytes",
    "write_csv",
    "write_curve_csv",
    "read_curve_csv",
    "write_replicas",
    "read_replicas",
    "spectrum_to_dict",
    "spectrum_from_dict",
    "spectra_to_dict",
    "fits_from_dict",
    "evidence_to_dict",
    "evidence_from_dict",
    "report_to_dict",
    "report_from_dict",
    "write_json",
    "read_json",
    "write_frames",
    "read_frames",
]

_FRAME_MAGIC = b"SPKLSTK1"


@contextmanager
def _parsing(path: str | Path, what: str) -> Iterator[None]:
    """Turn any read or parse failure inside the block into a FormatError naming `path`."""
    try:
        yield
    except FormatError:
        raise
    # numpy's .npy header parser raises TokenError for some damaged headers
    except (OSError, EOFError, AttributeError, KeyError, IndexError, TypeError, ValueError,
            OverflowError, RecursionError, csv.Error, struct.error, tokenize.TokenError) as exc:
        raise FormatError(f"{path}: {what}: {exc!r}") from exc


def _optional_float(value: Any) -> float | None:
    return None if value is None else float(value)


def _ints(values: Any) -> tuple[int, ...]:
    return tuple(int(v) for v in values)


@contextmanager
def _atomic_file(path: str | Path) -> Iterator[BinaryIO]:
    """A temporary file beside `path` that replaces it if the block exits cleanly.

    A path that cannot be written, such as a directory or one under a
    regular file, is an OutputError naming it.
    """
    path = Path(path)
    try:
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
        try:
            with os.fdopen(fd, "wb") as fh:
                yield fh
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc.strerror or exc}") from exc


def atomic_write_bytes(path: str | Path, *chunks: bytes | memoryview | np.ndarray) -> None:
    """Write the chunks in order so the destination is never seen half-written."""
    with _atomic_file(path) as fh:
        for chunk in chunks:
            fh.write(chunk)


def atomic_write_text(path: str | Path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def write_csv(path: str | Path, fieldnames: Sequence[str], rows: Iterable[dict]) -> None:
    """Dict rows under a header line; floats are written at full precision."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fieldnames, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    atomic_write_text(path, buf.getvalue())


# ---------------------------------------------------------------------------
# curves
# ---------------------------------------------------------------------------

_CURVE_HEADERS = (["delta1_rad", "g_value"], ["delta1_rad", "g_value", "sigma"])


def write_curve_csv(curve: CorrelationCurve, path: str | Path) -> None:
    """Curve as CSV with columns delta1_rad, g_value and optionally sigma."""
    columns = [curve.delta1, curve.values] + ([] if curve.sigma is None else [curve.sigma])
    header = _CURVE_HEADERS[len(columns) - 2]
    rows = (dict(zip(header, row)) for row in zip(*(column.tolist() for column in columns)))
    write_csv(path, header, rows)


def read_curve_csv(path: str | Path, m: int) -> CorrelationCurve:
    """Read a curve CSV; the correlation order is not stored in the file.

    A foreign header, a row of the wrong length or a bad value is a FormatError.
    """
    import numpy as np

    from .correlation import CorrelationCurve

    with _parsing(path, "not a curve CSV"), open(path, newline="") as fh:
        rows = [line for line in csv.reader(fh) if line]
        header = rows.pop(0) if rows else None
        if header not in _CURVE_HEADERS:
            raise ValueError(f"header {header}")
        if any(len(line) != len(header) for line in rows):
            raise ValueError(f"every row needs {len(header)} cells")
        columns = np.array([[float(cell) for cell in line] for line in rows])
        columns = columns.reshape(-1, len(header)).T
        sigma = columns[2] if len(header) == 3 else None
        return CorrelationCurve(m=m, delta1=columns[0], values=columns[1], sigma=sigma)


def write_replicas(replicas: np.ndarray, path: str | Path) -> None:
    """Bootstrap replica curves (one row per resample) as a .npy file."""
    import numpy as np

    buf = io.BytesIO()
    np.save(buf, replicas, allow_pickle=False)
    atomic_write_bytes(path, buf.getbuffer())


def read_replicas(path: str | Path, curve: CorrelationCurve) -> CorrelationCurve:
    """`curve` with its bootstrap replicas read from a .npy file.

    Anything but float64 rows the curve accepts as replicas (see
    CorrelationCurve) is a FormatError naming the file; nothing is unpickled.
    """
    import numpy as np

    with _parsing(path, "not replicas of this curve"), open(path, "rb") as fh:
        replicas = np.lib.format.read_array(fh, allow_pickle=False)
        if replicas.dtype != np.float64:
            raise ValueError(f"need float64 resamples, got {replicas.dtype}")
        return replace(curve, replicas=replicas)


# ---------------------------------------------------------------------------
# JSON records
# ---------------------------------------------------------------------------

# JSON key -> (attribute, reader that converts the value back) for each flat
# record; writer and reader share one table, so the reader requires exactly
# the keys the writer writes; others, such as older lines' `kappa` or an older
# spectrum's `residual_rms` and `leakage`, are ignored.
_HARMONIC = {
    "f": ("f", float),
    "A": ("amplitude", float),
    "sigma_A": ("sigma_a", float),
    "a_A0": ("contrast", float),
    "sigma_a_A0": ("sigma_contrast", float),
    "b_A0": ("quadrature", float),
    "sigma_b_A0": ("sigma_quadrature", float),
}
_SPECTRUM = {
    "m": ("m", int),
    "A0": ("a0", float),
    "sigma_A0": ("sigma_a0", float),
}
_EVIDENCE_ROW = {
    "f": ("f", int),
    "status": ("status", str),
    "present_orders": ("present_orders", _ints),
    "absent_orders": ("absent_orders", _ints),
    "conflict": ("conflict", bool),
}


def _record_to_dict(record: Any, keys: dict[str, tuple[str, Callable]]) -> dict[str, Any]:
    return {key: getattr(record, attr) for key, (attr, _) in keys.items()}


def _record_from_dict(cls: type, data: dict, keys: dict[str, tuple[str, Callable]], **more) -> Any:
    return cls(**{attr: read(data[key]) for key, (attr, read) in keys.items()}, **more)


def spectrum_to_dict(spectrum: ModulationSpectrum) -> dict[str, Any]:
    return {**_record_to_dict(spectrum, _SPECTRUM),
            "harmonics": [_record_to_dict(h, _HARMONIC) for h in spectrum.harmonics],
            "off_comb": [_record_to_dict(h, _HARMONIC) for h in spectrum.off_comb]}


def spectrum_from_dict(data: dict[str, Any]) -> ModulationSpectrum:
    """Inverse of spectrum_to_dict; an older spectrum without `off_comb` has none."""
    from .correlation import Harmonic, ModulationSpectrum

    harmonics = tuple(_record_from_dict(Harmonic, h, _HARMONIC) for h in data["harmonics"])
    off_comb = tuple(_record_from_dict(Harmonic, h, _HARMONIC) for h in data.get("off_comb", ()))
    return _record_from_dict(ModulationSpectrum, data, _SPECTRUM, harmonics=harmonics,
                             off_comb=off_comb)


def spectra_to_dict(fits: list[ModulationSpectrum], gated: list[ModulationSpectrum],
                    failures: list[tuple[int, str]]) -> dict[str, Any]:
    """spectra.json: the comb fits, their gated versions and the failed orders."""
    return {
        "fits": [spectrum_to_dict(s) for s in fits],
        "gated": [spectrum_to_dict(s) for s in gated],  # read only by perfbench/checks.py
        "failures": [{"m": m, "error": msg} for m, msg in failures],
    }


def fits_from_dict(data: dict[str, Any]) -> list[ModulationSpectrum]:
    """The comb fits of a spectra.json, every tested line of each fitted order."""
    return [spectrum_from_dict(d) for d in data["fits"]]


def evidence_to_dict(table: EvidenceTable) -> dict[str, Any]:
    return {
        "span_hint": table.span_hint,
        "orders_measured": list(table.orders_measured),
        "rows": [_record_to_dict(row, _EVIDENCE_ROW) for _, row in sorted(table.rows.items())],
    }


def evidence_from_dict(data: dict[str, Any]) -> EvidenceTable:
    rows = [_record_from_dict(EvidenceRow, r, _EVIDENCE_ROW) for r in data["rows"]]
    return EvidenceTable(
        span_hint=int(data["span_hint"]),
        rows={row.f: row for row in rows},
        orders_measured=_ints(data["orders_measured"]),
    )


def _candidate_to_dict(candidate: Candidate) -> dict[str, Any]:
    return {
        "x": list(candidate.geometry.x),
        "score": candidate.score,
        "chi2_by_order": {str(m): chi2 for m, chi2 in candidate.chi2_by_order},
    }


def _candidate_from_dict(data: dict[str, Any]) -> Candidate:
    chi2_by_order = sorted((int(m), float(chi2)) for m, chi2 in data["chi2_by_order"].items())
    return Candidate(
        geometry=SourceGeometry(data["x"]),
        score=_optional_float(data["score"]),
        chi2_by_order=tuple(chi2_by_order),
    )


def report_to_dict(candidate_set: CandidateSet) -> dict[str, Any]:
    return {
        "evidence": evidence_to_dict(candidate_set.evidence),
        "candidates": [_candidate_to_dict(c) for c in candidate_set.candidates],
        "exhaustive": candidate_set.exhaustive,
    }


def report_from_dict(data: dict[str, Any]) -> CandidateSet:
    """Inverse of report_to_dict; other keys, such as older runs' `apertures`, are ignored."""
    return CandidateSet(
        candidates=tuple(_candidate_from_dict(c) for c in data["candidates"]),
        evidence=evidence_from_dict(data["evidence"]),
        exhaustive=bool(data["exhaustive"]),
    )


def write_json(path: str | Path, data: dict[str, Any]) -> None:
    """Strict JSON: a NaN or infinity is a ValueError, not a NaN token in the file."""
    atomic_write_text(path, json.dumps(data, sort_keys=True, allow_nan=False) + "\n")


def _refuse_constant(token: str) -> None:
    raise ValueError(f"non-finite number {token}")


def read_json(path: str | Path, parse: Callable[[Any], Any] | None = None) -> Any:
    """The JSON value in `path`, through `parse` if given; FormatError if either fails.

    The NaN and Infinity tokens that Python's json accepts are refused.
    """
    with _parsing(path, "not a readable JSON artifact"), open(path, encoding="utf-8") as fh:
        data = json.load(fh, parse_constant=_refuse_constant)
        return data if parse is None else parse(data)


# ---------------------------------------------------------------------------
# frame container
# ---------------------------------------------------------------------------


@contextmanager
def write_frames(frames: FrameStream, path: str | Path) -> Iterator[FrameStream]:
    """Archive `frames` as its chunks are read: magic, header length, JSON header, rows.

    The block gets the same frames as a stream whose chunks are appended to
    a temporary file on their way through; the file replaces `path` once
    the block exits cleanly having read every frame.
    """
    import numpy as np

    header = {
        "N": frames.n_sources,
        "R": frames.n_frames,
        "P": frames.n_pixels,
        "seed": frames.seed,
        "bits": frames.bits,
        "delta_axis": [float(v) for v in frames.delta_axis],
        "dtype": "float64",
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    written = 0

    def appended(fh: BinaryIO) -> Iterator[np.ndarray]:
        nonlocal written
        for rows in frames.chunks:
            fh.write(np.ascontiguousarray(rows, dtype=np.float64))
            written += len(rows)
            yield rows
            del rows  # so the chunk is not held while the next is drawn

    with _atomic_file(path) as fh:
        fh.write(_FRAME_MAGIC + struct.pack("<Q", len(header_bytes)) + header_bytes)
        yield replace(frames, chunks=appended(fh))
        if written != frames.n_frames:
            raise ValueError(f"{path}: {written} of {frames.n_frames} frames were read")


def read_frames(path: str | Path) -> FrameStream:
    """A frame container as a stream whose chunks are read from the file as they are reached.

    The header is checked here; the rows come in the sampler's chunks from a
    generator that opens the file itself, so a stream dropped unread holds
    no file open.  A missing, truncated or malformed file, or a negative or
    non-finite sample, is a FormatError.
    """
    import numpy as np

    from .speckle import FrameStream, _check_samples, _frame_chunks

    def chunks(offset: int, n_frames: int, n_pixels: int) -> Iterator[np.ndarray]:
        with _parsing(path, "malformed frame payload"), open(path, "rb") as fh:
            fh.seek(offset)
            for start, stop in _frame_chunks(n_frames):
                rows = np.empty((stop - start, n_pixels))
                if fh.readinto(memoryview(rows).cast("B")) != rows.nbytes:
                    raise FormatError(f"{path}: truncated frame payload")
                _check_samples(rows)
                yield rows
                del rows  # not held while the next chunk is read

    with _parsing(path, "malformed frame container"), open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        magic = fh.read(len(_FRAME_MAGIC))
        if magic != _FRAME_MAGIC:
            raise FormatError(f"{path}: not a frame container (magic {magic!r})")
        (header_len,) = struct.unpack("<Q", fh.read(8))
        if fh.tell() + header_len > size:
            raise FormatError(f"{path}: {header_len}-byte header overruns a {size}-byte file")
        header = json.loads(fh.read(header_len).decode("utf-8"))
        if header["dtype"] != "float64":
            raise FormatError(f"{path}: samples of dtype {header['dtype']!r}, not 'float64'")
        n_frames, n_pixels = int(header["R"]), int(header["P"])
        delta_axis = np.asarray(header["delta_axis"], dtype=float)
        if n_frames < 1 or delta_axis.shape != (n_pixels,):
            raise FormatError(f"{path}: {n_frames} frames of {n_pixels} pixels, "
                              f"with a delta_axis of shape {delta_axis.shape}")
        if fh.tell() + n_frames * n_pixels * 8 > size:
            raise FormatError(f"{path}: truncated frame payload")
        return FrameStream(
            chunks=chunks(fh.tell(), n_frames, n_pixels),
            n_frames=n_frames,
            delta_axis=delta_axis,
            n_sources=int(header["N"]),
            seed=int(header["seed"]),
            bits=None if header["bits"] is None else int(header["bits"]),
        )
