"""Round-trips through every on-disk format, plus corruption handling."""

import hashlib
import json
import struct
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from conftest import evidence_table, held_frames, held_stack, magic_curve, save_frames
from specklescope import (
    EvidenceRow,
    EvidenceTable,
    FormatError,
    FrameStream,
    Harmonic,
    ModulationSpectrum,
    SourceGeometry,
    estimate_g_m,
    nearest_magic_pixels,
    sample_frames,
    search,
    uniform_grid,
)
from specklescope.serialize import (
    evidence_from_dict,
    evidence_to_dict,
    read_curve_csv,
    read_frames,
    read_json,
    read_replicas,
    report_from_dict,
    report_to_dict,
    spectrum_from_dict,
    spectrum_to_dict,
    write_curve_csv,
    write_frames,
    write_json,
    write_replicas,
)


@pytest.fixture
def stack():
    return held_stack(sample_frames(SourceGeometry((2,)), 32, 9, uniform_grid(16)))


# ---------------------------------------------------------------------------
# curve CSV
# ---------------------------------------------------------------------------


def test_curve_csv_round_trip_is_exact(tmp_path, stack):
    curve = estimate_g_m(stack, ((0,),))[0]
    path = tmp_path / "curve.csv"
    write_curve_csv(curve, path)
    back = read_curve_csv(path, m=2)
    np.testing.assert_array_equal(back.delta1, curve.delta1)
    np.testing.assert_array_equal(back.values, curve.values)
    assert back.replicas is None  # replicas deliberately do not ride along
    # the third column is the replicas' spread, written for the benchmark's
    # curve check; the reader checks it and keeps nothing of it
    header, *rows = path.read_text().splitlines()
    assert header == "delta1_rad,g_value,sigma"
    sigma = np.array([float(row.split(",")[2]) for row in rows])
    assert sigma.tobytes() == curve.replicas.std(axis=0, ddof=1).tobytes()


def test_curve_csv_without_sigma(tmp_path):
    curve = magic_curve((1, 3), 3)
    path = tmp_path / "noiseless.csv"
    write_curve_csv(curve, path)
    assert path.read_text().startswith("delta1_rad,g_value\n")  # no replicas, no spread
    back = read_curve_csv(path, m=3)
    np.testing.assert_array_equal(back.values, curve.values)


def test_curve_csv_rejects_foreign_files(tmp_path):
    path = tmp_path / "foreign.csv"
    for text in [
        "wavelength,power\n1.0,2.0\n",  # foreign header
        "delta1_rad,g_value,sigma,extra\n0.0,2.0,0.1,9\n",  # extra column
        "delta1_rad,g_value,sigma\n0.0,2.0\n",  # short row
        "delta1_rad,g_value\n0.0,2.0,0.1\n",  # long row
        "delta1_rad,g_value\n0.0,two\n",  # non-numeric cell
        "delta1_rad,g_value\n0.0,nan\n",  # CorrelationCurve rejects it
        "delta1_rad,g_value,sigma\n0.0,2.0,-0.1\n",  # negative sigma
        "delta1_rad,g_value,sigma\n0.0,2.0,nan\n",  # non-finite sigma
        "delta1_rad,g_value,sigma\n0.0,2.0,inf\n",
        "delta1_rad,g_value,sigma\n0.0,2.0,two\n",  # non-numeric sigma
    ]:
        path.write_text(text)
        with pytest.raises(FormatError):
            read_curve_csv(path, m=3)
    for blob in (b"delta1_rad,g_value\n0.0,\xff\n", b"delta1_rad,g_value\n0.0,\x002\n"):
        path.write_bytes(blob)  # not UTF-8; a NUL byte
        with pytest.raises(FormatError):
            read_curve_csv(path, m=3)


# ---------------------------------------------------------------------------
# bootstrap replicas
# ---------------------------------------------------------------------------


def test_replicas_round_trip_is_exact(tmp_path, stack):
    curve = estimate_g_m(stack, ((0,),))[0]
    path = tmp_path / "replicas.npy"
    write_replicas(curve.replicas, path)
    bare = replace(curve, replicas=None)
    np.testing.assert_array_equal(read_replicas(path, bare).replicas, curve.replicas)


@pytest.mark.parametrize(
    "bad",
    [
        np.ones((8, 16), dtype=np.float32),  # not float64
        np.ones(16),  # one curve, not a stack of them
        np.ones((1, 16)),  # one row has no spread
        np.ones((8, 15)),  # wrong sample count
        np.full((8, 16), np.inf),
        np.ones((7, 16)),  # too few rows for a spread to be an error
    ],
)
def test_replicas_reader_rejects_malformed_arrays(tmp_path, bad):
    path = tmp_path / "replicas.npy"
    np.save(path, np.ones((8, 16)))
    assert read_replicas(path, magic_curve((2,), 3, samples=16)).replicas.shape == (8, 16)
    np.save(path, bad)
    with pytest.raises(FormatError, match="replicas.npy"):
        read_replicas(path, magic_curve((2,), 3, samples=16))


def test_replicas_reader_rejects_corruption(tmp_path):
    curve = magic_curve((2,), 3, samples=16)
    path = tmp_path / "replicas.npy"
    np.save(path, np.array([{"a": 1}, None], dtype=object), allow_pickle=True)
    with pytest.raises(FormatError):
        read_replicas(path, curve)  # never unpickled
    with open(path, "wb") as fh:
        np.savez(fh, np.ones((4, 16)))
    with pytest.raises(FormatError):
        read_replicas(path, curve)  # an .npz archive is not an .npy array
    write_replicas(np.ones((8, 16)), path)
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(FormatError):
        read_replicas(path, curve)
    path.write_bytes(b"")
    with pytest.raises(FormatError):
        read_replicas(path, curve)


# ---------------------------------------------------------------------------
# spectra and evidence
# ---------------------------------------------------------------------------


def test_spectrum_dict_round_trip():
    spectrum = ModulationSpectrum(
        m=4,
        a0=3.25,
        sigma_a0=0.01,
        harmonics=(
            Harmonic(f=3.0, amplitude=0.8, sigma_a=0.02, contrast=0.24,
                     sigma_contrast=0.006, quadrature=-0.01, sigma_quadrature=0.005),
            Harmonic(f=6.0, amplitude=0.4, sigma_a=0.03, contrast=-0.12,
                     sigma_contrast=0.009, quadrature=0.02, sigma_quadrature=0.008),
        ),
        off_comb=(
            Harmonic(f=1.0, amplitude=0.01, sigma_a=0.01, contrast=-0.003,
                     sigma_contrast=0.004, quadrature=0.001, sigma_quadrature=0.004),
            Harmonic(f=5.0, amplitude=0.02, sigma_a=0.01, contrast=0.006,
                     sigma_contrast=0.003, quadrature=-0.002, sigma_quadrature=0.003),
        ),
    )
    data = spectrum_to_dict(spectrum)
    assert [line["f"] for line in data["off_comb"]] == [1.0, 5.0]
    assert spectrum_from_dict(data) == spectrum
    # an older spectrum: its residual `leakage` is ignored and no `off_comb` means none
    del data["off_comb"]
    data["leakage"] = 1e-4
    assert spectrum_from_dict(data) == replace(spectrum, off_comb=())


def test_evidence_dict_round_trip():
    rows = (EvidenceRow(3, "present", present_orders=(4,), absent_orders=(3,), conflict=True),
            EvidenceRow(4, "present", present_orders=(3, 5)),
            EvidenceRow(2, "absent", absent_orders=(3,)), EvidenceRow(6, "absent"))
    table = EvidenceTable(span_hint=8, rows={r.f: r for r in rows}, orders_measured=(3, 4, 5))
    data = evidence_to_dict(table)
    back = evidence_from_dict(data)
    assert back.span_hint == table.span_hint
    assert back.orders_measured == table.orders_measured
    assert back.present() == table.present()
    assert back.absent() == table.absent()
    assert back.rows == table.rows
    # rows hold no line strengths; an older run's A and sigma_A keys are ignored
    assert "A" not in data["rows"][0]
    for row in data["rows"]:
        row.update(A=0.5, sigma_A=0.05)
    assert evidence_from_dict(data) == back


def test_report_dict_shape():
    table = evidence_table((3, 4, 5, 8), absent=(2, 6, 7))
    candidates = search(table)
    report = report_to_dict(candidates, table)
    assert [c["x"] for c in report["candidates"]] == [[3, 1, 4]]
    assert report["exhaustive"] is True
    # the apertures are derived from the evidence's orders when a report is printed
    assert sorted(report) == ["candidates", "evidence", "exhaustive"]
    # the evidence is a copy of evidence.json's, which the reader ignores
    assert report["evidence"] == evidence_to_dict(table)
    del report["evidence"]
    assert report_from_dict(report) == candidates


# ---------------------------------------------------------------------------
# generic JSON
# ---------------------------------------------------------------------------


def test_json_files_are_deterministic(tmp_path):
    data = {"zeta": 1, "alpha": [1, 2, 3], "nested": {"b": 2.5, "a": None}}
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    write_json(p1, data)
    write_json(p2, dict(reversed(list(data.items()))))
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_text().endswith("\n")
    assert read_json(p1) == data


def test_json_number_past_the_int_range_is_a_format_error(tmp_path):
    path = tmp_path / "evidence.json"
    path.write_text('{"span_hint": 1e999, "orders_measured": [], "rows": []}')
    with pytest.raises(FormatError, match="evidence.json"):
        read_json(path, evidence_from_dict)


def test_json_nested_past_the_recursion_limit_is_a_format_error(tmp_path):
    path = tmp_path / "evidence.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    with pytest.raises(FormatError, match="evidence.json"):
        read_json(path, evidence_from_dict)


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_json_refuses_non_finite_numbers(tmp_path, token):
    path = tmp_path / "spectra.json"
    path.write_text(f'{{"A0": {token}}}')
    with pytest.raises(FormatError, match="spectra.json"):
        read_json(path)
    with pytest.raises(ValueError):
        write_json(tmp_path / "out.json", {"A0": float(token.lower().replace("infinity", "inf"))})
    assert not (tmp_path / "out.json").exists()


# ---------------------------------------------------------------------------
# frame container
# ---------------------------------------------------------------------------


def test_frames_round_trip(tmp_path, stack):
    path = tmp_path / "frames.sstk"
    save_frames(stack, path)
    back = read_frames(path)
    assert back.n_frames == 32 and back.n_pixels == 16
    np.testing.assert_array_equal(held_frames(back), stack.chunks[0])
    np.testing.assert_array_equal(back.delta_axis, stack.delta_axis)
    assert back.n_sources == stack.n_sources
    assert back.seed == stack.seed
    assert back.bits is None


def test_frames_round_trip_keeps_bits(tmp_path):
    def sampled():
        return sample_frames(SourceGeometry((2,)), 32, 9, uniform_grid(16), bits=8)

    path = tmp_path / "frames.sstk"
    save_frames(sampled(), path)
    back = read_frames(path)
    assert back.bits == 8
    assert held_frames(back).tobytes() == held_frames(sampled()).tobytes()


def test_frames_reader_streams_the_sampler_chunks(tmp_path):
    # whole bootstrap blocks of 4 or 5 frames, up to 512 frames a chunk, as
    # the sampler draws them
    def sampled():
        return sample_frames(SourceGeometry((2,)), 1025, 9, uniform_grid(16))

    path = tmp_path / "frames.sstk"
    save_frames(sampled(), path)
    back = read_frames(path)
    drawn = [len(rows) for rows in sampled().chunks]
    assert [len(rows) for rows in back.chunks] == drawn == [509, 512, 4]
    assert list(back.chunks) == []  # a file-backed stream is read once


@pytest.mark.parametrize("weights, bits, digest", [
    (None, None, "3dadb673bef7eacda8587a6d312ff31d004ffe4c584e6bf9fbf4ccbc5a37c403"),
    ((1.0, 0.5, 0.8, 0.6), 12, "727ccddb5b69b02d7f83b52c5e7cc53cd37e4373c11a75ef7f839ae3b7d6b7f0"),
], ids=["equal-weights", "weighted-12-bits"])
def test_frame_file_bytes_are_pinned(tmp_path, weights, bits, digest):
    # three chunks of whole bootstrap blocks (509, 512 and 4 frames); a change
    # to the amplitude draw, the propagation or the file layout moves the digest
    # (recorded with numpy 2.4 and OpenBLAS on x86-64)
    frames = sample_frames(SourceGeometry((1, 3, 2)), 1025, 7, uniform_grid(40), weights, bits)
    path = tmp_path / "frames.sstk"
    save_frames(frames, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def frame_container(header, payload=b""):
    """The bytes of a frame container with the given JSON header and payload."""
    text = json.dumps(header).encode()
    return b"SPKLSTK1" + struct.pack("<Q", len(text)) + text + payload


def test_frames_reader_rejects_corruption(tmp_path, stack):
    path = tmp_path / "frames.sstk"
    save_frames(stack, path)
    blob = path.read_bytes()

    bad_magic = tmp_path / "bad_magic.sstk"
    bad_magic.write_bytes(b"NOTSPKL!" + blob[8:])
    with pytest.raises(ValueError):
        read_frames(bad_magic)

    truncated = tmp_path / "truncated.sstk"
    truncated.write_bytes(blob[: len(blob) - 64])
    with pytest.raises(ValueError):
        read_frames(truncated)


@pytest.mark.parametrize("change", [
    {"R": 0},  # no frames
    {"P": 3},  # delta_axis holds four offsets
    {"R": 1e999},  # a count no int holds
    {"R": 3},  # more frames than the payload holds
    {"dtype": "float32"},  # samples the reader would misread as float64
], ids=["no-frames", "axis-too-long", "overflowing-count", "short-payload", "float32-samples"])
def test_frames_reader_checks_the_header(tmp_path, change):
    header = {"N": 1, "R": 2, "P": 4, "seed": 0, "bits": None,
              "delta_axis": [0.0, 1.0, 2.0, 3.0], "dtype": "float64"}
    path = tmp_path / "frames.sstk"
    path.write_bytes(frame_container(header, np.ones((2, 4)).tobytes()))
    assert held_frames(read_frames(path)).shape == (2, 4)
    path.write_bytes(frame_container({**header, **change}, np.ones((2, 4)).tobytes()))
    with pytest.raises(FormatError, match="frames.sstk"):
        read_frames(path)


def test_frames_reader_names_the_file_in_a_bad_chunk(tmp_path, stack):
    path = tmp_path / "frames.sstk"
    save_frames(stack, path)
    back = read_frames(path)
    path.write_bytes(path.read_bytes()[:-8])  # the file shrinks after its header was read
    with pytest.raises(FormatError, match="frames.sstk.*truncated"):
        list(back.chunks)


def test_frames_reader_names_a_missing_file(tmp_path):
    with pytest.raises(FormatError, match="missing.sstk"):
        read_frames(tmp_path / "missing.sstk")


def test_reestimating_an_archive_holds_one_chunk(tmp_path):
    # 8000 frames of 240 pixels, a 14.6 MiB payload; the estimate reads it
    # one 512-frame chunk (0.94 MiB) at a time
    inten = np.arange(8000 * 240, dtype=float).reshape(8000, 240) + 1.0
    frames = FrameStream(chunks=(inten,), n_frames=8000, delta_axis=uniform_grid(240),
                         n_sources=1, seed=0)
    path = tmp_path / "frames.sstk"
    save_frames(frames, path)
    del inten, frames
    pixel_sets = [nearest_magic_pixels(uniform_grid(240), m)[0] for m in (3, 4)]
    estimate_g_m(read_frames(path), pixel_sets)  # numpy's lazy imports are not the reader's
    tracemalloc.start()
    try:
        curves = estimate_g_m(read_frames(path), pixel_sets)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(curves) == 2
    assert peak < 8000 * 240 * 8 / 2


def test_frame_writer_commits_only_a_finished_stream(tmp_path, stack):
    path = tmp_path / "frames.sstk"
    with pytest.raises(RuntimeError):
        with write_frames(stack, path) as stream:
            for _ in stream.chunks:
                raise RuntimeError("the reader failed")
    with pytest.raises(ValueError, match="0 of 32 frames"):
        with write_frames(stack, path):
            pass
    assert not any(tmp_path.iterdir())


def test_writers_leave_no_temp_files(tmp_path, stack):
    save_frames(stack, tmp_path / "frames.sstk")
    write_json(tmp_path / "data.json", {"k": 1})
    write_curve_csv(magic_curve((2,), 3), tmp_path / "curve.csv")
    write_replicas(np.ones((2, 3)), tmp_path / "replicas.npy")
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == ["curve.csv", "data.json", "frames.sstk", "replicas.npy"]
