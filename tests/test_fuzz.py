"""Fuzzed run artifacts: readers raise only SpeckleScopeError, commands return codes.

Each artifact of a small finished run is truncated, has one byte flipped, or
(for JSON) loses one key anywhere in its tree.  Examples are derandomized and
few, so the suite stays fast and every failure reproduces.
"""

import contextlib
import copy
import io
import json
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specklescope import FormatError, SpeckleScopeError
from specklescope.cli import main
from specklescope.serialize import (
    evidence_from_dict,
    fits_from_dict,
    manifest_from_dict,
    read_curve_csv,
    read_frames,
    read_json,
    read_replicas,
    report_from_dict,
)

CONFIG = """\
[geometry]
x = [1, 3]

[simulate]
frames = 400
seed = 1
pixels = 120
orders = [3]
"""

# artifact -> the commands that read it (frames.sstk is read by none)
COMMANDS = {
    "curves_m3.csv": ("analyze",),
    "replicas_m3.npy": ("analyze",),
    "frames.sstk": (),
    "spectra.json": ("reconstruct",),
    "evidence.json": ("reconstruct", "report"),
    "reconstruction.json": ("report",),
    "manifest.json": ("analyze", "reconstruct", "report"),
}


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    (root / "run.ini").write_text(CONFIG)
    out = root / "out"
    with contextlib.redirect_stdout(io.StringIO()):
        for cmd in ("simulate", "analyze", "reconstruct"):
            assert main([cmd, "--config", str(root / "run.ini"), "--out", str(out)]) == 0
    return out


def _readers(run_dir):
    curve = read_curve_csv(run_dir / "curves_m3.csv", 3)
    return {
        "curves_m3.csv": lambda path: read_curve_csv(path, 3),
        "replicas_m3.npy": lambda path: read_replicas(path, curve),
        # the payload is read as the chunks are reached, so they are drained
        "frames.sstk": lambda path: list(read_frames(path).chunks),
        "spectra.json": lambda path: read_json(path, fits_from_dict),
        "evidence.json": lambda path: read_json(path, evidence_from_dict),
        "reconstruction.json": lambda path: read_json(path, report_from_dict),
        "manifest.json": lambda path: read_json(path, manifest_from_dict),
    }


def _key_paths(value, prefix=()):
    """Every path to a dict key in a JSON tree."""
    if isinstance(value, dict):
        for key, child in value.items():
            yield prefix + (key,)
            yield from _key_paths(child, prefix + (key,))
    elif isinstance(value, list):
        for index, child in enumerate(value):
            yield from _key_paths(child, prefix + (index,))


def _without(blob, path):
    data = json.loads(blob)
    parent = data
    for step in path[:-1]:
        parent = parent[step]
    del parent[path[-1]]
    return json.dumps(data).encode()


def _flip(blob, at, mask):
    return blob[:at] + bytes([blob[at] ^ mask]) + blob[at + 1 :]


def damaged(blob: bytes, is_json: bool):
    """Truncations, single-byte flips (weighted to the header) and dropped keys."""
    size = len(blob)
    at = st.one_of(st.integers(0, min(size, 256) - 1), st.integers(0, size - 1))
    cases = [
        st.builds(lambda n: blob[:n], st.integers(0, size - 1)),
        st.builds(lambda i, mask: _flip(blob, i, mask), at, st.integers(1, 255)),
    ]
    if is_json:
        paths = sorted(_key_paths(json.loads(blob)), key=repr)
        cases.append(st.builds(lambda path: _without(blob, path), st.sampled_from(paths)))
    return st.one_of(cases)


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_readers_raise_only_package_errors(run_dir, name):
    read = _readers(run_dir)[name]
    original = (run_dir / name).read_bytes()
    read(run_dir / name)  # the intact artifact reads

    @settings(max_examples=60, derandomize=True, deadline=None, database=None)
    @given(damaged(original, name.endswith(".json")))
    def check(blob):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / name
            path.write_bytes(blob)
            try:
                read(path)
            except SpeckleScopeError:
                pass

    check()


@pytest.mark.parametrize("name", sorted(n for n, cmds in COMMANDS.items() if cmds))
def test_commands_return_a_code_on_damaged_artifacts(run_dir, name):
    original = (run_dir / name).read_bytes()

    @settings(max_examples=10, derandomize=True, deadline=None, database=None)
    @given(damaged(original, name.endswith(".json")))
    def check(blob):
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "out"
            shutil.copytree(run_dir, out)
            (out / name).write_bytes(blob)
            for command in COMMANDS[name]:
                sink = io.StringIO()
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    code = main([command, "--out", str(out)])
                assert isinstance(code, int), command

    check()


# the per-line record of spectra.json, contrast fields included
LINE_KEYS = ("f", "A", "sigma_A", "a_A0", "sigma_a_A0", "b_A0", "sigma_b_A0")
DROP = object()


def test_spectra_reader_checks_every_line_field(run_dir):
    data = json.loads((run_dir / "spectra.json").read_text())
    lines = [(i, j) for i, s in enumerate(data["fits"]) for j in range(len(s["harmonics"]))]
    assert lines, "the run fitted no line"
    values = st.one_of(
        st.just(DROP), st.none(), st.booleans(), st.text(max_size=3),
        st.floats(allow_nan=True, allow_infinity=True), st.lists(st.integers(), max_size=2),
    )

    @settings(max_examples=80, derandomize=True, deadline=None, database=None)
    @given(st.sampled_from(lines), st.sampled_from(LINE_KEYS), values)
    def check(at, key, value):
        broken = copy.deepcopy(data)
        line = broken["fits"][at[0]]["harmonics"][at[1]]
        if value is DROP:
            del line[key]
        else:
            line[key] = value
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "spectra.json"
            path.write_text(json.dumps(broken))
            try:
                read_json(path, fits_from_dict)
            except FormatError:
                return
            assert value is not DROP, f"a line without {key} was read"

    check()
