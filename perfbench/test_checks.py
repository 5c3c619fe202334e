"""Each correctness check passes on real CLI output and rejects a corrupted copy.

Run from the repository root: ``python3 -m pytest perfbench``.  The
fixtures run the real pipeline in-process once per workload at its
simulation seed (about half a minute in all).
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
from workloads import SIM_SEED, WORKLOADS

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(scope="module")
def finished(tmp_path_factory):
    """One finished run directory per workload, made by the real CLI."""
    sys.path.insert(0, str(SRC))
    from specklescope.cli import main

    made = {}

    def get(name: str) -> Path:
        if name not in made:
            workload = WORKLOADS[name]
            out = tmp_path_factory.mktemp(name) / "run"
            ini = out.parent / "workload.ini"
            ini.write_text(workload.ini())
            seed = str(SIM_SEED)
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                for argv in (
                    ["simulate", "--config", str(ini), "--seed", seed, "--out", str(out)],
                    ["analyze", "--config", str(ini), "--out", str(out)],
                    ["reconstruct", "--config", str(ini), "--out", str(out)],
                ):
                    assert main(argv) == 0, argv
            (out / "frames.sstk").unlink()
            made[name] = out
        return made[name]

    return get


def corrupt(run: Path, tmp_path: Path, name: str, edit) -> Path:
    """A copy of `run` whose JSON file `name` went through `edit`."""
    copy = tmp_path / "corrupt"
    shutil.copytree(run, copy)
    data = json.loads((copy / name).read_text())
    edit(data)
    (copy / name).write_text(json.dumps(data))
    return copy


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_check_passes_on_real_output(finished, name):
    assert checks.run_checks(WORKLOADS[name], finished(name)) == [
        (check, None) for check, _ in checks.checks_for(WORKLOADS[name])
    ]


def _set_status(f: int, status: str):
    def edit(data):
        for row in data["rows"]:
            if row["f"] == f:
                row["status"] = status
    return edit


@pytest.mark.parametrize("f, status", [(4, "absent"), (2, "present"), (7, "absent")])
def test_evidence_rejects_a_flipped_row(finished, tmp_path, f, status):
    run = corrupt(finished("demo"), tmp_path, "evidence.json", _set_status(f, status))
    assert checks.check_evidence(WORKLOADS["demo"], run) is not None


def test_evidence_rejects_a_dropped_row(finished, tmp_path):
    run = corrupt(finished("demo"), tmp_path, "evidence.json", lambda d: d["rows"].pop())
    assert checks.check_evidence(WORKLOADS["demo"], run) is not None


def test_candidates_reject_a_dropped_candidate(finished, tmp_path):
    run = corrupt(finished("deep"), tmp_path, "reconstruction.json",
                  lambda d: d["candidates"].pop(len(d["candidates"]) // 2))
    assert "brute force" in checks.check_candidates(WORKLOADS["deep"], run)


def test_candidates_reject_an_extra_candidate(finished, tmp_path):
    def edit(data):
        data["candidates"].append({"x": [1, 1], "score": 0.0, "chi2_by_order": {}})
    run = corrupt(finished("demo"), tmp_path, "reconstruction.json", edit)
    assert "brute force" in checks.check_candidates(WORKLOADS["demo"], run)


def test_candidates_reject_a_duplicate(finished, tmp_path):
    def edit(data):
        first = data["candidates"][0]
        data["candidates"].append(dict(first, x=first["x"][::-1]))
    run = corrupt(finished("demo"), tmp_path, "reconstruction.json", edit)
    assert checks.check_candidates(WORKLOADS["demo"], run) == "duplicate candidates"


@pytest.mark.parametrize("name", ["demo", "deep"])
def test_candidates_reject_a_wrong_exhaustive_flag(finished, tmp_path, name):
    def edit(data):
        data["exhaustive"] = not data["exhaustive"]
    run = corrupt(finished(name), tmp_path, "reconstruction.json", edit)
    assert "exhaustive" in checks.check_candidates(WORKLOADS[name], run)


def test_candidates_reject_evidence_that_excludes_the_truth(finished, tmp_path):
    """Candidates that do match their evidence still fail without the truth."""
    workload = WORKLOADS["deep"]

    def edit(data):
        for row in data["evidence"]["rows"]:
            if row["f"] == 1:  # a pair distance of the truth (1, 3, 5)
                row["status"] = "absent"
        want, _ = checks.brute_force_candidates({4, 8}, {1}, workload)
        data["candidates"] = [{"x": list(x), "score": 1.0} for x in sorted(want)]

    run = corrupt(finished("deep"), tmp_path, "reconstruction.json", edit)
    assert "not a candidate" in checks.check_candidates(workload, run)


def _truth_score(value):
    def edit(data):
        for c in data["candidates"]:
            if checks.canonical_gaps(checks.positions(c["x"])) == (1, 3, 5):
                c["score"] = value
    return edit


def test_chi2_rejects_an_inflated_truth_score(finished, tmp_path):
    run = corrupt(finished("deep"), tmp_path, "reconstruction.json", _truth_score(1e3))
    assert "chi2" in checks.check_chi2(WORKLOADS["deep"], run)


def test_chi2_rejects_a_missing_truth(finished, tmp_path):
    run = corrupt(finished("deep"), tmp_path, "reconstruction.json", _truth_score(None))
    assert checks.check_chi2(WORKLOADS["deep"], run) == "the truth carries no score"


def test_unique_winner_rejects_a_close_rival(finished, tmp_path):
    def edit(data):
        scores = sorted(c["score"] for c in data["candidates"])
        data["candidates"][-1]["score"] = scores[0] + 0.5
    run = corrupt(finished("demo"), tmp_path, "reconstruction.json", edit)
    assert "2 winner(s)" in checks.check_unique_winner(WORKLOADS["demo"], run)


def _rewrite_curve(run: Path, tmp_path: Path, edit) -> Path:
    copy = tmp_path / "corrupt"
    shutil.copytree(run, copy)
    delta, values, sigma = checks.read_curve(copy / "curves_m5.csv")
    values = edit(delta, values.copy(), sigma)
    rows = "".join(
        f"{float(d)!r},{float(v)!r},{float(s)!r}\n" for d, v, s in zip(delta, values, sigma)
    )
    (copy / "curves_m5.csv").write_text("delta1_rad,g_value,sigma\n" + rows)
    return copy


def test_curve_rejects_one_shifted_pixel(finished, tmp_path):
    def edit(delta, values, sigma):
        values[17] += 6.0 * sigma[17]
        return values
    run = _rewrite_curve(finished("deep"), tmp_path, edit)
    assert "pixel 17" in checks.check_curve(WORKLOADS["deep"], run)


def test_curve_rejects_another_geometry(finished, tmp_path):
    other = dataclasses.replace(WORKLOADS["deep"], x=(1, 3, 4))
    run = _rewrite_curve(finished("deep"), tmp_path,
                         lambda delta, values, sigma: checks.analytic_curve(other, 5, delta))
    assert checks.check_curve(WORKLOADS["deep"], run) is not None


def test_a_missing_output_fails_its_check(finished, tmp_path):
    copy = tmp_path / "corrupt"
    shutil.copytree(finished("demo"), copy)
    (copy / "reconstruction.json").unlink()
    results = dict(checks.run_checks(WORKLOADS["demo"], copy))
    assert results["evidence"] is None
    assert results["candidates"].startswith("FileNotFoundError")


def test_permanent_matches_a_closed_form():
    # perm of the all-ones n x n matrix is n!
    assert np.allclose(checks.permanent(np.ones((2, 5, 5))), 120.0)
