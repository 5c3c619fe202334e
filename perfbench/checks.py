"""Correctness checks on a finished run directory, computed apart from the program.

Nothing here imports specklescope: the expected evidence comes from the
true geometry's pair distances, the expected candidates from a brute-force
walk over lattice point sets, and the expected curve from a direct
permutation sum for the permanent.  Each check returns an error message,
or None when the output is correct.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from pathlib import Path

import numpy as np
from scipy.stats import chi2

from workloads import MAX_SOURCES, Workload

CHI2_QUANTILE = 0.999
# the estimated curve must sit within this many of its own sigmas of the
# analytic one at every pixel (the estimator noise is correlated across
# pixels, so a share-within-2-sigma test would not be calibrated)
CURVE_MAX_Z = 4.0


def positions(x) -> tuple[int, ...]:
    return (0, *itertools.accumulate(x))


def canonical_gaps(points) -> tuple[int, ...]:
    """Gap sequence of a point set, the smaller of it and its mirror image."""
    ordered = sorted(points)
    gaps = tuple(b - a for a, b in zip(ordered, ordered[1:]))
    return min(gaps, gaps[::-1])


def differences(points) -> set[int]:
    return {abs(a - b) for a, b in itertools.combinations(points, 2)}


# ---------------------------------------------------------------------------
# expected outputs
# ---------------------------------------------------------------------------


def expected_evidence(workload: Workload) -> dict:
    """Evidence rows an ideal analysis reports for the true geometry.

    Order m passes exactly the pair distances divisible by m - 1: such a
    distance is present when the array has it and absent when it does
    not; a distance no order passes is unknown.  Rows run up to the
    largest present distance.
    """
    dists = differences(positions(workload.x))

    def passing(f: int) -> list[int]:
        return sorted(m for m in workload.orders if f % (m - 1) == 0)

    present = [f for f in dists if passing(f)]
    span_hint = max(present, default=0)
    rows = {}
    for f in range(1, span_hint + 1):
        orders = passing(f)
        if not orders:
            rows[f] = ("unknown", [], [])
        elif f in dists:
            rows[f] = ("present", orders, [])
        else:
            rows[f] = ("absent", [], orders)
    return {"span_hint": span_hint, "orders_measured": sorted(workload.orders), "rows": rows}


def brute_force_candidates(
    present: set[int], absent: set[int], workload: Workload
) -> tuple[set[tuple[int, ...]], bool]:
    """Every lattice point set within the bounds that fits the evidence.

    Spans run from max(present) up to max_span when unknown spans are
    allowed; a span is itself a pair distance and so must not be absent.
    Returns canonical gap tuples and whether the search is exhaustive:
    bounded spans, and no valid set with one source more than allowed.
    """
    base = max(present)
    last = workload.max_span if workload.allow_unknown_span else base
    spans = [s for s in range(base, last + 1) if s <= workload.max_span and s not in absent]
    found = set()
    one_more = False
    for span in spans:
        for k in range(0, MAX_SOURCES - 1):
            for interior in itertools.combinations(range(1, span), k):
                points = (0, *interior, span)
                diffs = differences(points)
                if present <= diffs and not diffs & absent:
                    found.add(canonical_gaps(points))
        for interior in itertools.combinations(range(1, span), MAX_SOURCES - 1):
            diffs = differences((0, *interior, span))
            if present <= diffs and not diffs & absent:
                one_more = True
                break
    exhaustive = not workload.allow_unknown_span and base <= workload.max_span and not one_more
    return found, exhaustive


def permanent(mats: np.ndarray) -> np.ndarray:
    """Permanents of a (..., n, n) stack by the defining permutation sum."""
    n = mats.shape[-1]
    rows = np.arange(n)
    total = np.zeros(mats.shape[:-2], dtype=complex)
    for perm in itertools.permutations(range(n)):
        total += np.prod(mats[..., rows, list(perm)], axis=-1)
    return total


def analytic_curve(workload: Workload, m: int, delta_axis: np.ndarray) -> np.ndarray:
    """Exact g^(m) with the m - 1 fixed detectors on the pixels nearest the
    magic offsets 2*pi*j/(m - 1), equal source weights."""
    alpha = np.asarray(positions(workload.x), dtype=float)
    fixed = [
        delta_axis[int(np.argmin(np.abs(delta_axis - 2 * math.pi * j / (m - 1))))]
        for j in range(m - 1)
    ]
    deltas = np.empty((delta_axis.size, m))
    deltas[:, 0] = delta_axis
    deltas[:, 1:] = fixed
    diff = deltas[:, None, :] - deltas[:, :, None]  # delta_k - delta_j
    coherence = np.exp(1j * alpha[:, None, None, None] * diff[None]).sum(axis=0)
    return permanent(coherence).real / alpha.size**m


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def _read_json(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def check_evidence(workload: Workload, run: Path) -> str | None:
    got = _read_json(run / "evidence.json")
    want = expected_evidence(workload)
    if got["span_hint"] != want["span_hint"]:
        return f"span_hint {got['span_hint']} != {want['span_hint']}"
    if sorted(got["orders_measured"]) != want["orders_measured"]:
        return f"orders_measured {got['orders_measured']} != {want['orders_measured']}"
    rows = {int(r["f"]): r for r in got["rows"]}
    if sorted(rows) != sorted(want["rows"]):
        return f"rows for f={sorted(rows)}, expected f={sorted(want['rows'])}"
    for f, (status, present_orders, absent_orders) in want["rows"].items():
        r = rows[f]
        seen = (r["status"], sorted(r["present_orders"]), sorted(r["absent_orders"]))
        if seen != (status, present_orders, absent_orders) or r["conflict"]:
            return f"f={f}: got {seen}, conflict={r['conflict']}; expected {status}"
    return None


def check_candidates(workload: Workload, run: Path) -> str | None:
    report = _read_json(run / "reconstruction.json")
    rows = report["evidence"]["rows"]
    present = {int(r["f"]) for r in rows if r["status"] == "present"}
    absent = {int(r["f"]) for r in rows if r["status"] == "absent"}
    if not present:
        return "no present frequencies in the reconstruction's evidence"
    got = [canonical_gaps(positions(c["x"])) for c in report["candidates"]]
    if len(set(got)) != len(got):
        return "duplicate candidates"
    want, exhaustive = brute_force_candidates(present, absent, workload)
    if set(got) != want:
        missing = sorted(want - set(got))[:3]
        extra = sorted(set(got) - want)[:3]
        return f"{len(got)} candidates vs {len(want)} by brute force; missing {missing}, extra {extra}"
    truth = canonical_gaps(positions(workload.x))
    if truth not in want:
        return f"truth {list(truth)} is not a candidate"
    if report["exhaustive"] != exhaustive:
        return f"exhaustive={report['exhaustive']}, expected {exhaustive}"
    return None


def _truth_and_scores(workload: Workload, run: Path) -> tuple[float | None, list[float]]:
    truth = canonical_gaps(positions(workload.x))
    cands = _read_json(run / "reconstruction.json")["candidates"]
    truth_score = None
    scores = []
    for c in cands:
        if c["score"] is None:
            continue
        scores.append(c["score"])
        if canonical_gaps(positions(c["x"])) == truth:
            truth_score = c["score"]
    return truth_score, scores


def check_chi2(workload: Workload, run: Path) -> str | None:
    """The truth's chi-square is consistent with its number of measured lines."""
    truth_score, _ = _truth_and_scores(workload, run)
    if truth_score is None:
        return "the truth carries no score"
    spectra = _read_json(run / "spectra.json")
    lines = sum(len(s["harmonics"]) for s in spectra["gated"])
    if lines < 1:
        return "no measured lines"
    limit = float(chi2.ppf(CHI2_QUANTILE, lines))
    if not truth_score < limit:
        return f"truth chi2 {truth_score:.2f} >= {limit:.2f} ({CHI2_QUANTILE} quantile, {lines} lines)"
    return None


def check_unique_winner(workload: Workload, run: Path) -> str | None:
    truth_score, scores = _truth_and_scores(workload, run)
    if truth_score is None:
        return "the truth carries no score"
    rivals = [s for s in scores if s - min(scores) < 1.0]
    if truth_score != min(scores) or len(rivals) != 1:
        return f"truth chi2 {truth_score:.2f}, {len(rivals)} winner(s) within one unit of {min(scores):.2f}"
    return None


def read_curve(path: Path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != ["delta1_rad", "g_value", "sigma"]:
            raise ValueError(f"unexpected curve header {header}")
        data = np.array([[float(v) for v in row] for row in reader if row])
    return data[:, 0], data[:, 1], data[:, 2]


def check_curve(workload: Workload, run: Path) -> str | None:
    m = workload.check_curve_order
    delta, values, sigma = read_curve(run / f"curves_m{m}.csv")
    if delta.size != workload.pixels:
        return f"{delta.size} curve samples, expected {workload.pixels}"
    if not np.allclose(delta, 2 * math.pi * np.arange(workload.pixels) / workload.pixels):
        return "curve samples are not the camera grid"
    if np.any(sigma <= 0):
        return "non-positive sigma in the curve"
    z = np.abs(values - analytic_curve(workload, m, delta)) / sigma
    worst = int(np.argmax(z))
    if z[worst] > CURVE_MAX_Z:
        return f"curve off the analytic g^({m}) by {z[worst]:.2f} sigma at pixel {worst}"
    return None


def checks_for(workload: Workload) -> list[tuple[str, callable]]:
    """The checks that apply to a workload, in a fixed order."""
    out = [("evidence", check_evidence), ("candidates", check_candidates), ("chi2", check_chi2)]
    if workload.unique_winner:
        out.append(("unique_winner", check_unique_winner))
    if workload.check_curve_order is not None:
        out.append(("curve", check_curve))
    return out


def run_checks(workload: Workload, run: Path) -> list[tuple[str, str | None]]:
    """(name, error or None) for every check; an unreadable output fails its check."""
    results = []
    for name, check in checks_for(workload):
        try:
            results.append((name, check(workload, run)))
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            results.append((name, f"{type(exc).__name__}: {exc}"))
    return results
