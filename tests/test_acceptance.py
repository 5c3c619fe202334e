"""Top-level acceptance checks for the whole toolkit.

Each test exercises one external claim end to end and prints a single
PASS/FAIL verdict line, so a bare `pytest tests/test_acceptance.py -rA`
reads as a checklist.  Workloads and tolerances are pinned; none of the
checks is statistical enough to flake under the fixed seeds used here.
"""

import contextlib
import io
import itertools
import json
import time

import numpy as np

from conftest import (
    distinct_frequencies, evidence_for, evidence_table, magic_curve, surviving_frequencies,
)
from search_oracle import oracle_search
from specklescope import (
    GatePolicy,
    SearchBounds,
    SourceGeometry,
    aggregate,
    aperture_report,
    disambiguate,
    estimate_g_m,
    fit_fixed,
    g_m_analytic,
    gate,
    nearest_magic_pixels,
    sample_frames,
    search,
    uniform_grid,
)
from specklescope.cli import main
from specklescope.correlation import _ryser_batch

# the comb analyze fits: every multiple of m-1 up to the default max_span
SPAN_BOUND = SearchBounds().max_span


def gated_comb_fits(curves):
    """Each curve fit on its comb and gated as analyze does: one family-wise
    threshold over every comb line tested across the curves."""
    fits = [fit_fixed(curve, SPAN_BOUND) for curve in curves]
    n_tests = sum(SPAN_BOUND // (fit.m - 1) for fit in fits)
    return fits, [gate(fit, GatePolicy(), n_tests) for fit in fits]


def verdict(number, label, ok, detail=""):
    note = f"  ({detail})" if detail else ""
    print(f"criterion {number} ({label}): {'PASS' if ok else 'FAIL'}{note}")
    assert ok, f"criterion {number} ({label}) failed{note}"


def compositions(total, max_parts):
    """Ordered gap tuples summing to `total` with at most `max_parts` gaps."""
    for k in range(1, min(max_parts, total) + 1):
        for cuts in itertools.combinations(range(1, total), k - 1):
            edges = (0, *cuts, total)
            yield tuple(b - a for a, b in zip(edges, edges[1:]))


def naive_permanent(a):
    n = a.shape[0]
    total = 0j
    for perm in itertools.permutations(range(n)):
        term = 1.0 + 0j
        for i, j in enumerate(perm):
            term *= a[i, j]
        total += term
    return total


def test_1_filtering_theorem():
    # every geometry with up to 5 sources and gaps up to 4, orders 3..6: the
    # DFT of the analytic curve at the magic placement, against the rule
    # that only pair distances divisible by m-1 survive.  Non-surviving
    # integer frequencies stay below 1e-9, surviving ones above 1e-6
    started = time.time()
    worst_leak = 0.0
    weakest_line = float("inf")
    n_geometries = 0
    for n_gaps in (1, 2, 3, 4):
        for x in itertools.product(range(1, 5), repeat=n_gaps):
            n_geometries += 1
            geometry = SourceGeometry(x)
            for m in (3, 4, 5, 6):
                curve = magic_curve(x, m)
                amplitudes = 2.0 * np.abs(np.fft.rfft(curve.values)) / len(curve)
                surviving = list(surviving_frequencies(geometry, m))
                weakest_line = float(amplitudes[surviving].min(initial=weakest_line))
                leaked = np.delete(amplitudes, [0, *surviving])
                worst_leak = max(worst_leak, float(np.max(leaked)))
    elapsed = time.time() - started
    ok = (
        n_geometries >= 120
        and worst_leak < 1e-9
        and weakest_line > 1e-6
        and elapsed < 120.0
    )
    verdict(
        1,
        "filtering theorem",
        ok,
        f"{n_geometries} geometries, leak {worst_leak:.1e}, "
        f"weakest line {weakest_line:.1e}, {elapsed:.1f}s",
    )


def test_2_permanent_engine():
    started = time.time()
    rng = np.random.default_rng(2)
    worst = 0.0
    for size in (2, 3, 4, 5, 6):
        for _ in range(20):
            base = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
            matrix = base @ base.conj().T  # Hermitian PSD
            reference = naive_permanent(matrix)
            worst = max(worst, abs(_ryser_batch(matrix[None])[0] - reference) / abs(reference))
    elapsed = time.time() - started
    ok = worst < 1e-12 and elapsed < 60.0
    verdict(2, "Ryser engine", ok, f"worst rel err {worst:.1e}, {elapsed:.1f}s")


def test_3_monte_carlo_tracks_analytic():
    started = time.time()
    geometry = SourceGeometry((3, 1, 4))
    axis = uniform_grid(120)
    pixel_sets = [nearest_magic_pixels(axis, m)[0] for m in (2, 3, 4)]
    curves = estimate_g_m(sample_frames(geometry, 100_000, 1, axis), pixel_sets)
    coverages = {}
    for fixed, estimated in zip(pixel_sets, curves):
        m = estimated.m
        reference = g_m_analytic(geometry, axis, tuple(axis[list(fixed)]))
        sigma = estimated.replicas.std(axis=0, ddof=1)
        within = np.abs(estimated.values - reference.values) <= 3.0 * sigma
        coverages[m] = float(np.mean(within))
    elapsed = time.time() - started
    ok = all(c >= 0.95 for c in coverages.values()) and elapsed < 300.0
    verdict(
        3,
        "Monte Carlo tracks analytic",
        ok,
        "coverage " + ", ".join(f"m={m}: {c:.3f}" for m, c in coverages.items())
        + f", {elapsed:.1f}s",
    )


def test_4_rich_evidence_single_candidate():
    # analytic curves carry no replicas: the errors come from the covariance
    _, gated = gated_comb_fits([magic_curve((3, 1, 4), m) for m in range(3, 10)])
    result = search(aggregate(gated))
    ok = (
        tuple(c.geometry.x for c in result.candidates) == ((3, 1, 4),)
        and result.exhaustive
    )
    verdict(
        4,
        "rich evidence pins one geometry",
        ok,
        f"candidates {[list(c.geometry.x) for c in result.candidates]}",
    )


def test_5_sparse_evidence_disambiguation():
    table = evidence_table(
        (3, 4, 5, 8, 9), absent=(2, 6, 7), orders_measured=(5,)
    )
    candidates = search(table)
    pair_ok = [c.geometry.x for c in candidates.candidates] == [(1, 3, 5), (1, 3, 1, 4)]

    wins = 0
    trials = 0
    for truth_x in ((1, 3, 5), (1, 3, 1, 4)):
        truth = SourceGeometry(truth_x)
        for trial in range(10):
            frames = sample_frames(truth, 100_000, 1000 + trial, uniform_grid(120))
            fixed, _ = nearest_magic_pixels(frames.delta_axis, 5)
            spectrum = fit_fixed(estimate_g_m(frames, (fixed,))[0], span_bound=9)
            scored = disambiguate(candidates, [spectrum])
            trials += 1
            wins += scored.candidates[0].geometry.x == truth_x
    ok = pair_ok and wins >= 19  # at least 95% of 20 trials
    verdict(
        5,
        "ambiguous pair resolved by amplitudes",
        ok,
        f"pair {'ok' if pair_ok else 'WRONG'}, {wins}/{trials} trials correct",
    )


def test_6_gated_lines_match_theory_at_low_frames():
    failures = []
    rejected_cell = None
    orders = (3, 4, 5, 6)
    for x in ((1, 3), (1, 3, 2), (2, 1, 3)):
        geometry = SourceGeometry(x)
        frames = sample_frames(geometry, 1000, 1, uniform_grid(240))
        pixel_sets = [nearest_magic_pixels(frames.delta_axis, m)[0] for m in orders]
        curves = estimate_g_m(frames, pixel_sets)
        fits, gated = gated_comb_fits(curves)
        for m, raw, kept in zip(orders, fits, gated):
            got = tuple(int(f) for f in kept.frequencies)
            want = surviving_frequencies(geometry, m)
            if got != want:
                failures.append((x, m, got, want))
            if x == (1, 3) and m == 6:
                rejected_cell = (raw.frequencies, kept.frequencies)
    # the curve with no surviving frequency tests its whole comb and the
    # gate rejects every line of it
    comb = tuple(float(f) for f in range(5, SPAN_BOUND + 1, 5))
    rejection_ok = rejected_cell == (comb, ())
    ok = not failures and rejection_ok
    verdict(
        6,
        "low-frame pipeline recovers the line pattern",
        ok,
        f"{12 - len(failures)}/12 cells, empty cell tested and rejected "
        f"{rejected_cell[0] if rejected_cell else None}",
    )


def test_7_aperture_fractions():
    reports = [aperture_report(m) for m in range(3, 9)]
    exact = all(r.moving == 1.0 / (r.m - 1) for r in reports)
    below_one = all(r.total < 1.0 for r in reports)
    monotone = all(a.total <= b.total for a, b in zip(reports, reports[1:]))
    ok = exact and below_one and monotone
    verdict(
        7,
        "aperture fractions",
        ok,
        "r_total " + ", ".join(f"{r.total:.3f}" for r in reports),
    )


def test_8_search_equals_oracle():
    started = time.time()
    order_subsets = [
        subset
        for size in range(1, 6)
        for subset in itertools.combinations((3, 4, 5, 6, 7), size)
    ]
    unique_tables = {}
    for span in range(1, 11):
        for x in compositions(span, 4):  # up to 5 sources
            for orders in order_subsets:
                table = evidence_for(x, orders)
                if not table.present():
                    continue
                key = (table.present(), table.absent())
                unique_tables.setdefault(key, table)

    bounds = SearchBounds(max_sources=5, max_span=10)
    mismatches = 0
    for table in unique_tables.values():
        fast = search(table, bounds)
        slow = oracle_search(table, bounds)
        if (
            fast.geometries() != slow.geometries()
            or fast.exhaustive != slow.exhaustive
        ):
            mismatches += 1
    elapsed = time.time() - started
    ok = mismatches == 0 and len(unique_tables) > 100 and elapsed < 120.0
    verdict(
        8,
        "search equals oracle",
        ok,
        f"{len(unique_tables)} evidence tables, {mismatches} mismatches, {elapsed:.1f}s",
    )


def run_cli(tmp_path, config):
    """simulate, analyze and reconstruct through the CLI; the run's JSON results."""
    (tmp_path / "run.ini").write_text(config)
    args = ["--config", str(tmp_path / "run.ini"), "--out", str(tmp_path / "out")]
    with contextlib.redirect_stdout(io.StringIO()):
        for command in ("simulate", "analyze", "reconstruct"):
            assert main([command, *args]) == 0, command
    return (json.loads((tmp_path / "out" / name).read_text())
            for name in ("evidence.json", "reconstruction.json"))


def truth_verdict(x, evidence, report):
    """(false Absent rows, the truth's rank, the number of winners)."""
    truth = min(tuple(x), tuple(x)[::-1])
    distances = set(distinct_frequencies(SourceGeometry(truth)))
    false_absent = [r["f"] for r in evidence["rows"]
                    if r["status"] == "absent" and r["f"] in distances]
    scores = [c["score"] for c in report["candidates"]]
    ranks = [i for i, c in enumerate(report["candidates"])
             if min(tuple(c["x"]), tuple(c["x"])[::-1]) == truth]
    winners = sum(s - min(scores) < 1.0 for s in scores) if scores else 0
    return false_absent, (ranks[0] if ranks else None), winners


def test_9_demo_seed_11_picks_the_truth(tmp_path):
    # the README session at a seed where the order-6 line at f = 5 is the
    # weakest (a/A0 about 0.6 +- 0.1): dropping it turns f = 5 Absent, and
    # then only [1, 3, 4] fits the evidence
    evidence, report = run_cli(tmp_path, """\
[geometry]
x = [3, 1, 4]

[simulate]
frames = 20000
seed = 11
pixels = 240
orders = [3, 4, 5, 6]
save_frames = False
""")
    false_absent, rank, winners = truth_verdict((3, 1, 4), evidence, report)
    ok = not false_absent and rank == 0 and winners == 1
    verdict(9, "demo seed 11 names the truth", ok,
            f"false absent {false_absent}, truth rank {rank}, {winners} winner(s)")


def test_10_eight_sources_end_to_end(tmp_path):
    # order 3 alone carries 11 true lines; any one left untested turns a
    # true distance Absent, and the truth leaves the search
    evidence, report = run_cli(tmp_path, """\
[geometry]
x = [1, 4, 2, 6, 3, 5, 2]

[simulate]
frames = 100000
seed = 1
pixels = 240
orders = [3, 4, 5, 6]
save_frames = False

[reconstruct]
max_sources = 8
max_span = 25
allow_unknown_span = True
""")
    false_absent, rank, winners = truth_verdict((1, 4, 2, 6, 3, 5, 2), evidence, report)
    ok = not false_absent and rank == 0 and winners == 1
    verdict(10, "eight sources end to end", ok,
            f"false absent {false_absent}, truth rank {rank} of "
            f"{len(report['candidates'])}, {winners} winner(s)")
