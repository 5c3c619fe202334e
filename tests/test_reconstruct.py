"""Geometry search against evidence tables, scoring, aperture accounting."""

import hashlib
import itertools
import math
import random
from dataclasses import replace

import numpy as np
import pytest

from conftest import (
    distinct_frequencies, evidence_for, evidence_table, magic_curve, surviving_frequencies,
)
from search_oracle import BoundsError, oracle_search
from specklescope import (
    Candidate,
    CandidateSet,
    EmptyEvidenceError,
    Harmonic,
    ModulationSpectrum,
    OrderError,
    SearchBounds,
    SourceGeometry,
    aperture_report,
    disambiguate,
    predicted_spectrum,
    reconstruct,
    search,
)


def measured_spectrum(truth, m, sigma_a=0.02):
    """The exact lines of `truth` at order m, each given the error sigma_a."""
    surviving = surviving_frequencies(truth, m)
    contrasts = predicted_spectrum((truth,), m, surviving)[0]
    a0 = float(np.mean(magic_curve(truth.x, m).values))
    lines = tuple(
        Harmonic(f=float(f), amplitude=float(c) * a0, sigma_a=sigma_a)
        for f, c in zip(surviving, contrasts)
    )
    return ModulationSpectrum(m=m, a0=a0, harmonics=lines)


AMBIGUOUS = evidence_table(
    (3, 4, 5, 8, 9), absent=(2, 6, 7), orders_measured=(3, 5)
)


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------


def test_rich_evidence_pins_a_single_geometry():
    result = search(evidence_for((3, 1, 4), range(3, 10)))
    assert result.geometries() == (SourceGeometry((3, 1, 4)),)
    assert result.exhaustive


def test_sparse_evidence_leaves_an_ambiguity():
    result = search(AMBIGUOUS)
    assert [c.geometry.x for c in result.candidates] == [(1, 3, 5), (1, 3, 1, 4)]
    assert result.exhaustive
    assert all(c.score is None for c in result.candidates)


@pytest.mark.parametrize("n_gaps", [1, 2, 3])
def test_search_always_recovers_the_truth(n_gaps):
    # measuring orders up to span+1 guarantees the span itself shows up
    for x in itertools.product(range(1, 4), repeat=n_gaps):
        span = sum(x)
        if span < 2:  # no order >= 3 can see a span-1 pair
            continue
        result = search(evidence_for(x, range(3, span + 2)))
        assert SourceGeometry(min(x, x[::-1])) in result.geometries(), x


def test_search_matches_the_oracle_on_spot_checks():
    tables = [
        evidence_for((1, 3), (3, 4)),
        evidence_for((2, 1, 3), (3, 4, 5)),
        evidence_for((1, 1, 1, 1), (3, 5)),
        AMBIGUOUS,
        evidence_table((5,), absent=(4,)),
    ]
    for table in tables:
        fast = search(table)
        slow = oracle_search(table)
        assert fast.geometries() == slow.geometries()
        assert fast.exhaustive == slow.exhaustive


def test_search_matches_the_oracle_on_random_tables():
    rng = random.Random(20161)
    for _ in range(150):
        gaps = [rng.randint(1, 4) for _ in range(rng.randint(1, 5))]
        while sum(gaps) > 12:
            gaps.pop()
        distances = set(distinct_frequencies(SourceGeometry(tuple(gaps))))
        present = [f for f in sorted(distances) if rng.random() < 0.7] or [max(distances)]
        absent = [f for f in range(1, sum(gaps) + 1) if f not in distances and rng.random() < 0.6]
        table = evidence_table(present, absent)
        bounds = SearchBounds(
            max_sources=rng.randint(2, 6), max_span=12, allow_unknown_span=rng.random() < 0.5
        )
        fast = search(table, bounds)
        slow = oracle_search(table, bounds)
        assert fast.geometries() == slow.geometries(), (present, absent, bounds)
        assert fast.exhaustive == slow.exhaustive, (present, absent, bounds)


# the widened search of the benchmark's deep workload, past the oracle's limits
@pytest.mark.parametrize("max_sources, count, digest", [
    (6, 2702, "7351c5148969"),
    (7, 9595, "873c5c8cd099"),
    (8, 23855, "286a9548785e"),
])
def test_search_keeps_its_candidates_past_the_oracle(max_sources, count, digest):
    table = evidence_table((4, 8), orders_measured=(5,))
    bounds = SearchBounds(max_sources=max_sources, max_span=18, allow_unknown_span=True)
    result = search(table, bounds)
    xs = [c.geometry.x for c in result.candidates]
    assert len(xs) == count
    assert hashlib.sha256(repr(xs).encode()).hexdigest().startswith(digest)
    assert not result.exhaustive


def test_a_fully_measured_array_is_pinned_and_exhaustive():
    truth = SourceGeometry((2, 5, 1, 7, 3, 4))
    distances = distinct_frequencies(truth)
    table = evidence_table(
        distances, absent=[f for f in range(1, truth.span + 1) if f not in distances]
    )
    result = search(table, SearchBounds(max_sources=8, max_span=22))
    assert len(result.candidates) == 2
    assert SourceGeometry(min(truth.x, truth.x[::-1])) in result.geometries()
    assert result.exhaustive


def test_search_needs_some_presence():
    with pytest.raises(EmptyEvidenceError):
        search(evidence_table((), absent=(2, 4)))


def test_unreachable_span_truncates_the_search():
    table = evidence_table((13,))
    result = search(table, SearchBounds(max_span=12))
    assert result.geometries() == ()
    assert not result.exhaustive


def test_source_cap_is_probed_not_assumed():
    table = evidence_table((1, 2, 3))
    capped = search(table, SearchBounds(max_sources=3, max_span=10))
    assert capped.geometries() == (SourceGeometry((1, 2)),)
    assert not capped.exhaustive  # a 4-source arrangement also fits
    roomy = search(table, SearchBounds(max_sources=4, max_span=10))
    assert roomy.geometries() == (
        SourceGeometry((1, 2)),
        SourceGeometry((1, 1, 1)),
    )
    assert roomy.exhaustive


def test_unknown_span_widens_but_never_claims_exhaustive():
    table = evidence_table((2,))
    closed = search(table)
    assert closed.geometries() == (SourceGeometry((2,)), SourceGeometry((1, 1)))
    assert closed.exhaustive
    opened = search(table, SearchBounds(allow_unknown_span=True, max_span=4))
    assert set(closed.geometries()) <= set(opened.geometries())
    assert SourceGeometry((2, 2)) in opened.geometries()
    assert not opened.exhaustive


def test_bounds_validation():
    with pytest.raises(ValueError):
        SearchBounds(max_sources=1)
    with pytest.raises(ValueError):
        SearchBounds(max_span=0)


def test_oracle_refuses_oversized_problems():
    with pytest.raises(BoundsError):
        oracle_search(evidence_table((13,)))
    with pytest.raises(BoundsError):
        oracle_search(evidence_table((3,)), SearchBounds(max_sources=7))


# ---------------------------------------------------------------------------
# amplitude disambiguation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("truth_x", [(1, 3, 5), (1, 3, 1, 4)])
def test_amplitude_ratios_pick_the_true_geometry(truth_x):
    truth = SourceGeometry(truth_x)
    spectra = [measured_spectrum(truth, m) for m in (3, 5)]
    scored = disambiguate(search(AMBIGUOUS), spectra)
    by_x = {c.geometry.x: c for c in scored.candidates}
    assert by_x[truth_x].score == pytest.approx(0.0, abs=1e-12)
    others = [c.score for x, c in by_x.items() if x != truth_x]
    assert min(others) > 100.0
    assert [c.geometry.x for c in scored.winners()] == [truth_x]
    assert dict(by_x[truth_x].chi2_by_order).keys() == {3, 5}


def test_scores_are_scale_invariant():
    truth = SourceGeometry((1, 3, 5))
    spectra = [measured_spectrum(truth, m) for m in (3, 5)]
    scale = 3.7
    scaled = [
        ModulationSpectrum(
            m=s.m,
            a0=scale * s.a0,
            sigma_a0=scale * s.sigma_a0,
            harmonics=tuple(
                replace(
                    h,
                    amplitude=scale * h.amplitude,
                    sigma_a=scale * h.sigma_a,
                )
                for h in s.harmonics
            ),
        )
        for s in spectra
    ]
    a = disambiguate(search(AMBIGUOUS), spectra)
    b = disambiguate(search(AMBIGUOUS), scaled)
    for ca, cb in zip(a.candidates, b.candidates):
        assert ca.geometry == cb.geometry
        assert ca.score == pytest.approx(cb.score, rel=1e-9)


def test_scores_match_a_loop_over_candidates_and_lines():
    # each candidate's chi-square summed line by line in Python floats, every
    # comb line up to f = 12 measured with noise on A and A0.  numpy squares
    # where ** 2 calls pow, so a term may move in its last bit; the sums keep
    # their order, so a score moves by a few ulps of each of its terms
    rng = random.Random(7)
    truth = SourceGeometry((1, 3, 5))
    spectra = []
    for m in (3, 5):
        freqs = range(m - 1, 13, m - 1)
        a0 = float(np.mean(magic_curve(truth.x, m).values))
        lines = tuple(
            Harmonic(f=float(f), amplitude=a0 * abs(c + rng.gauss(0.0, 0.05)),
                     sigma_a=a0 * rng.uniform(0.01, 0.05))
            for f, c in zip(freqs, predicted_spectrum((truth,), m, freqs)[0])
        )
        spectra.append(ModulationSpectrum(m=m, a0=a0, sigma_a0=0.02 * a0, harmonics=lines))
    candidates = search(AMBIGUOUS)
    scored = {c.geometry: c for c in disambiguate(candidates, spectra).candidates}
    assert scored.keys() == set(candidates.geometries())
    for geometry, cand in scored.items():
        chi2 = {}
        for s in spectra:
            row = predicted_spectrum((geometry,), s.m, [int(h.f) for h in s.harmonics])[0]
            chi2[s.m] = 0.0
            for h, pred in zip(s.harmonics, row.tolist()):
                var = (h.sigma_a / s.a0) ** 2 + (h.amplitude * s.sigma_a0 / s.a0**2) ** 2
                chi2[s.m] += ((h.amplitude / s.a0 - pred) / max(math.sqrt(var), 1e-12)) ** 2
        rtol = 4 * 10 * 2.0**-52  # ten lines in all
        assert [m for m, _ in cand.chi2_by_order] == [3, 5]
        for (m, value) in cand.chi2_by_order:
            assert value == pytest.approx(chi2[m], rel=rtol, abs=0)
        assert cand.score == pytest.approx(sum(chi2.values()), rel=rtol, abs=0)


def test_disambiguation_input_checks():
    truth = SourceGeometry((1, 3, 5))
    candidates = search(AMBIGUOUS)
    with pytest.raises(ValueError):
        disambiguate(candidates, [measured_spectrum(truth, 3)] * 2)
    flat = ModulationSpectrum(m=3, a0=0.0, harmonics=())
    with pytest.raises(ValueError):
        disambiguate(candidates, [flat])
    exact = [measured_spectrum(truth, m, sigma_a=0.0) for m in (3, 5)]
    with pytest.raises(ValueError):
        disambiguate(candidates, exact)  # zero errors cannot weight a fit


def test_disambiguate_predicts_once_per_measured_order(monkeypatch):
    # the benchmark times prediction by wrapping reconstruct.predicted_spectrum;
    # a path that stopped calling through that name would time nothing
    calls = []
    original = reconstruct.predicted_spectrum

    def counting(geometries, m, *args, **kwargs):
        calls.append((tuple(geometries), m))
        return original(geometries, m, *args, **kwargs)

    monkeypatch.setattr(reconstruct, "predicted_spectrum", counting)
    truth = SourceGeometry((1, 3, 5))
    candidates = search(AMBIGUOUS)
    lineless = ModulationSpectrum(m=4, a0=1.0, harmonics=())
    spectra = [measured_spectrum(truth, 3), lineless, measured_spectrum(truth, 5)]
    ranked = disambiguate(candidates, spectra)
    assert [m for _, m in calls] == [3, 5]
    assert all(geometries == candidates.geometries() for geometries, _ in calls)
    assert ranked.candidates[0].geometry == truth


# sources {0,1,4,12,13} and {0,5,8,12,17} differ in their pair distances but
# are homometric as far as order 5 sees (lines at 4, 8, 12, 12), so they score
# equal up to the last bits of the chi-square sum
HOMOMETRIC_AT_5 = CandidateSet(
    candidates=(Candidate(SourceGeometry((1, 3, 8, 1))), Candidate(SourceGeometry((5, 3, 4, 5)))),
    exhaustive=True,
)


def order_5_lines(a4):
    """Order-5 lines at f = 4 and 8: A0, A_8 and the sigmas of a fit to 100000
    frames of x=(1, 3, 5), and A_4 = a4, chosen so that roundoff puts the
    first candidate's score above the second's."""
    lines = (
        Harmonic(f=4.0, amplitude=a4, sigma_a=0.05988458346151628),
        Harmonic(f=8.0, amplitude=1.4157072190937008, sigma_a=0.07236950067110268),
    )
    return ModulationSpectrum(
        m=5, a0=5.795499453322755, sigma_a0=0.14567705295292302, harmonics=lines,
    )


def test_equal_spectra_fall_back_on_the_search_order():
    ranked = disambiguate(HOMOMETRIC_AT_5, [order_5_lines(1.448)]).candidates
    assert [c.geometry.x for c in ranked] == [(1, 3, 8, 1), (5, 3, 4, 5)]
    # the stored scores keep their bits: the first one is the larger
    assert ranked[0].score > ranked[1].score
    assert ranked[0].score == pytest.approx(ranked[1].score, rel=1e-12)


def test_a_tie_across_a_rounding_boundary_keeps_the_search_order():
    # here the two scores round to different 12-digit values, the first up
    # and the second down; they still differ by roundoff alone
    ranked = disambiguate(HOMOMETRIC_AT_5, [order_5_lines(1.5715)]).candidates
    assert [c.geometry.x for c in ranked] == [(1, 3, 8, 1), (5, 3, 4, 5)]
    assert float(f"{ranked[0].score:.12g}") > float(f"{ranked[1].score:.12g}")
    assert ranked[0].score == pytest.approx(ranked[1].score, rel=1e-12)


def test_winner_window():
    geoms = [SourceGeometry((2,)), SourceGeometry((1, 1)), SourceGeometry((1, 1, 1))]
    scored = CandidateSet(
        candidates=(
            Candidate(geoms[0], score=0.1),
            Candidate(geoms[1], score=0.9),
            Candidate(geoms[2], score=1.1),
        ),
        exhaustive=True,
    )
    # within one unit of chi-square of the best
    assert [c.geometry for c in scored.winners()] == geoms[:2]
    unscored = CandidateSet(candidates=(Candidate(geoms[0]),), exhaustive=True)
    assert unscored.winners() == ()


# ---------------------------------------------------------------------------
# apertures
# ---------------------------------------------------------------------------


def test_aperture_fractions():
    assert aperture_report(2).moving == 1.0
    assert aperture_report(2).total == 1.0
    assert aperture_report(3).moving == pytest.approx(0.5)
    assert aperture_report(3).total == pytest.approx(0.5)
    assert aperture_report(5).moving == pytest.approx(0.25)
    assert aperture_report(5).total == pytest.approx(0.75)
    for m in range(3, 9):
        report = aperture_report(m)
        assert report.moving * (m - 1) == pytest.approx(1.0)
        assert report.total < 1.0
    with pytest.raises(OrderError):
        aperture_report(1)
