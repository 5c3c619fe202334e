"""Source-geometry candidates consistent with frequency evidence.

Given a tri-state evidence table (Present / Absent / Unknown per integer
pair distance), enumerate the integer source configurations whose
pairwise distance set contains every Present frequency and avoids every
Absent one.  search() explains Present distances recursively and then
pads with Unknown-compatible extras; the tests hold a brute-force twin
that enumerates every subset of lattice sites, and the two must agree
wherever the twin's hard limits allow it to run.

disambiguate() ranks surviving candidates by comparing measured relative
amplitudes against each candidate's exact prediction.  The search's
bounds (SearchBounds) live in config and its output records in records;
both are re-exported here, with aperture_report(), which states the
detector-aperture fractions an order-m measurement needs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import replace

from .config import SearchBounds
from .correlation import ModulationSpectrum, predicted_spectrum
from .errors import EmptyEvidenceError
from .geometry import SourceGeometry
from .records import ApertureReport, Candidate, CandidateSet, EvidenceTable, aperture_report

__all__ = [
    "SearchBounds",
    "Candidate",
    "CandidateSet",
    "ApertureReport",
    "search",
    "disambiguate",
    "aperture_report",
]


# ---------------------------------------------------------------------------
# candidate enumeration
# ---------------------------------------------------------------------------


def _diffs(points: frozenset[int]) -> frozenset[int]:
    return frozenset(abs(a - b) for a, b in itertools.combinations(points, 2))


def _is_valid(points: frozenset[int], present: frozenset[int], absent: frozenset[int]) -> bool:
    diffs = _diffs(points)
    return present <= diffs and not (diffs & absent)


def _span_candidates(
    evidence: EvidenceTable, bounds: SearchBounds
) -> tuple[list[int], bool]:
    """Spans worth searching, plus whether the span space was truncated.

    Any valid configuration must realize the largest Present frequency,
    so its span is at least max(Present); spans below that are vacuous.
    Larger spans are possible only through Unknown frequencies.
    """
    present = evidence.present()
    if not present:
        raise EmptyEvidenceError("no Present frequencies to reconstruct from")
    base_span = max(present)
    spans = []
    truncated = False
    if base_span <= bounds.max_span:
        spans.append(base_span)
    else:
        truncated = True
    if bounds.allow_unknown_span:
        for s in range(base_span + 1, bounds.max_span + 1):
            if evidence.status_of(s) == "unknown":
                spans.append(s)
        truncated = True  # the Unknown-span space continues past max_span
    return spans, truncated


def _cover_present(
    points: frozenset[int],
    present: frozenset[int],
    absent: frozenset[int],
    span: int,
    max_sources: int,
    bases: set[frozenset[int]],
) -> None:
    """Grow `points` until every Present distance is realized.

    Branches over all placements (a, a+f) of the largest missing Present
    distance f; any valid configuration contains such a pair, so the walk
    reaches a subset of every valid configuration.
    """
    missing = present - _diffs(points)
    if not missing:
        bases.add(points)
        return
    f = max(missing)
    for a in range(0, span - f + 1):
        pair = {a, a + f}
        added = pair - points
        if not added:
            continue
        if len(points) + len(added) > max_sources:
            continue
        grown = points | pair
        if not any(p != q and abs(p - q) in absent for p in grown for q in added):
            _cover_present(grown, present, absent, span, max_sources, bases)


def _pad_with_extras(
    base: frozenset[int],
    absent: frozenset[int],
    span: int,
    max_sources: int,
    results: set[frozenset[int]],
) -> None:
    """Add interior points whose distances to everything stay non-Absent."""
    compatible = [
        q
        for q in range(1, span)
        if q not in base and all(abs(q - p) not in absent for p in base)
    ]

    def grow(current: frozenset[int], pool: list[int]) -> None:
        results.add(current)
        if len(current) >= max_sources:
            return
        for i, q in enumerate(pool):
            if all(abs(q - p) not in absent for p in current - base):
                grow(current | {q}, pool[i + 1 :])

    grow(base, compatible)


def _cap_extension_exists(
    present: frozenset[int], absent: frozenset[int], spans: list[int], max_sources: int
) -> bool:
    """Would one more allowed source admit further valid configurations?

    Probes exactly max_sources + 1; deeper truncation is not searched, so
    `exhaustive` promises only this one extra level was checked.
    """
    for span in spans:
        for interior in itertools.combinations(range(1, span), max_sources - 1):
            points = frozenset((0, span, *interior))
            if len(points) == max_sources + 1 and _is_valid(points, present, absent):
                return True
    return False


def _package(
    point_sets: set[frozenset[int]],
    evidence: EvidenceTable,
    exhaustive: bool,
) -> CandidateSet:
    # a point set and its mirror are one candidate: dedupe canonical gap tuples
    gap_sets = set()
    for points in point_sets:
        ordered = sorted(points)
        gaps = tuple(b - a for a, b in zip(ordered, ordered[1:]))
        gap_sets.add(min(gaps, gaps[::-1]))
    return CandidateSet(
        candidates=tuple(
            Candidate(SourceGeometry(x)) for x in sorted(gap_sets, key=lambda x: (len(x), x))
        ),
        evidence=evidence,
        exhaustive=exhaustive,
    )


def search(evidence: EvidenceTable, bounds: SearchBounds | None = None) -> CandidateSet:
    """Enumerate geometries consistent with the evidence, within bounds.

    Phase one covers the Present distances by a recursive pair-placement
    walk; phase two pads each cover with extra sources whose pair
    distances are all non-Absent.  Candidates are reported in canonical
    orientation, deduplicated, sorted by source count then gap sequence.
    """
    bounds = bounds or SearchBounds()
    present = frozenset(evidence.present())
    absent = frozenset(evidence.absent())
    spans, truncated = _span_candidates(evidence, bounds)

    found: set[frozenset[int]] = set()
    for span in spans:
        bases: set[frozenset[int]] = set()
        _cover_present(frozenset((0, span)), present, absent, span, bounds.max_sources, bases)
        for base in bases:
            _pad_with_extras(base, absent, span, bounds.max_sources, found)

    exhaustive = not truncated and not _cap_extension_exists(
        present, absent, spans, bounds.max_sources
    )
    return _package(found, evidence, exhaustive)


# ---------------------------------------------------------------------------
# amplitude disambiguation
# ---------------------------------------------------------------------------


def disambiguate(
    candidate_set: CandidateSet,
    spectra: list[ModulationSpectrum],
) -> CandidateSet:
    """Score candidates against measured relative amplitudes.

    For every measured line the ratio A/A0 is compared with the
    candidate's exact prediction at that order; the chi-square over all
    lines (errors propagated to the ratio at first order) ranks the
    candidates.  Ties within one unit of chi-square count as joint
    winners, see CandidateSet.winners().  Candidates of equal spectra score
    equal up to roundoff: a score within 1e-9 * max(1, chi2) of the first
    score of a run joins that run, and each run keeps the search order
    (n_sources, x).
    """
    orders = [s.m for s in spectra]
    if len(set(orders)) != len(orders):
        raise ValueError(f"duplicate correlation orders in {sorted(orders)}")

    measured: list[tuple[int, int, float, float]] = []  # (m, line index, ratio, sigma)
    for s in spectra:
        if s.a0 <= 0:
            raise ValueError(f"order-{s.m} spectrum has non-positive offset")
        for j, h in enumerate(s.harmonics):
            ratio = h.amplitude / s.a0
            var = (h.sigma_a / s.a0) ** 2 + (h.amplitude * s.sigma_a0 / s.a0**2) ** 2
            measured.append((s.m, j, ratio, math.sqrt(var)))
    if measured and all(sig == 0.0 for _, _, _, sig in measured):
        raise ValueError("all measured amplitude errors are zero; weighting degenerate")

    # one contrast table of every candidate per order with measured lines,
    # one column per measured line of that order
    geometries = candidate_set.geometries()
    tables = {
        s.m: predicted_spectrum(geometries, s.m, [int(h.f) for h in s.harmonics]).tolist()
        for s in spectra
        if s.harmonics
    }

    sigma_floor = 1e-12
    rescored = []
    for k, cand in enumerate(candidate_set.candidates):
        chi2_by_order: dict[int, float] = {m: 0.0 for m in orders}
        for m, j, ratio, sig in measured:
            pred_ratio = tables[m][k][j]
            chi2_by_order[m] += ((ratio - pred_ratio) / max(sig, sigma_floor)) ** 2
        score = float(sum(chi2_by_order.values()))
        rescored.append(
            replace(cand, score=score, chi2_by_order=tuple(sorted(chi2_by_order.items())))
        )
    # equal spectra differ in the last bits of their chi-square sums, real
    # groups by far more: a run of scores this close to its first is one tie
    runs: list[list[Candidate]] = []
    for cand in sorted(rescored, key=lambda c: c.score):
        if runs and cand.score - runs[-1][0].score <= 1e-9 * max(1.0, runs[-1][0].score):
            runs[-1].append(cand)
        else:
            runs.append([cand])
    return replace(candidate_set, candidates=tuple(
        c for run in runs for c in sorted(run, key=lambda c: (c.geometry.n_sources, c.geometry.x))
    ))
