"""Source-geometry candidates consistent with frequency evidence.

Given a tri-state evidence table (Present / Absent / Unknown per integer
pair distance), enumerate the integer source configurations whose
pairwise distance set contains every Present frequency and avoids every
Absent one.  search() runs one walk over int bitmasks of lattice sites: it
places the largest missing Present distance, then pads with sites that
make no Absent distance.  Run with room for one more source, the same
walk decides whether the enumeration is exhaustive.  The tests hold a
brute-force twin that enumerates every subset of lattice sites and probes
the source cap on its own; the two must agree wherever the twin's hard
limits allow it to run.

disambiguate() ranks surviving candidates by comparing measured relative
amplitudes against each candidate's exact prediction.  The search's
bounds (SearchBounds) live in config and its output records (Candidate,
CandidateSet) in records.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import replace

import numpy as np

from .config import SearchBounds
from .correlation import ModulationSpectrum, predicted_spectrum
from .errors import EmptyEvidenceError
from .geometry import SourceGeometry
from .records import Candidate, CandidateSet, EvidenceTable

__all__ = ["search", "disambiguate"]


# ---------------------------------------------------------------------------
# candidate enumeration
# ---------------------------------------------------------------------------


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


def _walk(present: int, absent: int, span: int, cap: int) -> Iterator[tuple[int, int]]:
    """Site sets at `span` whose distances hold `present` and avoid `absent`.

    Bit p of a mask is site p, of its mirror site span - p, and of a
    distance mask distance p.  Each step places the largest missing Present
    distance f at every (a, a + f); any valid set holds such a pair, so the
    walk reaches a subset of each one.  A cover of all Present distances is
    then padded with interior sites, in increasing order, that make no
    Absent distance.  Yields (points, mirror) for every set of at most `cap`
    sites, a set once per cover that reaches it.
    """

    def distances(points: int, mirror: int, q: int) -> int:
        # p - q for sites above q; q - p for sites below, read off the mirror
        return ((points >> q) | (mirror >> (span - q))) & ~1

    def cover(points: int, mirror: int, seen: int, n: int) -> Iterator[tuple[int, int]]:
        missing = present & ~seen
        if not missing:
            if points not in covers:
                covers.add(points)
                yield from pad(points, mirror, n, 1)
            return
        f = missing.bit_length() - 1
        for a in range(span - f + 1):
            p, m, s, k = points, mirror, seen, n
            for q in (a, a + f):
                if not p >> q & 1:
                    d = distances(p, m, q)
                    if d & absent:
                        break
                    p, m, s, k = p | 1 << q, m | 1 << (span - q), s | d, k + 1
            else:
                if k <= cap:
                    yield from cover(p, m, s, k)

    def pad(points: int, mirror: int, n: int, lowest: int) -> Iterator[tuple[int, int]]:
        yield points, mirror
        if n < cap:
            for q in range(lowest, span):
                if not points >> q & 1 and not distances(points, mirror, q) & absent:
                    yield from pad(points | 1 << q, mirror | 1 << (span - q), n + 1, q + 1)

    covers: set[int] = set()
    ends = 1 | 1 << span
    return cover(ends, ends, 1 << span, 2)


def _mask(values: tuple[int, ...], bound: int) -> int:
    # no walk places a distance past the span bound, so those need no bit
    return sum(1 << v for v in values if v <= bound)


def _canonical_gaps(points: int) -> tuple[int, ...]:
    sites = [p for p in range(points.bit_length()) if points >> p & 1]
    gaps = tuple(b - a for a, b in zip(sites, sites[1:]))
    return min(gaps, gaps[::-1])


def search(evidence: EvidenceTable, bounds: SearchBounds | None = None) -> CandidateSet:
    """Enumerate geometries consistent with the evidence, within bounds.

    One walk per span yields every valid site set of at most max_sources
    sites; the same walk with room for one more source decides `exhaustive`
    and stops at the first set of that size.  A set and its mirror are one
    candidate, reported in canonical orientation and sorted by source
    count, then gap sequence.
    """
    bounds = bounds or SearchBounds()
    present = _mask(evidence.present(), bounds.max_span)
    absent = _mask(evidence.absent(), bounds.max_span)
    spans, truncated = _span_candidates(evidence, bounds)

    found = {
        min(points, mirror)
        for span in spans
        for points, mirror in _walk(present, absent, span, bounds.max_sources)
    }
    # the probe covers exactly one source past the cap, no deeper
    exhaustive = not truncated and not any(
        points.bit_count() > bounds.max_sources
        for span in spans
        for points, _ in _walk(present, absent, span, bounds.max_sources + 1)
    )
    gap_sets = sorted(map(_canonical_gaps, found), key=lambda x: (len(x), x))
    return CandidateSet(
        candidates=tuple(Candidate(SourceGeometry(x)) for x in gap_sets),
        exhaustive=exhaustive,
    )


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

    ratios, sigmas = {}, {}  # per order, one entry per measured line
    for s in spectra:
        if s.a0 <= 0:
            raise ValueError(f"order-{s.m} spectrum has non-positive offset")
        amplitude = np.array([h.amplitude for h in s.harmonics], dtype=float)
        sigma_a = np.array([h.sigma_a for h in s.harmonics], dtype=float)
        ratios[s.m] = amplitude / s.a0
        sigmas[s.m] = np.sqrt(
            np.square(sigma_a / s.a0) + np.square(amplitude * s.sigma_a0 / s.a0**2)
        )
    measured = np.concatenate([[], *sigmas.values()])
    if measured.size and not measured.any():
        raise ValueError("all measured amplitude errors are zero; weighting degenerate")

    # one chi-square array per order over every candidate: each measured
    # line adds its column of the order's contrast table, in line order
    geometries = candidate_set.geometries()
    chi2 = {s.m: np.zeros(len(geometries)) for s in spectra}
    for s in spectra:
        if s.harmonics:
            table = predicted_spectrum(geometries, s.m, [int(h.f) for h in s.harmonics])
            terms = np.square((ratios[s.m] - table) / np.maximum(sigmas[s.m], 1e-12))
            chi2[s.m] = sum(terms.T, chi2[s.m])
    scores = sum(chi2.values(), np.zeros(len(geometries))).tolist()
    by_order = [(m, c.tolist()) for m, c in sorted(chi2.items())]
    rescored = [
        replace(cand, score=score, chi2_by_order=tuple((m, c[k]) for m, c in by_order))
        for k, (cand, score) in enumerate(zip(candidate_set.candidates, scores))
    ]
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
