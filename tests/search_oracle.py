"""Brute-force twin of reconstruct.search, for the tests that compare them.

oracle_search() enumerates every subset of lattice sites instead of
walking the Present distances, and decides `exhaustive` by trying every
interior set of one source more than the cap.  It shares only the span
choice with search(), and refuses problems past its hard limits (span 12,
6 sources) instead of guessing.
"""

import itertools
from functools import lru_cache

from specklescope import (
    Candidate,
    CandidateSet,
    EvidenceTable,
    SearchBounds,
    SourceGeometry,
    SpeckleScopeError,
)
from specklescope.reconstruct import _span_candidates

_ORACLE_MAX_SPAN = 12
_ORACLE_MAX_SOURCES = 6


class BoundsError(SpeckleScopeError, ValueError):
    """Problem size exceeds the hard limits of the exhaustive oracle."""


def oracle_search(evidence: EvidenceTable, bounds: SearchBounds | None = None):
    """Reference enumeration over every subset of lattice sites."""
    bounds = bounds or SearchBounds()
    if bounds.max_sources > _ORACLE_MAX_SOURCES:
        raise BoundsError(
            f"oracle handles at most {_ORACLE_MAX_SOURCES} sources, "
            f"got bound {bounds.max_sources}"
        )
    present = frozenset(evidence.present())
    absent = frozenset(evidence.absent())
    spans, truncated = _span_candidates(evidence, bounds)
    if any(s > _ORACLE_MAX_SPAN for s in spans):
        raise BoundsError(
            f"oracle handles spans up to {_ORACLE_MAX_SPAN}, got {max(spans)}"
        )

    found: set[frozenset[int]] = set()
    for span in spans:
        for points, diffs in _site_subsets(span, bounds.max_sources):
            if present <= diffs and not (diffs & absent):
                found.add(points)

    exhaustive = not truncated and not _cap_extension_exists(
        present, absent, spans, bounds.max_sources
    )
    geometries = {_geometry(points) for points in found}
    return CandidateSet(
        candidates=tuple(
            Candidate(g) for g in sorted(geometries, key=lambda g: (g.n_sources, g.x))
        ),
        evidence=evidence,
        exhaustive=exhaustive,
    )


def _diffs(points: frozenset[int]) -> frozenset[int]:
    return frozenset(abs(a - b) for a, b in itertools.combinations(points, 2))


def _geometry(points: frozenset[int]) -> SourceGeometry:
    """The gaps of a point set, the smaller of the mirror pair as search reports it."""
    ordered = sorted(points)
    x = tuple(b - a for a, b in zip(ordered, ordered[1:]))
    return SourceGeometry(min(x, x[::-1]))


def _cap_extension_exists(
    present: frozenset[int], absent: frozenset[int], spans: list[int], max_sources: int
) -> bool:
    """Would one more allowed source admit further valid configurations?

    Probes exactly max_sources + 1; deeper truncation is not searched, so
    `exhaustive` promises only this one extra level was checked.
    """
    for span in spans:
        for interior in itertools.combinations(range(1, span), max_sources - 1):
            diffs = _diffs(frozenset((0, span, *interior)))
            if present <= diffs and not (diffs & absent):
                return True
    return False


@lru_cache(maxsize=64)
def _site_subsets(
    span: int, max_sources: int
) -> tuple[tuple[frozenset[int], frozenset[int]], ...]:
    """All point sets {0, ..., span} with their difference sets, cached."""
    out = []
    for k in range(0, max_sources - 1):
        for interior in itertools.combinations(range(1, span), k):
            points = frozenset((0, span, *interior))
            out.append((points, _diffs(points)))
    return tuple(out)
