"""Brute-force twin of reconstruct.search, for the tests that compare them.

oracle_search() enumerates every subset of lattice sites instead of
explaining Present distances recursively.  It shares only the span
choice and the exhaustiveness probe with search(), and refuses problems
past its hard limits (span 12, 6 sources) instead of guessing.
"""

import itertools
from functools import lru_cache

from specklescope import EvidenceTable, SearchBounds, SpeckleScopeError
from specklescope.reconstruct import (
    _cap_extension_exists,
    _diffs,
    _package,
    _span_candidates,
)

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
    return _package(found, evidence, exhaustive)


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
