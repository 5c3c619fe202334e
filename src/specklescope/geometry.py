"""Source arrays on an integer grid and their pair-distance combinatorics.

A geometry is the gap sequence x = (x_1, ..., x_{N-1}) between N point
sources sitting on integer lattice sites.  All correlation observables
depend on the sources only through the multiset of pairwise distances,
so that multiset (and its distinct-value set) is computed here.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field

from .errors import GeometryError

__all__ = [
    "SourceGeometry",
    "phase_prefactors",
    "pair_distances",
    "distinct_frequencies",
]


@dataclass(frozen=True)
class SourceGeometry:
    """N thermal point sources with integer gaps on a lattice.

    Parameters
    ----------
    x : tuple of int
        Gap sequence between neighbouring sources, in lattice units.
        Empty for a single source.
    """

    x: tuple[int, ...]

    def __post_init__(self) -> None:
        # normalize so (3, 1, 4) given as a list compares equal to the tuple
        object.__setattr__(self, "x", tuple(int(v) for v in self.x))
        for v in self.x:
            if v < 1:
                raise GeometryError(f"gaps must be positive integers, got {self.x}")

    @property
    def n_sources(self) -> int:
        return len(self.x) + 1

    @property
    def span(self) -> int:
        """Distance between the outermost sources, in lattice units."""
        return sum(self.x)


def phase_prefactors(geometry: SourceGeometry) -> tuple[int, ...]:
    """Source positions alpha_l as prefix sums of the gap sequence.

    alpha_1 = 0 and alpha_l - alpha_{l-1} = x_{l-1}; the l-th source
    contributes a phase alpha_l * delta at detector offset delta.
    """
    return (0, *itertools.accumulate(geometry.x))


def pair_distances(geometry: SourceGeometry) -> Counter[int]:
    """Multiset of pairwise source distances |alpha_i - alpha_j|, i < j.

    Raises GeometryError for fewer than two sources: a lone source has no
    pair and hence no modulation at all.
    """
    if geometry.n_sources < 2:
        raise GeometryError("pair distances need at least two sources")
    alpha = phase_prefactors(geometry)
    return Counter(b - a for a, b in itertools.combinations(alpha, 2))


def distinct_frequencies(geometry: SourceGeometry) -> tuple[int, ...]:
    """Sorted distinct pair distances; the spatial frequencies the array emits."""
    return tuple(sorted(pair_distances(geometry)))

