"""Source arrays on an integer grid.

A geometry is the gap sequence x = (x_1, ..., x_{N-1}) between N point
sources sitting on integer lattice sites; its source positions are the
prefix sums of the gaps.  The correlation observables depend on the
sources only through their pair distances, which the spectra and the
search read off these positions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import GeometryError

__all__ = ["SourceGeometry", "phase_prefactors"]


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
