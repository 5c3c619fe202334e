"""Superresolving source-geometry reconstruction from thermal speckle.

Simulate arrays of independent thermal point sources, estimate m-th order
intensity correlations with fixed detectors at magic positions, extract
the surviving spatial frequencies, and enumerate the integer source
configurations consistent with them — resolving lattice spacings below
the classical aperture limit of any single detector.
"""

from __future__ import annotations

__version__ = "0.1.0"

from . import config, correlation, errors, geometry, reconstruct, speckle, spectrum
from .config import *  # noqa: F403
from .correlation import *  # noqa: F403
from .errors import *  # noqa: F403
from .geometry import *  # noqa: F403
from .reconstruct import *  # noqa: F403
from .speckle import *  # noqa: F403
from .spectrum import *  # noqa: F403

__all__ = ["__version__"]
__all__ += geometry.__all__
__all__ += correlation.__all__
__all__ += speckle.__all__
__all__ += spectrum.__all__
__all__ += reconstruct.__all__
__all__ += config.__all__
__all__ += errors.__all__
