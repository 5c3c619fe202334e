"""Superresolving source-geometry reconstruction from thermal speckle.

Simulate arrays of independent thermal point sources, estimate m-th order
intensity correlations with fixed detectors at magic positions, extract
the surviving spatial frequencies, and enumerate the integer source
configurations consistent with them — resolving lattice spacings below
the classical aperture limit of any single detector.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .correlation import (
    MAX_PERMANENT_ORDER,
    CorrelationCurve,
    DetectorArray,
    Harmonic,
    ModulationSpectrum,
    coherence_matrix,
    g_m_analytic,
    magic_positions,
    permanent,
    predicted_spectrum,
    regular_array_reference,
    roots_of_unity_sum,
    surviving_frequencies,
)
from .errors import (
    AliasingError,
    BoundsError,
    ConfigError,
    DegeneratePixelError,
    EmptyEvidenceError,
    FitError,
    FormatError,
    GeometryError,
    GridCoverageError,
    MatrixSizeError,
    OrderError,
    SpeckleScopeError,
)
from .geometry import (
    SourceGeometry,
    canonical,
    distinct_frequencies,
    pair_distances,
    phase_prefactors,
    reflect,
)
from .reconstruct import (
    ApertureReport,
    Candidate,
    CandidateSet,
    SearchBounds,
    aperture_report,
    disambiguate,
    oracle_search,
    search,
)
from .speckle import (
    FrameStack,
    SpeckleRun,
    estimate_g_m,
    frame_amplitudes,
    nearest_magic_pixels,
    quantize,
    sample_frames,
    uniform_grid,
)
from .spectrum import (
    EvidenceRow,
    EvidenceTable,
    GatePolicy,
    aggregate,
    calibrate_d,
    fit_fixed,
    fit_free,
    gate,
)
from .config import (
    Config,
    PhysicalScene,
    RunManifest,
    emit_config,
    load_config,
    parse_config,
)

__all__ = [
    "__version__",
    # geometry
    "SourceGeometry",
    "phase_prefactors",
    "pair_distances",
    "distinct_frequencies",
    "reflect",
    "canonical",
    # correlation
    "MAX_PERMANENT_ORDER",
    "DetectorArray",
    "CorrelationCurve",
    "Harmonic",
    "ModulationSpectrum",
    "magic_positions",
    "coherence_matrix",
    "permanent",
    "g_m_analytic",
    "roots_of_unity_sum",
    "surviving_frequencies",
    "predicted_spectrum",
    "regular_array_reference",
    # speckle
    "SpeckleRun",
    "FrameStack",
    "uniform_grid",
    "frame_amplitudes",
    "sample_frames",
    "quantize",
    "nearest_magic_pixels",
    "estimate_g_m",
    # spectrum
    "GatePolicy",
    "EvidenceRow",
    "EvidenceTable",
    "fit_fixed",
    "fit_free",
    "gate",
    "aggregate",
    "calibrate_d",
    # reconstruct
    "SearchBounds",
    "Candidate",
    "CandidateSet",
    "ApertureReport",
    "search",
    "oracle_search",
    "disambiguate",
    "aperture_report",
    # config
    "Config",
    "PhysicalScene",
    "RunManifest",
    "parse_config",
    "load_config",
    "emit_config",
    # errors
    "SpeckleScopeError",
    "GeometryError",
    "OrderError",
    "MatrixSizeError",
    "AliasingError",
    "GridCoverageError",
    "DegeneratePixelError",
    "FitError",
    "EmptyEvidenceError",
    "BoundsError",
    "ConfigError",
    "FormatError",
]
