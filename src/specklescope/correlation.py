"""Analytic m-th order intensity correlations of thermal source arrays.

For N independent thermal (circular Gaussian) sources the joint intensity
moments follow from the mutual coherence matrix

    J[j, k] = sum_l w_l * exp(i * alpha_l * (delta_k - delta_j)),

and the normalized m-detector correlation is the permanent of J divided by
the product of its diagonal:

    g_m(delta_1, ..., delta_m) = perm(J) / prod_j J[j, j].

With the m-1 fixed detectors parked at the magic offsets
delta_j = 2*pi*(j-2)/(m-1), scanning delta_1 yields a cosine series in
which only source-pair frequencies divisible by m-1 survive.  That
filtering is what the rest of the package exploits.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import GeometryError, MatrixSizeError, OrderError
from .geometry import SourceGeometry, distinct_frequencies, phase_prefactors

__all__ = [
    "MAX_PERMANENT_ORDER",
    "DetectorArray",
    "CorrelationCurve",
    "Harmonic",
    "ModulationSpectrum",
    "magic_positions",
    "permanent",
    "g_m_analytic",
    "surviving_frequencies",
    "predicted_spectrum",
    "regular_array_reference",
]

# Ryser's formula walks 2^m subsets; past this order a single curve stops
# being interactive and the permanent should not be attempted blindly.
MAX_PERMANENT_ORDER = 12

# Analytic values may dip this far below zero from roundoff and are clamped.
_NEGATIVE_TOL = 1e-9

# predicted_spectrum gathers at most this many complex phase terms (4 MB)
# for one Gray-code walk; larger groups of geometries are chunked
_CHUNK_ELEMENTS = 1 << 18


def magic_positions(m: int) -> tuple[float, ...]:
    """Fixed-detector offsets 2*pi*(j-2)/(m-1) for j = 2..m.

    Equally spaced over [0, 2*pi); their phase factors at frequency f sum
    to zero unless (m-1) divides f, which is the filtering mechanism.
    """
    if m < 2:
        raise OrderError(f"correlation order must be at least 2, got {m}")
    return tuple(2.0 * math.pi * j / (m - 1) for j in range(m - 1))


@dataclass(frozen=True, eq=False)
class DetectorArray:
    """One scanned detector plus m-1 fixed detectors, all in offset units.

    Offsets are the dimensionless phase variable delta = 2*pi*d*sin(theta)
    / lambda, so a full period of the lattice is [0, 2*pi).

    Parameters
    ----------
    m : int
        Correlation order; total number of detectors.
    fixed_deltas : tuple of float
        Offsets of the m-1 fixed detectors.
    scan : ndarray
        Strictly increasing offsets visited by the scanned detector.
    """

    m: int
    fixed_deltas: tuple[float, ...]
    scan: np.ndarray

    def __post_init__(self) -> None:
        if self.m < 2:
            raise OrderError(f"correlation order must be at least 2, got {self.m}")
        object.__setattr__(self, "fixed_deltas", tuple(float(v) for v in self.fixed_deltas))
        if len(self.fixed_deltas) != self.m - 1:
            raise ValueError(
                f"need {self.m - 1} fixed detectors for order {self.m}, "
                f"got {len(self.fixed_deltas)}"
            )
        scan = np.asarray(self.scan, dtype=float)
        if scan.ndim != 1 or scan.size == 0:
            raise ValueError("scan grid must be a non-empty 1-D array")
        if not np.all(np.isfinite(scan)):
            raise ValueError("scan grid contains non-finite offsets")
        if scan.size > 1 and not np.all(np.diff(scan) > 0):
            raise ValueError("scan grid must be strictly increasing")
        scan = scan.copy()
        scan.flags.writeable = False
        object.__setattr__(self, "scan", scan)


@dataclass(frozen=True, eq=False)
class CorrelationCurve:
    """Correlation values g_m over a scan grid, optionally with errors.

    `replicas`, when present, holds resampled realizations of the whole
    curve (one row per resample).  Estimator noise is coherent across the
    scan, so fitters use these rows to propagate uncertainty into derived
    quantities instead of treating per-pixel sigmas as independent.
    """

    m: int
    delta1: np.ndarray
    values: np.ndarray
    sigma: np.ndarray | None = None
    replicas: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.m < 2:
            raise OrderError(f"correlation order must be at least 2, got {self.m}")
        delta1 = np.asarray(self.delta1, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if delta1.shape != values.shape or delta1.ndim != 1:
            raise ValueError("delta1 and values must be 1-D arrays of equal length")
        if not np.all(np.isfinite(delta1)) or not np.all(np.isfinite(values)):
            raise ValueError("curve contains non-finite entries")
        scale = max(1.0, float(np.max(np.abs(values), initial=0.0)))
        if np.any(values < -_NEGATIVE_TOL * scale):
            raise ValueError("correlation values must be non-negative")
        values = np.maximum(values, 0.0)
        sigma = self.sigma
        if sigma is not None:
            sigma = np.asarray(sigma, dtype=float)
            if sigma.shape != values.shape:
                raise ValueError("sigma must match the value array shape")
            if not np.all(np.isfinite(sigma)) or np.any(sigma < 0):
                raise ValueError("sigma entries must be finite and non-negative")
            sigma = sigma.copy()
            sigma.flags.writeable = False
        replicas = self.replicas
        if replicas is not None:
            replicas = np.asarray(replicas, dtype=float)
            if replicas.ndim != 2 or replicas.shape[1] != values.size:
                raise ValueError("replicas must be 2-D with one column per sample")
            if not np.all(np.isfinite(replicas)):
                raise ValueError("replicas contain non-finite entries")
            replicas = replicas.copy()
            replicas.flags.writeable = False
        for name, arr in (("delta1", delta1), ("values", values)):
            arr = arr.copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "replicas", replicas)

    def __len__(self) -> int:
        return int(self.values.size)


# ---------------------------------------------------------------------------
# coherence matrix and permanents
# ---------------------------------------------------------------------------


def _phase_table(positions, detectors: DetectorArray) -> np.ndarray:
    """Terms exp(i p (delta_k - delta_j)) of J for each source position p.

    Shape (P, s, m, m) over the P positions and the s scan samples.  Every
    geometry whose positions are among them gathers its rows from here.
    """
    if detectors.m > MAX_PERMANENT_ORDER:
        raise MatrixSizeError(
            f"order {detectors.m} exceeds permanent cap {MAX_PERMANENT_ORDER}"
        )
    deltas = np.empty((detectors.scan.size, detectors.m))
    deltas[:, 0] = detectors.scan
    deltas[:, 1:] = detectors.fixed_deltas
    diff = deltas[:, None, :] - deltas[:, :, None]  # (s, m, m)
    alpha = np.asarray(positions, dtype=float)
    return np.exp(1j * alpha[:, None, None, None] * diff[None])


def _coherence_stack(table: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Equal-weight coherence matrices (G, s, m, m) of G geometries.

    rows[g] holds the table rows of geometry g's sources; all G geometries
    have the same number of sources.
    """
    ones = np.ones(rows.shape[1], dtype=complex)
    return np.einsum("l,glsjk->gsjk", ones, table[rows])


def permanent(matrix: np.ndarray) -> complex:
    """Permanent of a square matrix by Ryser's formula with Gray-code updates.

    O(2^n * n) time, refusing n > MAX_PERMANENT_ORDER.  The empty matrix
    has permanent 1.
    """
    a = np.asarray(matrix)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"permanent needs a square matrix, got shape {a.shape}")
    n = a.shape[0]
    if n > MAX_PERMANENT_ORDER:
        raise MatrixSizeError(f"matrix order {n} exceeds permanent cap {MAX_PERMANENT_ORDER}")
    if n == 0:
        return complex(1.0)
    return complex(_ryser_batch(a[None, :, :].astype(complex))[0])


def _ryser_batch(mats: np.ndarray) -> np.ndarray:
    """Permanents of a (S, n, n) stack via one shared Gray-code walk."""
    s, n, _ = mats.shape
    row = np.zeros((s, n), dtype=complex)
    total = np.zeros(s, dtype=complex)
    gray_prev = 0
    for k in range(1, 1 << n):
        gray = k ^ (k >> 1)
        changed = gray ^ gray_prev
        j = changed.bit_length() - 1
        if gray & changed:
            row += mats[:, :, j]
        else:
            row -= mats[:, :, j]
        # Ryser: perm = (-1)^n * sum over column subsets S of
        #   (-1)^|S| * prod_i (row sums restricted to S),
        # the product taken column by column across the whole stack
        product = row[:, 0].copy()
        for i in range(1, n):
            product *= row[:, i]
        (np.subtract if gray.bit_count() % 2 else np.add)(total, product, out=total)
        gray_prev = gray
    if n % 2 == 1:
        total = -total
    return total


def _normalized(perms: np.ndarray, n_sources: int, m: int) -> np.ndarray:
    """Rows of perm(J)/prod(diag J), clamped at 0, after checking each row's imaginary residue."""
    norm = float(n_sources) ** m
    values = perms.real / norm
    residue = np.max(np.abs(perms.imag), axis=-1) / norm
    if np.any(residue > 1e-8 * np.maximum(1.0, np.max(np.abs(values), axis=-1))):
        raise ArithmeticError(f"permanent imaginary residue too large: {np.max(residue):g}")
    return np.maximum(values, 0.0)


def g_m_analytic(geometry: SourceGeometry, detectors: DetectorArray) -> CorrelationCurve:
    """Exact normalized correlation curve over the detector scan grid.

    Evaluates perm(J)/prod(diag J) for every scan sample, batching the
    Gray-code walk across the grid.  Values are real up to roundoff; the
    imaginary residue is checked and discarded.
    """
    table = _phase_table(phase_prefactors(geometry), detectors)
    mats = _coherence_stack(table, np.arange(geometry.n_sources)[None])[0]
    values = _normalized(_ryser_batch(mats), geometry.n_sources, detectors.m)
    return CorrelationCurve(m=detectors.m, delta1=detectors.scan, values=values)


# ---------------------------------------------------------------------------
# filtering
# ---------------------------------------------------------------------------


def surviving_frequencies(geometry: SourceGeometry, m: int) -> tuple[int, ...]:
    """Pair distances of the array that remain visible at order m.

    With fixed detectors at the magic offsets the curve retains exactly
    the frequencies f with f mod (m-1) == 0; everything else averages out.
    """
    if m < 3:
        raise OrderError(f"filtering needs at least two fixed detectors (m >= 3), got m={m}")
    return tuple(f for f in distinct_frequencies(geometry) if f % (m - 1) == 0)


# ---------------------------------------------------------------------------
# modulation spectra
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Harmonic:
    """One cosine component a cos(f delta) + b sin(f delta) of a correlation curve.

    kappa counts multiples of the filter fundamental; f = kappa*(m-1) is
    the spatial frequency in lattice units, and amplitude is hypot(a, b).
    A fitted line also carries its contrast a/A0 and the null channel
    b/A0 relative to the curve's offset A0, each with its error.
    """

    kappa: int
    f: float
    amplitude: float
    sigma_a: float = 0.0
    contrast: float = 0.0
    sigma_contrast: float = 0.0
    quadrature: float = 0.0
    sigma_quadrature: float = 0.0

    def __post_init__(self) -> None:
        if self.kappa < 1:
            raise ValueError(f"harmonic index must be >= 1, got {self.kappa}")
        sigmas = (self.sigma_a, self.sigma_contrast, self.sigma_quadrature)
        if not all(map(math.isfinite, (self.f, self.amplitude, self.contrast, self.quadrature,
                                       *sigmas))):
            raise ValueError("harmonic contains non-finite fields")
        if not self.f > 0:
            raise ValueError(f"harmonic frequency must be positive, got {self.f}")
        if self.amplitude < 0 or min(sigmas) < 0:
            raise ValueError("amplitude and uncertainties must be non-negative")


@dataclass(frozen=True)
class ModulationSpectrum:
    """Offset plus comb lines fitted to one order-m correlation curve.

    Every line sits on the filtered comb, f = kappa*(m-1), since the
    magic placement transmits nothing else (fit_fixed).  residual_rms is
    the rms of the fit residual, and leakage the largest amplitude of its
    periodogram away from the comb.
    """

    m: int
    a0: float
    harmonics: tuple[Harmonic, ...]
    sigma_a0: float = 0.0
    residual_rms: float = 0.0
    leakage: float = 0.0

    def __post_init__(self) -> None:
        if self.m < 2:
            raise OrderError(f"correlation order must be at least 2, got {self.m}")
        object.__setattr__(self, "harmonics", tuple(self.harmonics))
        if not all(map(math.isfinite, (self.a0, self.sigma_a0, self.residual_rms, self.leakage))):
            raise ValueError("spectrum contains non-finite fields")
        if self.a0 < 0 or self.sigma_a0 < 0:
            raise ValueError("offset and its uncertainty must be non-negative")
        for h in self.harmonics:
            if h.f != h.kappa * (self.m - 1):
                raise ValueError(
                    "lines must sit on the comb f = kappa*(m-1), "
                    f"got f={h.f} kappa={h.kappa} at m={self.m}"
                )

    @property
    def frequencies(self) -> tuple[float, ...]:
        return tuple(h.f for h in self.harmonics)


def _scan_samples(span: int, m: int) -> int:
    """Uniform samples over one filter period 2*pi/(m-1) for a span-`span` array.

    At the magic placement the curve holds only f = kappa*(m-1), so it
    repeats with that period and line kappa is bin kappa of the period's
    DFT.  2*(span // (m-1)) + 2 samples keep the highest kappa from aliasing.
    """
    return 2 * (span // (m - 1)) + 2


def predicted_spectrum(
    geometries: Sequence[SourceGeometry], m: int, freqs: Sequence[int]
) -> np.ndarray:
    """Exact contrasts A_f/A0 of geometries at order m (magic positions).

    Returns a (len(geometries), len(freqs)) array: row g holds geometry g's
    contrast at each requested frequency, exactly 0.0 where f is not among
    its surviving frequencies.  The filter passes only f = kappa*(m-1), so
    each analytic curve is sampled over one filter period [0, 2*pi/(m-1))
    (see _scan_samples), and A_f and A0 are read off DFT bins kappa and 0;
    at the magic placement every line is a pure cosine, so A_f/A0 is the
    whole prediction.  Geometries of equal span and source count share one
    phase table and one Gray-code walk per chunk; each row is the one its
    geometry gets alone, bit for bit.
    """
    if m < 3:
        raise OrderError(f"filtered spectra need m >= 3, got m={m}")
    geometries = tuple(geometries)
    freqs = np.array(freqs, dtype=int)
    passed = freqs % (m - 1) == 0  # what the magic placement transmits
    groups: dict[tuple[int, int], list[int]] = {}
    for i, geometry in enumerate(geometries):
        groups.setdefault((geometry.span, geometry.n_sources), []).append(i)

    contrasts = np.zeros((len(geometries), len(freqs)))
    tables: dict[int, np.ndarray] = {}
    fixed, period = magic_positions(m), 2.0 * math.pi / (m - 1)
    for (span, n), members in groups.items():
        if span not in tables:
            scan = np.linspace(0.0, period, _scan_samples(span, m), endpoint=False)
            tables[span] = _phase_table(range(span + 1), DetectorArray(m, fixed, scan))
        table = tables[span]
        samples = table.shape[1]
        # a frequency off the comb or past the span reads some bin and is masked out below
        bins = np.minimum(freqs // (m - 1), samples // 2)
        lo, hi = np.triu_indices(n, 1)  # every source pair once
        per_walk = max(1, _CHUNK_ELEMENTS // (n * table[0].size))
        for start in range(0, len(members), per_walk):
            chunk = members[start : start + per_walk]
            rows = np.array([phase_prefactors(geometries[i]) for i in chunk])
            mats = _coherence_stack(table, rows).reshape(-1, m, m)
            perms = _ryser_batch(mats).reshape(len(chunk), -1)
            coeff = np.fft.rfft(_normalized(perms, n, m), axis=-1) / samples
            # np.hypot, not np.abs: it rounds exactly as abs() of one coefficient
            lines = 2.0 * np.hypot(coeff.real[:, bins], coeff.imag[:, bins])
            ratio = lines / coeff.real[:, :1]
            # a line survives where f is a pair distance and the filter passes it
            distances = rows[:, hi] - rows[:, lo]
            present = (distances[:, :, None] == freqs).any(axis=1)
            contrasts[chunk] = np.where(present & passed, ratio, 0.0)
    return contrasts


def regular_array_reference(n_sources: int, m: int) -> np.ndarray:
    """Line amplitudes A_l, l = 1..N-1, of an equally spaced N-source array.

    All m-1 fixed detectors sit at offset 0, so nothing is filtered: every
    pair distance l contributes, and the amplitudes fall off linearly,
    A_l proportional to N - l.  That is the regular-array claim of the
    earlier work this paper extends (Phys. Rev. Lett. 109, 233603 (2012)).
    The amplitudes are read off the DFT of the analytic curve.
    """
    if n_sources < 2:
        raise GeometryError(f"reference array needs at least 2 sources, got {n_sources}")
    if m < 2:
        raise OrderError(f"correlation order must be at least 2, got {m}")
    geometry = SourceGeometry((1,) * (n_sources - 1))
    samples = max(4 * (geometry.span + 1), 8)  # no filter: the whole period
    scan = np.linspace(0, 2 * math.pi, samples, endpoint=False)
    curve = g_m_analytic(geometry, DetectorArray(m, (0.0,) * (m - 1), scan))
    coeff = np.fft.rfft(curve.values) / samples
    return 2.0 * np.abs(coeff[1:n_sources])
