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
filtering is what the rest of the package exploits.  The series' lines
are predicted in closed form (_line_coefficients, a Laplace expansion of
perm(J)); g_m_analytic evaluates the curve itself, one permanent per offset.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .config import MAX_PERMANENT_ORDER
from .errors import GeometryError, MatrixSizeError, OrderError
from .geometry import SourceGeometry, phase_prefactors

__all__ = [
    "CorrelationCurve",
    "Harmonic",
    "ModulationSpectrum",
    "magic_positions",
    "g_m_analytic",
    "predicted_spectrum",
    "regular_array_reference",
]

# Analytic values may dip this far below zero from roundoff and are clamped.
_NEGATIVE_TOL = 1e-9

# Fewest bootstrap replica rows whose spread is taken as an error.
_MIN_REPLICA_ROWS = 8


def magic_positions(m: int) -> tuple[float, ...]:
    """Fixed-detector offsets 2*pi*(j-2)/(m-1) for j = 2..m.

    Equally spaced over [0, 2*pi); their phase factors at frequency f sum
    to zero unless (m-1) divides f, which is the filtering mechanism.
    """
    if m < 2:
        raise OrderError(f"correlation order must be at least 2, got {m}")
    return tuple(2.0 * math.pi * j / (m - 1) for j in range(m - 1))


@dataclass(frozen=True, eq=False)
class CorrelationCurve:
    """Correlation values g_m over a scan grid, optionally with errors.

    `replicas`, when present, holds resampled realizations of the whole
    curve (one row per resample, at least 8).  Estimator noise is coherent
    across the scan, so fitters use these rows to propagate uncertainty into
    derived quantities instead of treating per-pixel sigmas as independent.
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
        if values.size == 0:
            raise ValueError("a curve needs at least one scan sample")
        if not np.all(np.isfinite(delta1)) or not np.all(np.isfinite(values)):
            raise ValueError("curve contains non-finite entries")
        if not np.all(np.diff(delta1) > 0):
            raise ValueError("delta1 must be strictly increasing")
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
            if (replicas.ndim != 2 or replicas.shape[1] != values.size
                    or len(replicas) < _MIN_REPLICA_ROWS):
                raise ValueError(f"replicas must be 2-D, at least {_MIN_REPLICA_ROWS} rows "
                                 "of one column per sample")
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


def _ryser_batch(mats: np.ndarray) -> np.ndarray:
    """Permanents of a (S, n, n) stack by Ryser's formula: one Gray-code walk, O(2^n n)."""
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


def _minor_permanents(mats: np.ndarray) -> np.ndarray:
    """Permanents of every first minor of a (G, n, n) stack, in one Gray-code walk.

    Minor (j, k) drops row j and column k.  It is Ryser's sum differentiated
    by mats[j, k]: over the column subsets holding k, the product of every
    row sum but row j's, a prefix times a suffix product.  n = 1 gives ones.
    """
    g, n, _ = mats.shape
    row = np.zeros((g, n), dtype=complex)
    prefix = np.ones((g, n + 1), dtype=complex)  # prefix[:, j] = prod_{i < j} row[:, i]
    suffix = np.ones((g, n + 1), dtype=complex)  # suffix[:, j] = prod_{i >= j} row[:, i]
    minors = np.zeros((g, n, n), dtype=complex)  # [:, k, j]: column k's terms are contiguous
    gray_prev = 0
    for step in range(1, 1 << n):
        gray = step ^ (step >> 1)
        changed = gray ^ gray_prev
        j = changed.bit_length() - 1
        (np.add if gray & changed else np.subtract)(row, mats[:, :, j], out=row)
        np.cumprod(row, axis=1, out=prefix[:, 1:])
        np.cumprod(row[:, ::-1], axis=1, out=suffix[:, n - 1 :: -1])
        others = prefix[:, :n] * suffix[:, 1:]
        accumulate = np.subtract if gray.bit_count() % 2 else np.add
        for k in range(n):
            if gray >> k & 1:
                accumulate(minors[:, k], others, out=minors[:, k])
        gray_prev = gray
    return (-minors if n % 2 else minors).transpose(0, 2, 1)


def _normalized(perms: np.ndarray, n_sources: int, m: int) -> np.ndarray:
    """Rows of perm(J)/prod(diag J), clamped at 0, after checking each row's imaginary residue."""
    norm = float(n_sources) ** m
    values = perms.real / norm
    residue = np.max(np.abs(perms.imag), axis=-1) / norm
    if np.any(residue > 1e-8 * np.maximum(1.0, np.max(np.abs(values), axis=-1))):
        raise ArithmeticError(f"permanent imaginary residue too large: {np.max(residue):g}")
    return np.maximum(values, 0.0)


def g_m_analytic(
    geometry: SourceGeometry, scan: np.ndarray, fixed_deltas: Sequence[float]
) -> CorrelationCurve:
    """Exact normalized correlation curve over the scanned detector's offsets.

    Offsets are the dimensionless phase variable delta = 2*pi*d*sin(theta)
    / lambda, so a full period of the lattice is [0, 2*pi).  One detector
    visits the strictly increasing offsets `scan` while one sits at each of
    `fixed_deltas`, so the order is m = len(fixed_deltas) + 1.  Evaluates
    perm(J)/prod(diag J) for every scan sample, batching the Gray-code walk
    across the grid.  Values are real up to roundoff; the imaginary residue
    is checked and discarded.
    """
    scan = np.asarray(scan, dtype=float)
    if scan.ndim != 1 or scan.size == 0:
        raise ValueError("scan grid must be a non-empty 1-D array")
    if not np.all(np.isfinite(scan)):
        raise ValueError("scan grid contains non-finite offsets")
    m = len(fixed_deltas) + 1
    if m > MAX_PERMANENT_ORDER:
        raise MatrixSizeError(f"order {m} exceeds permanent cap {MAX_PERMANENT_ORDER}")
    deltas = np.hstack([scan[:, None], np.tile(fixed_deltas, (scan.size, 1))])
    diff = deltas[:, None, :] - deltas[:, :, None]  # (s, m, m)
    alpha = np.asarray(phase_prefactors(geometry), dtype=float)
    mats = np.exp(1j * alpha[:, None, None, None] * diff).sum(axis=0)
    values = _normalized(_ryser_batch(mats), geometry.n_sources, m)
    return CorrelationCurve(m=m, delta1=scan, values=values)


# ---------------------------------------------------------------------------
# modulation spectra
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Harmonic:
    """One cosine component a cos(f delta) + b sin(f delta) of a correlation curve.

    f is the spatial frequency in lattice units, and amplitude is hypot(a, b).
    A fitted line also carries its contrast a/A0 and the null channel
    b/A0 relative to the curve's offset A0, each with its error.
    """

    f: float
    amplitude: float
    sigma_a: float = 0.0
    contrast: float = 0.0
    sigma_contrast: float = 0.0
    quadrature: float = 0.0
    sigma_quadrature: float = 0.0

    def __post_init__(self) -> None:
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
    """Offset plus the lines fitted to one order-m correlation curve.

    Every line of `harmonics` sits on the filtered comb, f = kappa*(m-1) <
    2**63, all the magic placement transmits.  `off_comb` holds the lines
    fitted between them (fit_fixed), a null channel of the model.
    """

    m: int
    a0: float
    harmonics: tuple[Harmonic, ...]
    sigma_a0: float = 0.0
    off_comb: tuple[Harmonic, ...] = ()

    def __post_init__(self) -> None:
        if self.m < 2:
            raise OrderError(f"correlation order must be at least 2, got {self.m}")
        object.__setattr__(self, "harmonics", tuple(self.harmonics))
        object.__setattr__(self, "off_comb", tuple(self.off_comb))
        if not all(map(math.isfinite, (self.a0, self.sigma_a0))):
            raise ValueError("spectrum contains non-finite fields")
        if self.a0 < 0 or self.sigma_a0 < 0:
            raise ValueError("offset and its uncertainty must be non-negative")
        for h in self.harmonics:
            if h.f % (self.m - 1) or not h.f < 2**63:
                raise ValueError(f"f={h.f} is off the order-{self.m} comb kappa*(m-1) < 2**63")
        if any(h.f % (self.m - 1) == 0 for h in self.off_comb):
            raise ValueError(f"an off-comb line sits on the order-{self.m} comb")

    @property
    def frequencies(self) -> tuple[float, ...]:
        return tuple(h.f for h in self.harmonics)


def _line_coefficients(
    positions: np.ndarray, fixed_deltas: Sequence[float]
) -> tuple[np.ndarray, np.ndarray]:
    """Fourier coefficients of perm(J) in the scanned offset delta, for G geometries.

    `positions` (G, n) holds G equal-weight geometries of n sources; one
    detector is scanned and one parked at each of `fixed_deltas`.  The
    Laplace expansion of perm(J) along the scanned row and column (Minc,
    Permanents, 1978) needs only the fixed block B = sum_l u_l^* u_l^T,
    u_l = exp(i p_l delta_k), and its first minors M:

        perm J(delta) = c0 + sum_{a != b} q_ab exp(i (p_a - p_b) delta),

    q_ab = u_a^H M u_b and c0 = n perm(B) + sum_a q_aa.  Returns c0 (G,) and q (G, n, n).
    """
    m = len(fixed_deltas) + 1
    if m > MAX_PERMANENT_ORDER:
        raise MatrixSizeError(f"order {m} exceeds permanent cap {MAX_PERMANENT_ORDER}")
    u = np.exp(1j * np.asarray(positions, dtype=float)[:, :, None] * np.asarray(fixed_deltas))
    fixed = u.conj().transpose(0, 2, 1) @ u
    minors = _minor_permanents(fixed)
    q = u.conj() @ minors @ u.transpose(0, 2, 1)
    perm_fixed = (fixed[:, 0] * minors[:, 0]).sum(axis=1)  # Laplace along B's first row
    return u.shape[1] * perm_fixed + np.trace(q, axis1=1, axis2=2), q


def predicted_spectrum(
    geometries: Sequence[SourceGeometry], m: int, freqs: Sequence[int]
) -> np.ndarray:
    """Exact contrasts A_f/A0 of geometries at order m (magic positions).

    Returns a (len(geometries), len(freqs)) array: row g holds geometry g's
    contrast at each requested frequency, exactly 0.0 where f is not among
    its surviving frequencies.  The filter passes only f = kappa*(m-1); A_f
    is 2|sum of q_ab over the pairs at distance f| and A0 is c0 (see
    _line_coefficients), and at the magic placement every line is a pure
    cosine, so A_f/A0 is the whole prediction.  Geometries of equal source
    count share one walk; each row is the one its geometry gets alone, bit
    for bit.
    """
    if m < 3:
        raise OrderError(f"filtered spectra need m >= 3, got m={m}")
    geometries = tuple(geometries)
    freqs = np.array(freqs, dtype=int)
    comb = np.flatnonzero(freqs % (m - 1) == 0)  # what the magic placement transmits
    groups: dict[int, list[int]] = {}
    for i, geometry in enumerate(geometries):
        groups.setdefault(geometry.n_sources, []).append(i)

    contrasts = np.zeros((len(geometries), len(freqs)))
    for n, members in groups.items():
        rows = np.array([phase_prefactors(geometries[i]) for i in members])
        c0, q = _line_coefficients(rows, magic_positions(m))
        _normalized(c0[:, None], n, m)  # refuses an offset with an imaginary residue
        lo, hi = np.triu_indices(n, 1)  # every source pair once, p_hi > p_lo
        distances, pairs = rows[:, hi] - rows[:, lo], q[:, hi, lo]
        for i in comb:
            # the pairs at distance f; a sum of none is exactly 0.0
            line = np.where(distances == freqs[i], pairs, 0.0).sum(axis=1)
            # np.hypot, not np.abs: numpy's complex abs can round 2 ulp off
            contrasts[members, i] = 2.0 * np.hypot(line.real, line.imag) / c0.real
    return contrasts


def regular_array_reference(n_sources: int, m: int) -> np.ndarray:
    """Line amplitudes A_l, l = 1..N-1, of an equally spaced N-source array.

    All m-1 fixed detectors sit at offset 0, so nothing is filtered: every
    pair distance l contributes, and the amplitudes fall off linearly,
    A_l proportional to N - l.  That is the regular-array claim of the
    earlier work this paper extends (Phys. Rev. Lett. 109, 233603 (2012)).
    Distance l's pairs sit on the l-th subdiagonal of _line_coefficients' q.
    """
    if n_sources < 2:
        raise GeometryError(f"reference array needs at least 2 sources, got {n_sources}")
    if m < 2:
        raise OrderError(f"correlation order must be at least 2, got {m}")
    _, q = _line_coefficients(np.arange(n_sources)[None], (0.0,) * (m - 1))
    lines = np.array([np.trace(q[0], offset=-l) for l in range(1, n_sources)])
    return 2.0 * np.abs(lines) / float(n_sources) ** m
