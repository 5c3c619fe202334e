"""Harmonic content of measured correlation curves and its aggregation.

fit_fixed pins the frequencies to the filtered comb kappa*(m-1) and
solves one weighted linear least-squares problem for the offset and a
cosine/sine pair per comb line; the curve's bootstrap replicas go through
the same solve.  gate() keeps the lines whose contrast a/A0 passes a
family-wise two-sided test, aggregate() merges gated spectra from several
orders into a tri-state evidence table (Present / Absent / Unknown per
integer frequency).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import replace
from typing import TYPE_CHECKING

import numpy as np

from .correlation import CorrelationCurve, Harmonic, ModulationSpectrum
from .errors import FitError
from .records import EvidenceRow, EvidenceTable

if TYPE_CHECKING:
    from .config import GatePolicy

__all__ = [
    "fit_fixed",
    "gate",
    "aggregate",
]

# Harmonics below this fraction of max(1, offset) are machine noise on a
# noiseless curve and are never reported by the fit; keeping them out
# here lets the gate stay purely significance-based.
_MIN_AMPLITUDE_FRACTION = 1e-9

# Residual periodogram grid points per Fourier resolution 2*pi/scan.
_OVERSAMPLE = 4


# ---------------------------------------------------------------------------
# fitting
# ---------------------------------------------------------------------------


def _weights(curve: CorrelationCurve) -> np.ndarray:
    """Inverse sigmas, floored; ones for a curve without sigmas."""
    if curve.sigma is None:
        return np.ones_like(curve.values)
    floor = 1e-12 * max(1.0, float(np.max(np.abs(curve.values))))
    return 1.0 / np.maximum(curve.sigma, floor)


def _linear_fit(
    delta: np.ndarray, y: np.ndarray, w: np.ndarray, freqs: Sequence[float]
) -> tuple[np.ndarray, np.ndarray]:
    """Offset plus (a, b) per frequency by weighted linear least squares.

    y holds one curve per column, all fit through one factorization of the
    weighted design.  Returns the coefficients (one column per curve) and
    the unweighted design matrix; too few samples or a rank-deficient
    design is a FitError.
    """
    columns = [np.ones_like(delta)]
    for f in freqs:
        columns.append(np.cos(f * delta))
        columns.append(np.sin(f * delta))
    design = np.column_stack(columns)
    n_params = design.shape[1]
    if len(y) <= n_params:
        raise FitError(f"{len(y)} samples cannot constrain {n_params} parameters")
    coef, _, rank, _ = np.linalg.lstsq(design * w[:, None], y * w[:, None], rcond=None)
    if rank < n_params:
        raise FitError(f"rank-deficient design matrix (rank {rank} < {n_params})")
    return coef, design


def _replica_errors(coefs: np.ndarray) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """Spread over replica fits (one per column) of A0 and, per line, of A, a/A0 and b/A0."""
    a0, a, b = coefs[0], coefs[1::2], coefs[2::2]
    if not np.all(a0 > 0):
        raise FitError("a bootstrap replica fits a non-positive offset")

    def spread(values: np.ndarray) -> np.ndarray:
        return np.std(values, axis=-1, ddof=1)

    return float(spread(a0)), spread(np.hypot(a, b)), spread(a / a0), spread(b / a0)


def _covariance_errors(
    design_w: np.ndarray, resid_w: np.ndarray, coef: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """The same four errors, propagated to first order from the fit covariance.

    The covariance is scaled by the reduced chi-square, so misestimated
    input sigmas do not propagate verbatim.
    """
    dof = design_w.shape[0] - design_w.shape[1]
    try:  # weights near the float range can underflow the normal matrix to singular
        cov = np.linalg.inv(design_w.T @ design_w) * (float(resid_w @ resid_w) / dof)
    except np.linalg.LinAlgError as exc:
        raise FitError(f"fit covariance cannot be inverted: {exc}") from exc

    def sigma(idx: list[int], grad: list[float]) -> float:
        g = np.array(grad)
        return math.sqrt(max(float(g @ cov[np.ix_(idx, idx)] @ g), 0.0))

    a0 = coef[0]
    out: list[list[float]] = [[], [], []]
    for ia in range(1, coef.size, 2):
        a, b = coef[ia], coef[ia + 1]
        amp = math.hypot(a, b) or 1.0
        out[0].append(sigma([ia, ia + 1], [a / amp, b / amp]))
        out[1].append(sigma([0, ia], [-a / a0**2, 1.0 / a0]))
        out[2].append(sigma([0, ia + 1], [-b / a0**2, 1.0 / a0]))
    return math.sqrt(max(float(cov[0, 0]), 0.0)), *map(np.array, out)


def _off_comb_peak(delta: np.ndarray, resid: np.ndarray, w: np.ndarray, fundamental: int) -> float:
    """Largest residual periodogram amplitude at least 1/2 from every comb frequency.

    The filter passes only multiples of m-1, so a peak here is content the
    model says cannot exist: misplaced detectors or a wrong model.
    """
    steps = np.sort(np.diff(delta))  # the median by hand: np.median imports numpy.ma
    pitch = float((steps[(steps.size - 1) // 2] + steps[steps.size // 2]) / 2)
    df = 2.0 * math.pi / (_OVERSAMPLE * float(delta[-1] - delta[0]))
    f_grid = np.arange(0.5, math.pi / pitch, df)
    f_grid = f_grid[np.abs(f_grid - fundamental * np.round(f_grid / fundamental)) >= 0.5]
    if f_grid.size == 0:
        return 0.0
    # weighted rectangular-window amplitude estimates on the grid
    phases = np.exp(-1j * f_grid[:, None] * delta[None, :])
    weights = w**2
    return float(np.max(2.0 * np.abs(phases @ (weights * resid)) / weights.sum()))


def fit_fixed(curve: CorrelationCurve, span_bound: int) -> ModulationSpectrum:
    """Least-squares lines on the filtered comb f = kappa*(m-1), f <= span_bound.

    Fits the offset A0 plus a cosine/sine pair (a, b) at every comb
    frequency and reports per line A = hypot(a, b), the contrast a/A0 and
    the null channel b/A0, which vanishes at the magic placement (the
    curve is then even in delta).  Lines below machine noise are left out.

    Errors: the bootstrap replica curves go through the same weighted
    design in the same solve as the curve itself.  For a linear model that
    is the exact refit of every replica (Efron & Tibshirani, An
    Introduction to the Bootstrap, 1993), and each sigma is the spread of
    its quantity over the replicas.  A curve without replicas falls back
    to the fit covariance.  `leakage` records the strongest off-comb peak
    of the residual periodogram.
    """
    if span_bound < 1:
        raise ValueError(f"span bound must be positive, got {span_bound}")
    fundamental = curve.m - 1
    delta = curve.delta1
    y = curve.values
    span_covered = float(delta[-1] - delta[0])
    if span_covered < 2.0 * math.pi / fundamental - 1e-9:
        raise FitError(
            f"scan covers {span_covered:.3f} rad, less than one period "
            f"{2.0 * math.pi / fundamental:.3f} of the order-{curve.m} comb"
        )
    freqs = [kappa * fundamental for kappa in range(1, span_bound // fundamental + 1)]
    w = _weights(curve)
    replicas = curve.replicas
    columns = y[:, None] if replicas is None else np.column_stack([y, replicas.T])
    coefs, design = _linear_fit(delta, columns, w, freqs)
    coef = coefs[:, 0]
    a0 = float(coef[0])
    if not a0 > 0:
        raise FitError(f"fitted offset {a0:.3g} is not positive, so contrasts are undefined")
    resid = y - design @ coef
    if replicas is None:
        sigma_a0, sigma_amp, sigma_c, sigma_q = _covariance_errors(
            design * w[:, None], resid * w, coef
        )
    else:
        sigma_a0, sigma_amp, sigma_c, sigma_q = _replica_errors(coefs[:, 1:])

    floor = _MIN_AMPLITUDE_FRACTION * max(1.0, a0)
    try:
        harmonics = [
            Harmonic(
                f=float(f),
                amplitude=math.hypot(coef[1 + 2 * i], coef[2 + 2 * i]),
                sigma_a=float(sigma_amp[i]),
                contrast=float(coef[1 + 2 * i]) / a0,
                sigma_contrast=float(sigma_c[i]),
                quadrature=float(coef[2 + 2 * i]) / a0,
                sigma_quadrature=float(sigma_q[i]),
            )
            for i, f in enumerate(freqs)
        ]
        return ModulationSpectrum(
            m=curve.m,
            a0=a0,
            sigma_a0=sigma_a0,
            harmonics=tuple(h for h in harmonics if h.amplitude >= floor),
            residual_rms=float(np.sqrt(np.mean(resid**2))),
            leakage=_off_comb_peak(delta, resid, w, fundamental),
        )
    except ValueError as exc:
        raise FitError(f"fit produced an invalid spectrum: {exc}") from exc


# ---------------------------------------------------------------------------
# gating and evidence
# ---------------------------------------------------------------------------


def gate(spectrum: ModulationSpectrum, policy: GatePolicy, n_tests: int) -> ModulationSpectrum:
    """Keep the lines whose contrast a/A0 passes the two-sided test.

    A line survives when |a/A0| >= z* sigma(a/A0), with z* from `policy`
    for a family of n_tests lines, every comb line the run tested (across
    all its orders).  The offset and bookkeeping fields pass through
    unchanged.
    """
    z = policy.threshold(n_tests)
    kept = tuple(h for h in spectrum.harmonics if abs(h.contrast) >= z * h.sigma_contrast)
    return replace(spectrum, harmonics=kept)


def aggregate(spectra: Sequence[ModulationSpectrum]) -> EvidenceTable:
    """Merge gated spectra from distinct orders into an evidence table.

    A frequency is Present when an order whose filter passes it (f
    divisible by m-1) shows it; Absent when such an order shows nothing
    there; Unknown otherwise.  Lines sit on their order's comb (a
    ModulationSpectrum holds no other), so every sighting is one the
    order could transmit.  Rows name orders only; line strengths stay in
    the spectra.  Present is never demoted by new absences; such rows are
    only flagged as conflicts.
    """
    orders = [s.m for s in spectra]
    if len(set(orders)) != len(orders):
        raise ValueError(f"duplicate correlation orders in {sorted(orders)}")
    accepted = {s.m: {int(h.f) for h in s.harmonics} for s in spectra}

    span_hint = max((f for lines in accepted.values() for f in lines), default=0)
    rows: dict[int, EvidenceRow] = {}
    for f in range(1, span_hint + 1):
        present_orders = tuple(sorted(m for m, lines in accepted.items() if f in lines))
        absent_orders = tuple(
            sorted(m for m, lines in accepted.items() if f % (m - 1) == 0 and f not in lines)
        )
        if present_orders:
            rows[f] = EvidenceRow(f=f, status="present", present_orders=present_orders,
                                  absent_orders=absent_orders, conflict=bool(absent_orders))
        elif absent_orders:
            rows[f] = EvidenceRow(f=f, status="absent", absent_orders=absent_orders)
        else:
            rows[f] = EvidenceRow(f=f, status="unknown")
    return EvidenceTable(span_hint=span_hint, rows=rows, orders_measured=tuple(orders))

