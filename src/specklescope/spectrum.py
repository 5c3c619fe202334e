"""Harmonic content of measured correlation curves and its aggregation.

fit_fixed solves one unweighted linear least-squares problem for the
offset and a cosine/sine pair per integer frequency, on the filtered comb
kappa*(m-1) and off it; the curve's bootstrap replicas go through the
same solve.  On a uniform full-period scan that fit is the DFT, the
convention correlation.predicted_spectrum reads its contrasts in.  gate()
keeps the comb lines above machine noise whose contrast a/A0 passes a
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

# ---------------------------------------------------------------------------
# fitting
# ---------------------------------------------------------------------------


def _linear_fit(
    delta: np.ndarray, y: np.ndarray, freqs: Sequence[float]
) -> tuple[np.ndarray, np.ndarray]:
    """Offset plus (a, b) per frequency by linear least squares.

    y holds one curve per column, all fit through one factorization of the
    design.  Returns the coefficients (one column per curve) and the design
    matrix; too few samples or a rank-deficient design is a FitError.
    """
    columns = [np.ones_like(delta)]
    for f in freqs:
        columns.append(np.cos(f * delta))
        columns.append(np.sin(f * delta))
    design = np.column_stack(columns)
    n_params = design.shape[1]
    if len(y) <= n_params:
        raise FitError(f"{len(y)} samples cannot constrain {n_params} parameters")
    coef, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
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
    design: np.ndarray, resid: np.ndarray, coef: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """The same four errors, propagated to first order from the fit covariance.

    The covariance is the residual variance times inv(design^T design); a
    curve near the float maximum overflows the squared residual, and that
    non-finite covariance is a FitError.
    """
    dof = design.shape[0] - design.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):
        cov = np.linalg.inv(design.T @ design) * (float(resid @ resid) / dof)
    if not np.all(np.isfinite(cov)):
        raise FitError("fit covariance is not finite: the squared residual overflows")

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


def fit_fixed(curve: CorrelationCurve, span_bound: int) -> ModulationSpectrum:
    """Least-squares lines at every integer f <= span_bound the scan resolves.

    Fits the offset A0 plus a cosine/sine pair (a, b) per frequency and
    reports per line A = hypot(a, b), the contrast a/A0 and the null
    channel b/A0, which vanishes at the magic placement (the curve is then
    even in delta).  A scan over the whole period 2*pi resolves every
    integer f: lines on the filtered comb f = kappa*(m-1) go to
    `harmonics`, the others, which the magic placement does not transmit,
    to `off_comb`.  A shorter scan needs one comb period and fits the comb
    alone.  The fit is unweighted: on a uniform full-period scan it is the
    DFT, as in predicted_spectrum, while 1/sigma weights would fold content
    off the comb (off-magic pair distances) onto comb lines.

    Errors: the bootstrap replica curves go through the same design in the
    same solve as the curve itself.  For a linear model that is the exact
    refit of every replica (Efron & Tibshirani, An Introduction to the
    Bootstrap, 1993), and each sigma is the spread of its quantity over
    the replicas.  A curve without replicas falls back to the fit
    covariance.
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
    # the period 2*pi is covered once the last sample's mean pitch closes it
    step = 1 if span_covered * len(y) / (len(y) - 1) >= 2.0 * math.pi - 1e-9 else fundamental
    freqs = range(step, span_bound + 1, step)
    replicas = curve.replicas
    columns = y[:, None] if replicas is None else np.column_stack([y, replicas.T])
    coefs, design = _linear_fit(delta, columns, freqs)
    coef = coefs[:, 0]
    a0 = float(coef[0])
    if not a0 > 0:
        raise FitError(f"fitted offset {a0:.3g} is not positive, so contrasts are undefined")
    if replicas is None:
        sigma_a0, sigma_amp, sigma_c, sigma_q = _covariance_errors(design, y - design @ coef, coef)
    else:
        sigma_a0, sigma_amp, sigma_c, sigma_q = _replica_errors(coefs[:, 1:])

    try:
        lines = [
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
        return ModulationSpectrum(m=curve.m, a0=a0, sigma_a0=sigma_a0,
                                  harmonics=tuple(h for h in lines if h.f % fundamental == 0),
                                  off_comb=tuple(h for h in lines if h.f % fundamental))
    except ValueError as exc:
        raise FitError(f"fit produced an invalid spectrum: {exc}") from exc


# ---------------------------------------------------------------------------
# gating and evidence
# ---------------------------------------------------------------------------

# Lines below this fraction of max(1, A0) in amplitude are machine noise on
# a noiseless curve, where their rounding-sized sigmas make any z possible.
_MIN_AMPLITUDE_FRACTION = 1e-9


def gate(spectrum: ModulationSpectrum, policy: GatePolicy, n_tests: int) -> ModulationSpectrum:
    """Keep the lines above machine noise whose contrast a/A0 passes the two-sided test.

    A line below _MIN_AMPLITUDE_FRACTION * max(1, A0) in amplitude is
    rejected first.  Any other survives when |a/A0| >= z* sigma(a/A0), with
    z* from `policy` for a family of n_tests lines, every comb line the run
    tested (across all its orders).  The offset passes through unchanged;
    the off-comb lines, which no stage decides on yet, are dropped.
    """
    floor = _MIN_AMPLITUDE_FRACTION * max(1.0, spectrum.a0)
    z = policy.threshold(n_tests)
    kept = tuple(h for h in spectrum.harmonics
                 if h.amplitude >= floor and abs(h.contrast) >= z * h.sigma_contrast)
    return replace(spectrum, harmonics=kept, off_comb=())


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

