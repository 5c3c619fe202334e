"""Harmonic content of measured correlation curves and its aggregation.

fit_fixed pins the frequencies to the filtered comb kappa*(m-1) and
solves one weighted linear least-squares problem for the offset and a
cosine/sine pair per comb line; the curve's bootstrap replicas go through
the same solve.  gate() keeps the lines whose contrast a/A0 passes a
family-wise two-sided test, aggregate() merges gated spectra from several
orders into a tri-state evidence table (Present / Absent / Unknown per
integer frequency), and calibrate_d() turns measured magic-angle
separations into the lattice constant.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, replace

import numpy as np

from .correlation import CorrelationCurve, Harmonic, ModulationSpectrum
from .errors import FitError

__all__ = [
    "MIN_AMPLITUDE_FRACTION",
    "GatePolicy",
    "EvidenceRow",
    "EvidenceTable",
    "fit_fixed",
    "gate",
    "aggregate",
    "calibrate_d",
]

# Harmonics below this fraction of max(1, offset) are machine noise on a
# noiseless curve and are never reported by the fit; keeping them out
# here lets the gate stay purely significance-based.
MIN_AMPLITUDE_FRACTION = 1e-9

# Fewest bootstrap replica rows whose spread is taken as an error; a curve
# with fewer is priced by the fit covariance instead.
_MIN_REPLICA_ROWS = 8

# Residual periodogram grid points per Fourier resolution 2*pi/scan.
_OVERSAMPLE = 4


@dataclass(frozen=True)
class GatePolicy:
    """Family-wise error rate of the line test.

    A line is kept when its contrast c = a/A0 passes the two-sided test
    |c| >= z* sigma_c, where z* = Phi^-1(1 - alpha/(2N)) over the N comb
    lines tested (Bonferroni).
    """

    alpha: float = 0.01

    def __post_init__(self) -> None:
        # below 1e-300 the per-test level alpha/(2N) could underflow to zero
        if not 1e-300 <= self.alpha < 1:
            raise ValueError(f"alpha must lie in [1e-300, 1), got {self.alpha}")

    def threshold(self, n_tests: int) -> float:
        """z* for a family of n_tests two-sided tests."""
        # imported here: statistics loads decimal and fractions (0.4 MB),
        # which no command but analyze needs
        from statistics import NormalDist

        return -NormalDist().inv_cdf(self.alpha / (2 * max(n_tests, 1)))


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
    cov = np.linalg.inv(design_w.T @ design_w) * (float(resid_w @ resid_w) / dof)

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


def _phase_table(delta: np.ndarray, f_grid: np.ndarray) -> np.ndarray:
    """exp(-i f delta) for every grid frequency (rows) and sample (columns)."""
    return np.exp(-1j * f_grid[:, None] * delta[None, :])


def _periodogram(phases: np.ndarray, resid: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Weighted rectangular-window amplitude estimates on a frequency grid."""
    weights = w**2
    wsum = weights.sum()
    return 2.0 * np.abs(phases @ (weights * resid)) / wsum


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
    return float(np.max(_periodogram(_phase_table(delta, f_grid), resid, w)))


def fit_fixed(curve: CorrelationCurve, span_bound: int = 16) -> ModulationSpectrum:
    """Least-squares lines on the filtered comb f = kappa*(m-1), f <= span_bound.

    Fits the offset A0 plus a cosine/sine pair (a, b) at every comb
    frequency and reports per line A = hypot(a, b), the contrast a/A0 and
    the null channel b/A0, which vanishes at the magic placement (the
    curve is then even in delta).  Lines below machine noise are left out.

    Errors: the bootstrap replica curves go through the same weighted
    design in the same solve as the curve itself.  For a linear model that
    is the exact refit of every replica (Efron & Tibshirani, An
    Introduction to the Bootstrap, 1993), and each sigma is the spread of
    its quantity over the replicas.  A curve without replicas (or with
    fewer than 8) falls back to the fit covariance.  `leakage` records the
    strongest off-comb peak of the residual periodogram.
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
    if replicas is not None and replicas.shape[0] < _MIN_REPLICA_ROWS:
        replicas = None
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

    floor = MIN_AMPLITUDE_FRACTION * max(1.0, a0)
    try:
        harmonics = [
            Harmonic(
                kappa=i + 1,
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


def gate(
    spectrum: ModulationSpectrum, policy: GatePolicy | None = None, n_tests: int | None = None
) -> ModulationSpectrum:
    """Keep the lines whose contrast a/A0 passes the two-sided test.

    A line survives when |a/A0| >= z* sigma(a/A0), with z* from `policy`
    for a family of n_tests lines: every comb line tested in the run, by
    default this spectrum's lines.  The offset and bookkeeping fields
    pass through unchanged.
    """
    policy = policy or GatePolicy()
    z = policy.threshold(len(spectrum.harmonics) if n_tests is None else n_tests)
    kept = tuple(h for h in spectrum.harmonics if abs(h.contrast) >= z * h.sigma_contrast)
    return replace(spectrum, harmonics=kept)


@dataclass(frozen=True)
class EvidenceRow:
    """What the measured orders say about one integer frequency."""

    f: int
    status: str  # "present" | "absent" | "unknown"
    amplitude: float | None = None
    sigma_a: float | None = None
    present_orders: tuple[int, ...] = ()
    absent_orders: tuple[int, ...] = ()
    conflict: bool = False

    def __post_init__(self) -> None:
        if self.f < 1:
            raise ValueError(f"frequency must be a positive integer, got {self.f}")
        if self.status not in ("present", "absent", "unknown"):
            raise ValueError(f"unknown evidence status {self.status!r}")


@dataclass(frozen=True)
class EvidenceTable:
    """Tri-state frequency evidence merged across correlation orders.

    rows covers integers 1..span_hint; anything beyond span_hint is
    implicitly unknown.  A conflict (some order sees f, another order that
    could see f does not) keeps status "present" but is flagged on the
    row, so upstream noise problems stay visible.
    """

    span_hint: int
    rows: Mapping[int, EvidenceRow]
    orders_measured: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.span_hint < 0:
            raise ValueError(f"span hint must be non-negative, got {self.span_hint}")
        rows = dict(self.rows)
        for f, row in rows.items():
            if f != row.f:
                raise ValueError(f"row key {f} does not match row frequency {row.f}")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "orders_measured", tuple(sorted(self.orders_measured)))

    def status_of(self, f: int) -> str:
        if f < 1:
            raise ValueError(f"frequency must be a positive integer, got {f}")
        row = self.rows.get(f)
        return row.status if row is not None else "unknown"

    def present(self) -> tuple[int, ...]:
        return tuple(sorted(f for f, r in self.rows.items() if r.status == "present"))

    def absent(self) -> tuple[int, ...]:
        return tuple(sorted(f for f, r in self.rows.items() if r.status == "absent"))

    def conflicts(self) -> tuple[int, ...]:
        return tuple(sorted(f for f, r in self.rows.items() if r.conflict))

    @classmethod
    def from_sets(
        cls,
        present: Iterable[int] | Mapping[int, tuple[float, float]],
        absent: Iterable[int] = (),
        orders_measured: Iterable[int] = (),
        span_hint: int | None = None,
    ) -> "EvidenceTable":
        """Build a table directly from known Present/Absent frequency sets."""
        if isinstance(present, Mapping):
            present_map = {int(f): v for f, v in present.items()}
        else:
            present_map = {int(f): None for f in present}
        absent_set = {int(f) for f in absent}
        overlap = set(present_map) & absent_set
        if overlap:
            raise ValueError(f"frequencies both present and absent: {sorted(overlap)}")
        hint = span_hint if span_hint is not None else max(present_map, default=0)
        rows = {}
        for f in sorted(present_map):
            amp = present_map[f]
            rows[f] = EvidenceRow(
                f=f,
                status="present",
                amplitude=None if amp is None else float(amp[0]),
                sigma_a=None if amp is None else float(amp[1]),
            )
        for f in sorted(absent_set):
            rows[f] = EvidenceRow(f=f, status="absent")
        return cls(span_hint=hint, rows=rows, orders_measured=tuple(orders_measured))


def aggregate(spectra: Sequence[ModulationSpectrum]) -> EvidenceTable:
    """Merge gated spectra from distinct orders into an evidence table.

    A frequency is Present when an order whose filter passes it (f
    divisible by m-1) shows it; Absent when such an order shows nothing
    there; Unknown otherwise.  Lines sit on their order's comb (a
    ModulationSpectrum holds no other), so every sighting is one the
    order could transmit.  Present is never demoted by new absences; such
    rows are only flagged as conflicts.
    """
    orders = [s.m for s in spectra]
    if len(set(orders)) != len(orders):
        raise ValueError(f"duplicate correlation orders in {sorted(orders)}")
    accepted = {s.m: {int(h.f): h for h in s.harmonics} for s in spectra}

    span_hint = max((f for lines in accepted.values() for f in lines), default=0)
    rows: dict[int, EvidenceRow] = {}
    for f in range(1, span_hint + 1):
        present_orders = tuple(sorted(m for m, lines in accepted.items() if f in lines))
        absent_orders = tuple(
            sorted(m for m, lines in accepted.items() if f % (m - 1) == 0 and f not in lines)
        )
        if present_orders:
            # report the most significant sighting
            def _snr(m: int) -> float:
                h = accepted[m][f]
                return h.amplitude / h.sigma_a if h.sigma_a > 0 else math.inf

            best = accepted[max(present_orders, key=_snr)][f]
            rows[f] = EvidenceRow(
                f=f,
                status="present",
                amplitude=best.amplitude,
                sigma_a=best.sigma_a,
                present_orders=present_orders,
                absent_orders=absent_orders,
                conflict=bool(absent_orders),
            )
        elif absent_orders:
            rows[f] = EvidenceRow(f=f, status="absent", absent_orders=absent_orders)
        else:
            rows[f] = EvidenceRow(f=f, status="unknown")
    return EvidenceTable(span_hint=span_hint, rows=rows, orders_measured=tuple(orders))


# ---------------------------------------------------------------------------
# lattice calibration
# ---------------------------------------------------------------------------


def calibrate_d(sin_thetas: Sequence[float], wavelength: float, m: int) -> float:
    """Lattice constant from measured magic-position angles at order m.

    Adjacent magic offsets are 2*pi/(m-1) apart in delta, i.e. separated
    by lambda/((m-1) d) in sin(theta); each adjacent pair of the supplied
    sines therefore yields d = lambda / ((m-1) |sin_j - sin_{j-1}|), and
    the mean over pairs is returned.
    """
    if m < 3:
        raise ValueError(f"calibration needs at least two fixed detectors, got m={m}")
    if wavelength <= 0:
        raise ValueError(f"wavelength must be positive, got {wavelength}")
    sines = [float(s) for s in sin_thetas]
    if len(sines) < 2:
        raise ValueError("need at least two adjacent magic-position sines")
    estimates = []
    for lo, hi in zip(sines, sines[1:]):
        gap = abs(hi - lo)
        if gap == 0:
            raise ValueError("zero angular separation between magic positions")
        estimates.append(wavelength / ((m - 1) * gap))
    return float(np.mean(estimates))
