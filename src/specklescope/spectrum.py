"""Harmonic content of measured correlation curves and its aggregation.

Two fitting routes: fit_fixed pins frequencies to the filtered comb
kappa*(m-1) and solves a linear least-squares problem; fit_free also fits
the frequencies, seeding a joint nonlinear fit with iteratively
prewhitened periodogram peaks.  gate() applies significance thresholds,
aggregate() merges gated spectra from several orders into a tri-state
evidence table (Present / Absent / Unknown per integer frequency), and
calibrate_d() turns measured magic-angle separations into the lattice
constant.
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
    "fit_free",
    "gate",
    "aggregate",
    "calibrate_d",
]

# Harmonics below this fraction of max(1, offset) are machine noise on a
# noiseless curve and are never reported by the fitters; keeping them out
# here lets the gate stay purely significance-based.
MIN_AMPLITUDE_FRACTION = 1e-9

# Lower frequency bound for free fits.  Physical lines sit at integers
# >= 1; anything drifting below this is an offset alias, not a line.
_LOW_FREQ_BOUND = 0.3

# Physical lines are multiples of m-1 and so never closer than 2; two
# model lines within this radius are one line plus its own noise
# sidelobe, never two genuine lines.
_MERGE_RADIUS = 1.2

# Bootstrap replica rows projected for the free fit's errors: every
# second of the estimator's 200.
_REPLICA_ROWS = 96

# (cos(f delta), sin(f delta)) for each line of a free-fit parameter vector
_Trig = list[tuple[np.ndarray, np.ndarray]]


@dataclass(frozen=True)
class GatePolicy:
    """Thresholds separating real spectral lines from fit artifacts.

    A harmonic survives when A >= k_a * sigma_A, sigma_f <= sigma_f_max,
    and the fitted frequency sits within eps_int of an integer >= 1.
    """

    k_a: float = 2.5
    sigma_f_max: float = 0.1
    eps_int: float = 0.15

    def __post_init__(self) -> None:
        if self.k_a <= 0 or self.sigma_f_max <= 0 or not 0 < self.eps_int < 0.5:
            raise ValueError(f"implausible gate policy {self}")


# ---------------------------------------------------------------------------
# fitting
# ---------------------------------------------------------------------------


def _weights(curve: CorrelationCurve) -> np.ndarray:
    """Inverse sigmas, floored; ones for a curve without sigmas."""
    if curve.sigma is None:
        return np.ones_like(curve.values)
    floor = 1e-12 * max(1.0, float(np.max(np.abs(curve.values))))
    return 1.0 / np.maximum(curve.sigma, floor)


def _amplitude_floor(a0: float) -> float:
    return MIN_AMPLITUDE_FRACTION * max(1.0, abs(a0))


def _quadrature_amplitude(a: float, b: float, cov2: np.ndarray) -> tuple[float, float]:
    """Amplitude hypot(a, b) and its error from the (a, b) covariance block."""
    amp = math.hypot(a, b)
    if amp == 0.0:
        return 0.0, float(math.sqrt(max(cov2[0, 0], cov2[1, 1], 0.0)))
    grad = np.array([a / amp, b / amp])
    var = float(grad @ cov2 @ grad)
    return amp, math.sqrt(max(var, 0.0))


def _spectrum(
    curve: CorrelationCurve,
    kind: str,
    a0: float,
    sigma_a0: float,
    harmonics: Sequence[Harmonic],
    model: np.ndarray | float,
) -> ModulationSpectrum:
    """The fitted spectrum, with the rms residual of `model` against the curve."""
    residual_rms = float(np.sqrt(np.mean((curve.values - model) ** 2)))
    try:
        return ModulationSpectrum(
            m=curve.m,
            a0=a0,
            sigma_a0=sigma_a0,
            harmonics=tuple(harmonics),
            kind=kind,
            residual_rms=residual_rms,
        )
    except ValueError as exc:
        raise FitError(f"fit produced an invalid spectrum: {exc}") from exc


def _linear_fit(
    delta: np.ndarray, y: np.ndarray, w: np.ndarray, freqs: Sequence[float]
) -> tuple[np.ndarray, np.ndarray]:
    """Offset plus (a, b) per frequency by weighted linear least squares.

    Returns the coefficients and the unweighted design matrix; too few
    samples or a rank-deficient design is a FitError.
    """
    columns = [np.ones_like(delta)]
    for f in freqs:
        columns.append(np.cos(f * delta))
        columns.append(np.sin(f * delta))
    design = np.column_stack(columns)
    n_params = design.shape[1]
    if len(y) <= n_params:
        raise FitError(f"{len(y)} samples cannot constrain {n_params} parameters")
    coef, _, rank, _ = np.linalg.lstsq(design * w[:, None], y * w, rcond=None)
    if rank < n_params:
        raise FitError(f"rank-deficient design matrix (rank {rank} < {n_params})")
    return coef, design


def fit_fixed(curve: CorrelationCurve, span_bound: int = 16) -> ModulationSpectrum:
    """Least-squares amplitudes on the filtered comb f = kappa*(m-1).

    Fits offset plus cosine/sine pairs at every comb frequency up to
    span_bound and reports each kappa's quadrature amplitude.  Amplitude
    errors come from the parameter covariance, scaled by the reduced
    chi-square so misestimated input sigmas do not propagate verbatim.
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
    n_harm = span_bound // fundamental
    w = _weights(curve)
    coef, design = _linear_fit(
        delta, y, w, [kappa * fundamental for kappa in range(1, n_harm + 1)]
    )
    design_w = design * w[:, None]
    resid_w = y * w - design_w @ coef
    dof = len(y) - design.shape[1]
    scale = float(resid_w @ resid_w) / dof
    cov = np.linalg.inv(design_w.T @ design_w) * scale

    a0 = float(coef[0])
    sigma_a0 = math.sqrt(max(float(cov[0, 0]), 0.0))
    floor = _amplitude_floor(a0)
    harmonics = []
    for kappa in range(1, n_harm + 1):
        ia, ib = 2 * kappa - 1, 2 * kappa
        amp, sigma_a = _quadrature_amplitude(
            float(coef[ia]), float(coef[ib]), cov[np.ix_([ia, ib], [ia, ib])]
        )
        if amp < floor:
            continue
        harmonics.append(
            Harmonic(kappa=kappa, f=float(kappa * fundamental), amplitude=amp, sigma_a=sigma_a)
        )
    return _spectrum(curve, "fixed", a0, sigma_a0, harmonics, design @ coef)


def _phase_table(delta: np.ndarray, f_grid: np.ndarray) -> np.ndarray:
    """exp(-i f delta) for every grid frequency (rows) and sample (columns)."""
    return np.exp(-1j * f_grid[:, None] * delta[None, :])


def _periodogram(phases: np.ndarray, resid: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Weighted rectangular-window amplitude estimates on a frequency grid."""
    weights = w**2
    wsum = weights.sum()
    return 2.0 * np.abs(phases @ (weights * resid)) / wsum


def _line_trig(p: np.ndarray, delta: np.ndarray) -> _Trig:
    """cos and sin of f delta for each line of p = [A0, a_1, b_1, f_1, ...]."""
    out = []
    for i in range((p.size - 1) // 3):
        f_delta = p[3 + 3 * i] * delta
        out.append((np.cos(f_delta), np.sin(f_delta)))
    return out


def _cosine_model(p: np.ndarray, delta: np.ndarray, trig: _Trig | None = None) -> np.ndarray:
    """Offset plus k cosine/sine pairs; p = [A0, a_1, b_1, f_1, ...]."""
    if trig is None:
        trig = _line_trig(p, delta)
    out = np.full(delta.shape, p[0])
    for i, (cos_fd, sin_fd) in enumerate(trig):
        out += p[1 + 3 * i] * cos_fd + p[2 + 3 * i] * sin_fd
    return out


def _param_bounds(k: int, f_nyquist: float) -> tuple[np.ndarray, np.ndarray]:
    lo = np.full(1 + 3 * k, -np.inf)
    hi = np.full(1 + 3 * k, np.inf)
    lo[0] = 0.0
    for i in range(k):
        lo[3 + 3 * i] = _LOW_FREQ_BOUND
        hi[3 + 3 * i] = f_nyquist
    return lo, hi


def _jacobian(
    p: np.ndarray, delta: np.ndarray, w: np.ndarray, trig: _Trig | None = None
) -> np.ndarray:
    """Weighted derivative of the offset-plus-cosines model at p."""
    if trig is None:
        trig = _line_trig(p, delta)
    jac = np.empty((delta.size, p.size))
    jac[:, 0] = 1.0
    for i, (cos_fd, sin_fd) in enumerate(trig):
        a, b = p[1 + 3 * i], p[2 + 3 * i]
        jac[:, 1 + 3 * i] = cos_fd
        jac[:, 2 + 3 * i] = sin_fd
        jac[:, 3 + 3 * i] = (-a * sin_fd + b * cos_fd) * delta
    return jac * w[:, None]


def _solve_bounded(
    delta: np.ndarray,
    y: np.ndarray,
    w: np.ndarray,
    x0: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
):
    """Trust-region solve of the offset-plus-cosines model from x0."""
    # imported here: it is most of the package's import time, and only fits need it
    from scipy.optimize import least_squares

    # TRF takes the Jacobian at the last point whose residual it took, so
    # one memo of that point's cos/sin serves both
    memo: dict[bytes, _Trig] = {}

    def trig(p: np.ndarray) -> _Trig:
        key = p.tobytes()
        if key not in memo:
            memo.clear()
            memo[key] = _line_trig(p, delta)
        return memo[key]

    def residual(p: np.ndarray) -> np.ndarray:
        return (_cosine_model(p, delta, trig(p)) - y) * w

    return least_squares(
        residual,
        x0,
        jac=lambda p: _jacobian(p, delta, w, trig(p)),
        bounds=(lo, hi),
        method="trf",
        max_nfev=400 * x0.size,
    )


def _nls_solve(
    curve: CorrelationCurve,
    seed_freqs: list[float],
    w: np.ndarray,
    f_nyquist: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Jointly fit offset, quadrature pairs and frequencies.

    Returns the parameter vector and its covariance, the latter scaled by
    the reduced chi-square so over- or under-stated input sigmas do not
    propagate verbatim.
    """
    delta = curve.delta1
    y = curve.values
    coef, _ = _linear_fit(delta, y, w, seed_freqs)
    k = len(seed_freqs)

    x0 = np.empty(1 + 3 * k)
    x0[0] = max(coef[0], 0.0)
    lo, hi = _param_bounds(k, f_nyquist)
    for i, f in enumerate(seed_freqs):
        x0[1 + 3 * i] = coef[1 + 2 * i]
        x0[2 + 3 * i] = coef[2 + 2 * i]
        x0[3 + 3 * i] = min(max(f, _LOW_FREQ_BOUND), f_nyquist)

    n_params = x0.size
    if len(y) <= n_params:
        raise FitError(f"{len(y)} samples cannot constrain {n_params} parameters")
    result = _solve_bounded(delta, y, w, x0, lo, hi)
    if not result.success:
        raise FitError(f"free fit did not converge: {result.message}")

    dof = len(y) - n_params
    scale = 2.0 * float(result.cost) / dof
    jac = result.jac
    cov = np.linalg.pinv(jac.T @ jac) * scale
    return result.x, cov


def _replica_sigmas(
    curve: CorrelationCurve, params: np.ndarray, w: np.ndarray
) -> tuple[float, list[float], list[float]] | None:
    """Amplitude/frequency errors from the bootstrap replica curves.

    Estimator noise is coherent across the scan, which the independent-pixel
    covariance cannot see.  Each replica y_b is fit by one Gauss-Newton step
    from the converged params, all in one solve: p_b = params + lstsq(J_w,
    w * (y_b - y_hat)), the delta-method bootstrap (Efron & Tibshirani, An
    Introduction to the Bootstrap, 1993).  Sigmas are the spread of A0, of
    each hypot(a, b) and of each f over the rows; None when under 8 rows.
    """
    replicas = curve.replicas
    if replicas is None:
        return None
    step = max(1, replicas.shape[0] // _REPLICA_ROWS)
    rows = replicas[::step][:_REPLICA_ROWS]
    if rows.shape[0] < 8:
        return None
    resid_w = (rows - _cosine_model(params, curve.delta1)).T * w[:, None]
    shift, *_ = np.linalg.lstsq(_jacobian(params, curve.delta1, w), resid_w, rcond=None)
    p = params + shift.T
    sigma_a = np.std(np.hypot(p[:, 1::3], p[:, 2::3]), axis=0, ddof=1)
    sigma_f = np.std(p[:, 3::3], axis=0, ddof=1)
    return float(np.std(p[:, 0], ddof=1)), sigma_a.tolist(), sigma_f.tolist()


def _spectrum_from_fit(
    curve: CorrelationCurve,
    p: np.ndarray,
    cov: np.ndarray,
    replica_sig: tuple[float, list[float], list[float]] | None = None,
) -> ModulationSpectrum:
    k = (p.size - 1) // 3
    a0 = float(p[0])
    sigma_a0 = math.sqrt(max(float(cov[0, 0]), 0.0))
    if replica_sig is not None:
        sigma_a0 = replica_sig[0]
    floor = _amplitude_floor(a0)
    fundamental = curve.m - 1
    harmonics = []
    for i in range(k):
        ia, ib, jf = 1 + 3 * i, 2 + 3 * i, 3 + 3 * i
        amp, sigma_a = _quadrature_amplitude(
            float(p[ia]), float(p[ib]), cov[np.ix_([ia, ib], [ia, ib])]
        )
        f = float(p[jf])
        sigma_f = math.sqrt(max(float(cov[jf, jf]), 0.0))
        if replica_sig is not None:
            sigma_a = replica_sig[1][i]
            sigma_f = replica_sig[2][i]
        if amp < floor:
            continue
        kappa = max(1, round(f / fundamental))
        harmonics.append(
            Harmonic(kappa=kappa, f=f, amplitude=amp, sigma_a=sigma_a, sigma_f=sigma_f)
        )
    harmonics.sort(key=lambda h: h.f)
    return _spectrum(curve, "free", a0, sigma_a0, harmonics, _cosine_model(p, curve.delta1))


def fit_free(
    curve: CorrelationCurve,
    max_harmonics: int = 6,
    oversample: int = 8,
    stop_snr: float = 4.0,
) -> ModulationSpectrum:
    """Joint fit of offset, amplitudes and unconstrained frequencies.

    Lines are harvested one at a time from the periodogram of the current
    residual; after each harvest all lines found so far are refit jointly
    (nonlinearly, frequencies included) so the next residual carries no
    sidelobe leftovers of a slightly misplaced seed.  Lines that collapse
    onto each other or pin to a frequency bound during the joint solve
    are thinned out and the remainder re-solved.  Harvesting stops when
    the strongest remaining peak drops below stop_snr times the robust
    periodogram floor, or below an absolute machine-noise floor, or when
    it lands on an already-fitted (or already-abandoned) line.

    Errors: when the curve carries bootstrap replicas, up to 96 of them
    are projected through the converged fit's Jacobian (the
    delta-method bootstrap of Efron & Tibshirani, 1993) and sigma values
    are the spread of the projected parameters; otherwise the fit
    covariance (scaled by reduced chi-square) is used.  Zero harvested
    lines is a legitimate outcome and yields an offset-only spectrum.
    """
    delta = curve.delta1
    y = curve.values
    n = len(y)
    if n < 8:
        raise FitError(f"free fit needs at least 8 samples, got {n}")
    w = _weights(curve)

    pitch = float(np.median(np.diff(delta)))
    f_nyquist = math.pi / pitch
    scan_span = float(delta[-1] - delta[0])
    df = 2.0 * math.pi / (oversample * scan_span)
    f_grid = np.arange(0.5, f_nyquist, df)
    if f_grid.size < 4:
        raise FitError("scan too short to resolve any frequency")
    phases = _phase_table(delta, f_grid)

    a0 = float(np.average(y, weights=w**2))
    floor_abs = _amplitude_floor(a0)
    resid = y - a0
    params: np.ndarray | None = None
    cov: np.ndarray | None = None
    freqs: list[float] = []
    masked = np.zeros(f_grid.size, dtype=bool)
    while len(freqs) < max_harmonics:
        amps = _periodogram(phases, resid, w)
        robust_floor = 1.4826 * float(np.median(amps))
        threshold = max(stop_snr * robust_floor, floor_abs)
        # a peak within the merge radius of a fitted line would merge
        # right back into it, so only look outside those windows (and
        # outside regions already harvested without lasting effect)
        allowed = ~masked
        for f in freqs:
            allowed &= np.abs(f_grid - f) >= _MERGE_RADIUS
        if not allowed.any():
            break
        peak = int(np.argmax(np.where(allowed, amps, -np.inf)))
        if amps[peak] < threshold:
            break
        f_hat = float(f_grid[peak])
        k_before = len(freqs)
        prev_params, prev_cov = params, cov
        try:
            params, cov = _nls_solve(curve, freqs + [f_hat], w, f_nyquist)
            lines = _line_state(params)
            for _ in range(len(lines)):
                pruned = _prune_lines(lines, f_nyquist)
                if pruned is None:
                    break
                if not pruned:
                    params = cov = None
                    lines = []
                    break
                params, cov = _nls_solve(curve, pruned, w, f_nyquist)
                lines = _line_state(params)
        except FitError:
            # this candidate cannot be fit jointly; drop it and keep the
            # model from the previous harvest (resid still matches it)
            masked |= np.abs(f_grid - f_hat) < 0.5
            params, cov = prev_params, prev_cov
            continue
        freqs = [f for f, _ in lines]
        # a harvest that failed to durably grow the line set would repeat
        # forever (the residual, hence the periodogram peak, is unchanged);
        # mask the peak's neighbourhood so it cannot be harvested again
        if params is None:
            masked |= np.abs(f_grid - f_hat) < 0.5
            a0 = float(np.average(y, weights=w**2))
            resid = y - a0
        else:
            if len(freqs) <= k_before:
                masked |= np.abs(f_grid - f_hat) < 0.5
            resid = y - _cosine_model(params, delta)
            a0 = float(params[0])
        floor_abs = _amplitude_floor(a0)

    if params is None:
        if curve.replicas is not None and curve.replicas.shape[0] > 1:
            rep_means = np.average(curve.replicas, axis=1, weights=w**2)
            sigma_a0 = float(np.std(rep_means, ddof=1))
        else:
            sigma_a0 = float(np.std(y, ddof=1) / math.sqrt(n)) if n > 1 else 0.0
        return _spectrum(curve, "free", a0, sigma_a0, (), a0)

    replica_sig = _replica_sigmas(curve, params, w)
    return _spectrum_from_fit(curve, params, cov, replica_sig)


def _line_state(params: np.ndarray) -> list[tuple[float, float]]:
    """(frequency, amplitude) per fitted line."""
    return [
        (
            float(params[3 + 3 * i]),
            float(math.hypot(params[1 + 3 * i], params[2 + 3 * i])),
        )
        for i in range((params.size - 1) // 3)
    ]


def _prune_lines(
    lines: list[tuple[float, float]], f_nyquist: float
) -> list[float] | None:
    """Thin lines that pinned to a frequency bound or crowded together.

    Lines within the merge radius are one physical line that the solver
    split across its own noise sidelobes (coincident ones additionally
    degenerate into huge cancelling quadrature pairs); keep the stronger
    frequency of each cluster and let the joint re-solve relocate it.
    Bound-pinned lines are offset or alias artifacts and are dropped.
    Returns None when the set is already clean.
    """
    cleaned: list[tuple[float, float]] = []
    changed = False
    for f, amp in sorted(lines):
        if f < _LOW_FREQ_BOUND + 0.02 or f > 0.999 * f_nyquist:
            changed = True
            continue
        if cleaned and f - cleaned[-1][0] < _MERGE_RADIUS:
            if amp > cleaned[-1][1]:
                cleaned[-1] = (f, amp)
            changed = True
            continue
        cleaned.append((f, amp))
    return [f for f, _ in cleaned] if changed else None


# ---------------------------------------------------------------------------
# gating and evidence
# ---------------------------------------------------------------------------


def gate(spectrum: ModulationSpectrum, policy: GatePolicy | None = None) -> ModulationSpectrum:
    """Drop insignificant or non-integer lines; snap survivors to integers.

    Survivors must satisfy every rule in `policy`; among survivors that
    round to the same integer frequency only the strongest is kept.  The
    offset and bookkeeping fields pass through unchanged.
    """
    policy = policy or GatePolicy()
    best: dict[int, Harmonic] = {}
    for h in spectrum.harmonics:
        f_int = round(h.f)
        if f_int < 1:
            continue
        if abs(h.f - f_int) > policy.eps_int:
            continue
        if h.sigma_f > policy.sigma_f_max:
            continue
        if h.amplitude < policy.k_a * h.sigma_a:
            continue
        snapped = replace(h, f=float(f_int))
        prior = best.get(f_int)
        if prior is None or snapped.amplitude > prior.amplitude:
            best[f_int] = snapped
    kept = tuple(best[f] for f in sorted(best))
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
    there; Unknown otherwise.  A line an order could not physically have
    transmitted is leaked estimator noise and never counts as presence.
    Present is never demoted by new absences; such rows are only flagged
    as conflicts.
    """
    orders = [s.m for s in spectra]
    if len(set(orders)) != len(orders):
        raise ValueError(f"duplicate correlation orders in {sorted(orders)}")
    accepted: dict[int, dict[int, Harmonic]] = {}
    for s in spectra:
        lines = {}
        for h in s.harmonics:
            f_int = round(h.f)
            if abs(h.f - f_int) > 1e-6:
                raise ValueError(
                    f"aggregate needs gated spectra; got non-integer line f={h.f}"
                )
            lines[f_int] = h
        accepted[s.m] = lines

    span_hint = max((f for lines in accepted.values() for f in lines), default=0)
    rows: dict[int, EvidenceRow] = {}
    for f in range(1, span_hint + 1):
        present_orders = tuple(
            sorted(
                m
                for m, lines in accepted.items()
                if f % (m - 1) == 0 and f in lines
            )
        )
        absent_orders = tuple(
            sorted(
                m
                for m, lines in accepted.items()
                if f % (m - 1) == 0 and f not in lines
            )
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
