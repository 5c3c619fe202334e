"""The projected replica errors of fit_free against nonlinear replica refits.

fit_free prices estimator noise by projecting bootstrap replica curves
through the converged fit's Jacobian.  The reference below is the error
model it replaced: every replica refit by a warm-started, windowed
trust-region solve.  Both error models are applied to the same converged
fits, on the low-frame acceptance grid and on the README demo acquisition.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import least_squares

from specklescope import (
    CorrelationCurve,
    SourceGeometry,
    SpeckleRun,
    estimate_g_m,
    fit_free,
    gate,
    nearest_magic_pixels,
    sample_frames,
    uniform_grid,
)
from specklescope import spectrum as spectrum_module
from specklescope.spectrum import _cosine_model, _jacobian, _param_bounds, _weights

SIGMA_A_TOLERANCE = 0.10  # relative, on accepted lines
SIGMA_F_FACTOR = 2.0  # either way, on accepted lines


def refit_replica_sigmas(curve, params, w, f_nyquist, max_fits=48):
    """Amplitude/frequency errors from refitting bootstrap replica curves.

    Warm-starts the joint solve on each resampled curve and takes the
    spread of the re-fitted parameters.  Returns None when too few replica
    fits converge to trust the spread.
    """
    replicas = curve.replicas
    if replicas is None:
        return None
    step = max(1, replicas.shape[0] // max_fits)
    rows = replicas[::step][:max_fits]
    if rows.shape[0] < 8:
        return None
    k = (params.size - 1) // 3
    lo, hi = _param_bounds(k, f_nyquist)
    # confine each frequency to a window around its point estimate: slots
    # must not collide or swap across replicas, or the spread measures
    # bookkeeping accidents instead of noise.  A wandering noise line
    # saturates its window, which is still several times sigma_f_max.
    freqs = [float(params[3 + 3 * i]) for i in range(k)]
    for i, f in enumerate(freqs):
        gap = min((abs(f - g) for j, g in enumerate(freqs) if j != i), default=math.inf)
        half = min(0.4, 0.45 * gap)
        lo[3 + 3 * i] = max(lo[3 + 3 * i], f - half)
        hi[3 + 3 * i] = min(hi[3 + 3 * i], f + half)
    delta = curve.delta1
    fits = []
    for y_b in rows:

        def residual(p, y_b=y_b):
            r = _cosine_model(p, delta) - y_b
            return r if w is None else r * w

        result = least_squares(
            residual,
            params.copy(),
            jac=lambda p: _jacobian(p, delta, w),
            bounds=(lo, hi),
            method="trf",
            max_nfev=120 * params.size,
        )
        if result.success:
            fits.append(result.x)
    if len(fits) < 8:
        return None
    p = np.array(fits)
    sigma_a0 = float(np.std(p[:, 0], ddof=1))
    sigma_a = []
    sigma_f = []
    for i in range(k):
        amp = np.hypot(p[:, 1 + 3 * i], p[:, 2 + 3 * i])
        sigma_a.append(float(np.std(amp, ddof=1)))
        sigma_f.append(float(np.std(p[:, 3 + 3 * i], ddof=1)))
    return sigma_a0, sigma_a, sigma_f


def paired_spectra(curve, monkeypatch):
    """fit_free's spectrum and the same fit under the reference errors."""
    captured = []
    build = spectrum_module._spectrum_from_fit

    def record(curve, p, cov, replica_sig=None):
        captured.append((p, cov, replica_sig))
        return build(curve, p, cov, replica_sig)

    with monkeypatch.context() as patch:
        patch.setattr(spectrum_module, "_spectrum_from_fit", record)
        projected = fit_free(curve)
    if not captured:  # offset-only fit: no line errors to compare
        return projected, projected
    (p, cov, replica_sig), = captured
    assert replica_sig is not None, "projection fell back to the covariance"
    f_nyquist = math.pi / float(np.median(np.diff(curve.delta1)))
    reference_sig = refit_replica_sigmas(curve, p, _weights(curve), f_nyquist, max_fits=96)
    assert reference_sig is not None, "reference refits did not converge"
    return projected, build(curve, p, cov, reference_sig)


def compare(label, projected, reference):
    """Verdict mismatches and out-of-tolerance accepted lines, as messages."""
    problems = []
    ratios = []
    for new, old in zip(projected.harmonics, reference.harmonics, strict=True):
        assert new.f == old.f and new.amplitude == old.amplitude
        kept_new = bool(gate(replace(projected, harmonics=(new,))).harmonics)
        kept_old = bool(gate(replace(reference, harmonics=(old,))).harmonics)
        cell = f"{label} f={new.f:.3f}"
        if kept_new != kept_old:
            problems.append(f"{cell}: projected {'accepts' if kept_new else 'rejects'}, "
                            f"refit {'accepts' if kept_old else 'rejects'}")
            continue
        if not kept_new:
            continue
        ratio_a = new.sigma_a / old.sigma_a
        ratio_f = new.sigma_f / old.sigma_f
        ratios.append((ratio_a, ratio_f))
        if abs(ratio_a - 1.0) > SIGMA_A_TOLERANCE:
            problems.append(f"{cell}: sigma_A ratio {ratio_a:.3f}")
        if not 1.0 / SIGMA_F_FACTOR <= ratio_f <= SIGMA_F_FACTOR:
            problems.append(f"{cell}: sigma_f ratio {ratio_f:.3f}")
    assert gate(projected).frequencies == gate(reference).frequencies, label
    return problems, ratios


def check_acquisition(x, frames, monkeypatch):
    stack = sample_frames(
        SpeckleRun(geometry=SourceGeometry(x), frames=frames, seed=1,
                   delta_axis=uniform_grid(240))
    )
    problems, ratios = [], []
    for m in (3, 4, 5, 6):
        fixed, _ = nearest_magic_pixels(stack.delta_axis, m)
        projected, reference = paired_spectra(estimate_g_m(stack, (fixed,))[0], monkeypatch)
        cell_problems, cell_ratios = compare(f"x={x} m={m}", projected, reference)
        problems += cell_problems
        ratios += cell_ratios
    return problems, ratios


def test_projection_matches_refits_on_the_low_frame_grid(monkeypatch):
    problems, ratios = [], []
    for x in ((1, 3), (1, 3, 2), (2, 1, 3)):
        cell_problems, cell_ratios = check_acquisition(x, 1000, monkeypatch)
        problems += cell_problems
        ratios += cell_ratios
    assert ratios, "no accepted line to compare"
    assert not problems, problems


def test_projection_matches_refits_on_the_demo(monkeypatch):
    problems, ratios = check_acquisition((3, 1, 4), 20000, monkeypatch)
    assert ratios, "no accepted line to compare"
    assert not problems, problems


@pytest.mark.parametrize("rows", [7, 8])
def test_too_few_replicas_give_no_spread(rows):
    axis = np.linspace(0, 2 * math.pi, 160, endpoint=False)
    base = 2.0 + np.cos(4.0 * axis)
    replicas = base[None, :] + np.random.default_rng(0).normal(0.0, 0.01, (rows, axis.size))
    curve = CorrelationCurve(m=3, delta1=axis, values=base, sigma=np.full(axis.size, 0.01),
                             replicas=replicas)
    params = np.array([2.0, 1.0, 0.0, 4.0])
    sig = spectrum_module._replica_sigmas(curve, params, _weights(curve))
    assert (sig is None) == (rows < 8)
