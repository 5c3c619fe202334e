"""fit_free against the free fit that recomputes every value it needs.

fit_free builds its periodogram phase table once per call, and its
trust-region residual and Jacobian share the cos/sin of each solver
point.  The references below are the versions that recompute those
values on every call: the periodogram builds its own table, and the
residual and Jacobian each take their own cos/sin.  Both routes must give
the same bits, not merely close numbers.
"""

from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import least_squares

from conftest import magic_curve
from specklescope import (
    CorrelationCurve,
    SourceGeometry,
    SpeckleRun,
    estimate_g_m,
    fit_free,
    nearest_magic_pixels,
    sample_frames,
    uniform_grid,
)
from specklescope import spectrum as spectrum_module


def reference_periodogram(delta, resid, w, f_grid):
    """Weighted rectangular-window amplitudes, building the phase table each call."""
    weights = w**2
    wsum = weights.sum()
    phases = np.exp(-1j * f_grid[:, None] * delta[None, :])
    return 2.0 * np.abs(phases @ (weights * resid)) / wsum


def reference_cosine_model(p, delta):
    out = np.full(delta.shape, p[0])
    for i in range((p.size - 1) // 3):
        a, b, f = p[1 + 3 * i], p[2 + 3 * i], p[3 + 3 * i]
        out += a * np.cos(f * delta) + b * np.sin(f * delta)
    return out


def reference_jacobian(p, delta, w):
    jac = np.empty((delta.size, p.size))
    jac[:, 0] = 1.0
    for i in range((p.size - 1) // 3):
        a, b, f = p[1 + 3 * i], p[2 + 3 * i], p[3 + 3 * i]
        cos_fd = np.cos(f * delta)
        sin_fd = np.sin(f * delta)
        jac[:, 1 + 3 * i] = cos_fd
        jac[:, 2 + 3 * i] = sin_fd
        jac[:, 3 + 3 * i] = (-a * sin_fd + b * cos_fd) * delta
    return jac * w[:, None]


def reference_solve_bounded(delta, y, w, x0, lo, hi):
    """The trust-region solve with residual and Jacobian each taking their own cos/sin."""
    reference_solve_bounded.calls += 1

    def residual(p):
        return (reference_cosine_model(p, delta) - y) * w

    return least_squares(
        residual,
        x0,
        jac=lambda p: reference_jacobian(p, delta, w),
        bounds=(lo, hi),
        method="trf",
        max_nfev=400 * x0.size,
    )


def bootstrapped_curves():
    stack = sample_frames(
        SpeckleRun(geometry=SourceGeometry((3, 1, 4)), frames=1000, seed=1,
                   delta_axis=uniform_grid(120))
    )
    return {m: estimate_g_m(stack, (nearest_magic_pixels(stack.delta_axis, m)[0],))[0]
            for m in (3, 4, 5, 6)}


@pytest.fixture(scope="module")
def curves():
    boot = bootstrapped_curves()
    axis = boot[3].delta1
    out = {f"bootstrapped m={m}": curve for m, curve in boot.items()}
    out["no sigma or replicas"] = replace(boot[4], sigma=None, replicas=None)
    out["analytic"] = magic_curve((1, 3), 3)
    out["flat"] = CorrelationCurve(m=3, delta1=axis, values=np.full(axis.size, 2.0))
    return out


def spectrum_fields(spectrum):
    return (
        spectrum.a0,
        spectrum.sigma_a0,
        spectrum.residual_rms,
        [(h.kappa, h.f, h.amplitude, h.sigma_a, h.sigma_f) for h in spectrum.harmonics],
    )


def test_fit_free_equals_the_recomputing_reference(curves, monkeypatch):
    lined = 0
    for label, curve in curves.items():
        shared = fit_free(curve)
        reference_solve_bounded.calls = 0
        with monkeypatch.context() as patch:
            patch.setattr(spectrum_module, "_solve_bounded", reference_solve_bounded)
            reference = fit_free(curve)
        assert spectrum_fields(shared) == spectrum_fields(reference), label
        if shared.harmonics:
            assert reference_solve_bounded.calls > 0, label
            lined += 1
    assert lined >= 5  # every curve but the flat one fits lines


def test_periodogram_on_the_shared_table_equals_the_per_call_table(curves, monkeypatch):
    grids = []
    build_table = spectrum_module._phase_table
    periodogram = spectrum_module._periodogram
    compared = []

    def record_table(delta, f_grid):
        grids.append((delta, f_grid))
        return build_table(delta, f_grid)

    def checked_periodogram(phases, resid, w):
        amps = periodogram(phases, resid, w)
        delta, f_grid = grids[-1]
        assert np.array_equal(amps, reference_periodogram(delta, resid, w, f_grid))
        compared.append(f_grid.size)
        return amps

    monkeypatch.setattr(spectrum_module, "_phase_table", record_table)
    monkeypatch.setattr(spectrum_module, "_periodogram", checked_periodogram)
    for curve in curves.values():
        calls = len(compared)
        fit_free(curve)
        assert len(compared) > calls
    assert len(grids) == len(curves)  # one table per fit
