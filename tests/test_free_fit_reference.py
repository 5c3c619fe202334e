"""One Fourier convention: the comb fit against a DFT built here.

fit_fixed solves for the offset and a cosine/sine pair at every integer
frequency up to the span bound.  On the uniform full-period grid the CLI
scans, those columns are orthogonal and the solve is the DFT, whose
coefficients predicted_spectrum gives in closed form.  The reference
below is a plain rfft of the curve and of each replica: A0 is bin 0, and
line f is a = 2 Re X_f / n, b = -2 Im X_f / n, on the comb and off it.
"""

from dataclasses import replace

import numpy as np
import pytest

from conftest import magic_curve
from specklescope import (
    CorrelationCurve,
    SourceGeometry,
    estimate_g_m,
    fit_fixed,
    nearest_magic_pixels,
    sample_frames,
    uniform_grid,
)

SPAN_BOUND = 16


def reference_lines(values):
    """A0 and the a and b of every f in 1..SPAN_BOUND, along the last axis of values."""
    coeff = np.fft.rfft(values, axis=-1) / values.shape[-1]
    lines = coeff[..., 1:SPAN_BOUND + 1]
    return coeff[..., 0].real, 2.0 * lines.real, -2.0 * lines.imag


def sorted_lines(fitted):
    return sorted(fitted.harmonics + fitted.off_comb, key=lambda h: h.f)


def bootstrapped_curves():
    frames = sample_frames(SourceGeometry((3, 1, 4)), 1000, 1, uniform_grid(120))
    pixel_sets = [nearest_magic_pixels(frames.delta_axis, m)[0] for m in (3, 4, 5, 6)]
    return {curve.m: curve for curve in estimate_g_m(frames, pixel_sets)}


@pytest.fixture(scope="module")
def curves():
    boot = bootstrapped_curves()
    axis = boot[3].delta1
    out = {f"bootstrapped m={m}": curve for m, curve in boot.items()}
    out["no replicas"] = replace(boot[4], replicas=None)
    out["analytic"] = magic_curve((1, 3), 3)
    out["flat"] = CorrelationCurve(m=3, delta1=axis, values=np.full(axis.size, 2.0))
    return out


def test_the_fit_is_the_dft_on_and_off_the_comb(curves):
    for name, curve in curves.items():
        fitted = fit_fixed(curve, SPAN_BOUND)
        a0, a, b = reference_lines(curve.values)
        tol = 1e-12 * max(1.0, a0)
        assert abs(fitted.a0 - a0) <= tol, name
        # every integer f up to the bound is a line, on the comb or off it
        lines = sorted_lines(fitted)
        assert [h.f for h in lines] == [float(f) for f in range(1, SPAN_BOUND + 1)], name
        assert all(h.f % (curve.m - 1) == 0 for h in fitted.harmonics), name
        assert all(h.f % (curve.m - 1) for h in fitted.off_comb), name
        assert np.max(np.abs([h.contrast * fitted.a0 for h in lines] - a)) <= tol, name
        assert np.max(np.abs([h.quadrature * fitted.a0 for h in lines] - b)) <= tol, name


@pytest.mark.parametrize("m", [3, 4, 5, 6])
def test_replica_sigmas_are_the_spread_of_the_replica_dfts(curves, m):
    # the replicas go through the same solve, so each line's sigma is the
    # spread of its DFT contrast over the replicas
    curve = curves[f"bootstrapped m={m}"]
    fitted = fit_fixed(curve, SPAN_BOUND)
    a0, a, b = reference_lines(curve.replicas)
    lines = sorted_lines(fitted)
    want_c = np.std(a / a0[:, None], axis=0, ddof=1)
    want_q = np.std(b / a0[:, None], axis=0, ddof=1)
    np.testing.assert_allclose([h.sigma_contrast for h in lines], want_c, rtol=1e-9)
    np.testing.assert_allclose([h.sigma_quadrature for h in lines], want_q, rtol=1e-9)
    assert fitted.sigma_a0 == pytest.approx(float(np.std(a0, ddof=1)), rel=1e-9)
