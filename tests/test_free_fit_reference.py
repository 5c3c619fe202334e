"""The comb fit's leakage against a residual periodogram built here.

fit_fixed checks its model with the periodogram of the fit residual away
from the comb.  The reference below builds the frequency grid and the
phase table itself; both routes must give the same bits, not merely close
numbers.
"""

import math
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
from specklescope import spectrum as spectrum_module


def reference_peak(delta, resid, w, fundamental):
    """Largest weighted rectangular-window amplitude at least 1/2 off the comb."""
    pitch = float(np.median(np.diff(delta)))
    df = 2.0 * math.pi / (4 * float(delta[-1] - delta[0]))
    f_grid = np.arange(0.5, math.pi / pitch, df)
    f_grid = f_grid[np.abs(f_grid - fundamental * np.round(f_grid / fundamental)) >= 0.5]
    if f_grid.size == 0:
        return 0.0
    weights = w**2
    wsum = weights.sum()
    phases = np.exp(-1j * f_grid[:, None] * delta[None, :])
    return float(np.max(2.0 * np.abs(phases @ (weights * resid)) / wsum))


def bootstrapped_curves():
    frames = sample_frames(SourceGeometry((3, 1, 4)), 1000, 1, uniform_grid(120))
    pixel_sets = [nearest_magic_pixels(frames.delta_axis, m)[0] for m in (3, 4, 5, 6)]
    return {curve.m: curve for curve in estimate_g_m(frames, pixel_sets)}


@pytest.fixture(scope="module")
def curves():
    boot = bootstrapped_curves()
    axis = boot[3].delta1
    out = {f"bootstrapped m={m}": curve for m, curve in boot.items()}
    out["no sigma or replicas"] = replace(boot[4], sigma=None, replicas=None)
    out["analytic"] = magic_curve((1, 3), 3)
    out["flat"] = CorrelationCurve(m=3, delta1=axis, values=np.full(axis.size, 2.0))
    return out


def test_leakage_is_the_reference_off_comb_peak(curves, monkeypatch):
    peak = spectrum_module._off_comb_peak
    compared = []

    def checked_peak(delta, resid, fundamental):
        leakage = peak(delta, resid, fundamental)
        # the fit is unweighted: the reference's weights are all one
        assert leakage == reference_peak(delta, resid, np.ones_like(resid), fundamental)
        compared.append(leakage)
        return leakage

    monkeypatch.setattr(spectrum_module, "_off_comb_peak", checked_peak)
    for curve in curves.values():
        calls = len(compared)
        leakage = fit_fixed(curve, 16).leakage
        assert len(compared) == calls + 1  # one periodogram per fit
        assert leakage == compared[-1]
