"""The comb fit's residual periodogram against one that builds its own table.

fit_fixed checks its model with the periodogram of the fit residual away
from the comb, on a phase table it builds once per fit.  The reference
below builds the table inside every periodogram call; both routes must
give the same bits, not merely close numbers.
"""

from dataclasses import replace

import numpy as np
import pytest

from conftest import magic_curve
from specklescope import (
    CorrelationCurve,
    SourceGeometry,
    SpeckleRun,
    estimate_g_m,
    fit_fixed,
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


def bootstrapped_curves():
    run = SpeckleRun(geometry=SourceGeometry((3, 1, 4)), frames=1000, seed=1,
                     delta_axis=uniform_grid(120))
    pixel_sets = [nearest_magic_pixels(run.delta_axis, m)[0] for m in (3, 4, 5, 6)]
    return {curve.m: curve for curve in estimate_g_m(sample_frames(run), pixel_sets)}


@pytest.fixture(scope="module")
def curves():
    boot = bootstrapped_curves()
    axis = boot[3].delta1
    out = {f"bootstrapped m={m}": curve for m, curve in boot.items()}
    out["no sigma or replicas"] = replace(boot[4], sigma=None, replicas=None)
    out["analytic"] = magic_curve((1, 3), 3)
    out["flat"] = CorrelationCurve(m=3, delta1=axis, values=np.full(axis.size, 2.0))
    return out


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
        fit_fixed(curve)
        assert len(compared) > calls
    assert len(grids) == len(curves)  # one table per fit
