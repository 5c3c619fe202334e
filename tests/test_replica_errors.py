"""Errors of the comb fit from the bootstrap replica curves.

fit_fixed solves every replica curve through the same design as the
curve itself, in one lstsq call.  The design is unweighted: on a uniform
full-period grid the fit is the DFT, while 1/sigma weights would fold
content off the comb onto comb lines, and the replicas price each line
either way.  For a linear model that projection is the exact refit of
each replica, so it must agree with separate fits to rounding, and the
reported sigmas must be the spread of those fits.
"""

import numpy as np
import pytest

from conftest import noisy_curve
from specklescope import CorrelationCurve, fit_fixed
from specklescope import spectrum as spectrum_module


def test_projected_replicas_equal_separate_fits():
    curve = noisy_curve((3, 1, 4), 4, sigma=0.02, rows=40)
    freqs = [3, 6, 9, 12]
    columns = np.column_stack([curve.values, curve.replicas.T])
    projected, _ = spectrum_module._linear_fit(curve.delta1, columns, freqs)
    separate = np.column_stack([
        spectrum_module._linear_fit(curve.delta1, column[:, None], freqs)[0][:, 0]
        for column in columns.T
    ])
    # relative to the coefficient scale: null lines sit near zero
    assert np.max(np.abs(projected - separate)) <= 1e-12 * np.max(np.abs(separate))
    # and the reported errors are the spread of those separate fits
    fitted = fit_fixed(curve, span_bound=12)
    rows = separate[:, 1:]
    by_f = {h.f: h for h in fitted.harmonics}
    for i, f in enumerate(freqs):
        a, b, a0 = rows[1 + 2 * i], rows[2 + 2 * i], rows[0]
        h = by_f[float(f)]
        assert h.sigma_contrast == pytest.approx(np.std(a / a0, ddof=1), rel=1e-12)
        assert h.sigma_quadrature == pytest.approx(np.std(b / a0, ddof=1), rel=1e-12)
        assert h.sigma_a == pytest.approx(np.std(np.hypot(a, b), ddof=1), rel=1e-12)
    assert fitted.sigma_a0 == pytest.approx(np.std(rows[0], ddof=1), rel=1e-12)


@pytest.mark.parametrize("rows", [7, 8])
def test_too_few_replicas_give_no_spread(rows):
    # under 8 rows the spread is no error estimate, so a curve refuses them;
    # from 8 rows on the replicas, not the covariance, price the fit
    if rows < 8:
        with pytest.raises(ValueError, match="at least 8 rows"):
            noisy_curve((1, 3), 3, sigma=0.02, rows=rows)
        return
    curve = noisy_curve((1, 3), 3, sigma=0.02, rows=rows)
    without = CorrelationCurve(m=3, delta1=curve.delta1, values=curve.values)
    assert fit_fixed(curve, 16) != fit_fixed(without, 16)
