"""Analytic correlation engine: permanents, filtering, exact spectra."""

import itertools
import math
import random

import numpy as np
import pytest

from conftest import magic_curve, surviving_frequencies
from specklescope import (
    CorrelationCurve,
    GeometryError,
    Harmonic,
    MatrixSizeError,
    ModulationSpectrum,
    OrderError,
    SourceGeometry,
    correlation,
    g_m_analytic,
    magic_positions,
    phase_prefactors,
    predicted_spectrum,
    regular_array_reference,
)
from specklescope.correlation import _ryser_batch


def _weight_vector(geometry, weights):
    n = geometry.n_sources
    if weights is None:
        return np.ones(n)
    w = np.asarray(weights, dtype=float)
    if w.shape != (n,):
        raise ValueError(f"need {n} source weights, got shape {w.shape}")
    if not np.all(np.isfinite(w)) or np.any(w <= 0):
        raise ValueError("source weights must be finite and positive")
    return w


def coherence_matrix(geometry, deltas, weights=None):
    """Mutual coherence matrix J for detectors at the given offsets.

    J[j, k] = sum_l w_l exp(i alpha_l (delta_k - delta_j)); Hermitian with
    a constant diagonal sum(w), positive semidefinite by construction.
    """
    deltas = np.asarray(deltas, dtype=float)
    if deltas.ndim != 1 or deltas.size < 1:
        raise ValueError("deltas must be a non-empty 1-D sequence")
    w = _weight_vector(geometry, weights)
    alpha = np.asarray(phase_prefactors(geometry), dtype=float)
    diff = deltas[None, :] - deltas[:, None]
    phases = np.exp(1j * alpha[:, None, None] * diff[None, :, :])
    return np.einsum("l,ljk->jk", w, phases)


def roots_of_unity_sum(lam, m):
    """sum_{j=2}^{m} exp(i * lam * delta_j) over the magic offsets.

    Equals m-1 when (m-1) divides lam and 0 otherwise; computed directly
    so tests can check that identity rather than assume it.
    """
    if m < 2:
        raise OrderError(f"correlation order must be at least 2, got {m}")
    deltas = np.asarray(magic_positions(m))
    return complex(np.sum(np.exp(1j * lam * deltas)))


def permutation_permanent(a):
    """Sum over permutations, straight from the definition.  Exponential."""
    n = a.shape[0]
    total = 0j
    for perm in itertools.permutations(range(n)):
        term = 1.0 + 0j
        for i, j in enumerate(perm):
            term *= a[i, j]
        total += term
    return total


# ---------------------------------------------------------------------------
# magic positions and filtering
# ---------------------------------------------------------------------------


def test_magic_positions_tile_the_period():
    for m in range(2, 9):
        pos = magic_positions(m)
        assert len(pos) == m - 1
        assert pos[0] == 0.0
        assert np.allclose(np.diff(pos), 2.0 * math.pi / (m - 1))
    assert magic_positions(2) == (0.0,)
    with pytest.raises(OrderError):
        magic_positions(1)


def test_roots_of_unity_sum_closed_form():
    # m-1 whenever (m-1) divides the frequency, zero otherwise
    for m in range(2, 9):
        for lam in range(0, 4 * (m - 1) + 1):
            expected = m - 1 if lam % (m - 1) == 0 else 0.0
            assert abs(roots_of_unity_sum(lam, m) - expected) < 1e-10, (lam, m)


def test_surviving_frequencies_examples():
    g = SourceGeometry((3, 1, 4))  # distances {1, 3, 4, 5, 8}
    expected = {3: (4, 8), 4: (3,), 5: (4, 8), 6: (5,)}
    for m, want in expected.items():
        assert surviving_frequencies(g, m) == want
        # the program's own rule: predicted lines are nonzero exactly there
        contrasts = predicted_spectrum((g,), m, range(1, 9))[0]
        assert tuple(f for f, c in zip(range(1, 9), contrasts) if c != 0.0) == want
    assert surviving_frequencies(SourceGeometry((1, 3)), 6) == ()
    with pytest.raises(OrderError):
        predicted_spectrum((g,), 2, [1])


# ---------------------------------------------------------------------------
# permanents
# ---------------------------------------------------------------------------


def test_permanent_small_cases():
    assert _ryser_batch(np.array([[[7.0]]]))[0] == pytest.approx(7.0)
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert _ryser_batch(a[None])[0] == pytest.approx(1 * 4 + 2 * 3)
    assert _ryser_batch(np.eye(5)[None])[0] == pytest.approx(1.0)
    assert _ryser_batch(np.ones((1, 5, 5)))[0] == pytest.approx(math.factorial(5))


def test_permanent_matches_permutation_sum():
    rng = np.random.default_rng(11)
    for n in range(1, 7):
        for _ in range(5):
            a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            ref = permutation_permanent(a)
            assert abs(_ryser_batch(a[None])[0] - ref) <= 1e-12 * max(1.0, abs(ref))


# ---------------------------------------------------------------------------
# coherence matrices
# ---------------------------------------------------------------------------


def test_coherence_matrix_structure():
    g = SourceGeometry((3, 1, 4))
    j = coherence_matrix(g, np.array([0.1, 1.3, 2.9, 4.0]))
    assert np.allclose(j, j.conj().T)
    assert np.allclose(np.diag(j), g.n_sources)
    assert np.linalg.eigvalsh(j).min() > -1e-9


def test_coherence_matrix_weight_checks():
    g = SourceGeometry((2,))
    j = coherence_matrix(g, np.array([0.0]), weights=(1.0, 3.0))
    assert j[0, 0] == pytest.approx(4.0)
    with pytest.raises(ValueError):
        coherence_matrix(g, np.array([0.0]), weights=(1.0,))
    with pytest.raises(ValueError):
        coherence_matrix(g, np.array([0.0]), weights=(1.0, -1.0))


# ---------------------------------------------------------------------------
# analytic curves
# ---------------------------------------------------------------------------


def test_two_source_second_order_closed_form():
    # one fixed detector at zero, equal weights:
    # g2(d) = 1 + |1 + exp(i x d)|^2 / 4 = 1.5 + 0.5 cos(x d)
    x = 3
    scan = np.linspace(0, 2 * math.pi, 97, endpoint=False)
    curve = g_m_analytic(SourceGeometry((x,)), scan, (0.0,))
    np.testing.assert_allclose(curve.values, 1.5 + 0.5 * np.cos(x * scan), atol=1e-12)


def test_curve_matches_single_point_permanent_ratio():
    curve = magic_curve((1, 3), 4, samples=32)
    g = SourceGeometry((1, 3))
    for idx in (0, 7, 19):
        deltas = np.array([curve.delta1[idx], *magic_positions(4)])
        j = coherence_matrix(g, deltas)
        ref = _ryser_batch(j[None])[0].real / np.prod(np.diag(j)).real
        assert curve.values[idx] == pytest.approx(ref, abs=1e-10)


def test_coincident_fixed_detectors_duplicate_matrix_rows():
    g = SourceGeometry((2, 1))
    c = 1.1
    scan = np.array([0.0, 0.4, 2.2])
    curve = g_m_analytic(g, scan, (c, c))
    for i, d1 in enumerate(scan):
        j = coherence_matrix(g, np.array([d1, c, c]))
        np.testing.assert_allclose(j[1], j[2])
        ref = _ryser_batch(j[None])[0].real / np.prod(np.diag(j)).real
        assert curve.values[i] == pytest.approx(ref, abs=1e-10)


def test_curves_are_non_negative():
    for x in [(1,), (2, 2), (3, 1, 4)]:
        for m in (2, 3, 5):
            curve = magic_curve(x, m, samples=64)
            assert np.all(curve.values >= 0.0)


def test_analytic_order_cap():
    with pytest.raises(MatrixSizeError):
        g_m_analytic(SourceGeometry((1,)), np.array([0.0]), (0.0,) * 12)


# ---------------------------------------------------------------------------
# exact spectra
# ---------------------------------------------------------------------------


# every integer frequency up to past the largest span below
FREQS = tuple(range(1, 20))


def rfft_contrasts(geometry, m, freqs):
    """A_f/A0 read off the DFT of the analytic curve, on a grid of its own."""
    curve = magic_curve(geometry.x, m, samples=8 * (geometry.span + 1))
    coeff = np.fft.rfft(curve.values)
    return np.array([2.0 * abs(coeff[f]) / coeff[0].real for f in freqs])


@pytest.mark.parametrize("x", [(1, 3), (3, 1, 4), (2, 1, 3)])
@pytest.mark.parametrize("m", [3, 4, 5])
def test_reflection_leaves_the_spectrum_unchanged(x, m):
    a = predicted_spectrum((SourceGeometry(x),), m, FREQS)
    b = predicted_spectrum((SourceGeometry(x[::-1]),), m, FREQS)
    np.testing.assert_array_equal(a != 0.0, b != 0.0)
    np.testing.assert_allclose(a, b, rtol=0, atol=1e-10)


# deep reconstructions rank arrays of up to 6 sources and span 18: a fixed
# sample of them, drawn once, plus the widest and the densest
# (a gap sequence is the steps between the sites 0 < p_1 < ... < p_k <= 18)
DEEP_SAMPLE = random.Random(18).sample(
    [tuple(b - a for a, b in zip((0, *sites), sites))
     for k in range(1, 6) for sites in itertools.combinations(range(1, 19), k)],
    40,
) + [(18,), (1, 1, 1, 1, 14), (3, 3, 3, 3, 6), (1, 1, 1, 1, 1)]


def test_table_rows_match_the_dft_of_each_curve():
    # mixed spans and source counts in one batch, each row against the
    # geometry's own analytic curve
    batch = [SourceGeometry(x) for x in [(1, 3), (3, 1, 4), (2, 2, 7, 1), (1, 3, 5),
                                         (1, 1, 1, 1, 1), (4,), (2, 5, 1, 3, 2), *DEEP_SAMPLE]]
    for m in (3, 4, 5, 6):
        table = predicted_spectrum(batch, m, FREQS)
        assert table.shape == (len(batch), len(FREQS))
        for geometry, row in zip(batch, table):
            np.testing.assert_allclose(row, rfft_contrasts(geometry, m, FREQS), rtol=0, atol=1e-12)


@pytest.mark.parametrize("m", [3, 4, 5, 6])
def test_prediction_does_not_depend_on_its_batch(m, monkeypatch):
    # every 5-source array of span 12 (walks of a quarter million phase
    # terms would hold them all, so the walks are cut smaller) shuffled
    # among arrays of 1 to 6 sources and other spans
    monkeypatch.setattr(correlation, "_CHUNK_ELEMENTS", 1 << 14)
    fives = [SourceGeometry(x) for x in itertools.product(range(1, 10), repeat=4) if sum(x) == 12]
    others = [SourceGeometry(x) for x in [(), (4,), (1, 3), (3, 1, 4), (1, 3, 5), (2, 2, 7, 1),
                                          (1, 1, 1, 1, 1), (2, 5, 1, 3, 2), (1, 3, 8, 1)]]
    batch = fives + others
    random.Random(m).shuffle(batch)
    samples = correlation._scan_samples(12, m)
    assert len(fives) * 5 * samples * m * m > 4 * correlation._CHUNK_ELEMENTS
    together = predicted_spectrum(batch, m, FREQS)
    assert together.shape == (len(batch), len(FREQS))
    for geometry, row in zip(batch, together):
        assert np.array_equal(row, predicted_spectrum((geometry,), m, FREQS)[0]), geometry.x


def test_spectrum_keeps_only_surviving_lines():
    row = predicted_spectrum((SourceGeometry((3, 1, 4)),), 3, FREQS)[0]
    lines = {f: c for f, c in zip(FREQS, row) if c != 0.0}
    assert sorted(lines) == [4, 8]
    assert all(c > 1e-6 for c in lines.values())
    # the columns follow the requested frequencies, repeats included
    np.testing.assert_array_equal(
        predicted_spectrum((SourceGeometry((3, 1, 4)),), 3, [8, 3, 8])[0],
        [lines[8], 0.0, lines[8]],
    )
    assert predicted_spectrum((SourceGeometry((3, 1, 4)),), 3, []).shape == (1, 0)


def test_every_transmitted_line_has_a_positive_signed_contrast():
    # predicted_spectrum reports |A_f|/A0; the sign of the cosine itself
    # decides whether a negative measured a/A0 can be a real line.  Every
    # gap sequence of 2 to 6 sources with span <= 10, at equal weights: the
    # signed contrast 2 Re(c_f)/c_0 of the analytic curve's DFT is positive
    # at each pair distance the order transmits
    gaps = [tuple(b - a for a, b in zip((0, *sites), sites))
            for span in range(1, 11) for k in range(1, 6)
            for sites in itertools.combinations(range(1, span + 1), k) if sites[-1] == span]
    contrasts = []
    for x in gaps:
        for m in (3, 4, 5, 6):
            coeff = np.fft.rfft(magic_curve(x, m).values)
            contrasts += [2.0 * coeff[f].real / coeff[0].real
                          for f in surviving_frequencies(SourceGeometry(x), m)]
    assert len(gaps) == 637 and len(contrasts) == 5048
    assert min(contrasts) > 0.04  # the smallest is 0.05


def test_single_source_spectrum_is_flat():
    assert not predicted_spectrum((SourceGeometry(()),), 4, FREQS).any()
    curve = magic_curve((), 4, samples=16)
    np.testing.assert_allclose(curve.values, math.factorial(4), rtol=1e-9)


def test_prediction_refuses_order_2():
    with pytest.raises(OrderError):
        predicted_spectrum((SourceGeometry((1, 2)),), 2, FREQS)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("m", [2, 3, 4])
def test_regular_array_amplitudes_fall_linearly(n, m):
    # equally spaced sources, every fixed detector at zero:
    # A_l / A_1 = (n - l) / (n - 1)
    amplitudes = regular_array_reference(n, m)
    assert amplitudes.shape == (n - 1,)
    for l, amplitude in enumerate(amplitudes, start=1):
        assert amplitude / amplitudes[0] == pytest.approx((n - l) / (n - 1), rel=1e-8)


def test_reference_array_input_checks():
    with pytest.raises(GeometryError):
        regular_array_reference(1, 3)
    with pytest.raises(OrderError):
        regular_array_reference(3, 1)


# ---------------------------------------------------------------------------
# container validation
# ---------------------------------------------------------------------------


def test_curve_validation():
    d = np.linspace(0, 1, 10)
    with pytest.raises(ValueError):
        CorrelationCurve(m=3, delta1=d, values=np.full(10, -1.0))
    with pytest.raises(ValueError):
        CorrelationCurve(m=3, delta1=d, values=np.ones(9))
    with pytest.raises(OrderError):
        CorrelationCurve(m=1, delta1=d, values=np.ones(10))
    with pytest.raises(ValueError, match="at least one scan sample"):
        CorrelationCurve(m=3, delta1=np.array([]), values=np.array([]))
    # offsets repeated, reversed or shuffled: the fit needs a strictly increasing scan
    for scan in (np.repeat(d[:5], 2), d[::-1], d[[0, 2, 1, *range(3, 10)]]):
        with pytest.raises(ValueError, match="strictly increasing"):
            CorrelationCurve(m=3, delta1=scan, values=np.ones(10))
    curve = CorrelationCurve(m=3, delta1=d, values=np.ones(10))
    assert len(curve) == 10
    assert not curve.values.flags.writeable


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_spectra_refuse_non_finite_fields(bad):
    with pytest.raises(ValueError):
        Harmonic(f=2.0, amplitude=bad)
    with pytest.raises(ValueError):
        Harmonic(f=2.0, amplitude=1.0, sigma_a=bad)
    for field in ("a0", "sigma_a0"):
        with pytest.raises(ValueError):
            ModulationSpectrum(m=3, **{"a0": 1.0, field: bad}, harmonics=())


def test_off_comb_lines_sit_off_the_comb():
    # order 4 transmits multiples of 3; a line there is a comb line, not an off-comb one
    with pytest.raises(ValueError, match="sits on the order-4 comb"):
        ModulationSpectrum(m=4, a0=1.0, harmonics=(), off_comb=(Harmonic(f=6.0, amplitude=0.1),))
    lines = (Harmonic(f=1.0, amplitude=0.1), Harmonic(f=4.5, amplitude=0.1))
    assert ModulationSpectrum(m=4, a0=1.0, harmonics=(), off_comb=list(lines)).off_comb == lines


def test_curve_replica_shape_checks():
    d = np.linspace(0, 1, 10)
    with pytest.raises(ValueError):
        CorrelationCurve(m=3, delta1=d, values=np.ones(10), replicas=np.ones((8, 9)))
    # fewer than 8 rows give no spread to take as an error
    with pytest.raises(ValueError, match="at least 8 rows"):
        CorrelationCurve(m=3, delta1=d, values=np.ones(10), replicas=np.ones((7, 10)))
    curve = CorrelationCurve(m=3, delta1=d, values=np.ones(10), replicas=np.ones((8, 10)))
    assert curve.replicas.shape == (8, 10)
    assert not curve.replicas.flags.writeable


def test_analytic_curve_validation():
    g = SourceGeometry((1, 3))
    for scan in (np.array([1.0, 0.5]), np.array([0.0, np.nan]), np.zeros((2, 2)), np.array([])):
        with pytest.raises(ValueError):
            g_m_analytic(g, scan, (0.0, 1.0))
    with pytest.raises(OrderError):
        magic_curve((1, 3), 1, samples=16)
    with pytest.raises(OrderError):
        g_m_analytic(g, np.array([0.0, 1.0]), ())
    # the order is one more than the fixed detectors
    curve = magic_curve((1, 3), 4, samples=16)
    assert curve.m == 4 and len(curve) == 16
