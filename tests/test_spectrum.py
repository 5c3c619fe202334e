"""Spectral fitting, the significance gate, evidence merging."""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import evidence_table, magic_curve, noisy_curve, surviving_frequencies
from specklescope import (
    CorrelationCurve,
    EvidenceRow,
    EvidenceTable,
    FitError,
    GatePolicy,
    Harmonic,
    ModulationSpectrum,
    SourceGeometry,
    aggregate,
    estimate_g_m,
    fit_fixed,
    g_m_analytic,
    gate,
    nearest_magic_pixels,
    predicted_spectrum,
    sample_frames,
    uniform_grid,
)
from specklescope import spectrum as spectrum_module


def line_spectrum(*harmonics, m=3, a0=2.0):
    return ModulationSpectrum(m=m, a0=a0, harmonics=tuple(harmonics))


def line(f, amplitude=0.5, sigma_a=0.05, contrast=0.25, sigma_contrast=0.02):
    # a spectrum refuses a line off its order's comb
    return Harmonic(f=f, amplitude=amplitude, sigma_a=sigma_a, contrast=contrast,
                    sigma_contrast=sigma_contrast)


# ---------------------------------------------------------------------------
# comb-locked fitting
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("x,m", [((1, 3), 3), ((3, 1, 4), 3), ((3, 1, 4), 4), ((2, 1, 3), 5)])
def test_fixed_fit_recovers_exact_amplitudes(x, m):
    curve = magic_curve(x, m)
    span_bound = sum(x)
    fitted = fit_fixed(curve, span_bound=span_bound)
    surviving = surviving_frequencies(SourceGeometry(x), m)
    exact = dict(zip(surviving, predicted_spectrum((SourceGeometry(x),), m, surviving)[0]))
    # a uniform full-period scan averages every line out of the mean
    assert fitted.a0 == pytest.approx(float(np.mean(curve.values)), abs=1e-8)
    # the fit lists the whole comb up to the span bound
    comb = tuple(float(f) for f in range(m - 1, span_bound + 1, m - 1))
    assert fitted.frequencies == comb
    floor = spectrum_module._MIN_AMPLITUDE_FRACTION * max(1.0, fitted.a0)
    for got in fitted.harmonics:
        if int(got.f) not in exact:
            # a line the filter blocks is machine noise
            assert got.amplitude < floor
            continue
        contrast = exact[int(got.f)]
        assert got.amplitude == pytest.approx(contrast * fitted.a0, abs=1e-8)
        # at the magic placement every line is a pure cosine
        assert got.contrast == pytest.approx(contrast, abs=1e-8)
        assert got.quadrature == pytest.approx(0.0, abs=1e-8)
        # no replicas: the covariance errors are rounding-sized
        assert 0.0 <= got.sigma_contrast < 1e-12 and 0.0 <= got.sigma_a < 1e-12
    # the magic placement transmits nothing between the comb lines: every
    # other integer f up to the span bound is fitted and is machine noise
    off_comb = tuple(float(f) for f in range(1, span_bound + 1) if f % (m - 1))
    assert tuple(h.f for h in fitted.off_comb) == off_comb
    assert all(h.amplitude < floor for h in fitted.off_comb)
    # the gate, as analyze runs it on one order, keeps exactly the surviving lines
    kept = gate(fitted, GatePolicy(), len(comb))
    assert kept.frequencies == tuple(float(f) for f in surviving)


def test_sigmas_fold_no_off_comb_content_onto_the_comb():
    # off the magic offsets (122 pixels) the noiseless demo curve at order 4
    # holds the pair distances 1, 4, 5 and 8 off its comb and only f = 3 on it
    geometry = SourceGeometry((3, 1, 4))
    axis = uniform_grid(122)
    pixels = nearest_magic_pixels(axis, 4)[0]
    measured = estimate_g_m(sample_frames(geometry, 2000, 1, axis), [pixels])[0]
    exact = g_m_analytic(geometry, axis, [float(axis[p]) for p in pixels])
    assert np.ptp(measured.sigma) > 0.5 * np.max(measured.sigma)  # far from uniform
    fitted = fit_fixed(replace(exact, sigma=measured.sigma), span_bound=20)
    contrasts = {h.f: h.contrast for h in fitted.harmonics}
    for f in (6.0, 9.0, 12.0, 15.0, 18.0):
        assert abs(contrasts[f]) < 1e-12, (f, contrasts[f])
    assert contrasts[3.0] == pytest.approx(0.2961, abs=1e-4)
    # the sigmas enter no fit: the same bits as the fit of the bare curve
    assert fitted == fit_fixed(exact, span_bound=20)


def test_fixed_fit_needs_one_comb_period():
    axis = np.linspace(0, math.pi / 2, 40)
    curve = CorrelationCurve(m=3, delta1=axis, values=np.full(40, 2.0))
    with pytest.raises(FitError):
        fit_fixed(curve, 16)


def test_fixed_fit_needs_enough_samples():
    # span_bound 16 at m=3 asks for 17 parameters
    curve = magic_curve((1, 3), 3, samples=16)
    with pytest.raises(FitError):
        fit_fixed(curve, span_bound=16)
    with pytest.raises(ValueError):
        fit_fixed(magic_curve((1, 3), 3), span_bound=0)


def test_fixed_fit_needs_a_positive_offset():
    axis = np.linspace(0, 2 * math.pi, 64, endpoint=False)
    with pytest.raises(FitError, match="offset"):
        fit_fixed(CorrelationCurve(m=3, delta1=axis, values=np.zeros(64)), 16)


def test_replica_scatter_sets_amplitude_errors():
    # coherent amplitude wobble across replicas must show up in the sigmas
    axis = np.linspace(0, 2 * math.pi, 160, endpoint=False)
    base = 2.0 + np.cos(4.0 * axis)
    rng = np.random.default_rng(0)
    eps = rng.normal(0.0, 0.05, size=32)
    replicas = base[None, :] + eps[:, None] * np.cos(4.0 * axis)[None, :]
    curve = CorrelationCurve(
        m=3,
        delta1=axis,
        values=base,
        sigma=np.full(axis.size, 0.05),
        replicas=replicas,
    )
    fitted = fit_fixed(curve, span_bound=8)
    h = fitted.harmonics[fitted.frequencies.index(4.0)]
    assert h.amplitude == pytest.approx(1.0, abs=1e-12)
    wobble = float(np.std(eps, ddof=1))
    assert h.sigma_a == pytest.approx(wobble, rel=1e-9)
    assert h.sigma_contrast == pytest.approx(wobble / 2.0, rel=1e-9)
    assert fitted.sigma_a0 == pytest.approx(0.0, abs=1e-12)


def test_covariance_fallback_prices_white_noise():
    # without replicas the contrast error is the first-order propagation of
    # the fit covariance; on white noise it must match the scatter of fits
    contrasts, sigmas = [], []
    for seed in range(300):
        fitted = fit_fixed(noisy_curve((1, 3), 3, sigma=0.02, rows=0, seed=seed), span_bound=8)
        h = fitted.harmonics[fitted.frequencies.index(4.0)]
        contrasts.append(h.contrast)
        sigmas.append(h.sigma_contrast)
    assert float(np.mean(sigmas)) == pytest.approx(float(np.std(contrasts, ddof=1)), rel=0.1)


@pytest.mark.parametrize("m", [3, 4, 5, 6])
def test_noiseless_pipeline_finds_exactly_the_surviving_lines(m):
    gap_tuples = [
        x for n in (1, 2, 3) for x in itertools.product(range(1, 5), repeat=n)
    ]
    for x in gap_tuples:
        # as analyze gates one order: every comb line up to the span bound tested
        kept = gate(fit_fixed(magic_curve(x, m), 16), GatePolicy(), 16 // (m - 1))
        got = tuple(int(f) for f in kept.frequencies)
        want = surviving_frequencies(SourceGeometry(x), m)
        assert got == want, f"x={x} m={m}: gated {got}, expected {want}"


# ---------------------------------------------------------------------------
# the gate
# ---------------------------------------------------------------------------


def test_gate_snaps_significant_lines():
    # comb lines already sit on integers; a significant one passes untouched
    significant = line(4.0, contrast=0.30, sigma_contrast=0.02)
    kept = gate(line_spectrum(significant), GatePolicy(), 25)
    assert kept.frequencies == (4.0,)
    assert kept.harmonics[0] == significant


@pytest.mark.parametrize(
    "bad",
    [  # (line, lines tested)
        (line(4.0, contrast=0.05, sigma_contrast=0.02), 1),  # 2.5 sigma < z*(1) = 2.58
        (line(4.0, contrast=-0.05, sigma_contrast=0.02), 1),  # the same, negative
        (line(4.0, contrast=0.06, sigma_contrast=0.02), 25),  # 3 sigma < z*(25) = 3.54
        # all of the amplitude in the null channel b/A0, none in a/A0
        (Harmonic(f=4.0, amplitude=0.5, sigma_a=0.01, sigma_contrast=0.02,
                  quadrature=0.25, sigma_quadrature=0.02), 1),
    ],
)
def test_gate_rejects_weak_or_non_integer_lines(bad):
    harmonic, n_tests = bad
    assert gate(line_spectrum(harmonic), GatePolicy(), n_tests).harmonics == ()


def test_gate_threshold_moves_with_the_number_of_tests():
    policy = GatePolicy()
    assert policy.threshold(1) == pytest.approx(2.5758293035489, rel=1e-12)
    assert policy.threshold(25) == pytest.approx(3.5400837992061, rel=1e-12)
    assert GatePolicy(alpha=0.05).threshold(25) < policy.threshold(25)
    three_sigma = line_spectrum(line(4.0, contrast=0.06, sigma_contrast=0.02))
    assert gate(three_sigma, policy, 1).frequencies == (4.0,)
    assert gate(three_sigma, policy, 25).frequencies == ()


def test_gate_is_two_sided():
    negative = line(4.0, contrast=-0.30, sigma_contrast=0.02)
    assert gate(line_spectrum(negative), GatePolicy(), 25).harmonics == (negative,)


def test_gate_policy_validation():
    gate(line_spectrum(line(4.0)), GatePolicy(alpha=0.2), 1)
    for alpha in (0.0, 1.0, -0.1, math.nan, 1e-301):
        with pytest.raises(ValueError):
            GatePolicy(alpha=alpha)


# ---------------------------------------------------------------------------
# evidence across orders
# ---------------------------------------------------------------------------


def gated_lines(m, fs):
    return line_spectrum(*(line(float(f)) for f in sorted(fs)), m=m)


def test_aggregate_merges_three_state_evidence():
    table = aggregate(
        [
            gated_lines(3, [4, 8]),
            gated_lines(4, [3]),
            gated_lines(5, [4, 8]),
            gated_lines(6, [5]),
        ]
    )
    assert table.span_hint == 8
    assert table.present() == (3, 4, 5, 8)
    assert table.absent() == (2, 6)
    assert table.status_of(1) == "unknown"
    assert table.status_of(7) == "unknown"
    assert table.status_of(9) == "unknown"  # beyond the hint
    assert table.conflicts() == ()
    assert table.orders_measured == (3, 4, 5, 6)


def test_aggregate_flags_conflicts_without_demoting():
    table = aggregate([gated_lines(3, [4]), gated_lines(5, [])])
    row = table.rows[4]
    assert row.status == "present"
    assert row.conflict
    assert row.present_orders == (3,)
    assert row.absent_orders == (5,)
    assert table.conflicts() == (4,)


def test_aggregate_ignores_lines_the_filter_blocks():
    # an order-4 curve cannot transmit f=4: no order-4 spectrum carries such
    # a line, and its silence there is no absence
    with pytest.raises(ValueError, match="comb"):
        gated_lines(4, [3, 4])
    table = aggregate([gated_lines(4, [3, 6])])
    assert table.present() == (3, 6)
    assert table.absent() == ()
    assert table.status_of(4) == "unknown"


def test_aggregate_input_checks():
    with pytest.raises(ValueError):
        aggregate([gated_lines(3, [4]), gated_lines(3, [2])])


def test_aggregate_names_every_order_that_sees_a_line():
    strong = line_spectrum(line(4.0, amplitude=0.9, sigma_a=0.01), m=5)
    weak = line_spectrum(line(4.0, amplitude=0.5, sigma_a=0.20), m=3)
    table = aggregate([weak, strong])
    # the row names both sightings and copies neither line; their strengths stay in the spectra
    assert table.rows[4] == EvidenceRow(4, "present", present_orders=(3, 5))


def test_evidence_table_sorts_its_sets():
    rows = (EvidenceRow(8, "present", present_orders=(3,)), EvidenceRow(6, "absent"),
            EvidenceRow(3, "present", present_orders=(4,)), EvidenceRow(2, "absent"))
    table = EvidenceTable(span_hint=8, rows={r.f: r for r in rows})
    assert table.present() == (3, 8)
    assert table.absent() == (2, 6)
    assert table.span_hint == 8
    assert table.rows[3].present_orders == (4,)
    bare = EvidenceTable(span_hint=10, rows={3: EvidenceRow(3, "present")})
    assert bare.span_hint == 10
    assert bare.rows[3].present_orders == ()


def test_evidence_containers_validate():
    with pytest.raises(ValueError):
        EvidenceRow(f=0, status="present")
    with pytest.raises(ValueError):
        EvidenceRow(f=3, status="maybe")
    with pytest.raises(ValueError):
        EvidenceTable(span_hint=2, rows={1: EvidenceRow(f=2, status="absent")})
    with pytest.raises(ValueError):
        EvidenceTable(span_hint=-1, rows={})
    table = evidence_table((3,))
    with pytest.raises(ValueError):
        table.status_of(0)


# ---------------------------------------------------------------------------
# container validation
# ---------------------------------------------------------------------------


def test_harmonic_validation():
    with pytest.raises(ValueError):
        Harmonic(f=-2.0, amplitude=0.5)
    with pytest.raises(ValueError):
        Harmonic(f=0.0, amplitude=0.5)
    with pytest.raises(ValueError):
        Harmonic(f=2.0, amplitude=-0.5)


def test_spectrum_lines_sit_on_the_comb():
    for f in (3.0, 3.3, 2.0**64):  # off the order-3 comb, or on it past int64
        with pytest.raises(ValueError, match="comb"):
            ModulationSpectrum(m=3, a0=2.0, harmonics=(Harmonic(f=f, amplitude=0.5),))
    assert line_spectrum(line(2.0), line(4.0)).frequencies == (2.0, 4.0)
