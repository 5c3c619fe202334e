"""Spectral fitting, the significance gate, evidence merging, calibration."""

import itertools
import math

import numpy as np
import pytest

from conftest import magic_curve
from specklescope import (
    CorrelationCurve,
    EvidenceRow,
    EvidenceTable,
    FitError,
    GatePolicy,
    Harmonic,
    ModulationSpectrum,
    PhysicalScene,
    SourceGeometry,
    aggregate,
    calibrate_d,
    fit_fixed,
    fit_free,
    gate,
    predicted_spectrum,
    surviving_frequencies,
)


def free_spectrum(*harmonics, m=3, a0=2.0):
    return ModulationSpectrum(m=m, a0=a0, harmonics=tuple(harmonics), kind="free")


def line(f, amplitude=0.5, sigma_a=0.05, sigma_f=0.02, kappa=1):
    return Harmonic(kappa=kappa, f=f, amplitude=amplitude, sigma_a=sigma_a, sigma_f=sigma_f)


# ---------------------------------------------------------------------------
# comb-locked fitting
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("x,m", [((1, 3), 3), ((3, 1, 4), 3), ((3, 1, 4), 4), ((2, 1, 3), 5)])
def test_fixed_fit_recovers_exact_amplitudes(x, m):
    span = sum(x)
    fitted = fit_fixed(magic_curve(x, m), span_bound=span)
    exact = predicted_spectrum((SourceGeometry(x),), m)[0]
    assert fitted.kind == "fixed"
    assert fitted.a0 == pytest.approx(exact.a0, abs=1e-8)
    assert fitted.frequencies == exact.frequencies
    for got, want in zip(fitted.harmonics, exact.harmonics):
        assert got.amplitude == pytest.approx(want.amplitude, abs=1e-8)
    assert fitted.residual_rms < 1e-8


def test_fixed_fit_needs_one_comb_period():
    axis = np.linspace(0, math.pi / 2, 40)
    curve = CorrelationCurve(m=3, delta1=axis, values=np.full(40, 2.0))
    with pytest.raises(FitError):
        fit_fixed(curve)


def test_fixed_fit_needs_enough_samples():
    # span_bound 16 at m=3 asks for 17 parameters
    curve = magic_curve((1, 3), 3, samples=16)
    with pytest.raises(FitError):
        fit_fixed(curve, span_bound=16)
    with pytest.raises(ValueError):
        fit_fixed(magic_curve((1, 3), 3), span_bound=0)


# ---------------------------------------------------------------------------
# free-frequency fitting
# ---------------------------------------------------------------------------


def test_free_fit_of_flat_curve_is_offset_only():
    fitted = fit_free(magic_curve((), 4))
    assert fitted.harmonics == ()
    assert fitted.a0 == pytest.approx(math.factorial(4), abs=1e-6)


def test_free_fit_recovers_single_line():
    fitted = fit_free(magic_curve((4,), 3))
    exact = predicted_spectrum((SourceGeometry((4,)),), 3)[0]
    assert len(fitted.harmonics) == 1
    h = fitted.harmonics[0]
    assert h.f == pytest.approx(4.0, abs=1e-6)
    assert h.amplitude == pytest.approx(exact.amplitude_at(4.0), rel=1e-6)


def test_free_fit_needs_enough_points():
    axis = np.linspace(0, 2 * math.pi, 7)
    curve = CorrelationCurve(m=3, delta1=axis, values=np.full(7, 2.0))
    with pytest.raises(FitError):
        fit_free(curve)


def test_replica_scatter_sets_amplitude_errors():
    # coherent amplitude wobble across replicas must show up in sigma_a
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
    fitted = fit_free(curve)
    h = fitted.harmonics[0]
    assert h.f == pytest.approx(4.0, abs=0.01)
    assert h.amplitude == pytest.approx(1.0, abs=0.02)
    wobble = float(np.std(eps, ddof=1))
    assert 0.3 * wobble < h.sigma_a < 3.0 * wobble


@pytest.mark.parametrize("m", [3, 4, 5, 6])
def test_noiseless_pipeline_finds_exactly_the_surviving_lines(m):
    gap_tuples = [
        x for n in (1, 2, 3) for x in itertools.product(range(1, 5), repeat=n)
    ]
    for x in gap_tuples:
        kept = gate(fit_free(magic_curve(x, m)))
        got = tuple(int(f) for f in kept.frequencies)
        want = surviving_frequencies(SourceGeometry(x), m)
        assert got == want, f"x={x} m={m}: gated {got}, expected {want}"


# ---------------------------------------------------------------------------
# the gate
# ---------------------------------------------------------------------------


def test_gate_snaps_significant_lines():
    kept = gate(free_spectrum(line(3.02, amplitude=0.51, sigma_a=0.19, sigma_f=0.04)))
    assert kept.frequencies == (3.0,)
    assert kept.harmonics[0].amplitude == pytest.approx(0.51)


@pytest.mark.parametrize(
    "bad",
    [
        line(3.90, sigma_f=0.31),  # frequency too uncertain
        line(3.30, sigma_f=0.02),  # not near an integer
        line(3.02, amplitude=0.30, sigma_a=0.19),  # below 2.5 sigma
        line(0.40, sigma_f=0.01),  # rounds to zero
    ],
)
def test_gate_rejects_weak_or_non_integer_lines(bad):
    assert gate(free_spectrum(bad)).harmonics == ()


def test_gate_keeps_strongest_per_integer():
    kept = gate(
        free_spectrum(
            line(3.95, amplitude=0.40, kappa=1),
            line(4.05, amplitude=0.60, kappa=2),
        )
    )
    assert kept.frequencies == (4.0,)
    assert kept.harmonics[0].amplitude == pytest.approx(0.60)


def test_gate_policy_validation():
    gate(free_spectrum(line(3.0)), GatePolicy(k_a=1.0, sigma_f_max=0.2, eps_int=0.3))
    for kwargs in (dict(k_a=0.0), dict(sigma_f_max=-1.0), dict(eps_int=0.5)):
        with pytest.raises(ValueError):
            GatePolicy(**kwargs)


# ---------------------------------------------------------------------------
# evidence across orders
# ---------------------------------------------------------------------------


def gated_lines(m, fs):
    return ModulationSpectrum(
        m=m,
        a0=2.0,
        harmonics=tuple(line(float(f), kappa=i + 1) for i, f in enumerate(sorted(fs))),
        kind="free",
    )


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
    # an order-4 curve cannot transmit f=4; such a line is leaked noise
    table = aggregate([gated_lines(4, [3, 4])])
    assert table.present() == (3,)
    assert table.status_of(4) == "unknown"


def test_aggregate_input_checks():
    with pytest.raises(ValueError):
        aggregate([gated_lines(3, [4]), gated_lines(3, [2])])
    with pytest.raises(ValueError):
        aggregate([free_spectrum(line(3.3))])


def test_aggregate_keeps_best_sighting():
    strong = ModulationSpectrum(
        m=5, a0=2.0, harmonics=(line(4.0, amplitude=0.9, sigma_a=0.01),), kind="free"
    )
    weak = ModulationSpectrum(
        m=3, a0=2.0, harmonics=(line(4.0, amplitude=0.5, sigma_a=0.20),), kind="free"
    )
    table = aggregate([weak, strong])
    assert table.rows[4].amplitude == pytest.approx(0.9)


def test_from_sets_round_trip():
    table = EvidenceTable.from_sets({3: (0.5, 0.05), 8: (0.2, 0.04)}, absent=(2, 6))
    assert table.present() == (3, 8)
    assert table.absent() == (2, 6)
    assert table.span_hint == 8
    assert table.rows[3].amplitude == pytest.approx(0.5)
    bare = EvidenceTable.from_sets((3, 8), absent=(2,), span_hint=10)
    assert bare.span_hint == 10
    assert bare.rows[3].amplitude is None
    with pytest.raises(ValueError):
        EvidenceTable.from_sets((3,), absent=(3,))


def test_evidence_containers_validate():
    with pytest.raises(ValueError):
        EvidenceRow(f=0, status="present")
    with pytest.raises(ValueError):
        EvidenceRow(f=3, status="maybe")
    with pytest.raises(ValueError):
        EvidenceTable(span_hint=2, rows={1: EvidenceRow(f=2, status="absent")})
    with pytest.raises(ValueError):
        EvidenceTable(span_hint=-1, rows={})
    table = EvidenceTable.from_sets((3,))
    with pytest.raises(ValueError):
        table.status_of(0)


# ---------------------------------------------------------------------------
# lattice calibration
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("m", [3, 5])
def test_calibration_inverts_the_scene_geometry(m):
    scene = PhysicalScene(wavelength=632.8e-9, z=0.4, d=570e-6)
    sines = scene.magic_sin_thetas(m)
    assert calibrate_d(sines, scene.wavelength, m) == pytest.approx(570e-6, rel=1e-12)


def test_calibration_input_checks():
    with pytest.raises(ValueError):
        calibrate_d((0.0, 0.1), 632.8e-9, 2)
    with pytest.raises(ValueError):
        calibrate_d((0.0, 0.1), 0.0, 3)
    with pytest.raises(ValueError):
        calibrate_d((0.1,), 632.8e-9, 3)
    with pytest.raises(ValueError):
        calibrate_d((0.1, 0.1), 632.8e-9, 3)


# ---------------------------------------------------------------------------
# container validation
# ---------------------------------------------------------------------------


def test_harmonic_validation():
    with pytest.raises(ValueError):
        Harmonic(kappa=0, f=2.0, amplitude=0.5)
    with pytest.raises(ValueError):
        Harmonic(kappa=1, f=0.0, amplitude=0.5)
    with pytest.raises(ValueError):
        Harmonic(kappa=1, f=2.0, amplitude=-0.5)


def test_spectrum_kind_constraints():
    with pytest.raises(ValueError):
        ModulationSpectrum(m=3, a0=2.0, harmonics=(line(3.0),), kind="fixed")
    with pytest.raises(ValueError):
        ModulationSpectrum(m=3, a0=2.0, harmonics=(), kind="bogus")
    s = ModulationSpectrum(m=3, a0=2.0, harmonics=(line(2.0),), kind="fixed")
    assert s.amplitude_at(2.0) == pytest.approx(0.5)
    assert s.amplitude_at(7.0) == 0.0
