"""Speckle Monte Carlo: thermal statistics, estimator honesty, determinism."""

import math

import numpy as np
import pytest
from scipy import stats

from specklescope import (
    DegeneratePixelError,
    DetectorArray,
    FrameStack,
    GridCoverageError,
    OrderError,
    SourceGeometry,
    SpeckleRun,
    estimate_g_m,
    frame_amplitudes,
    g_m_analytic,
    nearest_magic_pixels,
    quantize,
    sample_frames,
    uniform_grid,
)


def small_run(**overrides):
    base = dict(
        geometry=SourceGeometry((1, 3)),
        frames=64,
        seed=3,
        delta_axis=uniform_grid(24),
    )
    base.update(overrides)
    return SpeckleRun(**base)


def handmade_stack(intensities):
    inten = np.asarray(intensities, dtype=float)
    return FrameStack(
        intensities=inten,
        delta_axis=np.arange(inten.shape[1], dtype=float),
        n_sources=2,
        seed=0,
    )


# ---------------------------------------------------------------------------
# grids and runs
# ---------------------------------------------------------------------------


def test_uniform_grid_excludes_endpoint():
    axis = uniform_grid(8)
    assert axis.size == 8
    assert axis[0] == 0.0
    assert axis[-1] < 2 * math.pi
    assert np.allclose(np.diff(axis), 2 * math.pi / 8)
    custom = uniform_grid(4, lo=1.0, hi=3.0)
    np.testing.assert_allclose(custom, [1.0, 1.5, 2.0, 2.5])
    with pytest.raises(ValueError):
        uniform_grid(0)


@pytest.mark.parametrize(
    "overrides",
    [
        dict(frames=0),
        dict(seed=-1),
        dict(delta_axis=np.array([0.0, 1.0, 0.5])),
        dict(delta_axis=np.zeros((2, 2))),
        dict(weights=(1.0,)),
        dict(weights=(1.0, -2.0, 1.0)),
        dict(quantization_bits=0),
        dict(quantization_bits=17),
    ],
)
def test_run_rejects_bad_inputs(overrides):
    with pytest.raises(ValueError):
        small_run(**overrides)


def test_frame_stack_validation():
    with pytest.raises(ValueError):
        handmade_stack([[1.0, -1.0, 2.0]])
    with pytest.raises(ValueError):
        FrameStack(
            intensities=np.ones((2, 3)),
            delta_axis=np.arange(4.0),
            n_sources=1,
            seed=0,
        )
    with pytest.raises(ValueError):
        FrameStack(
            intensities=np.ones(6),
            delta_axis=np.arange(6.0),
            n_sources=1,
            seed=0,
        )


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


def test_sampling_is_deterministic():
    run = small_run()
    a = sample_frames(run)
    b = sample_frames(run)
    np.testing.assert_array_equal(a.intensities, b.intensities)
    c = sample_frames(small_run(seed=4))
    assert not np.array_equal(a.intensities, c.intensities)


def test_single_frame_regenerates_in_isolation():
    run = small_run(frames=50)
    stack = sample_frames(run)
    alpha = np.asarray(run.geometry.positions, dtype=float)
    basis = np.exp(1j * np.outer(alpha, run.delta_axis))
    for frame in (0, 17, 49):
        # the frame's own Philox stream, drawn by a generator of its own
        rng = np.random.Generator(np.random.Philox(key=run.seed, counter=frame << 192))
        xi = rng.standard_normal((run.geometry.n_sources, 2))
        reference = np.sqrt(0.5) * (xi[:, 0] + 1j * xi[:, 1])
        np.testing.assert_array_equal(frame_amplitudes(run, frame), reference)
        field = frame_amplitudes(run, frame) @ basis
        np.testing.assert_allclose(
            np.abs(field) ** 2, stack.intensities[frame], atol=1e-12
        )
    with pytest.raises(ValueError):
        frame_amplitudes(run, -1)
    with pytest.raises(ValueError):
        frame_amplitudes(run, 50)


def test_weights_rescale_frames_exactly():
    # same seed, doubled weights: every intensity doubles (up to rounding)
    a = sample_frames(small_run(weights=(1.0, 1.0, 1.0)))
    b = sample_frames(small_run(weights=(2.0, 2.0, 2.0)))
    np.testing.assert_allclose(b.intensities, 2.0 * a.intensities, rtol=1e-12)


# ---------------------------------------------------------------------------
# thermal statistics (shared 3000-frame stack, pinned seed)
# ---------------------------------------------------------------------------


def test_intensity_second_moment_is_thermal(two_gap_stack):
    inten = two_gap_stack.intensities
    m2 = (inten**2).mean(axis=0) / inten.mean(axis=0) ** 2
    assert np.all(np.abs(m2 - 2.0) < 0.15)


def test_intensity_marginal_is_exponential(two_gap_stack):
    inten = two_gap_stack.intensities
    for pixel in (0, 37, 90):
        sample = inten[:, pixel]
        pvalue = stats.kstest(sample / sample.mean(), "expon").pvalue
        assert pvalue > 0.01


# ---------------------------------------------------------------------------
# estimator vs analytic
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("m", [2, 3])
def test_estimates_track_analytic_curve(two_gap_stack, m):
    axis = two_gap_stack.delta_axis
    fixed, err = nearest_magic_pixels(axis, m)
    assert err < 1e-9
    est = estimate_g_m(two_gap_stack, fixed)
    ref = g_m_analytic(
        SourceGeometry((1, 3)),
        DetectorArray(m, tuple(axis[list(fixed)]), axis),
    )
    coverage = np.mean(np.abs(est.values - ref.values) <= 3.0 * est.sigma)
    assert coverage >= 0.95


def test_estimator_formula_by_hand():
    inten = np.array(
        [
            [1.0, 2.0, 3.0, 4.0],
            [2.0, 1.0, 0.5, 2.0],
            [3.0, 3.0, 1.5, 1.0],
        ]
    )
    stack = handmade_stack(inten)
    curve = estimate_g_m(stack, (1, 1))  # coincident fixed detectors
    fp = inten[:, 1] * inten[:, 1]
    expected = (fp @ inten / 3) / (inten.mean(axis=0) * inten[:, 1].mean() ** 2)
    np.testing.assert_allclose(curve.values, expected, rtol=1e-12)
    assert curve.m == 3


def test_rescaled_intensities_give_identical_estimates():
    stack = sample_frames(small_run())
    scaled = FrameStack(
        intensities=4.0 * stack.intensities,
        delta_axis=stack.delta_axis,
        n_sources=stack.n_sources,
        seed=stack.seed,
    )
    a = estimate_g_m(stack, (0, 6), n_boot=32)
    b = estimate_g_m(scaled, (0, 6), n_boot=32)
    np.testing.assert_array_equal(a.values, b.values)
    np.testing.assert_array_equal(a.sigma, b.sigma)


def test_estimator_input_checks():
    stack = sample_frames(small_run())
    with pytest.raises(OrderError):
        estimate_g_m(stack, ())
    with pytest.raises(ValueError):
        estimate_g_m(stack, (24,))
    with pytest.raises(ValueError):
        estimate_g_m(stack, (-1,))


def test_single_frame_has_no_error_bars():
    stack = sample_frames(small_run(frames=1))
    curve = estimate_g_m(stack, (0,))
    assert curve.sigma is None
    assert curve.replicas is None


def test_bootstrap_replicas_are_reproducible():
    stack = sample_frames(small_run(frames=256))
    a = estimate_g_m(stack, (0,), n_boot=64, boot_seed=5)
    b = estimate_g_m(stack, (0,), n_boot=64, boot_seed=5)
    assert a.replicas.shape == (64, 24)
    np.testing.assert_array_equal(a.replicas, b.replicas)
    c = estimate_g_m(stack, (0,), n_boot=64, boot_seed=6)
    assert not np.array_equal(a.replicas, c.replicas)
    # default boot seed comes from the stack, so repeats still agree
    d = estimate_g_m(stack, (0,), n_boot=64)
    e = estimate_g_m(stack, (0,), n_boot=64)
    np.testing.assert_array_equal(d.replicas, e.replicas)


def test_dead_pixel_is_reported():
    inten = np.ones((4, 3))
    inten[:, 2] = 0.0
    with pytest.raises(DegeneratePixelError):
        estimate_g_m(handmade_stack(inten), (0,))


# ---------------------------------------------------------------------------
# quantization
# ---------------------------------------------------------------------------


def test_quantization_counts_and_idempotence():
    stack = sample_frames(small_run())
    q8 = quantize(stack, 8)
    assert q8.bits == 8
    assert q8.intensities.min() >= 0
    assert q8.intensities.max() == 255
    np.testing.assert_array_equal(q8.intensities, np.rint(q8.intensities))
    again = quantize(q8, 8)
    np.testing.assert_array_equal(again.intensities, q8.intensities)


def test_low_bit_depth_clips_hard():
    stack = sample_frames(small_run(frames=512))
    assert stack.clipped_fraction() < 0.01
    q1 = quantize(stack, 1)
    assert q1.clipped_fraction() == 1.0  # every sample is 0 or 1
    assert quantize(stack, 12).clipped_fraction() < stack.clipped_fraction() + 0.01


def test_run_level_quantization_matches_post_hoc():
    run = small_run(quantization_bits=6)
    auto = sample_frames(run)
    manual = quantize(sample_frames(small_run()), 6)
    np.testing.assert_array_equal(auto.intensities, manual.intensities)
    assert auto.bits == 6


def test_quantize_rejects_bad_depth():
    stack = sample_frames(small_run())
    with pytest.raises(ValueError):
        quantize(stack, 0)
    with pytest.raises(ValueError):
        quantize(stack, 17)


# ---------------------------------------------------------------------------
# magic pixel placement
# ---------------------------------------------------------------------------


def test_magic_pixels_on_a_divisible_grid():
    axis = uniform_grid(120)
    idx2, err2 = nearest_magic_pixels(axis, 2)
    assert idx2 == (0,) and err2 == 0.0
    idx3, err3 = nearest_magic_pixels(axis, 3)
    assert idx3 == (0, 60) and err3 < 1e-9
    idx4, err4 = nearest_magic_pixels(axis, 4)
    assert idx4 == (0, 40, 80) and err4 < 1e-9


def test_magic_pixels_off_grid_reports_error():
    axis = uniform_grid(100)  # 100 not divisible by 3
    _, err = nearest_magic_pixels(axis, 4)
    pitch = axis[1] - axis[0]
    assert 0 < err <= pitch / 2


def test_magic_pixels_coverage_guard():
    with pytest.raises(GridCoverageError):
        nearest_magic_pixels(uniform_grid(50, hi=math.pi), 3)
    with pytest.raises(OrderError):
        nearest_magic_pixels(uniform_grid(8), 1)
    with pytest.raises(ValueError):
        nearest_magic_pixels(np.zeros((2, 2)), 3)
