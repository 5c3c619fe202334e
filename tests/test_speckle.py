"""Speckle Monte Carlo: thermal statistics, estimator honesty, determinism."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from conftest import held_stack
from specklescope import (
    CorrelationCurve,
    DegeneratePixelError,
    DetectorArray,
    FrameStack,
    GridCoverageError,
    OrderError,
    SourceGeometry,
    SpeckleRun,
    estimate_g_m,
    g_m_analytic,
    nearest_magic_pixels,
    sample_frames,
    uniform_grid,
)
from specklescope import serialize, speckle


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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1.0, -1e-300])
def test_frame_stack_rejects_non_finite_and_negative_samples(bad):
    inten = np.ones((3, 4))
    inten[1, 2] = bad
    with pytest.raises(ValueError):
        handmade_stack(inten)


def test_frame_stack_accepts_negative_zero_and_no_frames():
    inten = np.ones((2, 3))
    inten[0, 0] = -0.0
    assert np.signbit(handmade_stack(inten).intensities[0, 0])
    assert handmade_stack(np.empty((0, 3))).n_frames == 0


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


def test_sampling_is_deterministic():
    run = small_run()
    a = held_stack(run)
    b = held_stack(run)
    np.testing.assert_array_equal(a.intensities, b.intensities)
    c = held_stack(small_run(seed=4))
    assert not np.array_equal(a.intensities, c.intensities)


def test_single_frame_regenerates_in_isolation():
    run = small_run(frames=50)
    stack = held_stack(run)
    alpha = np.asarray(run.geometry.positions, dtype=float)
    basis = np.exp(1j * np.outer(alpha, run.delta_axis))
    for frame in (0, 17, 49):
        # the frame's own Philox stream, drawn by a generator of its own
        rng = np.random.Generator(np.random.Philox(key=run.seed, counter=frame << 192))
        xi = rng.standard_normal((run.geometry.n_sources, 2))
        field = np.sqrt(0.5) * (xi[:, 0] + 1j * xi[:, 1]) @ basis
        np.testing.assert_allclose(
            np.abs(field) ** 2, stack.intensities[frame], atol=1e-12
        )


@pytest.mark.parametrize("chunk", [2, 3, 7, 100_000])
@pytest.mark.parametrize("frames", [1, 2, 15, 22, 1025])
def test_sampled_bytes_do_not_depend_on_the_chunk_size(monkeypatch, frames, chunk):
    # 15 and 22 frames leave one-frame tails at chunks of 2, 3 or 7, and
    # 1025 does at the default chunk; such a tail must join the chunk before
    run = small_run(frames=frames)
    reference = held_stack(run).intensities.tobytes()
    monkeypatch.setattr(speckle, "_CHUNK_FRAMES", chunk)
    assert held_stack(run).intensities.tobytes() == reference


def test_stream_folds_a_one_frame_tail_into_the_last_chunk():
    chunks = sample_frames(small_run(frames=1025)).chunks
    assert [len(rows) for rows in chunks] == [512, 513]


# the 20000 x 240 stack is 36.6 MiB; sampling, archiving and estimating it
# hold about 7.5 MiB: the complex field of the 512-frame chunk being drawn
# (1.9 MiB) while the chunk before it is still referenced (two chunks of
# intensities, 1.9 MiB), the block sums and block means of four orders
# (2.3 MiB) and the bootstrap tables at the end
_STAGE_BOUND = 10 * 2**20


@pytest.mark.parametrize("bits", [None, 12])
def test_sampling_archiving_and_estimating_hold_one_chunk(tmp_path, bits):
    run = SpeckleRun(SourceGeometry((3, 1, 4)), frames=20000, seed=1,
                     delta_axis=uniform_grid(240), quantization_bits=bits)
    pixel_sets = [nearest_magic_pixels(run.delta_axis, m)[0] for m in (3, 4, 5, 6)]
    tracemalloc.start()
    try:
        frames = sample_frames(run)
        with serialize.write_frames(frames, tmp_path / "frames.sstk") as stream:
            curves = estimate_g_m(stream, pixel_sets)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(curves) == 4 and frames.bits == bits
    assert (tmp_path / "frames.sstk").stat().st_size > run.frames * 240 * 8
    assert peak < _STAGE_BOUND


def test_the_streamed_stage_holds_only_the_chunk_being_drawn(tmp_path):
    # sampled, archived and estimated as simulate runs it.  Beside the block
    # tables of four orders, only the chunk being drawn is alive: its complex
    # field (two chunks of bytes) and its intensities (one), plus one chunk
    # for the estimator's buffers.  Keeping the previous chunk referenced
    # through the next draw, and each order's bootstrap temporaries through
    # the next order, peaked 0.6 MiB above this bound
    pixels, orders = 240, (3, 4, 5, 6)
    run = SpeckleRun(SourceGeometry((3, 1, 4)), frames=20000, seed=1,
                     delta_axis=uniform_grid(pixels))
    pixel_sets = [nearest_magic_pixels(run.delta_axis, m)[0] for m in orders]
    list(sample_frames(small_run(frames=2)).chunks)  # numpy.random's import is not the stage's
    tracemalloc.start()
    try:
        with serialize.write_frames(sample_frames(run), tmp_path / "frames.sstk") as stream:
            estimate_g_m(stream, pixel_sets)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    chunk = speckle._CHUNK_FRAMES * pixels * 8
    tables = (len(orders) + 1) * speckle._MAX_BLOCKS * pixels * 8
    assert peak < tables + 4 * chunk


def test_weights_rescale_frames_exactly():
    # same seed, doubled weights: every intensity doubles (up to rounding)
    a = held_stack(small_run(weights=(1.0, 1.0, 1.0)))
    b = held_stack(small_run(weights=(2.0, 2.0, 2.0)))
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
    est = estimate_g_m(two_gap_stack, (fixed,))[0]
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
    curve = estimate_g_m(stack, ((1, 1),))[0]  # coincident fixed detectors
    fp = inten[:, 1] * inten[:, 1]
    expected = (fp @ inten / 3) / (inten.mean(axis=0) * inten[:, 1].mean() ** 2)
    np.testing.assert_allclose(curve.values, expected, rtol=1e-12)
    assert curve.m == 3


def test_rescaled_intensities_give_identical_estimates():
    stack = held_stack(small_run())
    scaled = FrameStack(
        intensities=4.0 * stack.intensities,
        delta_axis=stack.delta_axis,
        n_sources=stack.n_sources,
        seed=stack.seed,
    )
    a = estimate_g_m(stack, ((0, 6),), n_boot=32)[0]
    b = estimate_g_m(scaled, ((0, 6),), n_boot=32)[0]
    np.testing.assert_array_equal(a.values, b.values)
    np.testing.assert_array_equal(a.sigma, b.sigma)


def test_estimator_input_checks():
    stack = held_stack(small_run())
    with pytest.raises(OrderError):
        estimate_g_m(stack, ((),))
    with pytest.raises(ValueError):
        estimate_g_m(stack, ((24,),))
    with pytest.raises(ValueError):
        estimate_g_m(stack, ((-1,),))


def test_single_frame_has_no_error_bars():
    stack = held_stack(small_run(frames=1))
    curve = estimate_g_m(stack, ((0,),))[0]
    assert curve.sigma is None
    assert curve.replicas is None


def test_bootstrap_replicas_are_reproducible():
    stack = held_stack(small_run(frames=256))
    a = estimate_g_m(stack, ((0,),), n_boot=64, boot_seed=5)[0]
    b = estimate_g_m(stack, ((0,),), n_boot=64, boot_seed=5)[0]
    assert a.replicas.shape == (64, 24)
    np.testing.assert_array_equal(a.replicas, b.replicas)
    c = estimate_g_m(stack, ((0,),), n_boot=64, boot_seed=6)[0]
    assert not np.array_equal(a.replicas, c.replicas)
    # default boot seed comes from the stack, so repeats still agree
    d = estimate_g_m(stack, ((0,),), n_boot=64)[0]
    e = estimate_g_m(stack, ((0,),), n_boot=64)[0]
    np.testing.assert_array_equal(d.replicas, e.replicas)


def per_order_estimate(stack, fixed_pixels, n_boot=200, boot_seed=None):
    """The estimate for one set of fixed pixels, computed apart from every other set."""
    inten = stack.intensities
    n_frames, n_pixels = inten.shape
    fixed = tuple(int(p) for p in fixed_pixels)
    m = len(fixed) + 1
    fixed_idx = np.asarray(fixed, dtype=int)
    mean_i = inten.mean(axis=0)
    fixed_product = inten[:, fixed_idx].prod(axis=1)
    numerator = fixed_product @ inten / n_frames
    denominator = mean_i * float(np.prod(mean_i[fixed_idx]))
    values = numerator / denominator
    if n_frames < 2:
        return CorrelationCurve(m=m, delta1=stack.delta_axis, values=values)
    n_blocks = min(256, n_frames)
    edges = np.array_split(np.arange(n_frames), n_blocks)
    block_num = np.empty((n_blocks, n_pixels))
    block_mean_i = np.empty((n_blocks, n_pixels))
    for b, idx in enumerate(edges):
        block_num[b] = fixed_product[idx] @ inten[idx] / idx.size
        block_mean_i[b] = inten[idx].mean(axis=0)
    seed = stack.seed if boot_seed is None else boot_seed
    seed_seq = np.random.SeedSequence(entropy=(seed, 0xB0075EED))
    rng = np.random.Generator(np.random.Philox(seed_seq))
    counts = rng.multinomial(n_blocks, np.full(n_blocks, 1.0 / n_blocks), size=n_boot)
    boot_num = counts @ block_num / n_blocks
    boot_mean_i = counts @ block_mean_i / n_blocks
    boot_fixed = boot_mean_i[:, fixed_idx].prod(axis=1)
    boot_values = boot_num / (boot_mean_i * boot_fixed[:, None])
    return CorrelationCurve(m=m, delta1=stack.delta_axis, values=values,
                            sigma=boot_values.std(axis=0, ddof=1), replicas=boot_values)


# orders 3-6, with coincident fixed detectors in the order-5 and order-6 sets
ORACLE_PIXEL_SETS = ((0, 12), (0, 8, 16), (3, 3, 9, 20), (0, 6, 6, 12, 18))


@pytest.mark.parametrize(
    "frames, boot_seed, chunk",
    [(1000, None, 512), (1000, 11, 512), (1000, None, 7), (100, None, 512), (1, None, 512)],
    ids=["blocks-of-3-or-4", "boot-seed", "chunks-of-7", "blocks-of-1", "single-frame"],
)
def test_one_call_equals_the_per_order_oracle(monkeypatch, frames, boot_seed, chunk):
    # at 1000 frames the 256 blocks hold 3 or 4 frames, so sampling chunks
    # of 7 (or the one boundary at 512) leave blocks that straddle two chunks
    run = small_run(frames=frames)
    stack = held_stack(run)
    monkeypatch.setattr(speckle, "_CHUNK_FRAMES", chunk)
    curves = estimate_g_m(sample_frames(run), ORACLE_PIXEL_SETS, n_boot=64, boot_seed=boot_seed)
    held = estimate_g_m(stack, ORACLE_PIXEL_SETS, n_boot=64, boot_seed=boot_seed)
    assert [c.m for c in curves] == [3, 4, 5, 6]
    for pixels, curve, whole in zip(ORACLE_PIXEL_SETS, curves, held):
        # the streamed and the held stack go through the same blocks
        assert curve.values.tobytes() == whole.values.tobytes()
        expected = per_order_estimate(stack, pixels, n_boot=64, boot_seed=boot_seed)
        # the numerator sums block sums, not one product over the stack
        np.testing.assert_allclose(curve.values, expected.values, rtol=frames * 2.0**-52, atol=0)
        if frames == 1:
            assert curve.sigma is None and curve.replicas is None
        else:
            assert curve.sigma.tobytes() == expected.sigma.tobytes()
            assert curve.replicas.tobytes() == expected.replicas.tobytes()


def test_estimator_checks_every_chunk():
    stack = held_stack(small_run(frames=10))
    rows = stack.intensities

    def stream(*chunks):
        return replace(stack.stream(), chunks=chunks)

    bad = rows.copy()
    bad[7, 3] = np.nan
    for chunks in ((rows[:4], bad[4:]), (rows[:9],), (rows, rows[:1]), (rows[:, :5],)):
        with pytest.raises(ValueError):
            estimate_g_m(stream(*chunks), ((0,),))
    split = estimate_g_m(stream(rows[:4], rows[4:]), ((0,),))[0]
    whole = estimate_g_m(stack, ((0,),))[0]
    assert split.replicas.tobytes() == whole.replicas.tobytes()


def test_dead_pixel_is_reported():
    inten = np.ones((4, 3))
    inten[:, 2] = 0.0
    with pytest.raises(DegeneratePixelError):
        estimate_g_m(handmade_stack(inten), ((0,),))


# ---------------------------------------------------------------------------
# quantization
# ---------------------------------------------------------------------------


def test_quantization_counts():
    q8 = held_stack(small_run(quantization_bits=8))
    assert q8.bits == 8
    assert q8.intensities.min() >= 0
    assert q8.intensities.max() == 255
    np.testing.assert_array_equal(q8.intensities, np.rint(q8.intensities))
    # the same frames, scaled so that the acquisition's maximum reads 2^8 - 1
    raw = held_stack(small_run()).intensities
    np.testing.assert_array_equal(q8.intensities, np.rint(raw * (255.0 / raw.max())))


def clipped_fraction(run):
    """Fraction of samples the sampler counted at zero or the top level."""
    frames = sample_frames(run)
    for _ in frames.chunks:
        pass
    return frames.clipped / (frames.n_frames * frames.n_pixels)


def test_low_bit_depth_clips_hard():
    inten = held_stack(small_run(frames=512)).intensities
    raw = np.mean((inten == 0) | (inten == inten.max()))
    assert raw < 0.01
    assert clipped_fraction(small_run(frames=512, quantization_bits=1)) == 1.0  # all 0 or 1
    q12 = held_stack(small_run(frames=512, quantization_bits=12)).intensities
    pinned = np.mean((q12 == 0) | (q12 == 4095))
    assert clipped_fraction(small_run(frames=512, quantization_bits=12)) == pinned
    assert pinned < raw + 0.01


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
