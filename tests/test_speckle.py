"""Speckle Monte Carlo: thermal statistics, estimator honesty, determinism."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from conftest import held_frames, held_stack, save_frames
from specklescope import (
    CorrelationCurve,
    DegeneratePixelError,
    FormatError,
    FrameStream,
    GridCoverageError,
    OrderError,
    SourceGeometry,
    estimate_g_m,
    g_m_analytic,
    nearest_magic_pixels,
    phase_prefactors,
    sample_frames,
    uniform_grid,
)
from specklescope import serialize, speckle


SMALL = dict(geometry=SourceGeometry((1, 3)), frames=64, seed=3, delta_axis=uniform_grid(24))


def small_stream(**overrides):
    """A fresh stream of a small acquisition, with some of the sampler's arguments changed."""
    return sample_frames(**{**SMALL, **overrides})


def handmade_stream(intensities, delta_axis=None):
    """The intensities as a stream of one chunk, by default one offset per column."""
    inten = np.asarray(intensities, dtype=float)
    if delta_axis is None:
        delta_axis = np.arange(inten.shape[-1], dtype=float)
    return FrameStream(chunks=(inten,), n_frames=len(inten), delta_axis=delta_axis,
                       n_sources=2, seed=0)


# ---------------------------------------------------------------------------
# grids and runs
# ---------------------------------------------------------------------------


def test_uniform_grid_excludes_endpoint():
    axis = uniform_grid(8)
    assert axis.size == 8
    assert axis[0] == 0.0
    assert axis[-1] < 2 * math.pi
    assert np.allclose(np.diff(axis), 2 * math.pi / 8)
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
        dict(bits=0),
        dict(bits=17),
        dict(seed=2**128),  # past Philox's 128-bit key
    ],
)
def test_run_rejects_bad_inputs(overrides):
    # checked when the sampler is called, before any frame is drawn
    with pytest.raises(ValueError):
        small_stream(**overrides)


def test_frame_stack_validation():
    # a negative sample, a pixel-count mismatch and 1-D intensities
    for stream in (
        handmade_stream([[1.0, -1.0, 2.0]]),
        handmade_stream(np.ones((2, 3)), delta_axis=np.arange(4.0)),
        handmade_stream(np.ones(6), delta_axis=np.arange(6.0)),
    ):
        with pytest.raises(ValueError):
            estimate_g_m(stream, ((0,),))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1.0, -1e-300])
def test_frame_stack_rejects_non_finite_and_negative_samples(tmp_path, bad):
    inten = np.ones((3, 4))
    inten[1, 2] = bad
    with pytest.raises(ValueError):
        estimate_g_m(handmade_stream(inten), ((0,),))
    save_frames(handmade_stream(inten), tmp_path / "frames.sstk")
    with pytest.raises(FormatError, match="frames.sstk"):
        list(serialize.read_frames(tmp_path / "frames.sstk").chunks)


def test_negative_zero_is_a_sample(tmp_path):
    inten = np.ones((64, 3))  # enough frames that no resample holds frame 0 alone
    inten[0, 0] = -0.0
    estimate_g_m(handmade_stream(inten), ((1,),))
    save_frames(handmade_stream(inten), tmp_path / "frames.sstk")
    assert np.signbit(held_frames(serialize.read_frames(tmp_path / "frames.sstk"))[0, 0])


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


def test_sampling_is_deterministic():
    a = held_frames(small_stream())
    b = held_frames(small_stream())
    np.testing.assert_array_equal(a, b)
    c = held_frames(small_stream(seed=4))
    assert not np.array_equal(a, c)


def test_frames_are_one_normal_stream_through_the_field_basis():
    # the whole acquisition's amplitudes, drawn at once from the seed's Philox
    # stream and propagated without chunks, are the frames sampled in two
    stream = small_stream(frames=1025)
    inten = held_frames(stream)
    rng = np.random.Generator(np.random.Philox(key=stream.seed))
    xi = rng.standard_normal((stream.n_frames, stream.n_sources, 2))
    alpha = np.asarray(phase_prefactors(SMALL["geometry"]), dtype=float)
    basis = np.exp(1j * np.outer(alpha, stream.delta_axis))
    field = np.sqrt(0.5) * (xi[..., 0] + 1j * xi[..., 1]) @ basis
    np.testing.assert_allclose(np.abs(field) ** 2, inten, atol=1e-12)


@pytest.mark.parametrize("chunk", [2, 3, 7, 100_000])
@pytest.mark.parametrize("frames", [1, 2, 15, 22, 1025])
def test_sampled_bytes_do_not_depend_on_the_chunk_size(monkeypatch, frames, chunk):
    # 15 and 22 frames leave one-frame tails at chunks of 2, 3 or 7, and
    # 1025 does at the default chunk; such a tail must join the chunk before
    reference = held_frames(small_stream(frames=frames)).tobytes()
    monkeypatch.setattr(speckle, "_CHUNK_FRAMES", chunk)
    assert held_frames(small_stream(frames=frames)).tobytes() == reference


@pytest.mark.parametrize("cap", [512, 7, 3, 2])
@pytest.mark.parametrize(
    "frames", [1, 2, 15, 22, 257, 513, 1025, 20000, 100_000, 131_072, 131_073, 10**6]
)
def test_frame_chunks_hold_whole_bootstrap_blocks(monkeypatch, frames, cap):
    # the layout alone: no frame is drawn
    monkeypatch.setattr(speckle, "_CHUNK_FRAMES", cap)
    starts, stops = map(np.array, zip(*speckle._frame_chunks(frames)))
    assert starts[0] == 0 and stops[-1] == frames
    np.testing.assert_array_equal(starts[1:], stops[:-1])
    lengths = stops - starts
    # a chunk edge inside a block that fits a chunk would split it
    blocks = np.array_split(np.arange(frames), min(256, frames))
    first = np.array([block[0] for block in blocks])
    last = np.array([block[-1] for block in blocks])
    fits = last - first < cap
    split = np.searchsorted(stops, last, "right") > np.searchsorted(stops, first, "right")
    assert not np.any(split & fits)
    # a chunk over the cap is a one-frame tail that joined the chunk before
    assert lengths.max() <= cap + 1
    assert frames == 1 or lengths.min() >= 2


# the 20000 x 240 stack is 36.6 MiB; sampling, archiving and estimating it
# hold about 7.5 MiB: the complex field of the 512-frame chunk being drawn
# (1.9 MiB) while the chunk before it is still referenced (two chunks of
# intensities, 1.9 MiB), the table of block sums of the pixels and of four
# orders (2.3 MiB) and the bootstrap tables at the end
_STAGE_BOUND = 10 * 2**20


@pytest.mark.parametrize("bits", [None, 12])
def test_sampling_archiving_and_estimating_hold_one_chunk(tmp_path, bits):
    axis = uniform_grid(240)
    pixel_sets = [nearest_magic_pixels(axis, m)[0] for m in (3, 4, 5, 6)]
    tracemalloc.start()
    try:
        frames = sample_frames(SourceGeometry((3, 1, 4)), 20000, 1, axis, bits=bits)
        with serialize.write_frames(frames, tmp_path / "frames.sstk") as stream:
            curves = estimate_g_m(stream, pixel_sets)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(curves) == 4 and frames.bits == bits
    assert (tmp_path / "frames.sstk").stat().st_size > frames.n_frames * 240 * 8
    assert peak < _STAGE_BOUND


def test_the_streamed_stage_holds_only_the_chunk_being_drawn(monkeypatch, tmp_path):
    # sampled, archived and estimated as simulate runs it, with the 78- or
    # 79-frame blocks whole in chunks of up to 512 frames or cut in three
    # pieces by chunks of 32.  While the chunks are read, the table of block
    # sums of the pixels and four orders (2.3 MiB) is held beside the chunk
    # being drawn: its complex field (two chunks of bytes) and intensities
    # (one), and no block buffer.  The peak (5.9 MiB) comes at the end, when
    # the table is held with the bootstrap's resample counts and resampled
    # pixel means, one order's temporaries and the replicas of the orders
    # done.  Keeping the previous chunk referenced through the next draw, and
    # each order's bootstrap temporaries through the next order, peaked
    # 0.6 MiB above this bound
    pixels, orders = 240, (3, 4, 5, 6)
    axis = uniform_grid(pixels)
    pixel_sets = [nearest_magic_pixels(axis, m)[0] for m in orders]
    list(small_stream(frames=2).chunks)  # numpy.random's import is not the stage's
    bound = ((len(orders) + 1) * speckle._MAX_BLOCKS + 4 * speckle._CHUNK_FRAMES) * pixels * 8
    for chunk in (512, 32):
        monkeypatch.setattr(speckle, "_CHUNK_FRAMES", chunk)
        tracemalloc.start()
        try:
            frames = sample_frames(SourceGeometry((3, 1, 4)), 20000, 1, axis)
            with serialize.write_frames(frames, tmp_path / "frames.sstk") as stream:
                estimate_g_m(stream, pixel_sets)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound, chunk


def test_weights_rescale_frames_exactly():
    # same seed, doubled weights: every intensity doubles (up to rounding)
    a = held_frames(small_stream(weights=(1.0, 1.0, 1.0)))
    b = held_frames(small_stream(weights=(2.0, 2.0, 2.0)))
    np.testing.assert_allclose(b, 2.0 * a, rtol=1e-12)


# ---------------------------------------------------------------------------
# thermal statistics (shared 3000-frame stack, pinned seed)
# ---------------------------------------------------------------------------


def test_intensity_second_moment_is_thermal(two_gap_stack):
    (inten,) = two_gap_stack.chunks
    m2 = (inten**2).mean(axis=0) / inten.mean(axis=0) ** 2
    assert np.all(np.abs(m2 - 2.0) < 0.15)


def test_intensity_marginal_is_exponential(two_gap_stack):
    (inten,) = two_gap_stack.chunks
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
    ref = g_m_analytic(SourceGeometry((1, 3)), axis, tuple(axis[list(fixed)]))
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
    curve = estimate_g_m(handmade_stream(inten), ((1, 1),))[0]  # coincident fixed detectors
    fp = inten[:, 1] * inten[:, 1]
    expected = (fp @ inten / 3) / (inten.mean(axis=0) * inten[:, 1].mean() ** 2)
    np.testing.assert_allclose(curve.values, expected, rtol=1e-12)
    assert curve.m == 3


def test_rescaled_intensities_give_identical_estimates():
    stack = held_stack(small_stream())
    scaled = replace(stack, chunks=(4.0 * stack.chunks[0],))
    a = estimate_g_m(stack, ((0, 6),))[0]
    b = estimate_g_m(scaled, ((0, 6),))[0]
    np.testing.assert_array_equal(a.values, b.values)
    np.testing.assert_array_equal(a.sigma, b.sigma)


def test_estimator_input_checks():
    stack = held_stack(small_stream())
    with pytest.raises(OrderError):
        estimate_g_m(stack, ((),))
    with pytest.raises(ValueError):
        estimate_g_m(stack, ((24,),))
    with pytest.raises(ValueError):
        estimate_g_m(stack, ((-1,),))


def test_single_frame_has_no_error_bars():
    stack = held_stack(small_stream(frames=1))
    curve = estimate_g_m(stack, ((0,),))[0]
    assert curve.sigma is None
    assert curve.replicas is None


def test_bootstrap_replicas_are_reproducible():
    stack = held_stack(small_stream(frames=256))
    # the same frames under other seeds: the bootstrap follows the stream's seed
    a = estimate_g_m(replace(stack, seed=5), ((0,),))[0]
    b = estimate_g_m(replace(stack, seed=5), ((0,),))[0]
    assert a.replicas.shape == (200, 24)
    np.testing.assert_array_equal(a.replicas, b.replicas)
    c = estimate_g_m(replace(stack, seed=6), ((0,),))[0]
    assert not np.array_equal(a.replicas, c.replicas)
    # the sampled stream's own seed, so repeats still agree
    d = estimate_g_m(stack, ((0,),))[0]
    e = estimate_g_m(stack, ((0,),))[0]
    np.testing.assert_array_equal(d.replicas, e.replicas)


def per_order_estimate(stack, fixed_pixels):
    """The estimate for one set of fixed pixels, computed apart from every other set."""
    inten = held_frames(stack)
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
    seed_seq = np.random.SeedSequence(entropy=(stack.seed, 0xB0075EED))
    rng = np.random.Generator(np.random.Philox(seed_seq))
    counts = rng.multinomial(n_blocks, np.full(n_blocks, 1.0 / n_blocks), size=200)
    boot_num = counts @ block_num / n_blocks
    boot_mean_i = counts @ block_mean_i / n_blocks
    boot_fixed = boot_mean_i[:, fixed_idx].prod(axis=1)
    boot_values = boot_num / (boot_mean_i * boot_fixed[:, None])
    return CorrelationCurve(m=m, delta1=stack.delta_axis, values=values,
                            sigma=boot_values.std(axis=0, ddof=1), replicas=boot_values)


def block_sum_values(stack, fixed_pixels):
    """The values as sums of the oracle's block sums, each over the frame count."""
    inten = held_frames(stack)
    n_frames = len(inten)
    fixed_idx = np.asarray(fixed_pixels, dtype=int)
    fixed_product = inten[:, fixed_idx].prod(axis=1)
    blocks = np.array_split(np.arange(n_frames), min(256, n_frames))
    sum_i = np.add.reduce([inten[idx].sum(axis=0) for idx in blocks], axis=0)
    sum_num = np.add.reduce([fixed_product[idx] @ inten[idx] for idx in blocks], axis=0)
    mean_i = sum_i / n_frames
    return sum_num / n_frames / (mean_i * float(np.prod(mean_i[fixed_idx])))


# orders 3-6, with coincident fixed detectors in the order-5 and order-6 sets
ORACLE_PIXEL_SETS = ((0, 12), (0, 8, 16), (3, 3, 9, 20), (0, 6, 6, 12, 18))


@pytest.mark.parametrize(
    "frames, seed, chunk",
    [(1000, 3, 512), (1000, 11, 512), (1000, 3, 7), (100, 3, 512), (1, 3, 512), (1000, 3, 2)],
    ids=["blocks-of-3-or-4", "boot-seed", "chunks-of-7", "blocks-of-1", "single-frame",
         "blocks-outgrow-chunks"],
)
def test_one_call_equals_the_per_order_oracle(monkeypatch, frames, seed, chunk):
    # at 1000 frames the 256 blocks hold 3 or 4 frames, so sampling chunks
    # of 7 or 512 hold whole blocks, and chunks of 2 cut each block of 4 in
    # two; the bootstrap is seeded by the stream's seed, so another seed
    # draws other resamples
    stack = held_stack(small_stream(frames=frames, seed=seed))
    monkeypatch.setattr(speckle, "_CHUNK_FRAMES", chunk)
    curves = estimate_g_m(small_stream(frames=frames, seed=seed), ORACLE_PIXEL_SETS)
    held = estimate_g_m(stack, ORACLE_PIXEL_SETS)
    whole_blocks = -(-frames // 256) <= chunk
    assert [c.m for c in curves] == [3, 4, 5, 6]
    for pixels, curve, whole in zip(ORACLE_PIXEL_SETS, curves, held):
        expected = per_order_estimate(stack, pixels)
        np.testing.assert_allclose(curve.values, expected.values, rtol=frames * 2.0**-52, atol=0)
        if frames == 1:
            assert curve.sigma is None and curve.replicas is None
        elif not whole_blocks:
            # a block summed in pieces moves only the last bits
            np.testing.assert_allclose(curve.sigma, expected.sigma, rtol=1e-12, atol=0)
            np.testing.assert_allclose(curve.replicas, expected.replicas, rtol=1e-12, atol=0)
        if not whole_blocks:
            continue
        # the streamed and the held stack go through the same blocks
        assert curve.values.tobytes() == whole.values.tobytes()
        # both moments sum block sums, not one sum over the stack
        assert curve.values.tobytes() == block_sum_values(stack, pixels).tobytes()
        if frames > 1:
            assert curve.sigma.tobytes() == expected.sigma.tobytes()
            assert curve.replicas.tobytes() == expected.replicas.tobytes()


def test_estimator_checks_every_chunk():
    stack = held_stack(small_stream(frames=10))
    (rows,) = stack.chunks

    def stream(*chunks):
        return replace(stack, chunks=chunks)

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
        estimate_g_m(handmade_stream(inten), ((0,),))


# ---------------------------------------------------------------------------
# quantization
# ---------------------------------------------------------------------------


def test_quantization_counts():
    stream = small_stream(bits=8)
    q8 = held_frames(stream)
    assert stream.bits == 8
    assert q8.min() >= 0
    assert q8.max() == 255
    np.testing.assert_array_equal(q8, np.rint(q8))
    # the same frames, scaled so that the acquisition's maximum reads 2^8 - 1
    raw = held_frames(small_stream())
    np.testing.assert_array_equal(q8, np.rint(raw * (255.0 / raw.max())))


def clipped_fraction(frames):
    """Fraction of samples the sampler counted at zero or the top level."""
    for _ in frames.chunks:
        pass
    return frames.clipped / (frames.n_frames * frames.n_pixels)


def test_low_bit_depth_clips_hard():
    inten = held_frames(small_stream(frames=512))
    raw = np.mean((inten == 0) | (inten == inten.max()))
    assert raw < 0.01
    assert clipped_fraction(small_stream(frames=512, bits=1)) == 1.0  # all 0 or 1
    q12 = held_frames(small_stream(frames=512, bits=12))
    pinned = np.mean((q12 == 0) | (q12 == 4095))
    assert clipped_fraction(small_stream(frames=512, bits=12)) == pinned
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
        nearest_magic_pixels(np.linspace(0.0, math.pi, 50, endpoint=False), 3)
    with pytest.raises(OrderError):
        nearest_magic_pixels(uniform_grid(8), 1)
    with pytest.raises(ValueError):
        nearest_magic_pixels(np.zeros((2, 2)), 3)
