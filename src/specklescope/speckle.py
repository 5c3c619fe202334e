"""Monte Carlo thermal speckle frames and correlation estimation.

Each source emits a circular complex Gaussian amplitude per frame
(independent across sources and frames), so pixel p of frame r sees

    I[r, p] = | sum_l a[r, l] * exp(i * alpha_l * delta_p) |^2 .

Correlations are estimated as ratios of empirical moments over frames,
with a block bootstrap supplying per-pixel standard errors.  Frames are
sampled and estimated chunk by chunk, so a run holds one chunk of frames,
never the whole acquisition.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .correlation import CorrelationCurve, magic_positions
from .errors import DegeneratePixelError, GridCoverageError, OrderError
from .geometry import SourceGeometry, phase_prefactors

__all__ = [
    "FrameStream",
    "uniform_grid",
    "sample_frames",
    "nearest_magic_pixels",
    "estimate_g_m",
]

# frames sampled per chunk: about 1 MB of complex field at 120 pixels
_CHUNK_FRAMES = 512
# the block bootstrap draws _N_BOOT resamples of at most _MAX_BLOCKS
# contiguous frame blocks
_MAX_BLOCKS = 256
_N_BOOT = 200


def uniform_grid(pixels: int) -> np.ndarray:
    """Uniform camera grid of the given size over [0, 2*pi), endpoint excluded."""
    if pixels < 1:
        raise ValueError(f"need at least one pixel, got {pixels}")
    return np.linspace(0.0, 2.0 * math.pi, pixels, endpoint=False)


def _check_samples(inten: np.ndarray) -> None:
    # min/max reject NaN and the infinities without a frame-sized mask
    if inten.size and not (inten.min() >= 0 and np.isfinite(inten.max())):
        raise ValueError("intensities must be finite and non-negative")


@dataclass(eq=False)
class FrameStream:
    """One acquisition as chunks of frames x pixels rows, in frame order.

    A generator of chunks, as `sample_frames` and `serialize.read_frames`
    return, is read once; a tuple of arrays, such as `chunks=(intensities,)`
    for frames already held, can be read again.  The sampler counts into the
    stream it returns the quantized samples it pins at zero or the top level.
    """

    chunks: Iterable[np.ndarray]
    n_frames: int
    delta_axis: np.ndarray
    n_sources: int
    seed: int
    bits: int | None = None
    clipped: int = 0

    @property
    def n_pixels(self) -> int:
        return int(self.delta_axis.size)


def _block_sizes(n_frames: int) -> list[int]:
    """Frame counts of the bootstrap's contiguous blocks, as np.array_split cuts them."""
    n_blocks = min(_MAX_BLOCKS, n_frames)
    size, extra = divmod(n_frames, n_blocks)
    return [size + 1] * extra + [size] * (n_blocks - extra)


def _frame_chunks(n_frames: int) -> Iterator[tuple[int, int]]:
    """(start, stop) of each sampling chunk: whole bootstrap blocks, up to _CHUNK_FRAMES.

    A longer block is cut into near-equal pieces, the longer first.  A
    one-row complex product goes through zgemv and rounds differently from
    the rows of a larger product, so a one-frame chunk joins the chunk before.
    """
    cuts, at = [], 0  # the stops of every block's pieces
    for size in _block_sizes(n_frames):
        pieces = -(-size // _CHUNK_FRAMES)
        cuts += [at - (-size * i // pieces) for i in range(1, pieces + 1)]
        at += size
    starts = [0]
    for before, cut in zip([0] + cuts, cuts):
        if cut - starts[-1] > _CHUNK_FRAMES:
            starts.append(before)
    starts = [s for s, t in zip(starts, starts[1:] + [n_frames]) if t - s > 1 or not s]
    return zip(starts, starts[1:] + [n_frames])


def _drawn_chunks(
    stream: FrameStream, field_matrix: np.ndarray, scale: np.ndarray
) -> Iterator[np.ndarray]:
    """Unquantized intensities of each sampling chunk, in frame order.

    Each call draws from its own Philox generator keyed by stream.seed, so
    every pass sees the same frames: each chunk takes its frames' (sources,
    2) blocks of amplitude parts in turn from one stream, whatever its size.
    """
    rng = np.random.Generator(np.random.Philox(key=stream.seed))
    for start, stop in _frame_chunks(stream.n_frames):
        xi = rng.standard_normal((stop - start, stream.n_sources, 2))
        fields = (scale * (xi[..., 0] + 1j * xi[..., 1])) @ field_matrix
        rows = np.square(fields.real)
        rows += np.square(fields.imag, out=fields.imag)
        del xi, fields  # not held while the chunk is read
        yield rows
        del rows  # nor the chunk while the next is drawn


def _quantized_chunks(
    stream: FrameStream, field_matrix: np.ndarray, scale: np.ndarray
) -> Iterator[np.ndarray]:
    # the ADC gain maps the acquisition's maximum to the top level, so a
    # first pass finds that maximum and the second draws the same frames again;
    # map holds no chunk while drawing
    top = float(max(map(np.max, _drawn_chunks(stream, field_matrix, scale))))
    level = float(2**stream.bits - 1)
    for rows in _drawn_chunks(stream, field_matrix, scale):
        if top:
            rows *= level / top
            np.rint(rows, out=rows)
        else:
            rows.fill(0.0)
        stream.clipped += int(np.count_nonzero((rows == 0) | (rows == level)))
        yield rows
        del rows


def sample_frames(
    geometry: SourceGeometry,
    frames: int,
    seed: int,
    delta_axis: np.ndarray,
    weights: Sequence[float] | None = None,
    bits: int | None = None,
) -> FrameStream:
    """One simulated acquisition, drawn chunk by chunk as it is read.

    `frames` independent speckle frames of `geometry` over the strictly
    increasing camera offsets `delta_axis`.  The Philox key `seed`, in
    [0, 2**128), pins every frame: one stream draws the source amplitudes
    in frame order.  `weights` are the relative source intensities (equal
    if omitted), and `bits`, if set, the ADC depth the frames are quantized
    to.  The arguments are checked here, so a bad one is a ValueError
    before any frame is drawn.

    Each chunk draws its frames' source amplitudes, propagates them to the
    camera grid and squares them, and is quantized if `bits` is set.  A
    quantized acquisition draws every frame twice: once to find the
    maximum that sets the gain, and once to quantize and hand on.
    """
    if frames < 1:
        raise ValueError(f"need at least one frame, got {frames}")
    if not 0 <= seed < 2**128:
        raise ValueError(f"seed must be in [0, 2**128), got {seed}")
    axis = np.array(delta_axis, dtype=float)
    if axis.ndim != 1 or axis.size == 0:
        raise ValueError("delta_axis must be a non-empty 1-D array")
    if axis.size > 1 and not np.all(np.diff(axis) > 0):
        raise ValueError("delta_axis must be strictly increasing")
    axis.flags.writeable = False
    n = geometry.n_sources
    weights = (1.0,) * n if weights is None else tuple(float(v) for v in weights)
    if len(weights) != n:
        raise ValueError(f"need {n} weights, got {len(weights)}")
    if any(not math.isfinite(v) or v <= 0 for v in weights):
        raise ValueError("weights must be finite and positive")
    if bits is not None and not 1 <= bits <= 16:
        raise ValueError(f"quantization bits must be in 1..16, got {bits}")

    stream = FrameStream(
        chunks=(), n_frames=frames, delta_axis=axis, n_sources=n, seed=seed, bits=bits
    )
    alpha = np.asarray(phase_prefactors(geometry), dtype=float)
    field_matrix = np.exp(1j * alpha[:, None] * axis[None, :])  # (n, P)
    scale = np.sqrt(np.asarray(weights) / 2.0)
    chunks = _drawn_chunks if bits is None else _quantized_chunks
    stream.chunks = chunks(stream, field_matrix, scale)
    return stream


def nearest_magic_pixels(
    delta_axis: np.ndarray, m: int
) -> tuple[tuple[int, ...], float]:
    """Grid pixels closest to the m-1 magic offsets, with placement error.

    Returns the pixel indices and the largest |delta_pixel - delta_magic|.
    Raises GridCoverageError when a magic offset falls more than half a
    local pixel pitch outside the grid, since the nearest pixel would then
    be a silent extrapolation.
    """
    axis = np.asarray(delta_axis, dtype=float)
    if axis.ndim != 1 or axis.size == 0:
        raise ValueError("delta_axis must be a non-empty 1-D array")
    targets = magic_positions(m)
    pitch = np.diff(axis)
    pitch_lo, pitch_hi = (pitch[0], pitch[-1]) if pitch.size else (math.inf, math.inf)
    indices = []
    worst = 0.0
    for target in targets:
        if target < axis[0] - pitch_lo / 2 or target > axis[-1] + pitch_hi / 2:
            raise GridCoverageError(
                f"magic offset {target:.6f} lies outside the grid "
                f"[{axis[0]:.6f}, {axis[-1]:.6f}]"
            )
        idx = int(np.argmin(np.abs(axis - target)))
        indices.append(idx)
        worst = max(worst, abs(float(axis[idx]) - target))
    return tuple(indices), worst


def estimate_g_m(
    stream: FrameStream, fixed_pixel_sets: Sequence[Sequence[int]]
) -> tuple[CorrelationCurve, ...]:
    """Estimate one correlation curve per set of fixed pixels.

    For a set of m-1 fixed pixels the order-m curve is

    value[p] = mean(I_p * prod_j I_fj) / (mean(I_p) * prod_j mean(I_fj))

    over frames, for every pixel p, with the fixed detectors at the given
    pixel indices (repeats are allowed and mean coincident detectors).
    Standard errors come from a block bootstrap over frame blocks, and the
    resampled curves ride along as curve.replicas so fitters can propagate
    the (strongly pixel-correlated) estimator noise honestly.  With a
    single frame the estimate is defined but sigma and replicas are None.

    One pass over the chunks fills one table of block sums: per contiguous
    frame block, row 0 holds the sum of I_p and row 1 + k set k's sum of
    I_p * prod_j I_fj.  Each piece of a block in a chunk, a view of it, is
    added into the block's row of the zeroed table.  Every moment comes from
    the table: a mean is the sum of its block sums over the frame count, a
    block mean is a block sum over the block's length, and the bootstrap
    resamples block means.  So a value can differ from the moments of the
    whole stack in its last bits (at most R * 2^-52 relative), and so can a
    sigma or replica where a block is read in pieces (the sampler's chunks
    past 131072 frames); otherwise they are exactly the whole stack's.
    Replica row b is the same frame resample in every curve, drawn from a
    generator seeded by stream.seed.
    """
    n_frames, n_pixels = stream.n_frames, stream.n_pixels
    if n_frames < 1:
        raise ValueError("need at least one frame")
    fixed_sets = [tuple(int(p) for p in pixels) for pixels in fixed_pixel_sets]
    for fixed in fixed_sets:
        if len(fixed) < 1:
            raise OrderError("need at least one fixed detector (order >= 2)")
        for p in fixed:
            if not 0 <= p < n_pixels:
                raise ValueError(f"fixed pixel {p} outside 0..{n_pixels - 1}")
    fixed_idx = [np.asarray(fixed, dtype=int) for fixed in fixed_sets]

    sizes = _block_sizes(n_frames)
    n_blocks, stops = len(sizes), list(accumulate(sizes))
    sums = np.zeros((1 + len(fixed_idx), n_blocks, n_pixels))
    b = read = 0  # the block being read, and the frames of the chunks before
    # no chunk is bound while the next is drawn: no enumerate, whose cached
    # result tuple keeps the last item, and each chunk is dropped when done
    for rows in stream.chunks:
        rows = np.asarray(rows, dtype=float)
        if rows.ndim != 2 or rows.shape[1] != n_pixels:
            raise ValueError(f"chunks must be frames x {n_pixels} arrays")
        if read + len(rows) > n_frames:
            raise ValueError("the chunks hold more frames than the stream declares")
        _check_samples(rows)
        at = 0
        while at < len(rows):
            # block b's frames in this chunk, as a view laid out as that slice
            # of the whole stack: a whole block rounds as the slice's sums do
            piece = rows[at:stops[b] - read]
            sums[0, b] += np.add.reduce(piece, axis=0)
            for k, idx in enumerate(fixed_idx, 1):
                sums[k, b] += piece[:, idx].prod(axis=1) @ piece
            at += len(piece)
            if read + at == stops[b]:
                b += 1
        read += len(rows)
        rows = piece = None
    if read < n_frames:
        raise ValueError("the chunks hold fewer frames than the stream declares")

    mean_i = np.add.reduce(sums[0], axis=0) / n_frames
    if np.any(mean_i == 0):
        bad = int(np.flatnonzero(mean_i == 0)[0])
        raise DegeneratePixelError(f"pixel {bad} has zero mean intensity")

    # --- block bootstrap: the blocks and resample counts serve every set ---
    if n_frames >= 2:
        seed_seq = np.random.SeedSequence(entropy=(stream.seed, 0xB0075EED))
        rng = np.random.Generator(np.random.Philox(seed_seq))
        counts = rng.multinomial(n_blocks, np.full(n_blocks, 1.0 / n_blocks), size=_N_BOOT)
        block_len = np.asarray(sizes, dtype=float)[:, None]
        boot_mean_i = counts @ (sums[0] / block_len) / n_blocks  # (_N_BOOT, P)

    curves = []
    for fixed, idx, moment in zip(fixed_sets, fixed_idx, sums[1:]):
        m = len(fixed) + 1
        numerator = np.add.reduce(moment, axis=0) / n_frames  # (P,)
        values = numerator / (mean_i * float(np.prod(mean_i[idx])))
        if n_frames < 2:
            curves.append(CorrelationCurve(m=m, delta1=stream.delta_axis, values=values))
            continue

        boot_fixed = boot_mean_i[:, idx].prod(axis=1)  # (_N_BOOT,)
        boot_den = boot_mean_i * boot_fixed[:, None]
        if np.any(boot_den == 0):
            raise DegeneratePixelError("bootstrap resample hit a zero-mean pixel")
        boot_values = counts @ (moment / block_len) / n_blocks / boot_den  # (_N_BOOT, P)
        del boot_den
        curves.append(CorrelationCurve(m=m, delta1=stream.delta_axis, values=values,
                                       sigma=boot_values.std(axis=0, ddof=1), replicas=boot_values))
        del boot_values  # the curve holds a copy
    return tuple(curves)
