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

import numpy as np

from .correlation import CorrelationCurve, magic_positions
from .errors import DegeneratePixelError, GridCoverageError, OrderError
from .geometry import SourceGeometry, phase_prefactors

__all__ = [
    "SpeckleRun",
    "FrameStack",
    "FrameStream",
    "uniform_grid",
    "sample_frames",
    "nearest_magic_pixels",
    "estimate_g_m",
]

# frames sampled per chunk: about 1 MB of complex field at 120 pixels
_CHUNK_FRAMES = 512
# the block bootstrap resamples at most this many contiguous frame blocks
_MAX_BLOCKS = 256


def uniform_grid(pixels: int, lo: float = 0.0, hi: float = 2.0 * math.pi) -> np.ndarray:
    """Uniform camera grid of the given size over [lo, hi), endpoint excluded."""
    if pixels < 1:
        raise ValueError(f"need at least one pixel, got {pixels}")
    return np.linspace(lo, hi, pixels, endpoint=False)


@dataclass(frozen=True, eq=False)
class SpeckleRun:
    """Immutable description of one simulated acquisition.

    Parameters
    ----------
    geometry : SourceGeometry
        Source array being imaged.
    frames : int
        Number of independent speckle frames R.
    seed : int
        Philox key; together with the frame index it pins every frame.
    delta_axis : ndarray
        Strictly increasing detector offsets of the camera pixels.
    weights : tuple of float, optional
        Relative source intensities; equal if omitted.
    quantization_bits : int, optional
        If set, frames are quantized to this ADC depth after sampling.
    """

    geometry: SourceGeometry
    frames: int
    seed: int
    delta_axis: np.ndarray
    weights: tuple[float, ...] | None = None
    quantization_bits: int | None = None

    def __post_init__(self) -> None:
        if self.frames < 1:
            raise ValueError(f"need at least one frame, got {self.frames}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        axis = np.asarray(self.delta_axis, dtype=float)
        if axis.ndim != 1 or axis.size == 0:
            raise ValueError("delta_axis must be a non-empty 1-D array")
        if axis.size > 1 and not np.all(np.diff(axis) > 0):
            raise ValueError("delta_axis must be strictly increasing")
        axis = axis.copy()
        axis.flags.writeable = False
        object.__setattr__(self, "delta_axis", axis)
        if self.weights is not None:
            w = tuple(float(v) for v in self.weights)
            if len(w) != self.geometry.n_sources:
                raise ValueError(
                    f"need {self.geometry.n_sources} weights, got {len(w)}"
                )
            if any(not math.isfinite(v) or v <= 0 for v in w):
                raise ValueError("weights must be finite and positive")
            object.__setattr__(self, "weights", w)
        bits = self.quantization_bits
        if bits is not None and not 1 <= bits <= 16:
            raise ValueError(f"quantization bits must be in 1..16, got {bits}")


def _check_samples(inten: np.ndarray) -> None:
    # min/max reject NaN and the infinities without a frame-sized mask
    if inten.size and not (inten.min() >= 0 and np.isfinite(inten.max())):
        raise ValueError("intensities must be finite and non-negative")


@dataclass(frozen=True, eq=False)
class FrameStack:
    """Recorded intensities, frames x pixels, plus provenance.

    Adopts arrays that own their data and are read-only; copies anything else.
    """

    intensities: np.ndarray
    delta_axis: np.ndarray
    n_sources: int
    seed: int
    bits: int | None = None

    def __post_init__(self) -> None:
        inten = np.asarray(self.intensities, dtype=float)
        axis = np.asarray(self.delta_axis, dtype=float)
        if inten.ndim != 2:
            raise ValueError("intensities must be a frames x pixels array")
        if axis.shape != (inten.shape[1],):
            raise ValueError("delta_axis length must match the pixel count")
        _check_samples(inten)
        for name, arr in (("intensities", inten), ("delta_axis", axis)):
            if arr.flags.writeable or not arr.flags.owndata:
                arr = arr.copy()
                arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def n_frames(self) -> int:
        return int(self.intensities.shape[0])

    @property
    def n_pixels(self) -> int:
        return int(self.intensities.shape[1])

    def stream(self) -> FrameStream:
        """The stack as a stream of one chunk."""
        return FrameStream(
            chunks=(self.intensities,),
            n_frames=self.n_frames,
            delta_axis=self.delta_axis,
            n_sources=self.n_sources,
            seed=self.seed,
            bits=self.bits,
        )


@dataclass(eq=False)
class FrameStream:
    """One acquisition as chunks of frames x pixels rows, in frame order.

    `chunks` is read once; sampled chunks are drawn as they are read.  The
    sampler counts into the stream it returns the quantized samples it
    pins at zero or the top level.
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


def _draw_amplitudes(run: SpeckleRun, chunks: Iterable[tuple[int, int]]) -> Iterator[np.ndarray]:
    """Complex source amplitudes of each (start, stop) chunk, one row per frame.

    Frame r draws from the Philox stream keyed by run.seed at counter
    r << 192.  One bit generator serves every chunk, its counter reset per
    frame through a state of plain ints (numpy words cost a conversion each).
    """
    n = run.geometry.n_sources
    scale = np.sqrt((np.ones(n) if run.weights is None else np.asarray(run.weights)) / 2.0)
    bitgen = np.random.Philox(key=run.seed)
    rng = np.random.Generator(bitgen)
    state = bitgen.state
    state["state"] = {word: v.tolist() for word, v in state["state"].items()}
    state["buffer"] = state["buffer"].tolist()
    counter = state["state"]["counter"]
    for start, stop in chunks:
        xi = np.empty((stop - start, n, 2))
        for i, frame in enumerate(range(start, stop)):
            counter[3] = frame
            bitgen.state = state
            rng.standard_normal(out=xi[i])
        yield scale * (xi[..., 0] + 1j * xi[..., 1])


def _frame_chunks(n_frames: int) -> Iterator[tuple[int, int]]:
    """(start, stop) of each sampling chunk; none holds a single frame of several.

    A one-row complex product goes through zgemv and rounds differently from
    the rows of a larger product, so a one-frame tail joins the chunk before.
    """
    starts = list(range(0, n_frames, _CHUNK_FRAMES))
    if len(starts) > 1 and n_frames - starts[-1] == 1:
        starts.pop()
    return zip(starts, starts[1:] + [n_frames])


def _drawn_chunks(run: SpeckleRun) -> Iterator[np.ndarray]:
    """Unquantized intensities of each sampling chunk, in frame order."""
    alpha = np.asarray(phase_prefactors(run.geometry), dtype=float)
    field_matrix = np.exp(1j * alpha[:, None] * run.delta_axis[None, :])  # (n, P)
    for amplitudes in _draw_amplitudes(run, _frame_chunks(run.frames)):
        fields = amplitudes @ field_matrix
        rows = np.square(fields.real)
        rows += np.square(fields.imag, out=fields.imag)
        del fields  # not held while the chunk is read
        yield rows
        del rows  # nor the chunk while the next is drawn


def _quantized_chunks(run: SpeckleRun, stream: FrameStream) -> Iterator[np.ndarray]:
    # the ADC gain maps the acquisition's maximum to the top level, so a
    # first pass finds that maximum and the second draws the same frames again
    top = float(max(map(np.max, _drawn_chunks(run))))  # map holds no chunk while drawing
    level = float(2**run.quantization_bits - 1)
    for rows in _drawn_chunks(run):
        if top:
            rows *= level / top
            np.rint(rows, out=rows)
        else:
            rows.fill(0.0)
        stream.clipped += int(np.count_nonzero((rows == 0) | (rows == level)))
        yield rows
        del rows


def sample_frames(run: SpeckleRun) -> FrameStream:
    """The acquisition described by `run`, drawn chunk by chunk as it is read.

    Each chunk draws its frames' source amplitudes, propagates them to the
    camera grid and squares them, and is quantized if the run requests it.
    A quantized run draws every frame twice: once to find the maximum that
    sets the gain, and once to quantize and hand on.
    """
    stream = FrameStream(
        chunks=(),
        n_frames=run.frames,
        delta_axis=run.delta_axis,
        n_sources=run.geometry.n_sources,
        seed=run.seed,
        bits=run.quantization_bits,
    )
    quantized = run.quantization_bits is not None
    stream.chunks = _quantized_chunks(run, stream) if quantized else _drawn_chunks(run)
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
    if m < 2:
        raise OrderError(f"correlation order must be at least 2, got {m}")
    targets = magic_positions(m)
    if axis.size > 1:
        pitch_lo = axis[1] - axis[0]
        pitch_hi = axis[-1] - axis[-2]
    else:
        pitch_lo = pitch_hi = math.inf
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


def _block_rows(
    chunks: Iterable[np.ndarray], sizes: Sequence[int], pixel_sums: np.ndarray
) -> Iterator[np.ndarray]:
    """Rows of each bootstrap block in turn, read off consecutive chunks.

    A block inside one chunk is a view of it, and one that straddles chunks
    is gathered in a buffer: either is laid out as a slice of the whole
    stack, so its products round as that slice's do.  Each chunk's samples
    are checked, and `pixel_sums` continues over its rows as one axis-0 sum.
    """
    n_pixels = pixel_sums.size
    sizes = iter(sizes)
    want = next(sizes, 0)
    buffer = None
    held = 0  # rows of the current block already in the buffer
    first = True
    # no chunk is bound while the next is drawn: no enumerate, whose cached
    # result tuple keeps the last item, and each chunk is deleted when done
    for rows in chunks:
        rows = np.asarray(rows, dtype=float)
        if rows.ndim != 2 or rows.shape[1] != n_pixels:
            raise ValueError(f"chunks must be frames x {n_pixels} arrays")
        _check_samples(rows)
        summands = rows if first else np.concatenate((pixel_sums[None], rows))
        np.add.reduce(summands, axis=0, out=pixel_sums)
        del summands
        first = False
        at = 0
        while at < len(rows):
            if not want:
                raise ValueError("the chunks hold more frames than the stream declares")
            take = min(want - held, len(rows) - at)
            if not held and take == want:
                yield rows[at:at + take]
            else:
                if buffer is None or len(buffer) < want:
                    buffer = np.empty((want, n_pixels))
                buffer[held:held + take] = rows[at:at + take]
                held += take
                if held < want:
                    break
                yield buffer[:want]
                held = 0
            at += take
            want = next(sizes, 0)
        del rows
    if want:
        raise ValueError("the chunks hold fewer frames than the stream declares")


def estimate_g_m(
    frames: FrameStack | FrameStream,
    fixed_pixel_sets: Sequence[Sequence[int]],
    n_boot: int = 200,
    boot_seed: int | None = None,
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

    One pass over the chunks serves every set: it continues the pixel sums
    and, per contiguous frame block, the block means and each set's block
    sum of I_p * prod_j I_fj.  The numerator is the sum of those block sums,
    so a value can differ from the product over the whole stack in its last
    bits (at most R * 2^-52 relative); each sigma and replica is exactly
    the one a whole-stack pass gives, and replica row b is the same frame
    resample in every curve.
    """
    stream = frames.stream() if isinstance(frames, FrameStack) else frames
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

    # contiguous blocks of the sizes np.array_split gives
    n_blocks = min(_MAX_BLOCKS, n_frames)
    size, extra = divmod(n_frames, n_blocks)
    sizes = [size + 1] * extra + [size] * (n_blocks - extra)
    pixel_sums = np.zeros(n_pixels)
    block_mean_i = np.empty((n_blocks, n_pixels))
    block_sum = np.empty((len(fixed_sets), n_blocks, n_pixels))
    b = 0  # not enumerate, which holds the last block through the next draw
    for rows in _block_rows(stream.chunks, sizes, pixel_sums):
        block_mean_i[b] = rows.mean(axis=0)
        for k, idx in enumerate(fixed_idx):
            block_sum[k, b] = rows[:, idx].prod(axis=1) @ rows
        b += 1
        del rows

    mean_i = pixel_sums / n_frames
    if np.any(mean_i == 0):
        bad = int(np.flatnonzero(mean_i == 0)[0])
        raise DegeneratePixelError(f"pixel {bad} has zero mean intensity")

    # --- block bootstrap: the blocks and resample counts serve every set ---
    if n_frames >= 2:
        seed = stream.seed if boot_seed is None else boot_seed
        seed_seq = np.random.SeedSequence(entropy=(seed, 0xB0075EED))
        rng = np.random.Generator(np.random.Philox(seed_seq))
        counts = rng.multinomial(n_blocks, np.full(n_blocks, 1.0 / n_blocks), size=n_boot)
        boot_mean_i = counts @ block_mean_i / n_blocks  # (n_boot, P)
        del block_mean_i
        block_len = np.asarray(sizes, dtype=float)[:, None]

    curves = []
    for fixed, idx, sums in zip(fixed_sets, fixed_idx, block_sum):
        m = len(fixed) + 1
        numerator = np.add.reduce(sums, axis=0) / n_frames  # (P,)
        values = numerator / (mean_i * float(np.prod(mean_i[idx])))
        if n_frames < 2:
            curves.append(CorrelationCurve(m=m, delta1=stream.delta_axis, values=values))
            continue

        boot_fixed = boot_mean_i[:, idx].prod(axis=1)  # (n_boot,)
        boot_den = boot_mean_i * boot_fixed[:, None]
        if np.any(boot_den == 0):
            raise DegeneratePixelError("bootstrap resample hit a zero-mean pixel")
        boot_values = counts @ (sums / block_len) / n_blocks / boot_den  # (n_boot, P)
        del boot_den
        curves.append(CorrelationCurve(
            m=m,
            delta1=stream.delta_axis,
            values=values,
            sigma=boot_values.std(axis=0, ddof=1),
            replicas=boot_values,
        ))
        del boot_values  # the curve holds a copy
    return tuple(curves)
