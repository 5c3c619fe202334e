"""Monte Carlo thermal speckle frames and correlation estimation.

Each source emits a circular complex Gaussian amplitude per frame
(independent across sources and frames), so pixel p of frame r sees

    I[r, p] = | sum_l a[r, l] * exp(i * alpha_l * delta_p) |^2 .

Correlations are estimated as ratios of empirical moments over frames,
with a block bootstrap supplying per-pixel standard errors.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .correlation import CorrelationCurve, magic_positions
from .errors import DegeneratePixelError, GridCoverageError, OrderError
from .geometry import SourceGeometry, phase_prefactors

__all__ = [
    "SpeckleRun",
    "FrameStack",
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
        # min/max reject NaN and the infinities without a frame-sized mask
        if inten.size and not (inten.min() >= 0 and np.isfinite(inten.max())):
            raise ValueError("intensities must be finite and non-negative")
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

    def clipped_fraction(self) -> float:
        """Fraction of samples pinned at zero or the top quantization level.

        Meaningful after quantization; large values mean the ADC depth is
        destroying the intensity statistics.
        """
        inten = self.intensities
        top = inten.max()
        if top == 0:
            return 1.0
        return float(np.mean((inten == 0) | (inten == top)))


def _draw_amplitudes(run: SpeckleRun, frames: Sequence[int]) -> np.ndarray:
    """Complex source amplitudes, one row per listed frame.

    Frame r draws from the Philox stream keyed by run.seed at counter
    r << 192; one bit generator is reused, its counter reset per frame.
    """
    n = run.geometry.n_sources
    w = np.ones(n) if run.weights is None else np.asarray(run.weights)
    bitgen = np.random.Philox(key=run.seed)
    rng = np.random.Generator(bitgen)
    state = bitgen.state
    xi = np.empty((len(frames), n, 2))
    for i, frame in enumerate(frames):
        state["state"]["counter"][3] = frame
        bitgen.state = state
        rng.standard_normal(out=xi[i])
    return np.sqrt(w / 2.0) * (xi[..., 0] + 1j * xi[..., 1])


def _frame_chunks(n_frames: int) -> Iterator[tuple[int, int]]:
    """(start, stop) of each sampling chunk; none holds a single frame of several.

    A one-row complex product goes through zgemv and rounds differently from
    the rows of a larger product, so a one-frame tail joins the chunk before.
    """
    starts = list(range(0, n_frames, _CHUNK_FRAMES))
    if len(starts) > 1 and n_frames - starts[-1] == 1:
        starts.pop()
    return zip(starts, starts[1:] + [n_frames])


def _quantize_in_place(inten: np.ndarray, bits: int) -> None:
    """Round intensities to ADC counts; the maximum maps to 2^bits - 1."""
    top = float(inten.max())
    if top:
        inten *= float(2**bits - 1) / top
        np.rint(inten, out=inten)
    else:
        inten.fill(0.0)


def sample_frames(run: SpeckleRun) -> FrameStack:
    """Simulate the whole acquisition described by `run`.

    Draws per-frame source amplitudes, propagates them to the camera
    grid, and applies quantization if the run requests it.  Each chunk
    of frames is squared straight into the stack, so nothing frame-sized
    is held beside it.
    """
    alpha = np.asarray(phase_prefactors(run.geometry), dtype=float)
    field_matrix = np.exp(1j * alpha[:, None] * run.delta_axis[None, :])  # (n, P)

    intensities = np.empty((run.frames, run.delta_axis.size))
    for start, stop in _frame_chunks(run.frames):
        fields = _draw_amplitudes(run, range(start, stop)) @ field_matrix
        rows = intensities[start:stop]
        np.square(fields.real, out=rows)
        rows += np.square(fields.imag)
    if run.quantization_bits is not None:
        _quantize_in_place(intensities, run.quantization_bits)
    intensities.flags.writeable = False  # the stack adopts it

    return FrameStack(
        intensities=intensities,
        delta_axis=run.delta_axis,
        n_sources=run.geometry.n_sources,
        seed=run.seed,
        bits=run.quantization_bits,
    )


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


def estimate_g_m(
    stack: FrameStack,
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

    The pixel means, block means and bootstrap counts do not depend on the
    order, so they are computed once for all sets; each curve is the one
    its set gets alone, bit for bit, and replica row b is the same frame
    resample in every curve.
    """
    inten = stack.intensities
    n_frames, n_pixels = inten.shape
    fixed_sets = [tuple(int(p) for p in pixels) for pixels in fixed_pixel_sets]
    for fixed in fixed_sets:
        if len(fixed) < 1:
            raise OrderError("need at least one fixed detector (order >= 2)")
        for p in fixed:
            if not 0 <= p < n_pixels:
                raise ValueError(f"fixed pixel {p} outside 0..{n_pixels - 1}")

    mean_i = inten.mean(axis=0)
    if np.any(mean_i == 0):
        bad = int(np.flatnonzero(mean_i == 0)[0])
        raise DegeneratePixelError(f"pixel {bad} has zero mean intensity")

    # --- block bootstrap: the blocks and resample counts serve every set ---
    if n_frames >= 2:
        edges = np.array_split(np.arange(n_frames), min(_MAX_BLOCKS, n_frames))
        blocks = [slice(int(idx[0]), int(idx[-1]) + 1) for idx in edges]  # contiguous
        n_blocks = len(blocks)
        block_mean_i = np.array([inten[block].mean(axis=0) for block in blocks])
        if boot_seed is None:
            seed_seq = np.random.SeedSequence(entropy=(stack.seed, 0xB0075EED))
        else:
            seed_seq = np.random.SeedSequence(entropy=(boot_seed, 0xB0075EED))
        rng = np.random.Generator(np.random.Philox(seed_seq))
        counts = rng.multinomial(n_blocks, np.full(n_blocks, 1.0 / n_blocks), size=n_boot)
        boot_mean_i = counts @ block_mean_i / n_blocks  # (n_boot, P)

    curves = []
    for fixed in fixed_sets:
        m = len(fixed) + 1
        fixed_idx = np.asarray(fixed, dtype=int)
        fixed_product = inten[:, fixed_idx].prod(axis=1)  # (R,)
        numerator = fixed_product @ inten / n_frames  # (P,)
        values = numerator / (mean_i * float(np.prod(mean_i[fixed_idx])))
        if n_frames < 2:
            curves.append(CorrelationCurve(m=m, delta1=stack.delta_axis, values=values))
            continue

        block_num = np.array([
            fixed_product[block] @ inten[block] / (block.stop - block.start)
            for block in blocks
        ])
        boot_num = counts @ block_num / n_blocks  # (n_boot, P)
        boot_fixed = boot_mean_i[:, fixed_idx].prod(axis=1)  # (n_boot,)
        boot_den = boot_mean_i * boot_fixed[:, None]
        if np.any(boot_den == 0):
            raise DegeneratePixelError("bootstrap resample hit a zero-mean pixel")
        boot_values = boot_num / boot_den
        curves.append(CorrelationCurve(
            m=m,
            delta1=stack.delta_axis,
            values=values,
            sigma=boot_values.std(axis=0, ddof=1),
            replicas=boot_values,
        ))
    return tuple(curves)
