"""Shared fixtures: analytic curves and a reusable speckle acquisition."""

import numpy as np
import pytest

from specklescope import (
    CorrelationCurve,
    DetectorArray,
    EvidenceTable,
    FrameStack,
    SourceGeometry,
    SpeckleRun,
    distinct_frequencies,
    g_m_analytic,
    sample_frames,
    surviving_frequencies,
    uniform_grid,
)


def held_stack(run):
    """The whole acquisition of `run` held as one FrameStack; the program only streams it."""
    frames = sample_frames(run)
    intensities = np.concatenate(list(frames.chunks))
    intensities.flags.writeable = False
    return FrameStack(intensities, frames.delta_axis, frames.n_sources, frames.seed, frames.bits)


def magic_curve(x, m, samples=None):
    """Noiseless order-m curve with fixed detectors at the magic offsets."""
    geometry = SourceGeometry(tuple(x))
    if samples is None:
        samples = max(8 * (geometry.span + 1), 64)
    return g_m_analytic(geometry, DetectorArray.magic_scan(m, samples))


def noisy_curve(x, m, sigma, rows, seed=0):
    """magic_curve plus white noise of known sigma, with `rows` noisy replicas."""
    exact = magic_curve(x, m)
    rng = np.random.default_rng(seed)
    noise = rng.normal(0.0, sigma, size=(rows + 1, len(exact)))
    return CorrelationCurve(
        m=m,
        delta1=exact.delta1,
        values=exact.values + noise[0],
        sigma=np.full(len(exact), sigma),
        replicas=exact.values + noise[1:] if rows else None,
    )


def evidence_for(x, orders):
    """Noiseless evidence a perfect pipeline would produce for gaps x."""
    geometry = SourceGeometry(tuple(x))
    present = sorted(
        {f for m in orders for f in surviving_frequencies(geometry, m)}
    )
    hint = max(present, default=0)
    distances = set(distinct_frequencies(geometry))
    absent = [
        f
        for f in range(1, hint + 1)
        if f not in distances and any(f % (m - 1) == 0 for m in orders)
    ]
    return EvidenceTable.from_sets(present, absent=absent, orders_measured=orders)


@pytest.fixture(scope="session")
def two_gap_stack():
    """3000 frames of x=(1,3) on a 120-pixel grid, shared across tests."""
    run = SpeckleRun(
        geometry=SourceGeometry((1, 3)),
        frames=3000,
        seed=7,
        delta_axis=uniform_grid(120),
    )
    return held_stack(run)
