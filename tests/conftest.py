"""Shared fixtures: analytic curves, a reusable speckle acquisition, and the
filter-rule oracles."""

import itertools
import math
import os
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import specklescope
from specklescope import (
    CorrelationCurve,
    EvidenceRow,
    EvidenceTable,
    SourceGeometry,
    g_m_analytic,
    magic_positions,
    phase_prefactors,
    sample_frames,
    uniform_grid,
)
from specklescope.serialize import write_frames


def fresh_interpreter_env():
    """The environment for a child Python that imports this checkout's package."""
    src = str(Path(specklescope.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def held_frames(stream):
    """Every frame of `stream` as one frames x pixels array."""
    return np.concatenate(list(stream.chunks))


def save_frames(frames, path):
    """Archive a stream by reading it through the frame writer."""
    with write_frames(frames, path) as stream:
        for _ in stream.chunks:
            pass


def held_stack(frames):
    """The stream `frames` as a stream of one held chunk; the program only streams it.

    A tuple of chunks can be read again, so the stream serves several estimates.
    """
    return replace(frames, chunks=(held_frames(frames),))


def pair_distances(geometry):
    """Multiset of pairwise source distances |alpha_i - alpha_j|, i < j."""
    alpha = phase_prefactors(geometry)
    return Counter(b - a for a, b in itertools.combinations(alpha, 2))


def distinct_frequencies(geometry):
    """Sorted distinct pair distances; the spatial frequencies the array emits."""
    return tuple(sorted(pair_distances(geometry)))


def surviving_frequencies(geometry, m):
    """Pair distances visible at order m >= 3: with the m-1 fixed detectors at
    the magic offsets only the f divisible by m-1 survive."""
    return tuple(f for f in distinct_frequencies(geometry) if f % (m - 1) == 0)


def magic_curve(x, m, samples=None):
    """Noiseless order-m curve with fixed detectors at the magic offsets."""
    geometry = SourceGeometry(tuple(x))
    if samples is None:
        samples = max(8 * (geometry.span + 1), 64)
    scan = np.linspace(0.0, 2.0 * math.pi, samples, endpoint=False)
    return g_m_analytic(geometry, scan, magic_positions(m))


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
    return evidence_table(present, absent=absent, orders_measured=orders)


def evidence_table(present, absent=(), orders_measured=()):
    """Bare Present and Absent rows; the span hint is the largest Present frequency."""
    rows = {f: EvidenceRow(f, "present") for f in sorted(present)}
    rows.update((f, EvidenceRow(f, "absent")) for f in sorted(absent))
    return EvidenceTable(max(present, default=0), rows, tuple(orders_measured))


@pytest.fixture(scope="session")
def two_gap_stack():
    """3000 frames of x=(1,3) on a 120-pixel grid, shared across tests."""
    return held_stack(sample_frames(SourceGeometry((1, 3)), 3000, 7, uniform_grid(120)))
