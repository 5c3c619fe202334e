"""Gap sequences, pair distances, and the reflection symmetry."""

from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import distinct_frequencies, pair_distances
from specklescope import GeometryError, SourceGeometry, phase_prefactors

gap_lists = st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=5)


def test_positions_are_prefix_sums():
    g = SourceGeometry((3, 1, 4))
    assert phase_prefactors(g) == (0, 3, 4, 8)
    assert g.span == 8
    assert g.n_sources == 4


def test_pair_distance_multiset():
    g = SourceGeometry((3, 1, 4))
    assert pair_distances(g) == Counter({1: 1, 3: 1, 4: 2, 5: 1, 8: 1})
    assert distinct_frequencies(g) == (1, 3, 4, 5, 8)


@given(gap_lists)
def test_every_source_pair_counts_once(x):
    g = SourceGeometry(tuple(x))
    n = g.n_sources
    assert sum(pair_distances(g).values()) == n * (n - 1) // 2


@given(gap_lists)
def test_reflection_preserves_distances(x):
    g = SourceGeometry(tuple(x))
    assert pair_distances(g) == pair_distances(SourceGeometry(g.x[::-1]))
    assert SourceGeometry(g.x[::-1][::-1]) == g


@given(gap_lists)
def test_frequencies_fill_up_to_the_span(x):
    g = SourceGeometry(tuple(x))
    freqs = distinct_frequencies(g)
    assert max(freqs) == g.span
    assert all(1 <= f <= g.span for f in freqs)


def test_single_source_has_no_pairs():
    lone = SourceGeometry(())
    assert lone.n_sources == 1
    assert lone.span == 0
    assert pair_distances(lone) == Counter()


@pytest.mark.parametrize("bad", [(0,), (-1, 2), (2, 0, 1)])
def test_gaps_must_be_positive(bad):
    with pytest.raises(GeometryError):
        SourceGeometry(bad)


def test_gap_sequences_normalize_to_tuples():
    assert SourceGeometry([3, 1, 4]).x == (3, 1, 4)
    assert SourceGeometry([3, 1, 4]) == SourceGeometry((3, 1, 4))
