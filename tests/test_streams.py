"""streams.seed_states against numpy's own SeedSequence seeding, state
for state and draw for draw."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from plselect import streams
from plselect.streams import STATE_BLOCK, generators, seed_states

# The SeedSequence port must hash as numpy's own at the numpy floor.
pytestmark = pytest.mark.numpy_floor

# SeedSequence splits an int into 32-bit words: one below 2**32, two below
# 2**64, three below 2**96, and so on.
seeds = st.one_of(
    st.integers(0, 2**32 - 1),
    st.integers(2**32 - 4, 2**32 + 4),
    st.integers(2**64 - 4, 2**64 + 4),
    st.integers(0, 2**160),
)
indices = st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=6)


def assert_starts_as(got, seq):
    """got is the Generator np.random.default_rng(seq) would be: equal
    state, and its first 8 random() and normal() draws equal bit for bit."""
    assert got.bit_generator.state == np.random.default_rng(
        seq).bit_generator.state
    start = got.bit_generator.state
    for draw in ("random", "normal"):
        got.bit_generator.state = start
        want = getattr(np.random.default_rng(seq), draw)(size=8)
        assert getattr(got, draw)(size=8).tobytes() == want.tobytes()


@settings(max_examples=150, deadline=None)
@given(seed=seeds, index=indices)
@example(seed=0, index=[0])
@example(seed=2**32 - 1, index=[2**32 - 1, 0])
@example(seed=2**32, index=[1199])
@example(seed=2**64, index=[7])
@example(seed=2**96 + 1, index=[3, 4])  # five entropy words
def test_seed_states_are_seedsequence_states(seed, index):
    assert len(seed_states(seed, index)) == len(index)
    for got, i in zip(generators(seed, index), index):
        assert_starts_as(got, np.random.SeedSequence([seed, i]))


@settings(max_examples=150, deadline=None)
@given(seed=seeds, index=indices, children=st.integers(1, 5))
@example(seed=0, index=[0], children=4)
@example(seed=2**32 + 5, index=[0, 49], children=4)
@example(seed=2**64, index=[10_000], children=4)  # five words with the key
def test_children_are_the_spawned_children(seed, index, children):
    want = [child for i in index
            for child in np.random.SeedSequence([seed, i]).spawn(children)]
    assert len(seed_states(seed, index, children)) == len(want)
    for got, child in zip(generators(seed, index, children), want):
        assert_starts_as(got, child)


def test_no_indices_no_states():
    assert seed_states(3, []) == []
    assert seed_states(3, [], 4) == []


def test_negative_seed_raises_as_seedsequence():
    with pytest.raises(ValueError):
        np.random.SeedSequence([-1, 0])
    with pytest.raises(ValueError):
        seed_states(-1, [0])


def test_generators_reuse_one_generator():
    got = list(generators(7, range(3)))
    assert len(got) == 3 and all(g is got[0] for g in got)


@pytest.mark.parametrize("children", [0, 2])
def test_streams_across_block_boundaries(children):
    # Three blocks, the last one partial; each index's generators are
    # SeedSequence's own.
    index = np.arange(2 * STATE_BLOCK + 3) * 7 + 5
    states = [rng.bit_generator.state
              for rng in generators(11, index, children)]
    want = [np.random.SeedSequence([11, i]) for i in index.tolist()]
    if children:
        want = [child for seq in want for child in seq.spawn(children)]
    assert len(states) == len(want)
    for got, seq in zip(states, want):
        assert got == np.random.default_rng(seq).bit_generator.state


def test_generators_hash_one_block_at_a_time(monkeypatch):
    calls = []
    real = streams.seed_states

    def spy(seed, indices, children=0):
        calls.append(len(indices))
        return real(seed, indices, children)

    monkeypatch.setattr(streams, "seed_states", spy)
    rngs = generators(3, np.arange(STATE_BLOCK + 1), 4)
    next(rngs)
    assert calls == [STATE_BLOCK]
    assert sum(1 for _ in rngs) == 4 * (STATE_BLOCK + 1) - 1
    assert calls == [STATE_BLOCK, 1]
