"""Many seeded numpy generators at the cost of one.

np.random.default_rng(np.random.SeedSequence(entropy, spawn_key=key))
hashes the entropy's 32-bit words into a pool of four (mix_entropy),
hashes the pool into eight words (generate_state) and seeds a PCG64 from
them (O'Neill, 2014). NEP 19 keeps these steps fixed across numpy
versions. Here both hashes run as uint32 array arithmetic over a block
of seeds at once, and the two PCG64 seeding steps in Python ints, so
each seed costs one state assignment on a reused Generator instead of
three new objects. Every constant is an np.uint32, so that numpy's older type
promotion cannot widen the arithmetic.
"""

from __future__ import annotations

import numpy as np

_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF
_XSHIFT = np.uint32(16)
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1

# Indices whose states generators hashes at once: a default search's 50
# generations and a default scene's route points each fit in one block.
STATE_BLOCK = 1024


def _words(n) -> list:
    """The little-endian 32-bit words SeedSequence splits an int into; 0
    is one word."""
    n = int(n)
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def _hash_constants(init, mult):
    """SeedSequence's running hash constant, in pairs (before, after one
    step). It does not depend on the data, so every row shares it."""
    while True:
        step = init * mult & _MASK32
        yield np.uint32(init), np.uint32(step)
        init = step


def _hashmix(value, constants):
    before, after = next(constants)
    value = (value ^ before) * after
    return value ^ (value >> _XSHIFT)


def _mix(x, y):
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ (result >> _XSHIFT)


def seed_states(seed: int, indices, children: int = 0) -> list:
    """The (state, inc) pair of the PCG64 that np.random.default_rng gives
    SeedSequence([seed, i]) for each i of indices (each below 2**32).

    With children > 0, the pairs of SeedSequence([seed, i]).spawn(children)
    instead: each child k is SeedSequence([seed, i], spawn_key=(k,)), and
    the pairs run i-major.
    """
    index = np.asarray(indices, dtype=np.uint32)
    entropy = [*_words(seed), index]
    if children:
        entropy[-1] = np.repeat(index, children)
        # Before a spawn key, SeedSequence pads the entropy with zeros to
        # the pool size.
        entropy += [0] * (_POOL_SIZE - len(entropy))
        entropy.append(np.tile(np.arange(children, dtype=np.uint32),
                               len(index)))
    rows = len(entropy[-1])
    # One column of words per entropy word, one row per seed.
    words = [np.full(rows, w, np.uint32) if isinstance(w, int) else w
             for w in entropy]

    # mix_entropy: a pool longer than the entropy hashes zeros.
    constants = _hash_constants(0x43B0D7E5, 0x931E8875)
    pool = [_hashmix(w, constants) for w in (
        words + [np.zeros(rows, np.uint32)] * _POOL_SIZE)[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], constants))
    # Entropy past the pool size is mixed into every pool word.
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], _hashmix(word, constants))

    # generate_state(4, np.uint64): eight words, paired little-endian.
    constants = _hash_constants(0x8B51F9DD, 0x58F38DED)
    out = [_hashmix(pool[i % _POOL_SIZE], constants).astype(np.uint64)
           for i in range(8)]
    val = [(out[i] | out[i + 1] << np.uint64(32)).tolist()
           for i in range(0, 8, 2)]

    # pcg64_set_seed: initstate val[0]:val[1], initseq val[2]:val[3] as
    # 128-bit ints, then the two PCG64 steps of pcg_setseq_128_srandom_r.
    states = []
    for s_hi, s_lo, q_hi, q_lo in zip(*val):
        inc = (q_hi << 65 | q_lo << 1 | 1) & _MASK128
        state = ((inc + (s_hi << 64 | s_lo)) * _PCG64_MULT + inc) & _MASK128
        states.append((state, inc))
    return states


def generators(seed: int, indices, children: int = 0):
    """One Generator, set in turn to each (state, inc) pair that
    seed_states(seed, indices, children) gives.

    The states are hashed STATE_BLOCK indices at a time, as the loop
    reaches them, so a long stream holds one block's states at once. Each
    pair yields the same object, so draw all of a pair's values before
    taking the next.
    """
    rng = np.random.Generator(np.random.PCG64(0))
    bit_generator = rng.bit_generator
    indices = np.asarray(indices)
    for start in range(0, len(indices), STATE_BLOCK):
        block = indices[start:start + STATE_BLOCK]
        for state, inc in seed_states(seed, block, children):
            bit_generator.state = {
                "bit_generator": "PCG64",
                "state": {"state": state, "inc": inc},
                "has_uint32": 0,
                "uinteger": 0,
            }
            yield rng
