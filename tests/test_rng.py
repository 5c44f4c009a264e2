"""`stream_states` and `Draws` against numpy's own calls.

The states are a re-implementation of numpy's seeding, and the draw object
re-implements numpy's PCG64 and its integer, uniform and normal draws, so
these tests are what ties them to the installed numpy: a numpy release that
changed its seeding or its draws would fail here, not silently change the
streams of queries.  Each draw is checked against a numpy Generator twin,
value by value and state by state.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from problisp.rng import (_MASK64, _MASK128, _PCG64_MULT, _ZIGGURAT, Draws, derive_rng,
                          stream_states)

from _lang import draws_state, twin_state

# path integers: 0, negatives, one- and two-word values, and values of 2**64
# and up, which derive_rng masks to 64 bits
_PARTS = st.one_of(st.just(0), st.integers(-(1 << 70), -1), st.integers(1, 1 << 32),
                   st.integers(1 << 32, (1 << 64) - 1), st.integers(1 << 64, 1 << 70))
# up to 5 prefix integers: with a two-word index that passes the 4-word pool
_PREFIXES = st.lists(_PARTS, max_size=5).map(tuple)
# starts at 0, small, and just below the masked index's 2**32 and 2**64 word
# boundaries, so that a range can cross from 1-word to 2-word indices and back
_STARTS = st.one_of(st.integers(0, 40), st.integers((1 << 32) - 4, (1 << 32) + 2),
                    st.integers((1 << 64) - 4, (1 << 64) + 2), st.integers(-4, -1))


@settings(max_examples=400, deadline=None)
@given(_PREFIXES, _STARTS, st.integers(0, 6))
@example((), 0, 0)
@example((1, 2), 5, 0)
def test_states_equal_derive_rng(prefix, start, count):
    stop = start + count
    # a fresh generator has no half word waiting
    assert [(state, inc, None) for state, inc in stream_states(prefix, start, stop)] == \
        [twin_state(derive_rng(*prefix, i)) for i in range(start, stop)]


def _set_state(rng, state, inc):
    rng.bit_generator.state = {"bit_generator": "PCG64",
                               "state": {"state": state, "inc": inc},
                               "has_uint32": 0, "uinteger": 0}


def _draws(rng):
    out = [float(rng.normal()), float(rng.random()), [int(v) for v in rng.permutation(6)],
           int(rng.integers(0, 10))]
    if not rng.bit_generator.state["has_uint32"]:
        # small integers take 32-bit halves: leave one half buffered
        out.append(int(rng.integers(0, 10)))
    return out


@settings(max_examples=100, deadline=None)
@given(_PREFIXES, _STARTS, st.integers(1, 5))
def test_reused_generator_draws_like_fresh_ones(prefix, start, count):
    rng = derive_rng(7)
    for i, (state, inc) in enumerate(stream_states(prefix, start, start + count), start):
        _set_state(rng, state, inc)
        assert _draws(rng) == _draws(derive_rng(*prefix, i)), i
        # the buffered half must not leak into the next index's stream
        assert rng.bit_generator.state["has_uint32"] == 1


# `integer` bounds: no bits (1), Lemire on 32-bit words (up to 2**32), numpy's
# 64-bit integers (up to 2**63 - 1), and the masked word loop above that
_BOUNDS = (1, 2, 3, 10, 1_000_003, (1 << 31) + 5, (1 << 32) - 1, 1 << 32, (1 << 32) + 1,
           (1 << 63) - 1, 1 << 63, (1 << 64) + 1)
_PROBABILITIES = st.one_of(st.sampled_from([0, 1, 0.5]), st.floats(0, 1))
_OPS = st.one_of(
    st.tuples(st.just("integer"), st.sampled_from(_BOUNDS)),
    st.tuples(st.just("flip"), _PROBABILITIES),
    st.tuples(st.just("choose"), st.lists(st.floats(0.001, 1000), min_size=1, max_size=5)),
    st.tuples(st.just("normal"), st.floats(-100, 100), st.floats(0.001, 100)),
)


def _draw(draws, op):
    name, *args = op
    return getattr(draws, name)(*args)


def _numpy_draw(rng, op):
    """What numpy's calls on the Generator `rng` give for `op`."""
    name, *args = op
    if name == "integer":
        n, = args
        if n <= (1 << 63) - 1:
            return int(rng.integers(0, n))
        # whole 64-bit words, masked to n's bit length, until one is below n
        k = n.bit_length()
        while True:
            r = 0
            for w in range((k + 63) // 64):
                r |= int(rng.integers(0, 1 << 64, dtype=np.uint64)) << (64 * w)
            r &= (1 << k) - 1
            if r < n:
                return r
    if name == "flip":
        return bool(rng.random() < args[0])
    if name == "choose":
        weights, = args
        total = 0.0
        for w in weights:
            total += w
        u = rng.random() * total
        acc = 0.0
        for i, w in enumerate(weights):
            acc += w
            if u < acc:
                return i
        return len(weights) - 1
    return float(rng.normal(*args))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, (1 << 64) - 1), st.lists(_OPS, max_size=30))
@example(5, [("integer", n) for n in _BOUNDS] + [("integer", 10)])
@example(9, [("integer", 1), ("integer", 10), ("integer", 1), ("integer", 10)])
@example(3, [("integer", 10), ("flip", 0.5), ("integer", 10), ("normal", 0.0, 1.0),
             ("integer", 10), ("integer", 10), ("choose", [1.0, 2.0])])
def test_draws_equal_numpy_calls(seed, ops):
    draws, twin = Draws(seed), derive_rng(seed)
    for op in ops:
        assert _draw(draws, op) == _numpy_draw(twin, op), op
        # the same bits consumed, the waiting half word included
        assert draws_state(draws) == twin_state(twin), op


def _takes_bits(op):
    name, *args = op
    return not (name == "integer" and args[0] == 1)


def _stream(states, start):
    return lambda i: states[i - start]


@settings(max_examples=100, deadline=None)
@given(_PREFIXES, _STARTS, st.integers(1, 4), st.lists(_OPS, min_size=1, max_size=8))
def test_draws_follow_a_state_change_with_a_half_word_pending(prefix, start, count, ops):
    draws = Draws(7)
    states = stream_states(prefix, start, start + count)
    for i in range(start, start + count):
        while draws_state(draws)[2] is None:
            draws.integer(10)
        draws.pend(_stream(states, start), i)
        twin = derive_rng(*prefix, i)
        installed = False   # until an op takes bits, the old state stays
        for op in ops:
            installed = installed or _takes_bits(op)
            assert _draw(draws, op) == _numpy_draw(twin, op), (i, op)
            if installed:
                assert draws_state(draws) == twin_state(twin), (i, op)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, (1 << 64) - 1), st.lists(st.lists(_OPS, max_size=5), max_size=6))
@example(3, [[("integer", 10)], [("integer", 1)], [("integer", 10)],
             [("normal", 0.0, 1.0), ("integer", 10)],
             [("integer", (1 << 32) + 1), ("flip", 0.5)]])
def test_pend_across_sample_boundaries(seed, samples):
    # each sample pends its stream (index i of the prefix (seed,)); a pended
    # stream is installed, with no half word waiting, at the sample's first
    # op that takes bits, and a sample that takes none derives no stream
    states = stream_states((seed,), 0, len(samples))
    draws = Draws(seed)
    for i, ops in enumerate(samples):
        draws.pend(_stream(states, 0), i)
        twin = derive_rng(seed, i)
        for op in ops:
            assert _draw(draws, op) == _numpy_draw(twin, op), (i, op)
            assert draws_state(draws) == twin_state(twin), (i, op)
        assert (draws.pending is None) == any(map(_takes_bits, ops)), i


# `Draws.normal` is numpy's ziggurat: a word's low 8 bits pick a layer i, bit
# 8 is the sign and bits 9-60 the magnitude, accepted at once below ki[i].
_INV_MULT = pow(_PCG64_MULT, -1, 1 << 128)


def _state_before(word, inc, hi):
    """The PCG64 state whose next step outputs `word`: the stepped state
    has upper half `hi`, whose top 6 bits are XSL-RR's rotation, and a
    lower half that makes `hi ^ lo` the word rotated back."""
    rot = hi >> 58
    lo = hi ^ ((word << rot | word >> (64 - rot)) & _MASK64)
    return ((hi << 64 | lo) - inc) * _INV_MULT & _MASK128


def _ziggurat():
    Draws(1).normal(0.0, 1.0)   # the tables are read at the first normal draw
    return _ZIGGURAT


def test_normal_tables_have_a_row_per_layer():
    ki, wi, fi = _ziggurat()
    assert len(ki) == len(wi) == len(fi) == 256
    assert all(0 <= k < 1 << 52 for k in ki) and fi[0] == 1.0


@pytest.mark.parametrize("layer", range(256))
def test_normal_accepts_below_ki_exactly_as_numpy(layer):
    # a magnitude of ki - 1 takes one word and ki takes more (the tail at
    # layer 0, the wedge test above it), so every ki entry is pinned; what
    # the wedge and tail draw next is the crafted stream's own
    ki = _ziggurat()[0]
    rng = derive_rng(0)
    inc = twin_state(rng)[1]
    for magnitude in (ki[layer] - 1, ki[layer]):
        if magnitude < 0:
            continue
        for sign in (0, 1):
            for top in (0, 5):   # the 3 bits above the magnitude are unused
                word = top << 61 | magnitude << 9 | sign << 8 | layer
                state = _state_before(word, inc, (layer * 0x9E3779B97F4A7C15 + sign) & _MASK64)
                _set_state(rng, state, inc)
                draws = Draws(0)
                draws.pend(lambda i: (state, inc), 0)
                assert draws.normal(0.0, 1.0) == float(rng.normal(0.0, 1.0)), (magnitude, sign)
                assert draws_state(draws) == twin_state(rng), (magnitude, sign)


@pytest.mark.parametrize("seed", [1, 7, 12345])
def test_long_normal_streams_equal_numpy(seed):
    draws, twin = Draws(seed), derive_rng(seed)
    for mean, sd in ((0.0, 1.0), (2.0, 3.0), (-1e3, 1e-3)):
        assert [draws.normal(mean, sd) for _ in range(100_000)] == \
            twin.normal(mean, sd, size=100_000).tolist(), (mean, sd)
        assert draws_state(draws) == twin_state(twin), (mean, sd)
