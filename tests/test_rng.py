"""`stream_states` and `Draws` against numpy's own calls.

The states are a re-implementation of numpy's seeding, and the draw object
re-implements numpy's PCG64 and its integer, uniform and permutation draws,
so these tests are what ties them to the installed numpy: a numpy release
that changed its seeding or its draws would fail here, not silently change
the streams of queries.  Each draw is checked against a numpy Generator
twin, value by value and state by state.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from problisp.rng import Draws, as_draws, derive_rng, stream_states

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
    st.tuples(st.just("order"), st.integers(0, 9)),
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
    if name == "order":
        return [int(v) for v in rng.permutation(args[0])]
    return float(rng.normal(*args))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, (1 << 64) - 1), st.lists(_OPS, max_size=30))
@example(5, [("integer", n) for n in _BOUNDS] + [("integer", 10)])
@example(9, [("integer", 1), ("integer", 10), ("integer", 1), ("integer", 10)])
@example(3, [("integer", 10), ("flip", 0.5), ("integer", 10), ("normal", 0.0, 1.0),
             ("integer", 10), ("order", 5), ("integer", 10), ("choose", [1.0, 2.0])])
def test_draws_equal_numpy_calls(seed, ops):
    draws, twin = Draws(seed), derive_rng(seed)
    for op in ops:
        assert _draw(draws, op) == _numpy_draw(twin, op), op
        # the same bits consumed, the waiting half word included
        assert draws_state(draws) == twin_state(twin), op


def _takes_bits(op):
    name, *args = op
    return not (name == "integer" and args[0] == 1 or name == "order" and args[0] < 2)


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
@given(st.integers(0, (1 << 64) - 1),
       st.lists(st.tuples(st.booleans(), st.lists(_OPS, max_size=5)), max_size=6))
@example(3, [(False, [("integer", 10)]), (True, [("integer", 1), ("order", 1)]),
             (False, [("integer", 10)]), (True, [("normal", 0.0, 1.0), ("integer", 10)]),
             (True, [("integer", (1 << 32) + 1), ("flip", 0.5)])])
def test_pend_and_settle_across_sample_boundaries(seed, samples):
    # each sample pends its stream (index i of the prefix (seed,)) or settles;
    # a pended stream is installed, with no half word waiting, at the
    # sample's first op that takes bits, and a sample that takes none leaves
    # the state as it was
    states = stream_states((seed,), 0, len(samples))
    draws, twin = Draws(seed), derive_rng(seed)
    for i, (pend, ops) in enumerate(samples):
        pending = pend
        if pend:
            draws.pend(_stream(states, 0), i)
        else:
            draws.settle()
        for op in ops:
            if pending and _takes_bits(op):
                twin, pending = derive_rng(seed, i), False
            assert _draw(draws, op) == _numpy_draw(twin, op), (i, op)
            assert draws_state(draws) == twin_state(twin), (i, op)
    draws.settle()
    assert draws.integer(1000) == int(twin.integers(0, 1000))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, (1 << 64) - 1), st.lists(st.tuples(st.booleans(), _OPS), max_size=20))
def test_an_adopted_generator_advances_as_if_numpy_drew(seed, ops):
    # draws through `as_draws(rng)` and numpy's own calls on `rng` interleave
    rng, twin = derive_rng(seed), derive_rng(seed)
    draws = as_draws(rng)
    for direct, op in ops:
        got = _numpy_draw(rng, op) if direct else _draw(draws, op)
        assert got == _numpy_draw(twin, op), op
        assert twin_state(rng) == twin_state(twin), op
