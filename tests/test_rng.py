"""`stream_states` against numpy's own SeedSequence and PCG64.

The states are a re-implementation of numpy's seeding, so these tests are
what ties them to the installed numpy: a numpy release that changed its
seeding would fail here, not silently change the streams of queries.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from problisp.rng import derive_rng, stream_states

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
    assert stream_states(prefix, start, stop) == \
        [derive_rng(*prefix, i).bit_generator.state for i in range(start, stop)]


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
    for i, state in enumerate(stream_states(prefix, start, start + count), start):
        rng.bit_generator.state = state
        assert _draws(rng) == _draws(derive_rng(*prefix, i)), i
        # the buffered half must not leak into the next index's stream
        assert rng.bit_generator.state["has_uint32"] == 1
