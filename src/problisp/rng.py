"""Deterministic random streams, the draw object and the stochastic primitives.

Streams are numpy's PCG64, seeded by numpy's SeedSequence from an integer
path such as (seed, index), so a path yields the same stream however many
others were made.  `stream_states` re-implements that seeding for many
paths that differ only in their last integer, in one pass.  `Draws`, the
one draw object an evaluation draws through, steps PCG64 itself and gives
numpy's values and bytes; numpy is imported only by `derive_rng`, `normal`
draws and integer bounds above 2**32.  `NO_SOURCE` stands in for it in a
context with no random source.  The primitives `random_integer`, `flip`
and `normal` check their arguments and then draw from a draw object.
"""

from __future__ import annotations

import functools
import struct
import sys

from .errors import EvalError

_MASK64 = (1 << 64) - 1


def _entropy(parts):
    return tuple(int(p) & _MASK64 for p in parts)


def derive_rng(*path):
    """Independent numpy generator for an integer path such as (seed, query,
    index)."""
    import numpy as np

    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(_entropy(path))))


# numpy's SeedSequence (numpy/random/bit_generator.pyx) and PCG64 seeding
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_NEG_R = 0xCA01F9DD, (1 << 32) - 0x4973F715
_XSHIFT = 16
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def stream_states(prefix, start, stop):
    """The PCG64 (state, inc) of `derive_rng(*prefix, i)` for i in
    range(start, stop), computed for all the indices in one pass."""
    head = []   # SeedSequence's uint32 entropy words of the masked prefix
    for part in _entropy(prefix):
        head.append(part & _MASK32)
        if part >> 32:
            head.append(part >> 32)
    states = []
    while start < stop:
        # a run of indices whose masked values all have 1 (or all 2) words
        low = start & _MASK64
        width = 1 if low >> 32 == 0 else 2
        end = min(stop, start + (1 << 32 * width) - low)
        states += _lane_states(head, range(low, low + end - start), width)
        start = end
    return states


def _hash_consts(h, mult, count):
    """SeedSequence's first `count` hash constants as (xor, mult) pairs:
    each hash XORs in one constant and multiplies by the next."""
    out = [h]
    for _ in range(count):
        out.append(out[-1] * mult & _MASK32)
    return tuple(zip(out, out[1:]))


_GENERATE = _hash_consts(_INIT_B, _MULT_B, 8)


@functools.cache
def _mixing(extra):
    """The pool fill's hash constants, and (src, dst, xor, mult) for each
    later mixing step, when `extra` entropy words do not fit in the pool:
    every pool word into every other, then each extra word into each."""
    steps = [(src, dst) for src in range(_POOL_SIZE)
             for dst in range(_POOL_SIZE) if src != dst]
    steps += [(_POOL_SIZE + k, dst) for k in range(extra) for dst in range(_POOL_SIZE)]
    consts = _hash_consts(_INIT_A, _MULT_A, _POOL_SIZE + len(steps))
    return consts[:_POOL_SIZE], tuple(
        (src, dst, xor, mult) for (src, dst), (xor, mult) in zip(steps, consts[_POOL_SIZE:]))


def _lane_states(head, indices, width):
    """PCG64 states of the entropy words `head` followed by each index's
    `width` words.  Lane k of every packed int holds a uint32 of index k in
    its low 32 bits; masking after each multiply and shift keeps carries in
    their lane."""
    n = len(indices)
    ones = int.from_bytes(b"\1\0\0\0\0\0\0\0" * n, "little")
    m32 = _MASK32 * ones
    packed = int.from_bytes(struct.pack(f"<{n}Q", *indices), "little")
    entropy = [w * ones for w in head]
    entropy += [packed] if width == 1 else [packed & m32, packed >> 32 & m32]
    fill, steps = _mixing(max(0, len(entropy) - _POOL_SIZE))

    # hashmix(v) is v ^= xor; v *= mult; v ^= v >> 16, all mod 2**32.  The
    # pool is followed by the entropy words that did not fit in it.
    pool = entropy + [0] * (_POOL_SIZE - len(entropy))
    for i, (xor, mult) in enumerate(fill):
        v = (pool[i] ^ xor * ones) * mult & m32
        pool[i] = (v ^ v >> _XSHIFT) & m32
    for src, dst, xor, mult in steps:
        # mix(dst, hashmix(src)): L*dst - R*h = L*dst + (2**32 - R)*h mod
        # 2**32, and (L*dst mod 2**32) + (2**32 - R)*h < 2**64 stays in its lane
        h = (pool[src] ^ xor * ones) * mult & m32
        h = (h ^ h >> _XSHIFT) & m32
        r = ((pool[dst] * _MIX_MULT_L & m32) + h * _MIX_NEG_R) & m32
        pool[dst] = (r ^ r >> _XSHIFT) & m32
    # generate_state(4, np.uint64): eight hashmixed uint32 words, paired
    # little-endian
    words = []
    for i, (xor, mult) in enumerate(_GENERATE):
        v = (pool[i % _POOL_SIZE] ^ xor * ones) * mult & m32
        words.append((v ^ v >> _XSHIFT) & m32)
    fmt = f"<{n}Q"
    seed_hi, seed_lo, seq_hi, seq_lo = [
        struct.unpack(fmt, (words[j] | words[j + 1] << 32).to_bytes(8 * n, "little"))
        for j in (0, 2, 4, 6)]

    # PCG64 seeding: from state 0, one LCG step, add the seed, one more step
    incs = [((c << 64 | d) << 1 | 1) & _MASK128 for c, d in zip(seq_hi, seq_lo)]
    return [(((inc + (a << 64 | b)) * _PCG64_MULT + inc) & _MASK128, inc)
            for a, b, inc in zip(seed_hi, seed_lo, incs)]


_WORD32 = 1 << 32
_UNIT = 2.0 ** -53   # a uniform double is the top 53 bits of a word times this
_NO_SOURCE_TEXT = "no random source available in this context"
_NO_SAMPLING_SOURCE_TEXT = "no random source available for sampling"


def randint_below(rng, n):
    """Uniform integer in [0, n) from the numpy Generator `rng`, for
    arbitrary-precision n."""
    if n <= (1 << 63) - 1:
        return int(rng.integers(0, n))
    k = n.bit_length()
    words = (k + 63) // 64
    while True:
        r = 0
        for w in range(words):
            r |= int(rng.integers(0, 1 << 64, dtype="uint64")) << (64 * w)
        r &= (1 << k) - 1
        if r < n:
            return r


def _path_state(path):
    *prefix, last = _entropy(path)
    return stream_states(prefix, last, last + 1)[0]


class Draws:
    """Every random choice of an evaluation, drawn from one PCG64 stream:
    at first the stream of `derive_rng(*path)`, derived at the first draw.

    Each method returns what its numpy call returns and consumes the same
    bits: `integer(n)` is `Generator.integers(0, n)`, `flip(p)` is
    `Generator.random() < p`, `choose(weights)` scales one
    `Generator.random()` by the total weight, `order(k)` is
    `Generator.permutation(k)` and `normal(mean, sd)` is
    `Generator.normal(mean, sd)`.  The state is numpy's: the LCG state, its
    increment, and the upper half of a word that a 32-bit draw left (None
    when no half waits).  A step advances the LCG and outputs the XSL-RR
    word of the new state.  `normal` and bounds above 2**32 hand the state
    to a numpy Generator and take it back.  `loc` is where a missing random
    source is reported (see `NO_SOURCE`).  `pend` leaves a sample's stream
    pending until the sample's first draw, which sets it with no half word
    waiting; `settle` drops it.
    """

    __slots__ = ("_state", "_inc", "_half", "_pending", "_unseeded", "_generator")

    def __init__(self, *path):
        self._pending = self._unseeded = _path_state, path
        self._generator = None

    def pend(self, states, i):
        """Draw next from the stream whose (state, inc) is `states(i)`."""
        self._pending = states, i

    def settle(self):
        """Drop any pending stream and draw on from the current state."""
        self._pending = self._unseeded

    def _install(self):
        states, i = self._pending
        self._state, self._inc = states(i)
        self._half = self._pending = self._unseeded = None

    def _uint32(self):
        if self._pending is not None:
            self._install()
        u = self._half
        if u is not None:
            self._half = None
            return u
        s = self._state = (self._state * _PCG64_MULT + self._inc) & _MASK128
        v, r = (s >> 64 ^ s) & _MASK64, s >> 122
        w = (v >> r | v << 64 - r) & _MASK64
        self._half = w >> 32
        return w & _MASK32

    def _give(self, generator):
        half = self._half
        generator.bit_generator.state = {
            "bit_generator": "PCG64", "state": {"state": self._state, "inc": self._inc},
            "has_uint32": int(half is not None), "uinteger": half or 0}

    def _take(self, generator):
        state = generator.bit_generator.state
        self._state, self._inc = state["state"]["state"], state["state"]["inc"]
        self._half = state["uinteger"] if state["has_uint32"] else None

    def _numpy(self, draw):
        """`draw(generator)` on a numpy Generator given this object's state,
        which this object then takes back."""
        if self._pending is not None:
            self._install()
        if self._generator is None:
            self._generator = derive_rng(0)
        self._give(self._generator)
        value = draw(self._generator)
        self._take(self._generator)
        return value

    def integer(self, n, loc=None):
        """Uniform integer in [0, n), for n >= 1."""
        if n > _WORD32:
            return self._numpy(lambda generator: randint_below(generator, n))
        if n == 1:
            return 0    # numpy draws nothing for a one-value range
        # numpy's buffered_bounded_lemire_uint32 with rng_excl = n, on an
        # inline `_uint32`
        if self._pending is not None:
            self._install()
        u = self._half
        if u is None:
            s = self._state = (self._state * _PCG64_MULT + self._inc) & _MASK128
            v, r = (s >> 64 ^ s) & _MASK64, s >> 122
            w = (v >> r | v << 64 - r) & _MASK64
            self._half, u = w >> 32, w & _MASK32
        else:
            self._half = None
        m = u * n
        if m & _MASK32 < n:
            threshold = (_WORD32 - n) % n
            while m & _MASK32 < threshold:
                m = self._uint32() * n
        return m >> 32

    def flip(self, p, loc=None):
        """True with probability p."""
        if self._pending is not None:
            self._install()
        s = self._state = (self._state * _PCG64_MULT + self._inc) & _MASK128
        v, r = (s >> 64 ^ s) & _MASK64, s >> 122
        return (((v >> r | v << 64 - r) & _MASK64) >> 11) * _UNIT < p

    def choose(self, weights):
        """Index i with probability weights[i] / sum(weights)."""
        total = 0.0
        for w in weights:
            total += w
        if self._pending is not None:
            self._install()
        s = self._state = (self._state * _PCG64_MULT + self._inc) & _MASK128
        v, r = (s >> 64 ^ s) & _MASK64, s >> 122
        u = (((v >> r | v << 64 - r) & _MASK64) >> 11) * _UNIT * total
        acc = 0.0
        for i, w in enumerate(weights):
            acc += w
            if u < acc:
                return i
        return len(weights) - 1

    def order(self, k):
        """A uniformly random permutation of range(k), as a list: each i
        from k-1 down to 1 swaps with a j <= i, a 32-bit draw masked to i's
        bit length and drawn again while above i."""
        out = list(range(k))
        for i in range(k - 1, 0, -1):
            mask = (1 << i.bit_length()) - 1
            j = self._uint32() & mask
            while j > i:
                j = self._uint32() & mask
            out[i], out[j] = out[j], out[i]
        return out

    def normal(self, mean, sd, loc=None):
        """Gaussian draw with the given mean and standard deviation."""
        return self._numpy(lambda generator: float(generator.normal(mean, sd)))


class _SharedDraws(Draws):
    """The draws of a caller's numpy Generator: each draw starts from the
    generator's state (or a pending stream) and leaves its own there, so the
    generator advances as if numpy had made the draw."""

    __slots__ = ()

    def __init__(self, generator):
        self._generator, self._pending, self._unseeded = generator, None, None

    def _shared(draw):
        def shared(self, *args):
            if self._pending is None:
                self._take(self._generator)
            value = draw(self, *args)
            self._give(self._generator)
            return value
        return shared

    integer, flip, choose, order, normal = map(
        _shared, (Draws.integer, Draws.flip, Draws.choose, Draws.order, Draws.normal))
    del _shared


class _NoSource:
    """The draws of a context with no random source: every draw is an error."""

    __slots__ = ()

    def integer(self, n, loc=None):
        raise EvalError(_NO_SOURCE_TEXT, loc)

    def flip(self, p, loc=None):
        raise EvalError(_NO_SOURCE_TEXT, loc)

    def normal(self, mean, sd, loc=None):
        raise EvalError(_NO_SOURCE_TEXT, loc)

    def choose(self, weights):
        raise EvalError(_NO_SAMPLING_SOURCE_TEXT)

    def order(self, k):
        raise EvalError(_NO_SAMPLING_SOURCE_TEXT)


NO_SOURCE = _NoSource()


def as_draws(source):
    """The draw object for `source`: a numpy Generator is adopted, so that
    its draws advance it (`_SharedDraws`), None gives `NO_SOURCE`, and
    anything else is a draw object already."""
    if source is None:
        return NO_SOURCE
    numpy = sys.modules.get("numpy")   # a Generator means numpy is loaded
    if numpy is not None and isinstance(source, numpy.random.Generator):
        return _SharedDraws(source)
    return source


def random_integer(n, rng, loc=None):
    """Uniform draw from {0, ..., n-1}, from the draw object `rng`."""
    if isinstance(n, bool) or not isinstance(n, int):
        raise EvalError("random-integer expects an integer", loc)
    if n <= 0:
        raise EvalError(f"random-integer expects a positive bound, got {n}", loc)
    return rng.integer(n, loc)


def normal(mean, stdev, rng, loc=None):
    """Gaussian draw from the draw object `rng`; a zero stdev returns the
    mean exactly.  An integer too large for a real is a language error."""
    for v in (mean, stdev):
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise EvalError("normal expects numeric mean and stdev", loc)
    if stdev < 0:
        raise EvalError(f"normal expects a nonnegative stdev, got {stdev}", loc)
    try:
        mean, stdev = float(mean), float(stdev)   # as numpy takes them
    except OverflowError:
        raise EvalError("arithmetic overflow in normal", loc) from None
    if stdev == 0:
        return mean
    return rng.normal(mean, stdev, loc)


def flip(p, rng, loc=None):
    """True with probability p, from the draw object `rng`."""
    if isinstance(p, bool) or not isinstance(p, (int, float)):
        raise EvalError("flip expects a numeric probability", loc)
    if not 0 <= p <= 1:
        raise EvalError(f"flip expects a probability in [0, 1], got {p}", loc)
    return rng.flip(p, loc)
