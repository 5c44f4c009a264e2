"""Deterministic random streams, the draw object and the stochastic primitives.

The bit generator is numpy's PCG64.  Independent streams are derived from an
integer path (seed, index, ...) fed to SeedSequence as entropy, so the same
(seed, sample-index) pair always yields the same stream regardless of how
many other streams were created, and parallel and serial sampling agree.

`stream_states` computes the PCG64 states of many such paths, differing only
in their last integer, in one pass: it re-implements numpy's SeedSequence
hash and PCG64 seeding with every path in its own 64-bit lane of one Python
int.  Setting those states on one reused generator draws exactly the bytes
that `derive_rng` would, at a fraction of the cost of building a generator.

`Draws` is the one draw object an evaluation makes its random choices
through: `integer`, `flip` and `normal` for the primitives, `choose` and
`order` for the concept sampler.  It wraps one numpy Generator and gives
numpy's values and bytes, drawing integers below 2**32 and uniform floats
from the bit generator's C functions without numpy's per-call overhead.
`NO_SOURCE` stands in for it in a context with no random source.  The
primitives `random_integer`, `flip` and `normal` check their arguments and
then draw from the draw object they are given.

A batch of samples gives each sample's index to the draw object, which sets
that index's stream state on the generator at the sample's first draw: a
sample that draws nothing, such as every sample of a query whose only prior
the optimizer pinned, derives no stream.
"""

from __future__ import annotations

import functools
import struct

import numpy as np

from .errors import EvalError

_MASK64 = (1 << 64) - 1


def _entropy(parts):
    return tuple(int(p) & _MASK64 for p in parts)


def derive_rng(*path):
    """Independent generator for an integer path such as (seed, query, index)."""
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
    """`derive_rng(*prefix, i).bit_generator.state` for i in range(start, stop),
    computed for all the indices in one pass."""
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
    states = []
    for a, b, c, d in zip(seed_hi, seed_lo, seq_hi, seq_lo):
        inc = ((c << 64 | d) << 1 | 1) & _MASK128
        state = ((inc + (a << 64 | b)) * _PCG64_MULT + inc) & _MASK128
        states.append({"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                       "has_uint32": 0, "uinteger": 0})
    return states


_WORD32 = 1 << 32
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
            r |= int(rng.integers(0, 1 << 64, dtype=np.uint64)) << (64 * w)
        r &= (1 << k) - 1
        if r < n:
            return r


class Draws:
    """Every random choice of an evaluation, drawn from one numpy Generator.

    Each method returns what its numpy call returns and consumes the same
    bits, so a program draws the same bytes through either:
    `integer(n)` is `Generator.integers(0, n)`, `flip(p)` is
    `Generator.random() < p`, `choose(weights)` scales one
    `Generator.random()` by the total weight, `order(k)` is
    `Generator.permutation(k)` and `normal(mean, sd)` is
    `Generator.normal(mean, sd)`.  `integer` below 2**32 and the uniform
    draws call the bit generator's C functions `next_uint32` and
    `next_double` directly, skipping numpy's per-call overhead; `integer`
    runs Lemire's nearly divisionless method on 32-bit words, as numpy
    does.  numpy keeps the unused half of a 64-bit word for the next
    `next_uint32` in the bit generator's own state, so these calls and
    numpy's share it, and setting `bit_generator.state` resets it.  `loc`
    is where a missing random source is reported (see `NO_SOURCE`).

    `pend` leaves a sample's stream pending: its state is set on the
    generator just before the sample's first draw, by whichever method makes
    it, so a sample that draws nothing costs no stream state at all.  While
    a stream is pending, `_uint32` and `_double` point at installing
    trampolines that put the C functions back, so the fast paths check
    nothing per draw.  `settle` drops a pending stream.  Nothing else sets
    the generator's state.
    """

    __slots__ = ("generator", "_uint32", "_double", "_state", "_next_uint32",
                 "_next_double", "_pending")

    def __init__(self, generator):
        # holding the generator keeps the state address valid; setting
        # `bit_generator.state` writes in place and keeps it too
        self.generator = generator
        c = generator.bit_generator.ctypes
        self._next_uint32, self._next_double, self._state = \
            c.next_uint32, c.next_double, c.state
        self.settle()

    def pend(self, states, i):
        """Draw next from the stream whose bit generator state is
        `states(i)`, set on the generator at the next draw."""
        self._pending = states, i
        self._uint32, self._double = self._install_uint32, self._install_double

    def settle(self):
        """Drop any pending stream and draw on from the generator's state."""
        self._pending = None
        self._uint32, self._double = self._next_uint32, self._next_double

    def _install(self):
        states, i = self._pending
        self.generator.bit_generator.state = states(i)
        self.settle()

    def _install_uint32(self, state):
        self._install()
        return self._next_uint32(state)

    def _install_double(self, state):
        self._install()
        return self._next_double(state)

    def _numpy(self):
        """The generator, with any pending stream installed."""
        if self._pending is not None:
            self._install()
        return self.generator

    def integer(self, n, loc=None):
        """Uniform integer in [0, n), for n >= 1."""
        if n > _WORD32:
            return randint_below(self._numpy(), n)
        if n == 1:
            return 0    # numpy draws nothing for a one-value range
        # numpy's buffered_bounded_lemire_uint32 with rng_excl = n
        m = self._uint32(self._state) * n
        if m & _MASK32 < n:
            threshold = (_WORD32 - n) % n
            while m & _MASK32 < threshold:
                m = self._uint32(self._state) * n
        return m >> 32

    def flip(self, p, loc=None):
        """True with probability p."""
        return self._double(self._state) < p

    def choose(self, weights):
        """Index i with probability weights[i] / sum(weights)."""
        total = 0.0
        for w in weights:
            total += w
        u = self._double(self._state) * total
        acc = 0.0
        for i, w in enumerate(weights):
            acc += w
            if u < acc:
                return i
        return len(weights) - 1

    def order(self, k):
        """A uniformly random permutation of range(k), as a list."""
        return self._numpy().permutation(k).tolist()

    def normal(self, mean, sd, loc=None):
        """Gaussian draw with the given mean and standard deviation."""
        return float(self._numpy().normal(mean, sd))


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
    """The draw object for `source`: a numpy Generator is wrapped in a new
    `Draws`, None gives `NO_SOURCE`, and anything else is a draw object
    already.  Wrap a generator once and pass the result on: each `Draws`
    binds the generator's C functions anew."""
    if isinstance(source, np.random.Generator):
        return Draws(source)
    return NO_SOURCE if source is None else source


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
