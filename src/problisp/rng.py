"""Deterministic random streams and the draw object.

Streams are numpy's PCG64, seeded by numpy's SeedSequence from an integer
path such as (seed, index), so a path yields the same stream however many
others were made.  `stream_states` re-implements that seeding for many
paths that differ only in their last integer, in one pass.  `Draws` is
the library's draw object: `Draws(*path)` draws the values a numpy
Generator `derive_rng(*path)` would, stepping PCG64 and running numpy's
integer, uniform and normal draws in Python.  PCG64's output rotation
of a 64-bit word v right by r is taken as `v * (2**64 + 1) >> r & mask`,
in three operations instead of five, since v written twice side by side
and shifted right by r holds v rotated by r in its low 64 bits.  A
context's draw object need only have the four draws `integer`, `flip`,
`normal` and `choose`: a query batch pends its samples' streams on a
`Draws` of its own.  Only `derive_rng`, the reference twin of the tests
and the benchmark, imports numpy.  `NO_SOURCE` stands in for a draw
object in a context with no random source.
"""

from __future__ import annotations

import functools
import math
import os
import struct

from .errors import EvalError

_MASK64 = (1 << 64) - 1


def _entropy(parts):
    return tuple(int(p) & _MASK64 for p in parts)


def derive_rng(*path):
    """Independent numpy generator for an integer path such as (seed, query,
    index).  The library draws through `Draws(*path)` instead, which draws
    the same values from the same stream."""
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


_WORD32, _WORD63, _WORD64 = 1 << 32, 1 << 63, 1 << 64
_TWICE = _WORD64 + 1   # v * _TWICE is the 64-bit v written twice, side by side
_UNIT = 2.0 ** -53   # a uniform double is the top 53 bits of a word times this
# numpy's ziggurat: where its tail starts, 1/that, and data/ziggurat.txt's tables
_TAIL, _INV_TAIL = 3.6541528853610087963519472518, 0.27366123732975827203338247596
_ZIGGURAT = []   # (ki, wi, fi), read at the first normal draw
_NO_SOURCE_TEXT = "no random source available in this context"
_NO_SAMPLING_SOURCE_TEXT = "no random source available for sampling"


def _path_state(path):
    *prefix, last = _entropy(path)
    return stream_states(prefix, last, last + 1)[0]


class Draws:
    """Every random choice of an evaluation, drawn from one PCG64 stream:
    at first the stream of `derive_rng(*path)`, derived at the first draw.

    Each method returns what its numpy call returns and consumes the same
    bits: `integer(n)` is `Generator.integers(0, n)`, `flip(p)` is
    `Generator.random() < p`, `choose(weights)` scales one
    `Generator.random()` by the total weight and `normal(mean, sd)` is
    `Generator.normal(mean, sd)`.  The state is numpy's: the LCG state, its
    increment, and the upper half of a word that a 32-bit draw left (None
    when no half waits).  A step advances the LCG and outputs the XSL-RR
    word of the new state.  Bounds up to 2**32 take 32-bit halves; the
    other draws take whole words and leave a waiting half alone.  `loc` is
    where a missing random source is reported (see `NO_SOURCE`).  `pend`
    leaves a sample's stream pending until the sample's first draw, which
    sets it with no half word waiting.

    `pending` is the stream that the next draw installs: what `pend` was
    given, or at first the path's own stream, and None once a draw has
    installed it.  The state and the half word are None before the first
    draw, and every draw moves one of them to a new object, so a query
    learns whether an attempt drew from their identity before and after it.
    """

    __slots__ = ("_state", "_inc", "_half", "pending")

    def __init__(self, *path):
        self.pending = _path_state, path
        self._state = self._half = None

    def pend(self, states, i):
        """Draw next from the stream whose (state, inc) is `states(i)`: it
        stays in `pending`, not derived, until the next draw installs it."""
        self.pending = states, i

    def _install(self):
        states, i = self.pending
        self._state, self._inc = states(i)
        self._half = self.pending = None

    def _uint32(self):
        """The next 32-bit word; `integer`, its one caller, has installed
        any pending stream."""
        u = self._half
        if u is not None:
            self._half = None
            return u
        w = self._u64()
        self._half = w >> 32
        return w & _MASK32

    def _u64(self):
        """The next whole 64-bit word; a waiting half word stays waiting."""
        if self.pending is not None:
            self._install()
        s = self._state = (self._state * _PCG64_MULT + self._inc) & _MASK128
        v, r = (s >> 64 ^ s) & _MASK64, s >> 122
        return v * _TWICE >> r & _MASK64

    def integer(self, n, loc=None):
        """Uniform integer in [0, n), for n >= 1."""
        if n > _WORD32:
            if n >= _WORD63:   # whole words, low word first, masked to n's bit length
                k, r = n.bit_length(), n
                while r >= n:
                    r = sum(self._u64() << shift for shift in range(0, k, 64)) & (1 << k) - 1
                return r
            m = self._u64() * n   # numpy's buffered_bounded_lemire_uint64, rng_excl = n
            if m & _MASK64 < n:
                threshold = (_WORD64 - n) % n
                while m & _MASK64 < threshold:
                    m = self._u64() * n
            return m >> 64
        if n == 1:
            return 0    # numpy draws nothing for a one-value range
        # numpy's buffered_bounded_lemire_uint32 with rng_excl = n, on an
        # inline `_uint32`
        if self.pending is not None:
            self._install()
        u = self._half
        if u is None:
            s = self._state = (self._state * _PCG64_MULT + self._inc) & _MASK128
            v, r = (s >> 64 ^ s) & _MASK64, s >> 122
            w = v * _TWICE >> r & _MASK64
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
        if self.pending is not None:
            self._install()
        s = self._state = (self._state * _PCG64_MULT + self._inc) & _MASK128
        v, r = (s >> 64 ^ s) & _MASK64, s >> 122
        return ((v * _TWICE >> r & _MASK64) >> 11) * _UNIT < p

    def choose(self, weights):
        """Index i with probability weights[i] / sum(weights)."""
        total = 0.0
        for w in weights:
            total += w
        u = (self._u64() >> 11) * _UNIT * total
        acc = 0.0
        for i, w in enumerate(weights):
            acc += w
            if u < acc:
                return i
        return len(weights) - 1

    def normal(self, mean, sd, loc=None):
        """Gaussian draw: numpy's 256-layer ziggurat on one word (8 bits of
        layer, 1 of sign, 52 of magnitude), a tail at layer 0, wedges above."""
        if not _ZIGGURAT:
            with open(os.path.join(os.path.dirname(__file__), "data", "ziggurat.txt"),
                      encoding="ascii") as f:
                ki, wi, fi = zip(*(line.split() for line in f if line[0] != "#"))
            _ZIGGURAT[:] = tuple(map(int, ki)), tuple(map(float, wi)), tuple(map(float, fi))
        ki, wi, fi = _ZIGGURAT
        while True:
            r = self._u64()
            i, magnitude = r & 0xFF, r >> 9 & 0xFFFFFFFFFFFFF
            z = -(magnitude * wi[i]) if r & 0x100 else magnitude * wi[i]
            if magnitude < ki[i]:
                return mean + sd * z
            if i == 0:
                while True:   # 1 - u, so that log1p never sees -1
                    x = -_INV_TAIL * math.log1p(-((self._u64() >> 11) * _UNIT))
                    y = -math.log1p(-((self._u64() >> 11) * _UNIT))
                    if y + y > x * x:
                        return mean + sd * (-(_TAIL + x) if magnitude & 0x100 else _TAIL + x)
            elif ((fi[i - 1] - fi[i]) * ((self._u64() >> 11) * _UNIT) + fi[i]
                  < math.exp(-0.5 * z * z)):
                return mean + sd * z


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


NO_SOURCE = _NoSource()
