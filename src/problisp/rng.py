"""Deterministic random streams and the stochastic primitives.

The bit generator is numpy's PCG64.  Independent streams are derived from an
integer path (seed, index, ...) fed to SeedSequence as entropy, so the same
(seed, sample-index) pair always yields the same stream regardless of how
many other streams were created, and parallel and serial sampling agree.
"""

from __future__ import annotations

import numpy as np

from .errors import EvalError

_MASK64 = (1 << 64) - 1


def _entropy(parts):
    return tuple(int(p) & _MASK64 for p in parts)


def derive_rng(*path):
    """Independent generator for an integer path such as (seed, query, index)."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(_entropy(path))))


def randint_below(rng, n):
    """Uniform integer in [0, n) for arbitrary-precision n."""
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


def random_integer(n, rng, loc=None):
    """Uniform draw from {0, ..., n-1}."""
    if isinstance(n, bool) or not isinstance(n, int):
        raise EvalError("random-integer expects an integer", loc)
    if n <= 0:
        raise EvalError(f"random-integer expects a positive bound, got {n}", loc)
    if rng is None:
        raise EvalError("no random source available in this context", loc)
    return randint_below(rng, n)


def normal(mean, stdev, rng, loc=None):
    """Gaussian draw; a zero stdev returns the mean exactly."""
    for v in (mean, stdev):
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise EvalError("normal expects numeric mean and stdev", loc)
    if stdev < 0:
        raise EvalError(f"normal expects a nonnegative stdev, got {stdev}", loc)
    if stdev == 0:
        return float(mean)
    if rng is None:
        raise EvalError("no random source available in this context", loc)
    return float(rng.normal(mean, stdev))


def flip(p, rng, loc=None):
    """True with probability p."""
    if isinstance(p, bool) or not isinstance(p, (int, float)):
        raise EvalError("flip expects a numeric probability", loc)
    if not 0 <= p <= 1:
        raise EvalError(f"flip expects a probability in [0, 1], got {p}", loc)
    if rng is None:
        raise EvalError("no random source available in this context", loc)
    return bool(rng.random() < p)
