"""Rejection queries: blind conditional sampling with acceptance statistics.

A query re-evaluates its definitions from scratch on every attempt (fresh
randomness each time), checks the condition, and returns the query value of
the first accepted attempt; the returned value is distributed as the prior
conditioned on the condition.  The definitions, condition and query are
compiled once per query, and every attempt runs the compiled code in a fresh
frame.  Batch runs give every sample index its own deterministic rng stream
derived from (seed, index), so parallel and serial execution produce
identical multisets of samples.  All samples draw through one draw object:
the caller's (a session owns one) or else a `Draws` on the batch's own path.
Each sample's index is given to it (`Draws.pend`), and it sets the index's
PCG64 state at the sample's first draw.  The states come from
`stream_states`, one pass per block of up to 1024 indices, computed when a
sample of the block first draws; a sample that draws nothing derives no
stream.  Each index draws exactly the bytes a fresh
`derive_rng(seed..., index)` generator would.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, replace

from .errors import EvalError, ExhaustionError, ProblispError
from .evaluator import DEFAULT_MAX_ATTEMPTS, EvalContext, _sequence, compile_forms, evaluate
# derive_rng is not used here; perfbench/test_perfbench.py reads it as inference.derive_rng
from .rng import Draws, derive_rng, stream_states  # noqa: F401
from .sexpr import SExpr, SList, Symbol
from .values import Env

# sample indices per `stream_states` call: bounds the states held at once
_STATE_BLOCK = 1024


@dataclass(frozen=True)
class QuerySpec:
    """Definitions, query expression and condition expression of one query."""

    definitions: tuple
    query: SExpr
    condition: SExpr

    @classmethod
    def from_form(cls, form):
        """Split a (rejection-query ...) form: the last two body forms are the
        query and condition, everything before them is a definition."""
        if form.__class__ is not SList or len(form.items) < 3:
            raise EvalError(
                "rejection-query expects (rejection-query defs... query condition)",
                getattr(form, "loc", None))
        head = form.items[0]
        if head.__class__ is not Symbol or head.name != "rejection-query":
            raise EvalError("not a rejection-query form", form.loc)
        body = form.items[1:]
        return cls(tuple(body[:-2]), body[-2], body[-1])


@dataclass(frozen=True)
class SampleReport:
    samples: tuple
    total_attempts: int
    acceptance_rate: float
    wall_time: float


def _compile(spec, base_env):
    """Code for one attempt (the definitions, then the condition's value) and
    code for the query value, compiled once to run in a child frame of
    `base_env`."""
    *attempt, query = compile_forms(
        (*spec.definitions, spec.condition, spec.query), base_env)
    return _sequence(attempt), query


def _attempt_loop(spec, code, base_env, max_attempts, ctx):
    attempt_code, query_code = code
    for attempt in range(1, max_attempts + 1):
        env = Env(base_env)
        try:
            cond = attempt_code(env, ctx)
        except ProblispError as err:
            err.message = f"{err.message} (attempt {attempt})"
            err.args = (err.message,)
            raise
        except RecursionError:
            raise EvalError(f"recursion depth exceeded (attempt {attempt})") from None
        if cond.__class__ is not bool:
            raise EvalError("query condition must evaluate to a boolean "
                            f"(attempt {attempt})", spec.condition.loc)
        if cond:
            return evaluate(query_code, env, ctx), attempt
    raise ExhaustionError(
        f"no accepted sample after {max_attempts} attempts", max_attempts)


def _query_context(ctx, base_env, rng):
    """A copy of `ctx` (or a fresh context) drawing from `rng`, with no
    session: knowledge forms are not allowed inside a query."""
    if ctx is None:
        return EvalContext(rng=rng, global_env=base_env)
    return replace(ctx, rng=rng, session=None)


def rejection_query(spec, base_env, rng, max_attempts=DEFAULT_MAX_ATTEMPTS, ctx=None):
    """Sample once from the conditioned distribution, or raise ExhaustionError."""
    if max_attempts < 1:
        raise EvalError("max-attempts must be at least 1")
    value, _ = _attempt_loop(spec, _compile(spec, base_env), base_env, max_attempts,
                             _query_context(ctx, base_env, rng))
    return value


def _stream_states(path, n):
    """`states(i)`: the (state, inc) of `derive_rng(*path, i)` for i in range(n),
    computed with the rest of its block when one of the block is first
    asked for."""
    block = functools.lru_cache(1)(lambda start: stream_states(path, start,
                                                               min(n, start + _STATE_BLOCK)))
    return lambda i: block(i - i % _STATE_BLOCK)[i % _STATE_BLOCK]


def run_samples(spec, n, base_env, seed, max_attempts=DEFAULT_MAX_ATTEMPTS, ctx=None,
                rng=None):
    """Draw n accepted samples, one independent rng stream per sample index.
    The streams are set on `rng`, a numpy Generator or a `Draws`, whose own
    state is overwritten when a sample draws and left as it was when none
    does; without one, they are set on a `Draws(*path)`.  Each sample's
    stream is installed at its first draw, and no stream is left pending on
    return."""
    if n < 1:
        raise EvalError("sample count must be at least 1")
    path = tuple(seed) if isinstance(seed, (tuple, list)) else (seed,)
    start = time.perf_counter()
    values = []
    attempts_total = 0
    code = _compile(spec, base_env)
    ctx = _query_context(ctx, base_env, rng if rng is not None else Draws(*path))
    draws = ctx.rng
    states = _stream_states(path, n)
    try:
        for i in range(n):
            draws.pend(states, i)
            try:
                value, attempts = _attempt_loop(spec, code, base_env, max_attempts, ctx)
            except ExhaustionError as err:
                wall = time.perf_counter() - start
                made = attempts_total + err.attempts
                partial = SampleReport(tuple(values), made,
                                       len(values) / made if made else 0.0, wall)
                raise ExhaustionError(f"sample {i}: {err.message}", err.attempts,
                                      partial) from None
            values.append(value)
            attempts_total += attempts
    finally:
        draws.settle()
    wall = time.perf_counter() - start
    return SampleReport(tuple(values), attempts_total, n / attempts_total, wall)
