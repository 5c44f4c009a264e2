"""Rejection queries: blind conditional sampling with acceptance statistics.

A query re-evaluates its definitions from scratch on every attempt (fresh
randomness each time), checks the condition, and returns the query value of
the first accepted attempt; the returned value is distributed as the prior
conditioned on the condition.  The definitions, condition and query are
compiled once per query, and every attempt runs the compiled code in a fresh
frame.  Batch runs give every sample index its own deterministic rng stream
derived from (seed, index), so parallel and serial execution produce
identical multisets of samples.  The PCG64 states of all the indices come
from `stream_states`, one pass per block of up to 1024 indices, and are set
in turn on the generator of one draw object: the caller's (a session owns
one) or else one made with `derive_rng`.  Each index draws exactly the
bytes a fresh `derive_rng(seed..., index)` generator would.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

from .errors import EvalError, ExhaustionError, ProblispError
from .evaluator import DEFAULT_MAX_ATTEMPTS, EvalContext, _sequence, compile_forms, evaluate
from .rng import derive_rng, stream_states
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
            cond = evaluate(attempt_code, env, ctx)
        except ProblispError as err:
            err.message = f"{err.message} (attempt {attempt})"
            err.args = (err.message,)
            raise
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


def _streams(path, n, generator):
    """Each i in range(n), after setting `generator` to the state of
    `derive_rng(*path, i)`."""
    bit_generator = generator.bit_generator
    for start in range(0, n, _STATE_BLOCK):
        for i, state in enumerate(stream_states(path, start, min(n, start + _STATE_BLOCK)),
                                  start):
            bit_generator.state = state
            yield i


def run_samples(spec, n, base_env, seed, max_attempts=DEFAULT_MAX_ATTEMPTS, ctx=None,
                rng=None):
    """Draw n accepted samples, one independent rng stream per sample index.
    The streams are set on `rng`, a numpy Generator or a `Draws`, whose own
    state is overwritten; without one, a generator is made for the purpose."""
    if n < 1:
        raise EvalError("sample count must be at least 1")
    path = tuple(seed) if isinstance(seed, (tuple, list)) else (seed,)
    start = time.perf_counter()
    values = []
    attempts_total = 0
    code = _compile(spec, base_env)
    ctx = _query_context(ctx, base_env, rng if rng is not None else derive_rng(*path))
    for i in _streams(path, n, ctx.rng.generator):
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
    wall = time.perf_counter() - start
    return SampleReport(tuple(values), attempts_total, n / attempts_total, wall)
