"""Rejection queries: blind conditional sampling with acceptance statistics.

A query re-evaluates its definitions from scratch on every attempt (fresh
randomness each time), checks the condition, and returns the query value of
the first accepted attempt; the returned value is distributed as the prior
conditioned on the condition.  The definitions, condition and query are
compiled once per query, a nested one with the form around it.  One loop,
`_attempt_loop`, runs every sample of a batch and every attempt of each; each
run of a nested query makes one sample there.  A single query runs as a
nested one: `evaluate` of its `rejection-query` form.  Batch runs give every
sample index its own deterministic rng stream derived from (seed, index), so
parallel and serial execution produce identical multisets of samples.  A
batch and a nested query read their attempt limit from the `EvalContext`
given, and clear its session while their attempts run: knowledge forms are
not allowed inside a query.  A nested query draws through the context's draw
object and is rewritten with the context's rules.  A batch puts a `Draws` of
its own on the context while it runs and then puts the caller's back, so its
samples depend on its seed alone and the caller's draw object is left as it
was.  Each sample's index is given to the batch's `Draws` (`Draws.pend`),
which sets the index's PCG64 state at the sample's first draw.  The states
come from `stream_states`, one pass per block of up to 1024 indices, computed
when a sample of the block first draws; a sample that draws nothing derives
no stream.  Each index draws exactly the bytes a fresh
`derive_rng(seed..., index)` generator would.

A batch whose sample 0 makes no random choice in its first attempt (its
stream is still pending after it, see `Draws.pending`) and charges no
shared concept budget runs that attempt once: nothing else can make two
samples differ, so every attempt of every sample goes the same way.  If
it is accepted, the n samples are that one value object, one attempt each;
if not, the batch raises at once the exhaustion that `max_attempts`
attempts would reach.  With the shipped rules the paper's query becomes
`(define x 5)` with condition `#t`, and a batch of it evaluates the
constant once.
"""

from __future__ import annotations

from .errors import EvalError, ExhaustionError, ProblispError
from .evaluator import EvalContext, compile_forms
# derive_rng is not used here; perfbench/test_perfbench.py reads it as inference.derive_rng
from .rng import Draws, derive_rng, stream_states  # noqa: F401
from .sexpr import SList, Symbol, _Record
from .values import Env

# sample indices per `stream_states` call: bounds the states held at once
_STATE_BLOCK = 1024


class QuerySpec(_Record):
    """Definitions, query expression and condition expression of one query."""

    __slots__ = _fields = ("definitions", "query", "condition")

    def __init__(self, definitions, query, condition):
        self.definitions, self.query, self.condition = definitions, query, condition

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


class SampleReport(_Record):
    __slots__ = _fields = ("samples", "total_attempts", "acceptance_rate")

    def __init__(self, samples, total_attempts, acceptance_rate):
        self.samples = samples
        self.total_attempts = total_attempts
        self.acceptance_rate = acceptance_rate


def _attempt_loop(spec, codes, base_env, ctx, n=1, states=None):
    """(values, attempts): the query values of `n` accepted samples and the
    attempts they took.  An attempt runs `codes` but the last (the
    definitions' and the condition's) in a fresh child frame of `base_env`,
    and an accepted one then runs the last, the query value's.  A batch and
    every nested query come here, so the attempt limit is checked here
    alone.  Given `states` (by `run_samples`), sample i draws from
    `states(i)`, and an `ExhaustionError` in it, its own or a nested query's,
    is reported as sample i's, with the samples made before it.  A batch
    whose sample 0 draws nothing and charges no budget in its first attempt
    (see the module docstring) ends after that attempt."""
    limit = ctx.max_attempts
    if limit < 1:
        raise EvalError("max-attempts must be at least 1")
    *attempt_codes, query_code = codes
    values, total = [], 0
    probe, budget = states is not None, ctx.budget
    nodes = budget.nodes_expanded if budget is not None else None
    session, ctx.session = ctx.session, None   # no knowledge forms inside a query
    try:
        for i in range(n):
            if states is not None:
                ctx.rng.pend(states, i)
            try:
                for attempt in range(1, limit + 1):
                    env = Env()
                    env.parent = base_env
                    try:
                        for c in attempt_codes:
                            cond = c(env, ctx)
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
                        try:
                            values.append(query_code(env, ctx))
                        except RecursionError:
                            raise EvalError("recursion depth exceeded") from None
                        total += attempt
                        if not probe:
                            break
                    elif not probe:
                        continue
                    probe = False   # sample 0's first attempt in a batch
                    if ctx.rng.pending is not None and (
                            budget is None or budget.nodes_expanded == nodes):
                        # it drew nothing and charged no budget: nor does any attempt
                        if cond:
                            return values * n, n
                        raise ExhaustionError(f"no accepted sample after {limit} attempts", limit)
                    if cond:
                        break
                else:
                    raise ExhaustionError(f"no accepted sample after {limit} attempts", limit)
            except ExhaustionError as err:
                if states is None:
                    raise
                made = total + err.attempts
                partial = SampleReport(tuple(values), made, len(values) / made)
                raise ExhaustionError(f"sample {i}: {err.message}", err.attempts, partial) from None
    finally:
        ctx.session = session
    return values, total


def _stream_states(path, n):
    """`states(i)`: the (state, inc) of `derive_rng(*path, i)` for i in
    range(n), computed with the rest of its block when one of the block is
    first asked for.  Only the last block computed is held."""
    start, block = -1, None

    def states(i):
        nonlocal start, block
        first = i - i % _STATE_BLOCK
        if first != start:
            start, block = first, stream_states(path, first, min(n, first + _STATE_BLOCK))
        return block[i - first]
    return states


def run_samples(spec, n, env, seed, ctx=None):
    """Draw n accepted samples, one independent rng stream per sample index.
    The batch draws from `seed` alone: it puts a `Draws(*path)` of its own on
    `ctx.rng`, installs each sample's stream on it at the sample's first
    draw, and puts the caller's draw object back, untouched, when it ends.
    Without a context it runs on `EvalContext(global_env=env)`."""
    if n < 1:
        raise EvalError("sample count must be at least 1")
    path = tuple(seed) if isinstance(seed, (tuple, list)) else (seed,)
    codes = compile_forms((*spec.definitions, spec.condition, spec.query), env)
    if ctx is None:
        ctx = EvalContext(global_env=env)
    rng, ctx.rng = ctx.rng, Draws(*path)
    try:
        values, attempts = _attempt_loop(spec, codes, env, ctx, n, _stream_states(path, n))
    finally:
        ctx.rng = rng
    return SampleReport(tuple(values), attempts, n / attempts)
