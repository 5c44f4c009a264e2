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

Every query on a `Draws`, a batch, a single or a nested one, whose first
attempt (with its query value, when accepted) moves neither the state nor
the waiting half word of the `Draws` and charges no shared concept budget
runs that attempt once: nothing else can make two attempts differ.  If it
is accepted, the n samples are that one value object, one attempt each; if
not, the query raises at once the exhaustion that `max_attempts` attempts
would reach, and leaves every draw object where they would.  With the
shipped rules the paper's query becomes `(define x 5)` with condition
`#t`, and a batch of it evaluates the constant once.

Every query whose definitions are all `(define v (random-integer N))`, with
a literal N (`QuerySpec.supports`) and distinct names that alone the query
binds, remembers while its loop runs each drawn value tuple's condition
outcome, for up to `_MEMO_SPACE` tuples.  An attempt draws the values with
the definitions' own `integer(N)` calls, so every stream is consumed as
without the memo.  Only the outcome of a condition that drew nothing is
remembered: a define never rebinds a global and the session is cleared, so
the same values give it again.  An error, a non-boolean or a draw happens
on the same attempt as without the memo.  Once every tuple is remembered
and none as `#t`, the query raises the exhaustion that `max_attempts`
attempts would reach.  The memo stays off under a shared concept budget,
which the condition may charge, and on a draw object other than a `Draws`,
whose state tells whether the condition drew.
"""

from __future__ import annotations

from .errors import EvalError, ExhaustionError, ProblispError
from .evaluator import _PRIMITIVES, EvalContext, compile_forms
# derive_rng is not used here; perfbench/test_perfbench.py reads it as inference.derive_rng
from .rng import Draws, derive_rng, stream_states  # noqa: F401
from .sexpr import Integer, SList, Symbol, _Record
from .values import Env

# sample indices per `stream_states` call: bounds the states held at once
_STATE_BLOCK = 1024
# the most value tuples a query remembers the condition's outcome for
_MEMO_SPACE = 4096


class QuerySpec(_Record):
    """Definitions, query expression and condition expression of one query.
    `supports`, the literal priors that the memo and the optimizer read: per
    definition, N for `(define v (random-integer N))` with a literal N >= 1,
    else None."""

    __slots__ = ("definitions", "query", "condition", "supports")
    _fields = ("definitions", "query", "condition")

    def __init__(self, definitions, query, condition):
        self.definitions, self.query, self.condition = definitions, query, condition
        supports = []
        for d in definitions:
            items = d.items if d.__class__ is SList else ()
            prior = items[2].items if len(items) == 3 and items[2].__class__ is SList else ()
            supports.append(prior[1].value if (
                len(prior) == 2 and prior[1].__class__ is Integer and prior[1].value >= 1
                and prior[0].__class__ is Symbol and prior[0].name == "random-integer"
                and items[0].__class__ is Symbol and items[0].name == "define"
                and items[1].__class__ is Symbol) else None)
        self.supports = tuple(supports)

    def _pinned(self, index, define, condition):
        """This query with the definition at `index` replaced by `define`,
        which pins its variable, and with `condition`.  The supports are
        this query's, with None at `index`: no literal prior is read again."""
        spec = object.__new__(self.__class__)
        definitions = list(self.definitions)
        definitions[index] = define
        spec.definitions, spec.query, spec.condition = tuple(definitions), self.query, condition
        spec.supports = (*self.supports[:index], None, *self.supports[index + 1:])
        return spec

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


def _attempt_loop(spec, codes, base_env, ctx, n=1, states=None, scoped=False):
    """(values, attempts): the query values of `n` accepted samples and the
    attempts they took.  An attempt runs `codes` but the last (the
    definitions' and the condition's) in a fresh child frame of `base_env`,
    and an accepted one then runs the last, the query value's.  A batch and
    every nested query come here, so the attempt limit is checked here
    alone.  Given `states` (by `run_samples`), sample i draws from
    `states(i)`, and an `ExhaustionError` in it, its own or a nested query's,
    is reported as sample i's, with the samples made before it.  As the
    module docstring says, a query on a `Draws` ends after a first attempt
    that draws nothing and charges no budget, and the memo applies where
    the caller found the query's scope fit (`scoped`: its frame binds only
    its definitions' names, and its `random-integer` is the standard
    primitive) and all of them are literal draws: an attempt then draws
    with their own `integer(N)` calls, so the stream moves as theirs would,
    and runs only the condition, unless remembered."""
    limit = ctx.max_attempts
    if limit < 1:
        raise EvalError("max-attempts must be at least 1")
    *attempt_codes, query_code = codes
    values, total = [], 0
    rng, budget = ctx.rng, ctx.budget
    probe = isinstance(rng, Draws)   # until the query's first attempt has run
    nodes = budget.nodes_expanded if budget is not None else None
    memo = None
    if scoped and budget is None and probe and None not in spec.supports:
        # name: (place value, N) of each value in a mixed-radix key
        places, space = {}, 1
        for d, size in zip(spec.definitions, spec.supports):
            places[d.items[1].name] = space, size
            space *= size
        # distinct names, so they are all that the query's frame binds
        if 1 < space <= _MEMO_SPACE and len(places) == len(spec.definitions):
            memo, condition = {}, attempt_codes[-1]
            integer, ((_, first), *rest) = rng.integer, places.values()
            places = places.items()
    session, ctx.session = ctx.session, None   # no knowledge forms inside a query
    try:
        for i in range(n):
            if states is not None:
                rng.pend(states, i)
            if probe:
                entry_state, entry_half = rng._state, rng._half
            try:
                for attempt in range(1, limit + 1):
                    if memo is not None:
                        key = integer(first)
                        for place, size in rest:
                            key += place * integer(size)
                        cond = memo.get(key)
                        if cond is False:
                            continue
                    env = Env()
                    env.parent = base_env
                    try:
                        if memo is None:
                            for c in attempt_codes:
                                cond = c(env, ctx)
                        else:
                            for name, (place, size) in places:
                                env[name] = key // place % size
                            if cond is None:
                                state, half = rng._state, rng._half
                                cond = condition(env, ctx)
                                if rng._state is state and rng._half is half:
                                    # it drew nothing; a non-boolean ends the query below
                                    memo[key] = cond
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
                        if memo is not None and len(memo) == space and True not in memo.values():
                            break   # every value rejects: so would the attempts left
                        continue
                    probe = False   # the query's first attempt
                    if rng._state is entry_state and rng._half is entry_half and (
                            budget is None or budget.nodes_expanded == nodes):
                        # it drew nothing and charged no budget: nor does any attempt
                        if cond:
                            return values * n, n
                        break
                    if cond:
                        break
                if not cond:
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
    codes, bound = compile_forms((*spec.definitions, spec.condition, spec.query), env)
    if ctx is None:
        ctx = EvalContext(global_env=env)
    # the memo's scope fact (see `_attempt_loop`), from the names the unit binds
    scoped = (len(bound) == len(spec.definitions) and "random-integer" not in bound
              and getattr(env.get("random-integer"), "fn", None) is _PRIMITIVES["random-integer"])
    rng, ctx.rng = ctx.rng, Draws(*path)
    try:
        values, attempts = _attempt_loop(spec, codes, env, ctx, n, _stream_states(path, n),
                                         scoped)
    finally:
        ctx.rng = rng
    return SampleReport(tuple(values), attempts, n / attempts)
