"""Recursive generative instantiation of concepts.

Sampling a concept draws one of its incoming is-a links with probability
proportional to effective weight, then recurses on a concept source or
instantiates an expression source.  Every concept symbol inside a template
is replaced by an independent recursive draw; when a template mentions
several concepts, the order in which they are instantiated is itself chosen
uniformly at random (the draws are independent, so the order is invisible in
distribution but fixed for rng-trace reproducibility).  Both choices, the
link and the order, are made by the draw object (`rng.Draws`, or
`rng.NO_SOURCE` where there is no random source) that the template's own
primitives draw from.

Budgets guard the recursion: exceeding the depth or node cap aborts the
sample with an error rather than silently truncating, since truncation would
bias the declared distribution.
"""

from __future__ import annotations

from .concepts import ConceptId
from .errors import BudgetError, ConceptError, EvalError
from .evaluator import EvalContext, compile_forms
from .values import Env

DEFAULT_MAX_DEPTH = 64
DEFAULT_MAX_NODES = 10 ** 4


class SampleBudget:
    __slots__ = ("max_depth", "max_nodes", "nodes_expanded")

    def __init__(self, max_depth=DEFAULT_MAX_DEPTH, max_nodes=DEFAULT_MAX_NODES):
        self.max_depth = max_depth
        self.max_nodes = max_nodes
        self.nodes_expanded = 0

    def charge(self, depth):
        self.nodes_expanded += 1
        if depth > self.max_depth or self.nodes_expanded > self.max_nodes:
            raise BudgetError(
                "sampling did not terminate within budget "
                f"(depth {depth}/{self.max_depth}, nodes "
                f"{self.nodes_expanded}/{self.max_nodes})")


def sample_concept(snapshot, concept, rng, budget=None, *, env, ctx=None, depth=0):
    """Draw one instance of `concept` from its weighted is-a links."""
    if budget is None:
        budget = SampleBudget()
    budget.charge(depth)
    rows = snapshot.instances(concept)
    if not rows:
        raise ConceptError(f"no generative model for concept '{concept.name}'")
    # single-link concepts are deterministic pass-throughs: no choice draw
    link = rows[0 if len(rows) == 1 else rng.choose([w for _, w in rows])][0]
    source = link.source
    if isinstance(source, ConceptId):
        return sample_concept(snapshot, source, rng, budget, env=env, ctx=ctx,
                              depth=depth + 1)
    return _instantiate(snapshot, source, env, rng, budget, ctx, depth)


def instantiate_expression(snapshot, expr, env, rng, budget=None, *, ctx=None, depth=0):
    """Replace each concept symbol in `expr` by an independent draw, then
    evaluate the result against `env`, the session globals.  The template is
    compiled on its first use with `snapshot` and `env`; each concept
    occurrence reads its draw from a frame made for the instantiation."""
    return _instantiate(snapshot, expr, env, rng,
                        budget if budget is not None else SampleBudget(), ctx, depth)


def _instantiate(snapshot, expr, env, rng, budget, ctx, depth):
    code, concepts = _compiled_template(snapshot, expr, env)
    eval_env = env
    if concepts:
        order = [0] if len(concepts) == 1 else rng.order(len(concepts))
        frame = {}
        for k in order:
            name, cid = concepts[k]
            frame[name] = sample_concept(snapshot, cid, rng, budget, env=env, ctx=ctx,
                                         depth=depth + 1)
        eval_env = Env(env, frame)
    if ctx is None:
        ctx = EvalContext()
    saved = ctx.rng, ctx.snapshot, ctx.session, ctx.budget, ctx.sample_depth, ctx.global_env
    ctx.rng, ctx.snapshot, ctx.session = rng, snapshot, None
    ctx.budget, ctx.sample_depth, ctx.global_env = budget, depth + 1, env
    try:
        return code(eval_env, ctx)
    except RecursionError:
        raise EvalError("recursion depth exceeded") from None
    finally:
        (ctx.rng, ctx.snapshot, ctx.session,
         ctx.budget, ctx.sample_depth, ctx.global_env) = saved


def _compiled_template(snapshot, expr, env):
    """(code, concepts) for `expr`, cached on `snapshot`.  `concepts` holds
    a (variable name, ConceptId) pair for each free symbol of `expr` that
    names a concept, left to right; in `code` that symbol reads the variable."""
    entry = snapshot.templates.get(id(expr))
    if entry is None or entry[0] is not expr or entry[1] is not env:
        concepts = []

        def slot(sym):
            cid = snapshot.concept(sym.name)
            if cid is None:
                return None
            # the space keeps the name unwritable in source
            name = f"concept value {len(concepts)}"
            concepts.append((name, cid))
            return name

        code, = compile_forms((expr,), env, slot)
        # the entry holds `expr`, so its id is not reused while cached
        entry = snapshot.templates[id(expr)] = (expr, env, code, tuple(concepts))
    return entry[2], entry[3]
