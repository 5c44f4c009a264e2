"""Recursive generative instantiation of concepts.

Sampling a concept draws one of its incoming is-a links with probability
proportional to its weight, then recurses on a concept source or
instantiates an expression source.  Every concept symbol inside a template
is replaced by an independent recursive draw, made left to right before the
template runs; the draws are independent, so their order sets only which
stream positions each reads, and the leftmost failing occurrence reports
its error.  All state comes from the `EvalContext` given: the concept
store, the session globals, and the draw object `ctx.rng` that chooses the
links and that the template's own primitives draw from.  A template runs
with no session, so knowledge forms are refused inside it.  Each
instantiation runs in a frame of its own, so a template never writes the
session's globals.  Each template is compiled once, at its `is-a`, and its
code is kept on its link until a `concept` form declares a name.

Budgets guard the recursion: exceeding the depth or node cap aborts the
sample with an error rather than silently truncating, since truncation would
bias the declared distribution.
"""

from __future__ import annotations

from .concepts import ConceptId
from .errors import BudgetError, ConceptError, EvalError
from .evaluator import compile_forms
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


def sample_concept(concept, ctx, budget=None, depth=0):
    """Draw one instance of `concept` from its weighted is-a links."""
    if budget is None:
        budget = SampleBudget()
    nodes = budget.nodes_expanded + 1
    if depth > budget.max_depth or nodes > budget.max_nodes:
        budget.charge(depth)   # counts this expansion and raises
    budget.nodes_expanded = nodes
    links = ctx.store.links(concept)
    if not links:
        raise ConceptError(f"no generative model for concept '{concept.name}'")
    # single-link concepts are deterministic pass-throughs: no choice draw
    link = links[0 if len(links) == 1 else ctx.rng.choose([link.weight for link in links])]
    source = link.source
    if isinstance(source, ConceptId):
        return sample_concept(source, ctx, budget, depth + 1)
    return _instantiate(link, ctx, budget, depth)


def _instantiate(link, ctx, budget, depth):
    env = ctx.global_env
    template = link.template
    if template is None or template[0] is not env:
        template = link.template = _compiled_template(ctx.store, link.source, env)
    _, code, concepts, _ = template
    frame = Env()
    frame.parent = env
    for name, cid in concepts:
        frame[name] = sample_concept(cid, ctx, budget, depth + 1)
    saved = ctx.session, ctx.budget, ctx.sample_depth
    ctx.session, ctx.budget, ctx.sample_depth = None, budget, depth + 1
    try:
        return code(frame, ctx)
    except RecursionError:
        raise EvalError("recursion depth exceeded") from None
    finally:
        ctx.session, ctx.budget, ctx.sample_depth = saved


def _compiled_template(store, expr, env):
    """`expr` compiled for `env`, as (env, code, concepts, names).
    `concepts` holds a (variable name, ConceptId) pair for each free symbol
    of `expr` that names a concept in `store`, left to right; in `code` that
    symbol reads the variable.  `names` is the set of free names."""
    concepts, names = [], set()

    def slot(sym):
        names.add(sym.name)
        cid = store.lookup(sym.name)
        if cid is None:
            return None
        # the space keeps the name unwritable in source
        name = f"concept value {len(concepts)}"
        concepts.append((name, cid))
        return name

    (code,), _ = compile_forms((expr,), env, slot)
    return env, code, tuple(concepts), names
