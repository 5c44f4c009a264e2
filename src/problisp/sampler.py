"""Recursive generative instantiation of concepts.

Sampling a concept draws one of its incoming is-a links with probability
proportional to effective weight, then recurses on a concept source or
instantiates an expression source.  Every concept symbol inside a template
is replaced by an independent recursive draw; when a template mentions
several concepts, the order in which they are instantiated is itself chosen
uniformly at random (the draws are independent, so the order is invisible in
distribution but fixed for rng-trace reproducibility).

Budgets guard the recursion: exceeding the depth or node cap aborts the
sample with an error rather than silently truncating, since truncation would
bias the declared distribution.
"""

from __future__ import annotations

from dataclasses import replace

from .concepts import ConceptId
from .errors import BudgetError, ConceptError, EvalError
from .evaluator import EvalContext, evaluate, free_symbol_paths
from .sexpr import SList, Symbol
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


def _choose(rows, rng):
    if rng is None:
        raise EvalError("no random source available for sampling")
    total = 0.0
    for _, w in rows:
        total += w
    u = rng.random() * total
    acc = 0.0
    for link, w in rows:
        acc += w
        if u < acc:
            return link
    return rows[-1][0]


def sample_concept(snapshot, concept, rng, budget=None, *, env, ctx=None, depth=0):
    """Draw one instance of `concept` from its weighted is-a links."""
    if budget is None:
        budget = SampleBudget()
    budget.charge(depth)
    rows = snapshot.instances(concept)
    if not rows:
        raise ConceptError(f"no generative model for concept '{concept.name}'")
    # single-link concepts are deterministic pass-throughs: no choice draw
    link = rows[0][0] if len(rows) == 1 else _choose(rows, rng)
    source = link.source
    if isinstance(source, ConceptId):
        return sample_concept(snapshot, source, rng, budget, env=env, ctx=ctx,
                              depth=depth + 1)
    return instantiate_expression(snapshot, source, env, rng, budget, ctx=ctx, depth=depth)


def instantiate_expression(snapshot, expr, env, rng, budget=None, *, ctx=None, depth=0):
    """Replace each concept symbol in `expr` by an independent draw, then
    evaluate the result against `env`, the session globals."""
    if budget is None:
        budget = SampleBudget()
    occurrences = []
    for path, sym in free_symbol_paths(expr):
        cid = snapshot.concept(sym.name)
        if cid is not None:
            occurrences.append((path, cid))
    frame = {}
    mapping = {}
    if occurrences:
        if len(occurrences) == 1:
            order = [0]
        else:
            order = [int(k) for k in rng.permutation(len(occurrences))]
        for k in order:
            path, cid = occurrences[k]
            name = f"concept value {k}"  # space keeps it unwritable in source
            mapping[path] = Symbol(name)
            frame[name] = sample_concept(snapshot, cid, rng, budget, env=env,
                                         ctx=ctx, depth=depth + 1)
    body = _replace_paths(expr, mapping, ())
    eval_env = Env(env, frame) if frame else env
    inner = replace(ctx if ctx is not None else EvalContext(), rng=rng, session=None,
                    snapshot=snapshot, budget=budget, sample_depth=depth + 1,
                    global_env=env)
    return evaluate(body, eval_env, inner)


def _replace_paths(expr, mapping, path):
    if path in mapping:
        return mapping[path]
    if expr.__class__ is SList and expr.items and mapping:
        return SList(tuple(_replace_paths(c, mapping, path + (i,))
                           for i, c in enumerate(expr.items)), expr.loc)
    return expr

