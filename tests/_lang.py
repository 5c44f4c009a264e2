"""Shared helpers for evaluating source snippets and brute-force oracles."""

import itertools

from problisp import EvalContext, Env, evaluate, parse, parse_one, standard_env
from problisp.rng import Draws
from problisp.sexpr import Integer

import _reference_eval


def ev(src, seed=1, env=None, ctx=None):
    """Evaluate every form in `src`, returning the last value."""
    env = env if env is not None else standard_env()
    if ctx is None:
        ctx = EvalContext(rng=Draws(seed), global_env=env)
    result = None
    for form in parse(src):
        result = evaluate(form, env, ctx)
    return result


def draws_state(draws):
    """The PCG64 state of the draw object `draws`: (LCG state, inc, waiting
    upper half word or None).  One that has not drawn since it was made or
    since `pend` is at the start of its pending stream, which it derives at
    its next draw."""
    if draws.pending is not None:
        states, i = draws.pending
        return (*states(i), None)
    return draws._state, draws._inc, draws._half


def twin_state(rng):
    """The PCG64 state of the numpy Generator `rng`, as `draws_state` gives it."""
    state = rng.bit_generator.state
    return (state["state"]["state"], state["state"]["inc"],
            state["uinteger"] if state["has_uint32"] else None)


def eval_condition(cond, assignment):
    """Evaluate a deterministic condition with variables bound to ints, on
    the reference walker, so that the oracle shares no code with the
    compiled evaluator but the primitives."""
    env = Env(assignment)
    env.parent = standard_env()
    return _reference_eval.run(cond, env, EvalContext())


def satisfaction_set(cond_src_or_expr, supports):
    """Brute-force oracle: all assignments over `supports` (name -> range size)
    that satisfy the condition."""
    cond = (parse_one(cond_src_or_expr) if isinstance(cond_src_or_expr, str)
            else cond_src_or_expr)
    names = list(supports)
    satisfied = set()
    for combo in itertools.product(*(range(supports[n]) for n in names)):
        assignment = dict(zip(names, combo))
        if eval_condition(cond, assignment) is True:
            satisfied.add(combo)
    return frozenset(satisfied)


def int_node(v):
    return Integer(v)
