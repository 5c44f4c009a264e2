"""The condition solver as it was before rules compiled their patterns.

A reference for differential tests of `problisp.rewrite.solve_condition`:
it tries every rule at every position of the state, leftmost-outermost,
matches with a generic recursion and constant-folds the whole state after
each application.  Kept as it was; only the imports differ.
"""

import math
from dataclasses import dataclass

from problisp.errors import EvalError, RuleError
from problisp.evaluator import _PRIMITIVES
from problisp.sexpr import Boolean, Integer, Real, SExpr, SList, Symbol, Text

_LITERALS = (Integer, Real, Boolean, Text)


def match(pattern, expr, bindings=None):
    """First-order syntactic match; returns bindings or None.  Repeated
    variables must bind structurally equal subexpressions."""
    out = {} if bindings is None else dict(bindings)
    return out if _match(pattern, expr, out) else None


def _match(pattern, expr, out):
    t = pattern.__class__
    if t is Symbol and pattern.name.startswith("$"):
        seen = out.get(pattern.name)
        if seen is None:
            out[pattern.name] = expr
            return True
        return seen == expr
    if t is SList:
        if expr.__class__ is not SList or len(pattern.items) != len(expr.items):
            return False
        return all(_match(p, e, out) for p, e in zip(pattern.items, expr.items))
    return pattern == expr


def substitute(template, bindings):
    """Simultaneous substitution of bound variables into a template."""
    t = template.__class__
    if t is Symbol and template.name.startswith("$"):
        if template.name not in bindings:
            raise RuleError(f"unbound pattern variable '{template.name}'", template.loc)
        return bindings[template.name]
    if t is SList:
        return SList(tuple(substitute(item, bindings) for item in template.items),
                     template.loc)
    return template


_FOLDABLE = frozenset(["+", "-", "*", "=", "<", ">"])


def _literal_node(value):
    if isinstance(value, bool):
        return Boolean(value)
    if isinstance(value, int):
        return Integer(value)
    return Real(value)


def constant_fold(expr):
    """Bottom-up evaluation of ground arithmetic/comparison subexpressions with
    the evaluator's own primitives; ill-typed ground subexpressions, and those
    whose value is a non-finite real, which no literal can write, are left
    unfolded."""
    if expr.__class__ is not SList or not expr.items:
        return expr
    items = tuple(constant_fold(item) for item in expr.items)
    head = items[0]
    folded = SList(items, expr.loc)
    if (head.__class__ is Symbol and head.name in _FOLDABLE and len(items) >= 2
            and all(a.__class__ in _LITERALS for a in items[1:])):
        try:
            value = _PRIMITIVES[head.name]([a.value for a in items[1:]], None, expr.loc)
        except EvalError:
            return folded
        if value.__class__ is float and not math.isfinite(value):
            return folded
        return _literal_node(value)
    return folded


@dataclass(frozen=True)
class SolveResult:
    condition: SExpr      # solved form, or the original condition on failure
    solved: bool
    trace: tuple          # condition states, original first


def _positions(expr, path=()):
    yield path
    if expr.__class__ is SList:
        for i, item in enumerate(expr.items):
            yield from _positions(item, path + (i,))


def _node_at(expr, path):
    for i in path:
        expr = expr.items[i]
    return expr


def _replace_at(expr, path, new):
    if not path:
        return new
    i = path[0]
    items = list(expr.items)
    items[i] = _replace_at(items[i], path[1:], new)
    return SList(tuple(items), expr.loc)


def _var_depth(expr, name, depth=0):
    """Depth of the shallowest occurrence of `name`, or None."""
    if expr.__class__ is Symbol:
        return depth if expr.name == name else None
    if expr.__class__ is not SList:
        return None
    best = None
    for item in expr.items:
        d = _var_depth(item, name, depth + 1)
        if d is not None and (best is None or d < best):
            best = d
    return best


def _contains_var(expr, name):
    return _var_depth(expr, name) is not None


def _eq_sides(expr):
    if (expr.__class__ is SList and len(expr.items) == 3
            and expr.items[0].__class__ is Symbol and expr.items[0].name == "="):
        return expr.items[1], expr.items[2]
    return None


def _as_solved(expr, name):
    """Normalized (= target literal) if expr already has that shape."""
    sides = _eq_sides(expr)
    if sides is None:
        return None
    a, b = sides
    if a.__class__ is Symbol and a.name == name and b.__class__ in _LITERALS:
        return expr
    if b.__class__ is Symbol and b.name == name and a.__class__ in _LITERALS:
        return SList((expr.items[0], b, a), expr.loc)
    return None


def _start_state(condition, name):
    """The condition constant-folded, with the sides of `=` swapped when the
    target occurs only on the right."""
    state = constant_fold(condition)
    sides = _eq_sides(state)
    if (sides is not None and not _contains_var(sides[0], name)
            and _contains_var(sides[1], name)):
        state = SList((state.items[0], sides[1], sides[0]), state.loc)
    return state


def _find_step(state, name, rules):
    """The first rewrite, leftmost-outermost and in rule order, that strictly
    lowers the target's depth; equivalences right-to-left only after every
    left-to-right application failed.  Returns (applied, folded) or None."""
    base_depth = _var_depth(state, name)
    positions = list(_positions(state))
    for direction in ("lr", "rl"):
        for path in positions:
            sub = _node_at(state, path)
            for rule in rules:
                if direction == "rl":
                    if rule.kind != "equivalence":
                        continue
                    pat, tmpl = rule.rhs, rule.lhs
                else:
                    pat, tmpl = rule.lhs, rule.rhs
                bindings = match(pat, sub)
                if bindings is None:
                    continue
                applied = _replace_at(state, path, substitute(tmpl, bindings))
                folded = constant_fold(applied)
                depth = _var_depth(folded, name)
                if depth is not None and depth < base_depth:
                    return applied, folded
    return None


def solve_condition(condition, name, rules):
    """Try to rewrite `condition` into `(= name ground)`.  Best effort:
    returns the original condition (solved=False) when it cannot.  Every step
    lowers the target's depth, so the loop ends after at most that many."""
    if not _contains_var(condition, name):
        return SolveResult(condition, False, (condition,))
    state = _start_state(condition, name)
    trace = [condition] if state == condition else [condition, state]
    while True:
        solved = _as_solved(state, name)
        if solved is not None:
            if solved != trace[-1]:
                trace.append(solved)
            return SolveResult(solved, True, tuple(trace))
        step = _find_step(state, name, rules)
        if step is None:
            return SolveResult(condition, False, tuple(trace))
        applied, folded = step
        trace.append(applied)
        if folded != applied:
            trace.append(folded)
        state = folded
