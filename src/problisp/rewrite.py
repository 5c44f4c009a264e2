"""Pattern matching, substitution, constant folding and condition solving.

Rules are directed (implication) or bidirectional (equivalence) pattern ->
template pairs whose variables are $-prefixed symbols.  Solving a condition
for a target variable starts from the constant-folded condition, with the
sides of `=` swapped when the target is only on the right.  It then applies
rules at the root and at every subexpression in leftmost-outermost order,
keeping only rewrites that strictly reduce the depth of the target's
shallowest occurrence, constant folding after every application.  That
depth bounds the number of steps.  Equivalences are tried right-to-left only
when no left-to-right application made progress in the current step.
Solving is best effort: on failure the original condition is returned.
Constant folding uses the evaluator's primitives, so it agrees with them.

Everything here is a pure function over immutable inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import EvalError, RuleError, ZeroProbabilityError
from .evaluator import _PRIMITIVES
from .sexpr import Boolean, Integer, Real, SExpr, SList, Symbol, Text, print_expr

_LITERALS = (Integer, Real, Boolean, Text)
_RANDOM_HEADS = frozenset(["random-integer", "normal", "flip", "sample", "rejection-query"])


# -- matching and substitution ------------------------------------------------


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


def pattern_vars(expr):
    out = set()
    _collect_vars(expr, out)
    return out


def _collect_vars(expr, out):
    t = expr.__class__
    if t is Symbol and expr.name.startswith("$"):
        out.add(expr.name)
    elif t is SList:
        for item in expr.items:
            _collect_vars(item, out)


# -- constant folding ----------------------------------------------------------


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


# -- rules ---------------------------------------------------------------------


@dataclass(frozen=True)
class RewriteRule:
    kind: str       # "equivalence" | "implication"
    lhs: SExpr
    rhs: SExpr
    name: str


def rule_from_form(form, default_name=None):
    """Build a rule from (equivalence [name] lhs rhs) / (implication ...).
    Rules whose applied direction would introduce free variables are rejected."""
    if form.__class__ is not SList or not form.items:
        raise RuleError("malformed rule form", getattr(form, "loc", None))
    head = form.items[0]
    if head.__class__ is not Symbol or head.name not in ("equivalence", "implication"):
        raise RuleError("rule must be (equivalence ...) or (implication ...)",
                        form.loc)
    kind = head.name
    rest = form.items[1:]
    if len(rest) == 3 and rest[0].__class__ is Symbol:
        name, lhs, rhs = rest[0].name, rest[1], rest[2]
    elif len(rest) == 2:
        name, lhs, rhs = default_name or "rule", rest[0], rest[1]
    else:
        raise RuleError(f"{kind} expects ({kind} [name] pattern template)", form.loc)
    lvars, rvars = pattern_vars(lhs), pattern_vars(rhs)
    if not rvars <= lvars:
        extra = ", ".join(sorted(rvars - lvars))
        raise RuleError(f"rule '{name}': right side introduces unbound {extra}", form.loc)
    if kind == "equivalence" and not lvars <= rvars:
        extra = ", ".join(sorted(lvars - rvars))
        raise RuleError(
            f"rule '{name}': equivalence is not reversible, left side loses {extra}",
            form.loc)
    return RewriteRule(kind, lhs, rhs, name)


# -- condition solving -----------------------------------------------------------


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


def solve_condition(condition, target, rules):
    """Try to rewrite `condition` into `(= target ground)`.  Best effort:
    returns the original condition (solved=False) when it cannot.  Every step
    lowers the target's depth, so the loop ends after at most that many."""
    name = target.name if isinstance(target, Symbol) else target
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


# -- query optimization ------------------------------------------------------------


@dataclass(frozen=True)
class OptimizeOutcome:
    spec: object               # QuerySpec (possibly rewritten)
    fired: bool
    target: str | None = None
    value: SExpr | None = None
    chain: tuple = ()          # condition states when fired
    definition: SExpr | None = None  # the rewritten (define v c) form


def _is_stochastic(expr):
    t = expr.__class__
    if t is Symbol:
        return expr.name in _RANDOM_HEADS
    if t is not SList or not expr.items:
        return False
    head = expr.items[0]
    if head.__class__ is Symbol and head.name == "quote":
        return False
    return any(_is_stochastic(item) for item in expr.items)


def _finite_support(expr):
    """Size n for a literal (random-integer n) prior; None otherwise."""
    if (expr.__class__ is SList and len(expr.items) == 2
            and expr.items[0].__class__ is Symbol
            and expr.items[0].name == "random-integer"
            and expr.items[1].__class__ is Integer
            and expr.items[1].value >= 1):
        return expr.items[1].value
    return None


def _in_support(value_node, n):
    """(in_support, canonical_node) for a solved constant against {0..n-1}."""
    if value_node.__class__ is Integer:
        v = value_node.value
        return (0 <= v < n), value_node
    if value_node.__class__ is Real and float(value_node.value).is_integer():
        v = int(value_node.value)
        return (0 <= v < n), Integer(v)
    return False, value_node


def optimize_query_detail(spec, rules):
    """Try to replace a stochastic prior with the point mass forced by the
    condition.  Fires only on exactly-checkable finite supports; a solved
    value provably outside the support raises ZeroProbabilityError."""
    for idx, d in enumerate(spec.definitions):
        if (d.__class__ is not SList or len(d.items) != 3
                or d.items[0].__class__ is not Symbol or d.items[0].name != "define"
                or d.items[1].__class__ is not Symbol):
            continue
        var = d.items[1].name
        prior = d.items[2]
        if not _is_stochastic(prior):
            continue
        result = solve_condition(spec.condition, var, rules)
        if not result.solved:
            continue
        constant = result.condition.items[2]
        support = _finite_support(prior)
        if support is None:
            continue  # continuous or concept-valued prior: leave the query alone
        ok, canonical = _in_support(constant, support)
        if not ok:
            raise ZeroProbabilityError(
                f"condition forces {var} = {print_expr(constant)}, outside the "
                f"support of (random-integer {support})", spec.condition.loc)
        new_define = SList((d.items[0], d.items[1], canonical), d.loc)
        definitions = list(spec.definitions)
        definitions[idx] = new_define
        new_spec = spec.__class__(tuple(definitions), spec.query, Boolean(True))
        return OptimizeOutcome(new_spec, True, var, canonical, result.trace, new_define)
    return OptimizeOutcome(spec, False)


def optimize_query(spec, rules):
    """QuerySpec -> QuerySpec; see optimize_query_detail for the report."""
    return optimize_query_detail(spec, rules).spec
