"""Pattern matching, substitution, constant folding and condition solving.

Rules are directed (implication) or bidirectional (equivalence) pattern ->
template pairs whose variables are $-prefixed symbols.  A rule compiles each
pattern it applies (its left side, and for an equivalence its right side too)
once, at its first use, into a matcher closure; an (arity, head symbol) key
skips nodes of another shape without a call (a pattern whose head is a
variable has no key).  Solving a condition for a target variable starts from
the constant-folded condition, with the sides of `=` swapped when the target
is only on the right.  Each step keeps the first rewrite, leftmost-outermost
and in rule order, that strictly reduces the depth of the target's shallowest
occurrence, so that depth bounds the steps.  Rules are tried at every node
shallower than it, and a candidate is judged on its own subtree: a rewrite at
depth L puts the target at L + 1 or deeper (at L for a bare-symbol template),
folding never moves it, and the accepted rewrite alone is applied and folded.
Equivalences go right-to-left only when no left-to-right application helped.
Solving is best effort: on failure the original condition is returned.
Constant folding uses the evaluator's primitives, so it agrees with them.
The optimizer leaves a query alone when a name whose meaning it assumes
(random-integer, a foldable operator or a rule's symbol) is bound by a
define in the query's own forms, or is one of the names that its caller
says a frame around it binds, such as a `let` or a closure's parameters.
Both come from the forms, so the optimizer reads no environment.

Everything here is a pure function that reads its inputs and changes none
of them; a rule only caches its compiled matchers.
"""

from __future__ import annotations

import math
from operator import is_not

from .errors import EvalError, RuleError, ZeroProbabilityError
from .evaluator import _PRIMITIVES, _scope_names
from .sexpr import Boolean, Integer, Real, SList, Symbol, Text, _Record, print_expr

_LITERALS = (Integer, Real, Boolean, Text)


# -- matching and substitution ------------------------------------------------


def match(pattern, expr, bindings=None):
    """First-order syntactic match; returns bindings or None.  Repeated
    variables must bind structurally equal subexpressions."""
    out = {} if bindings is None else dict(bindings)
    return out if _matcher(pattern, set(out))(expr, out) else None


def _matcher(pattern, seen):
    """`pattern` as a function (expr, bindings) -> bool that adds the
    bindings it makes; the variables in `seen` are bound before it runs."""
    t = pattern.__class__
    if t is Symbol and pattern.name.startswith("$"):
        name = pattern.name
        if name in seen:
            return lambda expr, out: out[name] == expr
        seen.add(name)
        return lambda expr, out: out.setdefault(name, expr) is expr   # binds it
    if t is Symbol:
        name = pattern.name
        return lambda expr, out: expr.__class__ is Symbol and expr.name == name
    if t is not SList:
        return lambda expr, out: pattern == expr
    n = len(pattern.items)
    parts = tuple([_matcher(item, seen) for item in pattern.items])

    def match_list(expr, out):
        if expr.__class__ is not SList or len(expr.items) != n:
            return False
        for part, item in zip(parts, expr.items):
            if not part(item, out):
                return False
        return True
    return match_list


def _key(expr):
    """(arity, head name) of a list whose head is a symbol but not a pattern
    variable; None otherwise."""
    if (expr.__class__ is SList and expr.items and expr.items[0].__class__ is Symbol
            and not expr.items[0].name.startswith("$")):
        return len(expr.items), expr.items[0].name
    return None


def substitute(template, bindings):
    """Simultaneous substitution of bound variables into a template."""
    t = template.__class__
    if t is Symbol and template.name.startswith("$"):
        if template.name not in bindings:
            raise RuleError(f"unbound pattern variable '{template.name}'", template.loc)
        return bindings[template.name]
    if t is SList:
        return SList(tuple([substitute(item, bindings) for item in template.items]),
                     template.loc)
    return template


def _symbols(expr):
    """The names of the symbols in `expr`."""
    if expr.__class__ is SList:
        return set().union(*map(_symbols, expr.items))
    return {expr.name} if expr.__class__ is Symbol else set()


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
    unfolded.  A node under which nothing folds is returned as it is."""
    if expr.__class__ is not SList or not expr.items:
        return expr
    items = tuple([constant_fold(item) if item.__class__ is SList else item
                   for item in expr.items])
    if any(map(is_not, items, expr.items)):
        expr = SList(items, expr.loc)
    head = items[0]
    if len(items) < 2 or head.__class__ is not Symbol or head.name not in _FOLDABLE:
        return expr
    for a in items[1:]:
        if a.__class__ not in _LITERALS:
            return expr
    try:
        value = _PRIMITIVES[head.name]([a.value for a in items[1:]], None, expr.loc)
    except EvalError:
        return expr
    if value.__class__ is float and not math.isfinite(value):
        return expr
    return _literal_node(value)


# -- rules ---------------------------------------------------------------------


class RewriteRule(_Record):
    __slots__ = ("kind", "lhs", "rhs", "name", "_symbols", "_ways")
    _fields = ("kind", "lhs", "rhs", "name")

    def __init__(self, kind, lhs, rhs, name):
        self.kind = kind   # "equivalence" | "implication"
        self.lhs = lhs
        self.rhs = rhs
        self.name = name
        # the symbols of each side; and per direction, left to right first:
        # [key, matcher (compiled at its first use), pattern, template, the
        # least depth below its node at which the template can put the
        # target: 0 for a bare symbol, 1 otherwise]
        self._symbols = (_symbols(lhs), _symbols(rhs))
        self._ways = [[_key(lhs), None, lhs, rhs, int(rhs.__class__ is not Symbol)]]
        if kind == "equivalence":
            self._ways.append([_key(rhs), None, rhs, lhs, int(lhs.__class__ is not Symbol)])


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
    rule = RewriteRule(kind, lhs, rhs, name)
    lvars, rvars = [{v for v in side if v.startswith("$")} for side in rule._symbols]
    if not rvars <= lvars:
        extra = ", ".join(sorted(rvars - lvars))
        raise RuleError(f"rule '{name}': right side introduces unbound {extra}", form.loc)
    if kind == "equivalence" and not lvars <= rvars:
        extra = ", ".join(sorted(lvars - rvars))
        raise RuleError(
            f"rule '{name}': equivalence is not reversible, left side loses {extra}",
            form.loc)
    return rule


# -- condition solving -----------------------------------------------------------


class SolveResult(_Record):
    __slots__ = _fields = ("condition", "solved", "trace")

    def __init__(self, condition, solved, trace):
        self.condition = condition   # solved form, or the original condition on failure
        self.solved = solved
        self.trace = trace           # condition states, original first


def _replace_at(expr, path, new):
    if not path:
        return new
    i = path[0]
    items = expr.items
    return SList(items[:i] + (_replace_at(items[i], path[1:], new),) + items[i + 1:],
                 expr.loc)


def _var_depth(expr, name, depth=0):
    """Depth of the shallowest `name` in `expr`, counted from `depth`, or None."""
    if expr.__class__ is not SList:
        return depth if expr.__class__ is Symbol and expr.name == name else None
    best = None
    for item in expr.items:
        if item.__class__ is SList:
            d = _var_depth(item, name, depth + 1)
            if d is not None and (best is None or d < best):
                best = d
        elif item.__class__ is Symbol and item.name == name:
            return depth + 1   # no sibling holds it shallower
    return best


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


def _find_step(state, name, ways, base):
    """(path, new subtree, the target's new depth) of the first rewrite that
    lowers the target's depth `base`, or None; `ways` holds the rules'
    compiled patterns, all left to right and then right to left."""
    for tries in ways:
        step = tries and _step_at(state, (), name, tries, base)
        if step:
            return step
    return None


def _step_at(node, path, name, tries, base):
    """`_find_step` in one direction, at `node` and then below it, visiting
    only nodes shallower than `base` and skipping a template that cannot
    reach below it there."""
    depth = len(path)
    key = _key(node)
    for way in tries:
        rule_key, matcher, pattern, template, reach = way
        if depth + reach >= base or (rule_key is not None and rule_key != key):
            continue
        if matcher is None:
            matcher = way[1] = _matcher(pattern, set())
        bindings = {}
        if not matcher(node, bindings):
            continue
        new = substitute(template, bindings)
        new_depth = _var_depth(new, name, depth)
        if new_depth is not None and new_depth < base:
            return path, new, new_depth
    if node.__class__ is SList and depth + 1 < base:
        for i, item in enumerate(node.items):
            step = _step_at(item, path + (i,), name, tries, base)
            if step is not None:
                return step
    return None


def solve_condition(condition, name, rules):
    """Try to rewrite `condition` into `(= name ground)`, where `name` is the
    target variable's name.  Best effort: returns the original condition
    (solved=False) when it cannot.  Every step lowers the target's depth, so
    the loop ends after at most that many."""
    depth = _var_depth(condition, name)
    if depth is None:
        return SolveResult(condition, False, (condition,))
    # neither folding nor the swap of `=` sides moves the target
    state = constant_fold(condition)
    sides = _eq_sides(state)
    if (sides is not None and _var_depth(sides[0], name) is None
            and _var_depth(sides[1], name) is not None):
        state = SList((state.items[0], sides[1], sides[0]), state.loc)
    # constant_fold returns its input when nothing folds, so `is` suffices
    trace = [condition] if state is condition else [condition, state]
    ways = ([rule._ways[0] for rule in rules],
            [way for rule in rules for way in rule._ways[1:]])
    while True:
        solved = _as_solved(state, name)
        if solved is not None:
            if solved is not trace[-1]:
                trace.append(solved)
            return SolveResult(solved, True, tuple(trace))
        step = _find_step(state, name, ways, depth)
        if step is None:
            return SolveResult(condition, False, tuple(trace))
        path, new, depth = step
        applied = _replace_at(state, path, new)
        state = constant_fold(applied)
        trace.append(applied)
        if state is not applied:
            trace.append(state)


# -- query optimization ------------------------------------------------------------


class OptimizeOutcome(_Record):
    __slots__ = _fields = ("spec", "fired", "target", "value", "chain", "definition")

    def __init__(self, spec, fired, target=None, value=None, chain=(), definition=None):
        self.spec = spec                 # QuerySpec (possibly rewritten)
        self.fired = fired
        self.target = target             # the pinned variable's name
        self.value = value               # its value node
        self.chain = chain               # condition states when fired
        self.definition = definition     # the rewritten (define v c) form


# names whose meaning the optimizer assumes besides the rules' symbols
_ASSUMED = _FOLDABLE | {"random-integer"}


def _in_support(value_node, n):
    """(in_support, canonical_node) for a solved constant against {0..n-1}."""
    if value_node.__class__ is Integer:
        v = value_node.value
        return (0 <= v < n), value_node
    if value_node.__class__ is Real and float(value_node.value).is_integer():
        v = int(value_node.value)
        return (0 <= v < n), Integer(v)
    return False, value_node


def optimize_query_detail(spec, rules, shadowed=()):
    """Try to replace a literal (random-integer n) prior with the point mass
    forced by the condition, and the condition with #t unless the rules
    hold an implication; a solved value provably outside the support raises
    ZeroProbabilityError.  A query is left untouched when
    random-integer, a foldable operator or a non-pattern symbol of a rule is
    bound by a define in its forms, or is in `shadowed`, the names that the
    frames around the query bind: the rewrite would assume their meaning."""
    names = _scope_names((*spec.definitions, spec.query, spec.condition))
    names = {name for name in names.union(shadowed) if not name.startswith("$")}
    if not names.isdisjoint(_ASSUMED.union(*[side for rule in rules
                                             for side in rule._symbols])):
        return OptimizeOutcome(spec, False)
    for idx, support in enumerate(spec.supports):
        if support is None:
            continue  # continuous, concept-valued or other prior: leave it alone
        d = spec.definitions[idx]
        var = d.items[1].name
        result = solve_condition(spec.condition, var, rules)
        if not result.solved:
            continue
        constant = result.condition.items[2]
        ok, canonical = _in_support(constant, support)
        if not ok:
            raise ZeroProbabilityError(
                f"condition forces {var} = {print_expr(constant)}, outside the "
                f"support of (random-integer {support})", spec.condition.loc)
        new_define = SList((d.items[0], d.items[1], canonical), d.loc)
        # after an implication the condition only implies the pin: it stays
        condition = Boolean(True)
        for rule in rules:
            if rule.kind == "implication":
                condition = spec.condition
                break
        new_spec = spec._pinned(idx, new_define, condition)
        return OptimizeOutcome(new_spec, True, var, canonical, result.trace, new_define)
    return OptimizeOutcome(spec, False)
