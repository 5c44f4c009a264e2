"""Evaluator: lexical scoping, seeded stochastic primitives, knowledge forms.

Special forms: define, lambda, if, quote, let, sample, rejection-query, and
the session-level knowledge forms (concept, is-a, equivalence, implication,
define-context, set-context).  Applications evaluate the operator first and
then the operands left to right; that order is observable through random
number consumption and is part of the contract.

A single Env/rng pair must not be shared across concurrent evaluations;
distinct evaluations with distinct Env and rng instances are safe to run in
parallel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .concepts import ConceptId
from .errors import ConceptError, EvalError
from .rng import flip, normal, random_integer
from .sexpr import Integer, Real, SList, Symbol
from .values import NIL, Closure, Env, Pair, Primitive, format_value, is_number, values_equal

DEFAULT_MAX_ATTEMPTS = 10 ** 6

KNOWLEDGE_FORMS = frozenset(
    ["concept", "is-a", "equivalence", "implication", "define-context", "set-context"])
SPECIAL_FORMS = frozenset(
    ["define", "lambda", "if", "quote", "let", "sample", "rejection-query"]) | KNOWLEDGE_FORMS

_MISSING = object()


@dataclass
class EvalContext:
    """Everything an evaluation needs besides the environment.

    A session builds one context per top-level form; `rules`, `rewrite`,
    `max_attempts` and `global_env` stay fixed for the session, `session` is
    set only there, and `snapshot` is refreshed after each knowledge form.
    A query copies that context with `session` cleared and sets `rng` for
    each sample; `run_samples` reuses its one copy across all samples of the
    query, so nothing may keep a context beyond the sample that used it.
    A concept instantiation copies the context again, setting `budget` and
    `sample_depth` for its own recursion along with `snapshot`, `global_env`
    and the `rng` it draws from.
    """

    rng: object | None = None
    snapshot: object | None = None
    session: object | None = None      # set only for top-level session forms
    rules: tuple = ()
    rewrite: bool = False
    max_attempts: int = DEFAULT_MAX_ATTEMPTS
    global_env: Env | None = None
    budget: object | None = None       # in-flight concept sampling budget
    sample_depth: int = 0


def evaluate(expr, env, ctx):
    """Evaluate one expression, reporting recursion blowups as language errors."""
    try:
        return _eval(expr, env, ctx)
    except RecursionError:
        raise EvalError("recursion depth exceeded") from None


def _lookup(env, name):
    """Value bound to `name` in the innermost frame that has it, else _MISSING."""
    while env is not None:
        v = env.frame.get(name, _MISSING)
        if v is not _MISSING:
            return v
        env = env.parent
    return _MISSING


def _concept_lookup(ctx, name):
    return ctx.snapshot.concept(name) if ctx.snapshot is not None else None


def _eval(expr, env, ctx):
    while True:
        t = expr.__class__
        if t is Symbol:
            v = _lookup(env, expr.name)
            if v is not _MISSING:
                return v
            cid = _concept_lookup(ctx, expr.name)
            if cid is not None:
                return cid
            raise EvalError(f"unbound symbol '{expr.name}'", expr.loc)
        if t is not SList:
            return expr.value
        items = expr.items
        if not items:
            raise EvalError("cannot evaluate an empty form", expr.loc)
        head = items[0]
        if head.__class__ is Symbol and head.name in SPECIAL_FORMS:
            op = head.name
            if op == "if":
                if len(items) != 4:
                    raise EvalError("if expects (if test then else)", expr.loc)
                test = _eval(items[1], env, ctx)
                if test.__class__ is not bool:
                    raise EvalError("if test must be a boolean", items[1].loc)
                expr = items[2] if test else items[3]
                continue
            if op == "define":
                if len(items) != 3 or items[1].__class__ is not Symbol:
                    raise EvalError("define expects (define name expr)", expr.loc)
                value = _eval(items[2], env, ctx)
                env.define(items[1].name, value, items[1].loc)
                return None
            if op == "quote":
                if len(items) != 2:
                    raise EvalError("quote expects one argument", expr.loc)
                return _quote(items[1])
            if op == "lambda":
                return _make_closure(expr, env)
            if op == "let":
                env, expr = _enter_let(expr, env, ctx)
                continue
            if op == "sample":
                return _eval_sample(expr, env, ctx)
            if op == "rejection-query":
                return _eval_rejection(expr, env, ctx)
            return _eval_knowledge(op, expr, env, ctx)
        fn = _eval(head, env, ctx)
        args = [_eval(a, env, ctx) for a in items[1:]]
        c = fn.__class__
        if c is Primitive:
            return fn.fn(args, ctx, expr.loc)
        if c is Closure:
            if len(args) != len(fn.params):
                raise EvalError(
                    f"closure expects {len(fn.params)} arguments, got {len(args)}", expr.loc)
            env = Env(fn.env, dict(zip(fn.params, args)))
            for b in fn.body[:-1]:
                _eval(b, env, ctx)
            expr = fn.body[-1]
            continue
        raise EvalError(f"not a function: {format_value(fn)}", expr.loc)


def _quote(expr):
    t = expr.__class__
    if t is Symbol:
        return expr
    if t is SList:
        out = NIL
        for item in reversed(expr.items):
            out = Pair(_quote(item), out)
        return out
    return expr.value


def _make_closure(expr, env):
    items = expr.items
    if len(items) < 3 or items[1].__class__ is not SList:
        raise EvalError("lambda expects (lambda (params...) body...)", expr.loc)
    params = []
    for p in items[1].items:
        if p.__class__ is not Symbol:
            raise EvalError("lambda parameters must be symbols", expr.loc)
        params.append(p.name)
    if len(set(params)) != len(params):
        raise EvalError("duplicate lambda parameter", expr.loc)
    return Closure(tuple(params), tuple(items[2:]), env)


def _enter_let(expr, env, ctx):
    items = expr.items
    if len(items) < 3 or items[1].__class__ is not SList:
        raise EvalError("let expects (let ((name expr)...) body...)", expr.loc)
    frame = {}
    for binding in items[1].items:
        if (binding.__class__ is not SList or len(binding.items) != 2
                or binding.items[0].__class__ is not Symbol):
            raise EvalError("malformed let binding", expr.loc)
        name = binding.items[0].name
        if name in frame:
            raise EvalError(f"duplicate let binding '{name}'", expr.loc)
        frame[name] = _eval(binding.items[1], env, ctx)
    inner = Env(env, frame)
    for b in items[2:-1]:
        _eval(b, inner, ctx)
    return inner, items[-1]


def _eval_sample(expr, env, ctx):
    from .sampler import SampleBudget, sample_concept

    if len(expr.items) != 2:
        raise EvalError("sample expects one argument", expr.loc)
    target = expr.items[1]
    if target.__class__ is Symbol:
        value = _lookup(env, target.name)
        if value is _MISSING:
            value = _concept_lookup(ctx, target.name)
            if value is None:
                raise ConceptError(f"unknown concept '{target.name}'", target.loc)
    else:
        value = _eval(target, env, ctx)
    if not isinstance(value, ConceptId):
        raise ConceptError(f"sample expects a concept, got {format_value(value)}", expr.loc)
    if ctx.snapshot is None:
        raise EvalError("no concept store available in this context", expr.loc)
    budget = ctx.budget if ctx.budget is not None else SampleBudget()
    base_env = ctx.global_env if ctx.global_env is not None else env
    return sample_concept(ctx.snapshot, value, ctx.rng, budget,
                          env=base_env, ctx=ctx, depth=ctx.sample_depth)


def _eval_rejection(expr, env, ctx):
    from .inference import QuerySpec, rejection_query

    spec = QuerySpec.from_form(expr)
    if ctx.rewrite and ctx.rules:
        from .rewrite import optimize_query

        spec = optimize_query(spec, ctx.rules)
    return rejection_query(spec, env, ctx.rng, ctx.max_attempts, ctx=ctx)


def _symbol_arg(items, i, form, loc):
    if len(items) <= i or items[i].__class__ is not Symbol:
        raise EvalError(f"{form} expects a symbol argument", loc)
    return items[i]


def _literal_weight(node, loc):
    if node.__class__ is Integer or node.__class__ is Real:
        return node.value
    raise ConceptError("weight must be a numeric literal", loc)


def _eval_knowledge(op, expr, env, ctx):
    sess = ctx.session
    if sess is None:
        raise EvalError(f"'{op}' is only allowed at the top level of a session", expr.loc)
    items = expr.items
    store = sess.store

    if op == "concept":
        if len(items) != 2:
            raise EvalError("concept expects (concept name)", expr.loc)
        name = _symbol_arg(items, 1, "concept", expr.loc)
        store.declare_concept(name.name, loc=name.loc)
    elif op == "is-a":
        if len(items) not in (3, 4):
            raise EvalError("is-a expects (is-a source concept [weight])", expr.loc)
        target = _symbol_arg(items, 2, "is-a", expr.loc)
        cid = store.require(target.name, loc=target.loc)
        weight = _literal_weight(items[3], items[3].loc) if len(items) == 4 else 1.0
        source = _resolve_isa_source(items[1], store, env)
        store.add_isa(source, cid, weight, loc=expr.loc)
    elif op in ("equivalence", "implication"):
        from .rewrite import rule_from_form

        rule = rule_from_form(expr, default_name=f"rule-{len(sess.rules) + 1}")
        sess.rules.append(rule)
    elif op == "define-context":
        if len(items) < 3:
            raise EvalError(
                "define-context expects (define-context name (source concept weight)...)",
                expr.loc)
        name = _symbol_arg(items, 1, "define-context", expr.loc)
        overrides = {}
        for clause in items[2:]:
            if clause.__class__ is not SList or len(clause.items) != 3:
                raise EvalError("context clause must be (source concept weight)", expr.loc)
            tgt = _symbol_arg(clause.items, 1, "define-context", clause.loc)
            cid = store.require(tgt.name, loc=tgt.loc)
            source = _resolve_isa_source(clause.items[0], store, env)
            link = store.find_link(source, cid)
            if link is None:
                raise ConceptError(
                    f"no is-a link {clause.items[0]} -> {tgt.name} to override", clause.loc)
            overrides[link.link_id] = _literal_weight(clause.items[2], clause.loc)
        store.define_context(name.name, overrides, loc=expr.loc)
    elif op == "set-context":
        if len(items) != 2:
            raise EvalError("set-context expects (set-context name)", expr.loc)
        name = _symbol_arg(items, 1, "set-context", expr.loc)
        store.set_context(name.name, loc=name.loc)
    # knowledge added by this form is visible to the rest of the same program
    ctx.snapshot = store.snapshot()
    return None


def _resolve_isa_source(node, store, env):
    """A bare symbol naming a declared concept denotes that concept; anything
    else is an expression template whose free names must be resolvable."""
    if node.__class__ is Symbol:
        cid = store.lookup(node.name)
        if cid is not None:
            return cid
    for name in sorted(free_symbols(node)):
        if store.lookup(name) is None and (env is None or _lookup(env, name) is _MISSING):
            raise ConceptError(f"unknown name '{name}' in is-a source", node.loc)
    return node


def free_symbols(expr):
    """Free symbol names of an expression, honoring quote and the binders."""
    return {sym.name for _, sym in free_symbol_paths(expr)}


def free_symbol_paths(expr):
    """(path, Symbol) for each free symbol occurrence, left to right; a path
    indexes SList items from the root.  Quote shields its argument; lambda and
    let bind their names in the body only (let binding values stay outside
    the scope); define's value is scanned, its name is not."""
    out = []
    _scope_walk(expr, frozenset(), (), out)
    return out


def _scope_walk(expr, bound, path, out):
    t = expr.__class__
    if t is Symbol:
        if expr.name not in bound:
            out.append((path, expr))
        return
    if t is not SList or not expr.items:
        return
    items = expr.items
    head = items[0]
    if head.__class__ is Symbol:
        op = head.name
        if op == "quote":
            return
        if op == "lambda" and len(items) >= 3 and items[1].__class__ is SList:
            inner = bound | {p.name for p in items[1].items if p.__class__ is Symbol}
            for i in range(2, len(items)):
                _scope_walk(items[i], inner, path + (i,), out)
            return
        if op == "let" and len(items) >= 3 and items[1].__class__ is SList:
            names = set()
            for j, pair in enumerate(items[1].items):
                if pair.__class__ is SList and len(pair.items) == 2:
                    if pair.items[0].__class__ is Symbol:
                        names.add(pair.items[0].name)
                    _scope_walk(pair.items[1], bound, path + (1, j, 1), out)
            inner = bound | names
            for i in range(2, len(items)):
                _scope_walk(items[i], inner, path + (i,), out)
            return
        if op == "define" and len(items) == 3 and items[1].__class__ is Symbol:
            _scope_walk(items[2], bound, path + (2,), out)
            return
        if op in SPECIAL_FORMS:
            for i in range(1, len(items)):
                _scope_walk(items[i], bound, path + (i,), out)
            return
    for i, item in enumerate(items):
        _scope_walk(item, bound, path + (i,), out)


# -- primitives -------------------------------------------------------------


def _need_numbers(args, name, loc):
    for a in args:
        if not is_number(a):
            raise EvalError(f"{name} expects numbers, got {format_value(a)}", loc)


def _prim_add(args, ctx, loc):
    _need_numbers(args, "+", loc)
    total = 0
    for a in args:
        total += a
    return total


def _prim_sub(args, ctx, loc):
    if not args:
        raise EvalError("- expects at least one argument", loc)
    _need_numbers(args, "-", loc)
    if len(args) == 1:
        return -args[0]
    total = args[0]
    for a in args[1:]:
        total -= a
    return total


def _prim_mul(args, ctx, loc):
    _need_numbers(args, "*", loc)
    total = 1
    for a in args:
        total *= a
    return total


def _prim_eq(args, ctx, loc):
    if len(args) < 2:
        raise EvalError("= expects at least two arguments", loc)
    return all(values_equal(args[i], args[i + 1]) for i in range(len(args) - 1))


def _prim_lt(args, ctx, loc):
    if len(args) < 2:
        raise EvalError("< expects at least two arguments", loc)
    _need_numbers(args, "<", loc)
    return all(args[i] < args[i + 1] for i in range(len(args) - 1))


def _prim_gt(args, ctx, loc):
    if len(args) < 2:
        raise EvalError("> expects at least two arguments", loc)
    _need_numbers(args, ">", loc)
    return all(args[i] > args[i + 1] for i in range(len(args) - 1))


def _prim_cons(args, ctx, loc):
    if len(args) != 2:
        raise EvalError("cons expects two arguments", loc)
    return Pair(args[0], args[1])


def _prim_first(args, ctx, loc):
    if len(args) != 1 or not isinstance(args[0], Pair):
        raise EvalError("first expects a pair", loc)
    return args[0].head


def _prim_rest(args, ctx, loc):
    if len(args) != 1 or not isinstance(args[0], Pair):
        raise EvalError("rest expects a pair", loc)
    return args[0].tail


def _prim_null(args, ctx, loc):
    if len(args) != 1:
        raise EvalError("null? expects one argument", loc)
    return args[0] is NIL


def _prim_list(args, ctx, loc):
    out = NIL
    for a in reversed(args):
        out = Pair(a, out)
    return out


def _prim_flip(args, ctx, loc):
    if len(args) > 1:
        raise EvalError("flip expects at most one argument", loc)
    p = args[0] if args else 0.5
    return flip(p, ctx.rng, loc)


def _prim_random_integer(args, ctx, loc):
    if len(args) != 1:
        raise EvalError("random-integer expects one argument", loc)
    return random_integer(args[0], ctx.rng, loc)


def _prim_normal(args, ctx, loc):
    if len(args) != 2:
        raise EvalError("normal expects (normal mean stdev)", loc)
    return normal(args[0], args[1], ctx.rng, loc)


_PRIMITIVES = {
    "+": _prim_add,
    "-": _prim_sub,
    "*": _prim_mul,
    "=": _prim_eq,
    "<": _prim_lt,
    ">": _prim_gt,
    "cons": _prim_cons,
    "first": _prim_first,
    "rest": _prim_rest,
    "null?": _prim_null,
    "list": _prim_list,
    "flip": _prim_flip,
    "random-integer": _prim_random_integer,
    "normal": _prim_normal,
}


def standard_env():
    """Fresh global environment with the primitive suite, pi and null."""
    env = Env()
    for name, fn in _PRIMITIVES.items():
        env.frame[name] = Primitive(name, fn)
    env.frame["pi"] = math.pi
    env.frame["null"] = NIL
    return env
