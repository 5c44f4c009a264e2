"""A plain eval/apply walker over the reader's trees, in the style of SICP 4.1.

A reference for differential tests of `problisp.evaluator.evaluate`: it
walks each form every time it runs, looks up every symbol through the
scopes, and calls the primitives that `standard_env` binds, the functions
of `evaluator._PRIMITIVES`, for every primitive application.  It gives
the same values, the same errors at the same locations and the same draws
as the compiled evaluator, for the forms it covers: `define`, `lambda`,
`if`, `quote`, `let`, `sample`, `rejection-query` and applications.  A
query is sampled blind, as it is without rules.  The knowledge forms raise
NotImplementedError.  A call in tail position continues the walker's loop,
so tail recursion runs in constant Python stack; running out of stack in a
non-tail call is reported without the call's location.

`sample` draws a concept as `sampler.sample_concept` does, for well-formed
templates made of the forms above: it charges the budget, chooses a link,
and recurses on a concept source.  In an expression template it finds each
free symbol occurrence that names a concept, draws them in document order,
and walks a copy of the template in which each of those occurrences is its
draw, in a frame of its own.  The free occurrences come from a textbook
free-variable function, not from the compiler's walk.
"""

from problisp.concepts import ConceptId
from problisp.errors import ConceptError, EvalError, ExhaustionError, ProblispError
from problisp.evaluator import KNOWLEDGE_FORMS, SPECIAL_FORMS
from problisp.sampler import SampleBudget
from problisp.sexpr import SList, Symbol
from problisp.values import NIL, Closure, Env, Pair, Primitive, format_value


def run(expr, env, ctx):
    """The value of the form `expr` in `env`, as `evaluate` gives it."""
    try:
        return _eval(expr, env, ctx)
    except RecursionError:
        raise EvalError("recursion depth exceeded") from None


def _eval(expr, env, ctx):
    while True:   # a form in tail position replaces `expr` and `env`
        if expr.__class__ is Symbol:
            return _lookup(expr, env, ctx)
        if expr.__class__ is not SList:
            return expr.value
        items = expr.items
        if not items:
            raise EvalError("cannot evaluate an empty form", expr.loc)
        op = items[0].name if items[0].__class__ is Symbol else None
        if op not in SPECIAL_FORMS:
            fn = _eval(items[0], env, ctx)
            args = [_eval(item, env, ctx) for item in items[1:]]
            if fn.__class__ is Primitive:
                return fn.fn(args, ctx, expr.loc)
            if fn.__class__ is not Closure:
                raise EvalError(f"not a function: {format_value(fn)}", expr.loc)
            if len(args) != len(fn.params):
                raise EvalError(f"closure expects {len(fn.params)} arguments, "
                                f"got {len(args)}", expr.loc)
            env = _child(fn.env, zip(fn.params, args))
            expr = _body(fn.body, env, ctx)
        elif op == "if":
            if len(items) != 4:
                raise EvalError("if expects (if test then else)", expr.loc)
            test = _eval(items[1], env, ctx)
            if test is not True and test is not False:
                raise EvalError("if test must be a boolean", items[1].loc)
            expr = items[2] if test else items[3]
        elif op == "let":
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
            env = _child(env, frame)
            expr = _body(items[2:], env, ctx)
        elif op == "define":
            if len(items) != 3 or items[1].__class__ is not Symbol:
                raise EvalError("define expects (define name expr)", expr.loc)
            value = _eval(items[2], env, ctx)
            if items[1].name in env:
                raise EvalError(f"'{items[1].name}' is already defined in this scope",
                                items[1].loc)
            env[items[1].name] = value
            return None
        elif op == "lambda":
            return _lambda(expr, env)
        elif op == "quote":
            if len(items) != 2:
                raise EvalError("quote expects one argument", expr.loc)
            return _quote(items[1])
        elif op == "sample":
            if len(items) != 2:
                raise EvalError("sample expects one argument", expr.loc)
            if items[1].__class__ is Symbol:
                concept = _lookup(items[1], env, ctx, "unknown concept '{}'", ConceptError)
            else:
                concept = _eval(items[1], env, ctx)
            if concept.__class__ is not ConceptId:
                raise ConceptError(f"sample expects a concept, got {format_value(concept)}",
                                   expr.loc)
            if ctx.store is None or ctx.global_env is None:
                raise EvalError("sample needs a concept store and globals in its context",
                                expr.loc)
            return sample(concept, ctx, ctx.budget, ctx.sample_depth)
        elif op == "rejection-query":
            return _query(expr, env, ctx)[0]
        else:
            raise NotImplementedError(f"the reference walker has no '{op}'")


def run_query(expr, env, ctx):
    """(value, attempts) of the rejection query `expr` in `env`: its value,
    as `run` gives it, and the attempts it took."""
    try:
        return _query(expr, env, ctx)
    except RecursionError:
        raise EvalError("recursion depth exceeded") from None


def _query(expr, env, ctx):
    """(value, attempts) of a blind sample of a rejection query: each
    attempt walks the definitions and then the condition in a fresh child
    frame of `env`, and the first accepted attempt's frame gives the query's
    value."""
    if len(expr.items) < 3:
        raise EvalError("rejection-query expects (rejection-query defs... query condition)",
                        expr.loc)
    *definitions, query, condition = expr.items[1:]
    if ctx.max_attempts < 1:
        raise EvalError("max-attempts must be at least 1")
    for attempt in range(1, ctx.max_attempts + 1):
        frame = _child(env)
        try:
            for form in definitions:
                _eval(form, frame, ctx)
            accepted = _eval(condition, frame, ctx)
        except ProblispError as err:
            err.message = f"{err.message} (attempt {attempt})"
            err.args = (err.message,)
            raise
        if accepted is not True and accepted is not False:
            raise EvalError(f"query condition must evaluate to a boolean (attempt {attempt})",
                            condition.loc)
        if accepted:
            return _eval(query, frame, ctx), attempt
    raise ExhaustionError(f"no accepted sample after {ctx.max_attempts} attempts",
                          ctx.max_attempts)


def _child(parent, bindings=()):
    """A fresh frame below `parent` holding `bindings`."""
    frame = Env(bindings)
    frame.parent = parent
    return frame


def _body(forms, env, ctx):
    """Run every form of a body but the last, which is returned for the
    caller's loop to run in tail position."""
    for form in forms[:-1]:
        _eval(form, env, ctx)
    return forms[-1]


def _lookup(sym, env, ctx, message="unbound symbol '{}'", error=EvalError):
    while env is not None:
        if sym.name in env:
            return env[sym.name]
        env = env.parent
    concept = ctx.store.lookup(sym.name) if ctx.store is not None else None
    if concept is None:
        raise error(message.format(sym.name), sym.loc)
    return concept


def sample(concept, ctx, budget=None, depth=0):
    """A draw of `concept`, as `sampler.sample_concept` makes it."""
    if budget is None:
        budget = SampleBudget()
    budget.charge(depth)
    rows = ctx.store.instances(concept)
    if not rows:
        raise ConceptError(f"no generative model for concept '{concept.name}'")
    link = rows[0][0] if len(rows) == 1 else rows[ctx.rng.choose([w for _, w in rows])][0]
    if link.source.__class__ is ConceptId:
        return sample(link.source, ctx, budget, depth + 1)
    draws = []
    free = {id(sym) for sym in free_occurrences((link.source,))}
    template = _mark(link.source, free, ctx.store, draws)
    for drawn in draws:
        drawn.value = sample(drawn.concept, ctx, budget, depth + 1)
    env = _child(ctx.global_env)
    saved = ctx.session, ctx.budget, ctx.sample_depth
    ctx.session, ctx.budget, ctx.sample_depth = None, budget, depth + 1
    try:
        return _eval(template, env, ctx)
    finally:
        ctx.session, ctx.budget, ctx.sample_depth = saved


class _Drawn:
    """A concept occurrence of a template; the walker reads its `value`."""

    __slots__ = ("concept", "loc", "value")

    def __init__(self, concept, loc):
        self.concept, self.loc = concept, loc


def free_occurrences(body, bound=frozenset()):
    """The free symbol occurrences of the forms `body`, which run in a frame
    of their own, in document order.  A lambda's parameters, a let's names
    and a body's defines bind the whole body they belong to (R7RS 5.3.2);
    the body of a lambda, of a let and of a rejection-query is a body."""
    bound = bound | _defines(body)
    return [sym for form in body for sym in _free(form, bound)]


def _free(expr, bound):
    if expr.__class__ is Symbol:
        return [] if expr.name in bound else [expr]
    if expr.__class__ is not SList or not expr.items:
        return []
    head, *rest = expr.items
    op = head.name if head.__class__ is Symbol else None
    if op == "quote":
        return []
    if op == "lambda":
        return free_occurrences(rest[1:], bound | {p.name for p in rest[0].items})
    if op == "let":
        bindings = [b.items for b in rest[0].items]
        return ([sym for _, value in bindings for sym in _free(value, bound)]
                + free_occurrences(rest[1:], bound | {name.name for name, _ in bindings}))
    if op == "rejection-query":
        return free_occurrences(rest, bound)
    if op == "define":
        return _free(rest[1], bound)
    if op in KNOWLEDGE_FORMS:
        raise NotImplementedError(f"the reference walker has no '{op}' in a template")
    return [sym for item in (rest if op in SPECIAL_FORMS else expr.items)
            for sym in _free(item, bound)]


def _defines(body):
    """The names that the defines of the forms `body` bind in its frame:
    those not inside a quote or a nested body."""
    names = set()
    for expr in body:
        if expr.__class__ is not SList or not expr.items:
            continue
        head, *rest = expr.items
        op = head.name if head.__class__ is Symbol else None
        if op == "define":
            names |= {rest[0].name} | _defines(rest[1:])
        elif op == "let":
            names |= _defines([b.items[1] for b in rest[0].items])
        elif op not in ("quote", "lambda", "rejection-query"):
            names |= _defines(expr.items)
    return names


def _mark(expr, free, store, draws):
    """A copy of `expr` in which each symbol occurrence whose id is in `free`
    and that names a concept is a `_Drawn`, appended to `draws` in document
    order."""
    if expr.__class__ is Symbol:
        concept = store.lookup(expr.name) if id(expr) in free else None
        if concept is None:
            return expr
        draws.append(_Drawn(concept, expr.loc))
        return draws[-1]
    if expr.__class__ is not SList:
        return expr
    return SList(tuple(_mark(item, free, store, draws) for item in expr.items), expr.loc)


def _lambda(expr, env):
    """A closure whose body is the lambda's forms, walked at each call."""
    items = expr.items
    if len(items) < 3 or items[1].__class__ is not SList:
        raise EvalError("lambda expects (lambda (params...) body...)", expr.loc)
    params = items[1].items
    if any(p.__class__ is not Symbol for p in params):
        raise EvalError("lambda parameters must be symbols", expr.loc)
    names = tuple(p.name for p in params)
    if len(set(names)) != len(names):
        raise EvalError("duplicate lambda parameter", expr.loc)
    return Closure(names, items[2:], env)


def _quote(expr):
    if expr.__class__ is Symbol:
        return expr
    if expr.__class__ is SList:
        out = NIL
        for item in reversed(expr.items):
            out = Pair(_quote(item), out)
        return out
    return expr.value
