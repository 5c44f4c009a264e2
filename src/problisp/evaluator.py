"""Evaluator: lexical scoping, seeded stochastic primitives, knowledge forms.

Special forms: define, lambda, if, quote, let, sample, rejection-query, and
the session-level knowledge forms (concept, is-a, equivalence, implication,
define-context, set-context).  Applications evaluate the operator first and
then the operands left to right; that order is observable through random
number consumption and is part of the contract.

Compile once, run many.  A form is compiled in one pass into code, a Python
function `(env, ctx) -> value`; queries and concept templates then run that
code on every attempt or instantiation, and a closure holds the code of its
lambda's body.  Special forms and their shapes are decided when compiling.
A malformed form compiles to code that raises its error, so errors still
happen when the form is evaluated, with the same message and location:
`(if #t 1 (if))` is 1.

A symbol is replaced by its value when compiling only if the code is
compiled for a root (global) environment that binds it, no enclosing lambda
or let binds it, and no define in the compiled forms defines it (a define may
target a frame between the use and the root, even after the use).  This is
sound because a root binding never changes: `define` refuses to rebind.
Every other symbol is looked up when it runs, and so is every symbol of code
compiled for a frame below the root, since later forms may extend the frames
between.  A closure call in tail position returns a tail call for the
caller's loop, so tail recursion runs in constant Python stack.

Hot call shapes are specialized, each to exactly the values, draws, errors
and locations of the generic path it skips.  A symbol read probes its own
frame before `_lookup` walks the parents, the order `_lookup` takes; a
closure call's operator (then in the parent frame too) and single argument,
`flip`'s argument and the operands of two-argument `+ - * = < >` make that
probe inline and run the read on a miss; an operator bound when compiling
is held in the call's code.  A one-parameter closure's frame is the dict
`zip` would build.  A known global primitive is called directly:
`random-integer` of a positive integer literal and `flip` of a real in
[0, 1] draw at once, any other argument goes through the checking draw.
`+ - * = < >` on two numbers apply the primitive's own two-argument fold,
with a numeric literal operand held in the code; any other operand, or an
overflow, goes to the primitive.  `define` checks and writes its frame.

A single Env/rng pair must not be shared across concurrent evaluations;
distinct evaluations with distinct Env and rng instances are safe to run in
parallel.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

from .concepts import ConceptId
from .errors import ConceptError, EvalError
from .rng import as_draws, flip, normal, random_integer
from .sexpr import Integer, Real, SExpr, SList, Symbol
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

    `rng` is the draw object (`rng.Draws`) that makes every random choice:
    the primitives and the concept sampler call it and nothing else.  A
    numpy Generator given here is adopted by one, whose draws advance it,
    and a context made with no random source gets `rng.NO_SOURCE`, whose
    draws are errors.

    A session builds one context per top-level form; `rules`, `rewrite`,
    `max_attempts` and `global_env` stay fixed for the session, `session` is
    set only there, and `snapshot` is refreshed after each knowledge form.
    A query copies that context with `session` cleared and its own draw
    object; `run_samples` reuses its one copy and one draw object across all
    samples of the query, giving each sample's stream to the draw object,
    so nothing may keep a context beyond the sample that used it.  A
    concept instantiation sets `budget` and `sample_depth` for its own
    recursion, along with `snapshot`, `global_env`, the `rng` it draws from
    and no `session`, on the context it is given, and puts the old values
    back when it returns.

    The context is read when code runs, never when it is compiled: compiled
    code depends only on the forms and on the root frame it was compiled
    for, so one compiled query or template serves every context.
    """

    rng: object = None
    snapshot: object | None = None
    session: object | None = None      # set only for top-level session forms
    rules: tuple = ()
    rewrite: bool = False
    max_attempts: int = DEFAULT_MAX_ATTEMPTS
    global_env: Env | None = None
    budget: object | None = None       # in-flight concept sampling budget
    sample_depth: int = 0

    def __post_init__(self):
        self.rng = as_draws(self.rng)


def evaluate(expr, env, ctx):
    """Run `expr` in `env`: an SExpr is compiled first, code from
    `compile_forms` runs as it is.  Recursion blowups are language errors."""
    if isinstance(expr, SExpr):
        expr, = compile_forms((expr,), env)
    try:
        return expr(env, ctx)
    except RecursionError:
        raise EvalError("recursion depth exceeded") from None


def compile_forms(forms, env, slot=None):
    """Compile `forms` together, for running in order in `env` or in a fresh
    child frame of it, into one code object each.  They are compiled as one
    unit: a define in any of them keeps that name from being bound when
    compiling in all of them.  `slot(symbol)` is called for each free symbol
    occurrence, left to right; where it returns a name, that occurrence reads
    the variable of that name instead."""
    try:
        compiler = _Compiler(forms, env, slot)
        return [compiler.expr(form, (i,)) for i, form in enumerate(forms)]
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


# -- running compiled code ----------------------------------------------------


class _TailCall:
    """A closure call left for the caller's loop to run (tail position)."""

    __slots__ = ("fn", "args", "loc")

    def __init__(self, fn, args, loc):
        self.fn = fn
        self.args = args
        self.loc = loc


def _constant(value):
    return lambda env, ctx: value


def _fail(message, loc):
    def run(env, ctx):
        raise EvalError(message, loc)
    return run


def _sequence(codes):
    """Code running `codes` in order, returning the last one's value."""
    if len(codes) == 1:
        return codes[0]
    *init, last = codes

    def run(env, ctx):
        for c in init:
            c(env, ctx)
        return last(env, ctx)
    return run


# -- compiling ------------------------------------------------------------------

_NUMERIC = frozenset([int, float])   # exact classes; bool takes the primitive
_NUMBER_NODES = frozenset([Integer, Real])   # literals whose values are in _NUMERIC

# two-argument arithmetic on numbers, exactly as the primitives fold it
# (`1 * a` is `a` for every int and float, `0 + a` is not for -0.0)
_BINARY = {
    "+": lambda a, b: 0 + a + b,
    "-": operator.sub,
    "*": operator.mul,
    "=": operator.eq,
    "<": operator.lt,
    ">": operator.gt,
}


class _Compiler:
    """Compiles the forms of one unit; see the module docstring for what is
    decided here and what is left to run time.  A node's path is the index
    of its form followed by the SList indices leading to it."""

    def __init__(self, forms, env, slot=None):
        self.root = env if env is not None and env.parent is None else None
        self.defined = set()
        self.free = {}   # path of a free symbol -> None, or the slot name read there
        for i, form in enumerate(forms):
            for path, sym in free_symbol_paths(form, self.defined):
                self.free[(i, *path)] = slot(sym) if slot is not None else None

    def expr(self, expr, path, tail=False):
        """Code for `expr` at `path`.  The dispatch is inline, so that a level
        of nesting costs two Python frames to compile."""
        t = expr.__class__
        if t is Symbol:
            return self.symbol(expr, path)
        if t is not SList:
            return _constant(expr.value)
        items = expr.items
        if not items:
            return _fail("cannot evaluate an empty form", expr.loc)
        head = items[0]
        if head.__class__ is not Symbol or head.name not in SPECIAL_FORMS:
            return self.application(expr, path, tail)
        op = head.name
        if op == "if":
            return self.if_form(expr, path, tail)
        if op == "define":
            return self.define(expr, path)
        if op == "quote":
            if len(items) != 2:
                return _fail("quote expects one argument", expr.loc)
            return _constant(_quote(items[1]))
        if op == "lambda":
            return self.lambda_form(expr, path)
        if op == "let":
            return self.let(expr, path, tail)
        if op == "sample":
            return self.sample(expr, path)
        if op == "rejection-query":
            return self.rejection(expr, path)
        return lambda env, ctx: _eval_knowledge(op, expr, env, ctx)

    def body(self, items, start, path, tail):
        last = len(items) - 1
        codes = []
        for i in range(start, last + 1):
            codes.append(self.expr(items[i], path + (i,), tail and i == last))
        return _sequence(codes)

    def resolve(self, sym, path):
        """(name, value) for the symbol `sym` at `path`: the name to look up
        (a slot's, or its own) and the value it is bound to when compiling,
        or _MISSING when it must be looked up when it runs."""
        free = self.free.get(path, _MISSING)
        if free.__class__ is str:
            return free, _MISSING
        if free is None and self.root is not None and sym.name not in self.defined:
            return sym.name, self.root.frame.get(sym.name, _MISSING)
        return sym.name, _MISSING

    def local(self, node, path):
        """The variable a symbol read `node` at `path` looks up when it runs,
        or None (which no frame holds) for any other node."""
        if node.__class__ is Symbol:
            name, value = self.resolve(node, path)
            if value is _MISSING:
                return name
        return None

    def symbol(self, sym, path, message="unbound symbol '{}'", error=EvalError):
        name, value = self.resolve(sym, path)
        if value is not _MISSING:
            return _constant(value)
        loc = sym.loc

        def run(env, ctx):
            v = env.frame.get(name, _MISSING)
            if v is _MISSING:
                v = _lookup(env.parent, name)
                if v is _MISSING:
                    v = _concept_lookup(ctx, name)
                    if v is None:
                        raise error(message.format(name), loc)
            return v
        return run

    def if_form(self, expr, path, tail):
        items = expr.items
        if len(items) != 4:
            return _fail("if expects (if test then else)", expr.loc)
        test = self.expr(items[1], path + (1,))
        then = self.expr(items[2], path + (2,), tail)
        other = self.expr(items[3], path + (3,), tail)
        loc = items[1].loc

        def run(env, ctx):
            t = test(env, ctx)
            if t is True:
                return then(env, ctx)
            if t is False:
                return other(env, ctx)
            raise EvalError("if test must be a boolean", loc)
        return run

    def define(self, expr, path):
        items = expr.items
        if len(items) != 3 or items[1].__class__ is not Symbol:
            return _fail("define expects (define name expr)", expr.loc)
        value = self.expr(items[2], path + (2,))
        name, loc = items[1].name, items[1].loc

        def run(env, ctx):
            v = value(env, ctx)
            if name in env.frame:
                raise EvalError(f"'{name}' is already defined in this scope", loc)
            env.frame[name] = v
        return run

    def lambda_form(self, expr, path):
        items = expr.items
        if len(items) < 3 or items[1].__class__ is not SList:
            return _fail("lambda expects (lambda (params...) body...)", expr.loc)
        params = []
        for p in items[1].items:
            if p.__class__ is not Symbol:
                return _fail("lambda parameters must be symbols", expr.loc)
            params.append(p.name)
        if len(set(params)) != len(params):
            return _fail("duplicate lambda parameter", expr.loc)
        params = tuple(params)
        body = self.body(items, 2, path, True)
        return lambda env, ctx: Closure(params, body, env)

    def let(self, expr, path, tail):
        items = expr.items
        if len(items) < 3 or items[1].__class__ is not SList:
            return _fail("let expects (let ((name expr)...) body...)", expr.loc)
        names, values, error = [], [], None
        for j, binding in enumerate(items[1].items):
            if (binding.__class__ is not SList or len(binding.items) != 2
                    or binding.items[0].__class__ is not Symbol):
                error = "malformed let binding"
                break
            name = binding.items[0].name
            if name in names:
                error = f"duplicate let binding '{name}'"
                break
            names.append(name)
            values.append(self.expr(binding.items[1], path + (1, j, 1)))
        if error is not None:
            # the bindings before the bad one run first, draws and errors included
            return _sequence(values + [_fail(error, expr.loc)])
        body = self.body(items, 2, path, tail)
        bindings = tuple(zip(names, values))

        def run(env, ctx):
            frame = {}
            for name, value in bindings:
                frame[name] = value(env, ctx)
            return body(Env(env, frame), ctx)
        return run

    def sample(self, expr, path):
        items = expr.items
        if len(items) != 2:
            return _fail("sample expects one argument", expr.loc)
        target = items[1]
        if target.__class__ is Symbol:
            find = self.symbol(target, path + (1,), "unknown concept '{}'", ConceptError)
        else:
            find = self.expr(target, path + (1,))
        loc = expr.loc

        def run(env, ctx):
            value = find(env, ctx)
            if not isinstance(value, ConceptId):
                raise ConceptError(
                    f"sample expects a concept, got {format_value(value)}", loc)
            if ctx.snapshot is None:
                raise EvalError("no concept store available in this context", loc)
            budget = ctx.budget if ctx.budget is not None else _sampler.SampleBudget()
            base_env = ctx.global_env if ctx.global_env is not None else env
            return _sampler.sample_concept(ctx.snapshot, value, ctx.rng, budget,
                                           env=base_env, ctx=ctx, depth=ctx.sample_depth)
        return run

    def rejection(self, expr, path):
        # the query compiles its own forms when it runs, so slot occurrences
        # inside it become symbols naming their slots
        n = len(path)
        slots = {p[n:]: name for p, name in self.free.items()
                 if name.__class__ is str and p[:n] == path}
        try:
            spec = _inference.QuerySpec.from_form(_rename(expr, slots) if slots else expr)
        except EvalError as err:
            return _fail(err.message, err.loc)

        def run(env, ctx):
            query = spec
            if ctx.rewrite and ctx.rules:
                query = _rewrite.optimize_query(spec, ctx.rules)
            return _inference.rejection_query(query, env, ctx.rng, ctx.max_attempts,
                                              ctx=ctx)
        return run

    def application(self, expr, path, tail):
        items = expr.items
        loc = expr.loc
        codes = []
        for i in range(1, len(items)):
            codes.append(self.expr(items[i], path + (i,)))
        head = items[0]
        # the operator's value when it is bound when compiling
        known = self.resolve(head, path + (0,))[1] if head.__class__ is Symbol else _MISSING
        if known.__class__ is Primitive and _PRIMITIVES.get(known.name) is known.fn:
            return self.primitive_call(known, codes, items, path, loc)
        op_code = self.expr(head, path + (0,)) if known is _MISSING else None
        op_name = self.local(head, path + (0,))
        single = codes[0] if len(codes) == 1 else None
        arg = self.local(items[1], path + (1,)) if single is not None else None

        def run(env, ctx):
            fn = known
            if fn is _MISSING:   # on a miss the operand's own code looks again
                fn = env.frame.get(op_name, _MISSING)
                if fn is _MISSING and env.parent is not None:
                    fn = env.parent.frame.get(op_name, _MISSING)
                if fn is _MISSING:
                    fn = op_code(env, ctx)
            if single is None:
                args = [c(env, ctx) for c in codes]
            else:
                x = env.frame.get(arg, _MISSING)
                args = [x if x is not _MISSING else single(env, ctx)]
            call_loc = loc
            while True:   # runs the tail calls that closure bodies return
                c = fn.__class__
                if c is Primitive:
                    return fn.fn(args, ctx, call_loc)
                if c is not Closure:
                    raise EvalError(f"not a function: {format_value(fn)}", call_loc)
                if tail:
                    return _TailCall(fn, args, call_loc)
                params = fn.params
                if len(args) != len(params):
                    raise EvalError(f"closure expects {len(params)} arguments, "
                                    f"got {len(args)}", call_loc)
                frame = {params[0]: args[0]} if len(params) == 1 else dict(zip(params, args))
                try:
                    result = fn.body(Env(fn.env, frame), ctx)
                except RecursionError:
                    # the nested call that ran out of Python stack; raising
                    # may itself run out, and then a caller reports it
                    raise EvalError("recursion depth exceeded", call_loc) from None
                if result.__class__ is not _TailCall:
                    return result
                fn, args, call_loc = result.fn, result.args, result.loc
        return run

    def primitive_call(self, prim, codes, items, path, loc):
        """Code calling a standard primitive known when compiling, on the
        argument codes `codes` compiled from `items[1:]`."""
        fn = prim.fn
        if len(codes) == 1:
            a, = codes
            node = items[1]
            if prim.name == "random-integer":
                if node.__class__ is Integer and node.value > 0:
                    n = node.value
                    return lambda env, ctx: ctx.rng.integer(n, loc)
                return lambda env, ctx: random_integer(a(env, ctx), ctx.rng, loc)
            if prim.name == "flip":
                if node.__class__ is Real and 0 <= node.value <= 1:
                    p = node.value
                    return lambda env, ctx: ctx.rng.flip(p, loc)
                name = self.local(node, path + (1,))

                def run(env, ctx):
                    p = env.frame.get(name, _MISSING)
                    if p is _MISSING:
                        p = a(env, ctx)
                    if p.__class__ is float and 0.0 <= p <= 1.0:
                        return ctx.rng.flip(p, loc)
                    return flip(p, ctx.rng, loc)   # checks and reports the rest
                return run
            return lambda env, ctx: fn([a(env, ctx)], ctx, loc)
        binary = _BINARY.get(prim.name) if len(codes) == 2 else None
        if binary is None:
            return lambda env, ctx: fn([c(env, ctx) for c in codes], ctx, loc)
        a, b = codes
        # what the fast path does not take, an overflow included, goes to the
        # primitive, which checks it and reports the error
        lit_a, lit_b = (n.value if n.__class__ in _NUMBER_NODES else _MISSING
                        for n in items[1:])
        if prim.name == "+" and (lit_a is not _MISSING or lit_b is not _MISSING):
            # 0 + x + c is x + (0 + c) for every int and float x and c: adding 0
            # changes only -0.0, and only a sum of two -0.0 tells -0.0 from 0.0
            binary = operator.add
            lit_a, lit_b = (v if v is _MISSING else 0 + v for v in (lit_a, lit_b))
        name_a = self.local(items[1], path + (1,)) if lit_a is _MISSING else None
        name_b = self.local(items[2], path + (2,)) if lit_b is _MISSING else None
        if lit_b is not _MISSING:
            def run(env, ctx):
                x = env.frame.get(name_a, _MISSING)
                if x is _MISSING:
                    x = a(env, ctx)
                if x.__class__ in _NUMERIC:
                    try:
                        return binary(x, lit_b)
                    except OverflowError:
                        pass
                return fn([x, lit_b], ctx, loc)
        elif lit_a is not _MISSING:
            def run(env, ctx):
                y = env.frame.get(name_b, _MISSING)
                if y is _MISSING:
                    y = b(env, ctx)
                if y.__class__ in _NUMERIC:
                    try:
                        return binary(lit_a, y)
                    except OverflowError:
                        pass
                return fn([lit_a, y], ctx, loc)
        else:
            def run(env, ctx):
                x = env.frame.get(name_a, _MISSING)
                if x is _MISSING:
                    x = a(env, ctx)
                y = env.frame.get(name_b, _MISSING)
                if y is _MISSING:
                    y = b(env, ctx)
                if x.__class__ in _NUMERIC and y.__class__ in _NUMERIC:
                    try:
                        return binary(x, y)
                    except OverflowError:
                        pass
                return fn([x, y], ctx, loc)
        return run


def _rename(expr, names, path=()):
    """`expr` with the symbol at each path of `names` renamed to its name there."""
    if path in names:
        return Symbol(names[path], expr.loc)
    if expr.__class__ is SList:
        return SList(tuple(_rename(item, names, path + (i,))
                           for i, item in enumerate(expr.items)), expr.loc)
    return expr


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
        rule = _rewrite.rule_from_form(expr, default_name=f"rule-{len(sess.rules) + 1}")
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
    else is an expression template whose free names must be resolvable.  A
    name the template defines itself, such as a query's definition, is
    resolved when the template runs."""
    if node.__class__ is Symbol:
        cid = store.lookup(node.name)
        if cid is not None:
            return cid
    defined = set()
    free = {sym.name for _, sym in free_symbol_paths(node, defined)}
    for name in sorted(free - defined):
        if store.lookup(name) is None and (env is None or _lookup(env, name) is _MISSING):
            raise ConceptError(f"unknown name '{name}' in is-a source", node.loc)
    return node


def free_symbol_paths(expr, defined=None):
    """(path, Symbol) for each free symbol occurrence, left to right; a path
    indexes SList items from the root.  Quote shields its argument; lambda and
    let bind their names in the body only (let binding values stay outside
    the scope); define's value is scanned, its name is not, but when
    `defined` is a set the name of every well-formed define is added to it."""
    out = []
    _scope_walk(expr, frozenset(), (), out, defined)
    return out


def _scope_walk(expr, bound, path, out, defined):
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
                _scope_walk(items[i], inner, path + (i,), out, defined)
            return
        if op == "let" and len(items) >= 3 and items[1].__class__ is SList:
            names = set()
            for j, pair in enumerate(items[1].items):
                if pair.__class__ is SList and len(pair.items) == 2:
                    if pair.items[0].__class__ is Symbol:
                        names.add(pair.items[0].name)
                    _scope_walk(pair.items[1], bound, path + (1, j, 1), out, defined)
            inner = bound | names
            for i in range(2, len(items)):
                _scope_walk(items[i], inner, path + (i,), out, defined)
            return
        if op == "define" and len(items) == 3 and items[1].__class__ is Symbol:
            if defined is not None:
                defined.add(items[1].name)
            _scope_walk(items[2], bound, path + (2,), out, defined)
            return
        if op in SPECIAL_FORMS:
            for i in range(1, len(items)):
                _scope_walk(items[i], bound, path + (i,), out, defined)
            return
    for i, item in enumerate(items):
        _scope_walk(item, bound, path + (i,), out, defined)


# -- primitives -------------------------------------------------------------


def _need_numbers(args, name, loc):
    for a in args:
        if not is_number(a):
            raise EvalError(f"{name} expects numbers, got {format_value(a)}", loc)


def _accumulate(total, args, step, name, loc):
    """`total` stepped through `args` from the left; a number too large for
    a float is a language error."""
    try:
        for a in args:
            total = step(total, a)
    except OverflowError:
        raise EvalError(f"arithmetic overflow in {name}", loc) from None
    return total


def _prim_add(args, ctx, loc):
    _need_numbers(args, "+", loc)
    return _accumulate(0, args, operator.add, "+", loc)


def _prim_sub(args, ctx, loc):
    if not args:
        raise EvalError("- expects at least one argument", loc)
    _need_numbers(args, "-", loc)
    if len(args) == 1:
        return -args[0]
    return _accumulate(args[0], args[1:], operator.sub, "-", loc)


def _prim_mul(args, ctx, loc):
    _need_numbers(args, "*", loc)
    return _accumulate(1, args, operator.mul, "*", loc)


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


# imported last: each of these modules imports names from this one
from . import inference as _inference  # noqa: E402
from . import rewrite as _rewrite  # noqa: E402
from . import sampler as _sampler  # noqa: E402
