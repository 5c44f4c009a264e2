"""Evaluator: lexical scoping, seeded stochastic primitives, knowledge forms.

Special forms: define, lambda, if, quote, let, sample, rejection-query, and
the session-level knowledge forms (concept, is-a, equivalence, implication,
define-context, set-context).  Applications evaluate the operator first and
then the operands left to right; that order is observable through random
number consumption and is part of the contract.

Compile once, run many.  A form is compiled in one pass into code, a Python
function `(env, ctx) -> value`; queries and concept templates then run that
code on every attempt or instantiation, and a closure holds the code of its
lambda's body.  A query nested in a form is compiled with it, so a run of
the query decides only whether the rewrite pins one of its definitions.
Special forms and their shapes are decided when compiling.  A malformed
form compiles to code that raises its error, so errors still happen when
the form is evaluated, with the same message and location: `(if #t 1 (if))`
is 1.  The compiler never looks inside a malformed form's operands or a
knowledge form's arguments: neither is ever evaluated as code.

The compiler is the one walk that knows scope, and it has one rule: a
define binds its name in the whole of the frame it runs in, before the
define and after it (R7RS 5.3.2: internal definitions bind their whole
body).  Wherever a frame starts, at the compiled unit, a lambda body, a let
body and a nested query's attempt, the compiler adds to `bound` the
parameters or let names and the names that `_scope_names` finds the frame's
defines bind, and it carries `bound` down.  Each symbol occurrence is
resolved once, in document order, the operator of an application before
its operands, and `bound` alone decides how: a name in it is read when the
code runs, and any other name goes to the slot and then to the root.

A symbol is replaced by its value when compiling only if the code is
compiled for a root (global) environment that binds it and `bound` does not
hold it.  This is sound because a root binding never changes: `define`
refuses to rebind.  Every other symbol is looked up when it runs, and so is
every symbol of code compiled for a frame below the root, since later forms
may extend the frames between.  A closure call in tail position returns a
tail call for the caller's loop, so tail recursion runs in constant Python
stack.

Hot call shapes are specialized, each to exactly the values, draws, errors
and locations of the generic path it skips.  A shape is kept only where
removing it adds Python calls to the concept and blind queries of
tests/test_call_budget.py, or slows the benchmark.  The calls each one
saves on the two queries, counted on Python 3.11 with that shape alone
removed, follow it:
- a root symbol bound when compiling is held in the code, and a known
  global primitive is called directly: 3638 and 153 calls (without it, no
  primitive is known when compiling, so the next two shapes are gone too);
- `+ - * = < >` on two operands: each operand is a numeric literal held in
  the code or a read probing its own frame, two numbers get the
  primitive's own two-argument fold, and anything else, an overflow
  included, goes to the primitive: 3142 and 153;
- `flip` of one argument, a literal or a probed read: a float in [0, 1]
  draws at once, and any other value goes to the primitive: 1371 and 0;
- a closure call's operator symbol probes its own frame, then its
  parent's: 758 and 0; a single argument symbol probes its own: 379 and 0;
- any other symbol read probes its own frame before `_lookup` walks the
  parents, the order `_lookup` takes: 25 and 50.
A probe that misses runs the read.  A one-parameter closure's frame is
filled without a loop.  `tests/_reference_eval.py` is a plain walker that a
differential test holds these shapes to.

A single Env/rng pair must not be shared across concurrent evaluations;
distinct evaluations with distinct Env and rng instances are safe to run in
parallel.
"""

from __future__ import annotations

import math
import operator

from .concepts import ConceptId
from .errors import ConceptError, EvalError
from .rng import NO_SOURCE
from .sexpr import Integer, Real, SList, Symbol, _Record
from .values import NIL, Closure, Env, Pair, Primitive, format_value, is_number, values_equal

DEFAULT_MAX_ATTEMPTS = 10 ** 6

KNOWLEDGE_FORMS = frozenset(
    ["concept", "is-a", "equivalence", "implication", "define-context", "set-context"])
SPECIAL_FORMS = frozenset(
    ["define", "lambda", "if", "quote", "let", "sample", "rejection-query"]) | KNOWLEDGE_FORMS

_MISSING = object()


class EvalContext(_Record):
    """Everything an evaluation needs besides the environment.

    `rng` is the draw object (`rng.Draws`) that makes every random choice:
    the primitives and the concept sampler call its four draws, `integer`,
    `flip`, `normal` and `choose`, and nothing else.  It defaults to
    `rng.NO_SOURCE`, whose draws are errors.

    A session builds one context per top-level form, and the query runners
    and the concept sampler read their state from it, taking none of it as
    parameters.  The knowledge forms change `store`, the concept store that
    the sampler reads, and `rules` (empty when rewriting is off) between
    forms; `max_attempts` and `global_env` stay fixed for the session, and
    `session` is set only there.  A query clears `session` while its
    attempts run, and `run_samples` puts a draw object of its own on `rng`
    for its batch.  A concept instantiation clears `session` and sets
    `budget` and `sample_depth` for its recursion.  Each puts the old values
    back when it returns.

    The context is read when code runs, never when it is compiled: compiled
    code depends only on the forms and on the root frame it was compiled
    for, so one compiled query or template serves every context.
    """

    __slots__ = _fields = ("rng", "store", "session", "rules", "max_attempts",
                           "global_env", "budget", "sample_depth")
    __hash__ = None   # mutable

    def __init__(self, rng=NO_SOURCE, store=None, session=None, rules=(),
                 max_attempts=DEFAULT_MAX_ATTEMPTS, global_env=None, budget=None,
                 sample_depth=0):
        self.rng = rng
        self.store = store
        self.session = session            # set only for top-level session forms
        self.rules = rules                # empty when rewriting is off
        self.max_attempts = max_attempts
        self.global_env = global_env
        self.budget = budget              # in-flight concept sampling budget
        self.sample_depth = sample_depth


def evaluate(expr, env, ctx):
    """Compile the form `expr` for `env` and run it there.  Recursion
    blowups are language errors."""
    (code,), _ = compile_forms((expr,), env)
    try:
        return code(env, ctx)
    except RecursionError:
        raise EvalError("recursion depth exceeded") from None


def compile_forms(forms, env, slot=None):
    """(codes, names): `forms` compiled together, for running in order in
    `env` or in a fresh child frame of it, into one code object each, and
    the names that the unit's frame binds.  They are compiled as one unit,
    whose frame binds the names of their defines: such a name is read when
    the code runs, in all of the forms.  `slot(symbol)` is called for each
    free symbol occurrence of the well-formed forms, in document order;
    where it returns a name, that occurrence reads the variable of that name
    instead."""
    try:
        compiler = _Compiler(env, slot)
        bound = frozenset(_scope_names(forms))
        return [compiler.expr(form, bound) for form in forms], bound
    except RecursionError:
        raise EvalError("recursion depth exceeded") from None


def _lookup(env, name):
    """Value bound to `name` in the innermost frame that has it, else _MISSING."""
    while env is not None:
        v = env.get(name, _MISSING)
        if v is not _MISSING:
            return v
        env = env.parent
    return _MISSING


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


def _read(name, loc, message="unbound symbol '{}'", error=EvalError):
    """Code reading the variable `name`, or else the concept of that name."""
    def run(env, ctx):
        v = env.get(name, _MISSING)
        if v is _MISSING:
            v = _lookup(env.parent, name)
            if v is _MISSING:
                v = ctx.store.lookup(name) if ctx.store is not None else None
                if v is None:
                    raise error(message.format(name), loc)
        return v
    return run


def _define(name, loc, value):
    """Code binding `name` in its own frame to what the code `value` returns."""
    def run(env, ctx):
        v = value(env, ctx)
        if name in env:
            raise EvalError(f"'{name}' is already defined in this scope", loc)
        env[name] = v
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
    decided here and what is left to run time.  `bound` holds the names that
    the frames between the code and the compiled-for environment bind."""

    def __init__(self, env, slot=None):
        self.root = env if env is not None and env.parent is None else None
        self.slot = slot
        self.slotted = []   # the names of the occurrences `slot` renamed, in order

    def expr(self, expr, bound, tail=False):
        """Code for `expr`.  The dispatch is inline, so that a level of
        nesting costs two Python frames to compile."""
        t = expr.__class__
        if t is Symbol:
            return self.symbol(expr, bound)[0]
        if t is not SList:
            return _constant(expr.value)
        items = expr.items
        if not items:
            return _fail("cannot evaluate an empty form", expr.loc)
        head = items[0]
        if head.__class__ is not Symbol or head.name not in SPECIAL_FORMS:
            return self.application(expr, bound, tail)
        op = head.name
        if op == "if":
            return self.if_form(expr, bound, tail)
        if op == "define":
            return self.define(expr, bound)
        if op == "quote":
            if len(items) != 2:
                return _fail("quote expects one argument", expr.loc)
            return _constant(_quote(items[1]))
        if op == "lambda":
            return self.lambda_form(expr, bound)
        if op == "let":
            return self.let(expr, bound, tail)
        if op == "sample":
            return self.sample(expr, bound)
        if op == "rejection-query":
            return self.rejection(expr, bound)
        return lambda env, ctx: _eval_knowledge(op, expr, ctx)

    def body(self, items, start, bound, tail):
        last = len(items) - 1
        codes = []
        for i in range(start, last + 1):
            codes.append(self.expr(items[i], bound, tail and i == last))
        return _sequence(codes)

    def resolve(self, sym, bound):
        """(name, value) for the symbol occurrence `sym`: the name to look up
        (a slot's, or its own) and the value it is bound to when compiling,
        or _MISSING when it must be looked up when it runs.  Called once for
        each occurrence, in document order."""
        name = sym.name
        if name in bound:
            return name, _MISSING
        if self.slot is not None:
            renamed = self.slot(sym)
            if renamed is not None:
                self.slotted.append(name)
                return renamed, _MISSING
        if self.root is not None:
            return name, self.root.get(name, _MISSING)
        return name, _MISSING

    def symbol(self, sym, bound, message="unbound symbol '{}'", error=EvalError):
        """(code, name) for a symbol occurrence: `name` is the variable the
        code looks up when it runs, or None when the code holds its value."""
        name, value = self.resolve(sym, bound)
        if value is not _MISSING:
            return _constant(value), None
        return _read(name, sym.loc, message, error), name

    def if_form(self, expr, bound, tail):
        items = expr.items
        if len(items) != 4:
            return _fail("if expects (if test then else)", expr.loc)
        test = self.expr(items[1], bound)
        then = self.expr(items[2], bound, tail)
        other = self.expr(items[3], bound, tail)
        loc = items[1].loc

        def run(env, ctx):
            t = test(env, ctx)
            if t is True:
                return then(env, ctx)
            if t is False:
                return other(env, ctx)
            raise EvalError("if test must be a boolean", loc)
        return run

    def define(self, expr, bound):
        items = expr.items
        if len(items) != 3 or items[1].__class__ is not Symbol:
            return _fail("define expects (define name expr)", expr.loc)
        return _define(items[1].name, items[1].loc, self.expr(items[2], bound))

    def lambda_form(self, expr, bound):
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
        body = self.body(items, 2, bound.union(params, _scope_names(items[2:])), True)
        return lambda env, ctx: Closure(params, body, env)

    def let(self, expr, bound, tail):
        items = expr.items
        if len(items) < 3 or items[1].__class__ is not SList:
            return _fail("let expects (let ((name expr)...) body...)", expr.loc)
        names, values, error = [], [], None
        for binding in items[1].items:
            if (binding.__class__ is not SList or len(binding.items) != 2
                    or binding.items[0].__class__ is not Symbol):
                error = "malformed let binding"
                break
            name = binding.items[0].name
            if name in names:
                error = f"duplicate let binding '{name}'"
                break
            names.append(name)
            values.append(self.expr(binding.items[1], bound))
        if error is not None:
            # the bindings before the bad one run first, draws and errors included
            return _sequence(values + [_fail(error, expr.loc)])
        body = self.body(items, 2, bound.union(names, _scope_names(items[2:])), tail)
        bindings = tuple(zip(names, values))

        def run(env, ctx):
            frame = Env()
            frame.parent = env
            for name, value in bindings:
                frame[name] = value(env, ctx)
            return body(frame, ctx)
        return run

    def sample(self, expr, bound):
        items = expr.items
        if len(items) != 2:
            return _fail("sample expects one argument", expr.loc)
        target = items[1]
        if target.__class__ is Symbol:
            find = self.symbol(target, bound, "unknown concept '{}'", ConceptError)[0]
        else:
            find = self.expr(target, bound)
        loc = expr.loc

        def run(env, ctx):
            value = find(env, ctx)
            if not isinstance(value, ConceptId):
                raise ConceptError(
                    f"sample expects a concept, got {format_value(value)}", loc)
            if ctx.store is None or ctx.global_env is None:
                raise EvalError("sample needs a concept store and globals in its context", loc)
            return _sampler.sample_concept(value, ctx, ctx.budget, ctx.sample_depth)
        return run

    def rejection(self, expr, bound):
        """A nested query: its definitions, query and condition are compiled
        here, in source order, and every run starts its attempts on that
        code.  Only the rewrite is decided when it runs."""
        try:
            spec = _inference.QuerySpec.from_form(expr)
        except EvalError as err:
            return _fail(err.message, err.loc)
        first_slot = len(self.slotted)
        names = _scope_names((*spec.definitions, spec.query, spec.condition))
        inner = bound.union(names)
        defs = [self.expr(d, inner) for d in spec.definitions]
        query = self.expr(spec.query, inner)
        codes = (*defs, self.expr(spec.condition, inner), query)
        # the rewrite may not assume a name bound by a frame between the
        # query and the root, nor one read through a slot (a template's
        # concept draw); code compiled below the root is never rewritten,
        # since later forms may add names to the frames between
        shadowed = bound.union(self.slotted[first_slot:])
        rewritable = self.root is not None
        # the memo's scope fact (see `inference._attempt_loop`), where no frame
        # or slot around the query renames random-integer
        scoped = (rewritable and len(names) == len(spec.definitions)
                  and "random-integer" not in names and "random-integer" not in shadowed
                  and getattr(self.root.get("random-integer"), "fn", None) is _prim_random_integer)

        def run(env, ctx):
            run_spec, run_codes = spec, codes
            if ctx.rules and rewritable:
                outcome = _rewrite.optimize_query_detail(spec, ctx.rules, shadowed)
                if outcome.fired:   # the pinned define, and the condition or #t
                    name = outcome.definition.items[1]
                    pin = _define(name.name, name.loc, _constant(outcome.value.value))
                    pinned = [pin if new is outcome.definition else c
                              for c, new in zip(defs, outcome.spec.definitions)]
                    kept = outcome.spec.condition is spec.condition
                    run_codes = (*pinned, codes[-2] if kept else _constant(True), query)
                    run_spec = outcome.spec   # its pinned define is no draw for the memo
            return _inference._attempt_loop(run_spec, run_codes, env, ctx, scoped=scoped)[0][0]
        return run

    def application(self, expr, bound, tail):
        items = expr.items
        loc = expr.loc
        head = items[0]
        # the operator resolves before the operands, in document order;
        # `known` is its value when it is bound when compiling
        if head.__class__ is Symbol:
            op_name, known = self.resolve(head, bound)
            op_code = _read(op_name, head.loc) if known is _MISSING else None
        else:
            op_name, known, op_code = None, _MISSING, self.expr(head, bound)
        # (code, name) of each operand, as `symbol` gives them for a symbol;
        # any other operand has the name None, which no frame holds
        operands = [self.symbol(item, bound) if item.__class__ is Symbol
                    else (self.expr(item, bound), None) for item in items[1:]]
        if known.__class__ is Primitive and _PRIMITIVES.get(known.name) is known.fn:
            return self.primitive_call(known, operands, items, loc)
        codes = [code for code, _ in operands]
        single = codes[0] if len(codes) == 1 else None
        arg = operands[0][1] if single is not None else None

        def run(env, ctx):
            fn = known
            if fn is _MISSING:   # on a miss the operand's own code looks again
                if op_name is not None:
                    fn = env.get(op_name, _MISSING)
                    if fn is _MISSING and env.parent is not None:
                        fn = env.parent.get(op_name, _MISSING)
                if fn is _MISSING:
                    fn = op_code(env, ctx)
            if single is None:
                args = [c(env, ctx) for c in codes]
            elif arg is None or (x := env.get(arg, _MISSING)) is _MISSING:
                args = [single(env, ctx)]
            else:
                args = [x]
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
                if len(params) == 1:
                    frame = Env()
                    frame[params[0]] = args[0]
                else:
                    frame = Env(zip(params, args))
                frame.parent = fn.env
                try:
                    result = fn.body(frame, ctx)
                except RecursionError:
                    # the nested call that ran out of Python stack; raising
                    # may itself run out, and then a caller reports it
                    raise EvalError("recursion depth exceeded", call_loc) from None
                if result.__class__ is not _TailCall:
                    return result
                fn, args, call_loc = result.fn, result.args, result.loc
        return run

    def primitive_call(self, prim, operands, items, loc):
        """Code calling a standard primitive known when compiling, on the
        (code, name) pairs `operands` compiled from `items[1:]`."""
        fn = prim.fn
        codes = [code for code, _ in operands]
        flip = prim.name == "flip" and len(codes) == 1
        binary = _BINARY.get(prim.name) if len(codes) == 2 else None
        if not flip and binary is None:
            return lambda env, ctx: fn([c(env, ctx) for c in codes], ctx, loc)
        # each operand is a numeric literal held in the code (None for none),
        # or else a read that probes its own frame first
        lits = [n.value if n.__class__ in _NUMBER_NODES else None for n in items[1:]]
        names = [name for _, name in operands]
        if flip:   # a float in [0, 1] draws at once, any other goes to the primitive
            (a,), (lit,), (name,) = codes, lits, names
            if lit is not None and not (lit.__class__ is float and 0.0 <= lit <= 1.0):
                lit = None   # runs as any other argument

            def run(env, ctx):
                x = lit
                if x is None:
                    if name is None or (x := env.get(name, _MISSING)) is _MISSING:
                        x = a(env, ctx)
                    if x.__class__ is not float or not 0.0 <= x <= 1.0:
                        return fn([x], ctx, loc)   # checks and reports the rest
                return ctx.rng.flip(x, loc)
            return run
        (a, b), (lit_a, lit_b), (name_a, name_b) = codes, lits, names
        if prim.name == "+" and (lit_a is not None or lit_b is not None):
            # 0 + x + c is x + (0 + c) for every int and float x and c: adding 0
            # changes only -0.0, and only a sum of two -0.0 tells -0.0 from 0.0
            binary = operator.add
            lit_a, lit_b = (v if v is None else 0 + v for v in (lit_a, lit_b))

        def run(env, ctx):
            x = lit_a
            if x is None:
                if name_a is None or (x := env.get(name_a, _MISSING)) is _MISSING:
                    x = a(env, ctx)
            y = lit_b
            if y is None:
                if name_b is None or (y := env.get(name_b, _MISSING)) is _MISSING:
                    y = b(env, ctx)
            # what the fast path does not take, an overflow included, goes to
            # the primitive, which checks it and reports the error
            if x.__class__ in _NUMERIC and y.__class__ in _NUMERIC:
                try:
                    return binary(x, y)
                except OverflowError:
                    pass
            return fn([x, y], ctx, loc)
        return run


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


def _eval_knowledge(op, expr, ctx):
    sess = ctx.session
    if sess is None:
        raise EvalError(f"'{op}' is only allowed at the top level of a session", expr.loc)
    items = expr.items
    store = ctx.store

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
        source = _resolve_isa_source(items[1], store, ctx.global_env)
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
                raise EvalError("context clause must be (source concept weight)", clause.loc)
            tgt = _symbol_arg(clause.items, 1, "define-context", clause.loc)
            cid = store.require(tgt.name, loc=tgt.loc)
            source = clause.items[0]
            if source.__class__ is Symbol:
                source = store.lookup(source.name) or source
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
    return None


def _resolve_isa_source(node, store, global_env):
    """A bare symbol naming a declared concept denotes that concept; anything
    else is an expression template whose free names must be concepts or
    session globals, where the template runs.  A name the template defines
    itself, such as a query's definition, is bound and so not free.  The
    free names are those the compiler resolves, so none inside a malformed
    form, which never runs: they come from compiling the template for the
    sampler, which keeps the code."""
    if node.__class__ is Symbol:
        cid = store.lookup(node.name)
        if cid is not None:
            return cid
    free = _sampler._compiled_template(store, node, global_env)[2]
    for name in sorted(free):
        if store.lookup(name) is None and _lookup(global_env, name) is _MISSING:
            raise ConceptError(f"unknown name '{name}' in is-a source", node.loc)
    return node


# forms whose operands run in a frame of their own, or never run as code
_OWN_SCOPE = frozenset(["quote", "lambda", "rejection-query"]) | KNOWLEDGE_FORMS


def _scope_names(forms):
    """The names that the well-formed defines in `forms` bind in the frame
    the forms run in.  Quoted forms, knowledge forms' arguments and the
    bodies of a lambda, a let and a rejection-query, which run in frames of
    their own, are skipped; a let's binding values run in this frame."""
    names, todo = set(), list(forms)
    while todo:
        form = todo.pop()
        if form.__class__ is not SList or not form.items:
            continue
        items = form.items
        op = items[0].name if items[0].__class__ is Symbol else None
        if op == "let":
            if len(items) > 1 and items[1].__class__ is SList:
                for binding in items[1].items:
                    if binding.__class__ is SList and len(binding.items) == 2:
                        todo.append(binding.items[1])
        elif op not in _OWN_SCOPE:
            if op == "define" and len(items) == 3 and items[1].__class__ is Symbol:
                names.add(items[1].name)
            todo.extend(items)
    return names


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
    if isinstance(p, bool) or not isinstance(p, (int, float)):
        raise EvalError("flip expects a numeric probability", loc)
    if not 0 <= p <= 1:
        raise EvalError(f"flip expects a probability in [0, 1], got {p}", loc)
    return ctx.rng.flip(p, loc)


def _prim_random_integer(args, ctx, loc):
    if len(args) != 1:
        raise EvalError("random-integer expects one argument", loc)
    n = args[0]
    if isinstance(n, bool) or not isinstance(n, int):
        raise EvalError("random-integer expects an integer", loc)
    if n <= 0:
        raise EvalError(f"random-integer expects a positive bound, got {n}", loc)
    return ctx.rng.integer(n, loc)


def _prim_normal(args, ctx, loc):
    if len(args) != 2:
        raise EvalError("normal expects (normal mean stdev)", loc)
    mean, stdev = args
    for v in args:
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise EvalError("normal expects numeric mean and stdev", loc)
    if stdev < 0:
        raise EvalError(f"normal expects a nonnegative stdev, got {stdev}", loc)
    try:
        mean, stdev = float(mean), float(stdev)   # as numpy takes them
    except OverflowError:
        raise EvalError("arithmetic overflow in normal", loc) from None
    if stdev == 0:
        return mean   # exactly, with no draw
    return ctx.rng.normal(mean, stdev, loc)


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
    env = Env({name: Primitive(name, fn) for name, fn in _PRIMITIVES.items()},
              pi=math.pi, null=NIL)
    env.parent = None
    return env


# imported last: each of these modules imports names from this one
from . import inference as _inference  # noqa: E402
from . import rewrite as _rewrite  # noqa: E402
from . import sampler as _sampler  # noqa: E402
