"""Differential test of the compiled evaluator against a plain walker.

Random well-scoped programs run form by form through `evaluate` and through
`_reference_eval.run`, each on a recording draw object with the same seed.
Both must give the same values, the same error (class, message and
location) and the same draws.  The programs cover the constructs the
evaluator's call shapes specialize: lambda, let, define after use, shadowed
primitives, tail and non-tail recursion, `flip` and `random-integer` of
literals and locals, an `if` whose test is a `flip` of any argument, calls
in and out of a closure body's tail position, functions given 0, 1 or 2
operands whatever their arity, and `+ - * = < >` over literals, locals and
ints too large for a real.  The concept sampler is held to the walker's
`sample` in the same way, on the std prelude's concepts and on hand-written
graphs.
The method is differential testing, as in Yang et al., "Finding and
Understanding Bugs in C Compilers" (PLDI 2011).
"""

import functools

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from problisp import (NIL, BudgetError, ConceptError, EvalContext, Pair, ProblispError, Session,
                      evaluate, format_value, parse, prelude_path, sample_concept,
                      standard_env)
from problisp.evaluator import KNOWLEDGE_FORMS
from problisp.rng import Draws

import _reference_eval


class RecordingDraws(Draws):
    """A draw object that logs each draw: method, arguments, location, result."""

    __slots__ = ("log",)

    def __init__(self, *path):
        super().__init__(*path)
        self.log = []

    def integer(self, n, loc=None):
        value = super().integer(n, loc)
        self.log.append(("integer", repr(n), loc, value))
        return value

    def flip(self, p, loc=None):
        value = super().flip(p, loc)
        self.log.append(("flip", repr(p), loc, value))
        return value

    def normal(self, mean, sd, loc=None):
        value = super().normal(mean, sd, loc)
        self.log.append(("normal", repr((mean, sd)), loc, value))
        return value

    def choose(self, weights):
        value = super().choose(weights)
        self.log.append(("choose", repr(weights), None, value))
        return value


def outcomes(run, program, seed):
    """What each form of `program` gives when `run(form, env, ctx)` runs
    them in turn, and the draws they made.  A form's error does not stop
    the forms after it."""
    env = standard_env()
    ctx = EvalContext(rng=RecordingDraws(seed), global_env=env)
    out = []
    for form in parse(program):
        try:
            value = run(form, env, ctx)
        except ProblispError as err:
            out.append((type(err), err.message, err.loc))
        else:
            out.append((type(value), format_value(value)))
    return out, ctx.rng.log


# local names: let and a body's defines bind values to all of them, and
# functions to let's names and to f and g (see `programs`)
NAMES = ("x", "y", "f", "pi", "+", "<", "flip", "random-integer")
PARAMS = ("a", "b", "x", "y")
BIG = str(10 ** 320)   # an int too large for a real
# the palettes of `programs` draw the signed zero and `+` twice as often:
# only a sum tells -0.0 from 0.0, and only when both operands are -0.0
NUMBERS = ("1", "2", "0", "3", "-1", "0.5", "-0.0", "-0.0", "1.5", "0.25", "1e308", BIG,
           "#t", "#f", "pi")
OPERATORS = ("+", "+", "-", "*", "=", "<", ">")
FLIP_ARGS = ("0.5", "0.25", "1.5", "0.0", "1.0", "-0.5", "1", "#t", "-0.0")
RANDOM_INTEGER_ARGS = ("3", "2", "10", "0", "1", "-1", "2.0", "#f", BIG)
KINDS = ("literal", "var", "arith", "arith", "arith", "draw", "draw", "if", "let", "call",
         "body")
PRIMITIVES = {"-": 2, "*": 2, "+": 2, "<": 2, "flip": 1, "random-integer": 1}


_PARAM_LISTS = st.lists(st.sampled_from(PARAMS), max_size=2, unique=True)


@functools.lru_cache(maxsize=None)
def _index(n):
    return st.integers(0, n - 1)


@st.composite
def programs(draw):
    """Source text of a program that is well scoped except by design:
    names may be shadowed, read before their define or bound twice, and
    values may have the wrong type, but every run ends.

    A scope maps each name to None for a value, to its arity for a
    function, to "rec" for a recursion on a bounded counter and to "hidden"
    for a function that may be neither read nor called.  A function's body
    hides the functions of its scope, and a function is defined only under
    a name that no operator calls, so no closure can reach itself: a
    closure bound by `let` cannot see its own binding, and one bound by a
    define cannot call its name.  A value name holds no closure, since a
    function may read a name before its define only where that name is
    unbound in every enclosing scope."""
    pick = lambda options: options[draw(_index(len(options)))]   # noqa: E731
    # swarm testing (Groce et al., ISSTA 2012): a program draws its literals
    # and operators from a few of them, so that the ones it has meet often
    numbers = draw(st.lists(st.sampled_from(NUMBERS), min_size=1, max_size=4, unique=True))
    ops = draw(st.lists(st.sampled_from(OPERATORS), min_size=1, max_size=3, unique=True))

    def expr(scope, depth, kinds=KINDS):
        kind = pick(kinds if depth > 0 else ("literal", "var"))
        values = [name for name, arity in scope.items() if arity is None]
        if kind == "var" and values:
            return pick(values)
        if kind in ("literal", "var"):
            return pick(numbers)
        if kind == "arith":
            n = pick((2, 2, 2, 1, 3))
            return "({} {})".format(pick(ops), " ".join(
                operand(scope, depth - 1) for _ in range(n)))
        if kind == "draw":
            prim, args = pick((("flip", FLIP_ARGS), ("random-integer", RANDOM_INTEGER_ARGS)))
            arg = pick(args) if draw(st.booleans()) else operand(scope, depth - 1)
            return f"({prim} {arg})"
        if kind == "if":
            test = pick(("(flip 0.5)", "flip", "#t", None)) or expr(scope, depth - 1)
            if test == "flip":   # any argument, a local's included
                test = "(flip {})".format(
                    pick(FLIP_ARGS) if draw(st.booleans()) else operand(scope, depth - 1))
            return f"(if {test} {expr(scope, depth - 1)} {expr(scope, depth - 1)})"
        if kind == "let":
            bindings, inner = [], dict(scope)
            for name in draw(st.lists(st.sampled_from(NAMES), min_size=1, max_size=2)):
                if draw(st.booleans()):
                    value, inner[name] = function(scope, depth - 1)
                else:
                    value, inner[name] = expr(scope, depth - 1), None
                bindings.append(f"({name} {value})")
            return f"(let ({' '.join(bindings)}) {expr(inner, depth - 1)})"
        if kind == "call":
            fns = [name for name, arity in scope.items() if arity not in (None, "hidden")]
            if fns:
                fn = pick(fns)
                arity = scope[fn]
            else:
                fn, arity = function(scope, depth - 1)
            if arity == "rec":
                return f"({fn} {pick(('0', '1', '4', '(random-integer 5)'))} " \
                       f"{expr(scope, depth - 1)})"
            # sometimes the wrong number of operands: 0, 1 or 2
            n = pick((arity, arity, arity, 0, 1, 2))
            call = "({} {})".format(fn, " ".join(
                operand(scope, depth - 1) for _ in range(n)))
            # where it stands, in the tail position of a closure body, or not
            return pick((call, call, f"((lambda () {call}))", f"(list {call})"))
        # a lambda body of defines; its functions may read values defined later
        params = draw(_PARAM_LISTS)
        inner = dict(scope, **dict.fromkeys(params))
        names = draw(st.lists(st.sampled_from(NAMES + ("g",)), min_size=1, max_size=3,
                              unique=True))
        functions = {name for name in names if name in "fg" and draw(st.booleans())}
        later = dict(inner)
        for name in names:
            if name in functions:
                later[name] = "hidden"
            elif name not in later:
                later[name] = None
        defines = []
        for name in names:
            if name in functions:
                value, inner[name] = function(later, depth - 1)
            else:
                value, inner[name] = expr(inner, depth - 1), None
            defines.append(f"(define {name} {value})")
        body = " ".join(defines + [expr(inner, depth - 1)])
        args = " ".join(operand(scope, depth - 1) for _ in params)
        return f"((lambda ({' '.join(params)}) {body}) {args})"

    def operand(scope, depth):
        """A literal, a local or an expression."""
        return expr(scope, pick((0, depth)))

    def function(scope, depth):
        """(source, arity) of a primitive or of a lambda over `scope`."""
        if draw(st.booleans()):
            name = pick(sorted(PRIMITIVES))
            return name, PRIMITIVES[name]
        params = draw(_PARAM_LISTS)
        inner = {name: "hidden" if arity.__class__ is int else arity
                 for name, arity in scope.items()}
        body = expr(dict(inner, **dict.fromkeys(params)), depth)
        return f"(lambda ({' '.join(params)}) {body})", len(params)

    forms, scope = [], {}
    for name in ("r0", "r1")[:pick((0, 1, 2))]:
        # tail, non-tail or conditional recursion on a counter n of at most 4
        inner = dict(scope, n=None, acc=None)
        call = f"({name} (- n 1) {expr(inner, 1)})"
        step = pick(("tail", "+", "*", "if"))
        if step in "+*":
            call = f"({step} {expr(inner, 1)} {call})"
        elif step == "if":
            call = f"(if (flip 0.5) {call} {expr(inner, 1)})"
        forms.append(f"(define {name} (lambda (n acc) (if (< n 1) {expr(inner, 1)} {call})))")
        scope[name] = "rec"
    if draw(st.booleans()):
        # define after use: h reads v, which the next form defines
        forms.append(f"(define h (lambda (a) {expr(dict(scope, a=None, v=None), 2)}))")
        forms.append(f"(define v {expr(scope, 2)})")
        scope.update(h=1, v=None)
    forms.extend(expr(scope, 3, KINDS[2:]) for _ in range(pick((2, 3, 4))))
    return "\n".join(forms)


# drawing the programs is most of the test's time, so a slow host may not
# fail it for that
@settings(max_examples=500, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(programs(), st.integers(0, 2 ** 32))
def test_compiled_evaluator_matches_the_reference_walker(program, seed):
    assert outcomes(evaluate, program, seed) == outcomes(_reference_eval.run, program, seed)


# concepts whose templates have a lambda parameter and a let name named like
# a concept, a concept inside quote, several occurrences of one concept, an
# explicit `sample` (of a global holding a concept, and of an occurrence,
# which is a draw and so not a concept), recursions that exhaust the depth
# budget, through one concept and through two, and body defines named like
# a concept, which bind the whole body they are in and no other: before
# and after the use, in an `if` arm, in a nested lambda, in the template
# itself and in a query's definitions
GRAPHS = """
(concept coin) (is-a #t coin) (is-a #f coin 3)
(concept digit) (is-a (random-integer 10) digit)
(concept small) (is-a digit small) (is-a coin small 2) (is-a 0.5 small)
(concept shadowed)
(is-a ((lambda (coin) (list coin digit)) coin) shadowed)
(is-a (let ((x digit) (coin 2)) (list x coin)) shadowed)
(concept quoted) (is-a (list (quote coin) coin (quote (digit small))) quoted)
(concept twice) (is-a (list coin digit coin (+ digit digit) small) twice)
(define which digit)
(concept explicit)
(is-a (list (sample which) coin) explicit 2)
(is-a (if coin (sample coin) (sample small)) explicit)
(concept chain) (is-a null chain) (is-a (cons coin chain) chain 1000000)
(concept ping) (concept pong)
(is-a (cons 1 (sample pong)) ping) (is-a (cons 2 (sample ping)) pong)
(concept bodydef) (is-a ((lambda () (define coin 5) coin)) bodydef)
(concept later)
(is-a ((lambda () (define f (lambda () (list coin digit))) (define coin 5) (f))) later)
(concept armdef)
(is-a ((lambda () (if coin (define digit 1) (define digit 2)) (list coin digit))) armdef)
(concept inner)
(is-a ((lambda () (define g (lambda () (define digit 4) digit)) (list (g) digit))) inner)
(concept defines) (is-a (define yy 3) defines) (is-a (list (define u digit) u coin) defines)
(concept qdef)
(is-a (rejection-query (define coin (random-integer 3)) (list coin digit) (< coin 2)) qdef)
"""


def _session(program, run):
    """A session that has run the std prelude or GRAPHS: knowledge forms as
    a session runs them, and every other form with `run`, so that the
    reference's closures are its own."""
    session = Session()
    text = GRAPHS
    if program == "std":
        with open(prelude_path(), encoding="utf-8") as f:
            text = f.read()
    for form in parse(text):
        if form.items[0].name in KNOWLEDGE_FORMS:
            session.eval_form(form)
        else:
            run(form, session.env, EvalContext(store=session.store, global_env=session.env))
    return session


def sample_outcome(sample, session, concept, seed):
    """What `sample(concept, ctx)` gives, and the draws it made."""
    ctx = EvalContext(rng=RecordingDraws(seed), store=session.store,
                      global_env=session.env)
    try:
        value = sample(session.store.lookup(concept), ctx)
    except ProblispError as err:
        return (type(err), err.message, err.loc), ctx.rng.log
    return (type(value), format_value(value)), ctx.rng.log


@pytest.mark.parametrize("program, concept, kinds", [
    ("std", "number", {int, float}),
    ("std", "real-number", {float}),
    ("std", "integer", {int}),
    ("std", "sequence", {Pair, type(NIL)}),
    ("graphs", "small", {int, bool, float}),
    ("graphs", "shadowed", {Pair}),
    ("graphs", "quoted", {Pair}),
    ("graphs", "twice", {Pair}),
    ("graphs", "explicit", {Pair, ConceptError}),
    ("graphs", "chain", {BudgetError}),
    ("graphs", "ping", {BudgetError}),
    ("graphs", "bodydef", {int}),
    ("graphs", "later", {Pair}),
    ("graphs", "armdef", {Pair}),
    ("graphs", "inner", {Pair}),
    ("graphs", "defines", {Pair, type(None)}),
    ("graphs", "qdef", {Pair}),
])
def test_concept_sampler_matches_the_reference_walker(program, concept, kinds):
    compiled, reference = _session(program, evaluate), _session(program, _reference_eval.run)
    seen = set()
    for seed in range(1, 201):
        outcome = sample_outcome(sample_concept, compiled, concept, seed)
        assert outcome == sample_outcome(_reference_eval.sample, reference, concept, seed)
        seen.add(outcome[0][0])
    assert seen == kinds   # what the seeds reach, so that no case goes untested
