import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from problisp import (NIL, Env, EvalContext, EvalError, Pair, Primitive, ProblispError,
                      evaluate, format_value, parse, parse_one, standard_env)
from problisp.evaluator import _PRIMITIVES, DEFAULT_MAX_ATTEMPTS
from problisp.rng import NO_SOURCE, Draws
from problisp.sexpr import Boolean, Integer, Real, SList, Symbol

from _lang import ev


def test_pairs_compare_and_hash_by_value():
    assert Pair(1, Pair(2, NIL)) == Pair(1, Pair(2, NIL))
    assert hash(Pair(1, Pair(2, NIL))) == hash(Pair(1, Pair(2, NIL)))
    assert Pair(1, NIL) != Pair(2, NIL) and Pair(1, NIL) != Pair(NIL, 1)
    assert Pair(1, NIL) != (1, NIL)   # a different class is never equal
    # tuples of samples compare as before, and pairs can key a dict
    assert (Pair(1, NIL), 3) == (Pair(1, NIL), 3)
    assert {Pair("a", NIL): 1}[Pair("a", NIL)] == 1
    assert repr(Pair(1, NIL)) == "Pair(head=1, tail=())"


def test_closures_and_primitives_are_equal_only_to_themselves():
    env = standard_env()
    twins = [evaluate(parse_one("(lambda (x) x)"), env, EvalContext()) for _ in range(2)]
    assert twins[0] == twins[0] and twins[0] != twins[1]
    assert len({twins[0], twins[1], twins[0]}) == 2
    cons = env["cons"]
    assert cons == env["cons"]
    assert cons != Primitive(cons.name, cons.fn)
    assert repr(cons) == "#<primitive cons>"


def test_eval_context_defaults():
    ctx = EvalContext()
    assert (ctx.rng, ctx.store, ctx.session, ctx.rules, ctx.max_attempts,
            ctx.global_env, ctx.budget, ctx.sample_depth) == (
        NO_SOURCE, None, None, (), DEFAULT_MAX_ATTEMPTS, None, None, 0)
    env = Env()
    ctx = EvalContext(global_env=env, max_attempts=7)
    assert (ctx.global_env, ctx.max_attempts, ctx.rules) == (env, 7, ())
    assert EvalContext(max_attempts=7) == EvalContext(max_attempts=7)
    assert EvalContext(max_attempts=7) != EvalContext(max_attempts=8)
    with pytest.raises(TypeError):
        hash(ctx)   # mutable, like the session's records


def test_arithmetic():
    assert ev("(+ 2 3)") == 5
    assert ev("(- 10 5)") == 5
    assert ev("(* 2 3 4)") == 24
    assert ev("(- 4)") == -4
    assert ev("(+ 1 2.5)") == 3.5


def test_arbitrary_precision_integers():
    assert ev("(* 99999999999999999999 99999999999999999999)") == \
        99999999999999999999 ** 2


def test_paper_condition_with_five():
    assert ev("(= (+ 5 5) 10)") is True


def test_lambda_application():
    assert ev("((lambda (a) (* a a)) 4)") == 16


def test_define_and_lexical_scope():
    src = """
    (define make-adder (lambda (n) (lambda (m) (+ n m))))
    (define add3 (make-adder 3))
    (add3 4)
    """
    assert ev(src) == 7


def test_let():
    assert ev("(let ((a 2) (b 3)) (* a b))") == 6
    # binding expressions see the outer scope, not each other
    assert ev("(define a 1) (let ((a 10) (b a)) (+ a b))") == 11


def test_if_strict_boolean():
    assert ev("(if (< 1 2) 10 20)") == 10
    with pytest.raises(EvalError):
        ev("(if 1 10 20)")


def test_quote():
    v = ev("(quote (1 2))")
    assert v == Pair(1, Pair(2, NIL))
    assert ev("(quote abc)") == Symbol("abc")
    assert ev("(quote ())") is NIL


def test_pairs_and_lists():
    assert ev("(cons 1 (quote ()))") == Pair(1, NIL)
    assert ev("(cons 1 null)") == Pair(1, NIL)
    assert ev("(first (cons 1 null))") == 1
    assert ev("(rest (cons 1 null))") is NIL
    assert ev("(null? null)") is True
    assert ev("(null? (list 1))") is False
    assert ev("(list 1 2)") == Pair(1, Pair(2, NIL))


def test_equality_semantics():
    assert ev("(= 5 5.0)") is True
    assert ev("(= #t 1)") is False
    assert ev("(= (list 1 2) (list 1 2.0))") is True
    assert ev("(= (quote a) (quote a))") is True
    assert ev("(= (lambda (x) x) (lambda (x) x))") is False
    assert ev("(define f (lambda (x) x)) (= f f)") is False
    assert ev('(= "a" "a")') is True
    assert ev('(= "a" "b")') is False
    from problisp import Session

    s = Session(seed=1)
    s.run_text("(concept c) (concept d)")
    assert [r.value for r in s.run_text("(= c c) (= c d)")] == [True, False]


@pytest.mark.parametrize("program, printed", [
    ("(lambda (x) x)", "#<closure>"),
    ("(cons 1 2)", "(1 . 2)"),
    ("(cons 1 (cons 2 3))", "(1 2 . 3)"),
    ("(list +)", "(#<primitive +>)"),
])
def test_closures_and_improper_lists_print(program, printed):
    assert format_value(ev(program)) == printed


def test_pi_resolves_to_real_constant():
    assert ev("pi") == math.pi
    assert ev("(* 2 pi)") == 2 * math.pi


def test_flip_degenerate():
    assert ev("(flip 1)") is True
    assert ev("(flip 0)") is False
    assert ev("(flip)") in (True, False)


def test_errors():
    with pytest.raises(EvalError, match="unbound symbol"):
        ev("nope")
    with pytest.raises(EvalError, match="not a function"):
        ev("(5 1)")
    with pytest.raises(EvalError, match="expects 1 arguments"):
        ev("((lambda (a) a) 1 2)")
    with pytest.raises(EvalError, match="expects numbers"):
        ev("(+ 1 #t)")
    with pytest.raises(EvalError, match="already defined"):
        ev("(define x 1) (define x 2)")
    with pytest.raises(EvalError, match="expects a pair"):
        ev("(first null)")


def test_error_reports_location():
    with pytest.raises(EvalError) as exc:
        ev("(+ 1\n   nope)")
    assert exc.value.loc.line == 2


def test_deep_recursion_is_reported_not_fatal():
    # non-tail recursion grows the Python stack; at the recursion limit the
    # CLI runs under, the overflow must surface as a language error, not a
    # crash of the C stack
    import sys

    from problisp.cli import RECURSION_LIMIT

    src = "(define grow (lambda (n) (+ 1 (grow n)))) (grow 0)"
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(RECURSION_LIMIT)
    try:
        with pytest.raises(EvalError, match="recursion depth exceeded"):
            ev(src)
    finally:
        sys.setrecursionlimit(limit)


def test_recursion_overflow_reports_the_call():
    # the error names the nested closure call that ran out of stack
    import sys

    from problisp.cli import RECURSION_LIMIT

    src = "(define f (lambda (n) (if (= n 0) 0 (+ 1 (f (- n 1))))))\n(f 100000)"
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(RECURSION_LIMIT)
    try:
        with pytest.raises(EvalError, match="recursion depth exceeded") as exc:
            ev(src)
    finally:
        sys.setrecursionlimit(limit)
    assert (exc.value.loc.line, exc.value.loc.column) == (1, 42)


def test_library_leaves_the_recursion_limit_alone():
    import sys

    from problisp import Session

    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        Session(seed=0).run_text("(define f (lambda (n) (if (= n 0) 0 (f (- n 1))))) (f 10)")
        assert sys.getrecursionlimit() == 1000
    finally:
        sys.setrecursionlimit(limit)


def test_tail_calls_do_not_grow_the_stack():
    src = """
    (define count (lambda (n) (if (= n 0) (quote done) (count (- n 1)))))
    (count 100000)
    """
    assert ev(src) == Symbol("done")


def _draw(name, rng, *args):
    """The primitive `name` applied to `args`, drawing from `rng`."""
    return _PRIMITIVES[name](list(args), EvalContext(rng=rng), None)


def test_random_integer_bounds():
    rng = Draws(0)
    assert _draw("random-integer", rng, 1) == 0
    with pytest.raises(EvalError):
        _draw("random-integer", rng, 0)
    with pytest.raises(EvalError):
        ev("(random-integer 10.0)")
    huge = 10 ** 30
    draws = {_draw("random-integer", rng, huge) for _ in range(50)}
    assert all(0 <= d < huge for d in draws)


def test_random_integer_uniformity():
    # binomial oracle: each outcome frequency within 4 sd of 0.1
    n = 100_000
    rng = Draws(20240817)
    counts = np.zeros(10, dtype=int)
    for _ in range(n):
        counts[_draw("random-integer", rng, 10)] += 1
    sd = math.sqrt(0.1 * 0.9 / n)
    for c in counts:
        assert abs(c / n - 0.1) < 4 * sd


def test_normal_moments():
    rng = Draws(7)
    assert _draw("normal", rng, 0, 0) == 0.0
    assert ev("(normal 5 0)") == 5.0
    with pytest.raises(EvalError):
        _draw("normal", rng, 0, -1)
    # a negative stdev is reported before a mean too large for a real
    with pytest.raises(EvalError, match="nonnegative stdev, got -1"):
        _draw("normal", rng, 10 ** 400, -1)
    with pytest.raises(EvalError, match="arithmetic overflow in normal"):
        _draw("normal", rng, 10 ** 400, 0)
    n = 100_000
    draws = np.array([_draw("normal", rng, 0, 1) for _ in range(n)])
    assert abs(draws.mean()) < 0.02       # 6 sigma of 1/sqrt(n)
    assert abs(draws.var() - 1) < 0.03


def test_determinism_fixed_seed():
    src = "(list (random-integer 100) (normal 0 1) (flip 0.5))"
    assert ev(src, seed=99) == ev(src, seed=99)


def test_purity_of_nonrandom_programs():
    src = "(+ (* 3 4) (- 10 5))"
    assert ev(src, seed=1) == ev(src, seed=2) == 17


def test_left_to_right_evaluation_order():
    # the program's two draws must replay the rng's own draw order
    rng = Draws(55)
    first = _draw("random-integer", rng, 1000)
    second = _draw("random-integer", rng, 1000)
    env = standard_env()
    ctx = EvalContext(rng=Draws(55), global_env=env)
    value = evaluate(parse_one("(list (random-integer 1000) (random-integer 1000))"),
                     env, ctx)
    assert value == Pair(first, Pair(second, NIL))


def test_operator_evaluated_before_operands():
    src = """
    (define pick (lambda (n) (random-integer n)))
    ((pick-op) (pick 10))
    """
    # operator expression ran first: it consumes the first draw
    rng = Draws(3)
    op_draw = _draw("random-integer", rng, 2)
    arg_draw = _draw("random-integer", rng, 10)
    env = standard_env()
    ctx = EvalContext(rng=Draws(3), global_env=env)
    for form in parse("""
        (define pick-op (lambda ()
          (if (= (random-integer 2) 0) (lambda (x) x) (lambda (x) (- 0 x)))))
        """):
        evaluate(form, env, ctx)
    value = evaluate(parse_one("((pick-op) (random-integer 10))"), env, ctx)
    assert value == (arg_draw if op_draw == 0 else -arg_draw)


def test_no_rng_context_errors_on_random_primitive():
    with pytest.raises(EvalError, match="no random source"):
        evaluate(parse_one("(flip 0.5)"), standard_env(), EvalContext())


# -- compiled scoping: binding globals when compiling must not change results --


def test_query_that_redefines_plus():
    # the query frame's (define + -) shadows the global in the condition too
    from problisp import Session

    s = Session(seed=3, samples=20, rewrite=False)
    result, = s.run_text("""
        (rejection-query (define + -) (define x (random-integer 10))
                         (+ x 2) (= (+ x 5) 1))""")
    assert set(result.report.samples) == {4}
    assert ev("(rejection-query (define + *) (define x (random-integer 5)) "
              "(+ x 3) (= (+ x 1) 4))") == 12
    assert ev("(+ 1 1)") == 2


def test_parameter_named_like_a_primitive():
    assert ev("((lambda (+) (+ 2 3)) -)") == -1
    assert ev("(define f (lambda (= a) (= a 3))) (f (lambda (n m) (* n m)) 5)") == 15


def test_let_shadows_a_primitive():
    assert ev("(let ((+ -)) (+ 10 3))") == 7
    assert ev("(let ((* +) (x 2)) (let ((y (* x 3))) (* y 1)))") == 6


def test_define_after_use_in_a_lambda_body():
    src = """
    (define weird (lambda (a) (define r (+ a 1)) (define + -) (+ r 100)))
    (list (weird 1) (+ 1 1))
    """
    assert ev(src) == Pair(-98, Pair(2, NIL))


def test_lambda_calls_a_global_defined_later():
    src = """
    (define h (lambda (n) (+ n (later n))))
    (define later (lambda (n) (* n 10)))
    (h 2)
    """
    assert ev(src) == 22
    with pytest.raises(EvalError, match="unbound symbol 'later'"):
        ev("(define h (lambda (n) (later n))) (h 2)")


def test_frames_are_dicts_that_compare_and_hash_by_identity():
    a, b = Env(), Env()
    a.parent, b.parent = None, a
    assert isinstance(a, dict) and a != b and not a == b and a == a
    assert len({a, b, a}) == 2
    # a context's field-wise == never compares two frames by content
    assert EvalContext(global_env=a) != EvalContext(global_env=Env())


def test_closure_made_in_one_form_called_in_another():
    env = standard_env()
    ev("(define mk (lambda (k) (lambda (a) (+ a k))))", env=env)
    ev("(define inc (mk 1))", env=env)
    assert ev("(inc 41)", env=env) == 42
    # in a frame below the root, a later define is seen by an earlier closure
    inner = Env()
    inner.parent = env
    ev("(define g (lambda (a) (+ a 1)))", env=inner)
    ev("(define + -)", env=inner)
    assert ev("(g 5)", env=inner) == 4


@pytest.mark.parametrize("form, message", [
    ("(if)", "if expects"),
    ("(let (x) x)", "malformed let binding"),
    ("(let ((a 1) (a 2)) a)", "duplicate let binding 'a'"),
    ("(let x 1)", "let expects"),
    ("(lambda (1) 2)", "lambda parameters must be symbols"),
    ("(lambda (a a) a)", "duplicate lambda parameter"),
    ("(define 5 1)", "define expects"),
    ("(quote)", "quote expects one argument"),
    ("(lambda x 1)", "lambda expects"),
    ("(sample)", "sample expects one argument"),
    ("()", "cannot evaluate an empty form"),
])
def test_malformed_forms_fail_only_when_evaluated(form, message):
    assert ev(f"(if #t 1 {form})") == 1
    assert ev(f"(if #f {form} 2)") == 2
    assert ev(f"(define f (lambda (b) (if b 3 {form}))) (f #t)") == 3
    with pytest.raises(EvalError, match=message) as exc:
        ev(f"(if #f 1\n  {form})")
    assert exc.value.loc.line == 2


# knowledge forms, which run only in a session, a nested query and primitive calls
@pytest.mark.parametrize("program, message, at", [
    ("(if #t (rejection-query x) 0)",
     "rejection-query expects (rejection-query defs... query condition)", 8),
    ("(concept)", "concept expects (concept name)", 1),
    ("(concept 1)", "concept expects a symbol argument", 1),
    ("(concept c) (is-a 1 c x)", "weight must be a numeric literal", 23),
    ("(is-a c)", "is-a expects (is-a source concept [weight])", 1),
    ("(define-context d)",
     "define-context expects (define-context name (source concept weight)...)", 1),
    ("(set-context)", "set-context expects (set-context name)", 1),
    ("(equivalence a b c d)", "equivalence expects (equivalence [name] pattern template)", 1),
    ("(-)", "- expects at least one argument", 1),
    ("(cons 1)", "cons expects two arguments", 1),
    ("(rest 1)", "rest expects a pair", 1),
    ("(null?)", "null? expects one argument", 1),
])
def test_session_errors_report_their_location(program, message, at):
    from problisp import ProblispError, Session

    with pytest.raises(ProblispError) as exc:
        Session(seed=1).run_text(program)
    assert exc.value.message == message
    assert (exc.value.loc.line, exc.value.loc.column) == (1, at)


def test_let_bindings_before_a_malformed_one_still_run():
    # the first binding's error comes first, as the walker reported it
    with pytest.raises(EvalError, match="unbound symbol 'nope'"):
        ev("(let ((a nope) (b 1 2)) a)")


# -- arithmetic against Python's own left fold ---------------------------------

_ARITH_ARG = st.one_of(
    st.integers(-50, 50),
    st.integers(10 ** 18, 10 ** 30),
    st.sampled_from([0.0, -0.0, 0.5, -2.5, 1e20]),
    st.floats(-1e6, 1e6, allow_nan=False),
    st.just(True),
)


def _node(v):
    if v is True:
        return Boolean(True)
    return Real(v) if isinstance(v, float) else Integer(v)


def _fold(op, args):
    """What `op` gives on `args`, folded the way the primitives fold, or the
    EvalError message it raises."""
    if op in "=<>" and len(args) < 2:
        return f"{op} expects at least two arguments"
    if op == "=":
        def same(a, b):
            if (a is True) != (b is True):
                return False
            return a == b
        return all(same(a, b) for a, b in zip(args, args[1:]))
    bad = next((a for a in args if a is True), None)
    if bad is not None:
        return f"{op} expects numbers, got #t"
    if op == "+":
        total = 0
        for a in args:
            total += a
        return total
    if op == "*":
        total = 1
        for a in args:
            total *= a
        return total
    if op == "-":
        if len(args) == 1:
            return -args[0]
        total = args[0]
        for a in args[1:]:
            total -= a
        return total
    compare = (lambda a, b: a < b) if op == "<" else (lambda a, b: a > b)
    return all(compare(a, b) for a, b in zip(args, args[1:]))


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(["+", "-", "*", "=", "<", ">"]),
       st.lists(_ARITH_ARG, min_size=1, max_size=3))
@example("+", [-0.0, -0.0])
@example("*", [-0.0, 5])
@example("-", [True, 1])
@example("<", [1, True])
@example("=", [1, True])
@example("=", [True, True])
@example(">", [10 ** 30, 1e20])
def test_arithmetic_matches_python_fold(op, args):
    expected = _fold(op, args)
    nodes = tuple(_node(a) for a in args)
    # a known global operator (compiled fast paths) and an operator reached
    # through a variable (the primitive itself) must agree with the fold
    forms = [SList((Symbol(op),) + nodes),
             SList((SList((Symbol("lambda"), SList((Symbol("f"),)),
                           SList((Symbol("f"),) + nodes))), Symbol(op)))]
    for form in forms:
        env = standard_env()
        if isinstance(expected, str):
            with pytest.raises(EvalError) as exc:
                evaluate(form, env, EvalContext())
            assert exc.value.message == expected
        else:
            value = evaluate(form, env, EvalContext())
            assert format_value(value) == format_value(expected)


# -- specialized call shapes against the generic path they skip ----------------
#
# A known global operator with a literal operand, a known one-argument draw and
# a one-argument closure call each compile to a specialized shape; reaching the
# same primitive through a variable, or the same closure through one more
# parameter, takes the generic path.  Both must give the same value, draw the
# same numbers and raise the same error at the same place.


def _outcome(src, seed=5, rng=True):
    """The last form's value as text, or the error's message and location,
    and the next draw of the context's random stream."""
    env = standard_env()
    ctx = EvalContext(rng=Draws(seed) if rng else NO_SOURCE, global_env=env)
    try:
        result = None
        for form in parse(src):
            result = evaluate(form, env, ctx)
        outcome = format_value(result)
    except ProblispError as err:
        outcome = (err.message, err.loc.line, err.loc.column)
    return outcome, (ctx.rng.integer(1 << 30) if rng else None)


def _literal_text(v):
    if v is True:
        return "#t"
    return repr(v) if isinstance(v, float) else str(v)


_LITERAL = st.one_of(
    st.integers(-50, 50),
    st.sampled_from([10 ** 30, -(10 ** 30), 10 ** 400, -(10 ** 400)]),
    st.sampled_from([0.0, -0.0, 0.5, -2.5, 1e20, 1e308]),
    st.floats(-1e6, 1e6, allow_nan=False),
    st.just(True),
)


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(["+", "-", "*", "=", "<", ">"]), _LITERAL, _LITERAL, st.booleans())
@example("+", -0.0, -0.0, True)
@example("-", 10 ** 400, 1.5, True)
@example("*", 0.5, 10 ** 400, False)
@example("<", True, 1, False)
@example("=", 1, True, True)
def test_literal_operand_matches_the_primitive(op, lit, other, lit_first):
    lit, other = _literal_text(lit), _literal_text(other)
    args = f"{lit} v" if lit_first else f"v {lit}"
    # literal operands, then two literals, against the primitive in a variable
    assert (_outcome(f"(let ((v {other}))\n({op} {args}))")
            == _outcome(f"(let ((f {op}) (v {other}))\n(f {args}))"))
    assert (_outcome(f"(let ((v 0))\n({op} {lit} {other}))")
            == _outcome(f"(let ((f {op}) (v 0))\n(f {lit} {other}))"))


# each error is reported at the call that `at` starts
@pytest.mark.parametrize("program, message, at", [
    ("(+ {big} 1.5)", "arithmetic overflow in +", "(+"),
    ("(list (- 0.5 {big}))", "arithmetic overflow in -", "(-"),
    ("(let ((v 0.5)) (* v {big}))", "arithmetic overflow in *", "(*"),
    ("(let ((v -{big})) (+ 1.5 v))", "arithmetic overflow in +", "(+"),
    ("(let ((v {big}) (w 2.5)) (- v w))", "arithmetic overflow in -", "(-"),
    ("(+ 1 {big} 1.5)", "arithmetic overflow in +", "(+"),
    ("((lambda (f) (f {big} 1.5)) *)", "arithmetic overflow in *", "(f 1"),
])
def test_arithmetic_overflow_is_a_located_error(program, message, at):
    program = program.format(big=10 ** 400)
    with pytest.raises(EvalError) as exc:
        ev(program)
    assert exc.value.message == message
    assert (exc.value.loc.line, exc.value.loc.column) == (1, program.index(at) + 1)


@pytest.mark.parametrize("one, two", [
    # a recursive draw loop, one parameter against two
    ("(define g (lambda (p) (if (flip p) 0 (+ 1 (g p)))))\n(g 0.3)",
     "(define g (lambda (p q) (if (flip p) 0 (+ 1 (g p q)))))\n(g 0.3 0)"),
    # the same loop with the recursive call in tail position
    ("(define h (lambda (n) (if (flip 0.4) n (h (+ n 1)))))\n(h 0)",
     "(define h (lambda (n q) (if (flip 0.4) n (h (+ n 1) q))))\n(h 0 0)"),
    # the argument draws after the operator and before the body
    ("((lambda (x) (list x (random-integer 5))) (random-integer 9))",
     "((lambda (x y) (list x (random-integer 5))) (random-integer 9) 0)"),
    # a one-argument call of a primitive reached through a variable
    ("(define g first)\n(g (list (flip 0.5) 2))",
     "(define g (lambda (a b) (first a)))\n(g (list (flip 0.5) 2) 0)"),
])
def test_one_argument_closure_calls_match_two_argument_ones(one, two):
    for seed in range(8):
        assert _outcome(one, seed) == _outcome(two, seed)


class _IntegerFlips(Draws):
    """A draw object whose flips give 1 and 0, not booleans."""

    __slots__ = ()

    def flip(self, p, loc=None):
        return int(super().flip(p, loc))


@pytest.mark.parametrize("program", [
    "(if (flip 1.0) 1 2)", "(if (flip 0.0) 1 2)", "(let ((p 1.0)) (if (flip p) 1 2))",
    "(let ((p 0.0)) (if (flip p) 1 2))", "(if (flip) 1 2)"])
def test_an_if_whose_flip_gives_no_boolean_reports_it_at_the_test(program):
    env = standard_env()
    ctx = EvalContext(rng=_IntegerFlips(5), global_env=env)
    with pytest.raises(EvalError) as exc:
        evaluate(parse_one(program), env, ctx)
    assert exc.value.message == "if test must be a boolean"
    assert exc.value.loc.column == program.index("(flip") + 1


@pytest.mark.parametrize("program, message, at", [
    ("((lambda (a) a))", "closure expects 1 arguments, got 0", "(("),
    ("((lambda (a) a) 1 2)", "closure expects 1 arguments, got 2", "(("),
    ("(list ((lambda (a b) a) 1))", "closure expects 2 arguments, got 1", "(("),
    # tail calls: the caller's loop reports the call it was handed
    ("(define k (lambda (n) ((lambda (a b) a) n))) (k 1)",
     "closure expects 2 arguments, got 1", "(("),
    ("(define k (lambda (n) (if #t (k) n))) (k 1)", "closure expects 1 arguments, got 0",
     "(k)"),
    ("(list (5 (flip 0.5)))", "not a function: 5", "(5"),
])
def test_closure_call_errors_keep_message_and_location(program, message, at):
    outcome, _ = _outcome(program)
    assert outcome == (message, 1, program.index(at) + 1)


@pytest.mark.parametrize("name, arg", [
    ("flip", "0.3"), ("flip", "1"), ("flip", "0"), ("flip", "0.5"),
    ("random-integer", "7"), ("random-integer", "1"), ("random-integer", "10000000000"),
    # errors: a bad probability or bound, checked before anything is drawn
    ("flip", "2"), ("flip", "-0.5"), ("flip", "#t"), ("flip", "(quote p)"),
    ("random-integer", "0"), ("random-integer", "-3"), ("random-integer", "2.5"),
    ("random-integer", "#t"),
])
def test_known_draws_match_the_primitive_in_a_variable(name, arg):
    # `g` is bound by a let, so that it is not known when compiling and the
    # call goes through the primitive
    def program(op):
        return f"(let ((g {name}))\n(list ({op} {arg}) ({op} {arg}) ({op} {arg})))"
    for seed in range(4):
        assert _outcome(program(name), seed) == _outcome(program("g"), seed)
    # without a random source both report it at the call
    assert (_outcome(program(name), rng=False) == _outcome(program("g"), rng=False))


def test_known_draws_replay_the_draw_objects_stream():
    rng = Draws(77)
    expected = [rng.flip(0.25), rng.integer(6), rng.flip(0.9), rng.integer(1 << 40)]
    assert ev("(list (flip 0.25) (random-integer 6) (flip 0.9) "
              "(random-integer 1099511627776))", seed=77) == \
        Pair(expected[0], Pair(expected[1], Pair(expected[2], Pair(expected[3], NIL))))


def test_symbol_reads_see_the_innermost_binding():
    assert ev("(define x 1) (let ((x 2)) (let ((y 3)) (+ x y)))") == 5
    assert ev("(define x 1) (let ((x 2)) x) x") == 1
    assert ev("(define x 1) ((lambda (x) (let ((z x)) x)) 7)") == 7
    # a lambda reads its parameter from its own frame, a global through it
    assert ev("(define k 10) (define f (lambda (a) (+ a k))) (f 1)") == 11
    # a define after the use, in a frame between the use and the root
    assert ev("(define f (lambda (a) (define g (lambda () (list a b))) (define b 2) (g)))"
              " (f 1)") == Pair(1, Pair(2, NIL))
    assert ev("(define f (lambda () (list c))) (define c 9) (f)") == Pair(9, NIL)


@pytest.mark.parametrize("program, message, at", [
    ("(let ((a 1)) (list a nope))", "unbound symbol 'nope'", "nope"),
    ("(define f (lambda () (define r q) (define q 1) r)) (f)", "unbound symbol 'q'", "q)"),
    ("(let ((a 1)) (sample a))", "sample expects a concept, got 1", "(sample"),
])
def test_symbol_read_errors_keep_message_and_location(program, message, at):
    outcome, _ = _outcome(program)
    assert outcome == (message, 1, program.index(at) + 1)


def test_symbol_reads_fall_back_to_concepts():
    from problisp import ConceptError, Session

    s = Session(seed=2)
    s.run_text("(concept animal) (is-a 4 animal)")
    assert s.run_text("(let ((a 1)) (list a (sample animal)))")[0].value == Pair(1, Pair(4, NIL))
    with pytest.raises(ConceptError, match="unknown concept 'plant'") as exc:
        s.run_text("(let ((a 1))\n  (sample plant))")
    assert (exc.value.loc.line, exc.value.loc.column) == (2, 11)


def test_deepest_non_tail_recursion_at_the_cli_limit(tmp_path):
    # the specialized shapes add no Python frame per nested call: at the
    # CLI's recursion limit a non-tail recursion 4996 calls deep still runs
    from conftest import run_cli

    p = tmp_path / "deep.lisp"
    p.write_text("(define d (lambda (n) (if (= n 0) 0 (+ 1 (d (- n 1))))))\n(d 4996)\n")
    r = run_cli(p)
    assert (r.returncode, r.stdout, r.stderr) == (0, "4996\n", "")


# -- operands read inline: a symbol operand of a closure call, a one-argument
# `flip` or two-argument arithmetic is probed for in its own frame (and a
# call's operator in the parent frame) before the full lookup runs


@pytest.mark.parametrize("program, value", [
    # a let or lambda name shadowing a primitive or a global
    ("(let ((flip (lambda (p) p))) (flip 0.25))", "0.25"),
    ("((lambda (random-integer) (random-integer 3)) -)", "-3"),
    ("(define g 5) ((lambda (g) (+ g 1)) 2)", "3"),
    ("(define g 5) (let ((g 7)) (list (< g 6) (- 10 g)))", "(#f 3)"),
    ("(define f (lambda (x) x)) (let ((f (lambda (x) (* x 2)))) (f 4))", "8"),
    # a define after its use inside a lambda body: before the define runs,
    # the use reads the global
    ("(define y 10) ((lambda () (define z (+ y 1)) (define y 2) (list z (+ y 1))))",
     "(11 3)"),
    ("((lambda () (define g (lambda () (* y 3))) (define y 2) (g)))", "6"),
    # an operator found in the parent frame, further out, or as a global
    # defined after the caller
    ("(let ((f (lambda (x) (* x 2)))) ((lambda (y) (f y)) 4))", "8"),
    ("(let ((f (lambda (x) (* x 2)))) (let ((a 1)) ((lambda (y) (f y)) a)))", "2"),
    ("(define h (lambda (n) (later n))) (define later (lambda (n) (- n))) (h 2)", "-2"),
    # flip of 0 and 1 through a local still draws
    ("(let ((p 0)) (flip p))", "#f"),
    ("(let ((p 1)) (flip p))", "#t"),
    ("(let ((p 1.0)) (flip p))", "#t"),
])
def test_inline_operand_reads_give_the_lookup_value(program, value):
    assert _outcome(program)[0] == value


@pytest.mark.parametrize("program, message, at", [
    ("(let ((p #t)) (flip p))", "flip expects a numeric probability", "(flip"),
    ("(let ((p (list 0.5))) (flip p))", "flip expects a numeric probability", "(flip"),
    ("(let ((p 1.5)) (flip p))", "flip expects a probability in [0, 1], got 1.5", "(flip"),
    ("(list (flip 1.5))", "flip expects a probability in [0, 1], got 1.5", "(flip"),
    ("(list (flip -0.5))", "flip expects a probability in [0, 1], got -0.5", "(flip"),
    ("(let ((p (- (* 1e300 1e300) (* 1e300 1e300)))) (flip p))",
     "flip expects a probability in [0, 1], got nan", "(flip"),
    ("(random-integer 0)", "random-integer expects a positive bound, got 0", "(random"),
    ("(random-integer -3)", "random-integer expects a positive bound, got -3", "(random"),
    # a draw primitive checks the arity, then the types, then the ranges, the
    # same called directly or through a variable
    ("(random-integer)", "random-integer expects one argument", "(random"),
    ("(let ((f random-integer)) (f 1 2))", "random-integer expects one argument", "(f 1"),
    ("(random-integer 1.5)", "random-integer expects an integer", "(random"),
    ("(let ((f random-integer)) (f #t))", "random-integer expects an integer", "(f #t"),
    ("(let ((f random-integer)) (f -3))", "random-integer expects a positive bound, got -3",
     "(f -3"),
    ("(flip 0.5 0.5)", "flip expects at most one argument", "(flip"),
    ("(let ((f flip)) (f #f))", "flip expects a numeric probability", "(f #f"),
    ("(let ((f flip)) (f 2))", "flip expects a probability in [0, 1], got 2", "(f 2"),
    ("(normal 0)", "normal expects (normal mean stdev)", "(normal"),
    ("(normal #t -1)", "normal expects numeric mean and stdev", "(normal"),
    ("(let ((f normal)) (f 0 #t))", "normal expects numeric mean and stdev", "(f 0"),
    # a duplicate define, in a lambda body and in the global frame
    ("((lambda () (define a 1) (define a (flip 0.5)) a))",
     "'a' is already defined in this scope", "a (flip"),
    ("(define a 1) (define a 2)", "'a' is already defined in this scope", "a 2"),
    # the value runs before the name is checked
    ("(define a 1) (define a nope)", "unbound symbol 'nope'", "nope"),
    # a miss in every frame is the read's own error
    ("((lambda (x) (nope x)) 1)", "unbound symbol 'nope'", "nope"),
    ("((lambda (x) (+ x nope)) 1)", "unbound symbol 'nope'", "nope"),
    ("((lambda (x) (flip nope)) 1)", "unbound symbol 'nope'", "nope"),
    ("((lambda (x) (x nope)) 1)", "unbound symbol 'nope'", "nope"),
])
def test_inline_operand_errors_keep_message_and_location(program, message, at):
    assert _outcome(program)[0] == (message, 1, program.index(at) + 1)


def test_draws_are_the_same_called_directly_or_through_a_variable():
    for op, args in [("random-integer", "7"), ("flip", "0.3"), ("flip", "1"), ("flip", ""),
                     ("normal", "1 2"), ("normal", "5 0")]:
        assert _outcome(f"(list ({op} {args}) ({op} {args}))") == \
            _outcome(f"(let ((f {op})) (list (f {args}) (f {args})))")
    assert _outcome("(normal 5 0)")[0] == "5.0"


@pytest.mark.parametrize("arg", ["0", "1", "0.0", "0.3", "1.0"])
def test_flip_through_a_local_draws_as_with_a_literal(arg):
    for seed in range(4):
        assert _outcome(f"(let ((p {arg})) (list (flip p) (flip p)))", seed) == \
            _outcome(f"(list (flip {arg}) (flip {arg}))", seed)
    # without a random source the draw reports it at the call
    program = f"(let ((p {arg})) (list (flip p)))"
    assert _outcome(program, rng=False) == \
        (("no random source available in this context", 1, program.index("(flip") + 1), None)


def test_operator_found_through_the_concept_store():
    from problisp import Session

    s = Session(seed=2)
    s.run_text("(concept animal) (is-a 4 animal)")
    program = "((lambda (x)\n  (animal x)) 1)"
    with pytest.raises(EvalError, match="not a function: #<concept animal>") as exc:
        s.run_text(program)
    assert (exc.value.loc.line, exc.value.loc.column) == (2, 3)


def test_duplicate_define_in_a_query_names_the_attempt():
    from problisp import Session

    s = Session(seed=2, rewrite=False)
    with pytest.raises(EvalError, match=r"'x' is already defined in this scope \(attempt 1\)"):
        s.run_text("(rejection-query (define x 1) (define x 2) x #t)")


class _RecordingFrame(Env):
    """A frame that records the keys the compiled code probes it for."""

    def __init__(self, parent, *args):
        super().__init__(*args)
        self.parent = parent
        self.probed = []

    def get(self, key, default=None):
        self.probed.append(key)
        return super().get(key, default)


@pytest.mark.parametrize("program,value", [
    ("((lambda (a) a) 3)", 3), ("(f (- n 1))", 3), ("(f 0.5)", 0.5), ("(f n)", 4)])
def test_closure_calls_probe_a_frame_only_for_symbol_operands(program, value):
    # a closure call's operator and single argument probe the frame only when
    # they are symbols; any other operand runs its own code at once
    env = frame = _RecordingFrame(standard_env(), {"n": 4})
    frame["f"] = evaluate(parse_one("(lambda (a) a)"), env, EvalContext())
    assert evaluate(parse_one(program), env, EvalContext()) == value
    assert None not in frame.probed
