import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from problisp import (NIL, Env, EvalContext, EvalError, Pair, derive_rng, evaluate,
                      format_value, parse, parse_one, standard_env)
from problisp.rng import Draws, normal, random_integer
from problisp.sexpr import Boolean, Integer, Real, SList, Symbol

from _lang import ev


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


def test_random_integer_bounds():
    rng = Draws(derive_rng(0))
    assert random_integer(1, rng) == 0
    with pytest.raises(EvalError):
        random_integer(0, rng)
    with pytest.raises(EvalError):
        ev("(random-integer 10.0)")
    huge = 10 ** 30
    draws = {random_integer(huge, rng) for _ in range(50)}
    assert all(0 <= d < huge for d in draws)


def test_random_integer_uniformity():
    # binomial oracle: each outcome frequency within 4 sd of 0.1
    n = 100_000
    rng = Draws(derive_rng(20240817))
    counts = np.zeros(10, dtype=int)
    for _ in range(n):
        counts[random_integer(10, rng)] += 1
    sd = math.sqrt(0.1 * 0.9 / n)
    for c in counts:
        assert abs(c / n - 0.1) < 4 * sd


def test_normal_moments():
    rng = Draws(derive_rng(7))
    assert normal(0, 0, rng) == 0.0
    assert ev("(normal 5 0)") == 5.0
    with pytest.raises(EvalError):
        normal(0, -1, rng)
    n = 100_000
    draws = np.array([normal(0, 1, rng) for _ in range(n)])
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
    rng = Draws(derive_rng(55))
    first = random_integer(1000, rng)
    second = random_integer(1000, rng)
    env = standard_env()
    ctx = EvalContext(rng=derive_rng(55), global_env=env)
    value = evaluate(parse_one("(list (random-integer 1000) (random-integer 1000))"),
                     env, ctx)
    assert value == Pair(first, Pair(second, NIL))


def test_operator_evaluated_before_operands():
    src = """
    (define pick (lambda (n) (random-integer n)))
    ((pick-op) (pick 10))
    """
    # operator expression ran first: it consumes the first draw
    rng = Draws(derive_rng(3))
    op_draw = random_integer(2, rng)
    arg_draw = random_integer(10, rng)
    env = standard_env()
    ctx = EvalContext(rng=derive_rng(3), global_env=env)
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


def test_closure_made_in_one_form_called_in_another():
    env = standard_env()
    ev("(define mk (lambda (k) (lambda (a) (+ a k))))", env=env)
    ev("(define inc (mk 1))", env=env)
    assert ev("(inc 41)", env=env) == 42
    # in a frame below the root, a later define is seen by an earlier closure
    inner = Env(env)
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
    ("()", "cannot evaluate an empty form"),
])
def test_malformed_forms_fail_only_when_evaluated(form, message):
    assert ev(f"(if #t 1 {form})") == 1
    assert ev(f"(if #f {form} 2)") == 2
    assert ev(f"(define f (lambda (b) (if b 3 {form}))) (f #t)") == 3
    with pytest.raises(EvalError, match=message) as exc:
        ev(f"(if #f 1\n  {form})")
    assert exc.value.loc.line == 2


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
