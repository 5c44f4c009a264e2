import math

import numpy as np
import pytest

from problisp import (NIL, EvalContext, EvalError, Pair, derive_rng, evaluate,
                      parse, parse_one, standard_env)
from problisp.rng import normal, random_integer
from problisp.sexpr import Symbol

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
    # non-tail recursion grows the Python stack; the overflow must surface
    # as a language error, not a crash
    src = "(define grow (lambda (n) (+ 1 (grow n)))) (grow 0)"
    import problisp.session  # session bumps the recursion limit

    problisp.session.Session(seed=0)
    with pytest.raises(EvalError, match="recursion depth exceeded"):
        ev(src)


def test_tail_calls_do_not_grow_the_stack():
    src = """
    (define count (lambda (n) (if (= n 0) (quote done) (count (- n 1)))))
    (count 100000)
    """
    assert ev(src) == Symbol("done")


def test_random_integer_bounds():
    rng = derive_rng(0)
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
    rng = derive_rng(20240817)
    counts = np.zeros(10, dtype=int)
    for _ in range(n):
        counts[random_integer(10, rng)] += 1
    sd = math.sqrt(0.1 * 0.9 / n)
    for c in counts:
        assert abs(c / n - 0.1) < 4 * sd


def test_normal_moments():
    rng = derive_rng(7)
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
    rng = derive_rng(55)
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
    rng = derive_rng(3)
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
