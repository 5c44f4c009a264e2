import math

import pytest

from problisp import (EvalContext, EvalError, ExhaustionError, QuerySpec,
                      derive_rng, parse_one, rejection_query, run_samples,
                      standard_env)

from _lang import satisfaction_set

PAPER_QUERY = "(rejection-query (define x (random-integer 10)) x (= (+ x 5) 10))"


def _spec(src):
    return QuerySpec.from_form(parse_one(src))


def test_spec_splits_defs_query_condition():
    spec = _spec(PAPER_QUERY)
    assert len(spec.definitions) == 1
    assert str(spec.query) == "x"
    assert str(spec.condition) == "(= (+ x 5) 10)"
    with pytest.raises(EvalError):
        _spec("(rejection-query x)")


def test_paper_query_always_returns_five():
    spec = _spec(PAPER_QUERY)
    env = standard_env()
    for seed in range(20):
        assert rejection_query(spec, env, derive_rng(seed)) == 5


def test_vacuous_condition_accepts_first_attempt():
    spec = _spec("(rejection-query (random-integer 10) #t)")
    report = run_samples(spec, 1, standard_env(), seed=3)
    assert report.total_attempts == 1
    assert report.acceptance_rate == 1.0
    assert 0 <= report.samples[0] < 10


def test_acceptance_rate_matches_brute_force():
    # oracle: exactly one of the ten prior values satisfies the condition
    satisfying = satisfaction_set("(= (+ x 5) 10)", {"x": 10})
    p = len(satisfying) / 10
    assert p == 0.1
    spec = _spec(PAPER_QUERY)
    report = run_samples(spec, 2_000, standard_env(), seed=8)
    assert all(v == 5 for v in report.samples)
    sd = math.sqrt(p * (1 - p) / report.total_attempts)
    assert abs(report.acceptance_rate - p) < 4 * sd


def test_mean_attempts_is_geometric():
    spec = _spec(PAPER_QUERY)
    report = run_samples(spec, 1_000, standard_env(), seed=21)
    # attempts per sample ~ Geometric(0.1): mean 10, var 90
    mean = report.total_attempts / 1_000
    sd = math.sqrt(90 / 1_000)
    assert abs(mean - 10) < 4 * sd


def test_stream_independence_and_reordering():
    # index i of a batch draws from derive_rng(*seed, i), whatever else ran:
    # integer seeds and tuple seeds as sessions pass them, batches of 1, 2,
    # 10 and more than one block of precomputed states, and a query that
    # draws normal and flip and rejects attempts; a generator passed in, as a
    # session passes its one generator to every query, changes nothing
    env = standard_env()
    shared = derive_rng(123)
    for src in ("(rejection-query (define x (random-integer 1000)) x #t)",
                "(rejection-query (define x (normal 0 1)) (define b (flip 0.3))"
                " (if b x (- x)) (if b #t (> x 0.5)))"):
        spec = _spec(src)
        for seed, n in ((5, 10), ((7000, 3), 10), (5, 1), ((7000, 3), 1), ((7000, 3), 2),
                        (9, 1030)):
            path = seed if isinstance(seed, tuple) else (seed,)
            batch = run_samples(spec, n, env, seed=seed).samples
            shared.random()
            assert run_samples(spec, n, env, seed=seed, rng=shared).samples == batch
            for i in reversed(range(n)):
                ctx = EvalContext(rng=derive_rng(*path, i), global_env=env)
                alone = rejection_query(spec, env, derive_rng(*path, i), ctx=ctx)
                assert alone == batch[i], (src, seed, n, i)


def test_exhaustion_reports_attempts_and_partial():
    spec = _spec("(rejection-query (define x (random-integer 10)) x (= x 99))")
    with pytest.raises(ExhaustionError) as exc:
        run_samples(spec, 3, standard_env(), seed=2, max_attempts=50)
    assert exc.value.attempts == 50
    assert exc.value.partial is not None
    assert exc.value.partial.samples == ()


def test_non_boolean_condition_is_an_error():
    spec = _spec("(rejection-query (define x 1) x (+ x 1))")
    with pytest.raises(EvalError, match="boolean"):
        rejection_query(spec, standard_env(), derive_rng(0))


def test_eval_error_carries_attempt_number():
    spec = _spec("(rejection-query (define x (oops)) x #t)")
    with pytest.raises(EvalError, match=r"attempt 1"):
        rejection_query(spec, standard_env(), derive_rng(0))


def test_definitions_resampled_each_attempt():
    # if definitions were cached the condition could never become true
    spec = _spec("""
    (rejection-query
      (define x (random-integer 2))
      (define y (random-integer 2))
      (+ x y)
      (= (+ x y) 2))
    """)
    assert rejection_query(spec, standard_env(), derive_rng(4)) == 2


def test_nested_rejection_query_expression():
    from _lang import ev

    value = ev("(+ 1 (rejection-query (define x (random-integer 4)) x (> x 2)))")
    assert value == 4


@pytest.mark.parametrize("src,supports,query_var", [
    ("(< x 3)", {"x": 6}, "x"),
    ("(= (+ x y) 3)", {"x": 4, "y": 4}, "x"),
    ("(> x 3)", {"x": 10}, "x"),
])
def test_conditional_distribution_matches_enumeration(src, supports, query_var):
    sat = satisfaction_set(src, supports)
    names = list(supports)
    qi = names.index(query_var)
    expected = {}
    for combo in sat:
        expected[combo[qi]] = expected.get(combo[qi], 0) + 1
    total = sum(expected.values())

    defs = " ".join(f"(define {n} (random-integer {supports[n]}))" for n in names)
    spec = _spec(f"(rejection-query {defs} {query_var} {src})")
    n = 10_000
    report = run_samples(spec, n, standard_env(), seed=99)
    counts = {}
    for v in report.samples:
        counts[v] = counts.get(v, 0) + 1
    assert set(counts) == set(expected)
    for value, mass in expected.items():
        p = mass / total
        sd = math.sqrt(p * (1 - p) / n)
        assert abs(counts[value] / n - p) < 4 * sd
