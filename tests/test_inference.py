import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from problisp import (EvalContext, EvalError, ExhaustionError, QuerySpec,
                      derive_rng, parse_one, rejection_query, run_samples,
                      standard_env)
from problisp.rng import Draws

from _lang import draws_state, satisfaction_set, twin_state

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


def test_stack_overflow_in_an_attempt_carries_attempt_number():
    # an attempt's code runs without `evaluate` around it; the attempt loop
    # itself turns a Python stack overflow into the language error
    from problisp.inference import _attempt_loop

    calls = []

    def attempt(env, ctx):
        calls.append(env)
        if len(calls) == 3:
            raise RecursionError("maximum recursion depth exceeded")
        return False

    env = standard_env()
    with pytest.raises(EvalError) as exc:
        _attempt_loop(_spec(PAPER_QUERY), (attempt, attempt), env, 10,
                      EvalContext(global_env=env))
    assert exc.value.message == "recursion depth exceeded (attempt 3)"
    assert exc.value.args == (exc.value.message,) and exc.value.loc is None
    assert exc.value.__suppress_context__


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


# A sample's stream is installed at its first draw.  Each query of
# `_FIRST_DRAWS` has a draw-free prefix and then draws first through one
# `Draws` path: `integer` below and above 2**32, `flip`, `choose` (a two-link
# concept), `order` (a two-concept template) and `normal`.  The queries of
# `_DRAW_FREE` draw nothing at all: `(random-integer 1)` takes no bits.
_KNOWLEDGE = ("(concept coin) (is-a 0 coin) (is-a 1 coin)"
              " (concept pair) (is-a (list coin coin) pair)")
_FIRST_DRAWS = ("(random-integer 10)", "(random-integer (* 4294967296 3))", "(flip 0.3)",
                "(sample coin)", "(sample pair)", "(normal 0 1)")
_DRAW_FREE = ("5", "(random-integer 1)")
_STREAM_BLOCK = 1024   # indices per `stream_states` call


def _lazy_query(first, prefix):
    defs = " ".join(f"(define a{k} (+ {k} 1))" for k in range(prefix))
    return _spec(f"(rejection-query {defs} (define x {first}) (list x {prefix}) #t)")


@pytest.fixture(scope="module")
def knowledge():
    from problisp import Session

    s = Session(seed=0)
    s.run_text(_KNOWLEDGE)
    return s.env, EvalContext(snapshot=s.store.snapshot(), global_env=s.env)


def _count_stream_states(monkeypatch):
    from problisp import inference

    calls = []
    real = inference.stream_states

    def counted(*args):
        calls.append(args)
        return real(*args)
    monkeypatch.setattr(inference, "stream_states", counted)
    return calls


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(_FIRST_DRAWS + _DRAW_FREE), st.integers(0, 2),
       st.sampled_from((1, 2, 1030)), st.lists(st.integers(0, 1 << 40), min_size=1,
                                              max_size=3).map(tuple))
def test_lazy_streams_draw_like_fresh_generators(knowledge, first, prefix, n, seed):
    env, ctx = knowledge
    spec = _lazy_query(first, prefix)
    batch = run_samples(spec, n, env, seed=seed, ctx=ctx).samples
    # a reused draw object whose own state is not a sample stream's
    assert run_samples(spec, n, env, seed=seed, ctx=ctx,
                       rng=Draws(1)).samples == batch
    for i in range(n) if n < 1030 else (0, 1, 1023, 1024, 1029):
        assert rejection_query(spec, env, derive_rng(*seed, i), ctx=ctx) == batch[i]


@pytest.mark.parametrize("first", _FIRST_DRAWS + _DRAW_FREE)
def test_streams_derived_only_for_samples_that_draw(knowledge, monkeypatch, first):
    env, ctx = knowledge
    calls = _count_stream_states(monkeypatch)
    spec = _lazy_query(first, 1)
    for n in (1, 1030, 2049):
        calls.clear()
        run_samples(spec, n, env, seed=(3, n), ctx=ctx)
        assert len(calls) == (0 if first in _DRAW_FREE else -(-n // _STREAM_BLOCK))


def test_batch_without_a_draw_object_draws_like_an_explicit_one(monkeypatch):
    # without `rng`, a batch draws through a `Draws` on its own path, and
    # makes no numpy generator for a query that draws no normal
    from problisp import inference, rng

    def no_generator(*path):
        raise AssertionError("derive_rng called")
    env = standard_env()
    spec = _spec("(rejection-query (define x (random-integer 100)) (define b (flip 0.4))"
                 " (list x b) (if b #t (< x 30)))")
    for seed, n in ((5, 3), ((7000, 3), 40)):
        path = seed if isinstance(seed, tuple) else (seed,)
        explicit = run_samples(spec, n, env, seed=seed, rng=Draws(*path)).samples
        with monkeypatch.context() as m:
            for module in (inference, rng):
                m.setattr(module, "derive_rng", no_generator)
            assert run_samples(spec, n, env, seed=seed).samples == explicit


def test_no_stream_pending_after_return_or_exhaustion(monkeypatch):
    # after run_samples the draw object draws on from its generator's state,
    # whether the last sample drew nothing or the batch ran out of attempts
    env = standard_env()
    calls = _count_stream_states(monkeypatch)
    draws, twin = Draws(99), derive_rng(99)
    run_samples(_spec("(rejection-query (define x 5) x #t)"), 3, env, seed=4, rng=draws)
    assert calls == []
    assert [draws.integer(1000) for _ in range(5)] == \
        [int(twin.integers(0, 1000)) for _ in range(5)]

    spec = _spec("(rejection-query (define x (random-integer 10)) x (< x 8))")
    with pytest.raises(ExhaustionError) as exc:
        run_samples(spec, 50, env, seed=6, max_attempts=1, rng=draws)
    assert 0 < len(exc.value.partial.samples) < 50
    # the exhausted sample drew one 32-bit word from its own stream
    twin = derive_rng(6, len(exc.value.partial.samples))
    twin.integers(0, 10)
    assert draws_state(draws) == twin_state(twin)
    assert draws.flip(0.5) == (twin.random() < 0.5)
    # a later draw-free query derives no stream
    calls.clear()
    run_samples(_spec("(rejection-query (define x 5) x #t)"), 2000, env, seed=4, rng=draws)
    assert calls == []
    assert draws.normal(0, 1) == float(twin.normal(0, 1))
