import math

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from problisp import (EvalContext, EvalError, ExhaustionError, ProblispError, QuerySpec,
                      SampleReport, SList, Symbol, evaluate, format_value, parse_one,
                      run_samples, standard_env)
from problisp.rng import Draws, derive_rng

from _lang import draws_state, satisfaction_set, twin_state

PAPER_QUERY = "(rejection-query (define x (random-integer 10)) x (= (+ x 5) 10))"


def _spec(src):
    return QuerySpec.from_form(parse_one(src))


def _ctx(rng, env, **fields):
    return EvalContext(rng=rng, global_env=env, **fields)


def _one(spec, env, ctx):
    """One sample of `spec` drawn from `ctx.rng`, as the language runs a
    single query: `evaluate` of its `rejection-query` form."""
    form = SList((Symbol("rejection-query"), *spec.definitions, spec.query, spec.condition))
    return evaluate(form, env, ctx)


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
        assert _one(spec, env, _ctx(Draws(seed), env)) == 5


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
    # draws normal and flip and rejects attempts; a draw object passed in, as
    # a session passes its own draw object to every query, changes nothing
    env = standard_env()
    shared = Draws(123)
    for src in ("(rejection-query (define x (random-integer 1000)) x #t)",
                "(rejection-query (define x (normal 0 1)) (define b (flip 0.3))"
                " (if b x (- x)) (if b #t (> x 0.5)))"):
        spec = _spec(src)
        for seed, n in ((5, 10), ((7000, 3), 10), (5, 1), ((7000, 3), 1), ((7000, 3), 2),
                        (9, 1030)):
            path = seed if isinstance(seed, tuple) else (seed,)
            batch = run_samples(spec, n, env, seed=seed).samples
            shared.flip(0.5)
            assert run_samples(spec, n, env, seed, _ctx(shared, env)).samples == batch
            for i in reversed(range(n)):
                alone = _one(spec, env, _ctx(Draws(*path, i), env))
                assert alone == batch[i], (src, seed, n, i)


def test_exhaustion_reports_attempts_and_partial():
    spec = _spec("(rejection-query (define x (random-integer 10)) x (= x 99))")
    env = standard_env()
    with pytest.raises(ExhaustionError) as exc:
        run_samples(spec, 3, env, 2, _ctx(Draws(2), env, max_attempts=50))
    assert exc.value.attempts == 50
    assert exc.value.partial is not None
    assert exc.value.partial.samples == ()


def test_batch_on_a_context_without_a_draw_source():
    # the context's default draw object is rng.NO_SOURCE; a batch draws from
    # its seed on a draw object of its own, so it samples as on any context,
    # and puts NO_SOURCE back
    from problisp.rng import NO_SOURCE

    env = standard_env()
    for text in (PAPER_QUERY, "(rejection-query (define x (random-integer 100)) x (> x 50))",
                 "(rejection-query (define x 4) (+ x 1) (= x 4))"):
        ctx = EvalContext(global_env=env)
        report = run_samples(_spec(text), 6, env, 1, ctx)
        assert report == run_samples(_spec(text), 6, env, 1, _ctx(Draws(5), env))
        assert ctx.rng is NO_SOURCE


@pytest.mark.parametrize("text", [PAPER_QUERY, f"(list {PAPER_QUERY})"])
def test_attempt_limit_below_one_is_the_same_error_in_both_runners(text):
    # a top-level query runs as a batch, a nested one on the code compiled
    # with the form around it
    from problisp import Session

    with pytest.raises(EvalError) as exc:
        Session(max_attempts=0).run_text(text)
    assert str(exc.value) == "line 1, column 1: max-attempts must be at least 1"


def test_a_query_gives_its_context_the_session_back():
    from problisp import Session

    s = Session()
    ctx = _ctx(Draws(5), s.env, session=s, max_attempts=1000)
    assert _one(_spec(PAPER_QUERY), s.env, ctx) == 5
    assert ctx.session is s
    with pytest.raises(ExhaustionError):
        _one(_spec("(rejection-query (define x 1) x (= x 2))"), s.env, ctx)
    assert ctx.session is s


def _session_ctx(max_attempts):
    """A session and a context that carries it, as the session's own forms get."""
    from problisp import Session

    s = Session()
    return s, _ctx(Draws(0), s.env, session=s, max_attempts=max_attempts)


def test_a_batch_exhausting_at_sample_2_reports_the_samples_before_it():
    s, ctx = _session_ctx(7)
    with pytest.raises(ExhaustionError) as exc:
        run_samples(_spec(PAPER_QUERY), 3, s.env, 4, ctx)
    assert exc.value.message == "sample 2: no accepted sample after 7 attempts"
    assert exc.value.attempts == 7
    # samples 0 and 1 took 11 attempts, and sample 2 all 7 of its own
    assert exc.value.partial == SampleReport((5, 5), 18, 2 / 18)
    assert ctx.session is s


def test_a_nested_query_exhausting_in_a_batch_is_reported_as_its_sample():
    # the nested query runs when y is 0, first at sample 2's first attempt;
    # its attempts stand for that sample's in the report
    spec = _spec("(rejection-query (define y (random-integer 3)) "
                 "(define z (if (= y 0) (rejection-query (define x (random-integer 10)) "
                 "x (= x 99)) 0)) y #t)")
    s, ctx = _session_ctx(4)
    with pytest.raises(ExhaustionError) as exc:
        run_samples(spec, 3, s.env, 4, ctx)
    assert exc.value.message == "sample 2: no accepted sample after 4 attempts (attempt 1)"
    assert exc.value.attempts == 4
    assert exc.value.partial == SampleReport((2, 1), 6, 2 / 6)
    assert ctx.session is s


@pytest.mark.parametrize("query, message", [
    ("(oops)", "unbound symbol 'oops'"),
    ("(rejection-query (define y 1) y (= y 2))", "no accepted sample after 5 attempts"),
], ids=["unbound", "nested-exhaustion"])
def test_an_error_in_the_query_value_has_no_attempt_number(query, message):
    spec = _spec(f"(rejection-query (define x 1) {query} (= x 1))")
    s, ctx = _session_ctx(5)
    with pytest.raises(ProblispError) as exc:
        _one(spec, s.env, ctx)
    assert exc.value.message == message
    assert ctx.session is s
    with pytest.raises(ProblispError) as exc:
        run_samples(spec, 2, s.env, 1, ctx)
    if isinstance(exc.value, ExhaustionError):   # a batch names the sample
        message = "sample 0: " + message
        assert exc.value.partial == SampleReport((), 5, 0.0)
    assert exc.value.message == message
    assert ctx.session is s


def test_non_boolean_condition_is_an_error():
    spec = _spec("(rejection-query (define x 1) x (+ x 1))")
    env = standard_env()
    with pytest.raises(EvalError, match="boolean"):
        _one(spec, env, _ctx(Draws(0), env))


def test_eval_error_carries_attempt_number():
    spec = _spec("(rejection-query (define x (oops)) x #t)")
    env = standard_env()
    with pytest.raises(EvalError, match=r"attempt 1"):
        _one(spec, env, _ctx(Draws(0), env))


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
        _attempt_loop(_spec(PAPER_QUERY), (attempt, attempt), env,
                      EvalContext(max_attempts=10, global_env=env))
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
    env = standard_env()
    assert _one(spec, env, _ctx(Draws(4), env)) == 2


def test_nested_query_expression():
    from _lang import ev

    value = ev("(+ 1 (rejection-query (define x (random-integer 4)) x (> x 2)))")
    assert value == 4


@pytest.mark.parametrize("rules_on", [True, False])
def test_a_nested_query_compiles_once_with_the_form_around_it(rules_on, monkeypatch):
    # 200 calls of a lambda that wraps a query compile nothing beyond the
    # calling form; with rules on, every call still solves the condition
    from problisp import Session, evaluator, format_value, rewrite, rules_path

    s = Session(seed=3, rewrite=rules_on)
    s.load_file(rules_path())
    s.run_text(f"""
        (define f (lambda () {PAPER_QUERY}))
        (define loop (lambda (n acc) (if (= n 0) acc (loop (- n 1) (cons (f) acc)))))""")
    compiles, solves = [], []

    class Counting(evaluator._Compiler):
        def __init__(self, env, slot=None):
            compiles.append(env)
            super().__init__(env, slot)

    solve = rewrite.solve_condition

    def counting_solve(*args):
        solves.append(args)
        return solve(*args)

    monkeypatch.setattr(evaluator, "_Compiler", Counting)
    monkeypatch.setattr(rewrite, "solve_condition", counting_solve)
    result, = s.run_text("(loop 200 null)")
    assert format_value(result.value) == "(" + " ".join(["5"] * 200) + ")"
    assert len(compiles) == 1   # the calling form's own compile
    assert len(solves) == (200 if rules_on else 0)


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
# concept, alone and in a two-concept template) and `normal`.  The queries of
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
    return s.env, lambda rng: EvalContext(rng=rng, store=s.store, global_env=s.env)


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
    env, ctx_for = knowledge
    spec = _lazy_query(first, prefix)
    batch = run_samples(spec, n, env, seed, ctx_for(Draws(*seed))).samples
    # a reused draw object whose own state is not a sample stream's
    assert run_samples(spec, n, env, seed, ctx_for(Draws(1))).samples == batch
    for i in range(n) if n < 1030 else (0, 1, 1023, 1024, 1029):
        assert _one(spec, env, ctx_for(Draws(*seed, i))) == batch[i]


@pytest.mark.parametrize("first", _FIRST_DRAWS + _DRAW_FREE)
def test_streams_derived_only_for_samples_that_draw(knowledge, monkeypatch, first):
    env, ctx_for = knowledge
    calls = _count_stream_states(monkeypatch)
    spec = _lazy_query(first, 1)
    for n in (1, 1030, 2049):
        calls.clear()
        run_samples(spec, n, env, (3, n), ctx_for(Draws(3, n)))
        assert len(calls) == (0 if first in _DRAW_FREE else -(-n // _STREAM_BLOCK))


def test_batch_without_a_draw_object_draws_like_an_explicit_one(monkeypatch):
    # without a context, a batch draws through a `Draws` on its own path, and
    # makes no numpy generator
    from problisp import inference, rng

    def no_generator(*path):
        raise AssertionError("derive_rng called")
    env = standard_env()
    spec = _spec("(rejection-query (define x (random-integer 100)) (define b (flip 0.4))"
                 " (list x b) (if b #t (< x 30)))")
    for seed, n in ((5, 3), ((7000, 3), 40)):
        path = seed if isinstance(seed, tuple) else (seed,)
        explicit = run_samples(spec, n, env, seed, _ctx(Draws(*path), env)).samples
        with monkeypatch.context() as m:
            for module in (inference, rng):
                m.setattr(module, "derive_rng", no_generator)
            assert run_samples(spec, n, env, seed=seed).samples == explicit


# Every query on a `Draws`, a batch, a single or a nested one, asks once,
# after its first attempt, whether that attempt drew or charged a shared
# concept budget; if neither, it runs that attempt alone.
DRAW_FREE_FALSE = "(rejection-query (define x 5) x (= x 6))"


def test_a_draw_free_batch_that_rejects_raises_the_full_exhaustion_at_once():
    # every attempt would reject as sample 0's first did: the error is the
    # one that 10**6 attempts reach, as when they were all made
    from problisp import Session

    with pytest.raises(ExhaustionError) as exc:
        Session(seed=1, samples=5).run_text(DRAW_FREE_FALSE)
    assert str(exc.value) == ("line 1, column 1: sample 0: "
                              "no accepted sample after 1000000 attempts")
    assert exc.value.attempts == 10 ** 6
    assert exc.value.partial == SampleReport((), 10 ** 6, 0.0)


def test_a_draw_free_single_query_that_rejects_raises_the_full_exhaustion_at_once():
    # the error that 10**8 attempts reach, without making them, and the draw
    # object left where they would leave it: they draw nothing
    env = standard_env()
    draws = Draws(1)
    with pytest.raises(ExhaustionError) as exc:
        _one(_spec(DRAW_FREE_FALSE), env, _ctx(draws, env, max_attempts=10 ** 8))
    assert str(exc.value) == "no accepted sample after 100000000 attempts"
    assert exc.value.attempts == 10 ** 8
    twin = Draws(1)
    assert [draws.integer(1000) for _ in range(5)] == [twin.integer(1000) for _ in range(5)]
    assert draws.normal(0, 1) == twin.normal(0, 1)


def test_a_draw_free_batch_is_one_value_in_one_attempt_per_sample():
    report = run_samples(_spec("(rejection-query (define x 5) (list x x) (= x 5))"), 50,
                         standard_env(), 3)
    assert (report.total_attempts, report.acceptance_rate) == (50, 1.0)
    assert format_value(report.samples[0]) == "(5 5)"
    assert all(v is report.samples[0] for v in report.samples)   # one value object


def test_a_sample_that_draws_only_in_its_query_value_draws_from_its_own_stream():
    # the query value's draw is what makes sample 0 differ from sample 1;
    # the values are those of the batch before it probed sample 0
    from problisp import Session

    text = "(rejection-query (define x 5) (random-integer 10) #t)"
    report = Session(seed=1, samples=12).run_text(text)[0].report
    assert report == SampleReport((5, 3, 9, 9, 9, 1, 7, 5, 2, 9, 4, 5), 12, 1.0)
    env = standard_env()
    for i, value in enumerate(report.samples):
        assert _one(_spec(text), env, _ctx(Draws(1, 1, i), env)) == value


def test_a_query_under_a_shared_concept_budget_runs_out_of_it_where_it_did():
    # each attempt samples a one-link concept: it draws nothing, but charges
    # the template's budget when nested in one, or the budget a batch is given
    from problisp import BudgetError, Session
    from problisp.sampler import SampleBudget

    s = Session(seed=1, max_attempts=100_000)
    s.run_text("(concept d) (is-a 7 d) (define g (lambda () (sample d)))"
               " (concept c) (is-a (rejection-query (define y (g)) y (= y 8)) c)")
    with pytest.raises(BudgetError) as exc:
        s.run_text("(sample c)")
    assert exc.value.message == ("sampling did not terminate within budget "
                                 "(depth 1/64, nodes 10001/10000) (attempt 10000)")
    # so does a query whose definitions draw nothing: its condition's charge
    # keeps it from ending at its first attempt.  A global names the concept,
    # since a concept name written in a template is a draw of its own.
    s.run_text("(define k d)"
               " (concept f) (is-a (rejection-query (define y 5) y (= (sample k) 8)) f)")
    with pytest.raises(BudgetError) as exc:
        s.run_text("(sample f)")
    assert exc.value.message == ("sampling did not terminate within budget "
                                 "(depth 1/64, nodes 10001/10000) (attempt 10000)")
    # so does a template's query of literal draws: the budget keeps its memo off
    s.run_text("(concept e)"
               " (is-a (rejection-query (define x (random-integer 2)) x (= (g) 8)) e)")
    with pytest.raises(BudgetError) as exc:
        s.run_text("(sample e)")
    assert exc.value.message == ("sampling did not terminate within budget "
                                 "(depth 1/64, nodes 10001/10000) (attempt 10000)")
    for cond, n, max_nodes, message in [
            ("(= y 8)", 3, 40, "(depth 0/64, nodes 41/40) (attempt 41)"),
            ("(= y 7)", 10, 5, "(depth 0/64, nodes 6/5) (attempt 1)"),   # at sample 5
            ("(= y 7)", 4, 5, None)]:
        budget = SampleBudget(max_nodes=max_nodes)
        ctx = _ctx(Draws(0), s.env, store=s.store, budget=budget, max_attempts=1000)
        spec = _spec(f"(rejection-query (define y (sample d)) y {cond})")
        if message is None:
            assert run_samples(spec, n, s.env, 5, ctx) == SampleReport((7,) * n, n, 1.0)
            assert budget.nodes_expanded == n
        else:
            with pytest.raises(BudgetError) as exc:
                run_samples(spec, n, s.env, 5, ctx)
            assert exc.value.message == "sampling did not terminate within budget " + message
    # literal draws whose condition charges the budget run it on every attempt
    ctx = _ctx(Draws(0), s.env, store=s.store, budget=SampleBudget(max_nodes=40),
               max_attempts=1000)
    with pytest.raises(BudgetError) as exc:
        run_samples(_spec("(rejection-query (define x (random-integer 2)) x (= (sample d) 8))"),
                    3, s.env, 5, ctx)
    assert exc.value.message == ("sampling did not terminate within budget "
                                 "(depth 0/64, nodes 41/40) (attempt 41)")


def test_no_stream_pending_after_return_or_exhaustion(monkeypatch):
    # after an accepted and an exhausted batch the caller's draw object is the
    # same object in the same state, with no stream pending, and draws on as
    # a twin that no batch touched
    env = standard_env()
    _count_stream_states(monkeypatch)
    draws, twin = Draws(99), derive_rng(99)
    ctx = _ctx(draws, env, max_attempts=1)
    assert draws.flip(0.5) == (twin.random() < 0.5)
    assert run_samples(_spec("(rejection-query (define x (random-integer 10)) x #t)"),
                       3, env, 4, ctx).total_attempts == 3
    assert ctx.rng is draws and draws.pending is None
    assert draws_state(draws) == twin_state(twin)
    assert draws.integer(1000) == int(twin.integers(0, 1000))

    spec = _spec("(rejection-query (define x (random-integer 10)) x (< x 8))")
    with pytest.raises(ExhaustionError) as exc:
        run_samples(spec, 50, env, 6, ctx)
    assert 0 < len(exc.value.partial.samples) < 50
    assert ctx.rng is draws and draws.pending is None
    assert draws_state(draws) == twin_state(twin)
    assert draws.normal(0, 1) == float(twin.normal(0, 1))


def test_no_stream_left_pending_after_a_draw_free_batch(monkeypatch):
    # an accepted and a rejected draw-free batch derive no stream and leave
    # the caller's draw object as it was, with no stream pending
    env = standard_env()
    calls = _count_stream_states(monkeypatch)
    draws, twin = Draws(99), derive_rng(99)
    ctx = _ctx(draws, env)
    assert draws.flip(0.5) == (twin.random() < 0.5)
    for text in ("(rejection-query (define x 5) x #t)", DRAW_FREE_FALSE):
        try:
            run_samples(_spec(text), 2000, env, 4, ctx)
        except ExhaustionError:
            assert text == DRAW_FREE_FALSE
        assert ctx.rng is draws and draws.pending is None
        assert draws_state(draws) == twin_state(twin)
    assert calls == []
    assert [draws.integer(1000) for _ in range(5)] == \
        [int(twin.integers(0, 1000)) for _ in range(5)]


class _FourDraws:
    """A draw object with the four draws alone, each made by a `Draws`."""

    __slots__ = ("_draws",)

    def __init__(self, *path):
        self._draws = Draws(*path)

    def integer(self, n, loc=None):
        return self._draws.integer(n, loc)

    def flip(self, p, loc=None):
        return self._draws.flip(p, loc)

    def normal(self, mean, sd, loc=None):
        return self._draws.normal(mean, sd, loc)

    def choose(self, weights):
        return self._draws.choose(weights)


def test_a_draw_object_needs_only_the_four_draws():
    # every runner draws through `integer`, `flip`, `normal` and `choose`
    # alone, and a batch on a context with such a draw object samples as on
    # any other
    from problisp import Session, sample_concept

    s = Session()
    s.run_text("(concept coin) (is-a 0 coin) (is-a 1 coin 3)")
    text = ("(rejection-query (define x (random-integer 10)) (define b (flip 0.5))"
            " (list x b (normal 0 1) coin) (> x 4))")
    spec, nested = _spec(text), parse_one(f"(list {text} (sample coin))")
    # all literal draws, which a `Draws` remembers the condition outcomes of
    literal = parse_one("(list (rejection-query (define x (random-integer 10))"
                        " (define y (random-integer 3)) (list x y) (> (+ x y) 9)))")
    for run in (lambda ctx: format_value(evaluate(nested, s.env, ctx)),
                lambda ctx: format_value(evaluate(literal, s.env, ctx)),
                lambda ctx: format_value(_one(spec, s.env, ctx)),
                lambda ctx: sample_concept(s.store.lookup("coin"), ctx),
                lambda ctx: [format_value(v) for v in run_samples(spec, 5, s.env, 3, ctx).samples]):
        results = []
        for rng in (_FourDraws(8), Draws(8)):
            ctx = _ctx(rng, s.env, store=s.store)
            results.append(run(ctx))
            assert ctx.rng is rng
        assert results[0] == results[1]


def _draw_free_terms(names):
    """Integer-valued terms over `names` that draw nothing: arithmetic, if,
    let, a lambda call and a nested query."""
    leaf = st.one_of(st.integers(-3, 9).map(str), st.just("(random-integer 1)"),
                     *([st.sampled_from(names)] if names else []))
    return st.recursive(leaf, lambda t: st.one_of(
        st.tuples(st.sampled_from("+-*"), t, t).map(lambda x: "({} {} {})".format(*x)),
        st.tuples(t, t, t).map(lambda x: "(if (< {0} {1}) {2} {0})".format(*x)),
        st.tuples(t, t).map(lambda x: "(let ((v {})) (+ v {}))".format(*x)),
        st.tuples(t, t).map(lambda x: "((lambda (u) (* u {1})) {0})".format(*x)),
        t.map("(rejection-query (define w {}) (+ w 1) (> w -50))".format)), max_leaves=5)


@st.composite
def _draw_free_queries(draw):
    """A query whose definitions and condition draw nothing; its query value
    may draw."""
    defs = [f"(define a {draw(_draw_free_terms(()))})",
            f"(define b {draw(_draw_free_terms(('a',)))})"]
    terms = _draw_free_terms(("a", "b"))
    cond = draw(st.one_of(st.sampled_from(("#t", "#f")), st.tuples(
        st.sampled_from("=<>"), terms, terms).map(lambda x: "({} {} {})".format(*x))))
    value = draw(st.one_of(terms, terms.map("(list {} (random-integer 10))".format)))
    return f"(rejection-query {' '.join(defs)} {value} {cond})"


def _outcome(run):
    try:
        return format_value(run())
    except ExhaustionError as err:
        return err.message, err.attempts


@settings(max_examples=150, deadline=None)
@given(_draw_free_queries(), st.integers(1, 3), st.integers(0, 2 ** 32))
def test_draw_free_queries_sample_as_the_reference_walker_does(text, n, seed):
    # the walker runs every attempt of a query blind
    import _reference_eval

    form, env = parse_one(text), standard_env()

    def ctx(*path):
        return _ctx(Draws(*path), env, max_attempts=25)

    walked = [_outcome(lambda: _reference_eval.run(form, env, ctx(seed, i))) for i in range(n)]
    assert _outcome(lambda: evaluate(form, env, ctx(seed, 0))) == walked[0]
    try:
        batch = [format_value(v) for v in
                 run_samples(QuerySpec.from_form(form), n, env, seed, ctx(seed)).samples]
    except ExhaustionError as err:
        failed = next(i for i, w in enumerate(walked) if isinstance(w, tuple))
        assert (err.message, err.attempts) == (f"sample {failed}: {walked[failed][0]}",
                                               walked[failed][1])
    else:
        assert batch == walked


# A batch whose definitions are all literal draws remembers each drawn
# value's condition outcome.  The queries below take that memo and miss it:
# a condition that errs, gives a non-boolean or draws at some values, one
# whose define the query value reads, a definition of `random-integer` or
# `+`, a repeated name, `(random-integer 1)` and value spaces above the cap.
# A condition may come with the query value that goes with it.
_MEMO_CONDITIONS = (
    ("(< {a} 2)", None), ("(= (+ {a} 5) 7)", None), ("(< {a} {b})", None),
    ("(= (+ {a} {b}) 3)", None), ("#f", None), ("(> {a} 99)", None),
    ("(if (= {a} 1) (first {a}) (= {a} 2))", None),
    ("(if (= {a} 2) 7 (< {a} 2))", None),
    ("(if (= {a} 1) (flip 0.5) (< {a} 1))", None),
    ("(if (= {a} 1) (= (random-integer 3) 0) (= {a} 2))", None),
    ("(if (null? (define w {a})) #f (< {a} 3))", "w"),
    ("(if (null? (define + 1)) #f (< {a} 3))", None),
    ("(< {a} 3)", "(if (null? (define random-integer 2)) {a} {b})"),
    ("(< {a} 3)", "(if (null? (define + 2)) {a} {b})"),
)
_MEMO_VALUES = ("{a}", "(list {a} {b})", "(random-integer 10)")


@st.composite
def _literal_draw_queries(draw):
    """A query of one or two `(define name (random-integer N))`."""
    names = ["x"] + draw(st.lists(st.sampled_from(("y", "y", "x", "random-integer", "+")),
                                  max_size=1))
    sizes = st.sampled_from((3, 2, 5, 10, 1, 70, 5000))
    defs = [f"(define {name} (random-integer {draw(sizes)}))" for name in names]
    a, b = names[0], names[-1] if len(names) > 1 else "2"
    cond, value = draw(st.sampled_from(_MEMO_CONDITIONS))
    value = value or draw(st.sampled_from(_MEMO_VALUES))
    return f"(rejection-query {' '.join(defs)} {value.format(a=a, b=b)} {cond.format(a=a, b=b)})"


def _walked(form, env, ctx):
    """(value, attempts) of the reference walker's sample, or its error:
    (class, message, loc, attempts)."""
    import _reference_eval

    try:
        value, attempts = _reference_eval.run_query(form, env, ctx)
    except ProblispError as err:
        return err.__class__, err.message, err.loc, getattr(err, "attempts", None)
    return format_value(value), attempts


def _batch_and_walker_agree(form, n, seed, limit):
    """The batch's samples, total attempts and error, with its sample and
    partial report, are the walker's, sample by sample."""
    env = standard_env()
    expected, attempts = [], 0
    for i in range(n):
        walked = _walked(form, env, _ctx(Draws(seed, i), env, max_attempts=limit))
        if len(walked) == 4:
            break
        expected.append(walked[0])
        attempts += walked[1]
    try:
        report = run_samples(QuerySpec.from_form(form), n, env, seed,
                             _ctx(Draws(1), env, max_attempts=limit))
    except ProblispError as err:
        assert len(walked) == 4
        cls, message, loc, spent = walked
        assert (err.__class__, err.loc) == (cls, loc)
        if cls is ExhaustionError:
            assert (err.message, err.attempts) == (f"sample {i}: {message}", spent)
            made = attempts + spent
            assert (err.partial.total_attempts, err.partial.acceptance_rate) == (
                made, len(expected) / made)
            assert [format_value(v) for v in err.partial.samples] == expected
        else:
            assert err.message == message
    else:
        assert len(expected) == n, walked
        assert [format_value(v) for v in report.samples] == expected
        assert report.total_attempts == attempts


_MEMO_EXAMPLES = (
    "(define x (random-integer 5)) x (if (= x 3) (first x) (= x 4))",
    "(define x (random-integer 5)) x (if (= x 2) 7 (< x 2))",
    "(define x (random-integer 5)) x (if (= x 3) (flip 0.5) (< x 2))",
    "(define x (random-integer 5)) x (if (= x 1) (= (random-integer 3) 0) (= x 2))",
    "(define x (random-integer 1)) (define y (random-integer 3)) (list x y) (< y 1)",
    "(define x (random-integer 5)) w (if (null? (define w x)) #f (< x 3))",
    "(define random-integer (random-integer 3)) (define y (random-integer 2)) y (< y 1)",
    "(define x (random-integer 5)) (if (null? (define + 2)) x 0) (< x 2)",
    "(define x (random-integer 70)) (define y (random-integer 70)) (list x y) (< (+ x y) 9)",
    "(define x (random-integer 3)) (define y (random-integer 2)) x (> x 99)",
)


def _with_examples(*args):
    """Each of `_MEMO_EXAMPLES` as an explicit example, with `args` after it."""
    def add(test):
        for body in _MEMO_EXAMPLES:
            test = example(f"(rejection-query {body})", *args)(test)
        return test
    return add


@settings(max_examples=300, deadline=None)
@given(_literal_draw_queries(), st.integers(1, 8), st.integers(0, 2 ** 32),
       st.sampled_from((1, 40, 40, 400)))
@_with_examples(6, 11, 40)
def test_literal_draw_batches_sample_as_the_reference_walker_does(text, n, seed, limit):
    form = parse_one(text)
    for k in range(3):
        _batch_and_walker_agree(form, n, seed + k, limit)


def _counted_draws(monkeypatch):
    """The list to which every batch's `integer` draws append their n."""
    from problisp import inference

    draws = []

    class Counting(Draws):
        __slots__ = ()

        def integer(self, n, loc=None):
            draws.append(n)
            return super().integer(n, loc)

    monkeypatch.setattr(inference, "Draws", Counting)
    return draws


def test_a_memo_that_rejects_every_value_raises_the_full_exhaustion_at_once(monkeypatch):
    # once all 10 values of x are remembered as rejected, no attempt can be
    # accepted: the batch raises the error that 10**6 attempts reach, as when
    # they were all made, after a few dozen draws
    from problisp import Session

    draws = _counted_draws(monkeypatch)
    with pytest.raises(ExhaustionError) as exc:
        Session(seed=1, samples=5, rewrite=False).run_text(
            "(rejection-query (define x (random-integer 10)) x (= x 99))")
    assert str(exc.value) == ("line 1, column 1: sample 0: "
                              "no accepted sample after 1000000 attempts")
    assert exc.value.attempts == 10 ** 6
    assert exc.value.partial == SampleReport((), 10 ** 6, 0.0)
    assert 10 <= len(draws) < 100


@pytest.mark.parametrize("ny,remembered", [(64, True), (65, False)])
def test_the_memo_holds_at_most_4096_value_tuples(monkeypatch, ny, remembered):
    # 64 x 64 values fill the memo within 10**5 attempts and prove the
    # exhaustion early; 64 x 65 values take no memo, so every attempt draws
    draws = _counted_draws(monkeypatch)
    env = standard_env()
    spec = _spec(f"(rejection-query (define x (random-integer 64)) "
                 f"(define y (random-integer {ny})) x (> x 99))")
    with pytest.raises(ExhaustionError) as exc:
        run_samples(spec, 2, env, 4, _ctx(Draws(0), env, max_attempts=10 ** 5))
    assert exc.value.message == "sample 0: no accepted sample after 100000 attempts"
    assert (len(draws) < 2 * 10 ** 5) is remembered
    assert len(draws) <= 2 * 10 ** 5


def test_a_batch_without_the_standard_random_integer_runs_its_definitions():
    # the memo draws as the standard primitive does, so a global environment
    # whose random-integer is another value, or none, runs the definitions,
    # in a batch and in a single or nested query
    text = "(rejection-query (define x (random-integer 5)) x (< x 2))"
    for value in (None, 3):
        env = standard_env()
        del env["random-integer"]
        if value is not None:
            env["random-integer"] = value
        for run in (lambda: run_samples(_spec(text), 2, env, 1),
                    lambda: evaluate(parse_one(text), env, _ctx(Draws(1), env)),
                    lambda: evaluate(parse_one(f"(list {text})"), env, _ctx(Draws(1), env))):
            with pytest.raises(EvalError) as exc:
                run()
            assert exc.value.message == ("unbound symbol 'random-integer' (attempt 1)"
                                         if value is None else "not a function: 3 (attempt 1)")


def _run_from_seed(run, form, env, seed, limit):
    """What `run(form, env, ctx)` gives on a fresh `Draws(seed)`, its value or
    its error (class, message, location, attempts), and the draw object's
    state after it.  The state after an exhaustion is None: a memo that
    proves it makes none of the attempts left."""
    ctx = _ctx(Draws(seed), env, max_attempts=limit)
    try:
        outcome = format_value(run(form, env, ctx))
    except ProblispError as err:
        outcome = err.__class__, err.message, err.loc, getattr(err, "attempts", None)
        if err.__class__ is ExhaustionError:
            return outcome, None
    return outcome, draws_state(ctx.rng)


@settings(max_examples=200, deadline=None)
@given(_literal_draw_queries(), st.integers(0, 2 ** 32), st.sampled_from((1, 40, 40, 400)))
@_with_examples(11, 40)
def test_single_and_nested_literal_draw_queries_run_as_the_reference_walker_does(
        text, seed, limit):
    # a single query and one nested in a form take the memo through the same
    # loop as a batch, and draw and fail as the walker does
    import _reference_eval

    env = standard_env()
    for form in (parse_one(text), parse_one(f"(list {text})")):
        for k in range(3):
            assert (_run_from_seed(evaluate, form, env, seed + k, limit)
                    == _run_from_seed(_reference_eval.run, form, env, seed + k, limit))


def test_a_nested_query_that_rejects_every_value_raises_the_full_exhaustion_at_once(
        monkeypatch):
    # as a batch does, a nested query proves after a few dozen draws that
    # none of its 10**6 attempts can be accepted
    from problisp import inference

    draws = _counted_draws(monkeypatch)
    env = standard_env()
    form = parse_one("(list (rejection-query (define x (random-integer 10)) x (= x 99)))")
    with pytest.raises(ExhaustionError) as exc:
        evaluate(form, env, _ctx(inference.Draws(1), env))
    assert (exc.value.message, exc.value.attempts) == (
        "no accepted sample after 1000000 attempts", 10 ** 6)
    assert 10 <= len(draws) < 100


def test_a_query_without_a_draw_source_fails_at_its_draw():
    # on NO_SOURCE the memo stays off: the definition's draw reports the
    # error at its own location
    env = standard_env()
    text = "(rejection-query (define x (random-integer 10)) x (< x 3))"
    for prefix, suffix in (("", ""), ("(list ", ")")):
        with pytest.raises(EvalError) as exc:
            evaluate(parse_one(prefix + text + suffix), env, EvalContext(global_env=env))
        assert exc.value.message == "no random source available in this context (attempt 1)"
        column = len(prefix) + text.index("(random-integer") + 1
        assert (exc.value.loc.line, exc.value.loc.column) == (1, column)


@pytest.mark.parametrize("text,value", [
    ("(let ((random-integer (lambda (n) (+ 100 n)))) {})", 110),
    ("((lambda (random-integer) {}) (lambda (n) (- 0 n)))", -10),
])
def test_a_query_whose_random_integer_a_frame_around_it_binds_calls_that(text, value):
    # a `let` name or a `lambda` parameter named random-integer keeps the
    # memo off: the definition calls what the frame binds
    env = standard_env()
    form = parse_one(text.format("(rejection-query (define x (random-integer 10)) x #t)"))
    assert evaluate(form, env, _ctx(Draws(1), env)) == value


def test_a_nested_query_that_the_rules_pin_draws_only_its_other_definitions():
    # x is pinned to 5 by the rewrite; the pinned codes take no memo, so y
    # is the attempt's one draw, as a fresh stream's first integer(4)
    from problisp import Session, rules_path

    s = Session()
    s.load_file(rules_path())
    form = parse_one("(list (rejection-query (define x (random-integer 10))"
                     " (define y (random-integer 4)) (list x y) (= (+ x 5) 10)))")
    for seed in range(8):
        ctx = s._ctx()
        ctx.rng = Draws(seed)
        expected = f"((5 {Draws(seed).integer(4)}))"
        assert format_value(evaluate(form, s.env, ctx)) == expected
