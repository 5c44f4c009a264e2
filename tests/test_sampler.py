import math
import re

import pytest

from problisp import (NIL, BudgetError, ConceptError, EvalContext, EvalError, Pair,
                      SampleBudget, Session, evaluate, format_value, parse_one,
                      prelude_path, print_expr, sample_concept, standard_env)
from problisp.rng import NO_SOURCE, Draws


def _store_session(src, seed=11):
    s = Session(seed=seed)
    s.run_text(src)
    return s


def _ctx(store, rng, env):
    return EvalContext(rng=rng, store=store, global_env=env)


def _instantiate(text, ctx):
    """The template `text` instantiated as the language does it: sampled
    from a concept whose one is-a link it is, which makes no choice draw."""
    store = ctx.store
    template = store.declare_concept(f"template {len(store.concept_names())}")
    store.add_isa(parse_one(text), template)
    return sample_concept(template, ctx)


def seq_length(v):
    n = 0
    while isinstance(v, Pair):
        n += 1
        v = v.tail
    assert v is NIL
    return n


def test_single_link_concept_is_deterministic_passthrough():
    # a concept with one link makes no choice draw: its sample is the value
    # of its template, also where any draw would be an error
    s = _store_session("(concept only) (is-a pi only)")
    only = s.store.lookup("only")
    env = standard_env()
    direct = evaluate(parse_one("pi"), env, EvalContext(global_env=env))
    assert direct == math.pi
    for rng in (Draws(0), Draws(1), NO_SOURCE):
        assert sample_concept(only, _ctx(s.store, rng, env)) == direct


def test_number_model_probabilities(prelude_session):
    store = prelude_session.store
    number = prelude_session.store.lookup("number")
    env = prelude_session.env  # templates resolve helpers in session globals
    ctx = _ctx(store, Draws(2024), env)
    n = 20_000
    pi_count = int_count = 0
    for _ in range(n):
        v = sample_concept(number, ctx)
        if isinstance(v, int):
            int_count += 1
        elif v == math.pi:
            pi_count += 1
    sd_quarter = math.sqrt(0.25 * 0.75 / n)
    sd_half = math.sqrt(0.25 / n)
    assert abs(pi_count / n - 0.25) < 4 * sd_quarter
    assert abs(int_count / n - 0.5) < 4 * sd_half


def test_sequence_length_law(prelude_session):
    # P(length = k) = 2^-(k+1): each level is an even stop/recurse coin
    store = prelude_session.store
    seq = prelude_session.store.lookup("sequence")
    env = prelude_session.env
    ctx = _ctx(store, Draws(515), env)
    n = 20_000
    counts = {}
    for _ in range(n):
        k = seq_length(sample_concept(seq, ctx))
        counts[k] = counts.get(k, 0) + 1
    for k in range(4):
        p = 2.0 ** -(k + 1)
        sd = math.sqrt(p * (1 - p) / n)
        assert abs(counts.get(k, 0) / n - p) < 4 * sd


def test_multinomial_weight_frequencies():
    s = _store_session("""
    (concept pick)
    (is-a 10 pick 1)
    (is-a 20 pick 2)
    (is-a 30 pick 3)
    """)
    store = s.store
    pick = s.store.lookup("pick")
    ctx = _ctx(store, Draws(77), standard_env())
    n = 30_000
    counts = {10: 0, 20: 0, 30: 0}
    for _ in range(n):
        counts[sample_concept(pick, ctx)] += 1
    for value, w in ((10, 1), (20, 2), (30, 3)):
        p = w / 6
        sd = math.sqrt(p * (1 - p) / n)
        assert abs(counts[value] / n - p) < 4 * sd


def test_two_occurrence_template_frequencies():
    # the occurrences of `(list die coin)` are independent draws: each joint
    # value's frequency is the product of the two marginals
    s = _store_session("""
    (concept die)
    (is-a 1 die 1)
    (is-a 2 die 1)
    (is-a 3 die 2)
    (concept coin)
    (is-a #t coin 1)
    (is-a #f coin 3)
    (concept roll)
    (is-a (list die coin) roll)
    """)
    ctx = _ctx(s.store, Draws(78), standard_env())
    n = 30_000
    counts = {}
    for _ in range(n):
        v = format_value(sample_concept(s.store.lookup("roll"), ctx))
        counts[v] = counts.get(v, 0) + 1
    die = {1: 1 / 4, 2: 1 / 4, 3: 2 / 4}
    coin = {"#t": 1 / 4, "#f": 3 / 4}
    assert len(counts) == 6
    for d, pd in die.items():
        for c, pc in coin.items():
            p = pd * pc
            sd = math.sqrt(p * (1 - p) / n)
            assert abs(counts.get(f"({d} {c})", 0) / n - p) < 4 * sd, (d, c)


def test_leftmost_failing_occurrence_reports_its_error():
    # occurrences are drawn left to right, so `a`'s error is the one raised
    # whatever the seed
    src = """(concept a) (concept b) (concept t)
(is-a (first 1) a)
(is-a (rest 2) b)
(is-a (list a b) t)"""
    for seed in range(1, 7):
        s = _store_session(src, seed)
        with pytest.raises(EvalError, match="first expects a pair") as exc:
            s.run_text("(sample t)")
        assert (exc.value.loc.line, exc.value.loc.column) == (2, 7), seed


def test_weight_scale_invariance_exact():
    base = """
    (concept pick)
    (is-a 10 pick {a})
    (is-a 20 pick {b})
    (is-a 30 pick {c})
    """
    draws = {}
    for tag, (a, b, c) in (("w1", (1, 2, 3)), ("w2", (2, 4, 6))):
        s = _store_session(base.format(a=a, b=b, c=c))
        store = s.store
        pick = s.store.lookup("pick")
        ctx = _ctx(store, Draws(9), standard_env())
        draws[tag] = [sample_concept(pick, ctx) for _ in range(2_000)]
    assert draws["w1"] == draws["w2"]


def test_instantiate_cons_template(prelude_session):
    store = prelude_session.store
    env = prelude_session.env
    v = _instantiate("(cons number sequence)", _ctx(store, Draws(4), env))
    assert isinstance(v, Pair)


def test_multiple_occurrences_are_independent():
    s = _store_session("(concept coin) (is-a (random-integer 1000000) coin)")
    store = s.store
    env = standard_env()
    v = _instantiate("(list coin coin)", _ctx(store, Draws(31), env))
    assert v.head != v.tail.head  # two draws, not one shared value


def test_quote_and_binders_shield_concept_symbols(prelude_session):
    store = prelude_session.store
    env = standard_env()
    from problisp.sexpr import Symbol

    v = _instantiate("(quote number)", _ctx(store, Draws(0), env))
    assert v == Symbol("number")
    v = _instantiate("((lambda (number) number) 5)", _ctx(store, Draws(0), env))
    assert v == 5
    v = _instantiate("(let ((number 5)) number)", _ctx(store, Draws(0), env))
    assert v == 5
    # a let binding's value sits outside the let's scope, so it is a draw
    v = _instantiate("(let ((x number)) x)", _ctx(store, Draws(0), prelude_session.env))
    assert isinstance(v, (int, float)) and not isinstance(v, bool)


def test_sample_form_and_define_prior(prelude_session):
    results = prelude_session.run_text("""
    (sample number)
    (rejection-query (define x (sample integer)) x #t)
    """)
    assert results[0].kind == "value"
    assert isinstance(results[1].report.samples[0], int)


def test_sample_unknown_concept(session):
    with pytest.raises(ConceptError, match="unknown concept 'undeclared'"):
        session.run_text("(sample undeclared)")


def test_sample_concept_through_variable(prelude_session):
    r = prelude_session.run_text("(define c integer) (sample c)")[-1]
    assert isinstance(r.value, int)


def test_a_sample_compiled_before_its_concept_finds_it_once_declared(session):
    text = "(define f (lambda () (sample c)))"
    session.run_text(text)
    for _ in range(2):
        with pytest.raises(ConceptError, match="unknown concept 'c'") as exc:
            session.run_text("(f)")
        assert (exc.value.loc.line, exc.value.loc.column) == (1, text.index("c)") + 1)
    session.run_text("(concept c) (is-a 7 c)")
    assert [r.value for r in session.run_text("(f) (f)")] == [7, 7]


def test_a_global_defined_after_a_sample_was_compiled_wins(session):
    session.run_text("(concept c) (is-a 7 c) (define f (lambda () (sample c)))")
    assert session.run_text("(f)")[0].value == 7
    session.run_text("(define c 5)")
    with pytest.raises(ConceptError, match="sample expects a concept, got 5"):
        session.run_text("(f)")


def test_one_compiled_sample_runs_under_each_contexts_store():
    from problisp import ConceptStore
    from problisp.evaluator import compile_forms

    env = standard_env()
    (code,), _ = compile_forms((parse_one("(sample c)"),), env)
    runs = [(None, None), (ConceptStore(), None)]   # (store, value), None for the error
    for value, before in ((1, ()), (2, ("b",)), (3, ("a", "b"))):
        store = ConceptStore()
        for name in before:   # so that c's handle differs from store to store
            store.declare_concept(name)
        store.add_isa(parse_one(str(value)), store.declare_concept("c"))
        runs.append((store, value))
    for store, value in runs + runs[::-1]:
        if value is None:
            with pytest.raises(ConceptError, match="unknown concept 'c'"):
                code(env, _ctx(store, Draws(1), env))
        else:
            assert code(env, _ctx(store, Draws(1), env)) == value


def test_a_template_runs_as_compiled_for_the_contexts_globals():
    from problisp import ConceptStore

    store = ConceptStore()
    store.add_isa(parse_one("(+ k 1)"), store.declare_concept("t"))
    envs = {}
    for k in (1, 10):
        env = envs[k] = standard_env()
        env["k"] = k
    for k in (1, 10, 10, 1):
        assert sample_concept(store.lookup("t"), _ctx(store, Draws(1), envs[k])) == k + 1


def test_sample_of_an_expression_samples_the_concept_it_gives(session):
    session.run_text("(concept c) (concept d) (is-a 7 c)")
    assert session.run_text("(sample (if #t c d))")[0].value == 7


def test_concept_with_no_links_errors(session):
    session.run_text("(concept empty)")
    with pytest.raises(ConceptError, match="no generative model for concept 'empty'"):
        session.run_text("(sample empty)")


def test_depth_budget_aborts_rigged_recursion():
    s = _store_session("""
    (concept item)
    (is-a 0 item)
    (concept chain)
    (is-a null chain 1)
    (is-a (cons item chain) chain 1000000)
    """)
    with pytest.raises(BudgetError, match="did not terminate within budget"):
        s.run_text("(sample chain)")


def test_node_budget_aborts_supercritical_branching():
    s = _store_session("""
    (concept tree)
    (is-a 1 tree 1)
    (is-a (list tree tree tree) tree 2)
    """)
    # the tree dies out with probability (sqrt(3) - 1) / 2, about 0.37: each
    # seed either returns within the budget or aborts at its first node past
    # it, and some seed aborts
    tree = s.store.lookup("tree")
    env = standard_env()
    aborted = 0
    for seed in range(10):
        budget = SampleBudget(max_depth=10 ** 6, max_nodes=500)
        try:
            sample_concept(tree, _ctx(s.store, Draws(seed), env), budget)
        except BudgetError:
            aborted += 1
            assert budget.nodes_expanded == 501, seed
        else:
            assert budget.nodes_expanded <= 500, seed
    assert aborted


def test_each_budget_allows_its_cap_and_stops_the_first_expansion_past_it():
    s = _store_session("(concept d0) (is-a 0 d0) (concept d1) (is-a d0 d1) "
                       "(concept d2) (is-a d1 d2)")
    top, env = s.store.lookup("d2"), standard_env()   # expanded at depths 0, 1 and 2
    budget = SampleBudget(max_depth=2, max_nodes=3)
    assert sample_concept(top, _ctx(s.store, Draws(0), env), budget) == 0
    assert budget.nodes_expanded == 3
    for budget, at in ((SampleBudget(max_depth=1), "depth 2/1, nodes 3/10000"),
                       (SampleBudget(max_nodes=2), "depth 2/64, nodes 3/2")):
        with pytest.raises(BudgetError, match=re.escape(f"({at})")):
            sample_concept(top, _ctx(s.store, Draws(0), env), budget)
        assert budget.nodes_expanded == 3


def test_explicit_sample_in_template_shares_budget():
    # mutual recursion through an explicit (sample ...) call must still abort
    s = _store_session("""
    (concept a)
    (concept b)
    (is-a (cons 1 (sample b)) a)
    (is-a (cons 2 (sample a)) b)
    """)
    with pytest.raises(BudgetError):
        s.run_text("(sample a)")


def _count_template_compiles(monkeypatch):
    """The templates the sampler compiles from now on, in order."""
    import problisp.sampler as sampler

    walked = []
    compile_forms = sampler.compile_forms

    def counting(forms, env, slot=None):
        walked.extend(forms)
        return compile_forms(forms, env, slot)

    monkeypatch.setattr(sampler, "compile_forms", counting)
    return walked


def test_templates_compile_once_per_snapshot(prelude_session, monkeypatch):
    # each template was compiled at its `is-a`, so sampling compiles none
    walked = _count_template_compiles(monkeypatch)
    store = prelude_session.store
    ctx = _ctx(store, Draws(77), prelude_session.env)
    for _ in range(200):
        sample_concept(store.lookup("integer"), ctx)
        sample_concept(store.lookup("sequence"), ctx)
        sample_concept(store.lookup("number"), ctx)
    assert walked == []


def test_each_prelude_template_compiles_once(monkeypatch):
    # integer, (normal 0 1), pi, null, (cons number sequence): each once, at
    # its `is-a`, and the samples after the prelude reuse that code
    walked = _count_template_compiles(monkeypatch)
    s = Session(seed=3)
    s.load_file(prelude_path())
    s.run_text("(sample sequence) (sample number) (sample integer)")
    assert len(walked) == 5
    assert len({id(expr) for expr in walked}) == 5


def test_concept_symbols_in_a_template_query_are_draws():
    # a query inside a template is compiled with the template; its concept
    # occurrences must still read the instantiation's draws
    s = _store_session("""
        (concept coin) (is-a #t coin) (is-a #f coin 3)
        (concept pair) (is-a (rejection-query (list coin coin) #t) pair)""")
    for _ in range(20):
        v = s.eval_form(parse_one("(sample pair)")).value
        assert v.head in (True, False) and v.tail.head in (True, False)


def test_templates_compile_once_across_forms(prelude_session, monkeypatch):
    # a template compiled at its `is-a` serves every (sample ...) form
    walked = _count_template_compiles(monkeypatch)
    results = prelude_session.run_text("(sample integer) " * 20)
    assert all(isinstance(r.value, int) for r in results)
    assert walked == []


def test_new_links_keep_the_compiled_templates(prelude_session, monkeypatch):
    # only a `concept` form drops the compiled templates: a new link's
    # template compiles once, at its `is-a`
    walked = _count_template_compiles(monkeypatch)
    forms = prelude_session.run_text(
        "(is-a 100 integer)" + " (sample number) (sample sequence)" * 10)
    assert [print_expr(e) for e in walked] == ["100"]
    assert 100 in {r.value for r in forms[1:]}


def test_declaring_a_concept_recompiles_the_templates(session, monkeypatch):
    # `g` reads the global until a concept of that name makes it a draw
    session.run_text("(define g 5) (concept t) (is-a (list g) t)")
    assert format_value(session.run_text("(sample t)")[-1].value) == "(5)"
    walked = _count_template_compiles(monkeypatch)
    session.run_text("(concept g) (is-a 7 g)")
    results = session.run_text("(sample t) " * 5)
    assert {format_value(r.value) for r in results} == {"(7)"}
    # `7` at its `is-a`, then `(list g)` once, at the first sample after
    assert [print_expr(e) for e in walked] == ["7", "(list g)"]


def test_a_link_added_between_samples_is_seen():
    s = _store_session("(concept pick) (is-a 1 pick)")
    first, _, *later = s.run_text("(sample pick) (is-a 2 pick 1000000) "
                                  + "(sample pick) " * 20)
    assert first.value == 1
    assert 2 in {r.value for r in later}


def test_sampling_with_no_random_source_is_an_error():
    s = _store_session("(concept pick) (is-a 1 pick) (is-a 2 pick)")
    store = s.store
    with pytest.raises(EvalError, match="no random source available for sampling"):
        sample_concept(s.store.lookup("pick"), _ctx(store, NO_SOURCE, s.env))
    with pytest.raises(EvalError, match="no random source available for sampling"):
        _instantiate("(list pick pick)", _ctx(store, NO_SOURCE, s.env))
