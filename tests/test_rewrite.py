import random
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from problisp import (Env, EvalContext, ExhaustionError, ProblispError, QuerySpec, RuleError,
                      Session,
                      ZeroProbabilityError, constant_fold, evaluate, match,
                      optimize_query_detail, parse_one,
                      print_expr, rewrite, rule_from_form, rules_path,
                      solve_condition, standard_env, substitute)
from problisp.rng import Draws
from problisp.sexpr import Boolean, Integer, Real, SList, Symbol

import _solver_reference as reference
from _lang import eval_condition, satisfaction_set


def _default_rules():
    s = Session(seed=0)
    s.load_file(rules_path())
    return tuple(s.rules)


RULES = _default_rules()


# -- match / substitute -------------------------------------------------------


def test_match_paper_example():
    b = match(parse_one("(= (+ $A $B) $C)"), parse_one("(= (+ x 5) 10)"))
    assert b == {"$A": Symbol("x"), "$B": Integer(5), "$C": Integer(10)}


def test_match_universal_variable():
    for src in ("x", "5", "(a (b c))"):
        expr = parse_one(src)
        assert match(parse_one("$A"), expr) == {"$A": expr}


def test_match_nonlinear():
    pattern = parse_one("(+ $A $A)")
    assert match(pattern, parse_one("(+ 2 3)")) is None
    assert match(pattern, parse_one("(+ 2 2)")) == {"$A": Integer(2)}


def test_match_failures():
    assert match(parse_one("(f $A)"), parse_one("(g 1)")) is None
    assert match(parse_one("(f $A)"), parse_one("(f 1 2)")) is None
    assert match(parse_one("5"), parse_one("5.0")) is None  # syntactic, not numeric


def test_substitute_paper_example():
    b = {"$A": Symbol("x"), "$B": Integer(5), "$C": Integer(10)}
    out = substitute(parse_one("(= $A (- $C $B))"), b)
    assert print_expr(out) == "(= x (- 10 5))"


def test_substitute_variable_free_template():
    t = parse_one("(+ 1 2)")
    assert substitute(t, {}) == t


def test_substitute_unbound_variable_errors():
    with pytest.raises(RuleError, match=r"\$B"):
        substitute(parse_one("(+ $A $B)"), {"$A": Integer(1)})


def test_match_substitute_roundtrip_random():
    # substitute(p, match(p, e)) == e whenever the match succeeds
    rnd = random.Random(42)
    leaves = ["$A", "$B", "$C", "x", "y", "1", "2.5", "#t"]
    for _ in range(500):
        pattern = _random_tree(rnd, leaves, depth=3)
        bindings = {v: parse_one(rnd.choice(["7", "(g 1)", "z", "#f"]))
                    for v in _vars_of(pattern)}
        expr = substitute(pattern, bindings)
        recovered = match(pattern, expr)
        assert recovered == bindings
        assert substitute(pattern, recovered) == expr


def _vars_of(expr):
    out = set()

    def walk(e):
        if e.__class__ is Symbol and e.name.startswith("$"):
            out.add(e.name)
        elif e.__class__ is SList:
            for i in e.items:
                walk(i)

    walk(expr)
    return out


def _random_tree(rnd, leaves, depth):
    if depth == 0 or rnd.random() < 0.3:
        return parse_one(rnd.choice(leaves))
    return SList(tuple([parse_one(rnd.choice(["f", "g", "+", "="]))]
                       + [_random_tree(rnd, leaves, depth - 1)
                          for _ in range(rnd.randint(1, 3))]))


# -- constant folding ----------------------------------------------------------


def test_fold_paper_example():
    assert print_expr(constant_fold(parse_one("(= x (- 10 5))"))) == "(= x 5)"


def test_fold_leaves_nonground_untouched():
    e = parse_one("(= x y)")
    assert constant_fold(e) == e


def test_fold_nested_and_comparisons():
    assert print_expr(constant_fold(parse_one("(+ (* 2 3) (- 8 2))"))) == "12"
    assert print_expr(constant_fold(parse_one("(< 1 2)"))) == "#t"
    assert print_expr(constant_fold(parse_one("(f (+ 1 2))"))) == "(f 3)"


def test_fold_unary_minus():
    assert print_expr(constant_fold(parse_one("(- 3)"))) == "-3"
    assert print_expr(constant_fold(parse_one("(+ x (- 3))"))) == "(+ x -3)"
    e = parse_one("(= 5)")  # the evaluator's `=` needs two arguments
    assert constant_fold(e) == e


def test_fold_illtyped_ground_left_unfolded():
    e = parse_one("(+ 1 #t)")
    assert constant_fold(e) == e
    e = parse_one('(- "a" 1)')
    assert constant_fold(e) == e


def test_fold_leaves_an_overflowing_subexpression_unfolded():
    big = 10 ** 400
    for text in (f"(+ {big} 1.5)", f"(- 0.5 {big})", f"(* 1.5 {big} 2)"):
        e = parse_one(text)
        assert constant_fold(e) == e
    # the rest of the condition still folds around it
    e = parse_one(f"(= (+ x (+ {big} 1.5)) (- 10 5))")
    assert print_expr(constant_fold(e)) == f"(= (+ x (+ {big} 1.5)) 5)"


def test_fold_matches_evaluator_on_random_ground_trees():
    rnd = random.Random(7)
    env = standard_env()
    ctx = EvalContext()
    for _ in range(300):
        expr = _ground_tree(rnd, depth=3)
        folded = constant_fold(expr)
        value = evaluate(expr, env, ctx)
        assert folded.__class__ in (Integer, Real, Boolean)
        assert folded.value == value
        assert type(folded.value) is type(value)


def test_fold_leaves_a_non_finite_value_unfolded():
    for text in ("(* 1e300 1e300)", "(- -1e300 1e308 1e308)", "(* 1e300 1e300 0)"):
        e = parse_one(text)
        assert constant_fold(e) == e
    e = parse_one("(= (+ x (* 1e300 1e300)) (- 10 5))")
    assert print_expr(constant_fold(e)) == "(= (+ x (* 1e+300 1e+300)) 5)"


def test_folded_trees_print_and_read_back():
    # the printer's round trip holds for folded trees: every folded literal
    # is one the reader can read, even where the arithmetic overflows a real
    rnd = random.Random(11)
    for _ in range(400):
        expr = SList((Symbol("="), Symbol("x"), _ground_tree(rnd, depth=3, big=True)))
        folded = constant_fold(expr)
        assert parse_one(print_expr(folded)) == folded


def _ground_tree(rnd, depth, big=False):
    if big and rnd.random() < 0.3:
        return Real(rnd.choice([1e300, -1e300, 3.5e299, 1e-300]))
    if depth == 0 or rnd.random() < 0.35:
        if rnd.random() < 0.8:
            return Integer(rnd.randint(-9, 9))
        return Real(round(rnd.uniform(-4, 4), 2))
    op = rnd.choice(["+", "-", "*"])
    args = [_ground_tree(rnd, depth - 1, big) for _ in range(rnd.randint(2, 3))]
    return SList(tuple([Symbol(op)] + args))


# -- rule loading --------------------------------------------------------------


def test_rule_from_form_named_and_unnamed():
    rule = rule_from_form(parse_one("(equivalence r (= $A $B) (= $B $A))"))
    assert rule.name == "r" and rule.kind == "equivalence"
    rule = rule_from_form(parse_one("(implication (f $A $B) (g $A))"),
                          default_name="rule-9")
    assert rule.name == "rule-9" and rule.kind == "implication"


def test_rule_free_rhs_variable_rejected():
    with pytest.raises(RuleError, match=r"bad.*\$C"):
        rule_from_form(parse_one("(implication bad (f $A) (g $A $C))"))


def test_equivalence_must_be_reversible():
    with pytest.raises(RuleError, match="not reversible"):
        rule_from_form(parse_one("(equivalence drop (f $A $B) (g $A))"))


def test_default_rule_file_contents():
    assert [r.name for r in RULES] == [
        "isolate-add-left", "isolate-add-right",
        "isolate-sub-left", "isolate-sub-right"]
    assert all(r.kind == "equivalence" for r in RULES)


def test_malformed_rule_file_reports_name_and_location():
    s = Session(seed=0)
    with pytest.raises(RuleError) as exc:
        s.run_text("\n(equivalence broken (f $A) (f $A $B))")
    assert "broken" in str(exc.value)
    assert exc.value.loc.line == 2


# -- condition solving ----------------------------------------------------------


def chain(result):
    return [print_expr(c) for c in result.trace]


def _solve_counting(cond, target, rules=RULES):
    """solve_condition, plus the number of rule applications it kept."""
    steps = []
    find_step = rewrite._find_step

    def counting(*args):
        step = find_step(*args)
        if step is not None:
            steps.append(step)
        return step

    with mock.patch.object(rewrite, "_find_step", counting):
        result = solve_condition(cond, target, rules)
    return result, len(steps)


def test_solve_paper_chain():
    result = solve_condition(parse_one("(= (+ x 5) 10)"), "x", RULES)
    assert result.solved
    assert chain(result) == ["(= (+ x 5) 10)", "(= x (- 10 5))", "(= x 5)"]
    assert print_expr(result.condition) == "(= x 5)"


def test_solve_already_solved_zero_steps():
    cond = parse_one("(= x 7)")
    result = solve_condition(cond, "x", RULES)
    assert result.solved
    assert result.condition == cond
    assert result.trace == (cond,)


def test_solve_two_step():
    cond = parse_one("(= (+ (+ x 2) 3) 10)")
    result = solve_condition(cond, "x", RULES)
    assert result.solved
    assert print_expr(result.condition) == "(= x 5)"
    # oracle: satisfaction sets over the prior support agree
    assert satisfaction_set(cond, {"x": 10}) == \
        satisfaction_set(result.condition, {"x": 10})


def test_solve_subtraction_shapes():
    for src, expected in [
        ("(= (- x 4) 6)", "(= x 10)"),
        ("(= (- 9 x) 2)", "(= x 7)"),
        ("(= 8 (+ 3 x))", "(= x 5)"),        # target only on the right
        ("(= x (* 2 5))", "(= x 10)"),       # ground side folds to a literal
        ("(= (* 2 4) (+ 3 x))", "(= x 5)"),  # both at once
    ]:
        result = solve_condition(parse_one(src), "x", RULES)
        assert result.solved, src
        assert print_expr(result.condition) == expected
        assert satisfaction_set(src, {"x": 12}) == \
            satisfaction_set(result.condition, {"x": 12})


def test_solve_through_unary_minus():
    # a folded unary minus no longer blocks solving
    for src, expected, root in [
        ("(= (+ x (- 3)) 2)", "(= x 5)", 5),
        ("(= x (- 5))", "(= x -5)", -5),
    ]:
        result = solve_condition(parse_one(src), "x", RULES)
        assert result.solved, src
        assert print_expr(result.condition) == expected
        assert satisfaction_set(src, {"x": 12}) == \
            satisfaction_set(result.condition, {"x": 12})
        for cond in (parse_one(src), result.condition):
            assert eval_condition(cond, {"x": root}) is True


def test_solve_uses_right_to_left_when_needed():
    # the target starts on the ground side; the start state swaps the sides
    cond = parse_one("(= (- 10 2) (+ x 3))")
    result = solve_condition(cond, "x", RULES)
    assert result.solved
    assert print_expr(result.condition) == "(= x 5)"
    assert satisfaction_set(cond, {"x": 10}) == \
        satisfaction_set(result.condition, {"x": 10})
    # with only the reversed add rule, just its right-to-left use helps
    reversed_add = rule_from_form(
        parse_one("(equivalence (= $A (- $C $B)) (= (+ $A $B) $C))"))
    result = solve_condition(parse_one("(= (+ x 3) 8)"), "x", (reversed_add,))
    assert result.solved
    assert chain(result) == ["(= (+ x 3) 8)", "(= x (- 8 3))", "(= x 5)"]


def test_solve_failure_returns_original():
    cond = parse_one("(< x 5)")
    result = solve_condition(cond, "x", RULES)
    assert not result.solved
    assert result.condition == cond

    cond = parse_one("(= (+ x y) 10)")  # two unknowns: no ground side
    result = solve_condition(cond, "x", RULES)
    assert not result.solved
    assert result.condition == cond


def test_solve_steps_bounded_by_target_depth():
    # every kept rewrite lowers the target's depth by at least one
    result, steps = _solve_counting(parse_one("(= (+ (+ (+ x 1) 2) 3) 10)"), "x")
    assert result.solved and steps == 3
    assert print_expr(result.condition) == "(= x 4)"
    # no ground side: one step reaches depth 1, and nothing lowers it further
    result = solve_condition(parse_one("(= (+ x y) 7)"), "x", RULES)
    assert not result.solved
    assert chain(result) == ["(= (+ x y) 7)", "(= x (- 7 y))"]


def test_solve_builds_only_the_accepted_step(monkeypatch):
    # (= x (- 7 y)) has the target at depth 1, so no template can lower it:
    # the one substitution into a rule's template is the accepted first step
    templates = []
    substitute = rewrite.substitute

    def counting(template, bindings):
        templates.append(template)   # and each part of it, as it recurses
        return substitute(template, bindings)

    monkeypatch.setattr(rewrite, "substitute", counting)
    result = solve_condition(parse_one("(= (+ x y) 7)"), "x", RULES)
    assert chain(result) == ["(= (+ x y) 7)", "(= x (- 7 y))"]
    sides = [side for rule in RULES for side in (rule.lhs, rule.rhs)]
    assert [print_expr(t) for t in templates
            if any(t is side for side in sides)] == ["(= $A (- $C $B))"]


_INTS = st.integers(-6, 6).map(Integer)
_REALS = st.floats(-6, 6).map(lambda v: Real(round(v, 1)))


def _op(op, a, b):
    return SList((Symbol(op), a, b))


def _tree(leaves):
    return st.recursive(
        leaves, lambda sub: st.builds(_op, st.sampled_from("+-*"), sub, sub),
        max_leaves=4)


def _spine(steps):
    expr = Symbol("x")
    for op, other, x_left in steps:
        expr = _op(op, expr, other) if x_left else _op(op, other, expr)
    return expr


def _conditions(literals):
    """(= A B) over + - *, x, y and `literals`.  Mostly one x under a spine of
    operators, on either side; otherwise x anywhere, possibly on both sides."""
    y = st.just(Symbol("y"))
    rare_y = st.builds(lambda lit, use_y: Symbol("y") if use_y else lit,
                       literals, st.sampled_from([False] * 5 + [True]))
    other = _tree(rare_y)
    spine = st.lists(st.tuples(st.sampled_from("+-*"), other, st.booleans()),
                     max_size=4).map(_spine)
    one_x = st.builds(lambda t, o, x_left: _op("=", t, o) if x_left else _op("=", o, t),
                      spine, other, st.booleans())
    anywhere = _tree(st.one_of(literals, st.just(Symbol("x")), y))
    return st.one_of(one_x, one_x, one_x, st.builds(_op, st.just("="), anywhere, anywhere))


@settings(max_examples=300, deadline=None)
@given(_conditions(st.one_of(_INTS, _REALS)))
def test_solve_ends_within_target_depth_steps(cond):
    depth = rewrite._var_depth(cond, "x")
    assume(depth is not None)
    _, steps = _solve_counting(cond, "x")
    assert steps <= depth


@settings(max_examples=150, deadline=None)
@given(_conditions(_INTS))
def test_solve_sound_on_integer_conditions(cond):
    """Solving and zero-probability claims agree with brute force.  Integer
    literals only: with Real literals float rounding can still make the
    optimizer claim a false zero probability (ROADMAP item 1, open)."""
    assume(rewrite._var_depth(cond, "x") is not None)
    supports = {"x": 5, "y": 5}
    expected = satisfaction_set(cond, supports)
    result = solve_condition(cond, "x", RULES)
    if result.solved:
        assert satisfaction_set(result.condition, supports) == expected
    spec = QuerySpec((parse_one("(define x (random-integer 5))"),
                      parse_one("(define y (random-integer 5))")),
                     Symbol("x"), cond)
    try:
        optimize_query_detail(spec, RULES).spec
    except ZeroProbabilityError:
        assert expected == frozenset()


# Rules that reach the solver's special cases: a repeated variable, literal
# patterns, a non-`=` head, a variable head, a bare `$A` pattern, and templates
# that name a target as a plain symbol, so they must be tried where the target
# is not.
_SPECIAL_RULES = tuple(rule_from_form(parse_one(src)) for src in (
    "(equivalence (+ $A $A) (* 2 $A))",
    "(implication (* $A 1) $A)",
    "(equivalence (= (+ $A 0) $B) (= $A $B))",
    "(equivalence (< (+ $A $B) $C) (< $A (- $C $B)))",
    "(implication $A (= $A #t))",
    "(implication (* $A $B) x)",
    "(equivalence (= (* $A $B) $C) (= $A (- $C y $B)))",
    "(equivalence (f $A) (g x $A))",
    "(equivalence ($R (+ $A $B) $C) ($R $A (- $C $B)))",
))

_OPS = ["=", "<", "+", "-", "*"]


def _pattern(leaves, heads):
    return st.one_of(leaves, st.builds(_op, st.sampled_from(heads),
                                       _tree(leaves), _tree(leaves)))


@st.composite
def _random_rule(draw):
    """A valid rule over + - * = < and a variable head $R, with $A $B $C,
    literals and x, y."""
    lhs = draw(_pattern(st.sampled_from(["$A", "$B", "$C", "$A", "0", "1", "x", "y"])
                        .map(parse_one), _OPS + ["$R"]))
    names = sorted(_vars_of(lhs))
    rhs = draw(_pattern(st.sampled_from(names + ["0", "1", "x", "y"]).map(parse_one),
                        _OPS + [n for n in names if n == "$R"]))
    kind = "implication"
    if _vars_of(rhs) == set(names) and draw(st.booleans()):
        kind = "equivalence"
    return rule_from_form(SList((Symbol(kind), lhs, rhs)))


_RULE_SETS = st.lists(st.one_of(st.sampled_from(RULES + _SPECIAL_RULES), _random_rule()),
                      min_size=1, max_size=6).map(tuple)
_ANY_CONDITION = _conditions(st.one_of(_INTS, _REALS))
# the same conditions, sometimes under a `<` instead of the `=`
_ROOTED_CONDITION = st.one_of(_ANY_CONDITION, _ANY_CONDITION.map(
    lambda c: SList((Symbol("<"),) + c.items[1:])))


def _outcome(solve, cond, target, rules):
    try:
        result = solve(cond, target, rules)
    except Exception as err:  # both sides must fail alike
        return type(err), str(err)
    return result.solved, result.condition, result.trace


def _assert_solves_like_reference(cond, rules):
    for target in ("x", "y"):
        assert (_outcome(solve_condition, cond, target, rules)
                == _outcome(reference.solve_condition, cond, target, rules)), target


@settings(max_examples=300, deadline=None)
@given(_ANY_CONDITION)
def test_solve_equals_reference_with_shipped_rules(cond):
    _assert_solves_like_reference(cond, RULES)


@settings(max_examples=400, deadline=None)
@given(_ROOTED_CONDITION, _RULE_SETS)
def test_solve_equals_reference_with_generated_rules(cond, rules):
    _assert_solves_like_reference(cond, rules)


def test_template_that_names_the_target_is_tried_off_its_path():
    # (+ y 3) does not hold x, but rewriting it to x lowers x's depth
    cond = parse_one("(= (* x 2) (+ y 3))")
    rules = (rule_from_form(parse_one("(implication (+ $A $B) x)")),)
    result = solve_condition(cond, "x", rules)
    assert chain(result)[:2] == ["(= (* x 2) (+ y 3))", "(= (* x 2) x)"]
    _assert_solves_like_reference(cond, rules)


def test_rule_with_a_variable_head_is_tried():
    cond = parse_one("(= (+ x 5) 10)")
    rules = (rule_from_form(parse_one("(equivalence ($R (+ $A $B) $C) ($R $A (- $C $B)))")),)
    result = solve_condition(cond, "x", rules)
    assert result.solved and chain(result)[-1] == "(= x 5)"
    _assert_solves_like_reference(cond, rules)


def test_solve_missing_target_is_failure():
    cond = parse_one("(= (+ y 5) 10)")
    result = solve_condition(cond, "x", RULES)
    assert not result.solved


# -- query optimization -----------------------------------------------------------


def _spec(src):
    return QuerySpec.from_form(parse_one(src))


PAPER_QUERY = "(rejection-query (define x (random-integer 10)) x (= (+ x 5) 10))"


def test_optimize_paper_query():
    outcome = optimize_query_detail(_spec(PAPER_QUERY), RULES)
    assert outcome.fired and outcome.target == "x"
    assert [print_expr(c) for c in outcome.chain] == \
        ["(= (+ x 5) 10)", "(= x (- 10 5))", "(= x 5)"]
    assert print_expr(outcome.definition) == "(define x 5)"
    assert outcome.spec.condition == Boolean(True)
    assert print_expr(outcome.spec.definitions[0]) == "(define x 5)"


def test_optimize_keeps_the_condition_when_the_rules_hold_an_implication():
    implication = rule_from_form(
        parse_one("(implication (= (list $A $B) (list $C $D)) (= $A $C))"))
    spec = _spec("(rejection-query (define x (random-integer 10)) (define y (random-integer 10))"
                 " (list x y) (= (list x y) (list 5 3)))")
    outcome = optimize_query_detail(spec, (implication,))
    assert print_expr(outcome.definition) == "(define x 5)"
    assert outcome.spec.condition is spec.condition
    # one implication in the set keeps the condition, even where the
    # equivalences alone solved it
    outcome = optimize_query_detail(_spec(PAPER_QUERY), RULES + (implication,))
    assert print_expr(outcome.definition) == "(define x 5)"
    assert print_expr(outcome.spec.condition) == "(= (+ x 5) 10)"


def test_optimize_vacuous_condition_unchanged():
    spec = _spec("(rejection-query (define x (random-integer 10)) x #t)")
    assert optimize_query_detail(spec, RULES).spec is spec


def test_optimize_zero_probability():
    spec = _spec("(rejection-query (define x (random-integer 10)) x (= (+ x 5) 100))")
    with pytest.raises(ZeroProbabilityError, match="x = 95"):
        optimize_query_detail(spec, RULES).spec
    # oracle: brute force finds no satisfying value in {0..9}
    assert satisfaction_set("(= (+ x 5) 100)", {"x": 10}) == frozenset()


def test_optimize_non_integral_solution_is_zero_probability():
    spec = _spec("(rejection-query (define x (random-integer 10)) x (= (+ x 0.5) 3))")
    with pytest.raises(ZeroProbabilityError):
        optimize_query_detail(spec, RULES).spec


def test_optimize_skips_continuous_and_concept_priors():
    spec = _spec("(rejection-query (define x (normal 0 1)) x (= (+ x 5) 10))")
    assert optimize_query_detail(spec, RULES).spec is spec
    spec = _spec("(rejection-query (define x (sample integer)) x (= (+ x 5) 10))")
    assert optimize_query_detail(spec, RULES).spec is spec
    # derived expressions have no exactly-checkable support either
    spec = _spec("(rejection-query (define x (+ (random-integer 10) 1)) x (= (+ x 5) 10))")
    assert optimize_query_detail(spec, RULES).spec is spec


def test_optimize_untouched_deterministic_definitions():
    spec = _spec("(rejection-query (define k 5) (define x (random-integer 10)) "
                 "x (= (+ x 5) 10))")
    outcome = optimize_query_detail(spec, RULES)
    assert outcome.fired and outcome.target == "x"
    assert print_expr(outcome.spec.definitions[0]) == "(define k 5)"


def test_optimize_two_variable_condition_untouched():
    spec = _spec("(rejection-query (define x (random-integer 5)) "
                 "(define y (random-integer 5)) x (= (+ x y) 4))")
    assert optimize_query_detail(spec, RULES).spec is spec


def test_optimize_fires_for_second_variable():
    spec = _spec("(rejection-query (define x (random-integer 5)) "
                 "(define y (random-integer 9)) (list x y) (= (- y 2) 4))")
    outcome = optimize_query_detail(spec, RULES)
    assert outcome.fired and outcome.target == "y"
    assert print_expr(outcome.spec.definitions[1]) == "(define y 6)"
    assert print_expr(outcome.spec.definitions[0]) == "(define x (random-integer 5))"


def test_the_pinned_spec_keeps_the_other_priors_without_reading_them_again(monkeypatch):
    spec = _spec("(rejection-query (define x (random-integer 5)) (define k (normal 0 1)) "
                 "(define y (random-integer 9)) (define z (random-integer 3)) "
                 "(list x y) (= (- y 2) 4))")
    # the priors of the spec given are its own: building the pinned one
    # makes no QuerySpec from its forms
    monkeypatch.setattr(QuerySpec, "__init__", None)
    outcome = optimize_query_detail(spec, RULES)
    monkeypatch.undo()
    assert outcome.fired and outcome.spec.__class__ is QuerySpec
    assert outcome.spec.supports == (5, None, None, 3)
    read = QuerySpec(outcome.spec.definitions, outcome.spec.query, outcome.spec.condition)
    assert outcome.spec == read and outcome.spec.supports == read.supports
    assert spec.supports == (5, None, 9, 3)


def test_optimize_canonicalizes_real_constant_to_prior_type():
    spec = _spec("(rejection-query (define x (random-integer 10)) x (= (+ x 2.5) 7.5))")
    outcome = optimize_query_detail(spec, RULES)
    assert outcome.fired
    assert print_expr(outcome.definition) == "(define x 5)"


_SHADOWED_PRIOR = ("(rejection-query (define random-integer (lambda (n) 3)) "
                   "(define x (random-integer 10)) x (= x 5))")
_SHADOWED_PLUS = ("(rejection-query (define + (lambda (a b) (- a b))) "
                  "(define x (random-integer 20)) x (= (+ x 5) 10))")
# a define in an `if` arm binds `+` in the attempt's frame too
_IF_ARM_PLUS = ("(rejection-query (if #t (define + (lambda (a b) (- a b))) 0) "
                "(define x (random-integer 20)) x (= (+ x 5) 10))")


@pytest.mark.parametrize("src", [
    _SHADOWED_PRIOR,
    _SHADOWED_PLUS,
    # a foldable operator that no rule names
    "(rejection-query (define * (lambda (a b) 0)) (define x (random-integer 10)) "
    "x (= (+ x (* 2 3)) 10))",
    _IF_ARM_PLUS,
])
def test_optimize_leaves_a_query_that_defines_an_assumed_name_untouched(src):
    spec = _spec(src)
    assert optimize_query_detail(spec, RULES).spec is spec


def test_optimize_leaves_a_query_that_defines_a_rule_symbol_untouched():
    rules = (rule_from_form(parse_one(
        "(implication (= (list $A $B) (list $C $D)) (= $A $C))")),)
    cond = "x (= (list x 1) (list 5 1)))"
    assert optimize_query_detail(
        _spec(f"(rejection-query (define x (random-integer 10)) {cond}"), rules).fired
    spec = _spec("(rejection-query (define list (lambda (a b) (+ a b))) "
                 f"(define x (random-integer 10)) {cond}")
    assert optimize_query_detail(spec, rules).spec is spec


def test_shadowed_prior_or_operator_samples_as_blind_sampling_does():
    for rewrite_on in (True, False):
        s = Session(seed=5, samples=3, max_attempts=300, rewrite=rewrite_on)
        s.load_file(rules_path())
        with pytest.raises(ExhaustionError):   # the prior is always 3
            s.run_text(_SHADOWED_PRIOR)
        for query in (_SHADOWED_PLUS, _IF_ARM_PLUS):
            result, = s.run_text(query)
            assert result.report.samples == (15, 15, 15)
            assert (result.optimize is None) or not result.optimize.fired


_BLIND_QUERY = "(rejection-query (define x (random-integer 20)) x (= (+ x 5) 10))"


@pytest.mark.parametrize("program", [
    f"(let ((+ (lambda (a b) (- a b)))) {_BLIND_QUERY})",
    f"(define f (lambda (+) {_BLIND_QUERY})) (f -)",
    f"((lambda () (define + (lambda (a b) (- a b))) {_BLIND_QUERY}))",
    f"((lambda () {_IF_ARM_PLUS}))",
], ids=["let", "lambda-parameter", "define-in-lambda-body", "define-in-if-arm-in-lambda"])
def test_a_binding_around_the_query_samples_as_blind_sampling_does(program):
    # `+` is rebound in a frame between the query and the root, or in the
    # query's own frame: x + 5 is x - 5 there, so the only accepted value is
    # 15 with or without rewriting
    for rewrite_on in (True, False):
        s = Session(seed=1, rewrite=rewrite_on)
        s.load_file(rules_path())
        assert s.run_text(program)[-1].value == 15, rewrite_on


def test_a_nested_query_compiled_below_the_root_is_never_rewritten():
    # `f` is compiled for a frame below the root, and a later form defines
    # `+` in that frame, between the query and the root
    env = Env()
    env.parent = standard_env()
    ctx = EvalContext(rng=Draws(1), rules=RULES, global_env=env.parent)
    evaluate(parse_one(f"(define f (lambda () {_BLIND_QUERY}))"), env, ctx)
    evaluate(parse_one("(define + (lambda (a b) (- a b)))"), env, ctx)
    assert [evaluate(parse_one("(f)"), env, ctx) for _ in range(3)] == [15, 15, 15]


@pytest.mark.parametrize("concept,template,value", [
    # `+` in the condition reads a draw of the concept `+`, which is `-`
    ("(concept +) (is-a - +)", "(rejection-query (define x (random-integer 20)) x "
                               "(= (+ x 5) 2))", 7),
    # both `k`s read the query's definition, as they do at top level, where
    # no k in {0, 1, 2} is 7: rewriting proves it, and blind sampling runs
    # out of attempts (value None: the template raises what the query does)
    ("(concept k) (is-a 7 k)", "(rejection-query (define k (random-integer 3)) k (= k 7))",
     None),
], ids=["assumed-operator", "definition-name"])
def test_a_concept_read_in_a_template_query_samples_as_blind_sampling_does(concept, template,
                                                                          value):
    # a concept name in a template reads the instantiation's draw, as if a
    # frame around the query bound it, so the rewrite may not assume it;
    # a name the query defines is bound by its definition instead
    for rewrite_on in (True, False):
        s = Session(seed=1, rewrite=rewrite_on, max_attempts=1000)
        s.load_file(rules_path())
        s.run_text(f"{concept} (concept t) (is-a {template} t)")
        if value is not None:
            assert s.run_text("(sample t)")[-1].value == value, rewrite_on
            continue
        with pytest.raises(ProblispError) as top:
            s.run_text(template)
        with pytest.raises(ProblispError) as nested:
            s.run_text("(sample t)")
        assert type(top.value) is (ZeroProbabilityError if rewrite_on else ExhaustionError)
        # the batch runner prefixes the sample's index
        assert type(nested.value) is type(top.value), rewrite_on
        assert top.value.message.endswith(nested.value.message), rewrite_on


@pytest.mark.parametrize("prior", ["(sample integer)", "(normal 0 1)"])
def test_a_prior_other_than_a_literal_random_integer_is_not_solved_for(prior):
    spec = _spec(f"(rejection-query (define x {prior}) x (= (+ x 5) 10))")
    with mock.patch.object(rewrite, "solve_condition", side_effect=AssertionError):
        outcome = optimize_query_detail(spec, RULES)
    assert outcome.spec is spec and not outcome.fired


def test_rewrites_never_introduce_unbound_variables():
    # every rewrite output in a solve trace is a valid, variable-closed form
    conds = ["(= (+ x 5) 10)", "(= (- 9 x) 2)", "(= (+ (+ x 2) 3) 10)",
             "(= (- 10 2) (+ x 3))"]
    for src in conds:
        result = solve_condition(parse_one(src), "x", RULES)
        for state in result.trace:
            assert not _vars_of(state)
