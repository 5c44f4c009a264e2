import pytest

from problisp import ConceptError, ConceptId, ConceptStore, IsALink, parse_one
from problisp.concepts import _describe_source


def test_concept_ids_compare_and_hash_by_value():
    store = ConceptStore()
    number = store.declare_concept("number")
    same = ConceptId("number", 0)
    assert same == number and same is not number
    assert hash(same) == hash(number)
    assert {number: 1}[same] == 1
    assert ConceptId("number", 1) != number and ConceptId("real", 0) != number
    assert number != ("number", 0)   # a different class is never equal
    assert repr(number) == "ConceptId(name='number', index=0)"
    # an equal handle finds the concept's rows; the same name with another index does not
    assert store.instances(same) == ()
    with pytest.raises(ConceptError, match="unknown concept 'number'"):
        store.instances(ConceptId("number", 5))


def test_is_a_links_are_equal_only_to_themselves():
    store = ConceptStore()
    number = store.declare_concept("number")
    store.add_isa(parse_one("1"), number)
    link = store.find_link(parse_one("1"), number)
    twin = IsALink(link.link_id, link.source, link.target, link.weight)
    assert link == link and link != twin
    assert len({link, twin}) == 2


def test_declare_and_instances_empty():
    store = ConceptStore()
    number = store.declare_concept("number")
    assert store.instances(number) == ()
    assert store.lookup("number") is number


def test_duplicate_concept_rejected():
    store = ConceptStore()
    store.declare_concept("sequence")
    with pytest.raises(ConceptError, match="already declared"):
        store.declare_concept("sequence")


def test_prelude_concepts_resolvable(prelude_session):
    store = prelude_session.store
    for name in ("number", "real-number", "integer", "sequence"):
        assert store.lookup(name) is not None


def test_prelude_number_links_in_insertion_order(prelude_session):
    store = prelude_session.store
    number = store.lookup("number")
    rows = store.instances(number)
    assert [(link.source.name, w) for link, w in rows] == \
        [("real-number", 1.0), ("integer", 1.0)]


def test_add_isa_expression_and_weights():
    store = ConceptStore()
    real = store.declare_concept("real-number")
    link = store.add_isa(parse_one("pi"), real)
    assert isinstance(link, int)
    rows = store.instances(real)
    assert rows[0][1] == 1.0
    with pytest.raises(ConceptError, match="positive"):
        store.add_isa(parse_one("(normal 0 1)"), real, weight=0)
    with pytest.raises(ConceptError, match="duplicate"):
        store.add_isa(parse_one("pi"), real)


def test_a_duplicate_concept_link_names_both_concepts(session):
    session.run_text("(concept c) (concept d)")
    with pytest.raises(ConceptError) as exc:
        session.run_text("(is-a c d) (is-a c d)")
    assert str(exc.value) == "line 1, column 12: duplicate is-a link c -> d"


def test_recursive_expression_link_accepted():
    store = ConceptStore()
    store.declare_concept("number")
    seq = store.declare_concept("sequence")
    store.add_isa(parse_one("null"), seq)
    store.add_isa(parse_one("(cons number sequence)"), seq)
    assert len(store.instances(seq)) == 2


def test_concept_cycle_rejected():
    store = ConceptStore()
    a = store.declare_concept("a")
    b = store.declare_concept("b")
    c = store.declare_concept("c")
    store.add_isa(a, b)
    store.add_isa(b, c)
    with pytest.raises(ConceptError, match="cycle"):
        store.add_isa(c, a)
    with pytest.raises(ConceptError, match="cycle"):
        store.add_isa(a, a)


def test_unknown_target():
    store = ConceptStore()
    other = ConceptStore().declare_concept("ghost")
    with pytest.raises(ConceptError, match="unknown concept"):
        store.add_isa(parse_one("1"), other)
    with pytest.raises(ConceptError, match="unknown concept"):
        store.instances(other)


def test_unknown_name_in_isa_source(session):
    session.run_text("(concept sequence)")
    with pytest.raises(ConceptError, match="unknown name 'numbr'"):
        session.run_text("(is-a (cons numbr sequence) sequence)")


def test_isa_source_may_use_globals_and_lambda_params(session):
    session.run_text("""
    (define base 41)
    (concept thing)
    (is-a ((lambda (k) (+ base k)) 1) thing)
    """)
    result = session.run_text("(sample thing)")[-1]
    assert result.value == 42


def test_isa_source_names_resolve_in_the_session_globals(session):
    # the template runs in the globals, not in the frame the is-a runs in
    session.run_text("(concept t) (define g (lambda (k) (is-a k t)))")
    with pytest.raises(ConceptError, match="unknown name 'k' in is-a source"):
        session.run_text("(g 5)")
    with pytest.raises(ConceptError, match="unknown name 'k' in is-a source"):
        session.run_text("(is-a k t)")
    assert session.store.instances(session.store.lookup("t")) == ()


def test_define_context_finds_expression_links_without_compiling_them(prelude_session):
    store = prelude_session.store
    templates = dict(store.templates)
    prelude_session.run_text("""
    (define-context heavy ((normal 0 1) real-number 2.0)
                          ((cons number sequence) sequence 3.0))
    (set-context heavy)""")
    assert store.templates == templates
    def weights(concept):
        return {_describe_source(link.source): w
                for link, w in store.instances(store.lookup(concept))}
    assert weights("sequence") == {"null": 1.0, "(cons number sequence)": 3.0}
    assert weights("real-number") == {"(normal 0 1)": 2.0, "pi": 1.0}
    # an unknown name matches no link
    with pytest.raises(ConceptError, match=r"no is-a link \(cons nope sequence\) -> sequence"):
        prelude_session.run_text("(define-context bad ((cons nope sequence) sequence 1.0))")


def test_context_overlays():
    store = ConceptStore()
    number = store.declare_concept("number")
    integer = store.declare_concept("integer")
    real = store.declare_concept("real-number")
    l1 = store.add_isa(real, number)
    l2 = store.add_isa(integer, number)
    store.define_context("inty", {l2: 3.0})
    store.define_context("realy", {l1: 5.0, l2: 0.5})

    assert [w for _, w in store.instances(number)] == [1.0, 1.0]
    store.set_context("inty")
    assert [w for _, w in store.instances(number)] == [1.0, 3.0]
    store.set_context("realy")
    assert [w for _, w in store.instances(number)] == [5.0, 0.5]
    store.set_context("default")
    assert [w for _, w in store.instances(number)] == [1.0, 1.0]


def test_context_errors():
    store = ConceptStore()
    with pytest.raises(ConceptError, match="unknown context"):
        store.set_context("nope")
    store.define_context("a", {})
    with pytest.raises(ConceptError, match="already defined"):
        store.define_context("a", {})
    number = store.declare_concept("number")
    integer = store.declare_concept("integer")
    link = store.add_isa(integer, number)
    with pytest.raises(ConceptError, match="positive"):
        store.define_context("b", {link: -1})


def test_language_level_contexts(session):
    session.run_text("""
    (concept number)
    (concept integer)
    (is-a integer number)
    (is-a 7 integer)
    (define-context heavy (integer number 3.0))
    """)
    store = session.store
    number = store.lookup("number")
    assert [w for _, w in store.instances(number)] == [1.0]
    session.run_text("(set-context heavy)")
    assert [w for _, w in store.instances(number)] == [3.0]
    with pytest.raises(ConceptError, match="no is-a link"):
        session.run_text("(define-context bad (number integer 1.0))")


def test_adding_links_never_changes_existing_effective_weights():
    store = ConceptStore()
    number = store.declare_concept("number")
    integer = store.declare_concept("integer")
    l1 = store.add_isa(integer, number)
    store.define_context("ctx", {l1: 2.0})
    store.add_isa(parse_one("pi"), number)
    # the original link's weight is untouched in every context
    assert store.instances(number)[0][1] == 1.0
    store.set_context("ctx")
    assert store.instances(number)[0][1] == 2.0
    assert store.instances(number)[1][1] == 1.0


def test_rows_follow_each_change_to_the_store():
    # the active context's rows are built at the first read after a change
    store = ConceptStore()
    number = store.declare_concept("number")
    assert store.instances(number) == ()
    link = store.add_isa(parse_one("pi"), number)
    assert [w for _, w in store.instances(number)] == [1.0]
    integer = store.declare_concept("integer")
    assert store.instances(integer) == ()
    store.define_context("heavy", {link: 2.0})
    assert [w for _, w in store.instances(number)] == [1.0]
    store.set_context("heavy")
    assert [w for _, w in store.instances(number)] == [2.0]


@pytest.mark.parametrize("clauses, at", [("(1 c 2)\n  c", (4, 3)), ("(1 c)", (3, 3))])
def test_a_malformed_context_clause_is_reported_at_the_clause(session, clauses, at):
    from problisp import EvalError

    with pytest.raises(EvalError) as exc:
        session.run_text(f"(concept c) (is-a 1 c)\n(define-context d\n  {clauses})")
    assert exc.value.message == "context clause must be (source concept weight)"
    assert (exc.value.loc.line, exc.value.loc.column) == at


def test_knowledge_forms_require_session_toplevel(session):
    from problisp import EvalError

    with pytest.raises(EvalError, match="top level"):
        session.run_text("(rejection-query (concept inner) 1 #t)")
    # a query nested in a top-level form runs without the session, and so
    # does a template, wherever it is instantiated
    for text, column in (
            ("(if #t (rejection-query (concept inner) 1 #t) 0)", 25),
            ("(concept c) (concept d) (is-a 1 d) (is-a (concept d) c) (sample c)", 42)):
        with pytest.raises(EvalError, match="top level") as exc:
            session.run_text(text)
        assert exc.value.loc.column == column


def test_knowledge_forms_allowed_outside_queries_and_templates(session):
    # a closure body is not a query body, and a template's draw and a nested
    # query give the session back to the rest of their form
    session.run_text("(define f (lambda () (concept z))) (f)"
                     " (concept c) (is-a 1 c) (list (sample c) (concept y))"
                     " (list (rejection-query (define x 1) x #t) (concept w))")
    assert session.store.concept_names() == ["z", "c", "y", "w"]


def test_isa_source_may_define_its_own_names(session):
    session.run_text("""
        (concept coin) (is-a #t coin) (is-a #f coin)
        (concept thing) (is-a (rejection-query (define c coin) c #t) thing)""")
    values = {r.value for r in session.run_text("(sample thing) " * 20)}
    assert values == {True, False}
    # a name defined nowhere is still refused
    with pytest.raises(ConceptError, match="unknown name 'nope' in is-a source"):
        session.run_text("(is-a (rejection-query (define c coin) nope #t) thing)")


def test_a_template_draws_no_concept_named_only_in_a_malformed_form(session):
    # the compiler does not look inside a malformed form's operands, which
    # never run, so `coin` in `(if coin)` takes no draw and changes none of
    # the draws after it
    from problisp import format_value

    session.reset_seed(4)
    *_, result = session.run_text("""
        (concept coin) (is-a #t coin) (is-a #f coin 3)
        (concept t1) (is-a (if #t (list coin) (if coin)) t1)
        (list (sample t1) (sample t1) (sample t1) (sample t1))""")
    assert format_value(result.value) == "((#f) (#f) (#f) (#t))"


def test_is_a_accepts_an_unknown_name_only_in_a_malformed_form(session):
    # `nope` is inside a form that never runs, so `is-a` no longer refuses
    # it; sampling raises the malformed form's own error at its location
    from problisp import EvalError

    session.run_text("(concept t3)\n(is-a (if nope) t3)")
    with pytest.raises(EvalError) as exc:
        session.run_text("(sample t3)")
    assert exc.value.message == "if expects (if test then else)"
    assert (exc.value.loc.line, exc.value.loc.column) == (2, 7)
