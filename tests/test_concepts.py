import pytest

from problisp import ConceptError, ConceptStore, parse_one


def test_declare_and_instances_empty():
    store = ConceptStore()
    number = store.declare_concept("number")
    assert store.snapshot().instances(number) == ()
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
    rows = store.snapshot().instances(number)
    assert [(link.source.name, w) for link, w in rows] == \
        [("real-number", 1.0), ("integer", 1.0)]


def test_add_isa_expression_and_weights():
    store = ConceptStore()
    real = store.declare_concept("real-number")
    link = store.add_isa(parse_one("pi"), real)
    assert isinstance(link, int)
    rows = store.snapshot().instances(real)
    assert rows[0][1] == 1.0
    with pytest.raises(ConceptError, match="positive"):
        store.add_isa(parse_one("(normal 0 1)"), real, weight=0)
    with pytest.raises(ConceptError, match="duplicate"):
        store.add_isa(parse_one("pi"), real)


def test_recursive_expression_link_accepted():
    store = ConceptStore()
    store.declare_concept("number")
    seq = store.declare_concept("sequence")
    store.add_isa(parse_one("null"), seq)
    store.add_isa(parse_one("(cons number sequence)"), seq)
    assert len(store.snapshot().instances(seq)) == 2


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
        store.snapshot().instances(other)


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


def test_context_overlays():
    store = ConceptStore()
    number = store.declare_concept("number")
    integer = store.declare_concept("integer")
    real = store.declare_concept("real-number")
    l1 = store.add_isa(real, number)
    l2 = store.add_isa(integer, number)
    store.define_context("inty", {l2: 3.0})
    store.define_context("realy", {l1: 5.0, l2: 0.5})

    assert [w for _, w in store.snapshot().instances(number)] == [1.0, 1.0]
    assert [w for _, w in store.snapshot("inty").instances(number)] == [1.0, 3.0]
    assert [w for _, w in store.snapshot("realy").instances(number)] == [5.0, 0.5]

    store.set_context("inty")
    assert [w for _, w in store.snapshot().instances(number)] == [1.0, 3.0]
    store.set_context("default")
    assert [w for _, w in store.snapshot().instances(number)] == [1.0, 1.0]


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
    assert [w for _, w in store.snapshot("heavy").instances(number)] == [3.0]
    session.run_text("(set-context heavy)")
    assert store.active_context == "heavy"
    with pytest.raises(ConceptError, match="no is-a link"):
        session.run_text("(define-context bad (number integer 1.0))")


def test_snapshot_is_immutable_under_mutation():
    store = ConceptStore()
    number = store.declare_concept("number")
    integer = store.declare_concept("integer")
    store.add_isa(integer, number)
    snap = store.snapshot()
    store.add_isa(parse_one("(normal 0 1)"), number)
    store.declare_concept("later")
    assert len(snap.instances(number)) == 1
    assert snap.concept("later") is None
    assert len(store.snapshot().instances(number)) == 2


def test_adding_links_never_changes_existing_effective_weights():
    store = ConceptStore()
    number = store.declare_concept("number")
    integer = store.declare_concept("integer")
    l1 = store.add_isa(integer, number)
    store.define_context("ctx", {l1: 2.0})
    store.add_isa(parse_one("pi"), number)
    # the original link's weight is untouched in every context
    assert store.snapshot("default").instances(number)[0][1] == 1.0
    assert store.snapshot("ctx").instances(number)[0][1] == 2.0
    assert store.snapshot("ctx").instances(number)[1][1] == 1.0


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
    # a closure body is not a query body, and a template's draw gives the
    # session back to the rest of its form
    session.run_text("(define f (lambda () (concept z))) (f)"
                     " (concept c) (is-a 1 c) (list (sample c) (concept y))")
    assert session.store.snapshot().concept_names() == ["z", "c", "y"]


def test_snapshot_is_reused_until_the_store_changes():
    store = ConceptStore()
    number = store.declare_concept("number")
    snaps = [store.snapshot()]
    assert store.snapshot() is snaps[0]
    assert store.snapshot("default") is snaps[0]

    def changed():
        snap = store.snapshot()
        assert snap is not snaps[-1]
        assert store.snapshot() is snap
        snaps.append(snap)

    link = store.add_isa(parse_one("pi"), number)
    changed()
    store.declare_concept("integer")
    changed()
    store.define_context("heavy", {link: 2.0})
    changed()
    store.set_context("heavy")
    changed()
    assert [w for _, w in snaps[-1].instances(number)] == [2.0]
    assert store.snapshot("default") is not snaps[-1]


def test_isa_source_may_define_its_own_names(session):
    session.run_text("""
        (concept coin) (is-a #t coin) (is-a #f coin)
        (concept thing) (is-a (rejection-query (define c coin) c #t) thing)""")
    values = {r.value for r in session.run_text("(sample thing) " * 20)}
    assert values == {True, False}
    # a name defined nowhere is still refused
    with pytest.raises(ConceptError, match="unknown name 'nope' in is-a source"):
        session.run_text("(is-a (rejection-query (define c coin) nope #t) thing)")
