import hashlib
import string
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from problisp import LexError, ParseError, parse, parse_one, print_expr, tokenize
from problisp.sexpr import (MAX_NESTING, Boolean, Integer, Location, Real, SList, Symbol,
                            Text, Token)

import _reader_reference
from conftest import REPO


def test_tokenize_simple():
    assert [t.text for t in tokenize("(+ x 5)")] == ["(", "+", "x", "5", ")"]


def test_tokenize_condition_has_nine_tokens():
    tokens = tokenize("(= (+ x 5) 10)")
    assert len(tokens) == 9
    assert [t.text for t in tokens] == ["(", "=", "(", "+", "x", "5", ")", "10", ")"]


def test_tokenize_discards_comments():
    assert [t.text for t in tokenize("; comment\n()")] == ["(", ")"]


def test_tokenize_locations():
    tokens = tokenize("(foo\n  bar)")
    assert (tokens[1].loc.line, tokens[1].loc.column) == (1, 2)
    assert (tokens[2].loc.line, tokens[2].loc.column) == (2, 3)


def test_tokenize_strings_and_booleans():
    tokens = tokenize('(#t #f "a\\"b")')
    assert tokens[1].value is True
    assert tokens[2].value is False
    assert tokens[3].value == 'a"b'


def test_unterminated_string_reports_location():
    with pytest.raises(LexError) as exc:
        tokenize('(foo "bar')
    assert exc.value.loc.column == 6


def test_unknown_hash_literal():
    with pytest.raises(LexError):
        tokenize("#q")


def test_parse_condition_structure():
    expr = parse_one("(= (+ x 5) 10)")
    assert expr == SList((Symbol("="), SList((Symbol("+"), Symbol("x"), Integer(5))),
                          Integer(10)))


def test_parse_empty_list():
    assert parse_one("()") == SList(())


def test_parse_multiple_forms():
    forms = parse("(a) (b c) 5")
    assert len(forms) == 3
    assert forms[2] == Integer(5)


def test_parse_numeric_classification():
    assert parse_one("5") == Integer(5)
    assert parse_one("-3") == Integer(-3)
    assert parse_one("5.0") == Real(5.0)
    assert parse_one("1e3") == Real(1000.0)
    assert parse_one(".5") == Real(0.5)
    assert parse_one("+") == Symbol("+")
    assert parse_one("$A") == Symbol("$A")


def test_pattern_vars_are_plain_symbols():
    expr = parse_one("(= (+ $A $B) $C)")
    assert expr.items[1].items[1] == Symbol("$A")


def test_unbalanced_parens():
    with pytest.raises(ParseError) as exc:
        parse("(foo (bar)")
    assert exc.value.incomplete
    assert "line 1, column 1" in str(exc.value)
    with pytest.raises(ParseError) as exc:
        parse("(foo))")
    assert not exc.value.incomplete


def _nested(depth, inner="1"):
    """`(+ 1 (+ 1 ... inner))`, `depth` lists deep."""
    return "(+ 1 " * depth + inner + ")" * depth


def _depth(expr):
    """How many lists deep `expr` nests."""
    if expr.__class__ is not SList:
        return 0
    return 1 + max(map(_depth, expr.items), default=0)


def _nested_lambdas(depth):
    levels = (depth - 1) // 2   # two lists per level, then a deepest body
    body = "(+ x (+ 1 0))" if depth % 2 == 0 else "(+ x 1)"
    return "((lambda (x) " * levels + body + ") (+ x 1))" * levels, str(levels + 1)


def _quoted(depth):
    data = "(1 " * (depth - 2) + "(1)" + ")" * (depth - 2)
    return f"(quote {data})", data


# programs exactly `depth` lists deep, each with its printed value when x is 0
_SHAPES = {
    "call": lambda depth: (_nested(depth), str(depth + 1)),
    "let": lambda depth: ("(let ((x (+ x 1))) " * (depth - 3) + "x" + ")" * (depth - 3),
                          str(depth - 3)),
    "lambda": _nested_lambdas,
    "if": lambda depth: ("(if (= x 0) " * (depth - 1) + "1" + " 0)" * (depth - 1), "1"),
    "quote": _quoted,
}


@pytest.mark.parametrize("shape", sorted(_SHAPES))
def test_nesting_at_the_limit_runs_at_the_default_recursion_limit(shape):
    # parse, print, evaluate (as a form and as a query's value) and rewrite
    # (as a query's condition) programs nested exactly MAX_NESTING deep
    # within Python's default recursion limit
    import sys

    from problisp import QuerySpec, Session, optimize_query_detail, rules_path
    from problisp.values import format_value

    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        text, value = _SHAPES[shape](MAX_NESTING)
        form, = parse(text)
        assert _depth(form) == MAX_NESTING
        assert print_expr(form) == text
        session = Session(seed=0)
        session.run_text("(define x 0)")
        assert format_value(session.eval_form(form).value) == value
        # the query list holds the query value one level down
        text, value = _SHAPES[shape](MAX_NESTING - 1)
        query, = parse(f"(rejection-query (define y (random-integer 3)) {text} #t)")
        assert _depth(query) == MAX_NESTING
        assert [format_value(v) for v in session.eval_form(query).report.samples] == [value]
        # the query and `=` are two lists, the condition's right side the rest
        session.load_file(rules_path())
        text, value = _SHAPES[shape](MAX_NESTING - 2)
        query, = parse(f"(rejection-query (define x (random-integer 1000)) x (= x {text}))")
        assert _depth(query) == MAX_NESTING
        outcome = optimize_query_detail(QuerySpec.from_form(query), tuple(session.rules))
        if shape == "call":
            assert outcome.fired
            assert print_expr(outcome.spec.definitions[0]) == f"(define x {value})"
            assert session.eval_form(query).report.samples == (int(value),)
    finally:
        sys.setrecursionlimit(limit)


def test_nesting_past_the_limit_is_a_located_parse_error():
    for depth in (MAX_NESTING + 1, 16_000):
        with pytest.raises(ParseError) as exc:
            parse("\n " + _nested(depth))
        assert not exc.value.incomplete
        assert (exc.value.loc.line, exc.value.loc.column) == (2, 2 + 5 * MAX_NESTING)
    # an unclosed program that deep is refused too, not read as incomplete
    with pytest.raises(ParseError) as exc:
        parse("(+ 1 " * 16_000)
    assert not exc.value.incomplete


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this Python has no limit on the digits of an integer read from text")
def test_an_integer_literal_over_the_interpreter_digit_limit_is_a_located_lex_error():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        with pytest.raises(LexError, match="integer literal has too many digits") as err:
            parse("(list 1\n  " + "9" * 5000 + ")")
    finally:
        sys.set_int_max_str_digits(limit)
    assert err.value.loc == Location(2, 3)


def test_print_canonical():
    expr = SList((Symbol("="), Symbol("x"), SList((Symbol("-"), Integer(10), Integer(5)))))
    assert print_expr(expr) == "(= x (- 10 5))"
    assert print_expr(Integer(5)) == "5"
    assert print_expr(Real(5.0)) == "5.0"
    assert print_expr(Boolean(True)) == "#t"
    assert print_expr(Text('a"b\n')) == '"a\\"b\\n"'


def test_locations_do_not_affect_equality_or_printing():
    a = parse_one("(foo 1)")
    b = parse_one("  (foo\n 1)")
    assert a == b
    assert print_expr(a) == print_expr(b)
    assert hash(a.items[0]) == hash(b.items[0])


def test_node_equality_ignores_loc_and_needs_the_same_class():
    here, there = Location(1, 1), Location(7, 3)
    for node, twin in [(Symbol("x", here), Symbol("x", there)),
                       (Integer(1, here), Integer(1)),
                       (Real(2.5, here), Real(2.5, there)),
                       (Boolean(True, here), Boolean(True, there)),
                       (Text("s", here), Text("s")),
                       (SList((Symbol("f"), Integer(1)), here), SList((Symbol("f"), Integer(1))))]:
        assert node == twin and not node != twin
        assert hash(node) == hash(twin)
    # equal values under different classes stay unequal
    assert Integer(1) != Real(1.0) and Integer(1) != Boolean(True)
    assert Real(1.0) != Boolean(True) and Integer(0) != Boolean(False)
    assert Symbol("a") != Text("a") and SList(()) != Symbol("()")
    assert Symbol("x") != Symbol("y") and SList((Integer(1),)) != SList((Integer(2),))
    assert Location(1, 2) == Location(1, 2) and Location(1, 2) != Location(2, 1)
    assert Location(1, 2) != (1, 2) and Symbol("x") != "x"


def test_node_fields_compare_and_hash_as_a_tuple_does():
    # the frozen dataclasses compared `(field,)` tuples, which try `is` first
    nan = float("nan")
    assert Real(nan) == Real(nan)
    assert Real(nan) != Real(float("nan"))
    assert hash(Symbol("x")) == hash(("x",))
    assert hash(SList((Integer(1),))) == hash(((Integer(1),),))
    assert hash(Location(3, 4)) == hash((3, 4))
    token = tokenize("x")[0]
    assert token == Token("symbol", "x", "x", Location(1, 1))
    assert hash(token) == hash(("symbol", "x", "x", Location(1, 1)))
    assert token != tokenize(" x")[0]   # a token's location takes part in equality


def test_equal_nodes_are_interchangeable_dict_and_set_keys():
    a, b = parse("(f x 1 2.0 #t \"s\") (f x 1 2.0 #t \"s\")")
    assert a is not b and {a: "a"}[b] == "a"
    assert len({a, b, *a.items, *b.items}) == 7
    assert {Integer(1), Real(1.0), Boolean(True)} == {Boolean(True), Real(1.0), Integer(1)}
    assert len({Integer(1), Real(1.0), Boolean(True)}) == 3


def test_node_repr_and_location_text():
    assert repr(Symbol("x", Location(1, 2))) == "Symbol(name='x')"
    assert repr(parse_one("(f 1 2.5 #f \"a\")")) == (
        "SList(items=(Symbol(name='f'), Integer(value=1), Real(value=2.5), "
        "Boolean(value=False), Text(value='a')))")
    assert repr(Location(3, 14)) == "Location(line=3, column=14)"
    assert str(Location(3, 14)) == "line 3, column 14"
    assert repr(tokenize("5")[0]) == (
        "Token(kind='integer', text='5', value=5, loc=Location(line=1, column=1))")


@pytest.mark.parametrize("literal", ["1e400", "-1e400", "+1.5e309", "9" * 400 + ".0"],
                         ids=["1e400", "-1e400", "+1.5e309", "400 nines"])
def test_real_literal_out_of_range_is_a_located_lex_error(literal):
    with pytest.raises(LexError) as exc:
        parse(f"(define x\n  {literal})")
    assert "real literal out of range" in str(exc.value)
    assert (exc.value.loc.line, exc.value.loc.column) == (2, 3)


def test_real_literal_underflow_reads_as_zero():
    assert parse_one("1e-400") == Real(0.0)
    assert parse_one("-1e-400") == Real(-0.0)
    assert print_expr(parse_one("1e308")) == "1e+308"
    assert parse_one(print_expr(parse_one("1e308"))) == Real(1e308)


_symbols = st.one_of(
    st.sampled_from(["+", "-", "*", "=", "<", ">", "x", "pi", "null?",
                     "foo-bar", "$A", "$rest!"]),
    st.from_regex(r"[a-zA-Z][a-zA-Z0-9\-\?\!\*]{0,8}", fullmatch=True),
)
_texts = st.text(alphabet=string.ascii_letters + string.digits + ' "\\\n\t.;()',
                 max_size=12)
_atoms = st.one_of(
    st.builds(Symbol, _symbols),
    st.builds(Integer, st.integers(-10 ** 12, 10 ** 12)),
    st.builds(Real, st.floats(allow_nan=False, allow_infinity=False)),
    st.builds(Boolean, st.booleans()),
    st.builds(Text, _texts),
)
_exprs = st.recursive(
    _atoms,
    lambda children: st.builds(lambda xs: SList(tuple(xs)),
                               st.lists(children, max_size=5)),
    max_leaves=40)


@settings(max_examples=300)
@given(_exprs)
def test_roundtrip_parse_print(expr):
    assert parse_one(print_expr(expr)) == expr


# sha256 of (class, value, line, column) for every node `parse` gives on the
# shipped sources, recorded with the frozen-dataclass reader before the nodes
# became plain slotted classes.  It must not change when only the reader's
# internals change.
READER_PIN_FILES = ["programs/arith_query.lisp", "programs/knowledge_sampling.lisp",
                    "programs/two_queries.lisp", "src/problisp/data/prelude.lisp",
                    "src/problisp/data/rules.lisp"]
READER_PIN = (222, "da0c5e0071b05583ceb14cbe92a253f64fa2857607bd271e594eb4da48bbc288")


def _node_rows(node, rows):
    value = node.name if type(node) is Symbol else getattr(node, "value", None)
    rows.append(repr((type(node).__name__, value, node.loc.line, node.loc.column)))
    if type(node) is SList:
        for item in node.items:
            _node_rows(item, rows)


def test_reader_output_on_shipped_sources_is_pinned():
    digest = hashlib.sha256()
    count = 0
    for name in READER_PIN_FILES:
        rows = []
        for form in parse((REPO / name).read_text()):
            _node_rows(form, rows)
        count += len(rows)
        digest.update(("\n".join([name] + rows) + "\n").encode())
    assert (count, digest.hexdigest()) == READER_PIN


# pieces of source that reach every branch of the reader: each token kind,
# blanks and comments, newlines, every escape and some unknown ones, words
# that read as numbers, as out-of-range reals and as unknown literals
_READER_PIECES = st.sampled_from([
    "(", ")", "(", ")", " ", "\n", "\t", "\r", "\f", ";", "; c\n", '"', '"s"', '"a\\"b"',
    "\\", "\\n", "\\t", "\\q", "\\\n", "x", "+", "-", ".", "e", "5", "-3", "+.5", "1.", "2e3",
    "1e400", "#t", "#f", "#", "#q", "$A", "é", "null?",
])


def _read_outcome(read, text):
    """What `read(text)` gives, every location included: the nodes or tokens
    in document order, or the error."""
    try:
        result = read(text)
    except (LexError, ParseError) as err:
        return type(err).__name__, err.message, err.loc, err.incomplete
    if result and result[0].__class__ is Token:
        return [(t.kind, t.text, t.value, t.value.__class__, t.loc) for t in result]
    rows = []
    for form in result:
        _node_rows(form, rows)
    return rows


@settings(max_examples=1000)
@given(st.lists(_READER_PIECES, max_size=40).map("".join))
def test_reader_matches_the_reference_reader(text):
    assert _read_outcome(parse, text) == _read_outcome(_reader_reference.parse, text)
    assert _read_outcome(tokenize, text) == _read_outcome(_reader_reference.tokenize, text)


@pytest.mark.parametrize("text", [
    _nested(MAX_NESTING + 1) + ' "open', _nested(MAX_NESTING + 1) + " #q",
    ") #q", ")) (", "(a (b\n  c", '(a "\\q" ))', "(\n\t)\r\n ) 1e400",
], ids=["deep then unterminated", "deep then unknown", "unmatched then unknown",
        "unmatched then unclosed", "unclosed", "bad escape", "unmatched then out of range"])
def test_reader_reports_errors_as_the_reference_reader(text):
    assert _read_outcome(parse, text) == _read_outcome(_reader_reference.parse, text)
    assert _read_outcome(parse, text)[0] in ("LexError", "ParseError")


def test_tokens_match_the_reference_reader_on_shipped_sources():
    sources = sorted([*(REPO / "programs").glob("*.lisp"),
                      *(REPO / "src" / "problisp" / "data").glob("*.lisp")])
    assert len(sources) == 5
    for path in sources:
        text = path.read_text()
        assert _read_outcome(tokenize, text) == _read_outcome(_reader_reference.tokenize, text)
