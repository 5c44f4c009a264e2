"""S-expression reader and canonical printer.

The surface syntax is a small Scheme subset: parenthesised lists, symbols,
integer and real literals, ``#t``/``#f`` booleans, double-quoted strings,
and ``;`` comments running to end of line.  Pattern variables such as ``$A``
are ordinary symbols to the reader.  Every node carries an optional source
location that never participates in equality, hashing or printing.

Every record type of the package that compares by value is a plain
`__slots__` class on `_Record`: the reader's nodes, tokens and locations, and
also runtime pairs and concept handles, rules and solver results, query specs
and reports, and the evaluator's and the CLI's configuration records.
`_Record` gives them field-wise equality, hash and repr without any code
generated when the package is imported.  Closures, primitives and is-a links
compare by identity and are plain `__slots__` classes of their own.  Records
are immutable by convention, not frozen: a frozen class's `__init__` sets
each field through `object.__setattr__`, which costs two to three times as
much to build (see `SExpr`).
"""

from __future__ import annotations

import re
from math import isinf
from operator import attrgetter

from .errors import LexError, ParseError


class _Record:
    """`==` (same class only), hash and repr over the tuple of `_fields`.
    A subclass that names its `_fields` gets `_key`, their getter.  A record
    that is meant to change sets `__hash__ = None`, which makes it unhashable."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "_fields" in cls.__dict__:
            cls._key = attrgetter(*cls._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        a, b = self._key(self), self._key(other)
        return a is b or a == b  # as a tuple compares its items

    def __hash__(self):
        return hash(tuple([getattr(self, name) for name in self._fields]))

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__name__}({shown})"


class Location(_Record):
    __slots__ = _fields = ("line", "column")

    def __init__(self, line, column):
        self.line, self.column = line, column

    def __str__(self):
        return f"line {self.line}, column {self.column}"


class SExpr(_Record):
    """Base class for expression nodes; immutable by convention.  Not frozen,
    which would set each field through `object.__setattr__`: the reader
    builds one node per token and the solver one per rewrite."""

    __slots__ = ()

    def __str__(self):
        return print_expr(self)


class Symbol(SExpr):
    __slots__ = ("name", "loc")
    _fields = ("name",)

    def __init__(self, name, loc=None):
        self.name, self.loc = name, loc


class _Literal(SExpr):
    __slots__ = ("value", "loc")
    _fields = ("value",)

    def __init__(self, value, loc=None):
        self.value, self.loc = value, loc


class Integer(_Literal):
    __slots__ = ()


class Real(_Literal):
    __slots__ = ()


class Boolean(_Literal):
    __slots__ = ()


class Text(_Literal):
    __slots__ = ()


class SList(SExpr):
    __slots__ = ("items", "loc")
    _fields = ("items",)

    def __init__(self, items, loc=None):
        self.items, self.loc = items, loc

    def __len__(self):
        return len(self.items)

    def __iter__(self):
        return iter(self.items)

    def __getitem__(self, i):
        return self.items[i]


def slist(*items, loc=None):
    return SList(tuple(items), loc)


class Token(_Record):
    # kind: "(" | ")" | "symbol" | "integer" | "real" | "boolean" | "string"
    __slots__ = _fields = ("kind", "text", "value", "loc")

    def __init__(self, kind, text, value, loc):
        self.kind = kind
        self.text = text
        self.value = value
        self.loc = loc


_INT_RE = re.compile(r"[+-]?[0-9]+\Z")
_REAL_RE = re.compile(r"[+-]?(?:[0-9]+\.[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?\Z"
                      r"|[+-]?[0-9]+[eE][+-]?[0-9]+\Z")
_ESCAPES_IN = {'"': '"', "\\": "\\", "n": "\n", "t": "\t"}
_ESCAPES_OUT = {'"': '\\"', "\\": "\\\\", "\n": "\\n", "\t": "\\t"}
_DELIMS = frozenset(' \t\r\n()";')


def _classify(text, loc):
    if text[0] in "+-.0123456789#":  # any other first character makes a symbol
        if _INT_RE.match(text):
            return Token("integer", text, int(text), loc)
        if _REAL_RE.match(text):
            if isinf(value := float(text)):
                raise LexError("real literal out of range", loc)
            return Token("real", text, value, loc)
        if text == "#t":
            return Token("boolean", text, True, loc)
        if text == "#f":
            return Token("boolean", text, False, loc)
        if text.startswith("#"):
            raise LexError(f"unknown literal '{text}'", loc)
    return Token("symbol", text, text, loc)


def tokenize(text):
    """Split source text into located tokens, discarding whitespace and comments.

    >>> [t.text for t in tokenize("(+ x 5)")]
    ['(', '+', 'x', '5', ')']
    """
    tokens = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            col += 1
            i += 1
            continue
        if ch == ";":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start = Location(line, col)
        if ch in "()":
            tokens.append(Token(ch, ch, None, start))
            i += 1
            col += 1
            continue
        if ch == '"':
            i += 1
            col += 1
            buf = []
            while True:
                if i >= n or text[i] == "\n":
                    raise LexError("unterminated string literal", start)
                c = text[i]
                if c == '"':
                    i += 1
                    col += 1
                    break
                if c == "\\":
                    if i + 1 >= n:
                        raise LexError("unterminated string literal", start)
                    esc = text[i + 1]
                    if esc not in _ESCAPES_IN:
                        raise LexError(f"unknown escape '\\{esc}' in string",
                                       Location(line, col))
                    buf.append(_ESCAPES_IN[esc])
                    i += 2
                    col += 2
                    continue
                buf.append(c)
                i += 1
                col += 1
            value = "".join(buf)
            tokens.append(Token("string", value, value, start))
            continue
        j = i
        while j < n and text[j] not in _DELIMS:
            j += 1
        word = text[i:j]
        tokens.append(_classify(word, start))
        col += j - i
        i = j
    return tokens


_ATOM_NODES = {
    "symbol": Symbol,
    "integer": Integer,
    "real": Real,
    "boolean": Boolean,
    "string": Text,
}


# the deepest list nesting the reader accepts.  The reader, the compiler and
# `print_expr` recurse over the tree, and at this depth they all fit in
# Python's default recursion limit of 1000; the prelude nests 6.
MAX_NESTING = 100


def parse(text):
    """Parse source text into a list of expression trees."""
    tokens = tokenize(text)
    forms = []
    pos = 0
    while pos < len(tokens):
        expr, pos = _read(tokens, pos)
        forms.append(expr)
    return forms


def parse_one(text):
    """Parse text that must contain exactly one form."""
    forms = parse(text)
    if len(forms) != 1:
        raise ParseError(f"expected exactly one form, found {len(forms)}")
    return forms[0]


def _read(tokens, pos, depth=1):
    tok = tokens[pos]
    if tok.kind == "(":
        if depth > MAX_NESTING:
            raise ParseError(f"lists nested deeper than {MAX_NESTING} levels", tok.loc)
        items = []
        pos += 1
        while True:
            if pos >= len(tokens):
                raise ParseError(f"unclosed '(' opened at {tok.loc}", tok.loc,
                                 incomplete=True)
            if tokens[pos].kind == ")":
                return SList(tuple(items), tok.loc), pos + 1
            expr, pos = _read(tokens, pos, depth + 1)
            items.append(expr)
    if tok.kind == ")":
        raise ParseError("unmatched ')'", tok.loc)
    return _ATOM_NODES[tok.kind](tok.value, tok.loc), pos + 1


def escape_text(value):
    return "".join(_ESCAPES_OUT.get(c, c) for c in value)


def print_expr(expr):
    """Render an expression in canonical form: single spaces, no trailing
    whitespace, integers without exponent, reals in shortest round-trip form.
    """
    t = expr.__class__
    if t is Symbol:
        return expr.name
    if t is Integer:
        return str(expr.value)
    if t is Real:
        return repr(expr.value)
    if t is Boolean:
        return "#t" if expr.value else "#f"
    if t is Text:
        return '"' + escape_text(expr.value) + '"'
    if t is SList:
        return "(" + " ".join(print_expr(item) for item in expr.items) + ")"
    raise TypeError(f"not an expression node: {expr!r}")
