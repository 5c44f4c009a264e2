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
_ESCAPE_RE = re.compile(r"\\(.)")
_STRING_BODY = r'(?:[^"\\\n]|\\["\\nt])*'   # each escape known, no newline
_BAD_ESCAPE = re.compile('"' + _STRING_BODY + r'\\([^"\\nt])')

# The reader's one scanner.  A match is blanks and then a comment, the end,
# or a newline or token, which fills the group of its kind; no character is
# left out.
_SCAN = re.compile(
    r'[ \t\r]*(?:;[^\n]*|\Z'
    r'|(\n)'                                       # 1: a newline
    r'|(\()'                                       # 2: an opening bracket
    r'|(\))'                                       # 3: a closing bracket
    r'|("' + _STRING_BODY + '")'                   # 4: a well-formed string
    r'|([^ \t\r\n()";]+)'                         # 5: a number, boolean or symbol
    r'|("))')                                      # 6: a string that does not end well
_NEWLINE, _OPEN, _CLOSE, _STRING, _WORD = range(1, 6)


def _classify(text, loc):
    if text[0] in "+-.0123456789#":  # any other first character makes a symbol
        if _INT_RE.match(text):
            try:
                value = int(text)
            except ValueError:   # over the interpreter's limit on digits read
                raise LexError("integer literal has too many digits", loc) from None
            return Token("integer", text, value, loc)
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


def _text(quoted):
    """The value of a well-formed string literal, quotes included."""
    body = quoted[1:-1]
    return _ESCAPE_RE.sub(lambda m: _ESCAPES_IN[m[1]], body) if "\\" in body else body


def _string_error(text, i, loc):
    """Raise the error of the malformed string at `text[i]`: an unknown escape, or no end."""
    bad = _BAD_ESCAPE.match(text, i)
    if bad is None:
        raise LexError("unterminated string literal", loc)
    raise LexError(f"unknown escape '\\{bad[1]}' in string",
                   Location(loc.line, loc.column + bad.start(1) - 1 - i))


def tokenize(text):
    """Split source text into located tokens, discarding whitespace and
    comments, in one pass of the scanner.

    >>> [t.text for t in tokenize("(+ x 5)")]
    ['(', '+', 'x', '5', ')']
    """
    tokens = []
    line, start = 1, -1   # a column is an index minus `start`
    for m in _SCAN.finditer(text):
        kind = m.lastindex
        if kind == _NEWLINE:
            line += 1
            start = m.start(kind)
        elif kind is not None:
            word = m[kind]
            loc = Location(line, m.start(kind) - start)
            if kind == _WORD:
                tokens.append(_classify(word, loc))
            elif kind <= _CLOSE:
                tokens.append(Token(word, word, None, loc))
            elif kind == _STRING:
                value = _text(word)
                tokens.append(Token("string", value, value, loc))
            else:
                _string_error(text, m.start(kind), loc)
    return tokens


_ATOM_NODES = {
    "symbol": Symbol,
    "integer": Integer,
    "real": Real,
    "boolean": Boolean,
    "string": Text,
}


# the deepest list nesting the reader accepts.  The compiler and
# `print_expr` recurse over the tree, and at this depth they fit in Python's
# default recursion limit of 1000; the prelude nests 6.
MAX_NESTING = 100


def parse(text):
    """Parse source text into a list of expression trees, with a stack of the
    lists still open.  `tokenize` reads the whole text first, so a lexical
    error anywhere in it is reported before a structural one."""
    forms = items = []
    open_lists = []   # (the enclosing list's items, the location of the '(')
    for tok in tokenize(text):
        kind = tok.kind
        if kind == "(":
            if len(open_lists) >= MAX_NESTING:
                raise ParseError(f"lists nested deeper than {MAX_NESTING} levels", tok.loc)
            open_lists.append((items, tok.loc))
            items = []
        elif kind == ")":
            if not open_lists:
                raise ParseError("unmatched ')'", tok.loc)
            outer, loc = open_lists.pop()
            outer.append(SList(tuple(items), loc))
            items = outer
        else:
            items.append(_ATOM_NODES[kind](tok.value, tok.loc))
    if open_lists:
        loc = open_lists[-1][1]
        raise ParseError(f"unclosed '(' opened at {loc}", loc, incomplete=True)
    return forms


def parse_one(text):
    """Parse text that must contain exactly one form."""
    forms = parse(text)
    if len(forms) != 1:
        raise ParseError(f"expected exactly one form, found {len(forms)}")
    return forms[0]


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
