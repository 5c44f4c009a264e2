"""Runtime values and lexical environments.

Numbers, booleans and text are plain Python ``int``/``float``/``bool``/``str``;
symbols reuse the reader's Symbol node.  Pairs, closures, primitives and
concept references get their own classes.  ``None`` marks "no value" (the
result of ``define`` and the knowledge forms) and is not a language value.
"""

from __future__ import annotations

from .concepts import ConceptId
from .sexpr import Symbol, _Record, escape_text


class EmptyList:
    """The empty list; a single shared instance NIL."""

    __slots__ = ()

    def __repr__(self):
        return "()"


NIL = EmptyList()


class Pair(_Record):
    __slots__ = _fields = ("head", "tail")

    def __init__(self, head, tail):
        self.head, self.tail = head, tail


class Closure:
    """A lambda's value: its parameter names, its body compiled once with
    the form that contains the lambda, and the environment it captured.
    Closures and primitives are equal only to themselves."""

    __slots__ = ("params", "body", "env")

    def __init__(self, params, body, env):
        self.params = params
        self.body = body   # compiled code (env, ctx) -> value, or a tail call
        self.env = env


class Primitive:
    __slots__ = ("name", "fn")

    def __init__(self, name, fn):
        self.name, self.fn = name, fn

    def __repr__(self):
        return f"#<primitive {self.name}>"


class Env(dict):
    """A frame: a dict of name -> value that knows its parent frame (None at
    the root).  With no Python `__init__`, `f = Env(); f.parent = p` builds
    one with no Python call.  Frames compare and hash by identity."""

    __slots__ = ("parent",)
    __eq__ = object.__eq__
    __ne__ = object.__ne__
    __hash__ = object.__hash__


def is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def values_equal(a, b):
    """Language-level `=`: numeric across int/real, structural over booleans,
    symbols, text and lists; closures and primitives are never equal."""
    if is_number(a) and is_number(b):
        return a == b
    if isinstance(a, bool) and isinstance(b, bool):
        return a == b
    if isinstance(a, str) and isinstance(b, str):
        return a == b
    if isinstance(a, Symbol) and isinstance(b, Symbol):
        return a.name == b.name
    if a is NIL and b is NIL:
        return True
    if isinstance(a, Pair) and isinstance(b, Pair):
        return values_equal(a.head, b.head) and values_equal(a.tail, b.tail)
    if isinstance(a, ConceptId) and isinstance(b, ConceptId):
        return a == b
    return False


def _digits(n):
    """The decimal digits of the int n >= 0, in pieces of at most about 600
    digits, which every int-string limit allows (640 at the least)."""
    if n.bit_length() <= 2000:
        return str(n)
    k = n.bit_length() * 3 // 20   # about half of n's digits
    high, low = divmod(n, 10 ** k)
    return _digits(high) + _digits(low).zfill(k)


def format_value(v):
    """Render a runtime value; proper lists print like source lists."""
    if v is None:
        return "#<unspecified>"
    if isinstance(v, bool):
        return "#t" if v else "#f"
    if isinstance(v, int):
        try:
            return str(v)
        except ValueError:   # over the interpreter's int-string digit limit
            return "-" + _digits(-v) if v < 0 else _digits(v)
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, str):
        return '"' + escape_text(v) + '"'
    if isinstance(v, Symbol):
        return v.name
    if v is NIL:
        return "()"
    if isinstance(v, Pair):
        parts = []
        node = v
        while isinstance(node, Pair):
            parts.append(format_value(node.head))
            node = node.tail
        if node is NIL:
            return "(" + " ".join(parts) + ")"
        return "(" + " ".join(parts) + " . " + format_value(node) + ")"
    if isinstance(v, Closure):
        return "#<closure>"
    if isinstance(v, Primitive):
        return f"#<primitive {v.name}>"
    if isinstance(v, ConceptId):
        return f"#<concept {v.name}>"
    return repr(v)
