"""The reader as it was before it scanned with one regular expression: a
character-by-character tokenizer and a recursive-descent parser over its
tokens.  `tests/test_sexpr.py` holds `problisp.sexpr` to it on random texts
and on the shipped sources: the same trees, locations and errors.
"""

import re
from math import isinf

from problisp.errors import LexError, ParseError
from problisp.sexpr import (MAX_NESTING, Boolean, Integer, Location, Real, SList, Symbol,
                            Text, Token)

_INT_RE = re.compile(r"[+-]?[0-9]+\Z")
_REAL_RE = re.compile(r"[+-]?(?:[0-9]+\.[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?\Z"
                      r"|[+-]?[0-9]+[eE][+-]?[0-9]+\Z")
_ESCAPES_IN = {'"': '"', "\\": "\\", "n": "\n", "t": "\t"}
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
    """Split source text into located tokens, discarding whitespace and comments."""
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


def parse(text):
    """Parse source text into a list of expression trees."""
    tokens = tokenize(text)
    forms = []
    pos = 0
    while pos < len(tokens):
        expr, pos = _read(tokens, pos)
        forms.append(expr)
    return forms


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
