"""Benchmark inputs and their oracles, all made from a seed.

Every oracle here is plain Python over the generator's own parameters; none
of them calls problisp, so a defect in problisp's evaluator or printer cannot
hide itself by also being in the oracle.
"""

from __future__ import annotations

import itertools
import math
import random
import re
from dataclasses import dataclass


def _literal(value):
    """Source text of a numeric literal; reals in shortest round-trip form."""
    return repr(value) if isinstance(value, float) else str(value)


@dataclass(frozen=True)
class Chain:
    """`(= (op_k ... (op_1 var c_1) ... c_k) target)` over `var ~ (random-integer n)`.

    Each op is `(sign, constant, var_first)`: `var_first` renders
    `(sign <inner> constant)`, otherwise `(sign constant <inner>)`.
    """

    var: str
    n: int
    ops: tuple
    target: object

    def value(self, x):
        """The chain at `x` with Python arithmetic, applied innermost first
        exactly as problisp's `+`/`-` apply it (`(+ a b)` is `0 + a + b`)."""
        v = x
        for sign, c, var_first in self.ops:
            if sign == "+":
                v = v + c if var_first else c + v
            else:
                v = v - c if var_first else c - v
        return v

    def condition(self):
        text = self.var
        for sign, c, var_first in self.ops:
            text = (f"({sign} {text} {_literal(c)})" if var_first
                    else f"({sign} {_literal(c)} {text})")
        return f"(= {text} {_literal(self.target)})"

    def query(self):
        return (f"(rejection-query (define {self.var} (random-integer {self.n})) "
                f"{self.var} {self.condition()})")

    def satisfaction_set(self):
        """Printed values of every `x` in the support that satisfies the condition."""
        return frozenset(str(x) for x in range(self.n) if self.value(x) == self.target)


@dataclass(frozen=True)
class TwoVar:
    """`(= (+ x y) c)` (op "+") or `(< x y)` (op "<") over two independent
    uniform integers; the optimizer cannot pin either variable, so the query
    samples blind."""

    x: str
    y: str
    nx: int
    ny: int
    op: str
    c: int = 0

    def condition(self):
        if self.op == "<":
            return f"(< {self.x} {self.y})"
        return f"(= (+ {self.x} {self.y}) {self.c})"

    def query(self):
        return (f"(rejection-query (define {self.x} (random-integer {self.nx})) "
                f"(define {self.y} (random-integer {self.ny})) "
                f"(list {self.x} {self.y}) {self.condition()})")

    def satisfaction_set(self):
        return frozenset(f"({a} {b})" for a in range(self.nx) for b in range(self.ny)
                         if (a < b if self.op == "<" else a + b == self.c))


# The paper's worked query, as shipped in programs/arith_query.lisp.
ARITH = Chain("x", 10, (("+", 5, True),), 10)
ARITH_PROGRAM = ("; Find the value whose sum with 5 equals 10.\n"
                 "(rejection-query\n  (define x (random-integer 10))\n  x\n"
                 "  (= (+ x 5) 10))\n")

# programs/knowledge_sampling.lisp: needs the shipped prelude.
CONCEPT_PROGRAM = ("(sample number)\n(sample sequence)\n\n(rejection-query\n"
                   "  (define x (sample integer))\n  x\n  (< x 3))\n")

_INT = re.compile(r"-?[0-9]+\Z")


def concept_sample_ok(text):
    """A query sample of CONCEPT_PROGRAM is an integer below 3."""
    return _INT.match(text) is not None and int(text) < 3


def integer_model(k):
    """P(X = k) for the prelude's integer: a fair sign on a magnitude M with
    P(M = m) = 0.1 * 0.9**m, so both signs put 0.1 on zero."""
    if k == 0:
        return 0.1
    return 0.5 * 0.1 * 0.9 ** abs(k)


# Under the condition x < 3: P(x < 3) = 1 - 0.5 * 0.9**3.
_P_BELOW_3 = 1 - 0.5 * 0.9 ** 3
CONCEPT_FREQUENCIES = {
    "x = 0": (lambda v: v == 0, integer_model(0) / _P_BELOW_3),
    "x = 1": (lambda v: v == 1, integer_model(1) / _P_BELOW_3),
    "x = 2": (lambda v: v == 2, integer_model(2) / _P_BELOW_3),
    "x < 0": (lambda v: v < 0, 0.5 * 0.9 / _P_BELOW_3),
}
# Allowed deviation of an observed frequency, in binomial standard errors.
FREQUENCY_SIGMAS = 5.0


def frequency_check(values):
    """Compare frequencies of CONCEPT_FREQUENCIES events among integer samples
    with the closed-form model; returns (ok, rows of (event, observed, expected))."""
    n = len(values)
    rows = []
    ok = n > 0
    for event, (test, p) in CONCEPT_FREQUENCIES.items():
        observed = sum(1 for v in values if test(v)) / n if n else 0.0
        rows.append((event, observed, p))
        if n and abs(observed - p) > FREQUENCY_SIGMAS * math.sqrt(p * (1 - p) / n):
            ok = False
    return ok, rows


# Queries of each condition shape in every block of 20 many_queries queries.
# The mix is that of the 20 hand-written rejection queries in programs/ and
# tests/ whose priors are `random-integer` and whose conditions have one of
# these shapes (the generated suite of tests/test_acceptance.py left out):
# - solvable: arith_query.lisp, the second query of two_queries.lisp,
#   test_acceptance.py (paper query), test_cli.py (2), test_inference.py (1),
#   test_rewrite.py (3);
# - out_of_support: `(= (+ x 5) 100)` in test_acceptance.py, test_cli.py (2)
#   and test_rewrite.py, and `(= x 99)` in test_inference.py;
# - two_var: `(= (+ x y) c)` in test_inference.py (2) and test_rewrite.py,
#   and `(< x y)` in two_queries.lisp;
# - real: `(= (+ x 0.5) 3)` and `(= (+ x 2.5) 7.5)` in test_rewrite.py.
QUERY_MIX = (("solvable", 9), ("out_of_support", 5), ("two_var", 4), ("real", 2))
# The two-variable conditions of a block, in the same 3 : 1 proportion.
TWO_VAR_OPS = ("+", "+", "+", "<")
_NAMES = ("x", "y", "z", "a", "b", "u", "v", "w")


def _chain(rng, var, n, x, real):
    ops = []
    for _ in range(rng.randint(1, 3)):
        c = round(rng.uniform(0.1, 50), 1) if real and (not ops or rng.random() < 0.5) \
            else rng.randint(1, 50)
        ops.append((rng.choice("+-"), c, rng.random() < 0.7))
    chain = Chain(var, n, tuple(ops), 0)
    return Chain(var, n, chain.ops, chain.value(x))


def _two_var(rng, op):
    """A TwoVar.  A sum condition has min(nx, ny) solutions, so it accepts
    with probability 1 / max(nx, ny), between 1/8 and 1/3; `(< x y)` accepts
    with probability at least 1/8."""
    x, y = rng.sample(_NAMES, 2)
    nx, ny = rng.randint(3, 8), rng.randint(3, 8)
    if op == "<":
        return TwoVar(x, y, nx, ny, op)
    return TwoVar(x, y, nx, ny, op, rng.randint(min(nx, ny) - 1, max(nx, ny) - 1))


def make_query(rng, kind, op="+"):
    """One query of the given condition shape; `op` picks a two_var condition."""
    if kind == "two_var":
        return _two_var(rng, op)
    var = rng.choice(_NAMES)
    n = rng.randint(5, 100)
    if kind == "out_of_support":
        x = rng.choice([rng.randint(-50, -1), rng.randint(n, n + 50)])
    else:
        x = rng.randrange(n)
    return _chain(rng, var, n, x, real=kind == "real")


def make_sessions(seed, sessions, queries):
    """`sessions` lists of `queries` (kind, spec) pairs, each list mixing the
    shapes in QUERY_MIX's proportions in a random order; a pure function of seed."""
    rng = random.Random(f"many_queries:{seed}")
    block = [kind for kind, count in QUERY_MIX for _ in range(count)]
    out = []
    for _ in range(sessions):
        kinds = (block * (queries // len(block) + 1))[:queries]
        rng.shuffle(kinds)
        ops = itertools.cycle(TWO_VAR_OPS)
        out.append([(k, make_query(rng, k, next(ops) if k == "two_var" else "+"))
                    for k in kinds])
    return out


def unit_seeds(name, seed, count):
    """The problisp --seed of each unit of a workload; a pure function of seed."""
    rng = random.Random(f"{name}:{seed}")
    return [rng.randrange(1 << 31) for _ in range(count)]
