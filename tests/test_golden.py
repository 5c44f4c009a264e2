"""Golden records: the sha256 of `--output records` for the shipped programs,
and for one program of nested queries written here.

The digests were recorded before the interpreter's internals were refactored
and must not change when only internals change: the records bytes are the
reproducibility contract (same program, flags and seed, same bytes).  The
summary record echoes each rules file as given on the command line, and
`std` for the shipped default, so the bytes are the same in every checkout;
the digests of the runs that load rules were recorded again when the echo
stopped being the checkout's absolute path, and the knowledge-sampling and
nested digests when a template's concept occurrences came to be drawn left
to right.  The `two_queries.lisp --no-rewrite` digests were recorded before
a batch of literal draws came to remember each drawn value's condition
outcome, which both of that run's blind queries take.  All fourteen
digests were recorded again when the summary's config echo lost its
`context` key with weight contexts: each run's old bytes with
`"context": null, ` deleted are its new bytes.  The numpy-free runs of
tests/test_cli.py read `GOLDEN` too.  A change that alters the
output on purpose must say why and record new digests.
"""

import hashlib

import pytest

from conftest import run_cli

SAMPLES = 300

GOLDEN = {
    ("arith_query.lisp", (), 1):
        "01e1dbf7616c03313214f2c79f2d793e98eef4aad9a745abc5e2e1ad19d1b0ff",
    ("arith_query.lisp", (), 7):
        "19672f0c57e330eb30bbef2dac60ebf5a7b2bfcf43143e7fd1425a34bee1f2a4",
    ("arith_query.lisp", ("--no-rewrite",), 1):
        "8b48aca52549cf64c55f3c7072236a4e6a1c056d2ffcc89dc9e09e9ba10fe477",
    ("arith_query.lisp", ("--no-rewrite",), 7):
        "012193e537810a92b67a15013ecd9ac8314a9ec1cbf1fd5327781b9e080bd2e2",
    ("two_queries.lisp", (), 1):
        "fa00e0f91071970c9329ed12efb8f765bb35bb72d1de09421162e97d036772a0",
    ("two_queries.lisp", (), 7):
        "98a50616ad99ac0616093f439d9898d231ace4b08d07075ba1e6c014b4464081",
    ("two_queries.lisp", ("--no-rewrite",), 1):
        "b520088c8dff8509d69a219b80dabe1640b6e23c8e6533de946ef1f842a9c86b",
    ("two_queries.lisp", ("--no-rewrite",), 7):
        "e9d386287c983db0773ea077023b41c06dcf3631b527b71f40c2845ff17ba11d",
    ("knowledge_sampling.lisp", ("--prelude", "std"), 1):
        "c3fcc99cd6743f2dae64012ee8617e88d8bef2f307f1792c92725b72a54cd2f4",
    ("knowledge_sampling.lisp", ("--prelude", "std"), 7):
        "c7784dfc179ec77304960b26e7a978dcb1b6e57c6e8ea82f70345287ef64da06",
}


def records_digest(program, flags, seed):
    r = run_cli(f"programs/{program}", *flags, "--samples", SAMPLES,
                "--seed", seed, "--output", "records")
    assert r.returncode == 0, r.stderr
    return hashlib.sha256(r.stdout.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("program,flags,seed", list(GOLDEN),
                         ids=[f"{p}-{'_'.join(f) or 'default'}-seed{s}"
                              for p, f, s in GOLDEN])
def test_records_bytes_match_golden(program, flags, seed):
    assert records_digest(program, flags, seed) == GOLDEN[program, flags, seed]


# Nested queries: lambda-wrapped queries, one the rewrite pins and two it
# cannot (`(= (+ x y) 7)` and a bound `c`), and concept templates that hold
# queries mentioning concept names.  The program is written to a temporary
# directory and run from there, so the summary echoes the same file name in
# every checkout.
NESTED_PROGRAM = """
(define pin (lambda () (rejection-query (define x (random-integer 10)) x (= (+ x 5) 10))))
(define pair-sum (lambda () (rejection-query (define x (random-integer 6))
                                             (define y (random-integer 8))
                                             (list x y) (= (+ x y) 7))))
(define above (lambda (c) (rejection-query (define x (random-integer 10)) x (< c x))))
(list (pin) (pair-sum) (above 6) (pin) (pair-sum) (above 2))
(concept coin) (is-a #t coin) (is-a #f coin 3)
(concept die) (is-a 1 die) (is-a 2 die) (is-a 3 die 2)
(concept roll)
(is-a (rejection-query (define a (random-integer die)) (list a die coin) (< a 2)) roll)
(is-a (rejection-query (define k (random-integer 10)) (list k coin) (= (+ k 2) 5)) roll 2)
(list (sample roll) (sample roll))
(rejection-query (define r (sample roll)) (define p (pair-sum))
                 (list r p (pin) (above 4)) (< (first p) 5))
"""

NESTED_SAMPLES = 50

NESTED_GOLDEN = {
    ((), 1): "0ee6545222c50b3010d55384b37ac77cb3c31d485973163b18d21876fc22cddd",
    ((), 7): "65a9509ccdc0da18f9d49a19c3efff35c5ce6ce2c911ab26818ff82a28a10929",
    (("--no-rewrite",), 1):
        "6df0ab038984765ff93461df927b3898168c82990dac377e70a239540c666040",
    (("--no-rewrite",), 7):
        "cf64a0aaeeddee0b189522b5e8bdb5dfbb30a3b8a7524e7ee0b2f971d07c25ea",
}


@pytest.mark.parametrize("flags,seed", list(NESTED_GOLDEN),
                         ids=[f"{'_'.join(f) or 'default'}-seed{s}" for f, s in NESTED_GOLDEN])
def test_nested_query_records_bytes_match_golden(flags, seed, tmp_path):
    (tmp_path / "nested.lisp").write_text(NESTED_PROGRAM, encoding="utf-8")
    r = run_cli("nested.lisp", *flags, "--samples", NESTED_SAMPLES, "--seed", seed,
                "--output", "records", cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    digest = hashlib.sha256(r.stdout.encode("utf-8")).hexdigest()
    assert digest == NESTED_GOLDEN[flags, seed]
