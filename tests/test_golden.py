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
outcome, which both of that run's blind queries take.  A change that alters the output on purpose must say why and
record new digests.
"""

import hashlib

import pytest

from conftest import run_cli

SAMPLES = 300

GOLDEN = {
    ("arith_query.lisp", (), 1):
        "cdf31b929327b814d74aed4fe84e00381b40c089fb56d3a9b87c478c452fd55e",
    ("arith_query.lisp", (), 7):
        "2ee6795951892560e224ce4f0869fe2f26b82a9d6039d7863e22c0cf46ca841e",
    ("arith_query.lisp", ("--no-rewrite",), 1):
        "96a28a64f69e7abb3b861233928c6f7b62bc633c449722929ead4c20592aace3",
    ("arith_query.lisp", ("--no-rewrite",), 7):
        "4b349c2aaeadf90c1e231472d750468132866cda062408b73064837469f69735",
    ("two_queries.lisp", (), 1):
        "efe94023712acbaa5e370f4b6ec5fdb88d3464dc66472d6219ab2171077a8270",
    ("two_queries.lisp", (), 7):
        "ce6a51a99639b3c5a13d8e0711950c8ed4ab8a1f4b60087fa048cbe6607fdf17",
    ("two_queries.lisp", ("--no-rewrite",), 1):
        "84e9290f689ad466865664ccd2a2f5636d285b1fe3b64a473c82e95b6ceac6a3",
    ("two_queries.lisp", ("--no-rewrite",), 7):
        "fcd0d78416191ba97878238ba3d5dadf6295e0578de82f1a0b6c63068809fea7",
    ("knowledge_sampling.lisp", ("--prelude", "std"), 1):
        "00864d9b3572d60e251231839286bd4642b72fadb7a26ee28881b7470a60c6f1",
    ("knowledge_sampling.lisp", ("--prelude", "std"), 7):
        "05587dfc30c3de70a79fe511c3c8d53a6b9c920a4368381b96498ebf7f7fe9c4",
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
    ((), 1): "7e18190cc11b1d09bf6bf0c1878d7eff2aee9d3250b514ba2d8aaf715439e7a8",
    ((), 7): "b4a04cbac659d5b6f95bebb4174bb30b05b09d9eb78d36b47d43bfcca16acd29",
    (("--no-rewrite",), 1):
        "2adca22f59dfc136487911135c83b3e669b376e7fb8dfc112efe274a2ffe4336",
    (("--no-rewrite",), 7):
        "97ea5a4201b9be965aac1957f77e960d5f0960c4e198601729c794fb78f8a32d",
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
