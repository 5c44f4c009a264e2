"""Golden records: the sha256 of `--output records` for the shipped programs.

The digests were recorded before the interpreter's internals were refactored
and must not change when only internals change: the records bytes are the
reproducibility contract (same program, flags and seed, same bytes).  The
summary record echoes each rules file as given on the command line, and
`std` for the shipped default, so the bytes are the same in every checkout;
the digests of the runs that load rules were recorded again when the echo
stopped being the checkout's absolute path.  A change that alters the output
on purpose must say why and record new digests.
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
    ("knowledge_sampling.lisp", ("--prelude", "std"), 1):
        "162cf3bf5439356720818098752fddabe8ef3afb24eb1b894ef30c317e0e73ed",
    ("knowledge_sampling.lisp", ("--prelude", "std"), 7):
        "7949fee81acb574fd825f75af63ddc80ba9df023cfafce0954a311f20796910c",
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
