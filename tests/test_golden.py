"""Golden records: the sha256 of `--output records` for the shipped programs.

The digests were recorded before the interpreter's internals were refactored
and must not change when only internals change: the records bytes are the
reproducibility contract (same program, flags and seed, same bytes).  The
summary record echoes the absolute path of the shipped rules file, which
depends on the checkout, so that path is replaced by a fixed token before
hashing.  A change that alters the output on purpose must say why and record
new digests.
"""

import hashlib

import pytest

from problisp import rules_path

from conftest import run_cli

SAMPLES = 300

GOLDEN = {
    ("arith_query.lisp", (), 1):
        "097a30991b56c93d0c6e961f18b0d96f4c804907c528d48ca76dd177a46e4b90",
    ("arith_query.lisp", (), 7):
        "abf6d742fb95279b86afb3d8d625968d999fae6f4852225aa493cd9e9e065cfb",
    ("arith_query.lisp", ("--no-rewrite",), 1):
        "96a28a64f69e7abb3b861233928c6f7b62bc633c449722929ead4c20592aace3",
    ("arith_query.lisp", ("--no-rewrite",), 7):
        "4b349c2aaeadf90c1e231472d750468132866cda062408b73064837469f69735",
    ("two_queries.lisp", (), 1):
        "55e925b66350d730e898677969130142e02d9dd7e200910f5d6e887c88fa5939",
    ("two_queries.lisp", (), 7):
        "1716b70e574e0d3b7da0ce0b428ba49deeec3de17f829e1c685ed9bad182f47e",
    ("knowledge_sampling.lisp", ("--prelude", "std"), 1):
        "f830d3b6c89ad3b5ac49cd199fe4df787d258ff795a0e9a86514c91f0a0e4607",
    ("knowledge_sampling.lisp", ("--prelude", "std"), 7):
        "9c8e17f4fab86f4ab86c9ed9aed081810847f1edc3a770972366ecd2432eb220",
}


def records_digest(program, flags, seed):
    r = run_cli(f"programs/{program}", *flags, "--samples", SAMPLES,
                "--seed", seed, "--output", "records")
    assert r.returncode == 0, r.stderr
    text = r.stdout.replace(rules_path(), "<shipped-rules>")
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("program,flags,seed", list(GOLDEN),
                         ids=[f"{p}-{'_'.join(f) or 'default'}-seed{s}"
                              for p, f, s in GOLDEN])
def test_records_bytes_match_golden(program, flags, seed):
    assert records_digest(program, flags, seed) == GOLDEN[program, flags, seed]
