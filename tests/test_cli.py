import hashlib
import json

import pytest

from problisp import Pair, histogram
from problisp.sexpr import MAX_NESTING

from conftest import PROGRAMS, run_cli
from test_golden import GOLDEN, SAMPLES


@pytest.fixture
def paper_program(tmp_path):
    p = tmp_path / "query.lisp"
    p.write_text("(rejection-query\n  (define x (random-integer 10))\n"
                 "  x\n  (= (+ x 5) 10))\n")
    return p


def test_blind_run_prints_fives_and_stats(paper_program):
    r = run_cli(paper_program, "--no-rewrite", "--samples", 50, "--seed", 7, "--stats")
    assert r.returncode == 0
    lines = r.stdout.splitlines()
    assert lines[:50] == ["5"] * 50
    stats = [l for l in lines if l.startswith(";;")]
    assert any("acceptance" in l for l in stats)
    assert not any("rewrite" in l for l in stats)


def test_rewrite_run_reports_chain_and_full_acceptance(paper_program):
    r = run_cli(paper_program, "--samples", 50, "--seed", 7, "--stats")
    assert r.returncode == 0
    lines = r.stdout.splitlines()
    assert lines[:50] == ["5"] * 50
    assert any("(= (+ x 5) 10) -> (= x (- 10 5)) -> (= x 5)" in l for l in lines)
    assert any("definition (define x 5)" in l for l in lines)
    assert any("acceptance 1" in l for l in lines)


def test_records_output(paper_program):
    r = run_cli(paper_program, "--samples", 3, "--seed", 1, "--output", "records")
    assert r.returncode == 0
    records = [json.loads(l) for l in r.stdout.splitlines()]
    samples = [rec for rec in records if rec["type"] == "sample"]
    assert [s["value"] for s in samples] == ["5", "5", "5"]
    assert [s["index"] for s in samples] == [0, 1, 2]
    summary = records[-1]
    assert summary["type"] == "summary"
    assert summary["config"]["seed"] == 1
    q = summary["queries"][0]
    assert q["acceptance_rate"] == 1.0
    assert q["attempts"] == 3
    assert q["optimizer"]["fired"] is True
    assert q["optimizer"]["chain"] == [
        "(= (+ x 5) 10)", "(= x (- 10 5))", "(= x 5)"]
    assert q["optimizer"]["definition"] == "(define x 5)"


def test_empty_file(tmp_path):
    p = tmp_path / "empty.lisp"
    p.write_text("")
    r = run_cli(p)
    assert r.returncode == 0
    assert r.stdout == ""


def test_parse_error_exit_1_with_location(tmp_path):
    p = tmp_path / "bad.lisp"
    p.write_text("(foo\n")
    r = run_cli(p)
    assert r.returncode == 1
    assert "line 1, column 1" in r.stderr


def test_eval_error_exit_1(tmp_path):
    p = tmp_path / "bad.lisp"
    p.write_text("(undefined-fn 1)\n")
    r = run_cli(p)
    assert r.returncode == 1
    assert "unbound symbol" in r.stderr


def test_recursion_overflow_exit_1_with_location(tmp_path):
    p = tmp_path / "deep.lisp"
    p.write_text("(define f (lambda (n) (if (= n 0) 0 (+ 1 (f (- n 1))))))\n(f 100000)\n")
    r = run_cli(p)
    assert r.returncode == 1
    assert r.stderr == f"problisp: {p}: line 1, column 42: recursion depth exceeded\n"


@pytest.mark.parametrize("program, error", [
    ("(+ {big} 1.5)\n", "line 1, column 1: arithmetic overflow in +"),
    ("(define x 2.5)\n(list (* {big} x))\n", "line 2, column 7: arithmetic overflow in *"),
    ("(- 1 0.5 {big})\n", "line 1, column 1: arithmetic overflow in -"),
    # with rewriting on, constant folding leaves the overflowing sum unfolded
    ("(rejection-query (define x (random-integer 10)) x\n  (= (+ x (+ {big} 1.5)) 5))\n",
     "line 2, column 11: arithmetic overflow in + (attempt 1)"),
])
@pytest.mark.parametrize("flags", [(), ("--no-rewrite",)])
def test_arithmetic_overflow_exit_1_with_location(tmp_path, program, error, flags):
    p = tmp_path / "overflow.lisp"
    p.write_text(program.format(big=10 ** 400))
    r = run_cli(p, *flags)
    assert r.returncode == 1
    assert r.stdout == ""
    assert r.stderr == f"problisp: {p}: {error}\n"


@pytest.mark.parametrize("program, column", [
    ("(normal {big} 1)\n", 1),
    ("(normal {big} 0)\n", 1),
    ("(list\n  (normal 0 {big}))\n", 3),
])
def test_normal_overflow_exit_1_with_location(tmp_path, program, column):
    p = tmp_path / "normal.lisp"
    p.write_text(program.format(big=10 ** 400))
    r = run_cli(p)
    line = program.count("\n")
    assert (r.returncode, r.stdout) == (1, "")
    assert r.stderr == f"problisp: {p}: line {line}, column {column}: arithmetic overflow in normal\n"


def test_records_echo_rules_as_given(paper_program, tmp_path):
    rules = tmp_path / "rules.lisp"
    rules.write_text("(equivalence (= $A $B) (= $B $A))\n")

    def echoed(*flags):
        r = run_cli(paper_program, "--seed", 1, "--output", "records", *flags)
        assert r.returncode == 0, r.stderr
        return json.loads(r.stdout.splitlines()[-1])["config"]["rules"]

    assert echoed() == ["std"]
    assert echoed("--rules", "std", "--rules", rules) == ["std", str(rules)]
    assert echoed("--no-rewrite") == []


def test_records_are_the_bytes_json_dumps_writes(tmp_path):
    p = tmp_path / "values.lisp"
    p.write_text('(quote "h\u00e9llo \\"q\\" \\\\ \u2603 \U0001d11e")\n'
                 '(list 1 -2.5 #t (quote sym) "tab\tend")\n'
                 '(rejection-query (define x (random-integer 4)) '
                 '(list x "\u00e9" (quote (a "b"))) (< x 2))\n', encoding="utf-8")
    r = run_cli(p, "--samples", 5, "--seed", 3, "--output", "records")
    assert r.returncode == 0, r.stderr
    lines = r.stdout.splitlines()
    assert [json.loads(line)["type"] for line in lines] == ["value"] * 2 + ["sample"] * 5 \
        + ["summary"]
    for line in lines:
        assert line == json.dumps(json.loads(line), sort_keys=True)


@pytest.mark.parametrize("depth", [MAX_NESTING + 1, 16_000])
def test_nesting_past_the_limit_exit_1_with_location(tmp_path, depth):
    p = tmp_path / "nested.lisp"
    p.write_text("(+ 1 " * depth + "1" + ")" * depth + "\n")
    r = run_cli(p)
    assert r.returncode == 1
    column = 1 + 5 * MAX_NESTING
    assert r.stderr == (f"problisp: {p}: line 1, column {column}: "
                        f"lists nested deeper than {MAX_NESTING} levels\n")


def test_zero_probability_exit_2(tmp_path):
    p = tmp_path / "zp.lisp"
    p.write_text("(rejection-query (define x (random-integer 10)) x (= (+ x 5) 100))\n")
    r = run_cli(p)
    assert r.returncode == 2
    assert "outside the support" in r.stderr


def test_exhaustion_exit_2(tmp_path):
    p = tmp_path / "zp.lisp"
    p.write_text("(rejection-query (define x (random-integer 10)) x (= (+ x 5) 100))\n")
    r = run_cli(p, "--no-rewrite", "--max-attempts", 2000)
    assert r.returncode == 2
    assert "no accepted sample after 2000 attempts" in r.stderr


def test_usage_error_exit_3():
    assert run_cli("--bogus-flag").returncode == 3
    assert run_cli("--samples", 0).returncode == 3


def test_missing_file_exit_3():
    assert run_cli("no-such-file.lisp").returncode == 3


def test_unknown_context_exit_1(paper_program):
    r = run_cli(paper_program, "--context", "nope")
    assert r.returncode == 1
    assert "unknown context" in r.stderr


def test_prelude_std_and_shipped_programs():
    r = run_cli(PROGRAMS / "knowledge_sampling.lisp", "--prelude", "std",
                "--samples", 2, "--seed", 4)
    assert r.returncode == 0
    assert len(r.stdout.splitlines()) == 4  # two top-level samples + 2 query lines


def test_run_reproducibility_bytes(paper_program):
    args = (paper_program, "--samples", 20, "--seed", 123, "--output", "records",
            "--stats")
    a, b = run_cli(*args), run_cli(*args)
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_no_rewrite_and_rewrite_agree_on_point_mass(paper_program):
    fast = run_cli(paper_program, "--samples", 30, "--seed", 6)
    slow = run_cli(paper_program, "--samples", 30, "--seed", 6, "--no-rewrite")
    assert fast.stdout == slow.stdout == "5\n" * 30


def test_prelude_and_rules_load_in_flag_order(tmp_path):
    # a later prelude may rely on a concept from an earlier rules file,
    # since both are ordinary program files
    first = tmp_path / "first.lisp"
    first.write_text("(concept base)\n(is-a 1 base)\n")
    second = tmp_path / "second.lisp"
    second.write_text("(concept derived)\n(is-a base derived)\n")
    use = tmp_path / "use.lisp"
    use.write_text("(sample derived)\n")
    r = run_cli(use, "--rules", first, "--prelude", second)
    assert r.returncode == 0
    assert r.stdout == "1\n"
    # reversed flag order loads second first, which must fail
    r = run_cli(use, "--prelude", second, "--rules", first)
    assert r.returncode == 1
    assert "unknown name 'base' in is-a source" in r.stderr


def test_multiple_files_share_one_session(tmp_path):
    a = tmp_path / "a.lisp"
    a.write_text("(define shared 41)\n")
    b = tmp_path / "b.lisp"
    b.write_text("(+ shared 1)\n")
    r = run_cli(a, b)
    assert r.returncode == 0
    assert r.stdout == "42\n"


def test_repl_session(tmp_path):
    stdin = """(+ 1 2)
(define x 5)
(= (+ x 5) 10)
:seed 42
(sample number)
:seed 42
(sample number)
(rejection-query (define y (random-integer 10)) y (= (+ y 5) 10))
:stats
:concepts
:rules
nonsense-symbol
(+ 1 1)
"""
    r = run_cli("--prelude", "std", stdin=stdin)
    assert r.returncode == 0
    lines = r.stdout.splitlines()
    assert lines[0] == "3"
    assert lines[1] == "#t"
    # identical seeds replay the same sample
    i = lines.index("seed: 42")
    j = lines.index("seed: 42", i + 1)
    assert lines[i + 1] == lines[j + 1]
    assert "5" in lines[j + 2]          # the query prints its sample
    assert any("acceptance" in l for l in lines)         # :stats
    assert any(l.startswith("number (2 links)") for l in lines)   # :concepts
    assert any("isolate-add-left" in l for l in lines)   # :rules
    assert any("unbound symbol" in l for l in lines)     # error did not kill REPL
    assert lines[-1] == "2"


def test_repl_multiline_form():
    r = run_cli(stdin="(+ 1\n   2)\n")
    assert r.returncode == 0
    assert r.stdout.splitlines()[-1] == "3"


def test_repl_unknown_meta_command():
    r = run_cli(stdin=":wat\n")
    assert "unknown command" in r.stdout


# -- histogram op ----------------------------------------------------------------


def test_histogram_point_mass():
    assert histogram([5] * 1000) == "5 : 1000 (100.0%)"


def test_histogram_single_value():
    assert histogram(["only"]) == '"only" : 1 (100.0%)'


def test_histogram_discrete_ordering_numeric():
    out = histogram([2, 1, 1, 1, 3])
    assert out.splitlines() == ["1 : 3 (60.0%)", "2 : 1 (20.0%)", "3 : 1 (20.0%)"]


def test_histogram_real_bins():
    values = [0.05 + 0.1 * i for i in range(10)]
    lines = histogram(values, bins=5).splitlines()
    assert len(lines) == 5
    assert all("(20.0%)" in l for l in lines)
    assert lines[0].startswith("[0.05, 0.23)")
    assert lines[-1].endswith("] : 2 (20.0%)")


def test_histogram_geometric_lengths(prelude_session):
    # sequence lengths approximate 50%, 25%, 12.5%, ...
    from problisp import derive_rng, sample_concept

    snap = prelude_session.store.snapshot()
    seq = prelude_session.store.lookup("sequence")
    lengths = []
    rng = derive_rng(88)
    for _ in range(4000):
        v = sample_concept(snap, seq, rng, env=prelude_session.env)
        n = 0
        while isinstance(v, Pair):
            n, v = n + 1, v.tail
        lengths.append(n)
    lines = histogram(lengths).splitlines()
    assert lines[0].startswith("0 : ")
    first_pct = float(lines[0].split("(")[1].rstrip("%)"))
    second_pct = float(lines[1].split("(")[1].rstrip("%)"))
    assert abs(first_pct - 50.0) < 4.0
    assert abs(second_pct - 25.0) < 4.0


def test_histogram_empty_rejected():
    with pytest.raises(ValueError):
        histogram([])


# numpy is imported only for normal draws and integer bounds above 2**32:
# with numpy made unimportable, programs that draw neither give their
# golden records bytes
_WITHOUT_NUMPY = ("import sys; sys.modules['numpy'] = None; "
                  "from problisp.cli import main; sys.exit(main())")


@pytest.mark.parametrize("program,flags,seed", [
    key for key in GOLDEN if key[0] in ("arith_query.lisp", "two_queries.lisp")])
def test_programs_without_normal_draws_run_without_numpy(program, flags, seed):
    r = run_cli(f"programs/{program}", *flags, "--samples", SAMPLES, "--seed", seed,
                "--output", "records", code=_WITHOUT_NUMPY)
    assert r.returncode == 0, r.stderr
    assert hashlib.sha256(r.stdout.encode("utf-8")).hexdigest() == GOLDEN[program, flags, seed]
