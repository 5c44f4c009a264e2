import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from problisp import NIL, EvalError, Pair, Session, cli, histogram
from problisp.sexpr import MAX_NESTING

from conftest import PROGRAMS, REPO, SRC, run_cli
from test_golden import GOLDEN, SAMPLES
from test_reference_eval import programs


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


@pytest.mark.parametrize("flags", [(), ("--no-rewrite",)])
def test_repl_stats_is_the_stats_report(paper_program, flags):
    # `:stats` prints the `;;` lines that --stats prints after the samples
    args = ("--samples", 20, "--seed", 7, *flags)
    r = run_cli(paper_program, "--stats", *args)
    stats = [l for l in r.stdout.splitlines() if l.startswith(";;")]
    assert stats[0].startswith(";; query 0: samples 20")
    repl = run_cli(*args, stdin=paper_program.read_text() + ":stats\n")
    assert repl.stdout.splitlines() == ["5"] * 20 + stats


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


_QUERY_OF_7 = "(rejection-query (define x (random-integer 3)) x (= x 7))"


@pytest.mark.parametrize("program, flags, status, error", [
    ("(concept tree) (is-a (cons tree tree) tree) (sample tree)", ("--seed", 1), 2,
     "line 1, column 45: sampling did not terminate within budget "
     "(depth 65/64, nodes 66/10000)"),
    ("(concept empty) (sample empty)", (), 1,
     "line 1, column 17: no generative model for concept 'empty'"),
    (f"(concept c) (is-a {_QUERY_OF_7} c) (sample c)",
     ("--max-attempts", 3, "--no-rewrite"), 2,
     "line 1, column 80: no accepted sample after 3 attempts"),
    (_QUERY_OF_7, ("--max-attempts", 3, "--no-rewrite"), 2,
     "line 1, column 1: sample 0: no accepted sample after 3 attempts"),
], ids=["budget", "no-model", "query-in-template", "top-level-query"])
def test_runtime_failure_reports_its_top_level_form(tmp_path, program, flags, status, error):
    # an error raised without a location gets the top-level form's
    p = tmp_path / "fails.lisp"
    p.write_text(program + "\n")
    r = run_cli(p, *flags)
    assert (r.returncode, r.stdout) == (status, "")
    assert r.stderr == f"problisp: {p}: {error}\n"


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


def test_a_blind_batch_out_of_attempts_names_its_sample_and_exits_2():
    r = run_cli("programs/arith_query.lisp", "--no-rewrite", "--max-attempts", 3,
                "--samples", 5)
    assert (r.returncode, r.stdout) == (2, "")
    assert r.stderr == ("problisp: programs/arith_query.lisp: line 4, column 1: "
                        "sample 1: no accepted sample after 3 attempts\n")


@pytest.mark.parametrize("max_attempts", [None, 10 ** 8])
def test_a_draw_free_batch_that_rejects_exits_2_at_its_first_attempt(tmp_path, max_attempts):
    # sample 0 rejects without drawing, so every attempt would: the error is
    # reported without making the attempts (10**8 of them took minutes)
    p = tmp_path / "false.lisp"
    p.write_text("(rejection-query (define x 5) x (= x 6))\n")
    flags = () if max_attempts is None else ("--max-attempts", max_attempts)
    r = run_cli(p, *flags, timeout=60)
    assert (r.returncode, r.stdout) == (2, "")
    assert r.stderr == (f"problisp: {p}: line 1, column 1: sample 0: no accepted sample "
                        f"after {max_attempts or 10 ** 6} attempts\n")


def test_usage_error_exit_3():
    assert run_cli("--bogus-flag").returncode == 3
    assert run_cli("--samples", 0).returncode == 3


def test_records_output_with_the_repl_is_a_usage_error(paper_program):
    # the REPL writes plain text, so records with no files or with --repl
    # would be plain values where records were asked for
    for args in (("--output", "records"), (paper_program, "--repl", "--output", "records")):
        r = run_cli(*args, stdin="(+ 1 2)\n")
        assert (r.returncode, r.stdout) == (3, ""), args
        assert r.stderr == ("problisp: error: --output records needs program files and "
                            "no --repl: the REPL writes text\n")


@pytest.mark.parametrize("text, column, kind", [
    ("(concept t)\n(is-a 1 t {})\n", 1, "is-a"),
    ("(concept t) (is-a 1 t)\n  (define-context c (1 t {}))\n", 3, "context")])
def test_a_weight_too_large_for_a_real_exit_1(tmp_path, text, column, kind):
    p = tmp_path / "weight.lisp"
    p.write_text(text.format(10 ** 400))
    r = run_cli(p)
    assert (r.returncode, r.stdout) == (1, "")
    assert r.stderr == (f"problisp: {p}: line 2, column {column}: "
                        f"{kind} weight is too large for a real\n")


def test_missing_file_exit_3(tmp_path):
    # a program, prelude or rules file that cannot be opened or decoded
    program = tmp_path / "one.lisp"
    program.write_text("1\n")
    undecodable = tmp_path / "bytes.lisp"
    undecodable.write_bytes(b"\xff\xfe")
    for args, path in [(("no-such-file.lisp",), "no-such-file.lisp"),
                       (("--prelude", "no-such-prelude.lisp", program), "no-such-prelude.lisp"),
                       (("--rules", "no-such-rules.lisp", program), "no-such-rules.lisp"),
                       ((undecodable,), undecodable),
                       (("--prelude", undecodable, program), undecodable)]:
        r = run_cli(*args)
        assert (r.returncode, r.stdout) == (3, ""), args
        assert r.stderr.startswith(f"problisp: cannot read '{path}': "), r.stderr
        assert r.stderr.count("\n") == 1
    with pytest.raises(EvalError, match="cannot read"):
        Session().load_file(undecodable)


_NEST = "(define nest (lambda (n acc) (if (= n 0) acc (nest (- n 1) (cons acc null)))))\n"


@pytest.mark.parametrize("form, flags", [
    ("(nest 16000 1)", ()),
    ("(nest 16000 1)", ("--output", "records")),
    ("(rejection-query (nest 16000 1) #t)", ("--stats",)),
    ("(rejection-query (nest 16000 1) #t)", ("--output", "records")),
])
def test_value_too_deep_to_print_exit_1_with_location(tmp_path, form, flags):
    p = tmp_path / "deep.lisp"
    p.write_text(_NEST + form + "\n")
    r = run_cli(p, *flags)
    assert (r.returncode, r.stdout) == (1, "")
    assert r.stderr == f"problisp: {p}: line 2, column 1: recursion depth exceeded\n"


def test_repl_value_too_deep_to_print_is_an_error():
    r = run_cli(stdin=_NEST + "(nest 16000 1)\n(nest 10000 1)\n")
    assert (r.returncode, r.stderr) == (0, "")
    assert r.stdout.splitlines() == ["error: line 1, column 1: recursion depth exceeded",
                                     "(" * 10_000 + "1" + ")" * 10_000]


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


_PAIR_QUERY = ("(rejection-query (define x (random-integer 10)) (define y (random-integer 10))"
               " (list x y) (= (list x y) (list 5 3)))")


def test_a_pin_that_an_implication_may_have_made_keeps_the_condition(tmp_path):
    # the chain shows only that the condition implies x = 5, so y is still
    # conditioned on, in a top-level query and in a nested one
    rules = tmp_path / "rules.lisp"
    rules.write_text("(implication (= (list $A $B) (list $C $D)) (= $A $C))\n")
    top = tmp_path / "top.lisp"
    top.write_text(_PAIR_QUERY + "\n")
    r = run_cli(top, "--rules", rules, "--seed", 1, "--samples", 3)
    assert (r.returncode, r.stdout, r.stderr) == (0, "(5 3)\n" * 3, "")
    r = run_cli(top, "--rules", rules, "--seed", 1, "--samples", 3, "--output", "records")
    optimizer = json.loads(r.stdout.splitlines()[-1])["queries"][0]["optimizer"]
    assert (optimizer["fired"], optimizer["definition"]) == (True, "(define x 5)")
    nested = tmp_path / "nested.lisp"
    nested.write_text(f"(define f (lambda () {_PAIR_QUERY}))\n(f)\n(f)\n")
    r = run_cli(nested, "--rules", rules, "--seed", 1)
    assert (r.returncode, r.stdout, r.stderr) == (0, "(5 3)\n" * 2, "")


@pytest.mark.parametrize("program, value", [
    (f"(+ 1 {'9' * 5000})", "1" + "0" * 5000),
    (f"(* {'9' * 2200} {'9' * 2200})", "9" * 2199 + "8" + "0" * 2199 + "1"),
], ids=["sum", "product"])
def test_integers_past_the_interpreter_digit_limit_read_and_print_in_full(
        tmp_path, program, value):
    p = tmp_path / "big.lisp"
    p.write_text(program + "\n")
    r = run_cli(p)
    assert (r.returncode, r.stdout, r.stderr) == (0, value + "\n", "")


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this Python has no limit on the digits of an integer as text")
def test_a_library_caller_prints_an_integer_past_the_digit_limit_as_the_cli_does():
    # the caller keeps the interpreter's limit, which the CLI lifts
    from problisp import format_value

    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        nines = "9" * 2200
        value = Session(seed=1).run_text(f"(* {nines} {nines})")[0].value
        assert format_value(value) == "9" * 2199 + "8" + "0" * 2199 + "1"
        assert format_value(-value - 1) == "-" + "9" * 2199 + "8" + "0" * 2199 + "2"
        assert format_value(Pair(10 ** 5000, Pair(7, NIL))) == f"({'1' + '0' * 5000} 7)"
    finally:
        sys.set_int_max_str_digits(limit)


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
    from problisp import EvalContext, sample_concept
    from problisp.rng import Draws

    seq = prelude_session.store.lookup("sequence")
    lengths = []
    ctx = EvalContext(rng=Draws(88), store=prelude_session.store,
                      global_env=prelude_session.env)
    for _ in range(4000):
        v = sample_concept(seq, ctx)
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


def test_histogram_counts_values_it_cannot_bin():
    # infinities, nan, an integer too large for a real and a range too wide
    # for one are counted per printed value
    inf = math.inf
    assert histogram([0.5, inf, 0.5, -inf]).splitlines() == [
        "-inf : 1 (25.0%)", "0.5 : 2 (50.0%)", "inf : 1 (25.0%)"]
    assert histogram([0.5, math.nan, 0.25, 0.5]).splitlines() == [
        "0.25 : 1 (25.0%)", "0.5 : 2 (50.0%)", "nan : 1 (25.0%)"]
    assert histogram([0.5, 10 ** 400]).splitlines() == [
        "0.5 : 1 (50.0%)", f"{10 ** 400} : 1 (50.0%)"]
    assert histogram([-1e308, 1e308]).splitlines() == [
        "-1e+308 : 1 (50.0%)", "1e+308 : 1 (50.0%)"]


def test_histogram_empty_rejected():
    with pytest.raises(ValueError):
        histogram([])


# numpy is imported only by `rng.derive_rng`, the tests' reference twin:
# with numpy made unimportable, the shipped programs give their golden
# records bytes, those that draw reals included
_WITHOUT_NUMPY = ("import sys; sys.modules['numpy'] = None; "
                  "from problisp.cli import main; sys.exit(main())")


@pytest.mark.parametrize("program,flags,seed", [
    key for key in GOLDEN if key[0] in ("arith_query.lisp", "two_queries.lisp")])
def test_programs_without_normal_draws_run_without_numpy(program, flags, seed):
    r = run_cli(f"programs/{program}", *flags, "--samples", SAMPLES, "--seed", seed,
                "--output", "records", code=_WITHOUT_NUMPY)
    assert r.returncode == 0, r.stderr
    assert hashlib.sha256(r.stdout.encode("utf-8")).hexdigest() == GOLDEN[program, flags, seed]


@pytest.mark.parametrize("program,flags,seed", [
    key for key in GOLDEN if key[0] == "knowledge_sampling.lisp"])
def test_knowledge_sampling_runs_without_numpy(program, flags, seed):
    r = run_cli(f"programs/{program}", *flags, "--samples", SAMPLES, "--seed", seed,
                "--output", "records", code=_WITHOUT_NUMPY)
    assert r.returncode == 0, r.stderr
    assert hashlib.sha256(r.stdout.encode("utf-8")).hexdigest() == GOLDEN[program, flags, seed]


# Runs the CLI's `main` on each argument list of argv[1] (JSON) in this one
# process and prints, as JSON, each run's exit status and stdout, and whether
# numpy is loaded afterwards; argv[2] == "block" makes numpy unimportable first.
_RECORDS_OF_RUNS = """\
import io, json, sys
if sys.argv[2] == "block":
    sys.modules["numpy"] = None
from problisp.cli import main
runs = []
for argv in json.loads(sys.argv[1]):
    sys.stdout = io.StringIO()
    status = main(argv)
    runs.append((status, sys.stdout.getvalue()))
    sys.stdout = sys.__stdout__
print(json.dumps({"runs": runs, "numpy": sys.modules.get("numpy") is not None}))
"""


def test_shipped_programs_draw_alike_without_numpy():
    # every shipped program at seeds 1-10, with and without rewriting, gives
    # the same records bytes with numpy unimportable, and none loads numpy
    argvs = [[str(path), "--prelude", "std", *flags, "--samples", "50", "--seed", str(seed),
              "--output", "records"]
             for path in sorted(PROGRAMS.glob("*.lisp")) for flags in ([], ["--no-rewrite"])
             for seed in range(1, 11)]
    outputs = {}
    for mode in ("block", "allow"):
        r = run_cli(json.dumps(argvs), mode, code=_RECORDS_OF_RUNS, timeout=300)
        assert r.returncode == 0, r.stderr
        outputs[mode] = json.loads(r.stdout)
    assert len(argvs) == 60 and all(status == 0 for status, _ in outputs["allow"]["runs"])
    assert outputs["block"]["runs"] == outputs["allow"]["runs"]
    assert outputs["allow"]["numpy"] is False


def test_cli_start_up_imports_no_library_machinery():
    # `-S` keeps out `site`, which may import importlib.resources and pathlib
    # itself; what is left is what `import problisp.cli` loads
    unwanted = ("dataclasses", "inspect", "importlib.resources", "pathlib", "numpy")
    code = "import sys, problisp.cli; print(*sorted(set(sys.argv[1:]) & set(sys.modules)))"
    r = subprocess.run([sys.executable, "-S", "-c", code, *unwanted],
                       capture_output=True, text=True, timeout=60, cwd=REPO,
                       env={**os.environ, "PYTHONPATH": str(SRC)})
    assert r.returncode == 0, r.stderr
    assert r.stdout.split() == []


def _main_status(path, seed, *flags):
    """`cli.main`'s exit status on one file, its output discarded; the
    recursion limit that `main` raises is put back."""
    limit = sys.getrecursionlimit()
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            return cli.main([str(path), "--seed", str(seed), "--samples", "5", *flags])
    finally:
        sys.setrecursionlimit(limit)


@pytest.fixture(scope="module")
def scratch_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("generated")


# every run ends in an exit status, not an exception: each generated program
# runs as a file, and after its defines its last form runs as a query value,
# once as it is and once times 1e616, so that its numbers overflow to inf;
# the plain printer, the records writers and the histogram see what it makes
@settings(max_examples=200, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(programs(), st.integers(0, 2 ** 32))
def test_cli_main_returns_a_status_on_generated_programs(scratch_dir, program, seed):
    forms = program.split("\n")
    queries = [form for form in forms if form.startswith("(define ")]
    queries += [f"(rejection-query {forms[-1]} #t)",
                f"(rejection-query (* {forms[-1]} 1e308 1e308) #t)"]
    files = [scratch_dir / "program.lisp", scratch_dir / "queries.lisp"]
    files[0].write_text(program + "\n")
    files[1].write_text("\n".join(queries) + "\n")
    for path in files:
        for flags in (("--stats",), ("--output", "records")):
            assert _main_status(path, seed, *flags) in (0, 1, 2)
