"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
print.  Statistical checks use the stated oracles (brute-force enumeration,
binomial standard deviations) at the stated tolerances.
"""

import itertools
import json
import math
import random
import time
from contextlib import contextmanager

from problisp import (EvalContext, QuerySpec, Session, match, parse_one,
                      prelude_path, print_expr, rules_path, run_samples,
                      sample_concept, standard_env, substitute,
                      solve_condition)
from problisp.rng import Draws
from problisp.sexpr import SList, Symbol
from problisp.values import Pair

from _lang import eval_condition
from conftest import PROGRAMS, run_cli

PAPER_QUERY = "(rejection-query (define x (random-integer 10)) x (= (+ x 5) 10))"


@contextmanager
def criterion(num, title):
    try:
        yield
    except BaseException:
        print(f"[C{num}] FAIL - {title}")
        raise
    print(f"[C{num}] PASS - {title}")


def _default_rules():
    s = Session(seed=0)
    s.load_file(rules_path())
    return tuple(s.rules)


def test_c1_paper_query_blind():
    with criterion(1, "paper query, blind mode: all samples 5, acceptance ~0.10, <5s"):
        spec = QuerySpec.from_form(parse_one(PAPER_QUERY))
        env = standard_env()
        start = time.perf_counter()
        report = run_samples(spec, 10_000, env, seed=42)
        elapsed = time.perf_counter() - start
        assert all(v == 5 for v in report.samples)
        # oracle: brute force over {0..9} leaves exactly one satisfying value
        p = sum(1 for x in range(10) if x + 5 == 10) / 10
        assert p == 0.10
        sigma = math.sqrt(p * (1 - p) / report.total_attempts)
        assert abs(report.acceptance_rate - p) < 4 * sigma
        assert elapsed < 5.0, f"blind run took {elapsed:.2f}s"


def test_c2_paper_query_optimized():
    with criterion(2, "paper query, optimized: exact chain, acceptance exactly 1.0"):
        session = Session(seed=42, samples=10_000)
        session.load_file(rules_path())
        result = session.run_text(PAPER_QUERY)[0]
        assert all(v == 5 for v in result.report.samples)
        outcome = result.optimize
        assert outcome.fired
        assert [print_expr(c) for c in outcome.chain] == [
            "(= (+ x 5) 10)", "(= x (- 10 5))", "(= x 5)"]
        assert print_expr(outcome.definition) == "(define x 5)"
        assert result.report.acceptance_rate == 1.0
        assert result.report.total_attempts == len(result.report.samples)  # zero rejections


# -- criterion 3: generated rewrite soundness suite ------------------------------


def _generated_programs():
    """Deterministic corpus of programs with finite-support priors."""
    rnd = random.Random(20240101)
    programs = []

    def add(kind, supports, query, condition):
        programs.append({"kind": kind, "supports": supports, "query": query,
                         "condition": condition})

    for _ in range(4):  # paper shape: (= (+ x k) m), solution in support
        n = rnd.randint(6, 12)
        sol = rnd.randrange(n)
        k = rnd.randint(1, 9)
        add("point", {"x": n}, "x", f"(= (+ x {k}) {sol + k})")
    for _ in range(3):  # (= (- x k) m)
        n = rnd.randint(6, 12)
        sol = rnd.randrange(n)
        k = rnd.randint(1, 9)
        add("point", {"x": n}, "x", f"(= (- x {k}) {sol - k})")
    for _ in range(3):  # (= (- k x) m)
        n = rnd.randint(6, 12)
        sol = rnd.randrange(n)
        k = sol + rnd.randint(1, 9)
        add("point", {"x": n}, "x", f"(= (- {k} x) {k - sol})")
    for _ in range(3):  # nested, needs two rule applications
        n = rnd.randint(6, 12)
        sol = rnd.randrange(n)
        a, b = rnd.randint(1, 5), rnd.randint(1, 5)
        add("point", {"x": n}, "x", f"(= (+ (+ x {a}) {b}) {sol + a + b})")
    for _ in range(3):  # ground side needs folding
        n = rnd.randint(6, 12)
        sol = rnd.randrange(n)
        k = rnd.randint(1, 5)
        m = sol + k
        add("point", {"x": n}, "x", f"(= (+ x {k}) (+ {m - 2} 2))")
    for _ in range(3):  # not solvable by the rule family: stays a blind search
        n = rnd.randint(6, 12)
        k = rnd.randint(2, n - 1)
        add("unsolved", {"x": n}, "x", f"(< x {k})")
    for _ in range(2):  # second variable stays random: non-point-mass posterior
        n, m = rnd.randint(6, 10), rnd.randint(3, 5)
        sol = rnd.randrange(n)
        k = rnd.randint(1, 9)
        add("mixed", {"x": n, "y": m}, "(list x y)", f"(= (+ x {k}) {sol + k})")
    return programs


def _brute_satisfaction(condition, supports):
    names = list(supports)
    cond = parse_one(condition) if isinstance(condition, str) else condition
    out = set()
    for combo in itertools.product(*(range(supports[n]) for n in names)):
        if eval_condition(cond, dict(zip(names, combo))) is True:
            out.add(combo)
    return frozenset(out)


def _format_samples(samples):
    from problisp import format_value

    return [format_value(v) for v in samples]


def test_c3_rewrite_soundness_suite():
    with criterion(3, "rewrite soundness: >=20 generated programs, sets and posteriors agree, <60s"):
        rules = _default_rules()
        programs = _generated_programs()
        assert len(programs) >= 20
        start = time.perf_counter()
        env = standard_env()
        for i, prog in enumerate(programs):
            supports, cond_src = prog["supports"], prog["condition"]
            # satisfaction sets identical before/after solve_condition
            solved = solve_condition(parse_one(cond_src), "x", rules)
            assert _brute_satisfaction(cond_src, supports) == \
                _brute_satisfaction(solved.condition, supports), cond_src

            defs = " ".join(f"(define {n} (random-integer {supports[n]}))"
                            for n in supports)
            src = f"(rejection-query {defs} {prog['query']} {cond_src})"
            spec = QuerySpec.from_form(parse_one(src))
            from problisp import optimize_query_detail

            outcome = optimize_query_detail(spec, rules)
            if prog["kind"] == "point":
                assert outcome.fired, cond_src
                sat = _brute_satisfaction(cond_src, supports)
                assert len(sat) == 1
                expected = next(iter(sat))[0]
                opt = run_samples(outcome.spec, 300, env, seed=(7000, i))
                unopt = run_samples(spec, 300, env, seed=(8000, i))
                # point-mass posterior: identical value multisets, exactly
                assert _format_samples(opt.samples) == _format_samples(unopt.samples) \
                    == [str(expected)] * 300
                assert opt.acceptance_rate == 1.0
            elif prog["kind"] == "unsolved":
                assert not outcome.fired
                assert outcome.spec is spec
                # identical spec and seed: identical samples by determinism
                a = run_samples(spec, 300, env, seed=(9000, i))
                b = run_samples(outcome.spec, 300, env, seed=(9000, i))
                assert _format_samples(a.samples) == _format_samples(b.samples)
            else:  # mixed: x pinned, y still random; compare distributions at 4 sigma
                assert outcome.fired
                n = 10_000
                opt = run_samples(outcome.spec, n, env, seed=(10_000, i))
                unopt = run_samples(spec, n, env, seed=(11_000, i))
                sat = _brute_satisfaction(cond_src, supports)
                xs = {c[0] for c in sat}
                assert len(xs) == 1
                m = supports["y"]
                opt_counts = {}
                unopt_counts = {}
                for rep, counts in ((opt, opt_counts), (unopt, unopt_counts)):
                    for v in rep.samples:
                        key = _format_samples([v])[0]
                        counts[key] = counts.get(key, 0) + 1
                assert set(opt_counts) == set(unopt_counts)
                for key in opt_counts:
                    p = 1 / m  # true posterior: y uniform, x pinned
                    sd = math.sqrt(p * (1 - p) / n)
                    assert abs(opt_counts[key] / n - p) < 4 * sd, key
                    assert abs(unopt_counts[key] / n - p) < 4 * sd, key
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"soundness suite took {elapsed:.1f}s"


def test_c4_number_concept_distribution():
    with criterion(4, "number model: P(pi)~0.25, int/real split ~0.5, normal mean ~0"):
        session = Session(seed=0)
        session.load_file(prelude_path())
        snap = session.store.snapshot()
        number = session.store.lookup("number")
        ctx = EvalContext(rng=Draws(20240817), snapshot=snap, global_env=session.env)
        n = 100_000
        pi_count = int_count = 0
        normal_draws = []
        for _ in range(n):
            v = sample_concept(number, ctx)
            if isinstance(v, int):
                int_count += 1
            elif v == math.pi:
                pi_count += 1
            else:
                normal_draws.append(v)
        sd = math.sqrt(0.25 * 0.75 / n)
        assert abs(pi_count / n - 0.25) < 4 * sd
        sd = math.sqrt(0.5 * 0.5 / n)
        assert abs(int_count / n - 0.5) < 4 * sd
        m = len(normal_draws)
        mean = sum(normal_draws) / m
        assert abs(mean) < 6 / math.sqrt(m)


def test_c5_sequence_length_law():
    with criterion(5, "sequence model: P(length=k) ~ 2^-(k+1) for k in 0..4"):
        session = Session(seed=0)
        session.load_file(prelude_path())
        snap = session.store.snapshot()
        seq = session.store.lookup("sequence")
        ctx = EvalContext(rng=Draws(515151), snapshot=snap, global_env=session.env)
        n = 100_000
        counts = {}
        for _ in range(n):
            v = sample_concept(seq, ctx)
            k = 0
            while isinstance(v, Pair):
                k, v = k + 1, v.tail
            counts[k] = counts.get(k, 0) + 1
        for k in range(5):
            p = 2.0 ** -(k + 1)
            sd = math.sqrt(p * (1 - p) / n)
            assert abs(counts.get(k, 0) / n - p) < 4 * sd, f"length {k}"


def test_c6_matcher_substitution_properties():
    with criterion(6, "matcher: 10^4 substitute/match round-trips, non-linear rejection"):
        rnd = random.Random(606060)
        var_pool = ["$A", "$B", "$C", "$D"]
        value_pool = ["7", "-2", "3.5", "#t", "z", "(g 1)", "(h (i 2) j)", '"s"']

        def random_pattern(depth):
            if depth == 0 or rnd.random() < 0.3:
                if rnd.random() < 0.6:
                    return parse_one(rnd.choice(var_pool))
                return parse_one(rnd.choice(["f", "1", "w"]))
            head = [parse_one(rnd.choice(["f", "g", "+", "="]))]
            kids = [random_pattern(depth - 1) for _ in range(rnd.randint(1, 3))]
            return SList(tuple(head + kids))

        def vars_of(expr):
            out = set()

            def walk(e):
                if e.__class__ is Symbol and e.name.startswith("$"):
                    out.add(e.name)
                elif e.__class__ is SList:
                    for item in e.items:
                        walk(item)

            walk(expr)
            return out

        for i in range(10_000):
            pattern = random_pattern(3)
            bindings = {v: parse_one(rnd.choice(value_pool))
                        for v in vars_of(pattern)}
            expr = substitute(pattern, bindings)
            assert match(pattern, expr) == bindings, print_expr(pattern)
            # non-linear rejection: a repeated variable must see equal parts
            v1, v2 = rnd.sample(value_pool, 2)
            nl = parse_one(f"(op $A $A)")
            assert match(nl, parse_one(f"(op {v1} {v2})")) is None
            assert match(nl, parse_one(f"(op {v1} {v1})")) == \
                {"$A": parse_one(v1)}


def test_c7_cli_determinism_over_example_corpus():
    with criterion(7, "determinism: byte-identical records output across CLI reruns"):
        runs = []
        for _ in range(2):
            chunks = []
            for program, extra in (
                ("arith_query.lisp", []),
                ("knowledge_sampling.lisp", ["--prelude", "std"]),
                ("two_queries.lisp", []),
            ):
                r = run_cli(PROGRAMS / program, "--samples", 100, "--seed", 404,
                            "--output", "records", "--stats", *extra)
                assert r.returncode == 0, r.stderr
                chunks.append(r.stdout)
            runs.append("".join(chunks))
        assert runs[0] == runs[1]
        # sanity: the output really is machine-readable records
        for line in runs[0].splitlines():
            json.loads(line)


def test_c8_safety_budget_and_zero_probability(tmp_path):
    with criterion(8, "safety: budget abort under watchdog; zero-probability exit 2"):
        rigged = tmp_path / "rigged.lisp"
        rigged.write_text("""
(concept item)
(is-a 0 item)
(concept chain)
(is-a null chain 1)
(is-a (cons item chain) chain 1000000)
(sample chain)
""")
        r = run_cli(rigged, timeout=10)  # watchdog: must terminate, not hang
        assert r.returncode == 2
        assert "did not terminate within budget" in r.stderr

        zp = tmp_path / "zp.lisp"
        zp.write_text("(rejection-query (define x (random-integer 10)) x "
                      "(= (+ x 5) 100))\n")
        r = run_cli(zp, timeout=10)
        assert r.returncode == 2
        assert "outside the support" in r.stderr

        r = run_cli(zp, "--no-rewrite", "--max-attempts", 20_000, timeout=30)
        assert r.returncode == 2
        assert "no accepted sample after 20000 attempts" in r.stderr
