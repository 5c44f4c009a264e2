"""Python call budgets of the two hot paths, recursive concept sampling and
the blind rejection loop, of two queries that draw nothing, and of the
condition solver.

The evaluator specializes its hot call shapes (see the evaluator module
docstring).  These tests count the Python function calls that problisp's
own code makes for one fixed query of each kind, with `sys.setprofile`, and
fail when a change makes more of them than the budget.  Each query is
counted alone, in a fresh `python` child with `PYTHONPATH=src` that runs
this file as a script, so that no earlier test has warmed a cache for it.
The counts are deterministic for a fixed seed, so no wall clock is
involved.  A budget is an upper bound: an interpreter that inlines
comprehensions (Python 3.12 and later) counts fewer calls.

Run one query's count by hand with
`PYTHONPATH=src python tests/test_call_budget.py blind_query`.
"""

import json
import os
import subprocess
import sys

import problisp
from problisp import (ExhaustionError, QuerySpec, Session, ZeroProbabilityError,
                      optimize_query_detail, parse_one, prelude_path, rules_path)

PACKAGE = os.path.dirname(problisp.__file__) + os.sep
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# A call count is a deterministic stand-in for the cost of a hot path: one
# more call in a rejection attempt or a concept expansion is one more Python
# frame on every one of the ~10^5 attempts of a query.  Each budget is the
# count, on Python 3.11, of the change that set it; a change that needs more
# calls shows it here and is measured on the benchmark before a budget moves.
CONCEPT_BUDGET = 2976
# 2551 while every attempt ran the definition's and the condition's code,
# before a batch of literal draws remembered each value's condition outcome;
# 818 while the compiler had a shape of its own for a one-argument
# random-integer, which the memo now draws itself
BLIND_BUDGET = 816
# 1790 while every attempt built an Env and its dict, each sample ran its own
# attempt loop, and the reader recursed once for every node it read; 1173
# while a batch ran every sample of a query that draws nothing; 178 while
# the optimizer filtered the defines and read each literal prior itself
PINNED_BUDGET = 176
# a batch whose first sample rejects without drawing raises the exhaustion
# after that one attempt; making all 10**6 of them took 3000094 calls
DRAW_FREE_FALSE_BUDGET = 97
# 967 until the solver tried only the rewrites that can lower the target's
# depth.  What that saved is the headroom for ROADMAP item 1's Real-literal
# check, which went over the old budget (1074 against 967); the change that
# adds it sets the new count here.
SOLVER_BUDGET = 471

# many_queries shapes: a 3-op chain, an out-of-support chain, and the two
# two-variable conditions, which the optimizer cannot pin
SOLVER_QUERIES = (
    "(rejection-query (define x (random-integer 50)) x (= (- (+ (- x 3) 12) 7) 30))",
    "(rejection-query (define z (random-integer 20)) z (= (+ (- 40 z) 5) 100))",
    "(rejection-query (define x (random-integer 6)) (define y (random-integer 8)) "
    "(list x y) (= (+ x y) 7))",
    "(rejection-query (define a (random-integer 5)) (define b (random-integer 7)) "
    "(list a b) (< a b))",
)


def _count_calls(thunk):
    """Python calls into problisp's code while `thunk()` runs, and its value."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(PACKAGE):
            calls += 1

    sys.setprofile(profile)
    try:
        value = thunk()
    finally:
        sys.setprofile(None)
    return calls, value


def _calls(session, text):
    """Python calls into problisp's code while `session` runs `text`."""
    calls, (result,) = _count_calls(lambda: session.run_text(text))
    return calls, result.report


def concept_query():
    """(calls, attempts) of a recursive concept-sampling query."""
    s = Session(seed=3, samples=25, rewrite=False)
    s.load_file(prelude_path())
    calls, report = _calls(s, "(rejection-query (define x (sample integer)) x (< x 3))")
    return calls, report.total_attempts


def blind_query():
    """(calls, attempts) of a blind rejection query."""
    s = Session(seed=3, samples=50, rewrite=False)
    calls, report = _calls(
        s, "(rejection-query (define x (random-integer 10)) x (= (+ x 5) 10))")
    return calls, report.total_attempts


def pinned_query():
    """(calls, attempts) of the paper's query with the shipped rules, which
    pin x: every attempt is accepted, so the count is each sample's own
    cost in the attempt loop."""
    s = Session(seed=3, samples=200)
    s.load_file(rules_path())
    calls, report = _calls(
        s, "(rejection-query (define x (random-integer 10)) x (= (+ x 5) 10))")
    return calls, report.total_attempts


def draw_free_false_query(max_attempts):
    """(calls, attempts) of a query whose first sample rejects without
    drawing: the count may not grow with `max_attempts`."""
    s = Session(seed=3, samples=200, max_attempts=max_attempts)

    def run():
        try:
            s.run_text("(rejection-query (define x 5) x (= x 6))")
        except ExhaustionError as err:
            return err.attempts
    return _count_calls(run)


def solver_queries():
    """(calls, fired) of optimizing the many_queries shapes, after the rules
    compile their matchers at first use; fired is None where the condition
    is unsatisfiable."""
    s = Session(seed=0)
    s.load_file(rules_path())
    rules = tuple(s.rules)
    specs = [QuerySpec.from_form(parse_one(text)) for text in SOLVER_QUERIES]

    def optimize_all():
        fired = []
        for spec in specs:
            try:
                fired.append(optimize_query_detail(spec, rules).fired)
            except ZeroProbabilityError:
                fired.append(None)
        return fired

    optimize_all()
    return _count_calls(optimize_all)


def _in_child(query, *args):
    """What `query(*args)` returns when it runs alone in a fresh Python
    process; `args` are ints."""
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), query.__name__,
                           *map(str, args)],
                          env=dict(os.environ, PYTHONPATH=SRC), capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_concept_query_call_budget():
    calls, attempts = _in_child(concept_query)
    assert attempts == 39   # the same work as when the budget was set
    assert calls <= CONCEPT_BUDGET


def test_blind_query_call_budget():
    calls, attempts = _in_child(blind_query)
    assert attempts == 438
    assert calls <= BLIND_BUDGET


def test_pinned_query_call_budget():
    calls, attempts = _in_child(pinned_query)
    assert attempts == 200
    assert calls <= PINNED_BUDGET


def test_draw_free_false_query_call_budget():
    counts = []
    for max_attempts in (10 ** 6, 10 ** 8):
        calls, attempts = _in_child(draw_free_false_query, max_attempts)
        assert attempts == max_attempts
        counts.append(calls)
    assert counts[0] == counts[1] <= DRAW_FREE_FALSE_BUDGET


def test_solver_call_budget():
    calls, fired = _in_child(solver_queries)
    assert fired == [True, None, False, False]   # the same work as when the budget was set
    assert calls <= SOLVER_BUDGET


if __name__ == "__main__":
    print(json.dumps(globals()[sys.argv[1]](*map(int, sys.argv[2:]))))
