"""Python call budgets of the two hot paths, recursive concept sampling and
the blind rejection loop, and of the condition solver.

The evaluator specializes its hot call shapes (see the evaluator module
docstring).  These tests count the Python function calls that problisp's
own code makes for one fixed query of each kind, with `sys.setprofile`, and
fail when a change makes more of them than the budget.  The counts are
deterministic for a fixed seed, so no wall clock is involved.  A budget is
an upper bound: an interpreter that inlines comprehensions (Python 3.12 and
later) counts fewer calls.
"""

import os
import sys

import problisp
from problisp import (QuerySpec, Session, ZeroProbabilityError, optimize_query_detail,
                      parse_one, prelude_path, rules_path)

PACKAGE = os.path.dirname(problisp.__file__) + os.sep

# counted on Python 3.11, each test alone in a fresh process, at the change
# that makes every record a plain class (a process's first stream builds the
# seeding's hash tables, 17 of these calls).  Record constructors now count:
# generated ones ran from "<string>", which the profile hook does not count.
# The query's value is run without `evaluate`, and the sampler finds a
# concept's rows by its name, with no ConceptId hash.
# Earlier counts, newest first: 3627 and 3552 (`EvalContext` the one carrier
# of evaluation state), 3628 and 3553 (`rng.Draws` the only draw
# source), 3671 and 3557 (PCG64 stepped in pure Python, a call started
# from an operator bound when compiling), 3766 and 3638 (local operands,
# literal draw bounds and definitions read inline), 6343 and 5822
# (specialized call shapes), and 8550 and 8056 before those
CONCEPT_BUDGET = 3606
BLIND_BUDGET = 3506
# counted at the change that makes every record a plain class, whose
# optimizer checks the rules' symbols with one set union instead of a
# generator; 989 at the change that solves only for literal (random-integer
# n) priors, 1005 at the change that compiles rule patterns and tries rules
# only at nodes that hold the target, 2434 before it
SOLVER_BUDGET = 967

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


def test_concept_query_call_budget():
    s = Session(seed=3, samples=25, rewrite=False)
    s.load_file(prelude_path())
    calls, report = _calls(s, "(rejection-query (define x (sample integer)) x (< x 3))")
    assert report.total_attempts == 39   # the same work as when the budget was set
    assert calls <= CONCEPT_BUDGET


def test_blind_query_call_budget():
    s = Session(seed=3, samples=50, rewrite=False)
    calls, report = _calls(
        s, "(rejection-query (define x (random-integer 10)) x (= (+ x 5) 10))")
    assert report.total_attempts == 438
    assert calls <= BLIND_BUDGET


def test_solver_call_budget():
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

    optimize_all()   # rules compile their matchers at first use
    calls, fired = _count_calls(optimize_all)
    assert fired == [True, None, False, False]   # the same work as when the budget was set
    assert calls <= SOLVER_BUDGET
