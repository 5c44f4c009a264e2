"""Python call budgets of the two hot paths: recursive concept sampling and
the blind rejection loop.

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
from problisp import Session, prelude_path

PACKAGE = os.path.dirname(problisp.__file__) + os.sep

# counted on Python 3.11 at the change that reads local operands, literal
# draw bounds and definitions inline; its parent made 6343 and 5822 calls,
# and the change before that, which specialized the call shapes, 8550 and 8056
CONCEPT_BUDGET = 3766
BLIND_BUDGET = 3638


def _calls(session, text):
    """Python calls into problisp's code while `session` runs `text`."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(PACKAGE):
            calls += 1

    sys.setprofile(profile)
    try:
        result, = session.run_text(text)
    finally:
        sys.setprofile(None)
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
