"""A session ties together environment, concept store, rules and seeding.

Top-level rejection-query forms run through the batch sampler (one rng
stream per sample index, derived from (seed, query-ordinal, index) and set
on one draw object the session makes once, at the sample's first draw, so a
sample that draws nothing derives no stream); all other top-level forms
consume the session's own stream.  Resetting the seed restores both, so
identical inputs replay identically.
"""

from __future__ import annotations

from .concepts import ConceptStore
from .errors import FileReadError, ProblispError
from .evaluator import (DEFAULT_MAX_ATTEMPTS, EvalContext, evaluate,
                        standard_env)
from .inference import QuerySpec, run_samples
from .rewrite import optimize_query_detail
from .rng import Draws
from .sexpr import SList, Symbol, _Record, parse


class TopResult(_Record):
    """Outcome of one top-level form."""

    __slots__ = _fields = ("kind", "value", "report", "optimize", "ordinal")
    __hash__ = None   # mutable

    def __init__(self, kind, value=None, report=None, optimize=None, ordinal=None):
        self.kind = kind              # "query" | "value" | "none"
        self.value = value
        self.report = report          # SampleReport for queries
        self.optimize = optimize      # OptimizeOutcome for queries (None if rewriting off)
        self.ordinal = ordinal


def read_source(path):
    """The text of a UTF-8 program file; one that cannot be opened or
    decoded is a FileReadError."""
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except OSError as err:
        reason = err.strerror
    except UnicodeDecodeError as err:
        reason = f"not UTF-8 at byte {err.start}"
    raise FileReadError(f"cannot read '{path}': {reason}")


def _is_query_form(form):
    return (form.__class__ is SList and form.items
            and form.items[0].__class__ is Symbol
            and form.items[0].name == "rejection-query")


class Session:
    def __init__(self, seed=0, samples=1, max_attempts=DEFAULT_MAX_ATTEMPTS,
                 rewrite=True):
        self.env = standard_env()
        self.store = ConceptStore()
        self.rules = []
        self.samples = samples
        self.max_attempts = max_attempts
        self.rewrite = rewrite
        self.last_query = None
        # the query streams' states are set on it; its own stream is never used
        self._query_rng = Draws(0)
        self.reset_seed(seed)

    def reset_seed(self, seed):
        self.seed = int(seed)
        self.rng = Draws(self.seed, 0)
        self._query_ordinal = 0

    def _ctx(self, rng, session):
        return EvalContext(rng=rng, store=self.store, session=session,
                           rules=tuple(self.rules) if self.rewrite else (),
                           max_attempts=self.max_attempts, global_env=self.env)

    def eval_form(self, form):
        """Run one top-level form; an error without a location gets the form's."""
        try:
            if _is_query_form(form):
                return self._run_query(form)
            value = evaluate(form, self.env, self._ctx(self.rng, self))
        except ProblispError as err:
            if err.loc is None:
                err.loc = form.loc
            raise
        if value is None:
            return TopResult("none")
        return TopResult("value", value=value)

    def _run_query(self, form):
        spec = QuerySpec.from_form(form)
        ctx = self._ctx(self._query_rng, None)
        outcome = None
        if ctx.rules:
            outcome = optimize_query_detail(spec, ctx.rules)
            spec = outcome.spec
        ordinal = self._query_ordinal
        self._query_ordinal += 1
        report = run_samples(spec, self.samples, self.env,
                             (self.seed, 1 + ordinal), ctx)
        result = TopResult("query", report=report, optimize=outcome, ordinal=ordinal)
        self.last_query = result
        return result

    def run_text(self, text):
        return [self.eval_form(form) for form in parse(text)]

    def load_file(self, path):
        """Evaluate a file for its session effects, discarding printed values."""
        text = read_source(path)
        try:
            return self.run_text(text)
        except ProblispError as err:
            if err.filename is None:
                err.filename = str(path)
            raise
