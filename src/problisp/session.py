"""A session ties together environment, concept store, rules and seeding.

Top-level rejection-query forms run through the batch sampler (one rng
stream per sample index, derived from (seed, query-ordinal, index) and set
on one draw object the session makes once, at the sample's first draw, so a
sample that draws nothing derives no stream); all other top-level forms
consume the session's own stream.  Resetting the seed restores both, so
identical inputs replay identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .concepts import ConceptStore
from .errors import EvalError, ProblispError
from .evaluator import (DEFAULT_MAX_ATTEMPTS, EvalContext, evaluate,
                        standard_env)
from .inference import QuerySpec, run_samples
from .rng import Draws
from .sexpr import SList, Symbol, parse


@dataclass
class TopResult:
    """Outcome of one top-level form."""

    kind: str                 # "query" | "value" | "none"
    value: object = None
    report: object = None     # SampleReport for queries
    optimize: object = None   # OptimizeOutcome for queries (None if rewriting off)
    ordinal: int = None


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
        return EvalContext(rng=rng, snapshot=self.store.snapshot(), session=session,
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
            from .rewrite import optimize_query_detail

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
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as err:
            raise EvalError(f"cannot read '{path}': {err.strerror}") from None
        try:
            return self.run_text(text)
        except ProblispError as err:
            if err.filename is None:
                err.filename = str(path)
            raise
