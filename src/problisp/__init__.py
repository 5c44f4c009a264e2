"""problisp: a probabilistic mini-Lisp with declarative concept knowledge.

Programs are s-expressions evaluated under seeded randomness.  Conditional
inference is done with rejection-query; a concept store of weighted is-a
links supplies generative models via (sample concept); and an equivalence
rule engine rewrites query conditions so point-mass posteriors are sampled
directly instead of searched for blindly.
"""

from .cli import build_session, histogram, main, prelude_path, rules_path
from .concepts import ConceptId, ConceptStore, IsALink
from .errors import (BudgetError, ConceptError, EvalError, ExhaustionError,
                     FileReadError, LexError, ParseError, ProblispError, RuleError,
                     ZeroProbabilityError)
from .evaluator import EvalContext, evaluate, standard_env
from .inference import QuerySpec, SampleReport, run_samples
from .rewrite import (OptimizeOutcome, RewriteRule, SolveResult, constant_fold,
                      match, optimize_query_detail, rule_from_form,
                      solve_condition, substitute)
from .sampler import SampleBudget, sample_concept
from .session import Session, TopResult
from .sexpr import (Boolean, Integer, Location, Real, SExpr, SList, Symbol,
                    Text, parse, parse_one, print_expr, tokenize)
from .values import NIL, Closure, Env, Pair, Primitive, format_value, values_equal

__version__ = "0.1.0"

__all__ = [
    "Boolean", "BudgetError", "Closure", "ConceptError", "ConceptId",
    "ConceptStore", "Env", "EvalContext", "EvalError", "ExhaustionError",
    "FileReadError", "Integer", "IsALink", "LexError", "Location", "NIL",
    "OptimizeOutcome", "Pair", "ParseError", "Primitive", "ProblispError", "QuerySpec", "Real",
    "RewriteRule", "RuleError", "SExpr", "SList", "SampleBudget",
    "SampleReport", "Session", "SolveResult",
    "Symbol", "Text", "TopResult", "ZeroProbabilityError",
    "build_session", "constant_fold", "evaluate",
    "format_value", "histogram", "main",
    "match", "optimize_query_detail", "parse", "parse_one",
    "prelude_path", "print_expr", "rule_from_form",
    "rules_path", "run_samples", "sample_concept", "solve_condition",
    "standard_env", "substitute", "tokenize",
    "values_equal",
]
