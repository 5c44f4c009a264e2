"""Command-line entry point: script runner and REPL.

Exit codes: 0 success, 1 language error, 2 exhaustion or zero-probability
condition, 3 usage error or a program, prelude or rules file that cannot be
opened or decoded as UTF-8.  With ``--output records`` every sample becomes
one JSON line and each file ends with a summary record (config echo,
acceptance stats, optimizer report); identical inputs, flags and seed
produce byte-identical records output.  The REPL writes plain text only, so
records need program files and no ``--repl``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .concepts import _describe_source
from .errors import (BudgetError, EvalError, ExhaustionError, FileReadError, LexError,
                     ParseError, ProblispError, ZeroProbabilityError)
from .evaluator import DEFAULT_MAX_ATTEMPTS
from .sexpr import parse, print_expr
from .session import Session, read_source
from .values import format_value, is_number

# deep enough for any plausible prelude recursion, shallow enough that
# Python's recursion check fires before the C stack runs out.  Compiled code
# takes up to three Python frames per nested non-tail call (the code waiting
# for the value, the call, and an `if` in the callee's body), so this allows
# about 5,000 nested calls.  `main` raises the process's limit to it; the
# library leaves the limit alone.
RECURSION_LIMIT = 15_000
# the errors that exit with status 2; any other language error exits with 1
_EXHAUSTED = (ExhaustionError, ZeroProbabilityError, BudgetError)


def prelude_path():
    """Filesystem path of the shipped knowledge prelude."""
    return os.path.join(os.path.dirname(__file__), "data", "prelude.lisp")


def rules_path():
    """Filesystem path of the shipped default rewrite rules."""
    return os.path.join(os.path.dirname(__file__), "data", "rules.lisp")


def _resolve(path, std):
    return std() if path == "std" else path


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(3)


def _build_parser():
    p = _ArgumentParser(
        prog="problisp",
        description="Probabilistic mini-Lisp with concept knowledge and "
                    "rewrite-optimized rejection queries.")
    p.add_argument("files", nargs="*", help="program files to run in order")
    p.add_argument("--seed", type=int, default=0, help="64-bit random seed (default 0)")
    p.add_argument("--samples", type=int, default=1,
                   help="samples per top-level rejection-query (default 1)")
    p.add_argument("--max-attempts", type=int, default=DEFAULT_MAX_ATTEMPTS,
                   help="rejection attempts per sample (default 10^6)")
    p.add_argument("--no-rewrite", dest="rewrite", action="store_false",
                   help="disable condition propagation / query rewriting")
    # both append to one list, in flag order; argparse copies the default
    p.set_defaults(load_order=[])
    p.add_argument("--prelude", action="append", dest="load_order", metavar="PATH",
                   type=lambda path: ("prelude", path),
                   help="knowledge file to load first ('std' = shipped prelude); repeatable")
    p.add_argument("--rules", action="append", dest="load_order", metavar="PATH",
                   type=lambda path: ("rules", path),
                   help="rewrite-rule file ('std' = shipped rules); repeatable. "
                        "Default: shipped rules when rewriting is enabled")
    p.add_argument("--stats", action="store_true",
                   help="report acceptance stats, optimizer chain and a histogram")
    p.add_argument("--output", choices=["plain", "records"], default="plain",
                   help="plain text or newline-delimited JSON records")
    p.add_argument("--repl", action="store_true",
                   help="enter the REPL (after running any files)")
    return p


def _parse_config(argv):
    """The parsed flags, which are the run's config: `load_order` lists
    ("prelude" | "rules", path) in flag order."""
    config = _build_parser().parse_args(argv)
    if config.samples < 1 or config.max_attempts < 1:
        message = "--samples and --max-attempts must be >= 1"
    elif config.output == "records" and (config.repl or not config.files):
        message = "--output records needs program files and no --repl: the REPL writes text"
    else:
        return config
    print(f"problisp: error: {message}", file=sys.stderr)
    raise SystemExit(3)


def _loads(config):
    """The (kind, path) files to load, in order: `load_order`, then `std`,
    the shipped rules, if rewriting is on and no --rules is given."""
    if config.rewrite and all(kind != "rules" for kind, _ in config.load_order):
        return config.load_order + [("rules", "std")]
    return config.load_order


def _given(config, kind):
    """The paths of `kind` that load, as given: the records echo `std` so
    that they are the same in every checkout."""
    return [path for k, path in _loads(config) if k == kind]


def build_session(config):
    """Session with the preludes and rule files of `_loads` loaded."""
    session = Session(seed=config.seed, samples=config.samples,
                      max_attempts=config.max_attempts, rewrite=config.rewrite)
    for kind, path in _loads(config):
        session.load_file(_resolve(path, prelude_path if kind == "prelude" else rules_path))
    return session


# -- output ------------------------------------------------------------------


_BINS = 10   # a histogram's bins for reals


def _bin_width(values):
    """The width of `_BINS` equal bins over the values' range, or None when
    a value or the width is not a finite real."""
    try:
        if all(math.isfinite(v) for v in values):
            width = (max(values) - min(values)) / _BINS
            return width if math.isfinite(width) else None
    except OverflowError:   # an integer too large for a real
        pass
    return None


def histogram(values):
    """Text table of value counts; finite reals get equal-width bins over
    the observed range, everything else is counted per distinct printed
    value."""
    if not values:
        raise ValueError("histogram requires at least one value")
    n = len(values)
    all_numeric = all(is_number(v) for v in values)
    reals = all_numeric and any(isinstance(v, float) for v in values)
    width = _bin_width(values) if reals else None
    if width is not None:
        lo, hi = min(values), max(values)
        if width == 0:
            return f"[{lo:g}, {hi:g}] : {n} (100.0%)"
        counts = [0] * _BINS
        for v in values:
            counts[min(int((v - lo) / width), _BINS - 1)] += 1
        lines = []
        for i, c in enumerate(counts):
            left, right = lo + i * width, lo + (i + 1) * width
            bracket = "]" if i == _BINS - 1 else ")"
            lines.append(f"[{left:g}, {right:g}{bracket} : {c} ({100 * c / n:.1f}%)")
        return "\n".join(lines)
    rows = {}
    order = {}
    for v in values:
        key = format_value(v)
        rows[key] = rows.get(key, 0) + 1
        if key not in order:
            order[key] = v
    if all_numeric:   # nan, which compares false with every number, last
        keys = sorted(rows, key=lambda k: (order[k] != order[k], order[k]))
    else:
        keys = sorted(rows)
    return "\n".join(f"{k} : {rows[k]} ({100 * rows[k] / n:.1f}%)" for k in keys)


def _optimizer_echo(outcome, rewrite_enabled):
    info = {"enabled": rewrite_enabled, "fired": False, "target": None,
            "chain": [], "definition": None}
    if outcome is not None and outcome.fired:
        info.update(fired=True, target=outcome.target,
                    chain=[print_expr(c) for c in outcome.chain],
                    definition=print_expr(outcome.definition))
    return info


def _query_summary(result, config):
    report = result.report
    return {
        "query": result.ordinal,
        "samples": len(report.samples),
        "attempts": report.total_attempts,
        "acceptance_rate": report.acceptance_rate,
        "optimizer": _optimizer_echo(result.optimize, config.rewrite),
    }


def _config_echo(config, path):
    return {
        "seed": config.seed, "samples": config.samples,
        "max_attempts": config.max_attempts, "rewrite": config.rewrite,
        "preludes": _given(config, "prelude"), "rules": _given(config, "rules"),
        "output": config.output,
        "stats": config.stats, "file": str(path),
    }


# `json.dumps(..., sort_keys=True)` of the sample and value records, written
# from a template: the C string encoder is the one json.dumps itself calls
_encode = json.encoder.encode_basestring_ascii


def _sample_records(out, result):
    query = result.ordinal
    out.write("".join(f'{{"index": {i}, "query": {query}, "type": "sample", '
                      f'"value": {_encode(format_value(v))}}}\n'
                      for i, v in enumerate(result.report.samples)))


def _print_stats(result, config, out):
    """A query's stats report: its samples, attempts and acceptance, the
    rewrite and a histogram, on `;;` lines (`--stats`, and the REPL's
    `:stats`)."""
    report = result.report
    out.write(f";; query {result.ordinal}: samples {len(report.samples)}, "
              f"attempts {report.total_attempts}, "
              f"acceptance {report.acceptance_rate:.6g}\n")
    opt = result.optimize
    if opt is not None and opt.fired:
        chain = " -> ".join(print_expr(c) for c in opt.chain)
        out.write(f";; rewrite[{opt.target}]: {chain}\n")
        out.write(f";; rewrite[{opt.target}]: definition {print_expr(opt.definition)}\n")
    elif config.rewrite:
        out.write(";; rewrite: no rewrite applied\n")
    out.write(";; histogram:\n")
    for line in histogram(list(report.samples)).splitlines():
        out.write(f";;   {line}\n")


def _print_query_plain(result, config, out):
    for v in result.report.samples:
        out.write(format_value(v) + "\n")
    if config.stats:
        _print_stats(result, config, out)


def _write_result(out, form, result, config, index=None):
    """Write a top-level form's result as plain text, or as records when
    `index`, the form's position in its file, is given.  A value nested too
    deep to print is a language error at the form."""
    try:
        if result.kind == "query":
            if index is None:
                _print_query_plain(result, config, out)
            else:
                _sample_records(out, result)
        elif result.kind == "value":
            if index is None:
                out.write(format_value(result.value) + "\n")
            else:
                out.write(f'{{"form": {index}, "type": "value", '
                          f'"value": {_encode(format_value(result.value))}}}\n')
    except RecursionError:
        raise EvalError("recursion depth exceeded", form.loc) from None


def run_file(path, session, config, out=None):
    """Run one program file in the session; a language error propagates,
    named with the file."""
    out = out if out is not None else sys.stdout
    records = config.output == "records"
    text = read_source(path)
    try:
        summaries = []
        for idx, form in enumerate(parse(text)):
            result = session.eval_form(form)
            _write_result(out, form, result, config, idx if records else None)
            if result.kind == "query":
                summaries.append(_query_summary(result, config))
        if records:
            out.write(json.dumps({"type": "summary",
                                  "config": _config_echo(config, path),
                                  "queries": summaries}, sort_keys=True) + "\n")
    except ProblispError as err:
        if err.filename is None:
            err.filename = str(path)
        raise


# -- repl ----------------------------------------------------------------------


_REPL_HELP = """\
:help            show this help
:stats           statistics of the last rejection query
:concepts        declared concepts and their weighted links
:rules           loaded rewrite rules
:seed N          reseed the session (replays identically)
"""


def _meta_command(line, session, config, out):
    parts = line.split()
    cmd, args = parts[0], parts[1:]
    if cmd == ":help":
        out.write(_REPL_HELP)
    elif cmd == ":stats":
        if session.last_query is None:
            out.write("no query has run yet\n")
        else:
            _print_stats(session.last_query, config, out)
    elif cmd == ":concepts":
        store = session.store
        names = store.concept_names()
        if not names:
            out.write("no concepts declared\n")
        for name in names:
            links = store.links(store.lookup(name))
            out.write(f"{name} ({len(links)} links)\n")
            for link in links:
                out.write(f"  {_describe_source(link.source)} -> {name}  w={link.weight:g}\n")
    elif cmd == ":rules":
        if not session.rules:
            out.write("no rules loaded\n")
        for rule in session.rules:
            arrow = "<=>" if rule.kind == "equivalence" else "=>"
            out.write(f"{rule.name}: {print_expr(rule.lhs)} {arrow} "
                      f"{print_expr(rule.rhs)}\n")
    elif cmd == ":seed" and len(args) == 1:
        try:
            session.reset_seed(int(args[0]))
            out.write(f"seed: {session.seed}\n")
        except ValueError:
            out.write("error: :seed expects an integer\n")
    else:
        out.write(f"unknown command '{line.strip()}' (try :help)\n")


def repl(session, config, stdin=None, out=None):
    """Read-eval-print over the session; errors return to the prompt."""
    stdin = stdin if stdin is not None else sys.stdin
    out = out if out is not None else sys.stdout
    tty = stdin.isatty()
    prompt, cont = "problisp> ", "......... "
    buffer = ""
    while True:
        if tty:
            out.write(cont if buffer else prompt)
            out.flush()
        line = stdin.readline()
        if not line:
            if tty:
                out.write("\n")
            return 0
        if not buffer and line.strip().startswith(":"):
            _meta_command(line.strip(), session, config, out)
            continue
        buffer = buffer + line
        if not buffer.strip():
            buffer = ""
            continue
        try:
            forms = parse(buffer)
        except (LexError, ParseError) as err:
            if err.incomplete:
                continue
            out.write(f"error: {err}\n")
            buffer = ""
            continue
        buffer = ""
        for form in forms:
            try:
                _write_result(out, form, session.eval_form(form), config)
            except ProblispError as err:
                out.write(f"error: {err}\n")


def main(argv=None):
    config = _parse_config(argv if argv is not None else sys.argv[1:])
    if sys.getrecursionlimit() < RECURSION_LIMIT:
        sys.setrecursionlimit(RECURSION_LIMIT)
    if hasattr(sys, "set_int_max_str_digits"):   # integers read and print in full
        sys.set_int_max_str_digits(0)
    try:
        session = build_session(config)
        for path in config.files:
            run_file(path, session, config)
    except ProblispError as err:
        print(f"problisp: {err}", file=sys.stderr)
        return 3 if isinstance(err, FileReadError) else 2 if isinstance(err, _EXHAUSTED) else 1
    if config.repl or not config.files:
        return repl(session, config)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
