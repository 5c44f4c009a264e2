#!/usr/bin/env python3
"""problisp benchmark: four workloads, end-to-end metrics, a traced per-layer run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from anywhere in a checkout; problisp is imported from the checkout's
src/.  Each workload is a fixed list of units made from --seed (a unit is
one in-process CLI run through `cli.main`, output sent to a StringIO), run
as repeated cycles on one thread: cycle 0 warms up and is checked against
the oracles in workloads.py, every later cycle must reproduce cycle 0's
output byte for byte, and the cycles after cycle 0 are timed for --seconds.
Every timed unit sits between two runs of a fixed calibration loop, and its
times are rescaled to one machine speed (see NOTES.md, "Noise").
Without tracing, the set-up children behind setup_s run between timed
cycles, spread over the same --seconds.  With --trace 1 the timed cycles
alternate untraced and traced (layers.py).
The last stdout line is one JSON object: correct, attempted, failed,
metrics.  `--workload all` runs every workload, untraced and traced, in
child processes and prints one table.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import io
import itertools
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path

import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

SETUP_RUNS = 15         # fresh child processes per run for setup_s
CALIBRATION_S = 0.0015  # calibration_loop()'s time at the speed timings are given at
KEPT_CYCLES = 128       # timed cycles whose times are kept (the last ones)
QUERY_SAMPLES = 3       # --samples of each many_queries query
QUERY_MAX_ATTEMPTS = 10_000


@dataclass(frozen=True)
class Workload:
    """How one workload's units are made; BENCHMARK.json says why each exists."""

    flags: tuple                 # CLI flags besides --seed/--samples
    samples: int
    units: int                   # units per cycle
    program: str | None = None   # program file text; None = REPL input
    queries: int = 0             # queries per REPL session (many_queries)


WORKLOADS = {
    "blind_arith": Workload(("--no-rewrite",), 50, 60, wl.ARITH_PROGRAM),
    "rewrite_arith": Workload((), 200, 20, wl.ARITH_PROGRAM),
    "concept_sampling": Workload(("--prelude", "std"), 25, 60, wl.CONCEPT_PROGRAM),
    "many_queries": Workload(("--max-attempts", str(QUERY_MAX_ATTEMPTS)), QUERY_SAMPLES, 10,
                             queries=120),
}


@dataclass
class Unit:
    argv: list
    stdin: str | None = None
    queries: list = field(default_factory=list)   # many_queries: (kind, spec)


@dataclass
class UnitRun:
    wall: float
    digest: str       # of exit status and stdout
    forms: list       # (is_query, seconds, TopResult or ProblispError)
    out: str


def make_units(name, seed, program_path):
    w = WORKLOADS[name]
    seeds = wl.unit_seeds(name, seed, w.units)
    if w.program is None:
        sessions = wl.make_sessions(seed, w.units, w.queries)
        return [Unit(["--seed", str(s), "--samples", str(w.samples), *w.flags, "--repl"],
                     stdin="".join(spec.query() + "\n" for _, spec in qs), queries=qs)
                for s, qs in zip(seeds, sessions)]
    return [Unit([program_path, "--seed", str(s), "--samples", str(w.samples),
                  "--output", "records", *w.flags]) for s in seeds]


# -- machine speed -------------------------------------------------------------


def calibration_loop():
    """Fixed pure-Python work of the kinds problisp's interpreter does: calls,
    tuples, dict lookups and updates, small strings, a sort."""
    table = {}
    total = 0
    for i in range(3000):
        key = ("k", i & 63)
        table[key] = table.get(key, 0) + i
        total += len(str(i)) + (i * 7) % 13
    return total + sorted(table.values())[0]


def calibrate():
    """Seconds one calibration_loop() takes now."""
    start = time.perf_counter()
    calibration_loop()
    return time.perf_counter() - start


def speed_scale(before, after):
    """The factor that turns a time measured between two calibrations into
    the time at the speed where calibration_loop() takes CALIBRATION_S.
    The shared host runs the same code up to 1.6 times slower for minutes
    at a time; the factor removes that from the timings."""
    return CALIBRATION_S / ((before + after) / 2)


# -- running units -------------------------------------------------------------


class Probe:
    """Times every top-level form in `Session.eval_form`, keeping its result.
    Forms evaluated inside `cli.build_session` (preludes, rules) are set-up
    and are not recorded."""

    def __init__(self, patches, cli, session_cls, errors):
        self.forms = []
        self._setup = False
        run_form, build = session_cls.eval_form, cli.build_session
        problem = errors.ProblispError
        clock = time.perf_counter

        def eval_form(session, form):
            if self._setup:
                return run_form(session, form)
            start = clock()
            try:
                result = run_form(session, form)
            except problem as err:
                head = form.items[0] if getattr(form, "items", None) else None
                self.forms.append((getattr(head, "name", None) == "rejection-query",
                                   clock() - start, err))
                raise
            self.forms.append((result.kind == "query", clock() - start, result))
            return result

        def build_session(config):
            self._setup = True
            try:
                return build(config)
            finally:
                self._setup = False

        # keep the originals' names, so the tracer files them under their layers
        patches.set(session_cls, "eval_form", functools.wraps(run_form)(eval_form))
        patches.set(cli, "build_session", functools.wraps(build)(build_session))


def run_unit(cli, probe, unit):
    out = io.StringIO()
    probe.forms = []
    saved_stdin = sys.stdin
    sys.stdin = io.StringIO(unit.stdin or "")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            start = time.perf_counter()
            status = cli.main(list(unit.argv))
            wall = time.perf_counter() - start
    finally:
        sys.stdin = saved_stdin
    text = out.getvalue()
    digest = hashlib.sha256(f"{status}\n{text}".encode()).hexdigest()
    return UnitRun(wall, digest, probe.forms, text)


# -- oracles -----------------------------------------------------------------------


def check_program_unit(name, run):
    """(attempted, failed, integer samples) for one program-workload unit:
    every query sample in the records output must satisfy the oracle."""
    ok = wl.concept_sample_ok if name == "concept_sampling" else \
        wl.ARITH.satisfaction_set().__contains__
    values = [r["value"] for r in map(json.loads, run.out.splitlines())
              if r.get("type") == "sample"]
    expected = WORKLOADS[name].samples
    failed = sum(1 for v in values if not ok(v)) + max(0, expected - len(values))
    return expected, failed, [int(v) for v in values if ok(v)]


def check_query_unit(unit, run, format_value, zero_error):
    """(attempted, failed, failed kinds) over the queries of one many_queries
    session.  A query fails on a sample outside the oracle's set, on a
    zero-probability error when the set is not empty, on no such error when
    it is empty, and on any other error."""
    failed = []
    for i, (kind, spec) in enumerate(unit.queries):
        allowed = spec.satisfaction_set()
        result = run.forms[i][2] if i < len(run.forms) else None
        if isinstance(result, zero_error):
            bad = bool(allowed)
        elif result is None or isinstance(result, Exception) or not allowed:
            bad = True
        else:
            bad = any(format_value(v) not in allowed for v in result.report.samples)
        if bad:
            failed.append(kind)
    return len(unit.queries), len(failed), failed


# -- set-up time -------------------------------------------------------------------

_SETUP_CHILD = r"""
import sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import problisp.cli as cli
build, ready = cli.build_session, []
def build_session(config):
    result = build(config)
    ready.append(time.perf_counter())
    return result
cli.build_session = build_session
status = cli.main(sys.argv[2:])
print(ready[0] - start)
sys.exit(status)
"""


def measure_setup_once(name, empty_path):
    """Seconds from `import problisp` to `cli.build_session` returning, in a
    fresh interpreter, with the workload's flags."""
    argv = [*WORKLOADS[name].flags, empty_path]
    proc = subprocess.run([sys.executable, "-c", _SETUP_CHILD, str(SRC), *argv],
                          capture_output=True, text=True, timeout=60, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1])


# -- the measured run --------------------------------------------------------------


def quantile(sorted_values, p):
    """Nearest-rank quantile."""
    return sorted_values[max(0, math.ceil(p * len(sorted_values)) - 1)]


def layer_metrics(tracer, c, traced_wall, traced_cycles, overhead):
    """The per-layer metrics, per traced cycle; `c` holds make_tracer's counts.
    Self times and `traced_wall` are as measured, so that the shares add up;
    `overhead` compares traced and untraced cycles at the calibrated speed."""
    per = 1.0 / traced_cycles
    m = {}
    covered = 0.0
    for layer, (calls, self_s) in tracer.layer_totals().items():
        m[f"{layer}.calls"] = (calls * per, "count")
        m[f"{layer}.self_s"] = (self_s * per, "s")
        m[f"{layer}.share"] = (self_s / traced_wall, "ratio")
        covered += self_s
    m["other.self_s"] = ((traced_wall - covered) * per, "s")
    m["other.share"] = ((traced_wall - covered) / traced_wall, "ratio")

    def per_call(key, callers=None, exclude_layer=None):
        n, spent = tracer.inclusive(key, callers, exclude_layer)
        return n, (spent / n * 1e6 if n else 0.0)

    _, parse_total = tracer.inclusive("sexpr.parse")
    m["sexpr.us_per_form"] = (parse_total / c["forms"] * 1e6 if c["forms"] else 0.0, "us")
    m["rewrite.optimize_us"] = (per_call("rewrite.optimize_query_detail")[1], "us")
    m["rewrite.fired"] = (c["fired"] * per, "count")
    m["rewrite.zero_prob"] = (c["zero_prob"] * per, "count")
    n = tracer.calls.get("session.Session.eval_form", 0)
    m["session.eval_form_self_us"] = (
        tracer.self_s.get("session.Session.eval_form", 0.0) / n * 1e6 if n else 0.0, "us")
    m["concepts.snapshot_us"] = (per_call("concepts.ConceptStore.snapshot")[1], "us")
    m["rng.derive_us"] = (per_call("rng.derive_rng")[1], "us")
    _, in_attempts = tracer.inclusive(
        "evaluator.evaluate", callers={"inference.run_samples", "inference.rejection_query"})
    attempts, samples = c["attempts"], c["samples"]
    m["evaluator.attempt_us"] = (in_attempts / attempts * 1e6 if attempts else 0.0, "us")
    m["evaluator.attempts"] = (attempts * per, "count")
    m["inference.attempts_per_sample"] = (attempts / samples if samples else 0.0, "ratio")
    m["inference.rejected"] = ((attempts - samples) * per, "count")
    top, top_us = per_call("sampler.sample_concept", exclude_layer="sampler")
    expansions = tracer.calls.get("sampler.sample_concept", 0)
    m["sampler.expansions_per_sample"] = (expansions / top if top else 0.0, "ratio")
    m["sampler.instantiate_us"] = (top_us, "us")
    m["tracing.overhead"] = (overhead, "ratio")
    return m


def make_tracer(zero_error):
    """A Tracer whose hooks also count parsed forms, fired rewrites, proved
    zero-probability conditions, and the attempts and samples of queries."""
    from layers import Tracer

    tracer = Tracer()
    c = dict(forms=0, fired=0, zero_prob=0, attempts=0, samples=0)

    def on_parse(result, error):
        if error is None:
            c["forms"] += len(result)

    def on_optimize(result, error):
        if error is None:
            c["fired"] += result.fired
        elif isinstance(error, zero_error):
            c["zero_prob"] += 1

    def on_samples(report, error):
        if error is not None:
            report = getattr(error, "partial", None)
        if report is not None:
            c["attempts"] += report.total_attempts
            c["samples"] += len(report.samples)

    tracer.hooks.update({"sexpr.parse": on_parse,
                         "rewrite.optimize_query_detail": on_optimize,
                         "inference.run_samples": on_samples})
    return tracer, c


class Timings:
    """Unit wall times and per-form `eval_form` times of the last KEPT_CYCLES
    untraced timed cycles.  The arrays are allocated and written in full up
    front, so the benchmark's own memory, and with it `peak_rss_mb`, does not
    grow with the number of cycles a faster program fits into a run."""

    def __init__(self, first):
        self.offsets = list(itertools.accumulate((len(r.forms) for r in first), initial=0))
        self.walls = array("d", [0.0]) * (KEPT_CYCLES * len(first))
        self.forms = array("d", [0.0]) * (KEPT_CYCLES * self.offsets[-1])
        self.cycles = 0

    def add(self, runs, scales):
        """Record one cycle; each unit's times are multiplied by its scale."""
        slot = self.cycles % KEPT_CYCLES
        units, forms = len(runs), self.offsets[-1]
        for k, (run, scale) in enumerate(zip(runs, scales)):
            self.walls[slot * units + k] = run.wall * scale
            base = slot * forms + self.offsets[k]
            for i, (_, seconds, _) in enumerate(run.forms[:self.offsets[k + 1] - self.offsets[k]]):
                self.forms[base + i] = seconds * scale
        self.cycles += 1

    def kept(self):
        return min(self.cycles, KEPT_CYCLES)

    def unit_walls(self):
        return self.walls[:self.kept() * (len(self.offsets) - 1)].tolist()

    def form_runs(self, indices):
        """Every kept timed run of the given forms."""
        forms = self.offsets[-1]
        return [self.forms[c * forms + i] for c in range(self.kept()) for i in indices]

    def form_median(self, index):
        """The median over the kept cycles of one form's `eval_form` time."""
        forms = self.offsets[-1]
        return statistics.median(self.forms[c * forms + index] for c in range(self.kept()))


def run_workload(name, seed, seconds, trace):
    if not (SRC / "problisp" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no problisp sources under {SRC}")
    sys.path.insert(0, str(SRC))
    os.chdir(ROOT)
    WORK.mkdir(exist_ok=True)
    program_path = str((WORK / f"{name}.lisp").relative_to(ROOT))
    empty_path = str((WORK / "empty.lisp").relative_to(ROOT))
    Path(program_path).write_text(WORKLOADS[name].program or "", encoding="utf-8")
    Path(empty_path).write_text("", encoding="utf-8")
    try:
        return _measure(name, seed, seconds, trace, program_path, empty_path)
    finally:
        for path in (program_path, empty_path):
            Path(path).unlink(missing_ok=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()


def _measure(name, seed, seconds, trace, program_path, empty_path):
    from layers import Patches
    from problisp import cli, errors, session
    from problisp.values import format_value

    patches = Patches()
    probe = Probe(patches, cli, session.Session, errors)
    tracer, counts = make_tracer(errors.ZeroProbabilityError) if trace else (None, None)
    units = make_units(name, seed, program_path)
    setup_times = []
    try:
        first = [run_unit(cli, probe, u) for u in units]
        timings = Timings(first)
        reproduced = True
        walls = {True: 0.0, False: 0.0}    # traced? -> summed unit wall time
        scaled = {True: 0.0, False: 0.0}   # the same at the calibrated speed
        cycles = {True: 0, False: 0}
        scale_sum = scale_count = 0
        start = time.perf_counter()
        while (time.perf_counter() - start < seconds
               or cycles[False] < 1 or cycles[True] < trace):
            traced = bool(trace) and cycles[True] <= cycles[False]
            if traced:
                tracer.install()
            try:
                marks, runs = [calibrate()], []
                for u in units:
                    runs.append(run_unit(cli, probe, u))
                    marks.append(calibrate())
            finally:
                if traced:
                    tracer.uninstall()
            scales = [speed_scale(a, b) for a, b in zip(marks, marks[1:])]
            reproduced &= all(r.digest == f.digest for r, f in zip(runs, first))
            walls[traced] += sum(r.wall for r in runs)
            scaled[traced] += sum(r.wall * k for r, k in zip(runs, scales))
            scale_sum += sum(scales)
            scale_count += len(scales)
            cycles[traced] += 1
            if not traced:
                timings.add(runs, scales)
            # set-up children spread evenly over the run, so that set-up
            # and the workload see the same stretch of machine time
            while (not trace and len(setup_times) < SETUP_RUNS and
                   time.perf_counter() - start >= len(setup_times) * seconds / SETUP_RUNS):
                setup_times.append(measure_setup_once(name, empty_path))
    finally:
        patches.undo()
    # read before the latency quantiles copy the timing arrays
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    while not trace and len(setup_times) < SETUP_RUNS:
        setup_times.append(measure_setup_once(name, empty_path))

    # correctness of cycle 0; every later cycle must have reproduced it
    attempted = failed = 0
    accepted = attempts = 0
    ints, failed_kinds = [], []
    for unit, run in zip(units, first):
        if WORKLOADS[name].program is not None:
            a, f, values = check_program_unit(name, run)
            ints += values
        else:
            a, f, kinds = check_query_unit(unit, run, format_value, errors.ZeroProbabilityError)
            failed_kinds += kinds
        attempted += a
        failed += f
        for is_query, _, result in run.forms:
            if is_query and not isinstance(result, Exception):
                accepted += len(result.report.samples)
                attempts += result.report.total_attempts
    notes = []
    if failed_kinds:
        notes.append("failed queries by shape: " + ", ".join(
            f"{k} {failed_kinds.count(k)}" for k in dict.fromkeys(failed_kinds)))
    notes.append(f"every repeated{' and traced' if trace else ''} unit reproduced "
                 f"cycle 0's output: {reproduced}")
    distribution_ok = True
    if name == "concept_sampling":
        distribution_ok, rows = wl.frequency_check(ints)
        for event, observed, expected in rows:
            notes.append(f"frequency {event}: {observed:.4f} (model {expected:.4f}, "
                         f"n={len(ints)})")
        if not distribution_ok:
            notes.append("sample frequencies do not match the closed-form model")

    # The operations are those of one cycle: the oracles judge cycle 0, and
    # a repeat that differs from it makes the run incorrect instead.  So the
    # counts depend on the seed alone, not on how many cycles fit the run.
    result = dict(correct=reproduced and distribution_ok,
                  attempted=attempted, failed=failed)
    info = dict(units=len(units), cycles=cycles[True] + cycles[False],
                speed_scale=scale_sum / scale_count,
                failed_frac=failed / attempted, failed_base=attempted,
                acceptance_counts=(accepted, attempts),
                run_digest=hashlib.sha256("".join(r.digest for r in first).encode())
                .hexdigest()[:16], notes=notes)

    if trace:
        metrics = layer_metrics(tracer, counts, walls[True], cycles[True],
                                scaled[True] / scaled[False] * cycles[False] / cycles[True])
        return result, metrics, info

    # samples_per_s takes each distinct query form at its median over the
    # kept timed cycles; the latency quantiles pool every timed run of every
    # query form, so that even 20 forms leave more than 10 runs above p99.
    queries = []   # (index, accepted samples) per distinct query form
    for run, offset in zip(first, timings.offsets):
        for i, (is_query, _, x) in enumerate(run.forms):
            if is_query:
                queries.append((offset + i,
                                0 if isinstance(x, Exception) else len(x.report.samples)))
    query_seconds = sum(timings.form_median(i) for i, _ in queries)
    latencies = sorted(timings.form_runs([i for i, _ in queries]))
    p99 = quantile(latencies, 0.99)
    info.update(forms=len(queries), kept=timings.kept(), timed=len(latencies),
                above_p99=sum(1 for t in latencies if t > p99))
    metrics = {
        # Not calibrated: a set-up child is mostly page faults and file reads,
        # which the calibration loop does not track (NOTES.md, "Noise").
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (statistics.median(timings.unit_walls()), "s"),
        "samples_per_s": (sum(n for _, n in queries) / query_seconds, "1/s"),
        "acceptance": (accepted / attempts, "ratio"),
        "query_p50_ms": (quantile(latencies, 0.50) * 1e3, "ms"),
        "query_p99_ms": (p99 * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_kb / 1024, "MB"),
    }
    return result, metrics, info


# -- command line --------------------------------------------------------------------


def report(name, seed, seconds, trace):
    result, metrics, info = run_workload(name, seed, seconds, trace)
    print(f"workload {name}  seed {seed}  trace {trace}  units/cycle {info['units']}  "
          f"timed cycles {info['cycles']}  digest {info['run_digest']}")
    print(f"  timings are at the calibrated speed: measured times were multiplied "
          f"by {info['speed_scale']:.4f} on average")
    for key, (value, unit) in metrics.items():
        print(f"  {key:32s} {value:16.6g} {unit}")
    a, n = info["acceptance_counts"]
    print(f"  acceptance base: {a} accepted of {n} attempts (one cycle)")
    print(f"  failed_frac {info['failed_frac']:.6g} "
          f"({round(info['failed_frac'] * info['failed_base'])} of {info['failed_base']} "
          f"{'queries' if WORKLOADS[name].program is None else 'samples'} per cycle)")
    if "forms" in info:
        print(f"  latency base: {info['forms']} distinct query forms times {info['kept']} "
              f"timed cycles = {info['timed']} runs, {info['above_p99']} above p99")
    if trace:
        print("  waiting: none; problisp runs on one thread with no queue or lock")
    for note in info["notes"]:
        print(f"  {note}")
    metrics_json = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    print(json.dumps({**result, "metrics": metrics_json}))
    return 0


def run_child(name, seed, seconds, trace):
    """Run one workload in a child process: (its stdout, its JSON line), or
    (its stdout, None) after printing its stderr if it failed."""
    proc = subprocess.run(
        [sys.executable, __file__, "--workload", name, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return proc.stdout, None
    return proc.stdout, json.loads(proc.stdout.strip().splitlines()[-1])


def run_all(seed, seconds):
    """Every workload, untraced then traced, each in its own process."""
    status = 0
    table = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            out, line = run_child(name, seed, seconds, trace)
            sys.stdout.write(out)
            if line is None:
                status = 1
                continue
            status |= not line["correct"]
            table.setdefault(name, {}).update(
                {k: v["value"] for k, v in line["metrics"].items()})
    print(json.dumps(table, sort_keys=True))
    return status


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return report(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
