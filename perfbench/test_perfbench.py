"""Tests of the benchmark's own code.  Run: python3 -m pytest perfbench"""

import itertools
import sys
from pathlib import Path

import workloads as wl

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def test_generator_is_deterministic_for_a_seed():
    assert wl.make_sessions(7, 3, 20) == wl.make_sessions(7, 3, 20)
    assert wl.make_sessions(7, 3, 20) != wl.make_sessions(8, 3, 20)
    assert wl.unit_seeds("blind_arith", 7, 5) == wl.unit_seeds("blind_arith", 7, 5)


def test_oracle_of_arith_query_is_five():
    assert wl.ARITH.condition() == "(= (+ x 5) 10)"
    assert wl.ARITH.satisfaction_set() == {"5"}


def test_oracle_of_real_literal_chain():
    chain = wl.Chain("x", 100, (("+", 3.6, True),), 17.6)
    assert chain.condition() == "(= (+ x 3.6) 17.6)"
    assert chain.satisfaction_set() == {"14"}


def test_oracle_of_out_of_support_chain_is_empty():
    chain = wl.Chain("x", 10, (("-", 4, False), ("+", 20, True)), 30)
    assert chain.condition() == "(= (+ (- 4 x) 20) 30)"
    assert chain.satisfaction_set() == frozenset()


def test_generated_queries_have_the_sets_their_kind_promises():
    for kind, spec in itertools.chain.from_iterable(wl.make_sessions(3, 4, 50)):
        assert bool(spec.satisfaction_set()) == (kind != "out_of_support"), spec.query()


def test_sessions_mix_the_shapes_in_query_mix_proportions():
    for session in wl.make_sessions(5, 2, 120):
        kinds = [kind for kind, _ in session]
        assert {k: kinds.count(k) * 20 // 120 for k in kinds} == dict(wl.QUERY_MIX)
        two_var = [spec.condition()[1] for kind, spec in session if kind == "two_var"]
        assert two_var.count("=") == 18 and two_var.count("<") == 6


def test_frequency_check_accepts_the_model_and_rejects_a_shift():
    exact = [0] * 157 + [1] * 71 + [2] * 64 + [-1] * 708
    assert wl.frequency_check(exact)[0]
    assert not wl.frequency_check([0] * 300 + [-1] * 700)[0]


def test_tracer_wraps_imported_names_and_restores_them():
    import problisp
    from layers import Tracer
    from problisp import inference, rng, sexpr

    tracer = Tracer()
    originals = (rng.derive_rng, inference.derive_rng, sexpr.parse)
    tracer.install()
    try:
        assert inference.derive_rng is rng.derive_rng is not originals[0]
        sexpr.parse("(+ 1 2) (f)")
    finally:
        tracer.uninstall()
    assert (rng.derive_rng, inference.derive_rng, sexpr.parse) == originals
    assert problisp.parse is originals[2]
    assert tracer.calls["sexpr.parse"] == 1 and tracer.calls["sexpr.tokenize"] == 1
    assert tracer.layer_totals()["sexpr"][0] == 2


def test_timings_keep_only_the_last_cycles(monkeypatch):
    import run

    monkeypatch.setattr(run, "KEPT_CYCLES", 3)
    first = [run.UnitRun(0.0, "", [(True, 0.0, None)] * 2, ""),
             run.UnitRun(0.0, "", [(True, 0.0, None)], "")]
    timings = run.Timings(first)
    size = (len(timings.walls), len(timings.forms))
    for cycle in range(5):
        timings.add([run.UnitRun(5.0 * cycle, "", [(True, cycle / 2, None), (True, 0.5, None)], ""),
                     run.UnitRun(10.0 * cycle + 1, "", [(True, 2.0 * cycle, None)], "")],
                    [2.0, 1.0])
    assert (len(timings.walls), len(timings.forms)) == size == (6, 9)
    assert timings.kept() == 3
    assert sorted(timings.unit_walls()) == [20.0, 21.0, 30.0, 31.0, 40.0, 41.0]
    assert [timings.form_median(i) for i in range(3)] == [3, 1.0, 6.0]
    assert sorted(timings.form_runs([1, 2])) == [1.0, 1.0, 1.0, 4.0, 6.0, 8.0]


def test_speed_scale_maps_calibration_time_to_the_nominal_one():
    import run

    assert run.speed_scale(run.CALIBRATION_S, run.CALIBRATION_S) == 1.0
    assert run.speed_scale(run.CALIBRATION_S * 1.5, run.CALIBRATION_S * 2.5) == 0.5
