"""Schema check of the perf records `BENCH_<parent sha>.json` at the repo root.

Each record holds a parent commit's and a change's end-to-end metrics from
`perfbench/run.py`, as the median and quartiles over seeds, and per metric
a comparison of the two sides over the pairs of runs.
"""

import json
import math
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
SIDES = ("parent", "change")


def test_records_exist():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_record_schema(path):
    record = json.loads(path.read_text(encoding="utf-8"))
    assert record["schema"].startswith("problisp BENCH v1:")
    assert re.fullmatch(r"[0-9a-f]{40}", record["commit"]["parent"])
    assert path.name == f"BENCH_{record['commit']['parent'][:7]}.json"
    assert record["workloads"]
    for name, workload in record["workloads"].items():
        medians = {}
        for side in SIDES:
            result = workload[side]
            runs = result["runs"]
            assert len(result["attempted"]) == len(result["failed"]) == runs, (name, side)
            assert result["correct"] is True, (name, side)
            for metric, stats in result["metrics"].items():
                assert stats["q1"] <= stats["median"] <= stats["q3"], (name, side, metric)
            medians[side] = {m: s["median"] for m, s in result["metrics"].items()}
        quartiles = workload["parent"]["metrics"]
        for metric, comparison in workload["comparison"].items():
            where = (name, metric)
            assert comparison["pairs"] == workload["parent"]["runs"], where
            assert comparison["pairs"] == workload["change"]["runs"], where
            assert 0 <= comparison["change_wins"] <= comparison["pairs"], where
            parent, change = medians["parent"][metric], medians["change"][metric]
            assert math.isclose(comparison["median_difference"], change - parent,
                                rel_tol=1e-9, abs_tol=1e-12), where
            iqr = quartiles[metric]["q3"] - quartiles[metric]["q1"]
            assert math.isclose(comparison["parent_iqr"], iqr, rel_tol=1e-9,
                                abs_tol=1e-12), where
            if parent:
                assert math.isclose(comparison["median_ratio"], change / parent,
                                    rel_tol=1e-9), where
