"""Smoke tests of the benchmark harness at reduced B and K.

These only check that the harness works; their timings are never reported.
Run from the repository root with ``python3 -m pytest bench/test_harness.py``.
"""

import json

import pytest

import check
import run as harness
from workloads import SMOKE_SIZES, WORKLOADS


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_runs_clean(name, trace, tmp_path):
    workload = WORKLOADS[name](seed=3, sizes=SMOKE_SIZES)
    record = harness.measure(workload, tmp_path, seconds=0.0, trace=trace)
    assert record["problems"] == []
    assert record["failed"] == 0 and record["attempted"] >= 1
    if trace:
        # transparency: traced outputs equal untraced ones (checked in
        # measure), and every prediction holds at any size
        assert record["misses"] == []
        spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
        assert {m["name"] for m in spec["per_layer"]} <= set(record["values"])
    else:
        assert len(record["passes"]) == harness.MIN_PASSES
        assert all(v > 0 for v in record["values"].values())


def test_missing_program_exits_without_result(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(harness, "SRC", tmp_path / "src")
    assert harness.main(["--workload", "prostate", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""


def test_json_check_tolerates_round_off_only():
    want = {"a": 1.0, "B": 10, "boot_pct": [12.5], "s": "x"}
    assert check.compare_json({"a": 1.0 + 1e-13, "B": 10, "boot_pct": [12.5],
                               "s": "x"}, want) == []
    assert check.compare_json({"a": 1.0 + 1e-9, "B": 10, "boot_pct": [12.5],
                               "s": "x"}, want)
    assert check.compare_json({"a": 1.0, "B": 10, "boot_pct": [12.5 + 1e-13],
                               "s": "x"}, want)
    assert check.compare_json({"a": 1.0, "B": 11, "boot_pct": [12.5],
                               "s": "x"}, want)


def test_csv_check_exact_on_discrete_columns():
    want = "degree,aic,boot_pct\n2,10.000001,12.50\n"
    assert check.compare_csv("degree,aic,boot_pct\n2,10.000002,12.50\n", want) == []
    assert check.compare_csv("degree,aic,boot_pct\n2,10.000003,12.50\n", want)
    assert check.compare_csv("degree,aic,boot_pct\n2,10.000001,12.55\n", want)
