"""Tests of the benchmark itself: span arithmetic, metric names, gates.

Run from the root of a checkout: ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import json
import re

import numpy as np
import pytest

from perfbench import run, workloads
from perfbench.tracing import Tracer, self_times

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
#: small enough for a test, big enough that every layer still runs
SCALE = 0.05


def test_self_time_subtracts_child_coverage():
    # root [0, 10) holds children [1, 4) and [5, 6); [1, 4) holds [2, 3)
    start = np.array([0.0, 1.0, 2.0, 5.0])
    end = np.array([10.0, 4.0, 3.0, 6.0])
    parent = np.array([-1, 0, 1, 0])
    assert self_times(start, end, parent).tolist() == [6.0, 2.0, 1.0, 1.0]


def test_tracer_nests_spans_and_folds_reentry():
    class Layer:
        def inner(self):
            return 1

        def outer(self):
            return self.inner() + self.again()

        def again(self):
            return 0

    class Sub(Layer):
        def again(self):
            return super().again()

    tracer = Tracer()
    tracer.patch(Layer, "inner", "layer.inner")
    tracer.patch(Layer, "outer", "layer.outer")
    tracer.patch(Layer, "again", "layer.again")
    tracer.patch(Sub, "again", "layer.again")
    try:
        assert tracer.span("root", Sub().outer) == 1
    finally:
        tracer.restore()
    assert "again" not in vars(Sub) or vars(Sub)["again"].__name__ == "again"
    assert Layer.inner.__name__ == "inner"
    spans = tracer.summary()
    assert {k: v["calls"] for k, v in spans.items()} == {
        "root": 1,
        "layer.outer": 1,
        "layer.inner": 1,
        "layer.again": 1,  # Sub.again -> super().again is one span
    }
    arr = tracer.arrays()
    own = self_times(arr["start"], arr["end"], arr["parent"])
    total = spans["root"]["s"]
    assert own.sum() == pytest.approx(total)
    assert all(v["self_s"] >= 0.0 for v in spans.values())


def test_benchmark_json_names_and_units():
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [m["name"] for m in metrics] + [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for metric in metrics:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", metric["unit"])
    assert set(workloads.WORKLOADS) == {w["name"] for w in SPEC["workloads"]}
    assert "setup_s" in {m["name"] for m in SPEC["end_to_end"]}
    for metric in SPEC["end_to_end"]:
        assert 0.0 < metric["bound"] <= 0.25, metric


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_run_emits_every_metric(workload, trace, tmp_path):
    result = run.measure(workload, 3, 0.0, trace, scale=SCALE, out_dir=tmp_path)
    assert result["correct"], result
    kind = "per_layer" if trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert result["attempted"] >= 1
    record = json.loads(
        (tmp_path / f"{workload}-seed3-trace{int(trace)}.json").read_text()
    )
    assert record["determinism_diffs"] == []
    assert record["host"]["seed"] == 3 and record["peak_rss_mb"] > 0
    if trace:
        layer = {k: v["value"] for k, v in result["metrics"].items()}
        assert 0.0 < layer["trace.coverage_frac"] <= 1.0
        if workload == "maintenance":
            assert layer["net.attempts"] == 0
        if workload == "service":
            assert layer["net.attempts"] == layer["hb.join.calls"] == 0


def test_failed_gate_fails_every_operation(monkeypatch, tmp_path):
    from repro.gridsim.invariants import InvariantViolation

    def broken(service, final=False):
        raise InvariantViolation("deliberately failed")

    monkeypatch.setattr(workloads, "check_service_accounting", broken)
    result = run.measure("service", 3, 0.0, False, SCALE, tmp_path)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    assert result["metrics"]["ok_frac"]["value"] == 0.0


def test_work_count_mismatch_is_a_failure(monkeypatch, tmp_path):
    reps = []
    real = workloads.WORKLOADS["flap-storm"]

    def drifting(*args):
        rep = real(*args)
        reps.append(rep)
        rep.counts["sim.events"] += len(reps) - 1
        return rep

    monkeypatch.setitem(workloads.WORKLOADS, "flap-storm", drifting)
    result = run.measure("flap-storm", 3, 0.0, False, SCALE, tmp_path)
    assert not result["correct"]
    assert result["failed"] == result["attempted"]


def test_same_seed_repeats_work_counts(tmp_path):
    records = []
    for run_dir in (tmp_path / "a", tmp_path / "b"):
        run.measure("service", 5, 0.0, False, SCALE, run_dir)
        path = run_dir / "service-seed5-trace0.json"
        records.append(json.loads(path.read_text())["work_counts"])
    assert records[0] == records[1]
    assert len(records[0]) == run.INPUT_SEEDS
