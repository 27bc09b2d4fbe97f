"""The benchmark's own checks (not tier-1): run with

    python -m pytest bench/tests

A ``--smoke`` size of every workload goes through both passes once per
session; the rest reads those records.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from bench import compare, orchestrate, worker  # noqa: E402
from bench.metrics import (  # noqa: E402
    DRIVER_END_TO_END,
    END_TO_END,
    PER_LAYER,
    end_to_end_for,
)
from bench.trace import Target, Tracer  # noqa: E402
from bench.workloads import WORKLOADS  # noqa: E402

#: per-layer metrics each kind of workload must fill in
_APPLIES = {
    "cycle": ("simulator.", "switch.", "port.", "tile.", "endpoint.", "model.",
              "network.", "scenario.", "host_us_", "trace.", "engine."),
    "flow": ("fastpath.", "topology.", "scenario.resolve_s", "scenario.spec_hash_us",
             "trace.", "engine."),
    "campaign": ("fastpath.", "topology.", "campaign.", "store.", "service.",
                 "parallel.", "trace.", "warm_rerun_ms"),
}


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """{workload: (untraced record, traced record, trace file body)}."""
    out = tmp_path_factory.mktemp("bench-out")
    records = {}
    for name, workload in WORKLOADS.items():
        scratch = out / "tmp" / name
        plain = worker.measure(workload, 1, 0.0, 1, True, scratch)
        traced = worker.trace(workload, 1, True, scratch, out)
        spans = json.loads((out / f"trace-{name}.json").read_text())
        for record in (plain, traced):
            record.update(workload=name, why=workload.why, seed=1, smoke=True)
        records[name] = (plain, traced, spans)
    return records


def test_every_metric_is_reported_with_its_unit(smoke):
    for name, (plain, traced, _spans) in smoke.items():
        assert plain["failures"] == [] and traced["failures"] == []
        line = json.loads(worker.contract_line(plain, traced=False))
        assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
        assert set(line["metrics"]) == {m.name for m in DRIVER_END_TO_END}
        for metric in DRIVER_END_TO_END:
            entry = line["metrics"][metric.name]
            assert entry["unit"] == metric.unit and entry["value"] > 0

        line = json.loads(worker.contract_line(traced, traced=True))
        assert set(line["metrics"]) == {m.name for m in PER_LAYER}
        for metric in PER_LAYER:
            assert line["metrics"][metric.name]["unit"] == metric.unit
            if metric.name.startswith(_APPLIES[WORKLOADS[name].kind]):
                assert traced["per_layer"][metric.name] is not None, metric.name
        # the flow engine is cross-checked only where the table declares it
        declared = {m.name for m in end_to_end_for(name)}
        assert ("flow_tput_err_pct" in traced["per_layer"]) == (
            "flow_tput_err_pct" in declared)
        assert traced["missing_targets"] == []

        row = orchestrate._merge(copy.deepcopy(plain), traced)
        assert set(row["end_to_end"]) == {m.name for m in end_to_end_for(name)}
        for entry in row["end_to_end"].values():
            assert entry["value"] is not None and entry["unit"] and entry["n"] >= 1


def test_tracing_does_not_perturb_the_simulation(smoke):
    for plain, traced, _spans in smoke.values():
        assert traced["stats_digest"] == plain["stats_digest"]


def test_self_times_are_nonnegative_and_add_up(smoke):
    for name, (_plain, traced, body) in smoke.items():
        spans = body["spans"]
        for span in spans:
            seconds = span["end"] - span["start"]
            own = seconds - span["child_seconds"]
            assert own >= -1e-9, (name, span["name"])
            parts = own + sum(
                s["end"] - s["start"] for s in spans if s["parent"] == span["id"]
            )
            for hot_name, hot in span.get("hot", {}).items():
                hot_own = hot["seconds"] - hot["child_seconds"]
                assert hot_own >= -1e-9, (name, hot_name)
                parts += hot_own
            assert parts == pytest.approx(seconds, rel=0.02, abs=1e-6), span["name"]
        ledger = traced["per_layer"]
        assert ledger["trace.attributed_pct"] >= 90.0
        assert ledger["trace.unattributed_s"] >= 0.0


def test_compare_of_a_file_with_itself_is_ok_and_a_slowdown_regresses(smoke):
    result = {"workloads": {}}
    for name, (plain, traced, _spans) in smoke.items():
        row = orchestrate._merge(copy.deepcopy(plain), traced)
        for entry in row["end_to_end"].values():
            # a quiet host: every sample at the median
            if "min" in entry:
                entry["min"] = entry["max"] = entry["value"]
                entry["samples"] = [entry["value"]] * 3
        result["workloads"][name] = row

    lines, acceptable = compare.compare(result, result)
    rows = [line for line in lines if " B/A " in line]
    assert acceptable and rows and all(line.endswith(" ok") for line in rows)
    assert not any("statistics changed" in line for line in lines)

    def scaled(base, factor):
        out = copy.deepcopy(base)
        wall = out["workloads"]["flow_mid"]["end_to_end"]["wall_s"]
        for key in ("value", "min", "max"):
            wall[key] *= factor
        wall["samples"] = [factor * sample for sample in wall["samples"]]
        return out

    def wall_verdict(a, b):
        lines, acceptable = compare.compare(a, b)
        row = next(l for l in lines if l.startswith("flow_mid") and " wall_s " in l)
        verdict = row.rsplit(" ", 1)[1]
        assert acceptable == (verdict != "regressed")
        return verdict

    wall_bound = next(m.bound for m in END_TO_END if m.name == "wall_s")
    assert wall_verdict(result, scaled(result, 1 + wall_bound / 2)) == "ok"
    assert wall_verdict(result, scaled(result, 1 + 2 * wall_bound)) == "regressed"

    # repetitions spread wider than the bound: the medians decide nothing,
    # only a gap between the two sets of runs does
    wide = copy.deepcopy(result)
    wall = wide["workloads"]["flow_mid"]["end_to_end"]["wall_s"]
    wall["min"], wall["max"] = 0.8 * wall["value"], 1.2 * wall["value"]
    wall["samples"] = [wall["min"], wall["value"], wall["max"]]
    assert wall_verdict(wide, scaled(wide, 0.5)) == "ok"
    assert wall_verdict(wide, scaled(wide, 1.1)) == "unresolved"
    assert wall_verdict(wide, scaled(wide, 2.0)) == "regressed"

    reseeded = copy.deepcopy(result)
    reseeded["workloads"]["flow_mid"]["seed"] = 2
    lines, acceptable = compare.compare(result, reseeded)
    assert not acceptable and any("not the same inputs" in line for line in lines)

    changed = copy.deepcopy(result)
    changed["workloads"]["cycle_sparse"]["per_layer"]["model.flit_hops"] += 1
    changed["workloads"]["cycle_sparse"]["failed_points"] = 1
    lines, acceptable = compare.compare(result, changed)
    assert "cycle_sparse: simulated statistics changed" in lines
    assert not acceptable


def test_a_vanished_span_target_reads_null_with_one_warning():
    class Box:
        def work(self, n):
            return n + 1

    class SmallBox(Box):
        pass

    fake = types.ModuleType("bench_fake_layer")
    fake.Box, fake.SmallBox = Box, SmallBox
    sys.modules["bench_fake_layer"] = fake
    original = Box.__dict__["work"]
    tracer = Tracer(targets=(
        Target("box.work", "bench_fake_layer", "Box", "work", hot=True),
        Target("box.merged_away", "bench_fake_layer", "Box", "stash_drain_pass", hot=True),
        Target("small.work", "bench_fake_layer", "SmallBox", "work"),
        Target("gone.fn", "bench_no_such_module", None, "fn"),
    ))
    try:
        with tracer.installed("root"):
            assert [SmallBox().work(i) for i in range(5)] == [1, 2, 3, 4, 5]
    finally:
        del sys.modules["bench_fake_layer"]

    assert tracer.missing == ["box.merged_away", "gone.fn"]
    assert len(tracer.problems) == 2
    assert tracer.seconds("box.merged_away") is None
    assert tracer.calls("gone.fn") is None
    assert tracer.calls("box.work") == 5 and tracer.calls("small.work") == 5
    # both wrappers are gone: the inherited one un-shadowed, not re-bound
    assert Box.__dict__["work"] is original and "work" not in SmallBox.__dict__

    line = json.loads(worker.contract_line(
        {"per_layer": {"port.stash_drain_s": None}, "failed_points": 0, "attempted": 1},
        traced=True,
    ))
    assert line["metrics"]["port.stash_drain_s"] == {"value": 0, "unit": "s"}


def test_a_traced_call_that_raises_keeps_the_frame_stack_aligned():
    class Box:
        def work(self, n):
            return n + 1

        def boom(self, n):
            raise ValueError(n)

    fake = types.ModuleType("bench_fake_layer")
    fake.Box = Box
    sys.modules["bench_fake_layer"] = fake
    tracer = Tracer(targets=(
        Target("box.boom", "bench_fake_layer", "Box", "boom", hot=True),
        Target("box.work", "bench_fake_layer", "Box", "work", hot=True),
    ))
    try:
        with tracer.installed("root") as root:
            with pytest.raises(ValueError):
                Box().boom(1)
            Box().work(1)
    finally:
        del sys.modules["bench_fake_layer"]
    assert tracer.calls("box.boom") == 1 and tracer.calls("box.work") == 1
    own = tracer.self_times()
    assert sum(own.values()) == pytest.approx(root.seconds)
    assert all(seconds >= 0.0 for seconds in own.values())


def test_benchmark_json_mirrors_the_tables():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in declared["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]
    assert declared["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in DRIVER_END_TO_END
    ]
    assert declared["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
    ]
    assert all(len(w["why"]) <= 200 for w in declared["workloads"])
    assert declared["paths"] == ["bench"]


def test_without_the_simulator_the_command_fails_and_prints_no_result(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    command = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    done = subprocess.run(
        command + ["--workload", "flow_mid", "--seed", "1", "--seconds", "1",
                   "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
