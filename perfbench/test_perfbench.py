"""The benchmark's own tests: ``python3 -m pytest perfbench -q`` from the root.

Runs use a 2,600-user network (``SCALE = 1.0``) and a few units per
workload so the whole file takes well under a minute; the benchmark
itself runs the same code at ``SCALE = 10.0``.
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from reference import ReferenceLoop  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    BENCH = json.load(_handle)

NAME = re.compile(r"[A-Za-z0-9_.-]+")
UNITS = 3
LOOP = ReferenceLoop()

#: Layers each workload never calls: their traced call counts must be 0.
SKIPPED = {
    "mto_serial": ("fleet", "fleet.route", "planning", "planning.predict", "scheduler",
                   "service", "obs"),
    "planned_fleet": ("core.overlay", "service", "obs"),
    "service_tenants": ("core.overlay", "planning", "planning.predict"),
}


@pytest.fixture(autouse=True)
def small(monkeypatch):
    monkeypatch.setattr(workloads, "SCALE", 1.0)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)


def originals():
    """The object each wrapped attribute currently holds."""
    return {(owner, attr): vars(layers.resolve(owner))[attr] for _, owner, attr in layers.TARGETS}


def plain(name, seed):
    return run.run_plain(workloads.WORKLOADS[name], seed, UNITS, LOOP)


def simulated(results, metrics):
    return [r.digest for r in results], {k: metrics[k] for k in run.SIMULATED}


def test_benchmark_json_matches_what_runs_print():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                          "per_layer"}
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} == run.per_layer_units()
    for metric in BENCH["end_to_end"] + BENCH["per_layer"]:
        assert NAME.fullmatch(metric["name"]) and len(metric["name"]) <= 64


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_run_is_checked_and_reproducible(name):
    first = plain(name, 5)
    second = plain(name, 5)
    assert simulated(first[0], first[1]) == simulated(second[0], second[1])
    for value in first[1].values():
        assert value > 0


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_held_out_seed_runs_clean(name):
    results, metrics, _, _ = plain(name, 424_242)
    assert len(results) == UNITS
    assert 0 < metrics["delivered_share"] <= 1


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_main_prints_every_metric_with_its_unit(capsys, trace, key):
    code = run.main(["--workload", "service_tenants", "--seed", "9", "--seconds", "0",
                     "--trace", str(trace)])
    assert code == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] == UNITS
    expected = {m["name"]: m["unit"] for m in BENCH[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(NAME.fullmatch(k) for k in result["metrics"])


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_run_skips_layers_and_restores_originals(name):
    before = originals()
    untraced = plain(name, 7)
    _, metrics, _, _ = run.run_traced(workloads.WORKLOADS[name], 7, UNITS, LOOP)
    assert originals() == before
    for layer in SKIPPED[name]:
        assert metrics[f"{layer}.calls_per_sample"] == 0, layer
    for layer in set(layers.LAYERS) - set(SKIPPED[name]) - {"datasets", "compose"}:
        assert metrics[f"{layer}.calls_per_sample"] > 0, layer
    after = plain(name, 7)
    assert simulated(*untraced[:2]) == simulated(*after[:2])


def test_restore_puts_back_class_attributes_and_module_globals():
    import repro.datasets
    import repro.service.service
    from repro.fleet.router import ShardRouter

    load, encode, shard_of = (repro.datasets.load, repro.service.service.encode_value,
                              ShardRouter.__dict__["shard_of"])
    with layers.LayerSpans():
        assert repro.datasets.load is not load
        assert repro.service.service.encode_value is not encode
        assert ShardRouter.__dict__["shard_of"] is not shard_of
    assert repro.datasets.load is load
    assert repro.service.service.encode_value is encode
    assert ShardRouter.__dict__["shard_of"] is shard_of


def test_tampered_trace_fails_the_service_check():
    workload = workloads.WORKLOADS["service_tenants"]
    network = workloads.build_network()
    (spec,) = workload.plan(network, 3, 1)
    built = workload.assemble(network, spec)
    outputs = workload.execute(network, built)
    events = built.recorder.events
    del events[next(i for i, e in enumerate(events) if e.name == "query")]
    with pytest.raises(workloads.CheckFailed, match="reconcile"):
        workload.finish(network, built, outputs)


def test_bill_and_estimate_checks_fail_loudly():
    with pytest.raises(workloads.CheckFailed, match="distinct"):
        workloads._check_bill([(1, True, 0.0), (1, True, 1.0)], 1, "log")
    with pytest.raises(workloads.CheckFailed, match="finite"):
        workloads._curve_figures([1, 2], [1.0, float("nan")], 1.0)


def test_missing_sources_exit_nonzero_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mto_serial", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
