"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root: python3 -m pytest -q perfbench/tests
"""

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import replicast  # noqa: E402
from replicast import cli, errors  # noqa: E402

from perfbench import run, spans, workloads  # noqa: E402

TINY = {
    "sweep-n21": workloads.Sweep(n_max=3, lambdas=(1, 4), targets=(1, 2),
                                 profile_duration_s=320.0),
    "predict-n50": workloads.Predict(n_max=3, arrival_rate=4.0, target=1.0,
                                     profile_duration_s=320.0),
    "profile-compare": workloads.ProfileCompare(n_max=2, arrival_rate=3.0, target=1.0,
                                                duration_s=400.0, warmup_s=300.0, seeds=2,
                                                profile_duration_s=320.0),
}

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_tiny_workloads_match_benchmark_json():
    assert sorted(TINY) == sorted(w["name"] for w in BENCHMARK["workloads"])
    assert sorted(TINY) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_run_prints_every_metric_with_its_unit(name, trace, capsys):
    record = run.measure(name, 3, 1.0, bool(trace), workload=TINY[name])
    run.print_report(record)
    lines = capsys.readouterr().out.strip().splitlines()
    expected = BENCHMARK["per_layer"] if trace else BENCHMARK["end_to_end"]
    units = {m["name"]: m["unit"] for m in expected}
    if not trace:
        units.update(run.REPORTED_UNITS)
    for metric, unit in units.items():
        assert any(line.split()[:1] == [metric] and line.split()[2] == unit
                   for line in lines[1:-1]), f"{metric} [{unit}] not printed"
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    assert {k: v["unit"] for k, v in last["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected}


def _function_holders():
    """Every (module, name, object) in replicast that a target can reach."""
    originals = {id(getattr(importlib.import_module(t.module), t.name))
                 for t in spans.TARGETS if "." not in t.name}
    return [(mod, name, value)
            for mod_name, mod in list(sys.modules.items())
            if mod_name == "replicast" or mod_name.startswith("replicast.")
            for name, value in list(vars(mod).items()) if id(value) in originals]


def test_wrappers_patch_every_lookup_and_restore_it():
    before = _function_holders()
    extend = replicast.config.ProfilingTrace.extend
    build_chain = replicast.cluster.build_chain
    with pytest.raises(RuntimeError):
        with spans.instrumented(spans.Tracer()):
            assert cli.build_chain is not build_chain
            assert replicast.build_chain is not build_chain
            assert cli.simulate.__wrapped__ is replicast.simulator.simulate.__wrapped__
            assert replicast.cluster.order_probabilities.__wrapped__ is \
                replicast.evaluator.order_probabilities.__wrapped__
            assert replicast.config.ProfilingTrace.extend is not extend
            raise RuntimeError("leave the block early")
    assert all(getattr(mod, name) is value for mod, name, value in before)
    assert replicast.config.ProfilingTrace.extend is extend
    assert cli.build_chain is build_chain


def test_failing_sweep_point_is_a_failed_check(tmp_path, monkeypatch):
    sweep = TINY["sweep-n21"]
    inputs, outdir = tmp_path / "inputs", tmp_path / "out"
    inputs.mkdir()
    outdir.mkdir()
    sweep.prepare(inputs, seed=3)
    real = cli._analytic_report

    def fail_one_point(bundle, cfg, arrival_rate, **kw):
        if (arrival_rate, cfg.target_value) == (4.0, 2.0):
            raise errors.NumericalError("deliberate failure")
        return real(bundle, cfg, arrival_rate, **kw)

    monkeypatch.setattr(cli, "_analytic_report", fail_one_point)
    bench_run = workloads.Run(spans.Tracer(record_spans=False), inputs, outdir, seed=3)
    sweep.run(bench_run)
    failed = [c for c in bench_run.checks if not c[1]]
    assert [c[0] for c in failed] == ["sweep.point[4,2]"]
    assert "deliberate failure" in failed[0][2]
    assert len(bench_run.checks) == 5 and bench_run.points == 3


def test_jit_comparison_runs_when_numba_is_importable(monkeypatch):
    monkeypatch.setattr(run, "jit_available", lambda: True)
    record = run.measure("predict-n50", 4, 1.0, False, workload=TINY["predict-n50"])
    assert record["failed"] == 0
    assert record["attempted"] == 5  # two checks per iteration, plus the comparison


def test_self_time_counts_children_on_other_threads_once():
    command = spans.Span(0, "cli.sweep", 0.0, 10.0, None, thread=1)
    pool = [spans.Span(1, "cluster.assembly", 1.0, 6.0, 0, thread=2),
            spans.Span(2, "cluster.assembly", 2.0, 8.0, 0, thread=3),
            spans.Span(3, "cluster.vertical", 3.0, 5.0, 1, thread=2)]
    selfs = spans.self_times([command, *pool])
    assert selfs["cli.sweep"] == pytest.approx(10.0 - 7.0)
    assert selfs["cluster.assembly"] == pytest.approx((5.0 - 2.0) + 6.0)
    assert selfs["cluster.vertical"] == pytest.approx(2.0)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, *BENCHMARK["command"][1:], "--workload",
                           "predict-n50", "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
