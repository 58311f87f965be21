"""Benchmark of the replicast CLI, end to end and per layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload sweep-n21 --seed 1 --seconds 35 --trace 0

Workloads (``workloads.WORKLOADS``; BENCHMARK.json says why each was chosen):

    sweep-n21        sweep, cc, n_max 21, lambda {30, 60, 120} x target {2, 5, 10}
    predict-n50      predict, cc, n_max 50, lambda 200, target 2
    profile-compare  profile_trace at nine rates, write_trace, fit, then
                     compare --seeds 2 at n_max 10, lambda 35, target 2, 3600 s

The seed fixes every generated input (``workloads`` says what it varies
on each workload).  The load is a closed loop: one
client issues one command at a time.  Each iteration of a workload runs
in a fresh worker interpreter (``worker.py``); iterations repeat while
the next one is expected to end within ``--seconds``, and at least one
runs.  Every output is checked; each failed check counts in ``failed``.

With ``--trace 0`` tracing is off and the last line carries the
end-to-end metrics that gate a change:

    setup_s       median CPU time a fresh interpreter spends until
                  replicast.cli is imported, which every CLI call pays,
                  over every worker of the run (at least 3)
    cpu_s         median CPU time (all threads, and any child processes)
                  of one iteration's timed commands
    peak_rss_mb   median peak resident memory of an iteration's worker

The table above it also shows wall_s (median wall time of one
iteration's timed commands), points_per_s (analytic points answered,
that is sweep rows, predict and compare's prediction, per second of
wall time), sim_arrivals_per_s (simulated arrivals per second of wall
time), max_rel_error (the largest of compare's relative errors),
error_rate (failed / attempted) and setup_wall_s (the wall time of
set-up).  Wall times stay out of the last line because a shared virtual
machine loses CPU to its neighbours: on 2 vCPUs under hypervisor steal,
one sweep's wall time went from 7 s to 20 s while its CPU time rose by
a third.  The others are 0 or undefined on some workloads.

With ``--trace 1`` the run makes one untraced and one traced iteration.
The last line carries the traced iteration's per-layer metrics
(``spans.layer_metrics``) and ``trace.overhead_s``, the traced wall time
minus the untraced one.  The spans are written to
``.perfbench/results/<workload>-seed<n>-spans.json``, and every run
records its machine, versions, samples and checks in
``.perfbench/results/<workload>-seed<n>-trace<t>.json``.

When numba is importable, an untraced run also repeats one iteration on
the pure-Python backend and checks that its output files are
bit-identical.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"

SETUP_SAMPLES = 3
# A run must end within 180 s, builds aside.
WORKER_TIMEOUT_S = 170

END_TO_END_UNITS = {"setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB"}
REPORTED_UNITS = {"wall_s": "s", "points_per_s": "1/s", "sim_arrivals_per_s": "1/s",
                  "max_rel_error": "ratio", "error_rate": "ratio", "setup_wall_s": "s"}


class BenchmarkError(RuntimeError):
    """The benchmark itself could not run (as opposed to a failed check)."""


def jit_available() -> bool:
    return importlib.util.find_spec("numba") is not None


def run_worker(spec: dict, env=None) -> dict:
    outdir = Path(spec["outdir"])
    outdir.mkdir(parents=True)
    spec_path = outdir / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    argv = [sys.executable, str(ROOT / "perfbench" / "worker.py"), str(spec_path),
            repr(time.monotonic())]
    started = time.monotonic()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S, env=env)
    if proc.returncode != 0:
        raise BenchmarkError(f"worker exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    result = json.loads((outdir / "result.json").read_text(encoding="utf-8"))
    result["elapsed_s"] = time.monotonic() - started
    return result


def _differing_outputs(workload, dir_a: Path, dir_b: Path) -> list:
    """Output files of ``workload`` that differ between two iterations."""
    return [name for name in workload.outputs
            if not (dir_a / name).is_file() or not (dir_b / name).is_file()
            or (dir_a / name).read_bytes() != (dir_b / name).read_bytes()]


def _median(values, samples: dict, name: str):
    values = [v for v in values if v is not None]
    samples[name] = len(values)
    return statistics.median(values) if values else None


def measure(name: str, seed: int, seconds: float, trace: bool, workload=None) -> dict:
    """Run one workload and return its record: metrics, samples, checks."""
    from perfbench import workloads
    workload = workload or workloads.WORKLOADS[name]
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    workdir = OUT / "work" / f"{name}-seed{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    inputs = workdir / "inputs"
    inputs.mkdir(parents=True)
    spans_path = results / f"{name}-seed{seed}-spans.json"

    def iteration(tag, traced=False, env=None):
        return run_worker({"workload": workloads.to_spec(workload), "inputs": str(inputs),
                           "outdir": str(workdir / tag), "seed": seed, "traced": traced,
                           "spans_path": str(spans_path)}, env=env)

    try:
        workload.prepare(inputs, seed)
        if trace:
            iterations = [iteration("plain"), iteration("traced", traced=True)]
        else:
            iterations = []
            start = time.monotonic()
            while not iterations or (time.monotonic() - start
                                     + iterations[-1]["elapsed_s"] <= seconds):
                iterations.append(iteration(f"iter{len(iterations)}"))
        # Set-up only gates untraced runs; top its samples up with workers
        # that only import.
        setup_runs = iterations + [
            run_worker({"outdir": str(workdir / f"setup{k}")})
            for k in range(len(iterations), 0 if trace else SETUP_SAMPLES)]
        checks = [c for it in iterations for c in it["checks"]]
        if not trace and jit_available():
            pure = iteration("pure", env=dict(os.environ, REPLICAST_DISABLE_JIT="1"))
            differ = _differing_outputs(workload, workdir / "iter0", workdir / "pure")
            checks += pure["checks"]
            checks.append(("jit.bit_identical", not differ,
                           f"outputs differ between backends: {', '.join(differ)}"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    first = iterations[0]
    samples: dict = {}
    record = {
        "workload": name, "seed": seed, "trace": int(trace), "seconds": seconds,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "python": first["python"], "numpy": first["numpy"], "scipy": first["scipy"],
        "jit_enabled": first["jit_enabled"], "iterations": len(iterations),
        "iteration_wall_s": [it["wall_s"] for it in iterations],
        "attempted": len(checks), "failed": sum(1 for c in checks if not c[1]),
        "failed_checks": [c for c in checks if not c[1]],
        "samples": samples,
    }
    if trace:
        plain, traced = iterations
        layers = {k: tuple(v) for k, v in traced["layers"].items()}
        layers["trace.overhead_s"] = (traced["wall_s"] - plain["wall_s"], "s")
        record["metrics"] = layers
        record["spans"] = str(spans_path.relative_to(ROOT))
    else:
        def median_of(key, values=None):
            return _median(values or [it[key] for it in iterations], samples, key)

        values = {
            "setup_s": median_of("setup_s", [it["setup_s"] for it in setup_runs]),
            "cpu_s": median_of("cpu_s"),
            "peak_rss_mb": median_of("peak_rss_mb"),
            "wall_s": median_of("wall_s"),
            "points_per_s": median_of("points_per_s",
                                      [it["points"] / it["wall_s"] for it in iterations]),
            "sim_arrivals_per_s": median_of("sim_arrivals_per_s",
                                            [it["arrivals"] / it["wall_s"] for it in iterations]),
            "max_rel_error": median_of("max_rel_error"),
            "error_rate": record["failed"] / record["attempted"],
            "setup_wall_s": median_of("setup_wall_s",
                                      [it["setup_wall_s"] for it in setup_runs]),
        }
        record["metrics"] = {k: (values[k], u) for k, u in END_TO_END_UNITS.items()}
        record["reported"] = {k: (values[k], u) for k, u in REPORTED_UNITS.items()}
    (results / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")
    return record


def result_line(record: dict) -> dict:
    """The last line of the output, as the benchmark's contract defines it."""
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in record["metrics"].items()},
    }


def print_report(record: dict) -> None:
    print(f"perfbench {record['workload']} seed {record['seed']} trace {record['trace']}: "
          f"{record['iterations']} iteration(s); nproc {record['nproc']}; "
          f"python {record['python']}; numpy {record['numpy']}; scipy {record['scipy']}; "
          f"jit_enabled {str(record['jit_enabled']).lower()}")
    rows = {**record["metrics"], **record.get("reported", {})}
    for name, (value, unit) in rows.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        count = record["samples"].get(name)
        note = f"  (median of {count})" if count is not None else ""
        print(f"  {name:<34} {shown:>14} {unit}{note}")
    for name, _, detail in record["failed_checks"]:
        print(f"  FAILED {name}: {detail}")
    print(json.dumps(result_line(record)))


def main(argv=None) -> int:
    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description="Benchmark the replicast CLI.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "replicast" / "cli.py").is_file():
        print(f"error: no replicast sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchmarkError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print_report(record)
    return 0


if __name__ == "__main__":
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    sys.exit(main())
