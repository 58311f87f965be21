"""Run one benchmark iteration in a fresh interpreter.

Usage: python3 perfbench/worker.py <spec.json> <spawn time>

Set-up is what a fresh interpreter spends until ``replicast.cli`` is
imported, which every CLI call pays: its CPU time, and its wall time
from the spawn time, the parent's ``time.monotonic()`` just before it
started this process.  The spec names
the workload, its input and output directories and whether to trace; a
spec without a workload only measures set-up.  The result is written as
JSON to ``result.json`` in the output directory.
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import replicast.cli  # noqa: E402

SETUP_S = time.process_time()
SETUP_WALL_S = time.monotonic() - float(sys.argv[2])

import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402

import numpy  # noqa: E402
import scipy  # noqa: E402

from perfbench import spans, workloads  # noqa: E402


def main(spec_path: str) -> None:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    outdir = Path(spec["outdir"])
    result = {
        "setup_s": SETUP_S,
        "setup_wall_s": SETUP_WALL_S,
        "jit_enabled": bool(replicast.JIT_ENABLED),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    if spec.get("workload"):
        workload = workloads.from_spec(spec["workload"])
        traced = bool(spec["traced"])
        tracer = spans.Tracer(record_spans=traced)
        run = workloads.Run(tracer, Path(spec["inputs"]), outdir, int(spec["seed"]))
        with spans.instrumented(tracer, spans.TARGETS if traced else spans.PROBES):
            workload.run(run)
        result.update(wall_s=run.wall_s, cpu_s=run.cpu_s, points=run.points,
                      arrivals=run.arrivals, max_rel_error=run.max_rel_error,
                      checks=run.checks)
        if traced:
            result["layers"] = spans.layer_metrics(tracer)
            tracer.write(spec["spans_path"])
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    (outdir / "result.json").write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1])
