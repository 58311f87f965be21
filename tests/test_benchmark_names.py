"""Every replicast name the benchmark harness in ``perfbench/`` reads.

The harness wraps the functions in ``perfbench.spans.TARGETS`` by module
and name, and its worker and workloads read a few more names.  A rename
in the package that the harness still reads would otherwise show only
when the benchmark runs.
"""

import importlib
import sys
from pathlib import Path

import pytest

import replicast as rc
from replicast import cli, config, simulator

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))
from perfbench import spans  # noqa: E402


@pytest.mark.parametrize("target", spans.TARGETS, ids=lambda t: f"{t.module}:{t.name}")
def test_every_wrapped_function_resolves(target):
    owner = importlib.import_module(target.module)
    for part in target.name.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def test_worker_and_workload_names_resolve():
    assert rc.JIT_ENABLED is False
    for module in (rc, simulator):
        assert module.WORKLOAD_INFINITE_SERVER == "infinite_server"
        assert module.WORKLOAD_PROCESSOR_SHARING == "processor_sharing"
    called = [rc.WorkloadModel, rc.profile_trace, rc.write_trace, rc.save_bundle,
              rc.fit_bundle, rc.parse_trace, simulator.WorkloadModel,
              simulator.profile_trace, config.write_trace, cli.main]
    assert all(callable(fn) for fn in called)
