"""Shared fixtures plus the acceptance-criteria summary reporter.

The acceptance tests register one PASS/FAIL line each; the terminal
summary hook prints them after the run so the verdicts are visible
even under captured output.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import settings

import replicast as rc

settings.register_profile("suite", deadline=None, max_examples=60)
# A longer search, selected with `pytest --hypothesis-profile=deep`.
settings.register_profile("deep", deadline=None, max_examples=600)
settings.load_profile("suite")

_ACCEPTANCE_LINES = {}


def record_criterion(num: int, passed: bool, detail: str) -> None:
    verdict = "PASS" if passed else "FAIL"
    _ACCEPTANCE_LINES[num, 0] = f"criterion {num}: {verdict}  {detail}"


def record_note(num: int, detail: str) -> None:
    notes = sum(1 for n, rank in _ACCEPTANCE_LINES if n == num and rank)
    _ACCEPTANCE_LINES[num, notes + 1] = f"  beside criterion {num}: {detail}"


@pytest.fixture(scope="session")
def criterion():
    """Callable(num, passed, detail) recording one acceptance verdict."""
    return record_criterion


@pytest.fixture(scope="session")
def criterion_note():
    """Callable(num, detail) recording a diagnostic line printed after
    criterion num's verdict, and after its earlier notes; it is not a
    criterion of its own."""
    return record_note


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_LINES:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for key in sorted(_ACCEPTANCE_LINES):
        terminalreporter.write_line(_ACCEPTANCE_LINES[key])


# Reference setting shared across the end-to-end tests: an infinite-server
# workload with 0.2 s exponential service, profiled at nine per-container
# rate levels covering [0.5, 20] req/s.
REF_MEAN_SERVICE_S = 0.2
REF_PROFILE_RATES = (0.5, 2.5, 5.0, 7.5, 10.0, 12.5, 15.0, 17.5, 20.0)


@pytest.fixture(scope="session")
def ref_workload():
    return rc.WorkloadModel(kind=rc.WORKLOAD_INFINITE_SERVER, mean_s=REF_MEAN_SERVICE_S)


@pytest.fixture(scope="session")
def ref_trace(ref_workload):
    return rc.profile_trace(
        ref_workload,
        REF_PROFILE_RATES,
        metric_kind=rc.METRIC_CONCURRENCY,
        duration_s=2700.0,
        warmup_s=300.0,
        seed=1000,
    )


@pytest.fixture(scope="session")
def ref_bundle(ref_trace):
    return rc.fit_bundle(ref_trace, rc.METRIC_CONCURRENCY)


def fresh_env(env=None):
    """env, os.environ by default, with this replicast first on PYTHONPATH."""
    env = dict(os.environ if env is None else env)
    src = str(Path(rc.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join([src, *filter(None, [env.get("PYTHONPATH")])])
    return env


def run_fresh(script, *args, env=None):
    """Stdout of script run by a fresh interpreter that imports this replicast."""
    proc = subprocess.run([sys.executable, "-c", script, *args],
                          capture_output=True, text=True, timeout=300, env=fresh_env(env))
    assert proc.returncode == 0, proc.stderr
    return proc.stdout
