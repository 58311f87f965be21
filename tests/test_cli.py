"""Command-line protocol: flags, outputs, and the exit-code contract."""

import argparse
import csv
import json
import math
import os
import statistics
import subprocess
import sys
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.special import stdtrit

import replicast as rc
from conftest import fresh_env, run_fresh
from oracles import dense_block, reference_horizontal, reference_run_simulation
from replicast import _kernels, cli


@pytest.fixture(scope="module")
def bundle_path(tmp_path_factory, ref_bundle):
    path = tmp_path_factory.mktemp("bundle") / "model.json"
    rc.save_bundle(ref_bundle, path)
    return str(path)


@pytest.fixture(scope="module")
def curved_bundle_path(tmp_path_factory, ref_bundle):
    """The reference bundle with the README model's negative quadratic,
    whose mean overflows to -inf at 1e300 req/s."""
    data = ref_bundle.to_dict()
    data["metric_model"]["mean"]["coefficients"][2] = -0.000318799996863102
    path = tmp_path_factory.mktemp("curved") / "model.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


@pytest.fixture(scope="module")
def trace_path(tmp_path_factory, ref_trace):
    path = tmp_path_factory.mktemp("trace") / "trace.csv"
    rc.write_trace(ref_trace, path)
    return str(path)


def autoscaler_file(tmp_path, target_value=100.0, n_max=1, **kw):
    cfg = rc.AutoscalerConfig(metric_kind="cc", target_value=target_value,
                              n_max=n_max, **kw)
    path = tmp_path / "autoscaler.json"
    rc.save_autoscaler_config(cfg, path)
    return str(path)


def sim_config_file(tmp_path, arrival_rate=5.0, target_value=100.0, n_max=1,
                    duration_s=1200.0, warmup_s=300.0, seed=11, name="sim.json", **kw):
    cfg = rc.SimulationConfig(
        autoscaler=rc.AutoscalerConfig(metric_kind="cc", target_value=target_value,
                                       n_max=n_max, **kw),
        workload=rc.WorkloadModel(kind=rc.WORKLOAD_INFINITE_SERVER, mean_s=0.2),
        arrival_rate=arrival_rate, duration_s=duration_s, warmup_s=warmup_s,
        seed=seed)
    path = tmp_path / name
    path.write_text(json.dumps(cfg.to_dict()), encoding="utf-8")
    return str(path)


def predict_error(tmp_path, capsys, bundle_data):
    """stderr of `predict` on a bundle that must exit 1 and print nothing."""
    model = tmp_path / "model.json"
    model.write_text(json.dumps(bundle_data), encoding="utf-8")
    cfg = autoscaler_file(tmp_path, target_value=10.0, n_max=10)
    code = cli.main(["predict", "--model", str(model), "--config", cfg,
                     "--arrival-rate", "100"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    return captured.err


def strict_json(text):
    """Parse standard JSON only: NaN and Infinity tokens raise."""
    def refuse(token):
        raise ValueError(f"non-standard JSON token {token}")
    return json.loads(text, parse_constant=refuse)


def dense_orders(sparse, n_max):
    """The n_max x n_max order rows of --explain's nonzero entries."""
    rows = np.zeros((n_max, n_max))
    rows[np.array(sparse["ready"]) - 1, np.array(sparse["order"]) - 1] = sparse["probability"]
    return rows


class TestFit:
    def test_writes_bundle_and_diagnostics(self, tmp_path, trace_path, capsys):
        out = tmp_path / "model.json"
        code = cli.main(["fit", "--trace", trace_path, "--out", str(out)])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "metric fit" in stdout and "response-time fit" in stdout
        bundle = rc.load_bundle(out)
        assert bundle.metric.metric_kind == "cc"

    def test_single_rate_trace_is_insufficient(self, tmp_path, capsys):
        trace = tmp_path / "one.csv"
        trace.write_text("per_container_rate,observed_metric,mean_response_time_s\n"
                         "2.0,0.4,0.2\n", encoding="utf-8")
        code = cli.main(["fit", "--trace", str(trace), "--out",
                         str(tmp_path / "m.json")])
        assert code == 1
        assert "insufficient data" in capsys.readouterr().err

    def test_missing_trace_file_names_path(self, tmp_path, capsys):
        missing = tmp_path / "nope.csv"
        code = cli.main(["fit", "--trace", str(missing), "--out",
                         str(tmp_path / "m.json")])
        assert code == 1
        assert str(missing) in capsys.readouterr().err

    def test_trace_that_is_not_utf8_names_its_line(self, tmp_path):
        trace = tmp_path / "bad.csv"
        trace.write_bytes(b"per_container_rate,observed_metric,mean_response_time_s\n"
                          b"1.0,0.2,0.2\n\xff,1.0,0.2\n")
        proc = subprocess.run(
            [sys.executable, "-m", "replicast.cli", "fit", "--trace", str(trace),
             "--out", str(tmp_path / "m.json")],
            capture_output=True, text=True, timeout=300, env=fresh_env())
        assert proc.returncode == 1
        assert "line 3" in proc.stderr and "Traceback" not in proc.stderr, proc.stderr

    def test_rates_too_small_to_fit_are_an_input_error(self, tmp_path):
        # the largest rate's square underflows to 0, which the fit divides by
        trace = tmp_path / "tiny.csv"
        trace.write_text("per_container_rate,observed_metric,mean_response_time_s\n"
                         "1e-200,0.2,0.2\n2e-200,0.4,0.2\n3e-200,0.6,0.2\n")
        proc = subprocess.run(
            [sys.executable, "-m", "replicast.cli", "fit", "--trace", str(trace),
             "--out", str(tmp_path / "m.json")],
            capture_output=True, text=True, timeout=300, env=fresh_env())
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr, proc.stderr
        assert "3e-200" in proc.stderr

    def test_missing_required_flag(self, trace_path, capsys):
        code = cli.main(["fit", "--trace", trace_path])
        assert code == 1
        assert "--out" in capsys.readouterr().err


class TestPredict:
    def test_single_replica_degenerate_case(self, tmp_path, bundle_path, capsys):
        cfg = autoscaler_file(tmp_path, target_value=100.0, n_max=1)
        code = cli.main(["predict", "--model", bundle_path, "--config", cfg,
                         "--arrival-rate", "5"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["avg_replica_count"] == 1.0
        assert payload["arrival_rate"] == 5.0

    def test_repeat_runs_are_byte_identical(self, tmp_path, bundle_path, capsys):
        cfg = autoscaler_file(tmp_path, target_value=2.0, n_max=6)
        argv = ["predict", "--model", bundle_path, "--config", cfg,
                "--arrival-rate", "12"]
        assert cli.main(argv) == 0
        first = capsys.readouterr().out
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == first

    def test_out_file_matches_stdout(self, tmp_path, bundle_path, capsys):
        cfg = autoscaler_file(tmp_path, target_value=2.0, n_max=4)
        out = tmp_path / "report.json"
        code = cli.main(["predict", "--model", bundle_path, "--config", cfg,
                         "--arrival-rate", "8", "--out", str(out)])
        assert code == 0
        stdout = capsys.readouterr().out
        assert out.read_text(encoding="utf-8") == stdout

    @pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
    def test_closed_stdout_is_not_an_error(self, tmp_path, bundle_path, buffered):
        # as in `predict ... | head -1`, the reader has gone before predict
        # writes: the write fails in the command's print when stdout is
        # unbuffered, and at the flush after it when buffered
        cfg = autoscaler_file(tmp_path, target_value=2.0, n_max=10)
        env = fresh_env()
        env.pop("PYTHONUNBUFFERED", None)
        if not buffered:
            env["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "replicast.cli", "predict", "--model", bundle_path,
                 "--config", cfg, "--arrival-rate", "20"],
                stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=300, env=env)
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (0, "")

    def test_diagnostics_without_per_state(self, tmp_path, bundle_path, capsys):
        cfg = autoscaler_file(tmp_path, target_value=2.0, n_max=3)
        code = cli.main(["predict", "--model", bundle_path, "--config", cfg,
                         "--arrival-rate", "10"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert "per_state" not in payload and "explain" not in payload
        diagnostics = payload["diagnostics"]
        assert diagnostics["n_transient"] + diagnostics["recurrent_states"] == 9
        assert 1 <= diagnostics["recurrent_states"] <= diagnostics["closed_states"] <= 9
        assert 0.0 <= diagnostics["residual"] <= 1e-10

    def test_explain_includes_chain_internals(self, tmp_path, bundle_path, capsys):
        cfg = autoscaler_file(tmp_path, target_value=2.0, n_max=3)
        code = cli.main(["predict", "--model", bundle_path, "--config", cfg,
                         "--arrival-rate", "10", "--explain"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        # the states and the stationary vector cover the closed states,
        # labelled (order, ready); every other state is transient.  The
        # transitions are the chain's own arrays, positions into states,
        # and per_ready holds one value per ready count 1..n_max
        explain = payload["explain"]
        closed = payload["diagnostics"]["closed_states"]
        chain = rc.build_chain(10.0, rc.load_bundle(bundle_path).metric,
                               rc.load_autoscaler_config(cfg))
        assert explain["states"] == chain.states.tolist()
        assert len(explain["states"]) == closed
        assert len(explain["stationary"]) == closed
        assert sum(explain["stationary"]) == pytest.approx(1.0)
        transitions = explain["transitions"]
        assert set(transitions) == {"source", "target", "probability"}
        for name in ("source", "target", "probability"):
            assert len(transitions[name]) == chain.source.size
            assert transitions[name] == getattr(chain, name).tolist()
        per_ready = explain["per_ready"]
        assert set(per_ready) == {"concurrency", "response_time_s", "extrapolated"}
        assert all(len(values) == 3 for values in per_ready.values())
        assert np.array_equal(dense_orders(explain["order_distributions"], 3),
                              chain.horizontal)
        for gone in ("transition_matrix", "n_transient_states", "rate_matrices"):
            assert gone not in explain
        assert "per_state" not in payload and "per_ready" not in payload

    def test_explain_is_compact_and_the_plain_report_indented(self, tmp_path, bundle_path,
                                                              capsys):
        # --explain holds n_max^2 numbers and more, so it is written compactly
        # by json's C encoder; the plain report keeps its indented layout, and
        # both carry the same report
        cfg = autoscaler_file(tmp_path, target_value=2.0, n_max=5)
        argv = ["predict", "--model", bundle_path, "--config", cfg, "--arrival-rate", "12"]
        out = tmp_path / "explain.json"
        assert cli.main(argv) == 0
        plain = capsys.readouterr().out
        assert cli.main(argv + ["--explain", "--out", str(out)]) == 0
        explained = capsys.readouterr().out
        assert plain == json.dumps(json.loads(plain), indent=2, sort_keys=True) + "\n"
        payload = json.loads(explained)
        assert explained == json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
        assert out.read_text(encoding="utf-8") == explained
        assert np.array_equal(
            dense_orders(payload.pop("explain")["order_distributions"], 5),
            rc.build_chain(12.0, rc.load_bundle(bundle_path).metric,
                           rc.load_autoscaler_config(cfg)).horizontal)
        assert payload == json.loads(plain)

    def test_explain_is_a_complete_chain(self, tmp_path, bundle_path, capsys):
        # from the JSON alone: the transitions rebuild a row-stochastic
        # matrix on states whose fixed point is the stationary vector, and
        # per_ready weighted by it gives the averages
        cfg = autoscaler_file(tmp_path, target_value=2.0, n_max=8)
        code = cli.main(["predict", "--model", bundle_path, "--config", cfg,
                         "--arrival-rate", "30", "--explain"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        explain = payload["explain"]
        ready = [j for _, j in explain["states"]]
        for avg, name in (("avg_concurrency", "concurrency"),
                          ("avg_response_time_s", "response_time_s")):
            weighted = math.fsum(p * explain["per_ready"][name][j - 1]
                                 for p, j in zip(explain["stationary"], ready))
            assert payload[avg] == pytest.approx(weighted, rel=1e-12)
        n = len(explain["states"])
        assert n > 1
        t = explain["transitions"]
        p = np.zeros((n, n))
        np.add.at(p, (t["source"], t["target"]), t["probability"])
        pi = np.array(explain["stationary"])
        assert np.max(np.abs(p.sum(axis=1) - 1.0)) <= 1e-12
        assert np.max(np.abs(pi @ p - pi)) <= 1e-10
        chain = rc.build_chain(30.0, rc.load_bundle(bundle_path).metric,
                               rc.load_autoscaler_config(cfg))
        assert np.array_equal(p, dense_block(chain))

    @pytest.mark.parametrize("rate", ["0", "-1", "nan"])
    def test_nonpositive_or_nan_arrival_rate_exits_one(self, tmp_path, bundle_path,
                                                       capsys, rate):
        cfg = autoscaler_file(tmp_path, target_value=2.0, n_max=3)
        code = cli.main(["predict", "--model", bundle_path, "--config", cfg,
                         "--arrival-rate", rate])
        assert code == 1
        assert "arrival_rate must be finite and > 0" in capsys.readouterr().err

    @pytest.mark.parametrize("explain", [[], ["--explain"]])
    def test_non_finite_metric_exits_one_with_the_scalar_error(self, tmp_path,
                                                               curved_bundle_path, capsys,
                                                               explain):
        # at 1e300 req/s the fitted quadratic overflows: the error is the
        # one the scalar law raises at the first ready count, and no numpy
        # warning leaks
        cfg = autoscaler_file(tmp_path, target_value=2.0, n_max=6)
        with pytest.raises(rc.ValidationError) as want:
            reference_horizontal(1e300, rc.load_bundle(curved_bundle_path).metric,
                                 rc.load_autoscaler_config(cfg))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["predict", "--model", curved_bundle_path, "--config", cfg,
                             "--arrival-rate", "1e300", *explain])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {want.value}\n"
        assert "mean must be finite, got -inf" in captured.err and captured.out == ""

    def test_metric_kind_mismatch_exits_one(self, tmp_path, bundle_path, capsys):
        cfg = tmp_path / "rps.json"
        rc.save_autoscaler_config(
            rc.AutoscalerConfig(metric_kind="rps", target_value=2.0, n_max=3), cfg)
        code = cli.main(["predict", "--model", bundle_path, "--config", str(cfg),
                         "--arrival-rate", "10"])
        assert code == 1
        err = capsys.readouterr().err
        assert "'cc'" in err and "'rps'" in err

    def test_metric_kind_mismatch_rejected_before_chain_work(self, tmp_path, bundle_path,
                                                             capsys, monkeypatch):
        def chain_work(*args):
            raise AssertionError("chain work ran before the metric-kind check")

        # the two factors build_chain makes before it assembles the chain
        for name in ("_horizontal_rows", "_vertical_law"):
            monkeypatch.setattr(rc.cluster, name, chain_work)
        cfg = tmp_path / "rps.json"
        rc.save_autoscaler_config(
            rc.AutoscalerConfig(metric_kind="rps", target_value=2.0, n_max=200), cfg)
        code = cli.main(["predict", "--model", bundle_path, "--config", str(cfg),
                         "--arrival-rate", "10"])
        assert code == 1

    def test_numerical_failures_exit_two(self, tmp_path, bundle_path, capsys,
                                         monkeypatch):
        def boom(*args, **kwargs):
            raise rc.NonErgodicError("forced structural failure")
        monkeypatch.setattr(cli, "_analytic_report", boom)
        cfg = autoscaler_file(tmp_path, target_value=2.0, n_max=3)
        code = cli.main(["predict", "--model", bundle_path, "--config", cfg,
                         "--arrival-rate", "10"])
        assert code == 2
        assert "forced structural failure" in capsys.readouterr().err

    @pytest.mark.parametrize("path,key,where", [
        (("metric_model", "mean"), "rho_max", "metric_model.mean rho_max"),
        (("metric_model", "variance", "coefficients"), 2,
         "metric_model.variance coefficients[2]"),
        (("response_time",), "mse", "response_time mse"),
        (("response_time", "coefficients"), 1, "response_time coefficients[1]"),
    ])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_bundle_exits_one(self, tmp_path, ref_bundle, capsys, path, key,
                                         where, value):
        data = ref_bundle.to_dict()
        holder = data
        for name in path:
            holder = holder[name]
        holder[key] = value
        assert f"{where} must be finite, got {value!r}" in predict_error(tmp_path, capsys, data)

    @pytest.mark.parametrize("path,key,where", [
        ((), "diagnostics", "model bundle"),
        (("response_time",), "rho_min", "response_time"),
        (("response_time",), "diagnostics", "response_time"),
        (("metric_model", "mean"), "intercept", "metric_model.mean"),
        (("metric_model", "variance"), "aic", "metric_model.variance"),
        (("metric_model",), "rho_max", "metric_model"),
        (("metric_model",), "window_s", "metric_model"),
    ])
    def test_unknown_bundle_key_exits_one(self, tmp_path, ref_bundle, capsys, path, key,
                                          where):
        data = ref_bundle.to_dict()
        holder = data
        for name in path:
            holder = holder[name]
        holder[key] = 5.0
        assert f"{where}: unknown keys: {key}" in predict_error(tmp_path, capsys, data)

    @pytest.mark.parametrize("path,key,where", [
        ((), "response_time", "model bundle"),
        (("response_time",), "coefficients", "response_time"),
        (("response_time",), "r2", "response_time"),
        (("response_time",), "rho_max", "response_time"),
        (("metric_model", "mean"), "mse", "metric_model.mean"),
        (("metric_model", "variance"), "coefficients", "metric_model.variance"),
        (("metric_model",), "variance", "metric_model"),
        (("metric_model",), "metric_kind", "metric_model"),
    ])
    def test_missing_bundle_key_exits_one(self, tmp_path, ref_bundle, capsys, path, key,
                                          where):
        data = ref_bundle.to_dict()
        holder = data
        for name in path:
            holder = holder[name]
        del holder[key]
        assert f"{where}: missing required keys: {key}" in predict_error(tmp_path, capsys, data)

    @pytest.mark.parametrize("path,key,value,message", [
        ((), "schema_version", 4, "unsupported bundle schema_version 4, expected 3"),
        (("metric_model", "mean"), "rho_max", 0.0,
         "metric_model.mean rho_max must be > 0, got 0.0"),
        (("metric_model", "mean", "coefficients"), 0, 0.1,
         "metric_model.mean coefficients[0] must be 0, got 0.1"),
        (("metric_model", "variance", "coefficients"), 0, -1e-3,
         "metric_model.variance coefficients[0] must be 0, got -0.001"),
        (("response_time", "coefficients"), 0, 0.0,
         "response_time coefficients[0] must be > 0 (base service time), got 0.0"),
        (("response_time", "coefficients"), 0, -0.2,
         "response_time coefficients[0] must be > 0 (base service time), got -0.2"),
        (("response_time",), "coefficients", [0.2, 0.01],
         "response_time coefficients must be a list of 3 numbers, got [0.2, 0.01]"),
        (("metric_model", "mean"), "coefficients", [0.0, 0.2, 0.0, 0.0],
         "metric_model.mean coefficients must be a list of 3 numbers, got [0.0, 0.2, 0.0, 0.0]"),
        (("metric_model", "variance"), "coefficients", {"linear": 0.1, "quadratic": 0.0},
         "metric_model.variance coefficients must be a list of 3 numbers, got {'linear'"),
        (("response_time", "coefficients"), 2, "0.1",
         "response_time coefficients[2] must be a number, got '0.1'"),
        (("response_time",), "r2", True, "response_time r2 must be a number, got True"),
    ])
    def test_unsupported_bundle_value_exits_one(self, tmp_path, ref_bundle, capsys, path,
                                                key, value, message):
        data = ref_bundle.to_dict()
        holder = data
        for name in path:
            holder = holder[name]
        holder[key] = value
        assert message in predict_error(tmp_path, capsys, data)

    @pytest.mark.parametrize("version", [1, 2])
    def test_older_bundle_asks_for_a_refit(self, tmp_path, ref_bundle, capsys, version):
        # the layout before the three laws: named coefficients in blocks,
        # one rho_max and one diagnostics block per model; version 1 held
        # a line in the spread where version 2 holds the variance law
        m, r = ref_bundle.metric, ref_bundle.response_time
        metric = {"metric_kind": m.metric_kind, "rho_max": m.mean.rho_max,
                  "mean_coefficients": dict(zip(("linear", "quadratic"),
                                                m.mean.coefficients[1:])),
                  "variance_coefficients": dict(zip(("linear", "quadratic"),
                                                    m.variance.coefficients[1:])),
                  "diagnostics": {"mse": m.mean.mse, "r2": m.mean.r2}}
        if version == 1:
            metric["std_coefficients"] = {"intercept": 0.26, "slope": 0.006}
            del metric["variance_coefficients"]
        data = {"schema_version": version, "metric_model": metric,
                "response_time": {"rho_max": r.rho_max,
                                  "coefficients": dict(zip(("intercept", "linear", "quadratic"),
                                                           r.coefficients)),
                                  "diagnostics": {"mse": r.mse, "r2": r.r2}}}
        err = predict_error(tmp_path, capsys, data)
        assert f"unsupported bundle schema_version {version}, expected 3" in err
        assert "re-run `replicast fit`" in err

    def test_unknown_command_exits_one(self, capsys):
        assert cli.main(["calibrate"]) == 1
        assert "invalid choice: 'calibrate'" in capsys.readouterr().err


class TestSweep:
    def sweep_spec(self, tmp_path, lambdas, tvs):
        spec = {"lambdas": lambdas, "target_values": tvs,
                "fixed": {"metric_kind": "cc", "n_max": 4}}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        return str(path)

    def test_grid_row_count_and_columns(self, tmp_path, bundle_path, capsys):
        spec = self.sweep_spec(tmp_path, [5.0, 10.0, 20.0], [1.0, 2.0, 5.0, 8.0])
        out = tmp_path / "sweep.csv"
        code = cli.main(["sweep", "--model", bundle_path, "--spec", spec,
                         "--out", str(out)])
        assert code == 0
        with open(out, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["lambda", "target_value", "avg_replicas",
                           "avg_concurrency", "avg_rt_s", "error"]
        assert len(rows) == 13
        assert all(row[5] == "" for row in rows[1:])

    def test_empty_spec_rejected(self, tmp_path, bundle_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text("{}", encoding="utf-8")
        code = cli.main(["sweep", "--model", bundle_path, "--spec", str(path),
                         "--out", str(tmp_path / "s.csv")])
        assert code == 1

    @pytest.mark.parametrize("lambdas,message", [
        ([], "lambdas must be a non-empty list"),
        (5.0, "lambdas must be a non-empty list"),
        ([5.0, 0], "lambdas entries must be numbers > 0, got 0"),
        ([-1], "lambdas entries must be numbers > 0, got -1"),
        ([True], "lambdas entries must be numbers > 0, got True"),
        (["5"], "lambdas entries must be numbers > 0, got '5'"),
    ])
    def test_bad_lambdas_exit_one(self, tmp_path, bundle_path, capsys, lambdas, message):
        spec = self.sweep_spec(tmp_path, lambdas, [2.0])
        code = cli.main(["sweep", "--model", bundle_path, "--spec", spec,
                         "--out", str(tmp_path / "s.csv")])
        assert code == 1
        assert message in capsys.readouterr().err

    def test_partial_failure_lands_in_error_column(self, tmp_path, bundle_path,
                                                   capsys, monkeypatch):
        real = cli._analytic_report

        def flaky(bundle, cfg, arrival_rate, **kw):
            if arrival_rate == 10.0:
                raise rc.NumericalError("solver stalled")
            return real(bundle, cfg, arrival_rate, **kw)

        monkeypatch.setattr(cli, "_analytic_report", flaky)
        spec = self.sweep_spec(tmp_path, [5.0, 10.0], [2.0, 4.0])
        out = tmp_path / "sweep.csv"
        code = cli.main(["sweep", "--model", bundle_path, "--spec", spec,
                         "--out", str(out)])
        assert code == 0
        with open(out, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[1:]
        failed = [row for row in rows if row[5] != ""]
        assert len(failed) == 2
        assert all("solver stalled" in row[5] for row in failed)
        assert all(row[2] == "" for row in failed)

    def test_non_finite_metric_lands_in_error_column(self, tmp_path, curved_bundle_path,
                                                     capsys):
        cfg = rc.AutoscalerConfig(metric_kind="cc", target_value=2.0, n_max=4)
        with pytest.raises(rc.ValidationError) as want:
            reference_horizontal(1e300, rc.load_bundle(curved_bundle_path).metric, cfg)
        spec = self.sweep_spec(tmp_path, [10.0, 1e300], [2.0])
        out = tmp_path / "sweep.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["sweep", "--model", curved_bundle_path, "--spec", spec,
                             "--out", str(out)])
        assert code == 0
        with open(out, newline="", encoding="utf-8") as fh:
            ok, failed = list(csv.reader(fh))[1:]
        assert ok[0] == "10.0" and ok[5] == "" and float(ok[2]) >= 1.0
        assert failed == ["1e+300", "2.0", "", "", "", str(want.value)]

    @pytest.mark.parametrize("fixed,named", [
        ({"metric_kind": "cc", "n_max": 4, "burst": 2}, "burst"),
        ({"metric_kind": "cc", "n_max": 4, "target_value": 2.0}, "target_value"),
        ({"metric_kind": "cc"}, "n_max"),
    ])
    def test_bad_fixed_block_exits_one(self, tmp_path, bundle_path, capsys, fixed, named):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"lambdas": [5.0], "target_values": [2.0],
                                    "fixed": fixed}), encoding="utf-8")
        out = tmp_path / "s.csv"
        code = cli.main(["sweep", "--model", bundle_path, "--spec", str(path),
                         "--out", str(out)])
        assert code == 1
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_all_points_failing_exits_two(self, tmp_path, bundle_path, capsys,
                                          monkeypatch):
        def boom(*args, **kwargs):
            raise rc.NumericalError("no luck")
        monkeypatch.setattr(cli, "_analytic_report", boom)
        spec = self.sweep_spec(tmp_path, [5.0], [2.0])
        code = cli.main(["sweep", "--model", bundle_path, "--spec", spec,
                         "--out", str(tmp_path / "s.csv")])
        assert code == 2


class TestSimulate:
    def test_single_seed_report(self, tmp_path, capsys):
        cfg = sim_config_file(tmp_path, duration_s=400.0, warmup_s=100.0)
        code = cli.main(["simulate", "--config", cfg])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["avg_replica_count"] == 1.0
        assert "series" not in payload

    def test_series_flag_adds_per_second_data(self, tmp_path, capsys):
        cfg = sim_config_file(tmp_path, duration_s=400.0, warmup_s=100.0)
        code = cli.main(["simulate", "--config", cfg, "--series"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["series"]["t"]) == 300

    def test_multi_seed_aggregation(self, tmp_path, capsys):
        cfg = sim_config_file(tmp_path, duration_s=400.0, warmup_s=100.0, seed=50)
        code = cli.main(["simulate", "--config", cfg, "--seeds", "3"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["seeds"] == [50, 51, 52]
        assert len(payload["per_seed"]) == 3
        assert set(payload["mean"]) == {"avg_replica_count", "avg_concurrency",
                                        "avg_response_time_s"}
        assert set(payload["ci95_half_width"]) == set(payload["mean"])
        # the half-width is the t quantile with seeds - 1 degrees of freedom
        # times the standard error
        vals = [r["avg_replica_count"] for r in payload["per_seed"]]
        want = stdtrit(2, 0.975) * statistics.stdev(vals) / math.sqrt(3)
        assert payload["ci95_half_width"]["avg_replica_count"] == pytest.approx(want, rel=1e-12)

    def test_no_completion_after_warmup_gives_null_response_time(self, tmp_path, capsys):
        # at 1e-6 req/s no request completes after warmup, so the mean
        # response time is undefined: null in each report and in the mean
        # and CI over seeds
        cfg = sim_config_file(tmp_path, arrival_rate=1e-6, target_value=5.0, n_max=5,
                              duration_s=400.0, warmup_s=100.0)
        assert cli.main(["simulate", "--config", cfg]) == 0
        payload = strict_json(capsys.readouterr().out)
        assert (payload["completed_requests"], payload["avg_response_time_s"]) == (0, None)
        assert cli.main(["simulate", "--config", cfg, "--seeds", "3"]) == 0
        payload = strict_json(capsys.readouterr().out)
        assert [r["avg_response_time_s"] for r in payload["per_seed"]] == [None] * 3
        assert payload["mean"]["avg_response_time_s"] is None
        assert payload["ci95_half_width"]["avg_response_time_s"] is None
        assert payload["mean"]["avg_replica_count"] == 1.0

    def test_a_metric_undefined_in_one_seed_has_no_mean(self):
        reports = [SimpleNamespace(avg_replica_count=2.0, avg_concurrency=0.5,
                                   avg_response_time_s=rt) for rt in (0.2, None, 0.3)]
        mean, ci95 = cli._aggregate(reports)
        assert mean == {"avg_replica_count": 2.0, "avg_concurrency": 0.5,
                        "avg_response_time_s": None}
        assert ci95 == {"avg_replica_count": 0.0, "avg_concurrency": 0.0,
                        "avg_response_time_s": None}

    @pytest.mark.parametrize("p", [0.9, 0.975, 0.995])
    def test_t_quantile_matches_scipy(self, p):
        for df in range(1, 200):
            want = stdtrit(df, p)
            assert cli._t_quantile(p, df) == pytest.approx(want, rel=1e-12, abs=0.0)
            assert cli._t_quantile(1.0 - p, df) == pytest.approx(-want, rel=1e-12, abs=0.0)

    def test_replica_count_ci_is_tight_at_reference_point(self, tmp_path, capsys):
        cfg = sim_config_file(tmp_path, arrival_rate=20.0, target_value=5.0,
                              n_max=10, duration_s=3600.0, warmup_s=300.0, seed=1)
        code = cli.main(["simulate", "--config", cfg, "--seeds", "3"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        mean_n = payload["mean"]["avg_replica_count"]
        assert payload["ci95_half_width"]["avg_replica_count"] < 0.05 * mean_n

    def test_trace_out_is_parseable(self, tmp_path, capsys):
        cfg = sim_config_file(tmp_path, arrival_rate=20.0, target_value=2.0,
                              n_max=10, duration_s=700.0, warmup_s=100.0)
        trace_out = tmp_path / "trace.csv"
        code = cli.main(["simulate", "--config", cfg, "--trace-out", str(trace_out)])
        assert code == 0
        assert len(rc.parse_trace(trace_out)) == 600

    def test_seed_override(self, tmp_path, capsys):
        cfg = sim_config_file(tmp_path, duration_s=400.0, warmup_s=100.0, seed=1)
        code = cli.main(["simulate", "--config", cfg, "--seed", "99"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["seed"] == 99

    def test_negative_seed_override(self, tmp_path, capsys):
        cfg = sim_config_file(tmp_path, duration_s=400.0, warmup_s=100.0, seed=1)
        code = cli.main(["simulate", "--config", cfg, "--seed", "-3"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["seed"] == -3

    def test_overflowing_target_ratio_matches_oracle(self, tmp_path, capsys, monkeypatch):
        # at target 1e-320 the aggregate metric over the target is inf as
        # soon as a request is in flight, and the evaluator orders n_max
        cfg = sim_config_file(tmp_path, target_value=1e-320, n_max=2, duration_s=400.0,
                              warmup_s=100.0)
        assert cli.main(["simulate", "--config", cfg, "--series"]) == 0
        got = capsys.readouterr().out
        assert max(json.loads(got)["series"]["ready_count"]) == 2
        # the reference loop returns lists where the package's returns arrays
        monkeypatch.setattr(_kernels, "run_simulation", lambda *args: tuple(
            np.array(x) if isinstance(x, list) else x for x in reference_run_simulation(*args)))
        assert cli.main(["simulate", "--config", cfg, "--series"]) == 0
        assert capsys.readouterr().out == got

    @pytest.mark.parametrize("n_max", [1, 2])
    def test_window_longer_than_the_run(self, tmp_path, capsys, n_max):
        # a 1e300 s stable window never fills in a 400 s run, so it
        # reports what a 400 s one does
        payloads = []
        for window in (1e300, 400.0):
            cfg = sim_config_file(tmp_path, target_value=1.0, n_max=n_max, duration_s=400.0,
                                  warmup_s=100.0, stable_window_s=window)
            assert cli.main(["simulate", "--config", cfg, "--series"]) == 0
            payload = json.loads(capsys.readouterr().out)
            assert payload.pop("autoscaler")["stable_window_s"] == window
            payloads.append(payload)
        assert payloads[0] == payloads[1]

    def test_zero_seeds_exits_one(self, tmp_path, capsys):
        cfg = sim_config_file(tmp_path, duration_s=400.0, warmup_s=100.0)
        assert cli.main(["simulate", "--config", cfg, "--seeds", "0"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--seeds: must be an integer >= 1" in captured.err


class TestCompare:
    def test_matched_models_pass_default_tolerance(self, tmp_path, bundle_path,
                                                   capsys):
        sim_cfg = sim_config_file(tmp_path, arrival_rate=5.0, duration_s=1500.0,
                                  warmup_s=300.0, seed=7)
        out = tmp_path / "cmp.json"
        code = cli.main(["compare", "--model", bundle_path, "--sim-config", sim_cfg,
                         "--seeds", "2", "--out", str(out)])
        stdout = capsys.readouterr().out
        assert code == 0
        assert "PASS" in stdout
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["pass"] is True
        assert all(err < 0.15 for err in payload["relative_errors"].values())

    def test_zero_tolerance_fails(self, tmp_path, bundle_path, capsys):
        sim_cfg = sim_config_file(tmp_path, arrival_rate=5.0, duration_s=700.0,
                                  warmup_s=100.0)
        code = cli.main(["compare", "--model", bundle_path, "--sim-config", sim_cfg,
                         "--tolerance", "0"])
        assert code == 3
        assert "FAIL" in capsys.readouterr().out

    def test_zero_simulated_mean_gives_null_relative_error(self, tmp_path, bundle_path,
                                                           capsys):
        # at 1e-6 req/s no request arrives after warmup: the simulated
        # concurrency is 0 and the response time undefined while the
        # analytic ones are not, so their relative errors are undefined
        # and the point fails
        sim_cfg = sim_config_file(tmp_path, arrival_rate=1e-6, target_value=5.0, n_max=5,
                                  duration_s=400.0, warmup_s=100.0)
        out = tmp_path / "cmp.json"
        code = cli.main(["compare", "--model", bundle_path, "--sim-config", sim_cfg,
                         "--out", str(out)])
        assert code == 3
        table = capsys.readouterr().out.splitlines()
        assert table[-1].startswith("comparison: FAIL")
        assert table[3].split()[-2:] == ["nan", "nan"]
        payload = strict_json(out.read_text(encoding="utf-8"))
        assert payload["simulated_mean"]["avg_concurrency"] == 0.0
        assert payload["simulated_mean"]["avg_response_time_s"] is None
        assert payload["simulated_ci95_half_width"]["avg_response_time_s"] is None
        assert payload["inside_ci95"]["avg_response_time_s"] is None
        assert payload["relative_errors"] == {"avg_replica_count": 0.0,
                                              "avg_concurrency": None,
                                              "avg_response_time_s": None}
        assert payload["pass"] is False

    def test_one_seed_has_no_interval(self, tmp_path, bundle_path, capsys):
        # a t interval from one report has no degrees of freedom
        sim_cfg = sim_config_file(tmp_path, arrival_rate=5.0, duration_s=700.0,
                                  warmup_s=100.0)
        out = tmp_path / "cmp.json"
        cli.main(["compare", "--model", bundle_path, "--sim-config", sim_cfg,
                  "--seeds", "1", "--out", str(out)])
        capsys.readouterr()
        payload = strict_json(out.read_text(encoding="utf-8"))
        assert all(v is not None for v in payload["simulated_mean"].values())
        assert list(payload["simulated_ci95_half_width"].values()) == [None] * 3
        assert list(payload["inside_ci95"].values()) == [None] * 3

    def test_inside_ci95_per_metric(self, tmp_path, bundle_path, capsys):
        # one container: the replica count is 1 in the model and in every
        # seed, so it lies inside the zero-width interval.  The model was
        # fitted on infinite-server service; processor sharing at 40% load
        # stretches each response time by 1 / (1 - 0.4), outside the
        # interval of three seeds.
        cfg = rc.SimulationConfig(
            autoscaler=rc.AutoscalerConfig(metric_kind="cc", target_value=100.0, n_max=1),
            workload=rc.WorkloadModel(kind=rc.WORKLOAD_PROCESSOR_SHARING, mean_s=0.2),
            arrival_rate=2.0, duration_s=1200.0, warmup_s=300.0, seed=11)
        sim_cfg = tmp_path / "sim.json"
        sim_cfg.write_text(json.dumps(cfg.to_dict()), encoding="utf-8")
        out = tmp_path / "cmp.json"
        cli.main(["compare", "--model", bundle_path, "--sim-config", str(sim_cfg),
                  "--seeds", "3", "--out", str(out)])
        capsys.readouterr()
        payload = strict_json(out.read_text(encoding="utf-8"))
        assert payload["inside_ci95"]["avg_replica_count"] is True
        assert payload["inside_ci95"]["avg_response_time_s"] is False
        for name, inside in payload["inside_ci95"].items():
            gap = abs(payload["analytical"][name] - payload["simulated_mean"][name])
            assert inside == (gap <= payload["simulated_ci95_half_width"][name])

    def test_config_flag_is_usage_error(self, tmp_path, bundle_path, capsys):
        # the autoscaler comes from --sim-config alone
        sim_cfg = sim_config_file(tmp_path, target_value=100.0, n_max=1)
        other = autoscaler_file(tmp_path, target_value=50.0, n_max=1)
        code = cli.main(["compare", "--model", bundle_path, "--sim-config", sim_cfg,
                         "--config", other])
        assert code == 1
        assert "unrecognized arguments: --config" in capsys.readouterr().err

    @pytest.mark.parametrize("flags,rule", [
        (["--seeds", "0"], "--seeds: must be an integer >= 1"),
        (["--seeds", "abc"], "--seeds: must be an integer >= 1, got 'abc'"),
        (["--tolerance", "abc"], "--tolerance: must be a finite number >= 0, got 'abc'"),
        (["--tolerance", "-1"], "--tolerance: must be a finite number >= 0"),
        (["--tolerance", "nan"], "--tolerance: must be a finite number >= 0"),
    ])
    def test_out_of_range_flag_exits_one(self, tmp_path, bundle_path, capsys, flags, rule):
        sim_cfg = sim_config_file(tmp_path, duration_s=400.0, warmup_s=100.0)
        code = cli.main(["compare", "--model", bundle_path, "--sim-config", sim_cfg,
                         *flags])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert rule in captured.err


# The flags each command reads, and for each the flags it cannot run without.
COMMAND_FLAGS = {
    "fit": ({"--trace", "--metric", "--out"}, ["--trace", "t.csv", "--out", "m.json"]),
    "predict": ({"--model", "--config", "--arrival-rate", "--explain", "--out"},
                ["--model", "m.json", "--config", "a.json", "--arrival-rate", "1"]),
    "sweep": ({"--model", "--spec", "--out"},
              ["--model", "m.json", "--spec", "s.json", "--out", "s.csv"]),
    "simulate": ({"--config", "--seed", "--seeds", "--series", "--trace-out", "--out"},
                 ["--config", "sim.json"]),
    "compare": ({"--model", "--sim-config", "--seed", "--seeds", "--tolerance", "--out"},
                ["--model", "m.json", "--sim-config", "sim.json"]),
}
ALL_FLAGS = sorted(set().union(*(flags for flags, _ in COMMAND_FLAGS.values())))


class TestFlags:
    def test_each_command_declares_the_flags_it_reads(self):
        parser = cli.build_parser()
        sub = next(a for a in parser._actions
                   if isinstance(a, argparse._SubParsersAction))
        declared = {
            name: {opt for action in p._actions for opt in action.option_strings
                   if opt not in ("-h", "--help")}
            for name, p in sub.choices.items()}
        assert declared == {name: flags for name, (flags, _) in COMMAND_FLAGS.items()}
        assert sum(len(flags) for flags in declared.values()) == 23

    @pytest.mark.parametrize("command", sorted(COMMAND_FLAGS))
    def test_a_named_command_gets_its_subparser_alone(self, command):
        sub = next(a for a in cli.build_parser(command)._actions
                   if isinstance(a, argparse._SubParsersAction))
        assert list(sub.choices) == [command]
        declared = {opt for action in sub.choices[command]._actions
                    for opt in action.option_strings if opt not in ("-h", "--help")}
        assert declared == COMMAND_FLAGS[command][0]

    def test_a_first_word_that_names_no_command_lists_them_all(self, capsys):
        assert cli.main(["predik"]) == 1
        assert ("invalid choice: 'predik' (choose from 'fit', 'predict', 'sweep', "
                "'simulate', 'compare')") in capsys.readouterr().err
        assert cli.main(["--help"]) == 0
        out = capsys.readouterr().out
        assert all(f"    {name}" in out for name in COMMAND_FLAGS)

    @pytest.mark.parametrize("command,flag", [
        (command, flag) for command, (flags, _) in COMMAND_FLAGS.items()
        for flag in ALL_FLAGS if flag not in flags])
    def test_flag_the_command_does_not_read_exits_one(self, capsys, command, flag):
        required = COMMAND_FLAGS[command][1]
        assert cli.main([command, *required, flag, "1"]) == 1
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", sorted(COMMAND_FLAGS))
    def test_missing_required_flag_exits_one(self, capsys, command):
        required = COMMAND_FLAGS[command][1]
        assert cli.main([command, *required[2:]]) == 1
        assert f"required: {required[0]}" in capsys.readouterr().err


def run_commands_fresh(commands, *prefixes):
    """Exit codes of commands run through cli.main by one fresh
    interpreter, and the modules it then holds named by a prefix (a
    module itself or its submodules)."""
    script = (
        "import contextlib, io, json, sys\n"
        "from replicast import cli\n"
        "codes = []\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        codes.append(cli.main(argv))\n"
        "prefixes = json.loads(sys.argv[2])\n"
        "print(json.dumps([codes, sorted(m for m in sys.modules for p in prefixes\n"
        "                                if m == p or m.startswith(p + '.'))]))\n"
    )
    return json.loads(run_fresh(script, json.dumps(commands), json.dumps(prefixes)))


class TestRuntimeImports:
    @pytest.fixture
    def chain_commands(self, tmp_path, trace_path, bundle_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"lambdas": [5.0, 20.0], "target_values": [2.0],
                                    "fixed": {"metric_kind": "cc", "n_max": 10}}),
                        encoding="utf-8")
        return [
            ["fit", "--trace", trace_path, "--out", str(tmp_path / "fitted.json")],
            ["predict", "--model", bundle_path, "--arrival-rate", "20",
             "--config", autoscaler_file(tmp_path, target_value=2.0, n_max=10)],
            ["sweep", "--model", bundle_path, "--spec", str(spec),
             "--out", str(tmp_path / "sweep.csv")],
        ]

    def test_commands_load_no_scipy(self, tmp_path, bundle_path, chain_commands):
        # scipy serves the tests' oracles only: a fresh interpreter that
        # runs every command through cli.main must never import it, nor
        # numpy.ma, which np.unique imports on numpy 2.4
        sim = sim_config_file(tmp_path, arrival_rate=5.0, target_value=2.0, n_max=4,
                              duration_s=400.0, warmup_s=100.0)
        commands = [
            *chain_commands,
            ["simulate", "--config", sim],
            ["compare", "--model", bundle_path, "--sim-config", sim, "--seeds", "2"],
        ]
        codes, loaded = run_commands_fresh(commands, "scipy", "numpy.ma")
        # compare's exit code 3 is a verdict (beyond tolerance), not a failure
        assert codes[:4] == [0, 0, 0, 0] and codes[4] in (0, 3)
        assert loaded == []

    def test_chain_commands_load_no_numpy_random(self, chain_commands):
        # only the simulator draws random numbers; numpy.random and the
        # OpenSSL that it loads through secrets cost a command about 6 MiB
        codes, loaded = run_commands_fresh(chain_commands, "numpy.random", "secrets")
        assert codes == [0, 0, 0]
        assert loaded == []

    @pytest.mark.parametrize("preset, numpy_first, expected", [
        (None, False, "1"),
        ("2", False, "2"),
        (None, True, None),
    ])
    def test_blas_thread_default(self, preset, numpy_first, expected):
        # replicast pins OpenBLAS to one thread unless the user set a count
        # or numpy was already loaded with the user's own configuration
        script = ("import json, os\n"
                  + ("import numpy\n" if numpy_first else "")
                  + "import replicast\n"
                  "print(json.dumps(os.environ.get('OPENBLAS_NUM_THREADS')))\n")
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        if preset is not None:
            env["OPENBLAS_NUM_THREADS"] = preset
        assert json.loads(run_fresh(script, env=env)) == expected
