"""Command-line interface.

Commands: fit, predict, sweep, simulate, compare.  Exit codes form a
scriptable protocol: 0 success, 1 input/config error, 2 numerical or
model-structure error, 3 comparison beyond tolerance.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys

import numpy as np

from .bundle import (SCHEMA_VERSION, ModelBundle, fit_bundle, load_bundle,
                     save_bundle)
from .cluster import build_chain, stationary_distribution
from .config import (AutoscalerConfig, load_autoscaler_config, load_json,
                     parse_trace, write_trace)
from .errors import (ConfigMismatchError, InsufficientDataError,
                     NonErgodicError, NumericalError, ReplicastError,
                     ValidationError)
from .output import steady_state_report
from .simulator import SimulationConfig, simulate

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NUMERICAL = 2
EXIT_TOLERANCE = 3

_COMPARED_METRICS = ("avg_replica_count", "avg_concurrency", "avg_response_time_s")


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; our protocol reserves 2 for
    numerical failures, so usage problems exit 1 instead."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_INPUT)


def _require_flag(value, flag: str, command: str):
    if value is None:
        raise ValidationError(f"{command} requires {flag}")
    return value


def _dump_json(payload: dict, out_path) -> str:
    text = json.dumps(payload, indent=2, sort_keys=True)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return text


def _analytic_report(bundle: ModelBundle, cfg: AutoscalerConfig, arrival_rate: float,
                     window_s: float = 3600.0):
    chain = build_chain(arrival_rate, bundle.metric, cfg)
    stationary = stationary_distribution(chain)
    report = steady_state_report(stationary, chain, bundle.metric,
                                 bundle.response_time, window_s=window_s)
    return chain, stationary, report


def cmd_fit(args) -> int:
    trace_path = _require_flag(args.trace, "--trace", "fit")
    out_path = _require_flag(args.out, "--out", "fit")
    trace = parse_trace(trace_path)
    bundle = fit_bundle(trace, args.metric)
    save_bundle(bundle, out_path)
    m, r = bundle.metric, bundle.response_time
    print(f"metric fit ({m.metric_kind}): mse={m.fit_mse:.6g} r2={m.fit_r2:.6f}")
    print(f"response-time fit: mse={r.fit_mse:.6g} r2={r.fit_r2:.6f}")
    print(f"wrote model bundle to {out_path}")
    return EXIT_OK


def cmd_predict(args) -> int:
    bundle = load_bundle(_require_flag(args.model, "--model", "predict"))
    cfg = load_autoscaler_config(_require_flag(args.config, "--config", "predict"))
    arrival_rate = _require_flag(args.arrival_rate, "--arrival-rate", "predict")
    chain, stationary, report = _analytic_report(bundle, cfg, arrival_rate,
                                                 window_s=args.window)
    payload = {"schema_version": SCHEMA_VERSION,
               **report.to_dict(include_states=args.explain)}
    if args.explain:
        payload["explain"] = {
            "states": chain.states.tolist(),
            "transition_matrix": chain.transition_matrix.tolist(),
            "stationary": stationary.pi.tolist(),
            "n_transient_states": stationary.n_transient,
            "order_distributions": {
                str(j): chain.horizontal[j - 1].tolist()
                for j in range(1, cfg.n_max + 1)
            },
        }
    print(_dump_json(payload, args.out))
    return EXIT_OK


def _load_sweep_spec(path):
    data = load_json(path)
    if not isinstance(data, dict):
        raise ValidationError(f"{path}: sweep spec must be a JSON object")
    unknown = sorted(set(data) - {"lambdas", "target_values", "fixed"})
    if unknown:
        raise ValidationError(f"{path}: unknown sweep spec keys: {', '.join(unknown)}")
    lambdas = data.get("lambdas")
    tvs = data.get("target_values")
    fixed = data.get("fixed")
    if not isinstance(lambdas, list) or not lambdas:
        raise ValidationError(f"{path}: lambdas must be a non-empty list")
    if not isinstance(tvs, list) or not tvs:
        raise ValidationError(f"{path}: target_values must be a non-empty list")
    if not isinstance(fixed, dict):
        raise ValidationError(f"{path}: fixed must be an object of autoscaler fields")
    for name, vals in (("lambdas", lambdas), ("target_values", tvs)):
        for v in vals:
            if isinstance(v, bool) or not isinstance(v, (int, float)) or not v > 0:
                raise ValidationError(f"{path}: {name} entries must be numbers > 0, got {v!r}")
    if "target_value" in fixed:
        raise ValidationError(f"{path}: fixed must not set target_value; it is swept")
    return [float(v) for v in lambdas], [float(v) for v in tvs], fixed


def cmd_sweep(args) -> int:
    bundle = load_bundle(_require_flag(args.model, "--model", "sweep"))
    out_path = _require_flag(args.out, "--out", "sweep")
    lambdas, tvs, fixed = _load_sweep_spec(_require_flag(args.spec, "--spec", "sweep"))
    points = [(lam, tv) for lam in lambdas for tv in tvs]

    def run_point(point):
        lam, tv = point
        try:
            cfg = AutoscalerConfig(target_value=tv, **fixed)
            _, _, report = _analytic_report(bundle, cfg, lam)
            return (lam, tv, report.avg_replica_count, report.avg_concurrency,
                    report.avg_response_time_s, "")
        except (ReplicastError,) as exc:
            return (lam, tv, "", "", "", str(exc))

    rows = [run_point(point) for point in points]
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["lambda", "target_value", "avg_replicas",
                         "avg_concurrency", "avg_rt_s", "error"])
        for row in rows:
            writer.writerow(row)
    n_ok = sum(1 for row in rows if row[5] == "")
    print(f"wrote {len(rows)} sweep rows ({n_ok} ok, {len(rows) - n_ok} failed) to {out_path}")
    if n_ok == 0:
        print("error: every sweep point failed", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def _seed_variants(sim_cfg: SimulationConfig, seed_override, n_seeds: int):
    base = sim_cfg.seed if seed_override is None else int(seed_override)
    return [dataclasses.replace(sim_cfg, seed=base + k) for k in range(n_seeds)]


def _t_quantile(p: float, df: int) -> float:
    """Quantile of Student's t distribution with an integer df >= 1.

    df 1 and 2 have closed forms.  Otherwise Newton's method runs on
    P(|T| <= t), a finite series in theta = atan(t / sqrt(df))
    (Abramowitz & Stegun 26.7.3 for odd df, 26.7.4 for even df), with
    the density from lgamma.  That probability is concave in t >= 0, so
    Newton's method from t = 0 climbs to the root without overshooting.
    """
    if p < 0.5:
        return -_t_quantile(1.0 - p, df)
    if df == 1:
        return math.tan(math.pi * (p - 0.5))
    if df == 2:
        return (2.0 * p - 1.0) * math.sqrt(2.0 / (4.0 * p * (1.0 - p)))
    log_scale = (math.lgamma((df + 1) / 2.0) - math.lgamma(df / 2.0)
                 - 0.5 * math.log(df * math.pi))
    t = 0.0
    for _ in range(200):
        theta = math.atan(t / math.sqrt(df))
        cos2 = math.cos(theta) ** 2
        if df % 2:
            term = total = math.cos(theta)
            for r in range(1, (df - 1) // 2):
                term *= cos2 * (2 * r) / (2 * r + 1)
                total += term
            inside = 2.0 / math.pi * (theta + math.sin(theta) * total)
        else:
            term = total = 1.0
            for r in range(1, df // 2):
                term *= cos2 * (2 * r - 1) / (2 * r)
                total += term
            inside = math.sin(theta) * total
        density = math.exp(log_scale - 0.5 * (df + 1) * math.log1p(t * t / df))
        step = (inside - (2.0 * p - 1.0)) / (2.0 * density)
        t -= step
        if abs(step) <= 1e-15 * t:
            break
    return t


def _aggregate(reports):
    mean = {}
    ci95 = {}
    n = len(reports)
    for name in _COMPARED_METRICS:
        vals = np.array([getattr(r, name) for r in reports], dtype=np.float64)
        mean[name] = float(vals.mean())
        if n > 1:
            half = float(_t_quantile(0.975, n - 1) * vals.std(ddof=1) / math.sqrt(n))
        else:
            half = 0.0
        ci95[name] = half
    return mean, ci95


def cmd_simulate(args) -> int:
    if args.seeds < 1:
        raise ValidationError(f"--seeds must be >= 1, got {args.seeds}")
    sim_cfg = SimulationConfig.from_dict(
        load_json(_require_flag(args.config, "--config", "simulate")))
    variants = _seed_variants(sim_cfg, args.seed, args.seeds)
    reports = [simulate(variant) for variant in variants]
    if args.trace_out:
        write_trace(reports[0].trace, args.trace_out)
    if len(reports) == 1:
        payload = {"schema_version": SCHEMA_VERSION,
                   **reports[0].to_dict(include_series=args.series)}
    else:
        mean, ci95 = _aggregate(reports)
        payload = {
            "schema_version": SCHEMA_VERSION,
            "seeds": [r.config.seed for r in reports],
            "mean": mean,
            "ci95_half_width": ci95,
            "per_seed": [r.to_dict(include_series=False) for r in reports],
        }
    print(_dump_json(payload, args.out))
    return EXIT_OK


def cmd_compare(args) -> int:
    if args.seeds < 1:
        raise ValidationError(f"--seeds must be >= 1, got {args.seeds}")
    if args.tolerance < 0 or not math.isfinite(args.tolerance):
        raise ValidationError(f"--tolerance must be a finite number >= 0, got {args.tolerance}")
    bundle = load_bundle(_require_flag(args.model, "--model", "compare"))
    sim_cfg = SimulationConfig.from_dict(
        load_json(_require_flag(args.sim_config, "--sim-config", "compare")))
    if args.config:
        explicit = load_autoscaler_config(args.config)
        if explicit != sim_cfg.autoscaler:
            raise ConfigMismatchError(
                "--config disagrees with the autoscaler embedded in --sim-config; "
                "the model and the simulation must describe the same deployment")
    _, _, analytic = _analytic_report(bundle, sim_cfg.autoscaler, sim_cfg.arrival_rate)
    reports = [simulate(variant)
               for variant in _seed_variants(sim_cfg, args.seed, args.seeds)]
    sim_mean, sim_ci = _aggregate(reports)

    analytic_vals = {
        "avg_replica_count": analytic.avg_replica_count,
        "avg_concurrency": analytic.avg_concurrency,
        "avg_response_time_s": analytic.avg_response_time_s,
    }
    rel_errors = {}
    for name in _COMPARED_METRICS:
        denom = abs(sim_mean[name])
        diff = abs(analytic_vals[name] - sim_mean[name])
        rel_errors[name] = diff / denom if denom > 0 else (0.0 if diff == 0 else math.inf)
    ok = all(err <= args.tolerance for err in rel_errors.values())

    print(f"{'metric':<22} {'analytical':>12} {'simulated':>12} {'rel_error':>10}")
    for name in _COMPARED_METRICS:
        print(f"{name:<22} {analytic_vals[name]:>12.6g} {sim_mean[name]:>12.6g} "
              f"{rel_errors[name]:>10.4f}")
    verdict = "PASS" if ok else "FAIL"
    print(f"comparison: {verdict} (tolerance {args.tolerance:g}, seeds {args.seeds})")

    payload = {
        "schema_version": SCHEMA_VERSION,
        "tolerance": args.tolerance,
        "seeds": [r.config.seed for r in reports],
        "analytical": analytic_vals,
        "simulated_mean": sim_mean,
        "simulated_ci95_half_width": sim_ci,
        "relative_errors": rel_errors,
        "pass": ok,
    }
    if args.out:
        _dump_json(payload, args.out)
    return EXIT_OK if ok else EXIT_TOLERANCE


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", help="JSON config file (autoscaler or simulation, per command)")
    shared.add_argument("--out", help="output file path")
    shared.add_argument("--seed", type=int, help="base RNG seed override")
    shared.add_argument("--seeds", type=int, default=1,
                        help="number of consecutive seeds to run (default 1)")
    shared.add_argument("--tolerance", type=float, default=0.15,
                        help="max relative error for compare (default 0.15)")
    shared.add_argument("--explain", action="store_true",
                        help="include per-state values and chain internals in "
                             "predict output")

    parser = _Parser(prog="replicast",
                     description="Steady-state prediction for metric-based autoscaling, "
                                 "with a validating discrete-event simulator.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_fit = sub.add_parser("fit", parents=[shared],
                           help="fit metric and response-time models from a trace CSV")
    p_fit.add_argument("--trace", help="profiling trace CSV path")
    p_fit.add_argument("--metric", choices=["cc", "rps"], default="cc",
                       help="autoscaling metric the trace observed (default cc)")
    p_fit.set_defaults(func=cmd_fit)

    p_pred = sub.add_parser("predict", parents=[shared],
                            help="predict steady-state metrics at an arrival rate")
    p_pred.add_argument("--model", help="model bundle JSON from fit")
    p_pred.add_argument("--arrival-rate", type=float, help="arrival rate, requests/s")
    p_pred.add_argument("--window", type=float, default=3600.0,
                        help="reporting window seconds for request-count estimate (default 3600)")
    p_pred.set_defaults(func=cmd_predict)

    p_sweep = sub.add_parser("sweep", parents=[shared],
                             help="predict over a grid of arrival rates and target values")
    p_sweep.add_argument("--model", help="model bundle JSON from fit")
    p_sweep.add_argument("--spec", help="sweep spec JSON: lambdas, target_values, fixed")
    p_sweep.set_defaults(func=cmd_sweep)

    p_sim = sub.add_parser("simulate", parents=[shared],
                           help="run the discrete-event simulator")
    p_sim.add_argument("--trace-out", help="also write the profiling trace CSV here")
    p_sim.add_argument("--series", action="store_true",
                       help="include the per-second series in the report")
    p_sim.set_defaults(func=cmd_simulate)

    p_cmp = sub.add_parser("compare", parents=[shared],
                           help="compare analytical predictions against simulation")
    p_cmp.add_argument("--model", help="model bundle JSON from fit")
    p_cmp.add_argument("--sim-config", help="simulation config JSON")
    p_cmp.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (NonErgodicError, NumericalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except InsufficientDataError as exc:
        print(f"error: insufficient data: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ReplicastError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
