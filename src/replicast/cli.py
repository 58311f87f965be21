"""Command-line interface.

Commands: fit, predict, sweep, simulate, compare.  Exit codes form a
scriptable protocol: 0 success, 1 input/config error, 2 numerical or
model-structure error, 3 comparison beyond tolerance.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import math
import os
import sys

import numpy as np

from .bundle import (SCHEMA_VERSION, ModelBundle, fit_bundle, load_bundle,
                     save_bundle)
from .cluster import build_chain, stationary_distribution
from .config import (METRIC_KINDS, AutoscalerConfig, _check_keys, dump_json,
                     load_autoscaler_config, load_json, parse_trace, write_trace)
from .errors import (InsufficientDataError, NonErgodicError, NumericalError,
                     ReplicastError, ValidationError)
from .output import steady_state_report
from .simulator import SimulationConfig, simulate

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NUMERICAL = 2
EXIT_TOLERANCE = 3

_COMPARED_METRICS = ("avg_replica_count", "avg_concurrency", "avg_response_time_s")


def _analytic_report(bundle: ModelBundle, cfg: AutoscalerConfig, arrival_rate: float):
    chain = build_chain(arrival_rate, bundle.metric, cfg)
    stationary = stationary_distribution(chain)
    report = steady_state_report(stationary, chain, bundle.metric, bundle.response_time)
    return chain, stationary, report


def cmd_fit(args) -> int:
    bundle = fit_bundle(parse_trace(args.trace), args.metric)
    save_bundle(bundle, args.out)
    m, r = bundle.metric, bundle.response_time
    print(f"metric fit ({m.metric_kind}): mse={m.fit_mse:.6g} r2={m.fit_r2:.6f}")
    print(f"response-time fit: mse={r.fit_mse:.6g} r2={r.fit_r2:.6f}")
    print(f"wrote model bundle to {args.out}")
    return EXIT_OK


def cmd_predict(args) -> int:
    bundle = load_bundle(args.model)
    cfg = load_autoscaler_config(args.config)
    chain, stationary, report = _analytic_report(bundle, cfg, args.arrival_rate)
    payload = {"schema_version": SCHEMA_VERSION, **report.to_dict()}
    if args.explain:
        # what the chain and the report hold, as they hold it: the
        # transitions as positions into states, one value per ready count,
        # and the nonzero order probabilities of each ready count
        ready, order = np.nonzero(chain.horizontal)
        payload["explain"] = {
            "states": chain.states.tolist(),
            "transitions": {name: getattr(chain, name).tolist()
                            for name in ("source", "target", "probability")},
            "stationary": stationary.pi.tolist(),
            "per_ready": {
                "concurrency": report.ready_concurrency.tolist(),
                "response_time_s": report.ready_response_time_s.tolist(),
                "extrapolated": report.ready_extrapolated.tolist(),
            },
            "order_distributions": {
                "ready": (ready + 1).tolist(),
                "order": (order + 1).tolist(),
                "probability": chain.horizontal[ready, order].tolist(),
            },
        }
    print(dump_json(payload, args.out, indent=None if args.explain else 2))
    return EXIT_OK


def _load_sweep_spec(path):
    data = load_json(path)
    keys = ("lambdas", "target_values", "fixed")
    _check_keys(data, f"{path}: sweep spec", keys, keys)
    lambdas, tvs, fixed = (data[k] for k in keys)
    for name, vals in (("lambdas", lambdas), ("target_values", tvs)):
        if not isinstance(vals, list) or not vals:
            raise ValidationError(f"{path}: {name} must be a non-empty list")
        for v in vals:
            if isinstance(v, bool) or not isinstance(v, (int, float)) or not v > 0:
                raise ValidationError(f"{path}: {name} entries must be numbers > 0, got {v!r}")
    # target_value is swept, so fixed holds every other autoscaler field
    _check_keys(fixed, f"{path}: fixed",
                [f.name for f in dataclasses.fields(AutoscalerConfig) if f.name != "target_value"],
                ("metric_kind", "n_max"))
    return [float(v) for v in lambdas], [float(v) for v in tvs], fixed


def cmd_sweep(args) -> int:
    bundle = load_bundle(args.model)
    lambdas, tvs, fixed = _load_sweep_spec(args.spec)
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
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["lambda", "target_value", "avg_replicas",
                         "avg_concurrency", "avg_rt_s", "error"])
        for row in rows:
            writer.writerow(row)
    n_ok = sum(1 for row in rows if row[5] == "")
    print(f"wrote {len(rows)} sweep rows ({n_ok} ok, {len(rows) - n_ok} failed) to {args.out}")
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
    """Mean and 95% CI half-width of each compared metric over the
    reports; both are None for a metric that some report leaves undefined,
    and the half-width is None for a single report, whose t interval has
    no degrees of freedom."""
    mean = {}
    ci95 = {}
    n = len(reports)
    for name in _COMPARED_METRICS:
        vals = [getattr(r, name) for r in reports]
        if None in vals:
            mean[name] = ci95[name] = None
            continue
        vals = np.array(vals, dtype=np.float64)
        mean[name] = float(vals.mean())
        ci95[name] = (float(_t_quantile(0.975, n - 1) * vals.std(ddof=1) / math.sqrt(n))
                      if n > 1 else None)
    return mean, ci95


def cmd_simulate(args) -> int:
    sim_cfg = SimulationConfig.from_dict(load_json(args.config))
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
    print(dump_json(payload, args.out))
    return EXIT_OK


def cmd_compare(args) -> int:
    bundle = load_bundle(args.model)
    sim_cfg = SimulationConfig.from_dict(load_json(args.sim_config))
    _, _, analytic = _analytic_report(bundle, sim_cfg.autoscaler, sim_cfg.arrival_rate)
    reports = [simulate(variant)
               for variant in _seed_variants(sim_cfg, args.seed, args.seeds)]
    sim_mean, sim_ci = _aggregate(reports)

    analytic_vals = {name: getattr(analytic, name) for name in _COMPARED_METRICS}
    # an undefined simulated mean reads nan, and so does its relative error
    sim_vals = {name: math.nan if v is None else v for name, v in sim_mean.items()}
    rel_errors = {}
    for name in _COMPARED_METRICS:
        denom = abs(sim_vals[name])
        diff = abs(analytic_vals[name] - sim_vals[name])
        rel_errors[name] = diff / denom if denom != 0 else (0.0 if diff == 0 else math.inf)
    # whether the analytic value lies within the simulated mean +- its 95%
    # half-width; undefined where either is
    inside = {name: None if sim_mean[name] is None or sim_ci[name] is None
              else abs(analytic_vals[name] - sim_mean[name]) <= sim_ci[name]
              for name in _COMPARED_METRICS}
    ok = all(err <= args.tolerance for err in rel_errors.values())

    print(f"{'metric':<22} {'analytical':>12} {'simulated':>12} {'rel_error':>10}")
    for name in _COMPARED_METRICS:
        print(f"{name:<22} {analytic_vals[name]:>12.6g} {sim_vals[name]:>12.6g} "
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
        "inside_ci95": inside,
        # a relative error against a simulated mean of 0, or an undefined
        # one, is undefined
        "relative_errors": {name: err if math.isfinite(err) else None
                            for name, err in rel_errors.items()},
        "pass": ok,
    }
    if args.out:
        dump_json(payload, args.out)
    return EXIT_OK if ok else EXIT_TOLERANCE


def _bounded(convert, ok, rule: str):
    """An argparse type: ``convert`` the text, then require ``ok(value)``."""
    def parse(text):
        try:
            value = convert(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"must be {rule}, got {text!r}")
    return parse


_seed_count = _bounded(int, lambda n: n >= 1, "an integer >= 1")
_tolerance = _bounded(float, lambda x: math.isfinite(x) and x >= 0, "a finite number >= 0")


def _add_seeds(p) -> None:
    p.add_argument("--seed", type=int, help="base RNG seed override")
    p.add_argument("--seeds", type=_seed_count, default=1,
                   help="number of consecutive seeds to run (default 1)")


def _fit_flags(p) -> None:
    p.add_argument("--trace", required=True, help="profiling trace CSV path")
    p.add_argument("--metric", choices=METRIC_KINDS, default="cc",
                   help="autoscaling metric the trace observed (default cc)")
    p.add_argument("--out", required=True, help="model bundle JSON to write")


def _predict_flags(p) -> None:
    p.add_argument("--model", required=True, help="model bundle JSON from fit")
    p.add_argument("--config", required=True, help="autoscaler config JSON")
    p.add_argument("--arrival-rate", type=float, required=True,
                   help="arrival rate, requests/s")
    p.add_argument("--explain", action="store_true",
                   help="include the chain's states, transitions and per-ready-count values")
    p.add_argument("--out", help="also write the report JSON here")


def _sweep_flags(p) -> None:
    p.add_argument("--model", required=True, help="model bundle JSON from fit")
    p.add_argument("--spec", required=True,
                   help="sweep spec JSON: lambdas, target_values, fixed")
    p.add_argument("--out", required=True, help="sweep CSV to write")


def _simulate_flags(p) -> None:
    p.add_argument("--config", required=True, help="simulation config JSON")
    _add_seeds(p)
    p.add_argument("--series", action="store_true",
                   help="include the per-second series in the report")
    p.add_argument("--trace-out", help="also write the profiling trace CSV here")
    p.add_argument("--out", help="also write the report JSON here")


def _compare_flags(p) -> None:
    p.add_argument("--model", required=True, help="model bundle JSON from fit")
    p.add_argument("--sim-config", required=True,
                   help="simulation config JSON; its autoscaler is the one predicted")
    _add_seeds(p)
    p.add_argument("--tolerance", type=_tolerance, default=0.15,
                   help="max relative error (default 0.15)")
    p.add_argument("--out", help="also write the comparison JSON here")


# name: (handler, help line, flag declarations)
_COMMANDS = {
    "fit": (cmd_fit, "fit metric and response-time models from a trace CSV", _fit_flags),
    "predict": (cmd_predict, "predict steady-state metrics at an arrival rate", _predict_flags),
    "sweep": (cmd_sweep, "predict over a grid of arrival rates and target values",
              _sweep_flags),
    "simulate": (cmd_simulate, "run the discrete-event simulator", _simulate_flags),
    "compare": (cmd_compare, "compare analytical predictions against simulation",
                _compare_flags),
}


def build_parser(command=None) -> argparse.ArgumentParser:
    """One subparser per command, each declaring only the flags it reads;
    given a command's name, only that command's subparser.

    argparse only ever reads the subparser the command line names, so
    main builds that one alone, unless the first word names no command
    (help, or a usage error that lists them all).  Abbreviations are
    refused: ``simulate --trace x`` would otherwise be read as
    ``--trace-out x``.
    """
    parser = argparse.ArgumentParser(
        prog="replicast",
        description="Steady-state prediction for metric-based autoscaling, "
                    "with a validating discrete-event simulator.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, add_flags) in _COMMANDS.items():
        if command in (None, name):
            p = sub.add_parser(name, help=help_text, allow_abbrev=False)
            p.set_defaults(func=func)
            add_flags(p)
    return parser


def main(argv=None) -> int:
    try:
        words = sys.argv[1:] if argv is None else argv
        command = words[0] if words and words[0] in _COMMANDS else None
        args = build_parser(command).parse_args(argv)
    except SystemExit as exc:
        # argparse has printed the usage error (or the help).  Usage errors
        # are input errors, and returning keeps in-process callers running.
        return EXIT_INPUT if exc.code else EXIT_OK
    try:
        code = args.func(args)
        # Flushed here, so that a reader that has closed stdout is met below.
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout after taking what it wanted, as `head`
        # does: not an error.  Stdout now points at devnull, so that the
        # flush at shutdown raises nothing.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_OK
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
