"""replicast: steady-state prediction for metric-based autoscaling.

Fits a Gaussian metric model and a response-time curve from a short
profiling trace, builds the Markov chain of the autoscaler's
(ordered, ready) replica counts, and reports average response time,
replica count and per-container concurrency at any arrival rate.
A built-in discrete-event simulator provides ground truth and traces.
"""

import os
import sys

# OpenBLAS reads its thread count once, when numpy loads.  Its second
# thread busy-waits, costing every command CPU at start-up, and on a
# shared VM it can stall a small LU for 0.1 s.  A user's own
# OPENBLAS_NUM_THREADS wins; once numpy is loaded nothing is written.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .bundle import ModelBundle, fit_bundle, load_bundle, save_bundle
from .cluster import (ClusterChain, StationaryDistribution, build_chain,
                      horizontal_transition_probs, solve_stationary,
                      stationary_distribution, vertical_transition_probs)
from .config import (METRIC_CONCURRENCY, METRIC_KINDS, METRIC_RPS,
                     AutoscalerConfig, ProfilingTrace, load_autoscaler_config,
                     parse_trace, save_autoscaler_config, trace_from_arrays,
                     write_trace)
from .errors import (ConfigMismatchError, FitRejectedError,
                     InsufficientDataError, NonErgodicError, NumericalError,
                     ReplicastError, TraceParseError, ValidationError)
from .evaluator import order_probabilities
from .metric_model import (STD_FLOOR, GaussianDist, Law, MetricModel,
                           fit_metric_model, fit_rtf, observed_value_distribution)
from .output import SteadyStateReport, steady_state_report
from .simulator import (WORKLOAD_INFINITE_SERVER, WORKLOAD_PROCESSOR_SHARING,
                        SimulationConfig, SimulationReport, WorkloadModel,
                        profile_trace, simulate)

__version__ = "0.1.0"

# The simulator has one plain-Python event loop; perfbench's worker reads this name.
JIT_ENABLED = False

__all__ = [
    "JIT_ENABLED",
    "ModelBundle", "fit_bundle", "load_bundle", "save_bundle",
    "ClusterChain", "StationaryDistribution", "build_chain",
    "horizontal_transition_probs", "solve_stationary",
    "stationary_distribution", "vertical_transition_probs",
    "METRIC_CONCURRENCY", "METRIC_KINDS", "METRIC_RPS",
    "AutoscalerConfig", "ProfilingTrace",
    "load_autoscaler_config", "parse_trace", "save_autoscaler_config",
    "trace_from_arrays", "write_trace",
    "ConfigMismatchError", "FitRejectedError",
    "InsufficientDataError", "NonErgodicError", "NumericalError",
    "ReplicastError", "TraceParseError", "ValidationError",
    "order_probabilities",
    "STD_FLOOR", "GaussianDist", "Law", "MetricModel", "fit_metric_model",
    "fit_rtf", "observed_value_distribution",
    "SteadyStateReport", "steady_state_report",
    "WORKLOAD_INFINITE_SERVER", "WORKLOAD_PROCESSOR_SHARING",
    "SimulationConfig", "SimulationReport", "WorkloadModel",
    "profile_trace", "simulate",
    "__version__",
]
