"""Serialized pairing of the metric model and the response-time law.

`fit` writes one JSON bundle holding the three fitted laws (the metric's
mean and variance, and the response time) so `predict`, `sweep` and
`compare` can run in separate processes without refitting.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import ProfilingTrace, _check_keys, _require, dump_json, load_json
from .errors import ValidationError
from .metric_model import Law, MetricModel, fit_metric_model, fit_rtf

SCHEMA_VERSION = 3


@dataclass(frozen=True)
class ModelBundle:
    metric: MetricModel
    response_time: Law

    def __post_init__(self):
        c0 = self.response_time.coefficients[0]
        _require(c0 > 0, "response_time coefficients[0] must be > 0 (base service time), "
                         f"got {c0!r}")

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "metric_model": self.metric.to_dict(),
            "response_time": self.response_time.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ModelBundle":
        keys = ("schema_version", "metric_model", "response_time")
        _check_keys(data, "model bundle", keys, keys)
        if data["schema_version"] != SCHEMA_VERSION:
            raise ValidationError(f"unsupported bundle schema_version "
                                  f"{data['schema_version']!r}, expected {SCHEMA_VERSION}; "
                                  "re-run `replicast fit` on the trace")
        return cls(metric=MetricModel.from_dict(data["metric_model"]),
                   response_time=Law.from_dict(data["response_time"], "response_time"))


def fit_bundle(trace: ProfilingTrace, metric_kind: str) -> ModelBundle:
    return ModelBundle(metric=fit_metric_model(trace, metric_kind),
                       response_time=fit_rtf(trace))


def save_bundle(bundle: ModelBundle, path) -> None:
    dump_json(bundle.to_dict(), path)


def load_bundle(path) -> ModelBundle:
    return ModelBundle.from_dict(load_json(path))
