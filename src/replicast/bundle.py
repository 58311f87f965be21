"""Serialized pairing of the two fitted models.

`fit` writes one JSON bundle holding the metric model and the
response-time function so `predict`, `sweep` and `compare` can run in
separate processes without refitting.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import ProfilingTrace, _check_keys, dump_json, load_json
from .errors import ValidationError
from .metric_model import MetricModel, fit_metric_model
from .output import ResponseTimeFunction, fit_rtf

SCHEMA_VERSION = 2


@dataclass(frozen=True)
class ModelBundle:
    metric: MetricModel
    response_time: ResponseTimeFunction

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
                   response_time=ResponseTimeFunction.from_dict(data["response_time"]))


def fit_bundle(trace: ProfilingTrace, metric_kind: str) -> ModelBundle:
    return ModelBundle(metric=fit_metric_model(trace, metric_kind),
                       response_time=fit_rtf(trace))


def save_bundle(bundle: ModelBundle, path) -> None:
    dump_json(bundle.to_dict(), path)


def load_bundle(path) -> ModelBundle:
    return ModelBundle.from_dict(load_json(path))
