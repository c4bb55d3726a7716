"""Experiment configuration: a single JSON file drives every pipeline.

The schema is documented in the README; inline field definitions use the
coefficient-table encoding of the fields module.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import asdict, dataclass, field as dc_field

import numpy as np

from .errors import ConfigInvalid, IoFailure
from .fields import BUILTIN_FIELDS, PiecewiseField, builtin_field, guard_from_dict
from .io import canonical_json
from .sa import DEFAULT_BLOWUP_BOUND, NoiseModel, StepsizeSchedule


@dataclass
class TrackingParams:
    T: float = 1.0
    n_windows: int = 5
    dt: float = 1e-3


@dataclass
class MeasureParams:
    checkpoints: list = dc_field(default_factory=list)
    eps: list = dc_field(default_factory=lambda: [0.05])


@dataclass
class IntegrateParams:
    t_end: float = 1.0
    dt: float = 1e-3


@dataclass
class ExperimentConfig:
    field_spec: object  # builtin name or inline dict
    x0: np.ndarray
    schedule: StepsizeSchedule
    noise: NoiseModel
    n_steps: int
    seeds: list
    tracking: TrackingParams
    measures: MeasureParams
    integrate: IntegrateParams
    output_dir: str
    blowup_bound: float

    def build_field(self):
        if isinstance(self.field_spec, str):
            return builtin_field(self.field_spec, dimension=self.x0.size)
        return PiecewiseField.from_dict(self.field_spec)

    def effective_dict(self):
        """Full config echo, defaults filled in; hashed for tamper evidence."""
        return {
            "field": self.field_spec,
            "x0": self.x0.tolist(),
            "schedule": self.schedule.to_dict(),
            "noise": self.noise.to_dict(),
            "n_steps": self.n_steps,
            "seeds": list(self.seeds),
            "tracking": asdict(self.tracking),
            "measures": asdict(self.measures),
            "integrate": asdict(self.integrate),
            "output_dir": self.output_dir,
            "blowup_bound": self.blowup_bound,
        }

    def content_hash(self):
        return hashlib.sha256(canonical_json(self.effective_dict()).encode()).hexdigest()


def _require(data, key, path, types=None):
    if key not in data:
        raise ConfigInvalid(f"{path}{key}: missing required entry")
    value = data[key]
    if types is not None and not isinstance(value, types):
        raise ConfigInvalid(f"{path}{key}: expected {types}, got {type(value).__name__}")
    return value


def _is_number(value):
    """A JSON number; true and false are bools, which Python counts as ints."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _positive(value, path):
    if not (_is_number(value) and value > 0 and math.isfinite(value)):
        raise ConfigInvalid(f"{path}: must be a positive finite number")
    return float(value)


def _integer(value, path):
    if not (_is_number(value) and isinstance(value, int)):
        raise ConfigInvalid(f"{path}: must be an integer, got {value!r}")
    return value


def _list(value, path):
    if not isinstance(value, list):
        raise ConfigInvalid(f"{path}: must be a list, got {type(value).__name__}")
    return value


def _section(data, key):
    value = data.get(key, {})
    if not isinstance(value, dict):
        raise ConfigInvalid(f"{key}: must be an object, got {type(value).__name__}")
    return value


def _require_finite(value, path):
    """Reject NaN and infinite numbers anywhere inside value; json.load
    parses the NaN, Infinity and -Infinity tokens."""
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigInvalid(f"{path}: must be finite, got {value}")
    if isinstance(value, dict):
        for key, item in value.items():
            _require_finite(item, f"{path}.{key}")
    elif isinstance(value, list):
        for i, item in enumerate(value):
            _require_finite(item, f"{path}[{i}]")


def config_from_dict(data):
    if not isinstance(data, dict):
        raise ConfigInvalid("config root must be an object")

    field_spec = _require(data, "field", "")
    if isinstance(field_spec, str):
        if field_spec not in BUILTIN_FIELDS:
            raise ConfigInvalid(
                f"field: unknown built-in {field_spec!r}; known: {', '.join(BUILTIN_FIELDS)}"
            )
    elif isinstance(field_spec, dict):
        _require_finite(field_spec, "field")
        path = "field"
        try:
            dimension = int(field_spec["dimension"])
            for k, guard in enumerate(field_spec.get("guards", [])):
                path = f"field.guards[{k}]"
                guard_from_dict(guard, dimension)
            path = "field"
            PiecewiseField.from_dict(field_spec)
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ConfigInvalid(f"{path}: invalid inline definition: {exc}") from exc
    else:
        raise ConfigInvalid("field: must be a built-in name or an inline object")

    x0 = _require(data, "x0", "", list)
    for i, value in enumerate(x0):
        if not _is_number(value):
            raise ConfigInvalid(f"x0[{i}]: must be a number, got {value!r}")
    x0 = np.asarray(x0, dtype=float)
    if x0.size == 0 or not np.all(np.isfinite(x0)):
        raise ConfigInvalid("x0: must be a non-empty finite vector")

    sched_data = _require(data, "schedule", "", dict)
    _require_finite(sched_data, "schedule")
    try:
        schedule = StepsizeSchedule(
            kind=sched_data.get("kind", "power"),
            a0=float(sched_data.get("a0", 1.0)),
            gamma=float(sched_data.get("gamma", 1.0)),
            sequence=sched_data.get("sequence"),
        )
    except (ValueError, TypeError) as exc:
        raise ConfigInvalid(f"schedule: {exc}") from exc

    noise_data = _require(data, "noise", "", dict)
    _require_finite(noise_data, "noise")
    try:
        noise = NoiseModel(
            kind=noise_data.get("kind", "gaussian"),
            scale=float(noise_data.get("scale", 0.1)),
        )
    except (ValueError, TypeError) as exc:
        raise ConfigInvalid(f"noise: {exc}") from exc

    n_steps = _integer(_require(data, "n_steps", ""), "n_steps")
    if n_steps < 1:
        raise ConfigInvalid("n_steps: must be >= 1")

    seeds = _require(data, "seeds", "", list)
    if not seeds:
        raise ConfigInvalid("seeds: must be a non-empty list of integers")
    seeds = [_integer(s, f"seeds[{i}]") for i, s in enumerate(seeds)]

    tr = _section(data, "tracking")
    tracking = TrackingParams(
        T=_positive(tr.get("T", 1.0), "tracking.T"),
        n_windows=_integer(tr.get("n_windows", 5), "tracking.n_windows"),
        dt=_positive(tr.get("dt", 1e-3), "tracking.dt"),
    )
    if tracking.n_windows < 1:
        raise ConfigInvalid("tracking.n_windows: must be >= 1")

    ms = _section(data, "measures")
    checkpoints = ms.get("checkpoints", [max(1, n_steps // 4), n_steps])
    checkpoints = _list(checkpoints, "measures.checkpoints")
    checkpoints = [_integer(c, f"measures.checkpoints[{i}]") for i, c in enumerate(checkpoints)]
    if any(c < 1 or c > n_steps for c in checkpoints):
        raise ConfigInvalid("measures.checkpoints: each must be in [1, n_steps]")
    if any(b <= a for a, b in zip(checkpoints, checkpoints[1:])):
        raise ConfigInvalid("measures.checkpoints: must be strictly increasing")
    eps_list = _list(ms.get("eps", [0.05]), "measures.eps")
    eps_list = [_positive(e, f"measures.eps[{i}]") for i, e in enumerate(eps_list)]
    measures = MeasureParams(checkpoints=checkpoints, eps=eps_list)

    ig = _section(data, "integrate")
    integrate = IntegrateParams(
        t_end=_positive(ig.get("t_end", 1.0), "integrate.t_end"),
        dt=_positive(ig.get("dt", 1e-3), "integrate.dt"),
    )

    output_dir = data.get("output_dir", "out")
    if not isinstance(output_dir, str):
        raise ConfigInvalid(f"output_dir: must be a string, got {type(output_dir).__name__}")

    config = ExperimentConfig(
        field_spec=field_spec,
        x0=x0,
        schedule=schedule,
        noise=noise,
        n_steps=n_steps,
        seeds=seeds,
        tracking=tracking,
        measures=measures,
        integrate=integrate,
        output_dir=output_dir,
        blowup_bound=_positive(data.get("blowup_bound", DEFAULT_BLOWUP_BOUND), "blowup_bound"),
    )
    # dimension consistency between field and x0
    field = config.build_field()
    if field.dimension != x0.size:
        raise ConfigInvalid(
            f"x0: dimension {x0.size} does not match field dimension {field.dimension}"
        )
    return config


def load_config(path):
    try:
        with open(path) as handle:
            data = json.load(handle)
    except OSError as exc:
        raise IoFailure(f"could not read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigInvalid(f"config is not valid JSON: {exc}") from exc
    config = config_from_dict(data)
    if config.output_dir == "out" and "output_dir" not in data:
        config.output_dir = os.path.join(os.path.dirname(os.path.abspath(path)), "out")
    return config
