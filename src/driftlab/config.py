"""Experiment configuration: a single JSON file drives every pipeline.

The schema is documented in the README; inline field definitions use the
coefficient-table encoding of the fields module.  One rule builds each
section's dataclass from the entries present, so the dataclass holds the
only default, and refuses an entry it does not read; so do the root and an
inline field's top level, but not the guard and piece objects inside it.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import sys
from dataclasses import asdict, dataclass, field as dc_field

import numpy as np

from .errors import ConfigInvalid, IoFailure
from .fields import BUILTIN_FIELDS, PiecewiseField, builtin_field, guard_from_dict
from .fields import piece_from_dict
from .io import canonical_json
from .sa import DEFAULT_BLOWUP_BOUND, NoiseModel, StepsizeSchedule


@dataclass
class TrackingParams:
    T: float = 1.0
    n_windows: int = 5
    dt: float = 1e-3


@dataclass
class MeasureParams:
    checkpoints: list | None = None  # None: a quarter of the way and the end
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
        return _inline_field(self.field_spec)

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


def _require(data, key):
    if key not in data:
        raise ConfigInvalid(f"{key}: missing required entry")
    return data[key]


def _known(data, names, path):
    """Refuse an entry of the object data that is not in names."""
    for key in data:
        if key not in names:
            raise ConfigInvalid(f"{path}{key}: unknown entry; known: {', '.join(names)}")


def _is_number(value):
    """A JSON number; true and false are bools, which Python counts as ints."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _number(value, path):
    if not (_is_number(value) and abs(value) <= sys.float_info.max):
        raise ConfigInvalid(f"{path}: must be a finite number, got {value!r}")
    return float(value)


def _positive(value, path):
    if not (_is_number(value) and 0 < value <= sys.float_info.max):
        raise ConfigInvalid(f"{path}: must be a positive finite number")
    return float(value)


def _integer(value, path, minimum=None):
    if not (_is_number(value) and isinstance(value, int)):
        raise ConfigInvalid(f"{path}: must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigInvalid(f"{path}: must be >= {minimum}, got {value}")
    return value


_count = functools.partial(_integer, minimum=1)


def _text(value, path):
    if not isinstance(value, str):
        raise ConfigInvalid(f"{path}: must be a string, got {type(value).__name__}")
    return value


def _each(check):
    """The check of a list whose every item passes check."""
    def check_list(value, path):
        if not isinstance(value, list):
            raise ConfigInvalid(f"{path}: must be a list, got {type(value).__name__}")
        return [check(item, f"{path}[{i}]") for i, item in enumerate(value)]
    return check_list


def check_seeds(value, path):
    """A run's seeds, from the config or --seeds: distinct integers >= 0."""
    seeds = _each(functools.partial(_integer, minimum=0))(value, path)
    if not seeds:
        raise ConfigInvalid(f"{path}: must be a non-empty list of integers")
    for i, seed in enumerate(seeds):
        if seeds.index(seed) < i:
            raise ConfigInvalid(f"{path}[{i}]: repeats seed {seed}")
    return seeds


def _section(data, key, cls, checks, required=False):
    """cls built from the entries of the object data[key] that are present,
    each through its check; an absent entry takes cls's default."""
    value = _require(data, key) if required else data.get(key, {})
    if not isinstance(value, dict):
        raise ConfigInvalid(f"{key}: must be an object, got {type(value).__name__}")
    _known(value, checks, f"{key}.")
    entries = {k: check(value[k], f"{key}.{k}") for k, check in checks.items() if k in value}
    try:
        return cls(**entries)
    except ValueError as exc:
        raise ConfigInvalid(f"{key}: {exc}") from exc


_SCHEDULE = {"kind": _text, "a0": _number, "gamma": _number, "sequence": _each(_number)}
_NOISE = {"kind": _text, "scale": _number}
_TRACKING = {"T": _positive, "n_windows": _count, "dt": _positive}
_MEASURES = {"checkpoints": _each(_integer), "eps": _each(_positive)}
_INTEGRATE = {"t_end": _positive, "dt": _positive}
_ROOT = ("field", "x0", "schedule", "noise", "n_steps", "seeds", "tracking", "measures",
         "integrate", "output_dir", "blowup_bound")
_FIELD = ("dimension", "guards", "pieces", "boundary_values", "name")


def _require_finite(value, path):
    """Reject NaN, infinite numbers and integers beyond the largest float
    anywhere inside value; json.load parses the NaN, Infinity and -Infinity
    tokens, and an integer literal of any size."""
    if _is_number(value) and not abs(value) <= sys.float_info.max:
        raise ConfigInvalid(f"{path}: must be finite, got {value!r}")
    if isinstance(value, dict):
        for key, item in value.items():
            _require_finite(item, f"{path}.{key}")
    elif isinstance(value, list):
        for i, item in enumerate(value):
            _require_finite(item, f"{path}[{i}]")


def _inline_field(spec):
    """The PiecewiseField of an inline definition; an error names the guard at fault."""
    path, guards = "field", []
    try:
        dimension = spec["dimension"]
        if not isinstance(dimension, (int, float)):  # bools are ints
            raise TypeError(f"dimension must be an integer, got {dimension!r}")
        dimension = _integer(dimension, "field.dimension")
        for k, guard in enumerate(spec.get("guards", [])):
            path = f"field.guards[{k}]"
            guards.append(guard_from_dict(guard, dimension))
        path = "field"
        pieces = {key: piece_from_dict(p) for key, p in spec.get("pieces", {}).items()}
        return PiecewiseField(**dict(spec, dimension=dimension, guards=guards, pieces=pieces))
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ConfigInvalid(f"{path}: invalid inline definition: {exc}") from exc


def config_from_dict(data):
    if not isinstance(data, dict):
        raise ConfigInvalid("config root must be an object")
    _known(data, _ROOT, "")

    field_spec, field = _require(data, "field"), None
    if isinstance(field_spec, dict):
        _known(field_spec, _FIELD, "field.")
        _require_finite(field_spec, "field")
        field = _inline_field(field_spec)
    elif not isinstance(field_spec, str):
        raise ConfigInvalid("field: must be a built-in name or an inline object")
    elif field_spec not in BUILTIN_FIELDS:
        raise ConfigInvalid(
            f"field: unknown built-in {field_spec!r}; known: {', '.join(BUILTIN_FIELDS)}"
        )

    x0 = np.asarray(_each(_number)(_require(data, "x0"), "x0"), dtype=float)
    if x0.size == 0:
        raise ConfigInvalid("x0: must be a non-empty vector")
    schedule = _section(data, "schedule", StepsizeSchedule, _SCHEDULE, required=True)
    noise = _section(data, "noise", NoiseModel, _NOISE, required=True)
    n_steps = _count(_require(data, "n_steps"), "n_steps")
    sequence = schedule.sequence
    if sequence is not None and (schedule.kind != "custom" or sequence.size < n_steps):
        raise ConfigInvalid(f"schedule.sequence: must be a custom schedule's {n_steps}+ stepsizes")
    seeds = check_seeds(_require(data, "seeds"), "seeds")
    tracking = _section(data, "tracking", TrackingParams, _TRACKING)
    measures = _section(data, "measures", MeasureParams, _MEASURES)
    if measures.checkpoints is None:
        measures.checkpoints = sorted({max(1, n_steps // 4), n_steps})
    bounded = [0, *measures.checkpoints, n_steps + 1]
    if any(b <= a for a, b in zip(bounded, bounded[1:])):
        raise ConfigInvalid("measures.checkpoints: must increase strictly within [1, n_steps]")
    integrate = _section(data, "integrate", IntegrateParams, _INTEGRATE)

    config = ExperimentConfig(
        field_spec, x0, schedule, noise, n_steps, seeds, tracking, measures, integrate,
        output_dir=_text(data.get("output_dir", "out"), "output_dir"),
        blowup_bound=_positive(data.get("blowup_bound", DEFAULT_BLOWUP_BOUND), "blowup_bound"),
    )
    # dimension consistency between field and x0, after every entry's own check
    if field is None:
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
    if "output_dir" not in data:
        config.output_dir = os.path.join(os.path.dirname(os.path.abspath(path)), "out")
    return config
