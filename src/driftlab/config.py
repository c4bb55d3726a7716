"""Experiment configuration: a single JSON file drives every pipeline.

The schema is documented in the README.  One rule, _object, reads every
object of a config, from the root to an inline field's guards and pieces:
it builds the object's class from the entries present, each through its
check, so the constructor holds the only default, and it refuses an entry
that no check reads.  The rules across entries run after the build.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
import os
import sys
from dataclasses import asdict, dataclass, field as dc_field

import numpy as np

from .errors import ConfigInvalid, IoFailure
from .fields import BUILTIN_FIELDS, AffineGuard, AffinePiece, ConstantPiece, CoordinateGuard
from .fields import NormGuard, PiecewiseField, QuadraticPiece, builtin_field
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
    field: object  # builtin name or inline dict, as given
    x0: np.ndarray
    schedule: StepsizeSchedule
    noise: NoiseModel
    n_steps: int
    seeds: list
    tracking: TrackingParams = dc_field(default_factory=TrackingParams)
    measures: MeasureParams = dc_field(default_factory=MeasureParams)
    integrate: IntegrateParams = dc_field(default_factory=IntegrateParams)
    output_dir: str = "out"
    blowup_bound: float = DEFAULT_BLOWUP_BOUND

    def build_field(self):
        if isinstance(self.field, str):
            return builtin_field(self.field, dimension=self.x0.size)
        return _inline_field(self.field.get("dimension"))(self.field, "field")

    def effective_dict(self):
        """Full config echo, defaults filled in; hashed for tamper evidence."""
        return {
            "field": self.field,
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
    if not (_is_number(value) and isinstance(value, int) and abs(value) <= sys.float_info.max):
        raise ConfigInvalid(f"{path}: must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigInvalid(f"{path}: must be >= {minimum}, got {value}")
    return value


_count = functools.partial(_integer, minimum=1)


def _instance(kind, name):
    """The check of a value of type kind, which the refusal calls name."""
    def check_instance(value, path):
        if not isinstance(value, kind):
            raise ConfigInvalid(f"{path}: must be {name}, got {type(value).__name__}")
        return value
    return check_instance


_text, _dict = _instance(str, "a string"), _instance(dict, "an object")
_list = _instance(list, "a list")


def _each(check):
    """The check of a list whose every item passes check."""
    def check_list(value, path):
        return [check(item, f"{path}[{i}]") for i, item in enumerate(_list(value, path))]
    return check_list


def _patterns(check):
    """The check of an object keyed by sign patterns over '+', '-' and '0' (a
    unicode minus or en dash read as '-'), whose every entry passes check; a
    key that reads as an earlier key's pattern is refused."""
    def check_patterns(value, path):
        patterns = {}
        for key, item in _dict(value, path).items():
            pattern = key.replace("\u2212", "-").replace("\u2013", "-")
            if not set(pattern) <= set("+-0"):
                raise ConfigInvalid(f"{path}.{key}: a sign pattern holds only '+', '-' and '0'")
            if pattern in patterns:
                raise ConfigInvalid(f"{path}.{key}: reads as the pattern {pattern!r} of an earlier key")
            patterns[pattern] = check(item, f"{path}.{key}")
        return patterns
    return check_patterns


_vector = _each(_number)
_matrix = _each(_vector)


def check_seeds(value, path):
    """A run's seeds, from the config or --seeds: distinct integers >= 0."""
    seeds = _each(functools.partial(_integer, minimum=0))(value, path)
    if not seeds:
        raise ConfigInvalid(f"{path}: must be a non-empty list of integers")
    for i, seed in enumerate(seeds):
        if seeds.index(seed) < i:
            raise ConfigInvalid(f"{path}[{i}]: repeats seed {seed}")
    return seeds


@functools.cache
def _parameters(cls):
    """The names of cls's constructor parameters, and those without a default."""
    parameters = inspect.signature(cls).parameters.values()
    return {p.name for p in parameters}, [p.name for p in parameters if p.default is p.empty]


def _object(cls, checks):
    """The check of a JSON object: cls built from the entries present, each
    through its check in checks, an absent one left to cls's default.  The
    caller's given entries go to cls if it takes them; the root's path is ""."""
    def check_object(value, path, **given):
        prefix = f"{path}." if path else ""
        if not _dict(value, path or "config root").keys() <= checks.keys():
            key = next(k for k in value if k not in checks)
            raise ConfigInvalid(f"{prefix}{key}: unknown entry; known: {', '.join(checks)}")
        names, required = _parameters(cls)
        if given:
            given = {k: v for k, v in given.items() if k in names}
        for name in required:
            if name not in value and name not in given:
                raise ConfigInvalid(f"{prefix}{name}: missing required entry")
        entries = {k: check(value[k], prefix + k) for k, check in checks.items() if k in value}
        try:
            return cls(**entries, **given)
        except ValueError as exc:
            inline = "invalid inline definition: " if cls is PiecewiseField else ""
            raise ConfigInvalid(f"{path}: {inline}{exc}") from exc
    return check_object


def _typed(value, path, table, default=None, **given):
    """The object that table's check for its "type" entry (default if
    absent) builds from its other entries."""
    kind = _dict(value, path).get("type", default)
    if not (isinstance(kind, str) and kind in table):
        raise ConfigInvalid(f"{path}.type: unknown type {kind!r}; known: {', '.join(table)}")
    return table[kind]({k: v for k, v in value.items() if k != "type"}, path, **given)


_GUARDS = {
    "affine": _object(AffineGuard, {"a": _vector, "b": _number}),
    "coordinate": _object(CoordinateGuard, {"index": _integer}),  # given the field's dimension
    "norm": _object(NormGuard, {"center": _vector, "radius": _number}),
}
_PIECES = {
    "constant": _object(ConstantPiece, {"value": _vector}),
    "affine": _object(AffinePiece, {"A": _matrix, "b": _vector}),
    "quadratic": _object(QuadraticPiece, {"Q": _each(_matrix), "A": _matrix, "b": _vector}),
}
_pieces = _patterns(functools.partial(_typed, table=_PIECES))


def _inline_field(dimension):
    """The check of an inline field; each guard is given dimension, checked first."""
    guard = functools.partial(_typed, table=_GUARDS, default="affine", dimension=dimension)
    return _object(PiecewiseField, {"dimension": _count, "guards": _each(guard), "pieces": _pieces,
                                    "boundary_values": _patterns(_vector), "name": _text})


def _field(value, path):
    """A built-in field's name, or an inline definition that build_field reads."""
    if isinstance(value, dict) or value in BUILTIN_FIELDS:
        return value
    raise ConfigInvalid(f"{path}: must be an inline object or a built-in name, one of "
                        f"{', '.join(BUILTIN_FIELDS)}; got {value!r}")


def _point(value, path):
    x0 = np.asarray(_vector(value, path), dtype=float)
    if x0.size == 0:
        raise ConfigInvalid(f"{path}: must be a non-empty vector")
    return x0


_ROOT = {
    "field": _field,
    "x0": _point,
    "schedule": _object(StepsizeSchedule,
                        {"kind": _text, "a0": _number, "gamma": _number, "sequence": _vector}),
    "noise": _object(NoiseModel, {"kind": _text, "scale": _number}),
    "n_steps": _count,
    "seeds": check_seeds,
    "tracking": _object(TrackingParams, {"T": _positive, "n_windows": _count, "dt": _positive}),
    "measures": _object(MeasureParams, {"checkpoints": _each(_integer), "eps": _each(_positive)}),
    "integrate": _object(IntegrateParams, {"t_end": _positive, "dt": _positive}),
    "output_dir": _text,
    "blowup_bound": _positive,
}


def config_from_dict(data):
    config = _object(ExperimentConfig, _ROOT)(data, "")
    n_steps, sequence, measures = config.n_steps, config.schedule.sequence, config.measures
    if sequence is not None and sequence.size < n_steps:
        raise ConfigInvalid(f"schedule.sequence: must be a custom schedule's {n_steps}+ stepsizes")
    if measures.checkpoints is None:
        measures.checkpoints = sorted({max(1, n_steps // 4), n_steps})
    bounded = [0, *measures.checkpoints, n_steps + 1]
    if any(b <= a for a, b in zip(bounded, bounded[1:])):
        raise ConfigInvalid("measures.checkpoints: must increase strictly within [1, n_steps]")
    field = config.build_field()
    if field.dimension != config.x0.size:
        raise ConfigInvalid(
            f"x0: dimension {config.x0.size} does not match field dimension {field.dimension}"
        )
    return config


def _unique_keys(pairs):
    """A JSON object's dict; a key given twice is refused, not left to its last value."""
    data = dict(pairs)
    if len(data) < len(pairs):
        keys = [key for key, _ in pairs]
        key = next(key for key in keys if keys.count(key) > 1)
        raise ConfigInvalid(f"config repeats the entry {key!r} within one object")
    return data


def load_config(path):
    try:
        with open(path, encoding="utf-8") as handle:  # RFC 8259: JSON text is UTF-8
            data = json.load(handle, object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise IoFailure(f"could not read config {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigInvalid(f"config is not UTF-8: {exc}") from exc
    except ValueError as exc:  # a JSONDecodeError, or an integer literal past int's digit limit
        raise ConfigInvalid(f"config is not valid JSON: {exc}") from exc
    config = config_from_dict(data)
    if "output_dir" not in data:
        config.output_dir = os.path.join(os.path.dirname(os.path.abspath(path)), "out")
    return config
