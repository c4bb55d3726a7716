import argparse
import ast
import hashlib
import inspect
import json
import os
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import driftlab as dl
from driftlab import io as dio
from driftlab import cli
from driftlab.cli import main as cli_main
from driftlab import config as dconfig
from driftlab.config import ExperimentConfig, IntegrateParams, MeasureParams, TrackingParams
from driftlab.config import config_from_dict, load_config
from driftlab.fields import AffineGuard, AffinePiece, ConstantPiece, CoordinateGuard, NormGuard
from driftlab.fields import PiecewiseField, QuadraticPiece
from driftlab.sa import NoiseModel, StepsizeSchedule
from driftlab import experiments
from driftlab.experiments import compare_noise_study, run_experiment, seed_paths
from driftlab.io import canonical_json, read_trace_csv


def base_config(tmp_path, **overrides):
    data = {
        "field": "example1",
        "x0": [0.0, 1.0],
        "schedule": {"kind": "power", "a0": 1.0, "gamma": 0.75},
        "noise": {"kind": "gaussian", "scale": 0.1},
        "n_steps": 3000,
        "seeds": [1, 2],
        "tracking": {"T": 1.0, "n_windows": 3, "dt": 1e-3},
        "measures": {"checkpoints": [500, 3000], "eps": [0.01, 0.05]},
        "integrate": {"t_end": 3.0, "dt": 1e-3},
        "output_dir": str(tmp_path / "out"),
    }
    data.update(overrides)
    return data


def _one_guard_field(guard=None, plus=None, **entries):
    """A 2-d inline field of one guard, the coordinate y unless guard is
    given, and two constant pieces, the '+' one unless plus is given."""
    return {
        "dimension": 2,
        "guards": [guard or {"type": "coordinate", "index": 1}],
        "pieces": {"+": plus or {"type": "constant", "value": [1.0, -1.0]},
                   "-": {"type": "constant", "value": [1.0, 1.0]}},
        **entries,
    }


class TestConfigValidation:
    def test_valid_roundtrip(self, tmp_path):
        cfg = config_from_dict(base_config(tmp_path))
        assert cfg.build_field().name == "example1"
        assert cfg.noise.density_flag

    def test_unknown_field_name(self, tmp_path):
        with pytest.raises(dl.ConfigInvalid, match="field"):
            config_from_dict(base_config(tmp_path, field="mystery"))

    def test_dimension_mismatch(self, tmp_path):
        with pytest.raises(dl.ConfigInvalid, match="x0"):
            config_from_dict(base_config(tmp_path, x0=[1.0]))

    def test_bad_noise_kind_path_in_message(self, tmp_path):
        with pytest.raises(dl.ConfigInvalid, match="noise"):
            config_from_dict(base_config(tmp_path, noise={"kind": "purple"}))

    def test_empty_seeds(self, tmp_path):
        with pytest.raises(dl.ConfigInvalid, match="seeds"):
            config_from_dict(base_config(tmp_path, seeds=[]))

    def test_checkpoints_beyond_steps(self, tmp_path):
        with pytest.raises(dl.ConfigInvalid, match="checkpoints"):
            config_from_dict(
                base_config(tmp_path, measures={"checkpoints": [500, 4000], "eps": [0.05]})
            )

    def test_inline_field_definition(self, tmp_path):
        inline = {
            "dimension": 1,
            "guards": [{"type": "coordinate", "index": 0}],
            "pieces": {
                "+": {"type": "constant", "value": [-1.0]},
                "-": {"type": "constant", "value": [1.0]},
            },
            "boundary_values": {"0": [0.0]},
        }
        cfg = config_from_dict(base_config(tmp_path, field=inline, x0=[0.5]))
        fld = cfg.build_field()
        assert np.array_equal(fld.evaluate([0.25]), [-1.0])

    @pytest.mark.parametrize(
        "key, value, path",
        [
            ("field", {"dimension": 1, "pieces": {"": {"type": "affine", "A": [[float("nan")]]}}},
             "field.pieces..A[0][0]"),
            ("schedule", {"kind": "power", "a0": float("nan"), "gamma": 0.75}, "schedule.a0"),
            ("schedule", {"kind": "power", "a0": 1.0, "gamma": float("inf")}, "schedule.gamma"),
            ("schedule", {"kind": "custom", "sequence": [0.1, float("-inf")]},
             "schedule.sequence[1]"),
            ("noise", {"kind": "gaussian", "scale": float("inf")}, "noise.scale"),
            ("tracking", {"T": float("inf"), "n_windows": 3, "dt": 1e-3}, "tracking.T"),
            ("tracking", {"T": 1.0, "n_windows": 3, "dt": float("inf")}, "tracking.dt"),
            ("integrate", {"t_end": float("inf"), "dt": 1e-3}, "integrate.t_end"),
            ("integrate", {"t_end": 3.0, "dt": float("inf")}, "integrate.dt"),
            ("blowup_bound", float("inf"), "blowup_bound"),
            ("measures", {"checkpoints": [500, 3000], "eps": [float("nan")]}, "measures.eps[0]"),
            ("measures", {"checkpoints": [500, 3000], "eps": [0.01, float("inf")]},
             "measures.eps[1]"),
            # an integer entry beyond the largest float is refused as a number entry is
            pytest.param("n_steps", 10**400, "n_steps", id="n_steps-10**400-n_steps"),
            ("seeds", [1, 10**400], "seeds[1]"),
            ("measures", {"checkpoints": [10**400]}, "measures.checkpoints[0]"),
        ],
    )
    def test_non_finite_numbers_rejected(self, tmp_path, key, value, path):
        # json.dumps writes NaN/Infinity tokens, which json.load accepts
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(base_config(tmp_path, x0=[0.5], **{key: value})))
        with pytest.raises(dl.ConfigInvalid, match=re.escape(path)):
            load_config(str(config_path))

    @pytest.mark.parametrize(
        "key, value, path",
        [
            ("x0", ["a", 1.0], "x0[0]"),
            ("x0", [0.0, True], "x0[1]"),
            ("n_steps", True, "n_steps"),
            ("n_steps", 3000.0, "n_steps"),
            ("seeds", [1, True], "seeds[1]"),
            ("seeds", [1.5], "seeds[0]"),
            ("tracking", {"T": 1.0, "n_windows": "abc", "dt": 1e-3}, "tracking.n_windows"),
            ("tracking", {"T": 1.0, "n_windows": 2.7, "dt": 1e-3}, "tracking.n_windows"),
            ("tracking", {"T": True, "n_windows": 3, "dt": 1e-3}, "tracking.T"),
            ("measures", {"checkpoints": ["a"], "eps": [0.05]}, "measures.checkpoints[0]"),
            ("measures", {"checkpoints": [500, 2500.5], "eps": [0.05]}, "measures.checkpoints[1]"),
            ("measures", {"checkpoints": 3000, "eps": [0.05]}, "measures.checkpoints"),
            ("measures", {"checkpoints": [3000], "eps": ["abc"]}, "measures.eps[0]"),
            ("measures", {"checkpoints": [3000], "eps": [0.05, 0]}, "measures.eps[1]"),
            ("measures", {"checkpoints": [3000], "eps": "abc"}, "measures.eps"),
            ("field", {"dimension": None}, "field.dimension"),
            ("tracking", [1], "tracking"),
            ("measures", "abc", "measures"),
            ("integrate", None, "integrate"),
            ("output_dir", None, "output_dir"),
            ("output_dir", 3, "output_dir"),
            ("field", {"dimension": 1, "guards": [{"type": "coordinate", "index": 2, "dimension": 3}],
                       "pieces": {"+": {"type": "constant", "value": [1.0]}}},
             "field.guards[0].dimension"),
            ("field", {"dimension": 1, "guards": [1], "pieces": {}}, "field.guards[0]"),
            ("field", {"dimension": 1, "guards": [{"type": "coordinate", "index": 0}],
                       "pieces": {"+": 1}}, "field.pieces.+"),
            # an entry no rule reads, a misspelling say, is refused where it sits
            ("colour", "red", "colour"),
            ("schedule", {"kind": "power", "a0": 1.0, "gama": 0.75}, "schedule.gama"),
            ("noise", {"kind": "gaussian", "scal": 0.0}, "noise.scal"),
            ("tracking", {"T": 1.0, "n_window": 1, "dt": 1e-3}, "tracking.n_window"),
            ("measures", {"checkpoint": [500, 3000], "eps": [0.05]}, "measures.checkpoint"),
            ("integrate", {"t_end": 3.0, "step": 1e-3}, "integrate.step"),
            ("field", {"dimension": 2, "pieces": {"": {"type": "constant", "value": [1.0, 0.0]}},
                       "piece": {}}, "field.piece"),
            ("schedule", {"kind": "power", "a0": True, "gamma": 0.75}, "schedule.a0"),
            ("noise", {"kind": "gaussian", "scale": True}, "noise.scale"),
            ("seeds", [-1], "seeds[0]"),
            ("seeds", [2, 2], "seeds[1]"),
            ("schedule", {"kind": "custom", "sequence": [0.1, 0.1, 0.1]}, "schedule.sequence"),
            ("schedule", {"kind": "custom", "sequence": 0.5}, "schedule.sequence"),
            # the schedule refuses a sequence it would not read, naming the entry
            pytest.param("schedule", {"kind": "power", "sequence": [0.1] * 3000},
                         "schedule: sequence", id="schedule-value37-schedule.sequence"),
            # an integer literal beyond the largest float
            ("tracking", {"T": 10**400}, "tracking.T"),
            ("schedule", {"kind": "power", "a0": -(10**400)}, "schedule.a0"),
            ("field", {"dimension": 2, "guards": [{"type": "coordinate", "index": 1}],
                       "pieces": {"+": {"type": "constant", "value": [1.0, 10**400]},
                                  "-": {"type": "constant", "value": [1.0, 1.0]}}},
             "field.pieces.+.value[1]"),
            # an inline field's dimension is an integer, as every section integer is
            ("field", {"dimension": 2.5, "guards": [{"type": "coordinate", "index": 1}],
                       "pieces": {"+": {"type": "constant", "value": [1.0, -1.0]},
                                  "-": {"type": "constant", "value": [1.0, 1.0]}}},
             "field.dimension"),
            ("field", {"dimension": True, "guards": [{"type": "coordinate", "index": 0}],
                       "pieces": {"+": {"type": "constant", "value": [-1.0]},
                                  "-": {"type": "constant", "value": [1.0]}}},
             "field.dimension"),
            # a guard or piece is read by the rule of every config object
            ("field", _one_guard_field(guard={"type": "affine", "a": [0, 1], "offset": 0.5}),
             "field.guards[0].offset"),
            ("field", _one_guard_field(plus={"type": "constant", "valu": [1.0, -1.0]}),
             "field.pieces.+.valu"),
            ("field", _one_guard_field(guard={"kind": "coordinate", "index": 1}),
             "field.guards[0].kind"),
            ("field", _one_guard_field(guard={"type": "affine", "a": [True, 0.0]}),
             "field.guards[0].a[0]"),
            ("field", _one_guard_field(plus={"type": "constant", "value": ["1", -1.0]}),
             "field.pieces.+.value[0]"),
            ("field", _one_guard_field(name=3), "field.name"),
            ("field", _one_guard_field(plus={"type": "linear", "A": [[1.0, 0.0], [0.0, 1.0]]}),
             "field.pieces.+.type"),
            ("field", _one_guard_field(guard={"type": "plane", "a": [0.0, 1.0]}),
             "field.guards[0].type"),
            ("field", _one_guard_field(guard={"type": "coordinate", "index": True}),
             "field.guards[0].index"),
            ("field", _one_guard_field(guard={"type": "affine", "b": 0.5}), "field.guards[0].a"),
            ("field", _one_guard_field(boundary_values={"0": [0.0, False]}),
             "field.boundary_values.0[1]"),
            ("field", {"dimension": 2, "pieces": {"": {"type": "affine", "A": [2.0, 0.0]}}},
             "field.pieces..A[0]"),
            ("field", {"dimension": 2, "pieces": {"": {"type": "quadratic", "Q": []}}},
             "field.pieces."),
        ],
    )
    def test_wrong_types_rejected(self, tmp_path, key, value, path):
        # each used to load (truncated or coerced) or raise a bare ValueError
        with pytest.raises(dl.ConfigInvalid, match=f"^{re.escape(path)}:"):
            config_from_dict(base_config(tmp_path, **{key: value}))

    @pytest.mark.parametrize(
        "entry, key", [("pieces", "x"), ("pieces", "+\u2014"), ("boundary_values", "O")]
    )
    def test_pattern_key_of_another_character_rejected(self, tmp_path, entry, key):
        # an 'x' piece used to load unread; a capital O is not a '0' label
        field = _one_guard_field()
        field.setdefault(entry, {})[key] = (
            [0.0, 0.0] if entry == "boundary_values" else {"type": "constant", "value": [0.0, 0.0]}
        )
        with pytest.raises(dl.ConfigInvalid, match=f"^field.{entry}.{re.escape(key)}: a sign pattern"):
            config_from_dict(base_config(tmp_path, field=field))

    @pytest.mark.parametrize(
        "field, path",
        [
            ({**_one_guard_field(), "pieces": {**_one_guard_field()["pieces"],
                                               "\u2212": {"type": "constant", "value": [5.0, 5.0]}}},
             "field.pieces.\u2212"),
            ({"dimension": 2, "guards": [{"a": [1.0, 0.0]}, {"a": [0.0, 1.0]}],
              "pieces": {a + b: {"type": "constant", "value": [1.0, 1.0]} for a in "+-" for b in "+-"},
              "boundary_values": {"0-": [0.0, 0.0], "0\u2013": [1.0, 1.0]}},
             "field.boundary_values.0\u2013"),
        ],
        ids=["pieces", "boundary_values"],
    )
    def test_pattern_keys_that_read_alike_rejected(self, tmp_path, field, path):
        # a unicode minus or en dash reads as '-': the later key used to replace the earlier
        with pytest.raises(dl.ConfigInvalid, match=f"^{path}: reads as"):
            config_from_dict(base_config(tmp_path, field=field))

    def test_hash_matches_recomputation(self, tmp_path):
        cfg = config_from_dict(base_config(tmp_path))
        recomputed = hashlib.sha256(canonical_json(cfg.effective_dict()).encode()).hexdigest()
        assert cfg.content_hash() == recomputed


def _guard_from_dict(spec, dimension):
    """The reader of a guard object before config read every object by one
    rule; the oracle of that rule on valid guards."""
    kind = spec.get("type", "affine")
    if kind == "affine":
        return AffineGuard(spec["a"], spec.get("b", 0.0))
    if kind == "coordinate":
        return CoordinateGuard(spec["index"], dimension)
    if kind == "norm":
        return NormGuard(spec["center"], spec["radius"])
    raise ValueError(f"unknown guard type {kind!r}")


def _piece_from_dict(spec):
    """The old reader of a piece object, as _guard_from_dict is of a guard."""
    kind = spec.get("type")
    if kind == "constant":
        return ConstantPiece(spec["value"])
    if kind == "affine":
        return AffinePiece(spec["A"], spec.get("b"))
    if kind == "quadratic":
        return QuadraticPiece(spec["Q"], spec.get("A"), spec.get("b"))
    raise ValueError(f"unknown piece type {kind!r}")


def _ascii(pattern):
    """A pattern as PiecewiseField read it before config did: a unicode minus
    or en dash taken as '-'."""
    return pattern.replace("\u2212", "-").replace("\u2013", "-")


def _corner_field():
    """perfbench's CORNER_FIELD, evaluated from the parsed benchmark file."""
    tree = ast.parse((Path(__file__).parent.parent / "perfbench" / "workloads.py").read_text())
    node = next(n for n in tree.body if isinstance(n, ast.Assign)
                and [t.id for t in n.targets] == ["CORNER_FIELD"])
    return eval(compile(ast.Expression(node.value), "workloads.py", "eval"), {})


_JSON_NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-(2**70), 2**70),
    st.sampled_from([0, -0.0, 1e-320, 10**300]),
)


@st.composite
def _inline_fields(draw):
    """A valid inline field of one guard, each of whose guard and piece
    entries a JSON number or an array of them, and optional ones left out."""
    d = draw(st.integers(1, 3))
    vector = st.lists(_JSON_NUMBERS, min_size=d, max_size=d)
    matrix = st.lists(vector, min_size=d, max_size=d)
    optional = lambda **entries: {k: v for k, v in entries.items() if draw(st.booleans())}
    guard = draw(st.sampled_from(["affine", "untyped", "coordinate", "norm"]))
    if guard in ("affine", "untyped"):
        guard = {"a": draw(vector.filter(any)), **optional(b=draw(_JSON_NUMBERS)),
                 **({"type": "affine"} if guard == "affine" else {})}
    elif guard == "coordinate":
        guard = {"type": "coordinate", "index": draw(st.integers(-d, d - 1))}
    else:
        guard = {"type": "norm", "center": draw(vector), "radius": draw(_JSON_NUMBERS)}

    def piece():
        kind = draw(st.sampled_from(["constant", "affine", "quadratic"]))
        if kind == "constant":
            return {"type": kind, "value": draw(vector)}
        if kind == "affine":
            return {"type": kind, "A": draw(matrix), **optional(b=draw(vector))}
        return {"type": kind, "Q": draw(st.lists(matrix, min_size=d, max_size=d)),
                **optional(A=draw(matrix), b=draw(vector))}

    minus = draw(st.sampled_from(["-", "\u2212", "\u2013"]))  # the last two read as '-'
    return {"dimension": d, "guards": [guard], "pieces": {"+": piece(), minus: piece()},
            **optional(boundary_values={"0": draw(vector)}, name=draw(st.text(max_size=5)))}


def _assert_same_bits(mine, theirs):
    assert type(mine) is type(theirs)
    assert vars(mine).keys() == vars(theirs).keys()
    for name, value in vars(theirs).items():
        a, b = np.asarray(vars(mine)[name]), np.asarray(value)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name


class TestInlineFieldReader:
    @settings(max_examples=150, deadline=None)
    @given(spec=st.one_of(_inline_fields(), st.just(_corner_field())))
    def test_matches_the_old_readers(self, spec):
        d = spec["dimension"]
        with np.errstate(over="ignore", invalid="ignore"):  # 1e300 squared, times 0
            mine = config_from_dict({"field": spec, "x0": [0.0] * d, "schedule": {},
                                     "noise": {}, "n_steps": 1, "seeds": [1]}).build_field()
            theirs = PiecewiseField(**dict(
                spec, guards=[_guard_from_dict(g, d) for g in spec.get("guards", [])],
                pieces={_ascii(k): _piece_from_dict(p) for k, p in spec["pieces"].items()},
                boundary_values={_ascii(k): v for k, v in spec.get("boundary_values", {}).items()}))
        assert (mine.dimension, mine.name) == (theirs.dimension, theirs.name)
        assert len(mine.guards) == len(theirs.guards)
        for guard, oracle in zip(mine.guards, theirs.guards):
            _assert_same_bits(guard, oracle)
        assert mine.pieces.keys() == theirs.pieces.keys()
        for pattern, piece in theirs.pieces.items():
            _assert_same_bits(mine.pieces[pattern], piece)
        assert mine.boundary_values.keys() == theirs.boundary_values.keys()
        for pattern, value in theirs.boundary_values.items():
            assert mine.boundary_values[pattern].tobytes() == value.tobytes()


def _config_tables():
    """Each (class, checks) pair that config builds an object from."""
    checks = [*dconfig._ROOT.values(), dconfig._inline_field(1), *dconfig._GUARDS.values(),
              *dconfig._PIECES.values()]
    built = [inspect.getclosurevars(c).nonlocals for c in checks
             if getattr(c, "__qualname__", "") == "_object.<locals>.check_object"]
    return [(ExperimentConfig, dconfig._ROOT), *((b["cls"], b["checks"]) for b in built)]


@pytest.mark.parametrize("cls, checks", _config_tables(),
                         ids=[cls.__name__ for cls, _ in _config_tables()])
def test_every_config_table_reads_each_parameter_of_its_class(cls, checks):
    # a parameter no check reads could not be set from a config, and a check
    # of no parameter would hand the constructor an entry it does not take
    parameters = set(inspect.signature(cls).parameters)
    if cls is CoordinateGuard:
        parameters.remove("dimension")  # the field gives it
    assert set(checks) == parameters


def test_config_tables_cover_every_section():
    classes = {cls for cls, _ in _config_tables()}
    assert {StepsizeSchedule, NoiseModel, TrackingParams, MeasureParams, IntegrateParams} <= classes
    assert len(_config_tables()) == 13


class TestRunExperiment:
    def test_bundle_writes_all_csvs_and_summary(self, tmp_path):
        cfg = config_from_dict(
            base_config(tmp_path, n_steps=2000, seeds=[3],
                        measures={"checkpoints": [500, 2000], "eps": [0.05]})
        )
        bundle = run_experiment(cfg)
        for stem in ("trace", "tracking", "residuals", "support"):
            assert os.path.exists(os.path.join(bundle.out_dir, f"{stem}_seed3.csv"))
        summary = json.loads(Path(bundle.out_dir, "summary.json").read_text())
        assert summary["config_sha256"] == cfg.content_hash()
        assert not bundle.any_diverged
        # atomic writes leave no temp files behind
        assert not [n for n in os.listdir(bundle.out_dir) if n.startswith(".tmp-")]

    def test_schedule_warning_flag(self, tmp_path):
        cfg = config_from_dict(
            base_config(
                tmp_path,
                schedule={"kind": "power", "a0": 1.0, "gamma": 0.4},
                n_steps=500,
                seeds=[1],
                tracking={"T": 0.5, "n_windows": 1, "dt": 1e-2},
                measures={"checkpoints": [500], "eps": [0.05]},
            )
        )
        bundle = run_experiment(cfg)
        diag = bundle.summary["schedule_diagnostics"]
        assert diag["square_sum_finite"] is False
        assert bundle.summary["schedule_warning"] is True

    def test_example1_flag_present(self, tmp_path):
        cfg = config_from_dict(base_config(tmp_path, n_steps=500, seeds=[1],
                                           tracking={"T": 0.5, "n_windows": 1, "dt": 1e-2},
                                           measures={"checkpoints": [500], "eps": [0.05]}))
        bundle = run_experiment(cfg)
        flags = " ".join(bundle.summary["interpretation_flags"])
        assert "1/sqrt(2)" in flags
        assert "smallest k" in flags

    def test_reruns_are_byte_identical(self, tmp_path):
        cfg = config_from_dict(
            base_config(tmp_path, n_steps=1500, seeds=[1, 2],
                        measures={"checkpoints": [500, 1500], "eps": [0.05]})
        )
        b1 = run_experiment(cfg, out_dir=str(tmp_path / "a"))
        b2 = run_experiment(cfg, out_dir=str(tmp_path / "b"))
        for name in sorted(os.listdir(b1.out_dir)):
            if name.endswith(".csv"):
                one = Path(b1.out_dir, name).read_bytes()
                two = Path(b2.out_dir, name).read_bytes()
                assert one == two, name

    def test_trace_csv_roundtrip(self, tmp_path):
        cfg = config_from_dict(base_config(tmp_path, n_steps=300, seeds=[5],
                                           tracking={"T": 0.5, "n_windows": 1, "dt": 1e-2},
                                           measures={"checkpoints": [300], "eps": [0.05]}))
        bundle = run_experiment(cfg)
        path = os.path.join(bundle.out_dir, "trace_seed5.csv")
        trace = read_trace_csv(path, seed=5)
        fresh = dl.run_sa(cfg.build_field(), cfg.x0, cfg.schedule, cfg.noise, 300, seed=5)
        assert np.array_equal(trace.states, fresh.states)
        assert np.array_equal(trace.noises, fresh.noises)
        assert trace.replay_residual() == 0.0

    def test_diverged_seed_is_flagged(self, tmp_path):
        inline = {
            "dimension": 1,
            "guards": [],
            "pieces": {"": {"type": "affine", "A": [[2.0]], "b": [0.0]}},
        }
        cfg = config_from_dict(
            base_config(
                tmp_path, field=inline, x0=[1.0],
                schedule={"kind": "constant", "a0": 1.0},
                n_steps=100, seeds=[1], blowup_bound=1e3,
                tracking={"T": 0.5, "n_windows": 1, "dt": 1e-2},
                measures={"checkpoints": [100], "eps": [0.05]},
            )
        )
        bundle = run_experiment(cfg)
        assert bundle.any_diverged
        assert bundle.summary["seeds"][0]["diverged"] is True


    @pytest.mark.parametrize("run", [run_experiment, compare_noise_study])
    @pytest.mark.parametrize(
        "seeds", [[1, True], [3, 3], [], [1, -1], [1, 2.5], [1, "2"]],
        ids=["bool", "repeated", "empty", "negative", "float", "text"],
    )
    def test_explicit_seeds_are_checked_as_the_configs_are(self, tmp_path, run, seeds):
        cfg = config_from_dict(base_config(tmp_path, field="relay", x0=[0.5], n_steps=100,
                                           tracking={"T": 0.5, "n_windows": 1, "dt": 1e-2},
                                           measures={"checkpoints": [100], "eps": [0.05]}))
        with pytest.raises(dl.ConfigInvalid, match=r"^seeds"):
            run(cfg, out_dir=str(tmp_path / "run"), seeds=seeds)
        assert not (tmp_path / "run").exists()


_ZERO_NOISE_RUNS = {
    "spurious_from_0": dict(
        field="spurious_equilibrium", x0=[0.0], n_steps=1500,
        measures={"checkpoints": [500, 1500], "eps": [0.01, 0.05]},
    ),
    # reaches y = 0 and slides along it, so tracking and diagnostics do real work
    "example1_sliding": dict(
        x0=[0.0, 1.0], n_steps=3000,
        measures={"checkpoints": [500, 3000], "eps": [0.01, 0.05]},
    ),
    "diverging": dict(
        field={"dimension": 1, "guards": [],
               "pieces": {"": {"type": "affine", "A": [[2.0]], "b": [0.0]}}},
        x0=[1.0], schedule={"kind": "constant", "a0": 1.0}, n_steps=100, blowup_bound=1e3,
        measures={"checkpoints": [100], "eps": [0.05]},
    ),
    "tracking_skipped": dict(
        field="relay", x0=[0.5], n_steps=300,
        tracking={"T": 1e3, "n_windows": 1, "dt": 1e-2},
        measures={"checkpoints": [300], "eps": [0.05]},
    ),
}


class TestSeedFreeRuns:
    """Zero noise draws nothing from the seed: run_experiment runs the
    first seed's pipeline and copies its files and record to the others."""

    @pytest.mark.parametrize("case", sorted(_ZERO_NOISE_RUNS))
    def test_matches_the_per_seed_loop(self, tmp_path, case):
        cfg = config_from_dict(base_config(tmp_path, noise={"kind": "zero", "scale": 0.0},
                                           seeds=[4, 1, 7], **_ZERO_NOISE_RUNS[case]))
        bundle = run_experiment(cfg, out_dir=str(tmp_path / "run"))
        records = bundle.summary["seeds"]
        assert [r["seed"] for r in records] == [4, 1, 7]
        field = cfg.build_field()
        for record in records:
            seed = record["seed"]
            alone = str(tmp_path / f"alone{seed}")
            assert record == experiments.run_single_seed(cfg, field, seed, alone)
            for key, path in seed_paths(bundle.out_dir, seed).items():
                oracle = seed_paths(alone, seed)[key]
                assert os.path.exists(path) == os.path.exists(oracle) != record["diverged"]
                if not record["diverged"]:
                    assert Path(path).read_bytes() == Path(oracle).read_bytes(), path
        first, *later = records
        for record in later:  # copies, not shared objects
            assert record is not first and record["notes"] is not first["notes"]
            assert record["support"] is not first["support"]
        if case == "diverging":
            assert bundle.any_diverged and first["notes"]
        elif case == "tracking_skipped":
            assert first["tracking_errors"] is None and "tracking skipped" in first["notes"][0]
        else:
            assert len(first["tracking_errors"]) == cfg.tracking.n_windows

    @pytest.mark.parametrize(
        "noise, runs, study_runs",
        [
            ({"kind": "zero", "scale": 0.0}, 1, 3 + 1),
            ({"kind": "gaussian", "scale": 0.1}, 3, 3 + 1),
            # a -0.0 draw is written as -0: only kind zero is seed-free
            ({"kind": "gaussian", "scale": 0.0}, 3, 3 + 3),
            ({"kind": "rademacher", "scale": 0.1}, 3, 3 + 3),
        ],
    )
    def test_run_sa_runs_once_per_zero_noise_run(self, tmp_path, monkeypatch, noise, runs,
                                                 study_runs):
        calls = []
        original = experiments.run_sa

        def counting(*args, **kwargs):
            calls.append(args[5])
            return original(*args, **kwargs)

        monkeypatch.setattr(experiments, "run_sa", counting)
        cfg = config_from_dict(base_config(tmp_path, field="relay", x0=[0.5], noise=noise,
                                           n_steps=300, seeds=[1, 2, 3],
                                           tracking={"T": 0.5, "n_windows": 1, "dt": 1e-2},
                                           measures={"checkpoints": [300], "eps": [0.05]}))
        run_experiment(cfg, out_dir=str(tmp_path / "run"))
        assert len(calls) == runs
        calls.clear()
        compare_noise_study(cfg, out_dir=str(tmp_path / "study"))
        assert len(calls) == study_runs


class TestCompareNoiseStudy:
    def test_spurious_dichotomy(self, tmp_path):
        cfg = config_from_dict(
            base_config(
                tmp_path, field="spurious_equilibrium", x0=[0.0],
                n_steps=8000, seeds=[1, 2, 3],
                tracking={"T": 1.0, "n_windows": 2, "dt": 1e-3},
                measures={"checkpoints": [8000], "eps": [0.05]},
            )
        )
        result = compare_noise_study(cfg)
        by_arm = {row["arm"]: row for row in result.table}
        assert by_arm["density"]["escape_fraction"] == 1.0
        assert by_arm["atomic"]["escape_fraction"] == 0.0
        assert by_arm["atomic"]["final_norm_median"] == 0.0
        for row in result.table:
            assert row["krasovskii_fraction_median"] >= row["filippov_fraction_median"]
        assert os.path.exists(os.path.join(result.out_dir, "study_comparison.csv"))

    def test_example1_boundary_start_filippov_fraction(self, tmp_path):
        # gamma = 0.6 reaches t ~ 129 in 2e4 steps, so the one off-graph
        # initial atom weighs under 1%
        cfg = config_from_dict(
            base_config(
                tmp_path, x0=[0.0, 0.0],
                schedule={"kind": "power", "a0": 1.0, "gamma": 0.6},
                n_steps=20000, seeds=[1, 2],
                tracking={"T": 1.0, "n_windows": 2, "dt": 1e-2},
                measures={"checkpoints": [20000], "eps": [0.05]},
            )
        )
        result = compare_noise_study(cfg)
        by_arm = {row["arm"]: row for row in result.table}
        assert by_arm["density"]["filippov_fraction_median"] >= 0.99
        for row in result.table:
            assert row["krasovskii_fraction_median"] >= row["filippov_fraction_median"]

    @pytest.mark.parametrize(
        "noise, kinds, substituted",
        [
            ({"kind": "uniform_ball", "scale": 0.2}, ("uniform_ball", "zero"), "atomic"),
            ({"kind": "rademacher", "scale": 0.2}, ("gaussian", "rademacher"), "density"),
            # gaussian at scale 0 is a Dirac mass: it serves the atomic arm
            ({"kind": "gaussian", "scale": 0.0}, ("gaussian", "gaussian"), "density"),
        ],
    )
    def test_arms_follow_density_flag(self, tmp_path, noise, kinds, substituted):
        cfg = config_from_dict(
            base_config(
                tmp_path, field="relay", x0=[0.5], noise=noise,
                n_steps=500, seeds=[1],
                tracking={"T": 0.5, "n_windows": 1, "dt": 1e-2},
                measures={"checkpoints": [500], "eps": [0.05]},
            )
        )
        result = compare_noise_study(cfg)
        by_arm = {row["arm"]: row for row in result.table}
        assert (by_arm["density"]["noise_kind"], by_arm["atomic"]["noise_kind"]) == kinds
        assert by_arm["density"]["density_flag"] and not by_arm["atomic"]["density_flag"]
        notes = [f for f in result.flags if "substituted" in f]
        assert len(notes) == 1 and notes[0].startswith(f"arm {substituted}:")

    def test_smooth_field_flag(self, tmp_path):
        cfg = config_from_dict(
            base_config(
                tmp_path, field="linear", x0=[1.0],
                noise={"kind": "zero", "scale": 0.0},
                n_steps=2000, seeds=[1],
                tracking={"T": 0.5, "n_windows": 2, "dt": 1e-3},
                measures={"checkpoints": [2000], "eps": [0.05]},
            )
        )
        result = compare_noise_study(cfg)
        assert "no dichotomy (smooth field)" in result.flags
        by_arm = {row["arm"]: row for row in result.table}
        for row in result.table:
            # smooth field: F = K, both fractions identical in each arm
            assert row["filippov_fraction_median"] == row["krasovskii_fraction_median"]
        assert by_arm["atomic"]["noise_kind"] == "zero"


class TestShippedConfigs:
    def test_example1_demo_config_smoke(self, tmp_path):
        # the demo config in the repo produces all four CSVs per seed + summary
        repo_cfg = os.path.join(os.path.dirname(__file__), "..", "configs", "example1.json")
        cfg = load_config(repo_cfg)
        out = str(tmp_path / "demo")
        bundle = run_experiment(cfg, out_dir=out, seeds=[1])
        for stem in ("trace", "tracking", "residuals", "support"):
            assert os.path.exists(os.path.join(out, f"{stem}_seed1.csv"))
        assert os.path.exists(os.path.join(out, "summary.json"))
        assert not bundle.any_diverged

    def test_all_shipped_configs_load(self):
        cfg_dir = os.path.join(os.path.dirname(__file__), "..", "configs")
        for name in sorted(os.listdir(cfg_dir)):
            cfg = load_config(os.path.join(cfg_dir, name))
            assert cfg.n_steps >= 1


class TestCli:
    def _write_config(self, tmp_path, **overrides):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(base_config(tmp_path, **overrides)))
        return str(path)

    def test_simulate_ok(self, tmp_path, capsys):
        path = self._write_config(tmp_path, n_steps=500, seeds=[1],
                                  tracking={"T": 0.5, "n_windows": 1, "dt": 1e-2},
                                  measures={"checkpoints": [500], "eps": [0.05]})
        rc = cli_main(["simulate", "--config", path, "--quiet"])
        assert rc == 0

    def test_seed_override(self, tmp_path):
        path = self._write_config(tmp_path, n_steps=500, seeds=[1],
                                  tracking={"T": 0.5, "n_windows": 1, "dt": 1e-2},
                                  measures={"checkpoints": [500], "eps": [0.05]})
        out = str(tmp_path / "ovr")
        rc = cli_main(["simulate", "--config", path, "--out", out, "--seeds", "7,8", "--quiet"])
        assert rc == 0
        assert os.path.exists(os.path.join(out, "trace_seed7.csv"))
        assert os.path.exists(os.path.join(out, "trace_seed8.csv"))

    def test_integrate_writes_trajectory(self, tmp_path):
        path = self._write_config(tmp_path)
        out = str(tmp_path / "integ")
        rc = cli_main(["integrate", "--config", path, "--out", out, "--quiet"])
        assert rc == 0
        lines = Path(out, "trajectory.csv").read_text().splitlines()
        assert lines[0] == "t,x_1,x_2,mode"
        assert any("slide:0" in line for line in lines)

    def test_maps_prints_hulls(self, tmp_path, capsys):
        path = self._write_config(tmp_path)
        rc = cli_main(["maps", "--config", path, "--point", "0,0"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "F vertices" in out and "K vertices" in out
        assert "[-1.0, 0.0]" in out  # boundary value in K only

    @pytest.mark.parametrize("point", ["0", "0,0,0", "0,abc", "0,nan"])
    def test_maps_bad_point_is_config_error(self, tmp_path, capsys, point):
        path = self._write_config(tmp_path)
        assert cli_main(["maps", "--config", path, "--point", point]) == 2
        assert "--point" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf"])
    def test_maps_bad_tol_is_config_error(self, tmp_path, capsys, tol):
        path = self._write_config(tmp_path)
        assert cli_main(["maps", "--config", path, "--point", "0,0", f"--tol={tol}"]) == 2
        assert "--tol" in capsys.readouterr().err

    def test_measures_on_truncated_trace_is_io_error(self, tmp_path, capsys):
        path = self._write_config(tmp_path, n_steps=200, seeds=[1],
                                  tracking={"T": 0.5, "n_windows": 1, "dt": 1e-2},
                                  measures={"checkpoints": [200], "eps": [0.05]})
        out = str(tmp_path / "m")
        assert cli_main(["simulate", "--config", path, "--out", out, "--quiet"]) == 0
        trace = os.path.join(out, "trace_seed1.csv")
        lines = Path(trace).read_text().splitlines(keepends=True)
        Path(trace).write_text("".join(lines[:-1]))  # cut at a row boundary
        assert cli_main(["measures", "--config", path, "--out", out, "--quiet"]) == 4
        assert trace in capsys.readouterr().err

    def test_measures_recompute(self, tmp_path):
        path = self._write_config(tmp_path, n_steps=500, seeds=[1],
                                  tracking={"T": 0.5, "n_windows": 1, "dt": 1e-2},
                                  measures={"checkpoints": [500], "eps": [0.05]})
        out = str(tmp_path / "m")
        assert cli_main(["simulate", "--config", path, "--out", out, "--quiet"]) == 0
        residuals = Path(out, "residuals_seed1.csv").read_text()
        support = Path(out, "support_seed1.csv").read_text()
        assert cli_main(["measures", "--config", path, "--out", out, "--quiet"]) == 0
        assert Path(out, "residuals_seed1.csv").read_text() == residuals
        assert Path(out, "support_seed1.csv").read_text() == support

    def test_measures_clamps_checkpoints_to_trace(self, tmp_path):
        out = str(tmp_path / "m")
        short = self._write_config(tmp_path, n_steps=300, seeds=[1],
                                   tracking={"T": 0.5, "n_windows": 1, "dt": 1e-2},
                                   measures={"checkpoints": [300], "eps": [0.05]})
        assert cli_main(["simulate", "--config", short, "--out", out, "--quiet"]) == 0
        residuals = Path(out, "residuals_seed1.csv").read_text()
        # both checkpoints lie past the 300-step trace and clamp to one
        longer = self._write_config(tmp_path, n_steps=500, seeds=[1],
                                    measures={"checkpoints": [400, 500], "eps": [0.05]})
        assert cli_main(["measures", "--config", longer, "--out", out, "--quiet"]) == 0
        assert Path(out, "residuals_seed1.csv").read_text() == residuals

    def test_study_exit_code(self, tmp_path):
        path = self._write_config(tmp_path, field="spurious_equilibrium", x0=[0.0],
                                  n_steps=2000, seeds=[1],
                                  tracking={"T": 0.5, "n_windows": 1, "dt": 1e-2},
                                  measures={"checkpoints": [2000], "eps": [0.05]})
        rc = cli_main(["study", "--config", path, "--out", str(tmp_path / "st"), "--quiet"])
        assert rc == 0

    def test_study_hands_each_file_to_atomic_write_text_as_one_str(self, tmp_path, monkeypatch):
        """perfbench's tracer counts rows and bytes by text.count("\\n") and
        len(text.encode()) on this argument, so it must stay one str."""
        texts = []
        write = dio.atomic_write_text

        def recording(path, text):
            texts.append(text)
            write(path, text)

        monkeypatch.setattr(dio, "atomic_write_text", recording)
        path = self._write_config(tmp_path, field="spurious_equilibrium", x0=[0.0],
                                  n_steps=5000, seeds=[1, 2],
                                  tracking={"T": 0.5, "n_windows": 1, "dt": 1e-2},
                                  measures={"checkpoints": [5000], "eps": [0.05]})
        out = tmp_path / "st"
        assert cli_main(["study", "--config", path, "--out", str(out), "--quiet"]) == 0
        assert len(texts) == sum(1 for p in out.rglob("*") if p.is_file())
        assert all(type(text) is str for text in texts)

    def test_study_summary_is_strict_json(self, tmp_path):
        """50 windows of T = 1 do not fit 2000 example1 steps, so tracking is
        skipped and the tracking medians have no value: null, not NaN."""
        path = self._write_config(tmp_path, n_steps=2000, seeds=[1],
                                  tracking={"T": 1.0, "n_windows": 50, "dt": 1e-3},
                                  measures={"checkpoints": [2000], "eps": [0.05]})
        out = tmp_path / "st"
        assert cli_main(["study", "--config", path, "--out", str(out), "--quiet"]) == 0

        def not_json(constant):
            raise ValueError(f"{constant} is not JSON")

        for summary in sorted(out.rglob("*.json")):
            json.loads(summary.read_text(), parse_constant=not_json)
        table = json.loads((out / "study_summary.json").read_text())["table"]
        assert [row["tracking_first_median"] for row in table] == [None, None]

    @pytest.mark.parametrize(
        "argv, noise, message",
        [
            (["simulate"], {"kind": "purple"}, "noise"),
            (["simulate", "--seeds", ","], None, "--seeds"),
            (["simulate", "--seeds", "-3"], None, "--seeds[0]"),
            (["study", "--seeds", "2,2"], None, "--seeds[1]"),
            # a flag the command does not read is an argparse error
            (["maps", "--out", "elsewhere"], None, "--out"),
            (["maps", "--seeds", "1"], None, "--seeds"),
            (["maps", "--quiet"], None, "--quiet"),
            (["integrate", "--seeds", "1"], None, "--seeds"),
        ],
        ids=["bad-noise", "seeds-empty", "seeds-negative", "seeds-repeated", "maps-out",
             "maps-seeds", "maps-quiet", "integrate-seeds"],
    )
    def test_config_error_exit_code(self, tmp_path, capsys, argv, noise, message):
        path = self._write_config(tmp_path, n_steps=200, seeds=[1],
                                  noise=noise or {"kind": "gaussian", "scale": 0.1},
                                  tracking={"T": 0.5, "n_windows": 1, "dt": 1e-2},
                                  measures={"checkpoints": [200], "eps": [0.05]})
        try:
            rc = cli_main([argv[0], "--config", path, *argv[1:]])
        except SystemExit as exc:
            rc = exc.code
        assert rc == 2
        assert message in capsys.readouterr().err

    def test_malformed_inline_field_exit_code(self, tmp_path):
        for field in (
            {"dimension": 1, "guards": [1], "pieces": {}},
            {"dimension": 1, "guards": [{"type": "coordinate", "index": 0}], "pieces": {"+": 1}},
        ):
            path = self._write_config(tmp_path, field=field, x0=[0.5])
            assert cli_main(["simulate", "--config", path]) == 2

    @pytest.mark.parametrize(
        "repeat, key",
        [
            # a last value that wins would turn the density arm into the atomic one
            (', "noise": {"kind": "zero", "scale": 0.0}}', "'noise'"),
            (', "tracking": {"T": 0.5, "T": 1.0}}', "'T'"),
        ],
        ids=["root", "section"],
    )
    def test_repeated_key_is_config_error(self, tmp_path, capsys, repeat, key):
        path = tmp_path / "config.json"
        text = json.dumps(base_config(tmp_path, n_steps=200, seeds=[1],
                                      measures={"checkpoints": [200], "eps": [0.05]}))
        path.write_text(text[:-1] + repeat)
        assert cli_main(["simulate", "--config", str(path), "--quiet"]) == 2
        assert f"config repeats the entry {key} within one object" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_config_not_utf8_is_config_error(self, tmp_path, capsys):
        # RFC 8259: JSON text is UTF-8, whatever the locale's encoding
        path = tmp_path / "config.json"
        text = json.dumps(base_config(tmp_path, output_dir=str(tmp_path / "\u00e9")),
                          ensure_ascii=False)
        path.write_bytes(text.encode("latin-1"))
        assert cli_main(["simulate", "--config", str(path), "--quiet"]) == 2
        assert "config is not UTF-8" in capsys.readouterr().err

    def test_integer_past_the_digit_limit_is_config_error(self, tmp_path):
        # json.load raises a bare ValueError, not a JSONDecodeError, for an
        # integer literal longer than int's string conversion limit (4300 digits)
        path = tmp_path / "config.json"
        text = json.dumps(base_config(tmp_path, n_steps=200))
        path.write_text(text.replace('"n_steps": 200', '"n_steps": 1' + "0" * 5000))
        assert cli_main(["simulate", "--config", str(path), "--quiet"]) == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("where", ["pieces", "boundary_values"])
    def test_piece_of_wrong_shape_is_config_error(self, tmp_path, capsys, where):
        field = {
            "dimension": 2,
            "guards": [{"type": "coordinate", "index": 0}],
            "pieces": {"+": {"type": "constant", "value": [1.0, 0.0]},
                       "-": {"type": "constant", "value": [-1.0, 0.0]}},
        }
        if where == "pieces":
            field["pieces"]["+"]["value"] = [0.5]
        else:
            field["boundary_values"] = {"0": [0.0]}
        with pytest.raises(dl.ConfigInvalid, match=r"^field: .*shape \(1,\), not \(2,\)"):
            config_from_dict(base_config(tmp_path, field=field))
        path = self._write_config(tmp_path, field=field)
        assert cli_main(["simulate", "--config", path]) == 2
        assert "shape (1,)" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "guard",
        [{"type": "affine", "a": [0.0, 1.0, 0.0]}, {"type": "norm", "center": [0.0, 0.0, 0.0], "radius": 1.0}],
        ids=["affine", "norm"],
    )
    @pytest.mark.parametrize("command", ["simulate", "maps"])
    def test_guard_of_wrong_size_is_config_error(self, tmp_path, capsys, guard, command):
        # it used to pass validation and end in a bare numpy ValueError
        field = {
            "dimension": 2,
            "guards": [guard],
            "pieces": {"+": {"type": "constant", "value": [1.0, 0.0]},
                       "-": {"type": "constant", "value": [-1.0, 0.0]}},
        }
        path = self._write_config(tmp_path, field=field)
        args = ["--point", "0,0"] if command == "maps" else []
        assert cli_main([command, "--config", path, *args]) == 2
        err = capsys.readouterr().err
        assert "field: invalid inline definition: guard 0 takes points of size 3, not 2" in err

    def test_stdout_without_quiet(self, tmp_path, capsys):
        small = dict(n_steps=500, seeds=[1, 2], tracking={"T": 0.5, "n_windows": 1, "dt": 1e-2},
                     measures={"checkpoints": [500], "eps": [0.05]})
        path = self._write_config(tmp_path, **small)
        out = str(tmp_path / "sim")
        assert cli_main(["simulate", "--config", path, "--out", out]) == 0
        assert capsys.readouterr().out == f"[driftlab] wrote {out} (ok)\n"
        path = self._write_config(tmp_path, field="spurious_equilibrium", x0=[0.0], **small)
        assert cli_main(["study", "--config", path, "--out", str(tmp_path / "st")]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[1] for line in lines[:2]] == ["arm=density", "arm=atomic"]
        assert all(line.startswith("[driftlab] note: ") for line in lines[2:])
        assert cli_main(["simulate", "--config", path, "--out", out, "--quiet"]) == 0
        assert capsys.readouterr().out == ""

    def test_zero_stepsizes_simulate(self, tmp_path):
        # a zero step repeats t(n); the tracking windows used to reject that
        path = self._write_config(tmp_path, field="relay", x0=[0.5], n_steps=600, seeds=[1],
                                  schedule={"kind": "custom", "sequence": [0.1, 0.0, 0.1] * 200},
                                  tracking={"T": 1.0, "n_windows": 3, "dt": 1e-2},
                                  measures={"checkpoints": [600], "eps": [0.05]})
        assert cli_main(["simulate", "--config", path, "--out", str(tmp_path / "z"), "--quiet"]) == 0

    @pytest.mark.parametrize("T", [5e-10, 1e-9, 2e-9])
    def test_window_within_the_slack_simulate(self, tmp_path, T):
        # T below window_index's roundoff slack once gave a one-node window
        # and a ValueError out of the tracking comparator
        path = self._write_config(tmp_path, field="relay", x0=[0.5], n_steps=200, seeds=[1],
                                  tracking={"T": T, "n_windows": 3, "dt": 1e-3},
                                  measures={"checkpoints": [200], "eps": [0.05]})
        out = tmp_path / "small"
        assert cli_main(["simulate", "--config", path, "--out", str(out), "--quiet"]) == 0
        assert len((out / "tracking_seed1.csv").read_text().splitlines()) == 4

    def test_io_error_exit_code(self, tmp_path):
        assert cli_main(["simulate", "--config", str(tmp_path / "missing.json")]) == 4

    def test_diverged_exit_code(self, tmp_path):
        inline = {
            "dimension": 1,
            "guards": [],
            "pieces": {"": {"type": "affine", "A": [[2.0]], "b": [0.0]}},
        }
        path = self._write_config(
            tmp_path, field=inline, x0=[1.0],
            schedule={"kind": "constant", "a0": 1.0},
            n_steps=100, seeds=[1], blowup_bound=1e3,
            tracking={"T": 0.5, "n_windows": 1, "dt": 1e-2},
            measures={"checkpoints": [100], "eps": [0.05]},
        )
        assert cli_main(["simulate", "--config", path, "--quiet"]) == 3


def _args_read(handler):
    """The names a CLI handler reads as args.<name>."""
    tree = ast.parse(inspect.getsource(handler))
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id == "args"
    }


def test_every_cli_flag_is_read():
    # a flag its command never reads would be taken and silently dropped
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    assert set(commands) == set(cli._COMMANDS)
    unread = {}
    for name, sub in commands.items():
        flags = {a.dest for a in sub._actions if a.option_strings and a.dest != "help"}
        expected = _args_read(cli._COMMANDS[name]) | {"config"}
        if flags != expected:
            unread[name] = sorted(flags ^ expected)
    assert not unread, f"flags and args.<name> reads that differ, per command: {unread}"
