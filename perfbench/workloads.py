"""The four benchmark workloads: input generation, one repetition, checks.

Each workload turns the workload seed into input files (config JSON in a
scratch directory, seed lists, query points), runs one repetition of its
pipeline through driftlab's public API or the in-process CLI
(`driftlab.cli.main([...])`), and checks the outputs of a repetition outside
the timed region.

`run_rep` calls `mark()` between the stages of a repetition (seed
pipelines, also inside a CLI call, and CLI invocations); the harness
times each stage on its own there (see harness.py). Outside the harness it does nothing.

An *operation* is the unit `attempted`/`failed` count: one seed's pipeline
(ensemble_relay, pipeline_example1, one arm of study_spurious), one
`integrate` call, or one `maps` query.
"""

import ast
import contextlib
import hashlib
import io
import json
import math
import os
import random
from pathlib import Path

import numpy as np

import driftlab as dl
from driftlab import cli, experiments
from driftlab.errors import DriftlabError

from tracing import guard_hits

DEFAULT_SEED = 1
# Tolerance for diagnostics against the recorded reference. Traces and CSV
# artifacts are compared bit-exactly; diagnostics may move by summation-order
# roundoff only.
RTOL = 1e-9
ATOL = 1e-12
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

_SCHEDULE = {"kind": "power", "a0": 1.0, "gamma": 0.75}


def _draw_seeds(rng, count):
    return sorted(rng.sample(range(1, 1_000_000), count))


def _write_json(path, obj):
    with open(path, "w") as handle:
        json.dump(obj, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _sha256_bytes(*arrays):
    digest = hashlib.sha256()
    for arr in arrays:
        digest.update(np.ascontiguousarray(arr).tobytes())
    return digest.hexdigest()


def _sha256_file(path):
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def tree_digest(directory):
    """One digest over every file under directory (relative names + bytes)."""
    digest = hashlib.sha256()
    for path in sorted(Path(directory).rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(directory)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def _cli(argv):
    """Run the CLI in process; returns (exit code, captured stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code
    return code, buf.getvalue()


def no_mark():
    """Stage boundary hook of an unmeasured repetition."""


@contextlib.contextmanager
def marking_seeds(mark):
    """Close a stage after each seed's pipeline run inside a CLI call, so
    that a stage lasts one seed, as in ensemble_relay."""
    original = experiments.run_single_seed

    def run_single_seed(*args, **kwargs):
        try:
            return original(*args, **kwargs)
        finally:
            mark()

    experiments.run_single_seed = run_single_seed
    try:
        yield
    finally:
        experiments.run_single_seed = original


def replay_ok(trace):
    return trace.replay_residual() == 0.0


class Check:
    """Per-operation verdicts plus what the reference comparison needs."""

    def __init__(self, op_names):
        self.op_names = list(op_names)
        self.op_errors = {name: [] for name in self.op_names}
        self.digests = {}
        self.diagnostics = {}
        self.notes = []

    def fail(self, op, message):
        targets = self.op_names if op is None else [op]
        for name in targets:
            self.op_errors[name].append(message)

    def expect(self, op, condition, message):
        if not condition:
            self.fail(op, message)

    @property
    def failed_ops(self):
        return [name for name, errs in self.op_errors.items() if errs]

    def messages(self):
        return [f"{op}: {msg}" for op, errs in self.op_errors.items() for msg in errs]


def reference_mismatches(observed_digests, observed_diags, recorded):
    """Names whose digest differs bit-exactly, or whose diagnostics differ
    beyond RTOL/ATOL, from the recorded reference."""
    bad = []
    for key, value in recorded.get("digests", {}).items():
        if observed_digests.get(key) != value:
            bad.append(f"digest {key}")
    for key, value in recorded.get("diagnostics", {}).items():
        got = observed_diags.get(key)
        if got is None or len(got) != len(value) or not np.allclose(
            np.asarray(got, dtype=float), np.asarray(value, dtype=float),
            rtol=RTOL, atol=ATOL, equal_nan=True,
        ):
            bad.append(f"diagnostic {key}")
    return bad


def apply_reference(check, workload, seed, reference):
    """Fail every operation owning a mismatching name (names are prefixed by
    their operation, `<op>/...`) when seed is the recorded one."""
    recorded = reference.get(workload)
    if recorded is None or seed != recorded["seed"]:
        return
    for name in reference_mismatches(check.digests, check.diagnostics, recorded):
        op = name.split(" ", 1)[1].split("/", 1)[0]
        check.fail(op if op in check.op_errors else None, f"reference mismatch: {name}")


def load_reference():
    with open(REFERENCE_PATH) as handle:
        return json.load(handle)


# ---------------------------------------------------------------------------
# ensemble_relay

class EnsembleRelay:
    """Many relay seeds of 1e5 steps through run_sa, then the ensemble
    residual-decay study, per-seed martingale diagnostics and graph support."""

    name = "ensemble_relay"
    why = "run_sa with fields.evaluate inside does most of the work and io none; seed batching must show here"
    n_seeds = 10
    n_steps = 100_000

    def make_inputs(self, seed, work_dir):
        rng = random.Random(f"{self.name}:{seed}")
        config = {
            "field": "relay",
            "x0": [0.5],
            "schedule": _SCHEDULE,
            "noise": {"kind": "gaussian", "scale": 0.1},
            "n_steps": self.n_steps,
            "seeds": _draw_seeds(rng, self.n_seeds),
            "measures": {"checkpoints": [1_000, 10_000, 100_000], "eps": [0.01, 0.05, 0.1]},
        }
        path = os.path.join(work_dir, "relay_ensemble.json")
        _write_json(path, config)
        return {"config_path": path}

    def op_names(self, ctx):
        return [f"seed{s}" for s in ctx["config"].seeds]

    def run_rep(self, ctx, out_dir, mark=no_mark):
        cfg, field = ctx["config"], ctx["field"]
        result = {"errors": {}, "traces": {}, "support": {}, "martingale": {}}
        for seed in cfg.seeds:
            try:
                trace = dl.run_sa(field, cfg.x0, cfg.schedule, cfg.noise, cfg.n_steps, seed,
                                  blowup_bound=cfg.blowup_bound)
            except DriftlabError as exc:
                result["errors"][f"seed{seed}"] = repr(exc)
                continue
            result["traces"][seed] = trace
            measure = dl.averaged_measure(trace, trace.n_steps)
            family = dl.TestFunctionFamily.from_box(measure.box_states)
            diag = dl.martingale_diagnostic(trace, family)
            n0 = trace.n_steps // 2
            result["martingale"][seed] = (
                diag.tail_oscillation(n0).max(axis=1),
                4.0 * np.sqrt(diag.tail_quadratic_variation(n0)),
            )
            result["support"][seed] = [
                dl.graph_support_fraction(measure, field, eps) for eps in cfg.measures.eps
            ]
            if len(result["traces"]) == 1:
                result["family"] = family
            mark()
        traces = list(result["traces"].values())
        if traces:
            result["decay"] = dl.residual_decay_study(
                traces, result["family"], cfg.measures.checkpoints
            )
        return result

    def fingerprint(self, ctx, result, out_dir):
        parts = [
            _sha256_bytes(t.states, t.drifts, t.noises, t.steps) for t in result["traces"].values()
        ]
        parts += [repr(sorted(result["errors"].items()))]
        if "decay" in result:
            parts.append(_sha256_bytes(result["decay"].per_trace))
        for seed, rows in result["support"].items():
            parts.append(repr([(s.filippov, s.krasovskii) for s in rows]))
            parts.append(_sha256_bytes(*result["martingale"][seed]))
        return hashlib.sha256("|".join(parts).encode()).hexdigest()

    def check(self, ctx, result, out_dir):
        cfg = ctx["config"]
        check = Check(self.op_names(ctx))
        for op, err in result["errors"].items():
            check.fail(op, f"raised {err}")
        if "decay" not in result:
            check.fail(None, "no residual decay table")
        else:
            per_trace = result["decay"].per_trace
            check.expect(None, bool(np.all(np.isfinite(per_trace))), "non-finite decay residuals")
        for row, (seed, trace) in enumerate(result["traces"].items()):
            op = f"seed{seed}"
            check.expect(op, trace.n_steps == cfg.n_steps, "wrong step count")
            check.expect(op, replay_ok(trace), "replay residual is not 0")
            supports = result["support"][seed]
            for s in supports:
                check.expect(op, 0.0 <= s.filippov <= s.krasovskii + 1e-15 <= 1.0 + 1e-12,
                             f"support fractions out of order: {s}")
            osc, bound = result["martingale"][seed]
            check.expect(op, bool(np.all(np.isfinite(osc)) and np.all(np.isfinite(bound))),
                         "non-finite martingale diagnostic")
            check.digests[f"{op}/trace"] = _sha256_bytes(
                trace.states, trace.drifts, trace.noises, trace.steps
            )
            check.diagnostics[f"{op}/support"] = [
                v for s in supports for v in (s.filippov, s.krasovskii)
            ]
            check.diagnostics[f"{op}/martingale"] = list(osc) + list(bound)
            if "decay" in result:
                check.diagnostics[f"{op}/residual_decay"] = list(result["decay"].per_trace[row])
        within = sum(
            bool(np.all(osc <= bound + 1e-300)) for osc, bound in result["martingale"].values()
        )
        check.notes.append(f"martingale tail within 4*sqrt(QV) for {within}/{len(cfg.seeds)} seeds")
        return check


# ---------------------------------------------------------------------------
# pipeline_example1

class PipelineExample1:
    """`driftlab simulate` then `driftlab measures` on the example1 config."""

    name = "pipeline_example1"
    why = "trace CSV write/read-back, tracking and 2-d filippov_map carry it; run_sa is about a fifth"
    n_seeds = 3

    def make_inputs(self, seed, work_dir):
        rng = random.Random(f"{self.name}:{seed}")
        config = {
            "field": "example1",
            "x0": [0.0, 1.0],
            "schedule": _SCHEDULE,
            "noise": {"kind": "gaussian", "scale": 0.1},
            "n_steps": 20_000,
            "seeds": [1, 2, 3],
            "tracking": {"T": 1.0, "n_windows": 5, "dt": 0.001},
            "measures": {"checkpoints": [2_000, 20_000], "eps": [0.01, 0.05, 0.1]},
            "integrate": {"t_end": 3.0, "dt": 0.001},
        }
        path = os.path.join(work_dir, "example1.json")
        _write_json(path, config)
        return {"config_path": path, "seeds": _draw_seeds(rng, self.n_seeds)}

    def op_names(self, ctx):
        return [f"seed{s}" for s in ctx["seeds"]]

    def run_rep(self, ctx, out_dir, mark=no_mark):
        common = ["--config", ctx["config_path"], "--seeds", ",".join(map(str, ctx["seeds"])),
                  "--out", out_dir, "--quiet"]
        with marking_seeds(mark):
            simulate, _ = _cli(["simulate"] + common)
        measures, _ = _cli(["measures"] + common)
        return {"exit_codes": (simulate, measures)}

    def fingerprint(self, ctx, result, out_dir):
        return f"{result['exit_codes']}|{tree_digest(out_dir)}"

    def check(self, ctx, result, out_dir):
        check = Check(self.op_names(ctx))
        cfg, field = ctx["config"], ctx["field"]
        if result["exit_codes"] != (0, 0):
            check.fail(None, f"exit codes {result['exit_codes']}")
            return check
        with open(os.path.join(out_dir, "summary.json")) as handle:
            summary = json.load(handle)
        by_seed = {row["seed"]: row for row in summary["seeds"]}
        for seed in ctx["seeds"]:
            op = f"seed{seed}"
            row = by_seed.get(seed)
            if row is None or row["diverged"]:
                check.fail(op, "missing or diverged in summary.json")
                continue
            errors = row["tracking_errors"] or []
            check.expect(op, len(errors) == cfg.tracking.n_windows
                         and all(math.isfinite(e) for e in errors), "tracking errors missing")
            trace_path = os.path.join(out_dir, f"trace_seed{seed}.csv")
            trace = dl.io.read_trace_csv(trace_path, seed=seed, field_name=field.name)
            check.expect(op, trace.n_steps == cfg.n_steps, "wrong trace length")
            check.expect(op, replay_ok(trace), "replay residual is not 0")
            residuals = _csv_column(os.path.join(out_dir, f"residuals_seed{seed}.csv"), "residual")
            support = _csv_rows(os.path.join(out_dir, f"support_seed{seed}.csv"))
            fractions = [float(r[k]) for r in support
                         for k in ("filippov_fraction", "krasovskii_fraction")]
            check.expect(op, all(math.isfinite(r) for r in residuals) and residuals,
                         "residuals missing")
            check.expect(op, len(support) == len(cfg.measures.eps)
                         and all(0.0 <= f <= 1.0 + 1e-12 for f in fractions),
                         "support fractions missing or out of [0, 1]")
            check.digests[f"{op}/trace_csv"] = _sha256_file(trace_path)
            check.diagnostics[f"{op}/tracking_errors"] = errors
            check.diagnostics[f"{op}/residuals"] = residuals
            check.diagnostics[f"{op}/support"] = fractions
        return check


def _csv_rows(path):
    with open(path) as handle:
        lines = handle.read().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def _csv_column(path, name):
    return [float(row[name]) for row in _csv_rows(path)]


# ---------------------------------------------------------------------------
# study_spurious

class StudySpurious:
    """`driftlab study` on the spurious-equilibrium config: density arm
    against the zero-noise arm that sits on the guard every step."""

    name = "study_spurious"
    why = "the headline dichotomy; the zero-noise arm takes the boundary-value path of evaluate every step"
    n_seeds = 5
    arms = ("density", "atomic")

    def make_inputs(self, seed, work_dir):
        rng = random.Random(f"{self.name}:{seed}")
        config = {
            "field": "spurious_equilibrium",
            "x0": [0.0],
            "schedule": _SCHEDULE,
            "noise": {"kind": "gaussian", "scale": 0.1},
            "n_steps": 10_000,
            "seeds": [1, 2, 3, 4, 5],
            "tracking": {"T": 1.0, "n_windows": 3, "dt": 0.001},
            "measures": {"checkpoints": [1_000, 10_000], "eps": [0.05]},
            "integrate": {"t_end": 2.0, "dt": 0.001},
        }
        path = os.path.join(work_dir, "spurious_study.json")
        _write_json(path, config)
        return {"config_path": path, "seeds": _draw_seeds(rng, self.n_seeds)}

    def op_names(self, ctx):
        return [f"{arm}.seed{s}" for arm in self.arms for s in ctx["seeds"]]

    def run_rep(self, ctx, out_dir, mark=no_mark):
        with marking_seeds(mark):
            code, _ = _cli(["study", "--config", ctx["config_path"],
                            "--seeds", ",".join(map(str, ctx["seeds"])), "--out", out_dir,
                            "--quiet"])
        return {"exit_code": code}

    def fingerprint(self, ctx, result, out_dir):
        return f"{result['exit_code']}|{tree_digest(out_dir)}"

    def check(self, ctx, result, out_dir):
        check = Check(self.op_names(ctx))
        cfg, field = ctx["config"], ctx["field"]
        if result["exit_code"] != 0:
            check.fail(None, f"exit code {result['exit_code']}")
            return check
        with open(os.path.join(out_dir, "study_summary.json")) as handle:
            table = {row["arm"]: row for row in json.load(handle)["table"]}
        for arm in self.arms:
            ops = [f"{arm}.seed{s}" for s in ctx["seeds"]]
            row = table.get(arm, {})
            if arm == "density":
                ok = row.get("escape_fraction") == 1.0
                expect = "escape fraction 1"
            else:
                ok = row.get("escape_fraction") == 0.0 and row.get("final_norm_median") == 0.0
                expect = "escape fraction 0 and final norm 0"
            for op in ops:
                check.expect(op, ok, f"{arm} arm: expected {expect}, got {row}")
            hits = []
            for seed, op in zip(ctx["seeds"], ops):
                path = os.path.join(out_dir, f"arm_{arm}", f"trace_seed{seed}.csv")
                trace = dl.io.read_trace_csv(path, seed=seed, field_name=field.name)
                check.expect(op, trace.n_steps == cfg.n_steps, "wrong trace length")
                check.expect(op, replay_ok(trace), "replay residual is not 0")
                hits.append(guard_hits(field, trace.states) / trace.n_steps)
                check.digests[f"{op}/trace_csv"] = _sha256_file(path)
            check.diagnostics[f"{ops[0]}/table_{arm}"] = [
                float(row.get(k, float("nan")))
                for k in ("escape_fraction", "final_norm_median", "filippov_fraction_median",
                          "krasovskii_fraction_median", "tracking_first_median",
                          "tracking_last_median")
            ]
            check.notes.append(
                f"sa.guard_hit_frac {arm} arm: {float(np.mean(hits)):.6g} "
                f"(mean over {len(hits)} traces of {cfg.n_steps} steps)"
            )
        return check


# ---------------------------------------------------------------------------
# integrate_corner

CORNER_FIELD = {
    "dimension": 2,
    "guards": [{"type": "coordinate", "index": 0}, {"type": "coordinate", "index": 1}],
    "pieces": {
        p: {"type": "constant", "value": [-1.0 if p[0] == "+" else 1.0,
                                          -1.0 if p[1] == "+" else 1.0]}
        for p in ("++", "+-", "-+", "--")
    },
    "boundary_values": {"00": [0.0, 0.0]},
}


def corner_hulls(point):
    """Expected (Filippov, Krasovskii) vertex sets of h(x) = -sign(x) at point."""
    choices = [[-1.0 if c > 0 else 1.0] if c != 0 else [-1.0, 1.0] for c in point]
    fil = {(a, b) for a in choices[0] for b in choices[1]}
    kra = fil | {(0.0, 0.0)} if all(c == 0 for c in point) else fil
    return fil, kra


class IntegrateCorner:
    """`driftlab integrate` on h(x) = -sign(x) in 2-d from an off-surface x0
    into the corner at the origin, then `driftlab maps` at interior,
    surface and corner points."""

    name = "integrate_corner"
    why = "hull projection at a corner carries integrate_filippov; no SA and one small CSV"
    t_end = 3.0
    dt = 1e-3
    n_interior = 4
    n_surface = 4

    def make_inputs(self, seed, work_dir):
        rng = random.Random(f"{self.name}:{seed}")

        def coord(lo, hi):
            return rng.choice((-1.0, 1.0)) * round(rng.uniform(lo, hi), 6)

        # |x0|_inf = 1 fixes the arrival time at the corner (t = 1), so every
        # seed spends the same time there and costs the same
        x0 = [rng.choice((-1.0, 1.0)), coord(0.3, 0.85)]
        if rng.random() < 0.5:
            x0.reverse()
        points = [[coord(0.1, 1.5), coord(0.1, 1.5)] for _ in range(self.n_interior)]
        for _ in range(self.n_surface):
            p = [coord(0.1, 1.5), 0.0]
            points.append(p if rng.random() < 0.5 else p[::-1])
        points.append([0.0, 0.0])
        config = {
            "field": CORNER_FIELD,
            "x0": x0,
            "schedule": _SCHEDULE,
            "noise": {"kind": "zero", "scale": 0.0},
            "n_steps": 1_000,
            "seeds": [1],
            "integrate": {"t_end": self.t_end, "dt": self.dt},
        }
        path = os.path.join(work_dir, "corner.json")
        _write_json(path, config)
        return {"config_path": path, "points": points}

    def op_names(self, ctx):
        return ["integrate"] + [f"maps{i}" for i in range(len(ctx["points"]))]

    def run_rep(self, ctx, out_dir, mark=no_mark):
        integrate, _ = _cli(["integrate", "--config", ctx["config_path"], "--out", out_dir,
                             "--quiet"])
        mark()
        argv = ["maps", "--config", ctx["config_path"]]
        for p in ctx["points"]:
            argv.append("--point=" + ",".join(repr(c) for c in p))
        maps, text = _cli(argv)
        return {"exit_codes": (integrate, maps), "maps_text": text}

    def fingerprint(self, ctx, result, out_dir):
        return f"{result['exit_codes']}|{result['maps_text']}|{tree_digest(out_dir)}"

    def check(self, ctx, result, out_dir):
        check = Check(self.op_names(ctx))
        code_integrate, code_maps = result["exit_codes"]
        if code_integrate != 0:
            check.fail("integrate", f"exit code {code_integrate}")
        else:
            path = os.path.join(out_dir, "trajectory.csv")
            rows = _csv_rows(path)
            final = np.array([float(rows[-1]["x_1"]), float(rows[-1]["x_2"])])
            check.expect("integrate", abs(float(rows[-1]["t"]) - self.t_end) <= 1e-9,
                         "trajectory does not reach t_end")
            check.expect("integrate", float(np.linalg.norm(final)) <= 1e-8,
                         f"trajectory ends at {final.tolist()}, not at the origin")
            check.digests["integrate/trajectory_csv"] = _sha256_file(path)
            check.diagnostics["integrate/final_point"] = final.tolist()
        blocks = _parse_maps(result["maps_text"]) if code_maps == 0 else []
        for i, point in enumerate(ctx["points"]):
            op = f"maps{i}"
            if i >= len(blocks):
                check.fail(op, f"no maps output (exit code {code_maps})")
                continue
            fil, kra = corner_hulls(point)
            got_fil, got_kra = blocks[i]
            check.expect(op, got_fil == fil, f"F at {point}: {sorted(got_fil)} != {sorted(fil)}")
            check.expect(op, got_kra == kra, f"K at {point}: {sorted(got_kra)} != {sorted(kra)}")
        return check


def _parse_maps(text):
    """[(F vertex set, K vertex set)] per queried point, in query order."""
    blocks = []
    fil = None
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("F vertices:"):
            fil = _vertex_set(line)
        elif line.startswith("K vertices:"):
            blocks.append((fil, _vertex_set(line)))
    return blocks


def _vertex_set(line):
    body = line.split(":", 1)[1]
    return {tuple(ast.literal_eval(v.strip())) for v in body.split(";")}


WORKLOADS = {w.name: w for w in (EnsembleRelay(), PipelineExample1(), StudySpurious(),
                                 IntegrateCorner())}


def prepare(inputs):
    """Load the generated config and build its field."""
    config = dl.load_config(inputs["config_path"])
    return {**inputs, "config": config, "field": config.build_field()}


def setup(name, seed, work_dir):
    """Everything a run pays before its first work call: input generation,
    config loading and field construction (imports happen at module load)."""
    os.makedirs(work_dir, exist_ok=True)
    return prepare(WORKLOADS[name].make_inputs(seed, work_dir))
