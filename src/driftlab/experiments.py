"""Experiment orchestration: simulate, diagnose, and report.

run_experiment executes one config over its seeds and writes, per seed, the
trace/tracking/residuals/support CSVs plus a summary JSON with a content
hash of the effective config.  compare_noise_study runs the same config
under a density-noise arm and an atomic-noise arm side by side.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

import numpy as np

from . import io as dio
from .errors import DivergedIterate, WindowExceedsTrace
from .measures import (
    TestFunctionFamily,
    averaged_measure,
    checkpoint_residuals,
    graph_distances,
)
from .sa import NoiseModel, run_sa, validate_schedule
from .tracking import tracking_profile

_EXAMPLE1_NOTE = (
    "example1 interpretation: on y=0 the tangent convex combination of [1,-1] "
    "and [1,1] gives sliding velocity [1,0]; the value [1/sqrt(2),0] sometimes "
    "associated with this example is not an element of hull{[1,-1],[1,1]} and "
    "is not used."
)
_WINDOW_NOTE = (
    "window convention: m(n) is the smallest k with t(k) >= t(n) + T."
)


@dataclass
class ExperimentBundle:
    out_dir: str
    summary: dict
    any_diverged: bool


def seed_paths(out_dir, seed):
    return {
        "trace": os.path.join(out_dir, f"trace_seed{seed}.csv"),
        "tracking": os.path.join(out_dir, f"tracking_seed{seed}.csv"),
        "residuals": os.path.join(out_dir, f"residuals_seed{seed}.csv"),
        "support": os.path.join(out_dir, f"support_seed{seed}.csv"),
    }


def write_seed_diagnostics(trace, field, checkpoints, eps_list, paths):
    """Stationarity residuals at the checkpoints and graph-support fractions
    per eps of one trace, with the test family and one graph_distances pass,
    thresholded at every eps, taken from one full-trace measure.  Writes
    paths["residuals"] and paths["support"] and returns the support rows."""
    measure = averaged_measure(trace, trace.n_steps)
    family = TestFunctionFamily.from_box(measure.box_states)
    residual_rows = []
    c_anchor = None
    for n, residuals in zip(checkpoints, checkpoint_residuals(trace, family, checkpoints)):
        t_n = float(trace.times[int(n)])
        if c_anchor is None:
            c_anchor = float(np.max(np.abs(residuals))) * t_n
        for i, r in enumerate(residuals):
            residual_rows.append(
                {
                    "checkpoint_n": int(n),
                    "t_n": t_n,
                    "member_index": i,
                    "residual": float(r),
                    "envelope": c_anchor / t_n,
                }
            )
    distances = graph_distances(measure, field)
    support_rows = []
    for eps in eps_list:
        support = distances.support(eps)
        support_rows.append(
            {
                "eps": float(eps),
                "filippov_fraction": support.filippov,
                "krasovskii_fraction": support.krasovskii,
            }
        )
    dio.write_residuals_csv(paths["residuals"], residual_rows)
    dio.write_support_csv(paths["support"], support_rows)
    return support_rows


def interpretation_flags(field):
    flags = [_WINDOW_NOTE]
    if field.name == "example1":
        flags.append(_EXAMPLE1_NOTE)
    return flags


def run_single_seed(config, field, seed, out_dir):
    """One seed of the pipeline; writes its CSVs and returns its summary.json
    record (seed, diverged, final_state, t_final, tracking_errors, support,
    notes)."""
    paths = seed_paths(out_dir, seed)
    record = dict(
        seed=seed, diverged=False, final_state=None, t_final=None, tracking_errors=None,
        support=[], notes=[],
    )
    try:
        trace = run_sa(
            field,
            config.x0,
            config.schedule,
            config.noise,
            config.n_steps,
            seed,
            blowup_bound=config.blowup_bound,
        )
    except DivergedIterate as exc:
        record["diverged"] = True
        record["notes"].append(str(exc))
        return record
    dio.write_trace_csv(paths["trace"], trace)
    record["final_state"] = trace.states[-1].tolist()
    record["t_final"] = float(trace.times[-1])
    try:
        report = tracking_profile(
            trace,
            field,
            config.tracking.T,
            config.tracking.n_windows,
            config.tracking.dt,
            noise_flag=config.noise.density_flag,
        )
        dio.write_tracking_csv(paths["tracking"], report.to_rows())
        record["tracking_errors"] = [float(e) for e in report.errors]
    except WindowExceedsTrace as exc:
        record["notes"].append(f"tracking skipped: {exc}")
        dio.write_tracking_csv(paths["tracking"], [])
    record["support"] = write_seed_diagnostics(
        trace, field, config.measures.checkpoints, config.measures.eps, paths
    )
    return record


def run_experiment(config, out_dir=None, seeds=None):
    """Execute all seeds of a config and write the summary bundle."""
    out_dir = out_dir or config.output_dir
    seeds = list(seeds) if seeds is not None else list(config.seeds)
    os.makedirs(out_dir, exist_ok=True)
    field = config.build_field()
    schedule_diag = validate_schedule(config.schedule, min(config.n_steps, 100_000))
    with dio.shared_trace_templates():
        records = [run_single_seed(config, field, seed, out_dir) for seed in seeds]
    summary = {
        "config": config.effective_dict(),
        "config_sha256": config.content_hash(),
        "schedule_diagnostics": schedule_diag.to_dict(),
        "schedule_warning": schedule_diag.satisfies_conditions is False,
        "interpretation_flags": interpretation_flags(field),
        "seeds": records,
    }
    dio.write_json(os.path.join(out_dir, "summary.json"), summary)
    any_diverged = any(r["diverged"] for r in records)
    return ExperimentBundle(out_dir=out_dir, summary=summary, any_diverged=any_diverged)


def _arm_noise_models(config):
    """The config's noise serves the arm its density flag selects; the other
    arm gets gaussian noise (at the config's scale, or 0.1 at scale 0) or
    zero noise."""
    noise = config.noise
    if noise.density_flag:
        return {"density": noise, "atomic": NoiseModel(kind="zero", scale=0.0)}
    return {"density": NoiseModel(kind="gaussian", scale=noise.scale or 0.1), "atomic": noise}


@dataclass
class StudyResult:
    out_dir: str
    table: list
    flags: list
    any_diverged: bool


def _median_or_nan(values):
    return float(np.median(values)) if values else float("nan")


def compare_noise_study(config, out_dir=None, seeds=None):
    """The headline dichotomy experiment: identical runs under density noise
    and atomic noise, with side-by-side tracking and graph-support columns."""
    out_dir = out_dir or config.output_dir
    os.makedirs(out_dir, exist_ok=True)
    field = config.build_field()
    arms = _arm_noise_models(config)
    table = []
    any_diverged = False
    with dio.shared_trace_templates():  # the arms share their schedule and n_steps
        bundles = [
            run_experiment(replace(config, noise=noise), os.path.join(out_dir, f"arm_{arm}"), seeds)
            for arm, noise in arms.items()
        ]
    for (arm_name, noise), bundle in zip(arms.items(), bundles):
        any_diverged = any_diverged or bundle.any_diverged
        finals, escapes = [], []
        fil_fracs, kra_fracs = [], []
        first_errs, last_errs = [], []
        for r in bundle.summary["seeds"]:
            if r["diverged"]:
                continue
            final_norm = float(np.linalg.norm(r["final_state"]))
            finals.append(final_norm)
            escapes.append(final_norm >= 0.5 * r["t_final"])
            fil_fracs += [row["filippov_fraction"] for row in r["support"]]
            kra_fracs += [row["krasovskii_fraction"] for row in r["support"]]
            if r["tracking_errors"]:
                first_errs.append(r["tracking_errors"][0])
                last_errs.append(r["tracking_errors"][-1])
        table.append(
            {
                "arm": arm_name,
                "noise_kind": noise.kind,
                "density_flag": noise.density_flag,
                "escape_fraction": float(np.mean(escapes)) if escapes else float("nan"),
                "final_norm_median": _median_or_nan(finals),
                "filippov_fraction_median": _median_or_nan(fil_fracs),
                "krasovskii_fraction_median": _median_or_nan(kra_fracs),
                "tracking_first_median": _median_or_nan(first_errs),
                "tracking_last_median": _median_or_nan(last_errs),
            }
        )
    flags = interpretation_flags(field)
    for arm_name, noise in arms.items():
        if noise is not config.noise:
            flags.append(
                f"arm {arm_name}: {noise.kind} noise at scale {noise.scale:g} substituted "
                f"for the config's {config.noise.kind} noise at scale {config.noise.scale:g}"
            )
    if not field.guards:
        flags.append("no dichotomy (smooth field)")
    header = list(table[0])
    dio.write_table(
        os.path.join(out_dir, "study_comparison.csv"),
        header,
        ([row[k] for k in header] for row in table),
    )
    dio.write_json(
        os.path.join(out_dir, "study_summary.json"),
        {"table": table, "flags": flags, "config_sha256": config.content_hash()},
    )
    return StudyResult(out_dir=out_dir, table=table, flags=flags, any_diverged=any_diverged)

