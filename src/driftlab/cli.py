"""Command-line entry point.

Subcommands: simulate (SA runs), integrate (inclusion only), maps (print
F/K hulls at query points), measures (recompute diagnostics from existing
trace CSVs), study (noise dichotomy comparison); each takes --config and
only the flags it reads.  Exit codes: 0 ok, 2 config error (also a bad
--seeds, maps --point or --tol), 3 diverged iterate, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import io as dio
from .config import check_seeds, load_config
from .errors import ConfigInvalid, DivergedIterate, DriftlabError, IoFailure
from .experiments import compare_noise_study, run_experiment, seed_paths, write_seed_diagnostics
from .fields import DEFAULT_RADIUS_TOL, filippov_map, krasovskii_map
from .inclusion import integrate_filippov

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3
EXIT_IO = 4


def _parse_seeds(text):
    if text is None:
        return None
    try:
        return check_seeds([int(s) for s in text.split(",") if s.strip()], "--seeds")
    except ValueError as exc:
        raise ConfigInvalid(f"--seeds: {exc}") from exc


def _parse_point(text, dimension):
    try:
        point = np.array([float(v) for v in text.split(",")])
    except ValueError as exc:
        raise ConfigInvalid(f"--point {text!r}: {exc}") from exc
    if point.size != dimension or not np.all(np.isfinite(point)):
        raise ConfigInvalid(f"--point {text!r}: the field needs {dimension} finite coordinates")
    return point


_FLAGS = {  # a command takes --config and only the flags its handler reads
    "out": dict(help="output directory override"),
    "seeds": dict(help="comma-separated seed override"),
    "quiet": dict(action="store_true", help="suppress progress output"),
    "point": dict(action="append", default=[],
                  help="query point as comma-separated coordinates (repeatable)"),
    "tol": dict(type=float, default=DEFAULT_RADIUS_TOL, help="adjacency radius"),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="driftlab",
        description="stochastic approximation with discontinuous drift: "
        "simulation, inclusion integration, and occupation-measure diagnostics",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    runs = ("out", "seeds", "quiet")
    for name, summary, flags in (
        ("simulate", "run the stochastic approximation pipeline over seeds", runs),
        ("integrate", "integrate the differential inclusion only", ("out", "quiet")),
        ("maps", "print Filippov/Krasovskii hulls at query points", ("point", "tol")),
        ("measures", "recompute measure diagnostics from existing trace CSVs", runs),
        ("study", "compare density-noise and atomic-noise arms", runs),
    ):
        p = sub.add_parser(name, help=summary)
        p.add_argument("--config", required=True, help="experiment config JSON")
        for flag in flags:
            p.add_argument(f"--{flag}", **_FLAGS[flag])
    return parser


def _cmd_simulate(config, args):
    bundle = run_experiment(config, out_dir=args.out, seeds=_parse_seeds(args.seeds))
    if not args.quiet:
        status = "DIVERGED" if bundle.any_diverged else "ok"
        print(f"[driftlab] wrote {bundle.out_dir} ({status})")
    return EXIT_DIVERGED if bundle.any_diverged else EXIT_OK


def _cmd_integrate(config, args):
    field = config.build_field()
    traj = integrate_filippov(field, config.x0, config.integrate.t_end, config.integrate.dt)
    out_dir = args.out or config.output_dir
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "trajectory.csv")
    dio.write_trajectory_csv(path, traj)
    if not args.quiet:
        final = ", ".join(f"{v:.6g}" for v in traj.points[-1])
        print(f"[driftlab] trajectory -> {path} (final point [{final}])")
    return EXIT_OK


def _cmd_maps(config, args):
    if not (math.isfinite(args.tol) and args.tol > 0):
        raise ConfigInvalid(f"--tol {args.tol!r}: must be a finite number > 0")
    field = config.build_field()
    points = [_parse_point(p, field.dimension) for p in args.point] or [config.x0]
    for x in points:
        fil = filippov_map(field, x, args.tol)
        kra = krasovskii_map(field, x, args.tol)
        coord = ", ".join(f"{v:g}" for v in x)
        print(f"x = ({coord})")
        print("  F vertices: " + "; ".join(str(v.tolist()) for v in fil.vertices))
        print("  K vertices: " + "; ".join(str(v.tolist()) for v in kra.vertices))
    return EXIT_OK


def _cmd_measures(config, args):
    out_dir = args.out or config.output_dir
    seeds = _parse_seeds(args.seeds) or config.seeds
    field = config.build_field()
    for seed in seeds:
        paths = seed_paths(out_dir, seed)
        trace = dio.read_trace_csv(paths["trace"], seed=seed, field_name=field.name)
        # a shorter trace clamps the checkpoints; clamped duplicates collapse
        checkpoints = list(dict.fromkeys(min(c, trace.n_steps) for c in config.measures.checkpoints))
        write_seed_diagnostics(trace, field, checkpoints, config.measures.eps, paths)
        if not args.quiet:
            print(f"[driftlab] recomputed diagnostics for seed {seed}")
    return EXIT_OK


def _cmd_study(config, args):
    result = compare_noise_study(config, out_dir=args.out, seeds=_parse_seeds(args.seeds))
    if not args.quiet:
        for row in result.table:
            print(
                f"[driftlab] arm={row['arm']} noise={row['noise_kind']} "
                f"escape={row['escape_fraction']:.2f} "
                f"F-frac={row['filippov_fraction_median']:.3f} "
                f"K-frac={row['krasovskii_fraction_median']:.3f}"
            )
        for flag in result.flags:
            print(f"[driftlab] note: {flag}")
    return EXIT_DIVERGED if result.any_diverged else EXIT_OK


_COMMANDS = {
    "simulate": _cmd_simulate,
    "integrate": _cmd_integrate,
    "maps": _cmd_maps,
    "measures": _cmd_measures,
    "study": _cmd_study,
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        return _COMMANDS[args.command](config, args)
    except ConfigInvalid as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DivergedIterate as exc:
        print(f"diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except IoFailure as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except DriftlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
