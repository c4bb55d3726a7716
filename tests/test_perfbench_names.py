"""Every driftlab name the benchmark relies on must exist.

perfbench/tracing.py resolves its ENTRY_POINTS, and its hooks read their
arguments by name, only in a traced run; perfbench/workloads.py closes a
stage per seed by replacing experiments.run_single_seed, and the benchmark
scripts reach the package as `dl.<name>`.  The benchmark's own tests are not
part of this suite, so a rename inside driftlab would otherwise break only
the benchmark.  The benchmark files are parsed; only tracing.py, which
imports nothing from perfbench, is loaded, to run its guard_hits counter.
The other way round, every name driftlab exports must have a user outside
the tests: the package itself, a demo or the benchmark.
"""

import ast
import importlib
import importlib.util
import inspect
import pathlib

import numpy as np

import driftlab as dl

ROOT = pathlib.Path(__file__).parent.parent
PERFBENCH = ROOT / "perfbench"
TRACING = PERFBENCH / "tracing.py"


def _entry_points():
    tree = ast.parse(TRACING.read_text(), filename=str(TRACING))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "ENTRY_POINTS" for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracing.py defines no ENTRY_POINTS")


def test_traced_entry_points_resolve():
    entries = _entry_points()
    assert entries
    missing = []
    for _, module, path in entries:
        obj = importlib.import_module(f"driftlab.{module}")
        for attr in path.split("."):
            obj = getattr(obj, attr, None)
        if obj is None:
            missing.append(f"driftlab.{module}.{path}")
    assert not missing, f"traced names missing: {missing}"


def _hook_arguments():
    """{traced prefix: names the hook reads as args["..."]} from Tracer."""
    tree = ast.parse(TRACING.read_text(), filename=str(TRACING))
    tracer = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "Tracer")
    methods = {n.name: n for n in tracer.body if isinstance(n, ast.FunctionDef)}
    hooks = next(
        node.value
        for node in ast.walk(methods["__init__"])
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Attribute) and t.attr == "_hooks" for t in node.targets)
    )
    out = {}
    for key, value in zip(hooks.keys, hooks.values):
        method = methods[value.attr]
        out[ast.literal_eval(key)] = {
            node.slice.value
            for node in ast.walk(method)
            if isinstance(node, ast.Subscript)
            and isinstance(node.value, ast.Name)
            and node.value.id == "args"
            and isinstance(node.slice, ast.Constant)
        }
    return out


def test_traced_hook_arguments_are_parameters():
    entries = {prefix: (module, path) for prefix, module, path in _entry_points()}
    hooks = _hook_arguments()
    assert hooks
    missing = []
    for prefix, names in hooks.items():
        module, path = entries[prefix]
        obj = importlib.import_module(f"driftlab.{module}")
        for attr in path.split("."):
            obj = getattr(obj, attr)
        params = inspect.signature(obj).parameters
        missing += [f"{prefix}: {name}" for name in sorted(names) if name not in params]
    assert not missing, f"hook arguments that are not parameters: {missing}"


def test_run_single_seed_is_called_through_the_module(tmp_path, monkeypatch):
    # the benchmark closes a stage per seed by replacing this module attribute
    from driftlab import experiments
    from driftlab.config import config_from_dict

    calls = []
    original = experiments.run_single_seed

    def counting(config, field, seed, out_dir):
        calls.append(seed)
        return original(config, field, seed, out_dir)

    monkeypatch.setattr(experiments, "run_single_seed", counting)
    cfg = config_from_dict(
        {
            "field": "spurious_equilibrium",
            "x0": [0.0],
            "schedule": {"kind": "power", "a0": 1.0, "gamma": 0.75},
            "noise": {"kind": "gaussian", "scale": 0.1},
            "n_steps": 200,
            "seeds": [1, 2],
            "tracking": {"T": 0.5, "n_windows": 1, "dt": 1e-2},
            "measures": {"checkpoints": [200], "eps": [0.05]},
            "output_dir": str(tmp_path / "out"),
        }
    )
    experiments.run_experiment(cfg, out_dir=str(tmp_path / "run"))
    assert calls == [1, 2]
    calls.clear()
    experiments.compare_noise_study(cfg, out_dir=str(tmp_path / "study"))
    # the zero-noise atomic arm runs its first seed only and copies it to seed 2
    assert calls == [1, 2, 1]


def _dl_chains():
    """Every attribute chain rooted at the name dl in perfbench/*.py, e.g.
    "TestFunctionFamily.from_box" for dl.TestFunctionFamily.from_box."""
    chains = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            parts = []
            while isinstance(node, ast.Attribute):
                parts.append(node.attr)
                node = node.value
            if parts and isinstance(node, ast.Name) and node.id == "dl":
                chains.add(".".join(reversed(parts)))
    return chains


def test_dl_attribute_chains_resolve():
    chains = _dl_chains()
    assert {"TestFunctionFamily.from_box", "io.read_trace_csv", "run_sa"} <= chains
    missing = []
    for chain in sorted(chains):
        obj = dl
        for attr in chain.split("."):
            obj = getattr(obj, attr, None)
        if obj is None:
            missing.append(f"dl.{chain}")
    assert not missing, f"names perfbench uses that driftlab lacks: {missing}"


def test_guard_hits_runs_on_a_relay_trace():
    # the untraced study_spurious output check counts guard hits with it
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    relay = dl.builtin_field("relay")
    trace = dl.run_sa(relay, [0.0], dl.StepsizeSchedule("constant", a0=0.25),
                      dl.NoiseModel("rademacher", 0.25), 50, seed=1)
    hits = tracing.guard_hits(relay, trace.states)
    assert hits == np.count_nonzero(trace.states[:-1, 0] == 0.0) > 0


def _names_used_outside_tests():
    """Every Name and Attribute name in src/driftlab outside __init__.py, in
    demos/ and in perfbench/, and the object each ENTRY_POINTS path starts at."""
    files = [p for p in sorted((ROOT / "src" / "driftlab").glob("*.py")) if p.name != "__init__.py"]
    files += sorted((ROOT / "demos").glob("*.py")) + sorted(PERFBENCH.glob("*.py"))
    used = {path.split(".")[0] for _, _, path in _entry_points()}
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def test_every_export_is_used_outside_the_tests():
    exported = {name for name in dl.__all__ if not inspect.ismodule(getattr(dl, name))}
    assert {"run_sa", "ConvexVelocitySet"} <= exported
    unused = sorted(exported - _names_used_outside_tests())
    assert not unused, f"exported names that only the tests use: {unused}"
