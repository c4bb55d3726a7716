"""Tests of the benchmark itself: checks, input generation, metric names.

Run with `python3 -m pytest -q perfbench`.
"""

import json
import os
import shutil
import subprocess
import sys

import bootstrap

bootstrap.prepare()

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402
from harness import END_TO_END, PER_LAYER  # noqa: E402

BENCHMARK = json.loads((bootstrap.ROOT / "BENCHMARK.json").read_text())
RUN = str(bootstrap.ROOT / "perfbench" / "run.py")


def _small_example1(tmp_path):
    """pipeline_example1 inputs shrunk to 2000 steps so a repetition is quick."""
    workload = workloads.WORKLOADS["pipeline_example1"]
    tmp_path.mkdir()
    inputs = workload.make_inputs(3, str(tmp_path))
    with open(inputs["config_path"]) as handle:
        config = json.load(handle)
    config.update(n_steps=2000, measures={"checkpoints": [200, 2000], "eps": [0.05]})
    with open(inputs["config_path"], "w") as handle:
        json.dump(config, handle)
    inputs["seeds"] = inputs["seeds"][:1]
    return workload, workloads.prepare(inputs)


def test_check_fails_on_corrupted_trace_in_memory(tmp_path):
    workload = workloads.WORKLOADS["ensemble_relay"]
    ctx = workloads.setup(workload.name, 5, str(tmp_path))
    ctx["config"].n_steps = 2000
    ctx["config"].measures.checkpoints = [100, 2000]
    result = workload.run_rep(ctx, str(tmp_path))
    assert workload.check(ctx, result, str(tmp_path)).failed_ops == []
    seed = ctx["config"].seeds[1]
    result["traces"][seed].states[7, 0] += 1e-12
    assert workload.check(ctx, result, str(tmp_path)).failed_ops == [f"seed{seed}"]


def test_check_fails_on_corrupted_trace_csv(tmp_path):
    workload, ctx = _small_example1(tmp_path / "inputs")
    out = str(tmp_path / "out")
    result = workload.run_rep(ctx, out)
    assert workload.check(ctx, result, out).failed_ops == []
    path = os.path.join(out, f"trace_seed{ctx['seeds'][0]}.csv")
    with open(path) as handle:
        lines = handle.read().splitlines(keepends=True)
    row = lines[10].split(",")
    row[2] = repr(float(row[2]) + 1e-9)  # x_1 of step 9 no longer replays
    lines[10] = ",".join(row)
    with open(path, "w") as handle:
        handle.writelines(lines)
    assert workload.check(ctx, result, out).failed_ops == [f"seed{ctx['seeds'][0]}"]


def test_reference_check_fails_on_wrong_digest_and_drifted_diagnostic():
    reference = workloads.load_reference()
    recorded = reference["ensemble_relay"]
    ops = sorted({key.split("/")[0] for key in recorded["digests"]})

    def check_with(digests, diagnostics):
        check = workloads.Check(ops)
        check.digests, check.diagnostics = digests, diagnostics
        workloads.apply_reference(check, "ensemble_relay", recorded["seed"], reference)
        return check.failed_ops

    digests = dict(recorded["digests"])
    diagnostics = {k: list(v) for k, v in recorded["diagnostics"].items()}
    assert check_with(digests, diagnostics) == []
    wrong = dict(digests, **{f"{ops[0]}/trace": "0" * 64})
    assert check_with(wrong, diagnostics) == [ops[0]]
    key = f"{ops[1]}/support"
    within = dict(diagnostics, **{key: [v * (1 + workloads.RTOL / 10) for v in diagnostics[key]]})
    assert check_with(digests, within) == []
    drifted = dict(diagnostics, **{key: [v + 1e-6 for v in diagnostics[key]]})
    assert check_with(digests, drifted) == [ops[1]]


def _files(directory):
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_input_generation_is_deterministic_per_seed(name, tmp_path):
    workload = workloads.WORKLOADS[name]

    def generate(seed, sub):
        directory = tmp_path / sub
        directory.mkdir()
        inputs = workload.make_inputs(seed, str(directory))
        inputs.pop("config_path")
        return inputs, _files(directory)

    first, again, other = generate(7, "a"), generate(7, "b"), generate(8, "c")
    assert first == again
    assert first != other


def test_metric_lists_match_benchmark_json():
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == list(PER_LAYER)
    assert [(w["name"], w["why"]) for w in BENCHMARK["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()]


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_printed_metric_is_named_in_benchmark_json(trace, section):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", "integrate_corner", "--seed", "2",
         "--seconds", "0.1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=bootstrap.ROOT, timeout=170, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    printed = {k: m["unit"] for k, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in BENCHMARK[section]}


def test_exits_nonzero_without_driftlab_sources(tmp_path):
    shutil.copy(bootstrap.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(bootstrap.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ensemble_relay", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=170, check=False,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_tracer_restores_every_binding():
    import driftlab
    from driftlab import experiments, fields

    before = (driftlab.run_sa, experiments.run_sa, fields.PiecewiseField.evaluate)
    tracer = tracing.Tracer()
    with tracer.installed():
        assert experiments.run_sa is driftlab.run_sa is not before[0]
        field = driftlab.builtin_field("relay")
        field.evaluate(np.array([0.0]))
    assert (driftlab.run_sa, experiments.run_sa, fields.PiecewiseField.evaluate) == before
    assert tracer.stats["fields.evaluate"].calls == 1
