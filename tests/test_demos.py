"""Every demo script runs, and every driftlab name it uses exists.

Each demo is run to completion from a copy in a temporary directory (demo
02 writes `out/` beside its file), so a change that breaks one fails here.
Their sources are parsed too, so a removed or renamed public name is
reported by name.
"""

import ast
import importlib
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _driftlab_uses(tree):
    """(module, name) pairs for `alias.name` on an imported driftlab module
    and for `from driftlab... import name`."""
    aliases = {}
    uses = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for item in node.names:
                if item.name.split(".")[0] == "driftlab":
                    aliases[item.asname or item.name] = item.name
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "driftlab":
            uses += [(node.module, item.name) for item in node.names]
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in aliases
        ):
            uses.append((aliases[node.value.id], node.attr))
    return uses


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_names_resolve(demo):
    uses = _driftlab_uses(ast.parse(demo.read_text(), filename=str(demo)))
    assert uses, f"{demo.name} uses no driftlab name"
    missing = [
        f"{module}.{name}"
        for module, name in uses
        if not hasattr(importlib.import_module(module), name)
    ]
    assert not missing, f"{demo.name} uses missing names: {missing}"


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    script = tmp_path / demo.name
    shutil.copy(demo, script)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(script)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120, check=False,
    )
    assert proc.returncode == 0, f"{demo.name} exited {proc.returncode}:\n{proc.stderr}"
