"""Every driftlab name a demo script uses must exist.

The demos are not run here (together they take tens of seconds); their
sources are parsed, so removing or renaming a public name cannot silently
break one.
"""

import ast
import importlib
import pathlib

import pytest

DEMOS = sorted((pathlib.Path(__file__).parent.parent / "demos").glob("*.py"))


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
