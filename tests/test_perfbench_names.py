"""Every driftlab attribute the benchmark traces must exist.

perfbench/tracing.py resolves its ENTRY_POINTS only in a traced run, and
the benchmark's own tests are not part of this suite, so a rename inside
driftlab would otherwise break only the traced benchmark.  The file is
parsed, not imported.
"""

import ast
import importlib
import pathlib

TRACING = pathlib.Path(__file__).parent.parent / "perfbench" / "tracing.py"


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
