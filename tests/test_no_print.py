"""Library code keeps no print: only the command line writes to stdout."""

import ast
import pathlib

import driftlab

_PACKAGE = pathlib.Path(driftlab.__file__).parent


def _print_calls(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "print"
    ]


def test_only_the_cli_prints():
    sources = sorted(_PACKAGE.glob("*.py"))
    assert any(path.name == "cli.py" for path in sources)
    found = [
        f"{path.name}:{line}"
        for path in sources
        if path.name != "cli.py"
        for line in _print_calls(path)
    ]
    assert not found, f"print calls outside cli.py: {found}"
