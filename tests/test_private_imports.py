"""A module of the package imports a sibling's private name only on purpose:
the names below are the whole list, so a new one has to be added here."""

import ast
import pathlib

import driftlab

_PACKAGE = pathlib.Path(driftlab.__file__).parent
_SHARED_PRIVATE = {"_is_integer", "_read_only", "_row_norms", "_row_sums"}


def _private_imports(path):
    """(name, sibling) for each _-prefixed name that path imports from
    another module of the package."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return {
        (alias.name, node.module)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "driftlab")
        for alias in node.names
        if alias.name.startswith("_")
    }


def test_private_names_imported_across_modules():
    found = {
        path.name: sorted(_private_imports(path))
        for path in sorted(_PACKAGE.glob("*.py"))
        if _private_imports(path)
    }
    names = {name for pairs in found.values() for name, _ in pairs}
    assert names == _SHARED_PRIVATE, f"private names imported from a sibling module: {found}"
