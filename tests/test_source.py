"""The package's modules and the tests import only names they use."""

import ast
import pathlib

import pytest

TESTS = pathlib.Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "greedycert"


def unused_imports(source: str) -> list[str]:
    """The names a module imports and never reads, a name listed in its __all__ counting
    as read."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                            and node.module != "__future__"):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__"
                                                 for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_unused_imports_are_found():
    source = ("import os\nimport numpy as np\nfrom typing import Iterable, Sequence\n"
              "from . import __version__\n__all__ = ['__version__']\nx: Sequence = np.ones(1)\n")
    assert unused_imports(source) == ["os (line 1)", "Iterable (line 3)"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py")),
                         ids=lambda p: p.name)  # no test file shares a module's name
def test_modules_use_every_import(path):
    assert unused_imports(path.read_text()) == []
