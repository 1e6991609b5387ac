"""The package's modules and the tests import only names they use, the package writes
files through one writer and JSON through one encoder, and it imports _prune only where
prip_exact prunes."""

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


def calls_where(source: str, matches, kind=ast.Call) -> list[str]:
    """The calls (or other nodes of `kind`) in a module that `matches` accepts, each as its
    enclosing top-level function (or <module>) and line."""
    found = []

    def visit(node, where):
        if isinstance(node, kind) and matches(node):
            found.append(f"{where} (line {node.lineno})")
        for child in ast.iter_child_nodes(node):
            top = where == "<module>" and isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if top else where)

    visit(ast.parse(source), "<module>")
    return found


def call_name(call: ast.Call):
    return getattr(call.func, "id", getattr(call.func, "attr", None))


def write_opens(source: str) -> list[str]:
    """The calls in a module that open a file to write (calls_where): `write_text` and
    `write_bytes`, and `open`, `io.open`, `os.open` or `os.fdopen` with a second argument
    or a mode or flags keyword that is not a string literal free of w, a, x and +."""

    def writes(call):
        name = call_name(call)
        if name in ("write_text", "write_bytes"):
            return True
        modes = call.args[1:2] + [kw.value for kw in call.keywords if kw.arg in ("mode", "flags")]
        return name in ("open", "fdopen") and any(
            not (isinstance(m, ast.Constant) and isinstance(m.value, str)) or set(m.value) & set("wax+")
            for m in modes)

    return calls_where(source, writes)


def test_write_opens_are_found():
    source = ("import io, os\nopen('a')\nopen('a', 'rb', encoding='ascii')\nopen('a', mode='a')\n"
              "def f(p, m):\n    io.open(p, m)\n"
              "    with os.fdopen(os.open(p, os.O_WRONLY), 'r+') as fh:\n"
              "        def g():\n            p.write_text(fh.read())\n")
    assert write_opens(source) == ["<module> (line 4)", "f (line 6)", "f (line 7)",
                                   "f (line 7)", "f (line 9)"]


def test_the_package_writes_files_through_one_writer():
    # dictionary._write_text rewrites a file in place, never truncating it to zero first
    found = {f"{path.stem}.{hit.split()[0]}" for path in sorted(PACKAGE.glob("*.py"))
             for hit in write_opens(path.read_text())}
    assert found == {"dictionary._write_text"}


def json_encodes(source: str) -> list[str]:
    """The calls in a module to json.dumps or json.dump, by attribute or by the bare
    imported name (calls_where)."""
    return calls_where(source, lambda call: call_name(call) in ("dumps", "dump"))


def test_json_encodes_are_found():
    source = ("import json\nfrom json import dumps\njson.loads('1')\n"
              "def f(x, fh):\n    json.dump(x, fh)\n    return dumps(x, indent=2)\n")
    assert json_encodes(source) == ["f (line 5)", "f (line 6)"]


def test_the_package_writes_json_through_one_encoder():
    # dictionary._json writes json.dumps(obj, indent=2, allow_nan=False)'s bytes faster
    found = {f"{path.stem}.{hit.split()[0]}" for path in sorted(PACKAGE.glob("*.py"))
             for hit in json_encodes(path.read_text())}
    assert found == {"dictionary._json"}


def prune_imports(source: str) -> list[str]:
    """The imports in a module of greedycert._prune, relative or absolute, by `import` or
    by `from` (calls_where)."""

    def imports(node):
        names = [alias.name for alias in node.names]
        if isinstance(node, ast.Import):
            return "greedycert._prune" in names
        module = (node.module or "").split(".")
        return module[-1] == "_prune" or (module[-1] in ("", "greedycert") and "_prune" in names)

    return calls_where(source, imports, (ast.Import, ast.ImportFrom))


def test_prune_imports_are_found():
    source = ("from . import dictionary\nimport greedycert._prune\ndef f():\n"
              "    from . import _prune\n    from greedycert._prune import candidate_pairs\n"
              "    from ._prune import _floor\n    from greedycert import _prune\n")
    assert prune_imports(source) == ["<module> (line 2)", "f (line 4)", "f (line 5)",
                                     "f (line 6)", "f (line 7)"]


def test_the_package_imports_prune_only_where_prip_exact_prunes():
    # _prune is compiled from source wherever no bytecode is cached: a module apart, imported
    # by the call that prunes, keeps that cost off every other command
    found = {f"{path.stem}.{hit.split()[0]}" for path in sorted(PACKAGE.glob("*.py"))
             for hit in prune_imports(path.read_text())}
    assert found == {"guarantees.prip_exact"}
