"""The package's modules and the tests import only names they use, the package writes
files through one writer and JSON through one encoder, it imports _prune only in the
calls that prune, and every dotted name the README or a docstring refers to exists."""

import ast
import importlib
import pathlib
import re
import subprocess
import sys
from dataclasses import fields

import pytest

import greedycert
from greedycert import Dictionary

TESTS = pathlib.Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "greedycert"
README = TESTS.parent / "README.md"


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


def test_the_package_imports_prune_only_where_a_call_prunes():
    # _prune is compiled from source wherever no bytecode is cached: a module apart, imported
    # by the calls that prune, keeps that cost off every other command
    found = {f"{path.stem}.{hit.split()[0]}" for path in sorted(PACKAGE.glob("*.py"))
             for hit in prune_imports(path.read_text())}
    assert found == {"guarantees.prip_exact", "guarantees.projected_coherence"}


def test_projected_coherence_imports_prune_only_where_its_leaves_fill_more_than_one_stack():
    # in a fresh interpreter: on 10 x 12, the walks up to l = 2 (66 leaves of 10 x 10) fit
    # one stack and leave _prune unimported; the 220 leaves of 9 x 9 at l = 3 do not
    code = ("import sys\nfrom greedycert import projected_coherence, random_dictionary\n"
            "d = random_dictionary(10, 12, seed=0)\n"
            "for l in range(3):\n    projected_coherence('ols', d, l)\n"
            "print('greedycert._prune' in sys.modules)\n"
            "projected_coherence('ols', d, 3)\nprint('greedycert._prune' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.stdout.split() == ["False", "True"], proc.stderr


MODULES = sorted(path.stem for path in PACKAGE.glob("*.py") if path.stem != "__init__")
# `module.name` where the module is the package or one of its modules; `sweep.csv` is a
# file and `dictionary.atoms` a dictionary's attribute, neither a reference
REFERENCE = re.compile(r"(?<![\w.])((?:greedycert|%s)(?:\.\w+)+)" % "|".join(MODULES))
NOT_REFERENCES = {"csv", "json", *(f.name for f in fields(Dictionary)),
                  *(a for a in dir(Dictionary) if not a.startswith("_"))}


def dotted_references(text: str) -> list[str]:
    """The module references in text (REFERENCE): those whose first attribute is a file
    suffix or an attribute of a Dictionary are not references."""
    return [ref for ref in REFERENCE.findall(text) if ref.split(".")[1] not in NOT_REFERENCES]


def resolves(ref: str) -> bool:
    """Whether a dotted reference names an existing attribute, or submodule, of the package
    or module it starts with."""
    head, *names = ref.split(".")
    if head == "greedycert" and names[0] in MODULES:  # cli is no attribute until imported
        head, *names = names
    obj = greedycert if head == "greedycert" else importlib.import_module(f"greedycert.{head}")
    for name in names:
        if not hasattr(obj, name):
            return False
        obj = getattr(obj, name)
    return True


def test_dotted_references_are_found_and_resolved():
    text = ("greedycert.dictionary._json; the sweep.csv file; a dictionary.atoms attribute;"
            " see projection._divisor, greedycert.cli and sweep.run_sweep. Nothing in"
            " x.sweep.y; guarantees.no_such_name, greedycert.no_such_module")
    refs = dotted_references(text)
    assert refs == ["greedycert.dictionary._json", "projection._divisor", "greedycert.cli",
                    "sweep.run_sweep", "guarantees.no_such_name", "greedycert.no_such_module"]
    assert [resolves(ref) for ref in refs] == [True, True, True, True, False, False]


def readme_spans() -> list[str]:
    """The README's inline code spans, fenced blocks left out."""
    return re.findall(r"`([^`\n]+)`", re.sub(r"```.*?```", "", README.read_text(), flags=re.S))


def test_readme_references_resolve():
    # a paragraph moved out of the README must not leave a name behind that no longer exists
    refs = [ref for span in readme_spans() for ref in dotted_references(span)]
    assert "greedycert.guarantees" in refs
    assert [ref for ref in refs if not resolves(ref)] == []


def docstrings(path: pathlib.Path) -> list[str]:
    """The docstrings of a module, its classes and its functions."""
    return [doc for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            and (doc := ast.get_docstring(node, clean=False))]


def test_docstring_references_resolve():
    refs = {f"{path.name}: {ref}" for path in sorted(PACKAGE.glob("*.py"))
            for doc in docstrings(path) for ref in dotted_references(doc)}
    assert "guarantees.py: dictionary.BATCH_ELEMENTS" in refs
    assert [ref for ref in sorted(refs) if not resolves(ref.split(": ")[1])] == []
