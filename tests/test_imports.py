"""Name hygiene: every name a module imports, and every private name it defines, is used in that module;
every public name has a caller in src/ or the benchmark."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "thermolight"
SOURCES = sorted(PACKAGE.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]


def _imported_names(tree: ast.AST) -> dict:
    """Name bound by each import statement -> its line number."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _private_definitions(tree: ast.Module) -> dict:
    """Private function, class and constant name defined at module level -> its line number."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            targets = [node.target.id]
        else:
            continue
        names.update((n, node.lineno) for n in targets if n.startswith("_") and not n.startswith("__"))
    return names


def _used_names(tree: ast.AST) -> set:
    """Every name loaded in the module, including those inside quoted annotations."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for ann in annotations:
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                used |= _used_names(ast.parse(ann.value, mode="eval"))
    return used


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _used_names(tree)
    unused = {name: line for name, line in _imported_names(tree).items() if name not in used}
    assert not unused, f"{path.name}: unused imports {unused}"


@pytest.mark.parametrize("path", SOURCES, ids=[p.stem for p in SOURCES])
def test_every_private_name_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _used_names(tree)
    unused = {name: line for name, line in _private_definitions(tree).items() if name not in used}
    assert not unused, f"{path.name}: unused private names {unused}"


BENCH = PACKAGE.parent.parent / "perfbench"


def _public_definitions(tree: ast.Module) -> list:
    """(name, first line, last line) of each public function, class, and method or property of a public class."""
    defs = []
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        defs.append((node.name, node.lineno, node.end_lineno))
        if isinstance(node, ast.ClassDef):
            defs += [(f"{node.name}.{m.name}", m.lineno, m.end_lineno) for m in node.body
                     if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef)) and not m.name.startswith("_")]
    return defs


def _references(tree: ast.AST) -> list:
    """(name, line) of each loaded name and attribute; an import binds a name but does not use it."""
    refs = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            refs.append((node.attr, node.lineno))
    return refs


def test_every_public_name_has_a_caller():
    """Each public name is used in src/ outside its own definition, or by the benchmark; tests do not count."""
    callers = SOURCES + sorted(BENCH.glob("*.py"))
    refs = {path: _references(ast.parse(path.read_text(encoding="utf-8"))) for path in callers}
    uncalled = []
    for path in SOURCES:
        for qualname, first, last in _public_definitions(ast.parse(path.read_text(encoding="utf-8"))):
            name = qualname.rpartition(".")[2]
            if not any(ref == name and not (where == path and first <= line <= last)
                       for where, found in refs.items() for ref, line in found):
                uncalled.append(f"{path.stem}.{qualname}")
    assert not uncalled, f"public names with no caller in src/ or perfbench/: {uncalled}"
