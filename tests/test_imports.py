"""Import lint: every name a module in ``src/repro`` imports is used.

A stdlib-``ast`` stand-in for pyflakes' F401, so the check needs no
extra dependency.  Package ``__init__.py`` files (whose imports are the
public surface) are skipped, and an import statement carrying
``# noqa: F401`` is an intended re-export.  Names used only inside
quoted annotations (``Optional["Cube"]``) count as used.
"""

import ast
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
MODULES = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")


def _imported(tree: ast.Module, lines: List[str]) -> Iterator[Tuple[str, int]]:
    """``(bound name, line)`` for every import not marked ``noqa: F401``."""
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        span = lines[node.lineno - 1:node.end_lineno]
        if any("noqa: F401" in line for line in span):
            continue
        for alias in node.names:
            if alias.name == "*":
                continue
            bound = alias.asname or alias.name.split(".")[0]
            yield bound, node.lineno


def _annotation_names(node: ast.AST) -> Set[str]:
    """Names inside the string constants of an annotation subtree."""
    names: Set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                parsed = ast.parse(sub.value, mode="eval")
            except SyntaxError:
                continue
            names.update(n.id for n in ast.walk(parsed)
                         if isinstance(n, ast.Name))
    return names


def _used(tree: ast.Module) -> Set[str]:
    used: Set[str] = set()
    annotations: List[ast.AST] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.returns is not None:
                annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            used.update(c.value for c in ast.walk(node.value)
                        if isinstance(c, ast.Constant)
                        and isinstance(c.value, str))
    for annotation in annotations:
        used |= _annotation_names(annotation)
    return used


def unused_imports(path: Path) -> Dict[str, int]:
    """Imported-but-unreferenced names of one module, with their lines."""
    text = path.read_text()
    tree = ast.parse(text, filename=str(path))
    used = _used(tree)
    return {name: line for name, line in _imported(tree, text.splitlines())
            if name not in used}


@pytest.mark.parametrize(
    "path", MODULES, ids=[str(p.relative_to(SRC)) for p in MODULES])
def test_no_unused_imports(path):
    unused = unused_imports(path)
    assert not unused, "unused imports: " + ", ".join(
        f"{name} (line {line})" for name, line in sorted(unused.items()))


def test_lint_sees_unused_and_quoted_names(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text(
        "from typing import List, Optional\n"
        "import os\n"
        "import json  # noqa: F401\n"
        "from a import (B,  # noqa: F401\n"
        "               C)\n"
        "def f(x: 'Optional[List[int]]') -> None:\n"
        "    return None\n")
    assert unused_imports(module) == {"os": 2}
