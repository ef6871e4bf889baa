"""Every import is used: an AST scan of the program, tests, benchmarks
and examples.

A module's import is *used* when the name it binds appears anywhere in
the module as a name (including quoted annotations) or in its
``__all__``. Package ``__init__.py`` files are exempt: their imports
are the package's re-exports, which ``test_integration.py::TestPublicApi``
checks against ``__all__``.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
TREES = ("src", "tests", "benchmarks", "examples")

#: (path relative to the repo root, bound name) -> why the import stays.
ALLOWED = {
    ("src/repro/system/simulation.py", "evaluate_system_batch"): (
        "perfbench/layers.py rebinds simulation.evaluate_system_batch by name"
    ),
}


def modules() -> List[Path]:
    return sorted(
        path
        for tree in TREES
        for path in (ROOT / tree).rglob("*.py")
        if path.name != "__init__.py"
    )


def imported_names(tree: ast.Module) -> Iterator[Tuple[str, int]]:
    """Each name an import statement binds, with its line."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node.lineno


def used_names(tree: ast.Module) -> Set[str]:
    """Names the module reads or writes, names in its quoted
    annotations, and the entries of its ``__all__``."""
    used: Set[str] = set()
    quoted: List[str] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            quoted.extend(strings(node.annotation))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            quoted.extend(strings(node.returns))
        elif isinstance(node, ast.AnnAssign):
            quoted.extend(strings(node.annotation))
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used.update(strings(node.value))
    for text in quoted:
        try:
            expression = ast.parse(text, mode="eval")
        except SyntaxError:  # a Literal["..."] value, not a type
            continue
        used.update(n.id for n in ast.walk(expression) if isinstance(n, ast.Name))
    return used


def strings(node: ast.AST) -> Iterator[str]:
    """The string constants under ``node``."""
    for child in ast.walk(node):
        if isinstance(child, ast.Constant) and isinstance(child.value, str):
            yield child.value


def unused_imports(path: Path) -> Dict[str, int]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = used_names(tree)
    relative = path.relative_to(ROOT).as_posix()
    return {
        name: line
        for name, line in imported_names(tree)
        if name not in used and (relative, name) not in ALLOWED
    }


def test_no_unused_imports():
    found = [
        f"{path.relative_to(ROOT).as_posix()}:{line}: {name}"
        for path in modules()
        for name, line in sorted(unused_imports(path).items(), key=lambda item: item[1])
    ]
    assert not found, "unused imports:\n" + "\n".join(found)


def test_allowlist_entries_are_still_needed():
    for relative, name in ALLOWED:
        path = ROOT / relative
        tree = ast.parse(path.read_text(encoding="utf-8"))
        assert name in dict(imported_names(tree)), f"{relative} no longer imports {name}"
        assert name not in used_names(tree), f"{relative} now uses {name}; drop its entry"
