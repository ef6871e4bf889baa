"""Smoke checks for the example scripts.

The test suite verifies they compile, carry usage docstrings, and
expose a ``main`` entry point. A blocking tier-1 CI step runs every
script to completion (1-5 s each, about 13 s for all six on a 2-vCPU
host).
"""

import ast
import pathlib

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"
EXAMPLE_FILES = sorted(EXAMPLES_DIR.glob("*.py"))


@pytest.mark.parametrize("path", EXAMPLE_FILES, ids=lambda p: p.name)
class TestExamples:
    def test_parses(self, path):
        ast.parse(path.read_text())

    def test_has_docstring_with_run_instructions(self, path):
        module = ast.parse(path.read_text())
        docstring = ast.get_docstring(module)
        assert docstring, f"{path.name} needs a module docstring"
        assert "Run:" in docstring, f"{path.name} docstring must show how to run it"

    def test_has_main_guard(self, path):
        source = path.read_text()
        assert 'if __name__ == "__main__":' in source
        assert "def main(" in source

    def test_imports_only_public_api(self, path):
        """Examples must not reach into private modules."""
        module = ast.parse(path.read_text())
        for node in ast.walk(module):
            if isinstance(node, ast.ImportFrom) and node.module:
                assert not any(part.startswith("_") for part in node.module.split(".")), (
                    f"{path.name} imports private module {node.module}"
                )


def test_expected_example_set():
    names = {p.name for p in EXAMPLE_FILES}
    assert "quickstart.py" in names
    assert len(names) >= 4, "the deliverable requires at least three domain examples + quickstart"
