"""Every name a module imports is used in that module, and the CLI's
import builds its classes without code generation and leaves out the
problem generators."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "hylotab"


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_detects_unused_import():
    source = "from __future__ import annotations\nfrom os import path, sep\nimport sys\nprint(sep)\n"
    assert unused_imports(source) == [(2, "path"), (3, "sys")]


def test_cli_imports_neither_dataclasses_nor_inspect():
    code = "import sys, hylotab.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-S", "-B", "-c", code], env={"PYTHONPATH": str(SRC.parent)},
                         capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"


def test_cli_imports_neither_corpus_nor_random():
    # only `hylotab gen` needs the generators
    code = "import sys, hylotab.cli; print(sorted({'hylotab.corpus', 'random'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-S", "-B", "-c", code], env={"PYTHONPATH": str(SRC.parent)},
                         capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"
