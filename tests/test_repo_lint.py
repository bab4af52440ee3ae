"""Repo lint gate: ruff + mypy when available, import hygiene always.

``pyproject.toml`` scopes the linters to the typed surface of the toolchain
(``specs.py``, ``schedule/registry.py`` and the ``verify`` package).  The
container this suite usually runs in does not ship ruff or mypy, so those
tests skip cleanly when the tools are missing — but the AST-based
import-hygiene check below always runs on the same scope plus
``HYGIENE_ONLY``, so a dead import cannot land even without the external
tools.
"""

import ast
import os
import re
import shutil
import subprocess
import sys

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO_ROOT, "src", "repro")

#: The lint/type-check scope declared in pyproject.toml.
SCOPE = [
    os.path.join(SRC, "specs.py"),
    os.path.join(SRC, "schedule", "registry.py"),
    os.path.join(SRC, "service"),
    os.path.join(SRC, "verify"),
    os.path.join(SRC, "engine", "batchsim.py"),
    os.path.join(SRC, "kernels", "reference.py"),
]

#: Modules held to the import-hygiene check only: ruff and mypy have not
#: been shown to run clean on them, so they stay out of ``SCOPE``.
HYGIENE_ONLY = [
    os.path.join(SRC, "api.py"),
    os.path.join(SRC, "baseline", "li2016.py"),
    os.path.join(SRC, "dfg", "graph.py"),
    os.path.join(SRC, "dfg", "node.py"),
    os.path.join(SRC, "dfg", "opcodes.py"),
    os.path.join(SRC, "dfg", "validate.py"),
    os.path.join(SRC, "engine", "cache.py"),
    os.path.join(SRC, "engine", "fastsim.py"),
    os.path.join(SRC, "engine", "sweep.py"),
    os.path.join(SRC, "frontend", "cache.py"),
    os.path.join(SRC, "metrics", "performance.py"),
    os.path.join(SRC, "overlay", "isa.py"),
    os.path.join(SRC, "runtime", "manager.py"),
    os.path.join(SRC, "schedule", "greedy.py"),
    os.path.join(SRC, "sim", "overlay.py"),
]


def _scoped_files(entries):
    files = []
    for entry in entries:
        if os.path.isdir(entry):
            for name in sorted(os.listdir(entry)):
                if name.endswith(".py"):
                    files.append(os.path.join(entry, name))
        else:
            files.append(entry)
    return files


def _read(path):
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


class TestExternalLinters:
    def test_ruff_clean(self):
        if shutil.which("ruff") is None:
            pytest.skip("ruff is not installed in this environment")
        result = subprocess.run(
            ["ruff", "check", *SCOPE],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stdout + result.stderr

    def test_mypy_clean(self):
        pytest.importorskip("mypy", reason="mypy is not installed in this environment")
        result = subprocess.run(
            [sys.executable, "-m", "mypy", "--config-file", "pyproject.toml"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stdout + result.stderr


class TestImportHygiene:
    """Fallback for environments without ruff: no unused imports in scope."""

    @pytest.mark.parametrize(
        "path",
        _scoped_files(SCOPE + HYGIENE_ONLY),
        ids=[os.path.relpath(p, SRC) for p in _scoped_files(SCOPE + HYGIENE_ONLY)],
    )
    def test_no_unused_imports(self, path):
        source = _read(path)
        tree = ast.parse(source, filename=path)
        bindings = []  # (lineno, bound name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    name = alias.asname or alias.name.partition(".")[0]
                    bindings.append((node.lineno, name))
            elif isinstance(node, ast.ImportFrom):
                if node.module == "__future__":
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    bindings.append((node.lineno, alias.asname or alias.name))
        lines = source.splitlines()
        unused = []
        for lineno, name in bindings:
            pattern = re.compile(rf"\b{re.escape(name)}\b")
            used = False
            for number, line in enumerate(lines, start=1):
                if number == lineno:
                    # The binding's own import line never counts as a use,
                    # but a multi-line import statement makes other
                    # bindings' names appear on it — only skip the line
                    # that binds *this* name.
                    continue
                if pattern.search(line):
                    used = True
                    break
            if not used:
                unused.append(f"{os.path.relpath(path, REPO_ROOT)}:{lineno}: {name}")
        assert not unused, "unused imports:\n  " + "\n  ".join(unused)
