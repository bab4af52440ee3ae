"""Repo lint gate: ruff + mypy when available, import hygiene and the
used-outside-tests guard always.

``pyproject.toml`` scopes the linters to the typed surface of the toolchain
(``specs.py``, ``schedule/registry.py`` and the ``verify`` package).  The
container this suite usually runs in does not ship ruff or mypy, so those
tests skip cleanly when the tools are missing — but the AST-based
import-hygiene check below always runs on the same scope plus
``HYGIENE_ONLY``, so a dead import cannot land even without the external
tools.  ``TestUsedOutsideTests`` keeps definitions that only their own
tests call from growing back.
"""

import ast
import functools
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
    os.path.join(SRC, "registry.py"),
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
    os.path.join(SRC, "cli.py"),
    os.path.join(SRC, "dfg", "analysis.py"),
    os.path.join(SRC, "dfg", "graph.py"),
    os.path.join(SRC, "dfg", "node.py"),
    os.path.join(SRC, "dfg", "opcodes.py"),
    os.path.join(SRC, "dfg", "transforms.py"),
    os.path.join(SRC, "dfg", "validate.py"),
    os.path.join(SRC, "engine", "cache.py"),
    os.path.join(SRC, "engine", "fastsim.py"),
    os.path.join(SRC, "engine", "faults.py"),
    os.path.join(SRC, "engine", "store.py"),
    os.path.join(SRC, "engine", "sweep.py"),
    os.path.join(SRC, "frontend", "cache.py"),
    os.path.join(SRC, "frontend", "cparser.py"),
    os.path.join(SRC, "frontend", "lexer.py"),
    os.path.join(SRC, "metrics", "models.py"),
    os.path.join(SRC, "metrics", "performance.py"),
    os.path.join(SRC, "overlay", "isa.py"),
    os.path.join(SRC, "program", "codegen.py"),
    os.path.join(SRC, "runtime", "manager.py"),
    os.path.join(SRC, "schedule", "greedy.py"),
    os.path.join(SRC, "schedule", "linear.py"),
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


# ---------------------------------------------------------------------------
# definitions used outside the tests
# ---------------------------------------------------------------------------
#: The module-level oracles of docs/architecture.md ("Oracles"): each
#: re-derives what production code computes so that a test can compare the
#: two, and needs no caller outside the tests.  Only oracles belong here.
ORACLES = (
    "allocate_registers_reference",
    "_assignment_cost",
    "verify_ordering",
    "dead_code_elimination",
    "constant_folding",
    "common_subexpression_elimination",
    "strength_reduce_squares",
    "rebalance_reductions",
    "evaluate_dfg",
    "intermediate_values",
)

_WORD_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _src_modules():
    """Every ``src/repro`` module except the package ``__init__`` files."""
    modules = []
    for folder, _, names in os.walk(SRC):
        for name in names:
            if name.endswith(".py") and name != "__init__.py":
                modules.append(os.path.join(folder, name))
    return sorted(modules)


def _outside_text_files():
    """benchmarks/, examples/, docs/*.md and README.md."""
    files = [os.path.join(REPO_ROOT, "README.md")]
    docs = os.path.join(REPO_ROOT, "docs")
    files += [os.path.join(docs, n) for n in sorted(os.listdir(docs)) if n.endswith(".md")]
    for top in ("benchmarks", "examples"):
        for folder, _, names in os.walk(os.path.join(REPO_ROOT, top)):
            files += [os.path.join(folder, n) for n in names if n.endswith((".py", ".md"))]
    return files


def _module_definitions(path):
    """``(line, name)`` of each module-level ``def`` and ``class``.

    A decorated function is registered by its decorator (the verifier's
    mutation table) and reached through that registry, so it is skipped.
    """
    tree = ast.parse(_read(path), filename=path)
    return [
        (node.lineno, node.name)
        for node in tree.body
        if isinstance(node, ast.ClassDef)
        or (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not node.decorator_list)
    ]


@functools.lru_cache(maxsize=1)
def _uses():
    """``(names used outside src, name -> {(src path, line)})``."""
    outside = set()
    for path in _outside_text_files():
        outside.update(_WORD_RE.findall(_read(path)))
    in_src = {}
    for path in _src_modules():
        for number, line in enumerate(_read(path).splitlines(), start=1):
            for word in set(_WORD_RE.findall(line)):
                in_src.setdefault(word, set()).add((path, number))
    return outside, in_src


class TestUsedOutsideTests:
    """Every module-level definition in ``src/repro`` is named somewhere a
    test is not: another ``src/repro`` line (package ``__init__`` re-exports
    do not count), a benchmark, an example or the docs.  A definition only
    its own tests call is deleted with those tests, or, if it is an oracle,
    listed in :data:`ORACLES` and in docs/architecture.md."""

    @pytest.mark.parametrize(
        "path", _src_modules(), ids=[os.path.relpath(p, SRC) for p in _src_modules()]
    )
    def test_every_definition_is_used_outside_tests(self, path):
        outside, in_src = _uses()
        unused = [
            f"{os.path.relpath(path, REPO_ROOT)}:{line}: {name}"
            for line, name in _module_definitions(path)
            if name not in ORACLES
            and name not in outside
            and not in_src.get(name, set()) - {(path, line)}
        ]
        assert not unused, "defined but used only by tests:\n  " + "\n  ".join(unused)

    def test_oracles_are_defined_and_documented(self):
        section = _read(os.path.join(REPO_ROOT, "docs", "architecture.md")).split(
            "## Oracles", 1
        )
        assert len(section) == 2, "docs/architecture.md lost its Oracles section"
        documented = section[1].split("\n## ", 1)[0]
        defined = {
            name for path in _src_modules() for _, name in _module_definitions(path)
        }
        for name in ORACLES:
            assert name in defined, f"ORACLES names {name}, which src/repro does not define"
            assert f"`{name}`" in documented, f"{name} is missing from the Oracles section"
