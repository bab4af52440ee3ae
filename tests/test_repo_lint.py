"""Repo lint gate: ruff + mypy when available, import hygiene and the
used-outside-tests guard always.

``pyproject.toml`` scopes the linters to the typed surface of the toolchain
(``specs.py``, ``schedule/registry.py`` and the ``verify`` package).  The
container this suite usually runs in does not ship ruff or mypy, so those
tests skip cleanly when the tools are missing — but the AST-based
import-hygiene check below always runs on the same scope plus
``HYGIENE_ONLY``, so a dead import cannot land even without the external
tools.  ``TestUsedOutsideTests`` keeps definitions and methods that only
their own tests call from growing back, ``TestOptionsHaveCallers`` does the
same for defaulted parameters, ``TestStandardLibraryOnly`` keeps ``src/``'s
imports to the standard library, ``TestOneCompilePath`` keeps every compile
in ``src/`` on the session, and ``TestExports`` checks that every name in a
package's ``__all__`` exists.
"""

import ast
import functools
import importlib
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


def _outside_text(path):
    """A file's text as the checks read it: the table under docs/api.md's
    "Removed entry points" names what is gone, not public surface, so its
    rows are left out."""
    text = _read(path)
    head, heading, tail = text.partition("\n## Removed entry points\n")
    section, next_heading, rest = tail.partition("\n## ")
    kept = [line for line in section.splitlines() if not line.startswith("|")]
    return head + heading + "\n".join(kept) + next_heading + rest


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
        outside.update(_WORD_RE.findall(_outside_text(path)))
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

    @pytest.mark.parametrize(
        "path", _src_modules(), ids=[os.path.relpath(p, SRC) for p in _src_modules()]
    )
    def test_every_public_method_is_named_outside_tests(self, path):
        """Each public method is read as ``.name`` in the code of src/,
        benchmarks/ or examples/, or in the docs; or it is kept, for one of
        :data:`REASONS`, in :data:`KEPT_METHODS`."""
        unnamed = [
            f"{os.path.relpath(path, REPO_ROOT)}:{line}: {method}"
            for method, line in _unnamed_methods(path)
            if method not in KEPT_METHODS
        ]
        assert not unnamed, "methods only tests call:\n  " + "\n  ".join(unnamed)

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


# ---------------------------------------------------------------------------
# methods and options with callers outside the tests
# ---------------------------------------------------------------------------
#: The reasons a method or option that nothing outside ``tests/`` reaches
#: may stay; every keep-list entry gives one of them.
PLUGIN = "plug-in registration"
ORACLE_SWITCH = "the recurrence's oracle switch"
SAFETY_BOUND = "the test hook of a safety bound"
INJECTED = "an injected dependency"
WIRE = "a wire field or an address"
WRAP_EDGE = "the wrap-edge test streams"
OPCODE_FAMILY = "DFGBuilder's one-method-per-opcode family"
REASONS = (PLUGIN, ORACLE_SWITCH, SAFETY_BOUND, INJECTED, WIRE, WRAP_EDGE, OPCODE_FAMILY)

#: ``DFGBuilder.<opcode>`` stands for each builder method named after a
#: compute opcode (``and_`` for ``AND``).
OPCODE_METHOD = "DFGBuilder.<opcode>"

#: Public methods named nowhere outside ``tests/``, kept on purpose.
KEPT_METHODS = {OPCODE_METHOD: OPCODE_FAMILY}

#: Defaulted parameters no call outside ``tests/`` sets, kept on purpose.
KEPT_OPTIONS = {
    "register_scheduler(replace)": PLUGIN,
    "register_model(replace)": PLUGIN,
    "register_pass(replace)": PLUGIN,
    "BatchSimulator.__init__(fast_forward)": ORACLE_SWITCH,
    "BatchSimulator.__init__(max_cycles)": SAFETY_BOUND,
    "FastSimulator.__init__(max_cycles)": SAFETY_BOUND,
    "OverlaySimulator.__init__(max_cycles)": SAFETY_BOUND,
    "FrontendCache.__init__(capacity)": SAFETY_BOUND,
    "tune(toolchain)": INJECTED,
    "tune(store)": INJECTED,
    "InProcessClient.__init__(isolated)": WIRE,
    "ServiceClient.__init__(isolated)": WIRE,
    "BackgroundServer.__init__(host)": WIRE,
    "random_input_blocks(low)": WRAP_EDGE,
    "random_input_blocks(high)": WRAP_EDGE,
    OPCODE_METHOD + "(name)": OPCODE_FAMILY,
}


def _outside_code_files():
    """Every ``.py`` file of src/repro, benchmarks/ and examples/."""
    files = []
    for top in (SRC, os.path.join(REPO_ROOT, "benchmarks"), os.path.join(REPO_ROOT, "examples")):
        for folder, _, names in os.walk(top):
            files += [os.path.join(folder, n) for n in sorted(names) if n.endswith(".py")]
    return files


@functools.lru_cache(maxsize=1)
def _opcode_methods():
    from repro.dfg.builder import DFGBuilder
    from repro.dfg.opcodes import OpCode

    return frozenset(
        name
        for name in vars(DFGBuilder)
        if name.rstrip("_").upper() in OpCode.__members__
        and OpCode[name.rstrip("_").upper()].is_compute
    )


def _kept_name(qualified):
    """``qualified`` as a keep-list names it."""
    owner, _, method = qualified.partition(".")
    return OPCODE_METHOD if owner == "DFGBuilder" and method in _opcode_methods() else qualified


def _bound(function, in_class):
    """1 where a call does not pass the first parameter (``self``/``cls``)."""
    static = any(
        isinstance(d, ast.Name) and d.id == "staticmethod" for d in function.decorator_list
    )
    return 1 if in_class and not static else 0


def _public_callables(path):
    """``(qualified name, call name, def, bound)`` of each public function
    of a module, and of each public method (``__init__`` included, called by
    its class's name) of each public class."""
    tree = ast.parse(_read(path), filename=path)
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if not node.name.startswith("_"):
                yield node.name, node.name, node, 0
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if item.name == "__init__" or not item.name.startswith("_"):
                    call = node.name if item.name == "__init__" else item.name
                    yield f"{node.name}.{item.name}", call, item, _bound(item, True)


def _defaulted(function, bound):
    """``(name, positional index or None)`` of each parameter with a default;
    the index counts the arguments a call passes (after ``self``)."""
    args = function.args
    positional = args.posonlyargs + args.args
    first_default = len(positional) - len(args.defaults)
    for index, arg in enumerate(positional):
        if index >= first_default:
            yield arg.arg, index - bound
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None


class _CallIndex(ast.NodeVisitor):
    """Every call by the name it calls (``f(...)`` and ``x.f(...)`` are both
    calls of ``f``): ``(positional, keywords, caller)``.  Each argument is
    ``None`` or, for a bare name of a parameter of the enclosing ``def``,
    that parameter's name; ``positional`` stops at a ``*`` argument and
    ``keywords`` skips ``**``.  ``caller`` is ``(def, call name, bound)``
    of the enclosing ``def``, or ``None``."""

    def __init__(self):
        self.calls = {}
        self._classes = [None]
        self._callers = [None]

    def visit_ClassDef(self, node):
        self._classes.append(node.name)
        self.generic_visit(node)
        self._classes.pop()

    def visit_FunctionDef(self, node):
        owner = self._classes[-1]
        call = owner if owner is not None and node.name == "__init__" else node.name
        self._callers.append((node, call, _bound(node, owner is not None)))
        self._classes.append(None)
        self.generic_visit(node)
        self._classes.pop()
        self._callers.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Lambda(self, node):
        self._callers.append((node, None, 0))
        self.generic_visit(node)
        self._callers.pop()

    def visit_Call(self, node):
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name is not None:
            caller = self._callers[-1]
            params = set()
            if caller is not None:
                args = caller[0].args
                params = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}

            def forwarded(value):
                return value.id if isinstance(value, ast.Name) and value.id in params else None

            positional = []
            for arg in node.args:
                if isinstance(arg, ast.Starred):
                    break
                positional.append(forwarded(arg))
            keywords = {k.arg: forwarded(k.value) for k in node.keywords if k.arg is not None}
            self.calls.setdefault(name, []).append((positional, keywords, caller))
        self.generic_visit(node)


@functools.lru_cache(maxsize=1)
def _calls():
    index = _CallIndex()
    for path in _outside_code_files():
        index.visit(ast.parse(_read(path), filename=path))
    return index.calls


def _is_set(caller, param, seen):
    """Whether the enclosing ``def``'s ``param``, forwarded unchanged, is
    itself set: it has no default, or a call outside the tests sets it."""
    function, call, bound = caller
    if call is None:  # a lambda's parameters
        return True
    for name, index in _defaulted(function, bound):
        if name == param:
            return _has_caller(call, name, index, seen)
    return True


def _has_caller(call, name, index, seen=frozenset()):
    """Whether some call of ``call`` outside the tests passes parameter
    ``name`` (by keyword, or at positional ``index``).  A bare forward of a
    parameter of the calling ``def`` counts only when that one is set."""
    if (call, name) in seen:
        return False
    seen = seen | {(call, name)}
    for positional, keywords, caller in _calls().get(call, ()):
        if name in keywords:
            passed = keywords[name]
        elif index is not None and 0 <= index < len(positional):
            passed = positional[index]
        else:
            continue
        if passed is None or _is_set(caller, passed, seen):
            return True
    return False


@functools.lru_cache(maxsize=1)
def _attribute_names():
    """Each ``.name`` outside the tests: attributes in the code of src/,
    benchmarks/ and examples/, and ``.name`` in the docs."""
    names = set()
    for path in _outside_code_files():
        for node in ast.walk(ast.parse(_read(path), filename=path)):
            if isinstance(node, ast.Attribute):
                names.add(node.attr)
    for path in _outside_text_files():
        if path.endswith(".md"):
            names.update(re.findall(r"\.([A-Za-z_][A-Za-z0-9_]*)", _outside_text(path)))
    return names


def _unset_options(path):
    for qualified, call, function, bound in _public_callables(path):
        for name, index in _defaulted(function, bound):
            if not _has_caller(call, name, index):
                yield f"{_kept_name(qualified)}({name})", function.lineno


def _unnamed_methods(path):
    for qualified, _, function, bound in _public_callables(path):
        method = qualified.partition(".")[2]
        if method and method != "__init__" and method not in _attribute_names():
            yield _kept_name(qualified), function.lineno


class TestOptionsHaveCallers:
    """Every defaulted parameter of a public function or method in
    ``src/repro`` is passed, by keyword or by position, by some call in
    ``src/``, ``benchmarks/`` or ``examples/``.  A bare ``p=p`` forward from
    a function that itself takes ``p`` is no caller on its own: it counts
    when that function's ``p`` has one.  An option only tests set becomes
    the constant its default is, or, for one of :data:`REASONS`, an entry
    of :data:`KEPT_OPTIONS`."""

    @pytest.mark.parametrize(
        "path", _src_modules(), ids=[os.path.relpath(p, SRC) for p in _src_modules()]
    )
    def test_every_option_has_a_caller_outside_tests(self, path):
        unset = [
            f"{os.path.relpath(path, REPO_ROOT)}:{line}: {option}"
            for option, line in _unset_options(path)
            if option not in KEPT_OPTIONS
        ]
        assert not unset, "options only tests set:\n  " + "\n  ".join(unset)

    def test_keep_lists_hold_live_entries_with_a_listed_reason(self):
        unset = {option for path in _src_modules() for option, _ in _unset_options(path)}
        unnamed = {method for path in _src_modules() for method, _ in _unnamed_methods(path)}
        for kept, live in ((KEPT_OPTIONS, unset), (KEPT_METHODS, unnamed)):
            for entry, reason in kept.items():
                assert reason in REASONS, f"{entry}: {reason!r} is not a listed reason"
                assert entry in live, f"{entry} has a caller now; drop it from the keep-list"


# ---------------------------------------------------------------------------
# the standard library only
# ---------------------------------------------------------------------------
def _all_src_files():
    return sorted(
        os.path.join(folder, name)
        for folder, _, names in os.walk(SRC)
        for name in names
        if name.endswith(".py")
    )


class TestStandardLibraryOnly:
    """``src/repro`` imports ``repro`` and the standard library only, in
    ``TYPE_CHECKING`` blocks too; numpy, the optional ``[batch]`` extra, is
    reached through ``kernels.reference.import_numpy``."""

    @pytest.mark.parametrize(
        "path", _all_src_files(), ids=[os.path.relpath(p, SRC) for p in _all_src_files()]
    )
    def test_imports_name_repro_or_the_standard_library(self, path):
        foreign = []
        for node in ast.walk(ast.parse(_read(path), filename=path)):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            for module in modules:
                top = module.partition(".")[0]
                if top != "repro" and top not in sys.stdlib_module_names:
                    foreign.append(f"{os.path.relpath(path, REPO_ROOT)}:{node.lineno}: {module}")
        assert not foreign, "imports outside the standard library:\n  " + "\n  ".join(foreign)


# ---------------------------------------------------------------------------
# one compile path
# ---------------------------------------------------------------------------
#: The compile cache's entry points.  Only the session (``repro/api.py``)
#: calls them.
CACHE_ENTRY_POINTS = ("get_or_compile", "get_or_compile_keyed", "get_or_compile_source", "get_schedule")

CACHE_MODULE = os.path.join("engine", "cache.py")


def _located_calls(path):
    """``(called name, attribute call, line)`` of each call in a module."""
    found = []
    for node in ast.walk(ast.parse(_read(path), filename=path)):
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute):
                found.append((func.attr, True, node.lineno))
            elif isinstance(func, ast.Name):
                found.append((func.id, False, node.lineno))
    return found


class TestOneCompilePath:
    """``src/repro`` compiles through the :class:`~repro.api.Toolchain`
    session: only ``repro/api.py`` calls the compile cache, and only the
    cache schedules a kernel, so a second compile path cannot grow back."""

    def test_only_the_session_calls_the_compile_cache(self):
        stray = []
        for path in _all_src_files():
            module = os.path.relpath(path, SRC)
            for name, attribute, line in _located_calls(path):
                if not attribute or name not in CACHE_ENTRY_POINTS or module == "api.py":
                    continue
                stray.append(f"{module}:{line}: .{name}()")
        assert not stray, "compile-cache calls outside the session:\n  " + "\n  ".join(stray)

    def test_only_the_cache_schedules_a_kernel(self):
        stray = [
            f"{os.path.relpath(path, SRC)}:{line}"
            for path in _all_src_files()
            for name, _, line in _located_calls(path)
            if name == "schedule_kernel" and os.path.relpath(path, SRC) != CACHE_MODULE
        ]
        assert not stray, "schedule_kernel calls outside the compile cache:\n  " + "\n  ".join(stray)


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------
#: ``repro`` and every subpackage of it.
PACKAGES = ["repro"] + [
    f"repro.{name}"
    for name in sorted(os.listdir(SRC))
    if os.path.isfile(os.path.join(SRC, name, "__init__.py"))
]


class TestExports:
    """A name left in ``__all__`` after its definition goes fails only at
    ``from package import *``; this catches it when it lands."""

    @pytest.mark.parametrize("package", PACKAGES)
    def test_every_export_resolves(self, package):
        module = importlib.import_module(package)
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, f"{package}.__all__ names undefined {missing}"
