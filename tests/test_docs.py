"""Documentation checks: markdown link validation and example runs.

This is the ``docs`` CI gate: it fails when a relative link in
``README.md`` or ``docs/`` points at a missing file or heading, when a
required documentation page disappears, when ``docs/verify.md`` lists
another set of diagnostic codes or another number of seeded defects than
the verifier has, or when an ``examples/*.py`` script stops being valid
Python or stops running to a zero exit.  Run it alone with::

    python -m pytest tests/test_docs.py
"""

import ast
import os
import py_compile
import re
import subprocess
import sys

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DOCS_DIR = os.path.join(REPO_ROOT, "docs")
EXAMPLES_DIR = os.path.join(REPO_ROOT, "examples")
VERIFY_PAGE = os.path.join(DOCS_DIR, "verify.md")
VERIFY_SRC_DIR = os.path.join(REPO_ROOT, "src", "repro", "verify")

#: Pages the documentation site must always provide.
REQUIRED_PAGES = [
    os.path.join(REPO_ROOT, "README.md"),
    os.path.join(DOCS_DIR, "api.md"),
    os.path.join(DOCS_DIR, "architecture.md"),
    os.path.join(DOCS_DIR, "compiler.md"),
    os.path.join(DOCS_DIR, "engine.md"),
    os.path.join(DOCS_DIR, "service.md"),
    os.path.join(DOCS_DIR, "sweeps.md"),
    os.path.join(DOCS_DIR, "tuning.md"),
    os.path.join(DOCS_DIR, "verify.md"),
]

#: Sections a required page must keep providing (page -> GitHub anchor
#: slugs).  Links from other pages/tests point at these, so renaming the
#: heading is an API break for the docs site.
REQUIRED_ANCHORS = {
    os.path.join(DOCS_DIR, "engine.md"): [
        "batched-execution",
        "steady-state-fast-forward-why-it-is-exact",
    ],
}

_LINK_RE = re.compile(r"\[([^\]]*)\]\(([^)\s]+)\)")
_CODE_RE = re.compile(r"[A-Z]+\d{3}")
_CODE_ROW_RE = re.compile(r"^\| `([A-Z]+\d{3})` \|", re.MULTILINE)
_FENCE_RE = re.compile(r"```.*?```", re.DOTALL)
_HEADING_RE = re.compile(r"^(#{1,6})\s+(.*)$", re.MULTILINE)


def _markdown_files():
    files = [os.path.join(REPO_ROOT, "README.md")]
    if os.path.isdir(DOCS_DIR):
        for name in sorted(os.listdir(DOCS_DIR)):
            if name.endswith(".md"):
                files.append(os.path.join(DOCS_DIR, name))
    return files


def _read(path):
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _links(path):
    """All inline markdown links of a file, with fenced code blocks removed."""
    text = _FENCE_RE.sub("", _read(path))
    return [(text_label, target) for text_label, target in _LINK_RE.findall(text)]


def _github_slug(heading):
    """GitHub-style anchor slug of a heading."""
    slug = heading.strip().lower()
    slug = re.sub(r"[`*_~]", "", slug)
    slug = re.sub(r"[^\w\- ]", "", slug)
    return slug.replace(" ", "-")


def _anchors(path):
    return {_github_slug(title) for _, title in _HEADING_RE.findall(_read(path))}


class TestRequiredPages:
    @pytest.mark.parametrize(
        "page", REQUIRED_PAGES, ids=[os.path.basename(p) for p in REQUIRED_PAGES]
    )
    def test_page_exists_and_is_nonempty(self, page):
        assert os.path.isfile(page), f"missing documentation page: {page}"
        assert len(_read(page).strip()) > 200, f"{page} is a stub"

    @pytest.mark.parametrize(
        "page, anchor",
        [(p, a) for p, anchors in REQUIRED_ANCHORS.items() for a in anchors],
        ids=[
            f"{os.path.basename(p)}#{a}"
            for p, anchors in REQUIRED_ANCHORS.items()
            for a in anchors
        ],
    )
    def test_required_sections_present(self, page, anchor):
        assert anchor in _anchors(page), (
            f"{os.path.basename(page)} lost its required #{anchor} section"
        )


class TestMarkdownLinks:
    @pytest.mark.parametrize(
        "md_file", _markdown_files(), ids=[os.path.basename(p) for p in _markdown_files()]
    )
    def test_relative_links_resolve(self, md_file):
        problems = []
        for label, target in _links(md_file):
            if re.match(r"^[a-z][a-z0-9+.-]*:", target):  # http:, https:, mailto:
                continue
            path_part, _, anchor = target.partition("#")
            if path_part:
                resolved = os.path.normpath(
                    os.path.join(os.path.dirname(md_file), path_part)
                )
                if not os.path.exists(resolved):
                    problems.append(f"[{label}]({target}) -> missing file {resolved}")
                    continue
            else:
                resolved = md_file
            if anchor and resolved.endswith(".md"):
                if anchor not in _anchors(resolved):
                    problems.append(f"[{label}]({target}) -> missing heading #{anchor}")
        assert not problems, "broken links in {}:\n  {}".format(
            os.path.basename(md_file), "\n  ".join(problems)
        )

    def test_every_docs_page_is_reachable_from_readme(self):
        readme_targets = {
            os.path.normpath(os.path.join(REPO_ROOT, target.partition("#")[0]))
            for _, target in _links(os.path.join(REPO_ROOT, "README.md"))
            if not re.match(r"^[a-z][a-z0-9+.-]*:", target)
        }
        for name in sorted(os.listdir(DOCS_DIR)):
            if name.endswith(".md"):
                page = os.path.normpath(os.path.join(DOCS_DIR, name))
                assert page in readme_targets, f"docs/{name} is not linked from README.md"


def _emitted_codes():
    """Every diagnostic code a ``verify/*_checks.py`` pass emits: each string
    literal there that is a code and nothing else."""
    codes = set()
    for name in sorted(os.listdir(VERIFY_SRC_DIR)):
        if name.endswith("_checks.py"):
            tree = ast.parse(_read(os.path.join(VERIFY_SRC_DIR, name)))
            codes.update(
                node.value
                for node in ast.walk(tree)
                if isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and _CODE_RE.fullmatch(node.value)
            )
    return codes


class TestVerifyPage:
    def test_code_tables_list_exactly_the_emitted_codes(self):
        documented = _CODE_ROW_RE.findall(_read(VERIFY_PAGE))
        assert len(documented) == len(set(documented)), "a code is listed twice"
        emitted = _emitted_codes()
        assert set(documented) == emitted, (
            f"documented only: {sorted(set(documented) - emitted)}; "
            f"emitted only: {sorted(emitted - set(documented))}"
        )

    def test_mutation_count_matches_the_registry(self):
        from repro.verify.mutate import mutation_names

        match = re.search(r"registers (\d+) seeded defects", _read(VERIFY_PAGE))
        assert match, "docs/verify.md no longer states how many seeded defects it registers"
        assert int(match.group(1)) == len(mutation_names())


def _example_files():
    return sorted(
        os.path.join(EXAMPLES_DIR, name)
        for name in os.listdir(EXAMPLES_DIR)
        if name.endswith(".py")
    )


class TestExamples:
    @pytest.mark.parametrize(
        "example", _example_files(), ids=[os.path.basename(p) for p in _example_files()]
    )
    def test_example_compiles(self, example, tmp_path):
        py_compile.compile(
            example, cfile=str(tmp_path / "example.pyc"), doraise=True
        )

    @pytest.mark.parametrize(
        "example", _example_files(), ids=[os.path.basename(p) for p in _example_files()]
    )
    def test_example_runs(self, example):
        env = dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src"))
        result = subprocess.run(
            [sys.executable, example],
            cwd=REPO_ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stdout + result.stderr

    @pytest.mark.parametrize(
        "example", _example_files(), ids=[os.path.basename(p) for p in _example_files()]
    )
    def test_example_has_run_instructions(self, example):
        text = _read(example)
        assert "Run with:" in text, f"{example} lacks a 'Run with:' header line"
