"""Incremental frontend: DFG caching and content-hash invalidation.

Covers the satellite requirement "AST/compile-cache hit/miss and
invalidation-on-source-change tests" for the frontend half of the chain; the
backend half (schedule/binary) is covered in ``tests/test_compile_cache.py``.
"""

import threading

import pytest

from repro.dfg.serialize import canonical_json, dfg_fingerprint
from repro.errors import ParseError
from repro.frontend import (
    FrontendCache,
    ast_fingerprint,
    default_frontend_cache,
    lower_ast,
    parse_ast,
    parse_c_kernel,
    source_hash,
)
from repro.kernels.library import CHEBYSHEV_C_SOURCE, GRADIENT_C_SOURCE
from repro.kernels.reference import evaluate_dfg

SOURCE = "int f(int a, int b) { return a * b + 1; }"
EDITED = "int f(int a, int b) { return a * b + 2; }"
RELAID_OUT = "int f(int a,\n      int b)\n{\n    // same kernel, new layout\n    return a * b + 1;\n}"


class TestSourceHash:
    def test_stable_and_content_sensitive(self):
        assert source_hash(SOURCE) == source_hash(SOURCE)
        assert source_hash(SOURCE) != source_hash(EDITED)

    def test_whitespace_changes_the_source_hash(self):
        # The source hash is byte-exact; layout-insensitivity lives at the
        # AST fingerprint level instead.
        assert source_hash(SOURCE) != source_hash(RELAID_OUT)


class TestAstFingerprint:
    def test_ignores_layout_and_comments(self):
        assert ast_fingerprint(parse_ast(SOURCE)) == ast_fingerprint(parse_ast(RELAID_OUT))

    def test_sensitive_to_structure(self):
        assert ast_fingerprint(parse_ast(SOURCE)) != ast_fingerprint(parse_ast(EDITED))


class TestDfgLayer:
    def test_lru_eviction(self):
        cache = FrontendCache(capacity=2)
        cache.dfg("int a(int x) { return x + 1; }")
        cache.dfg("int b(int x) { return x + 1; }")
        cache.dfg("int c(int x) { return x + 1; }")
        assert len(cache) == 2
        cache.dfg("int a(int x) { return x + 1; }")  # evicted -> miss again
        assert cache.stats.dfg_misses == 4 and cache.stats.dfg_hits == 0

    def test_copies_are_fresh_but_identical(self):
        cache = FrontendCache()
        d1 = cache.dfg(SOURCE)
        d2 = cache.dfg(SOURCE)
        assert d1 is not d2
        assert canonical_json(d1) == canonical_json(d2)
        assert cache.stats.dfg_hits == 1 and cache.stats.dfg_misses == 1

    def test_mutating_a_returned_copy_does_not_poison_the_cache(self):
        cache = FrontendCache()
        d1 = cache.dfg(SOURCE)
        d1.name = "mutated"
        assert cache.dfg(SOURCE).name == "f"

    def test_name_and_optimizer_flag_are_part_of_the_key(self):
        cache = FrontendCache()
        cache.dfg(SOURCE)
        cache.dfg(SOURCE, name="renamed")
        cache.dfg(SOURCE, run_optimizer=False)
        assert cache.stats.dfg_misses == 3
        assert cache.dfg(SOURCE, name="renamed").name == "renamed"

    def test_invalidation_on_source_change(self):
        cache = FrontendCache()
        before = cache.dfg(SOURCE)
        after = cache.dfg(EDITED)
        assert dfg_fingerprint(before) != dfg_fingerprint(after)
        assert evaluate_dfg(before, [3, 4]) == [13]
        assert evaluate_dfg(after, [3, 4]) == [14]

    def test_semantic_errors_reraise_on_every_call(self):
        cache = FrontendCache()
        bad = "int f(int a) { return ghost; }"
        for _ in range(2):
            with pytest.raises(ParseError, match="undefined variable"):
                cache.dfg(bad)


class TestPublicEntryPoint:
    def test_parse_c_kernel_uses_the_default_cache(self):
        cache = default_frontend_cache()
        baseline = cache.stats.dfg_hits
        parse_c_kernel(CHEBYSHEV_C_SOURCE)
        parse_c_kernel(CHEBYSHEV_C_SOURCE)
        assert cache.stats.dfg_hits > baseline

    def test_cached_parse_equals_direct_lowering(self):
        direct = lower_ast(parse_ast(GRADIENT_C_SOURCE))
        cached = parse_c_kernel(GRADIENT_C_SOURCE)
        assert canonical_json(direct) == canonical_json(cached)

    def test_thread_safety_of_shared_cache(self):
        cache = FrontendCache()
        errors = []

        def worker():
            try:
                for _ in range(20):
                    d = cache.dfg(SOURCE)
                    assert evaluate_dfg(d, [2, 5]) == [11]
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors

    def test_clear_resets_everything(self):
        cache = FrontendCache()
        cache.dfg(SOURCE)
        assert len(cache) > 0
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.lookups == 0
