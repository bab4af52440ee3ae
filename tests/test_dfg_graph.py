"""Unit tests for repro.dfg.graph and repro.dfg.node."""

import hashlib
import os
import pickle
import subprocess
import sys
import textwrap
import threading

import pytest

from repro.dfg import serialize
from repro.dfg.analysis import (
    asap_levels,
    asap_stage_assignment,
    dfg_depth,
    level_sets,
    value_lifetimes,
)
from repro.dfg.graph import DFG
from repro.dfg.node import DFGEdge, DFGNode, default_name
from repro.dfg.opcodes import OpCode
from repro.dfg.serialize import canonical_json, dfg_fingerprint
from repro.errors import DFGValidationError, UnknownNodeError
from repro.frontend import cache as frontend_cache
from repro.kernels import library
from repro.kernels.generators import random_dfg

SRC_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


class TestDFGNode:
    def test_const_requires_value(self):
        with pytest.raises(ValueError):
            DFGNode(node_id=1, opcode=OpCode.CONST)

    def test_non_const_rejects_value(self):
        with pytest.raises(ValueError):
            DFGNode(node_id=1, opcode=OpCode.INPUT, value=3)

    def test_operand_count_checked_for_compute_nodes(self):
        with pytest.raises(ValueError):
            DFGNode(node_id=2, opcode=OpCode.ADD, operands=(1,))

    def test_default_name_matches_paper_style(self):
        assert default_name(6, OpCode.SUB) == "SUB_N6"
        assert default_name(1, OpCode.INPUT) == "I_N1"

    def test_with_operands_returns_new_node(self):
        node = DFGNode(node_id=3, opcode=OpCode.ADD, operands=(1, 2))
        changed = node.with_operands((2, 1))
        assert changed.operands == (2, 1)
        assert node.operands == (1, 2)

    def test_classification_properties(self):
        const = DFGNode(node_id=1, opcode=OpCode.CONST, value=5)
        assert const.is_const and not const.is_operation


class TestDFGConstruction:
    def test_new_node_allocates_sequential_ids(self):
        dfg = DFG("t")
        a = dfg.new_node(OpCode.INPUT)
        b = dfg.new_node(OpCode.INPUT)
        assert b.node_id == a.node_id + 1

    def test_duplicate_id_rejected(self):
        dfg = DFG("t")
        node = dfg.new_node(OpCode.INPUT)
        with pytest.raises(DFGValidationError):
            dfg.add_node(DFGNode(node_id=node.node_id, opcode=OpCode.INPUT))

    def test_dangling_operand_rejected(self):
        dfg = DFG("t")
        with pytest.raises(DFGValidationError):
            dfg.add_node(DFGNode(node_id=5, opcode=OpCode.ADD, operands=(1, 2)))

    def test_unknown_node_lookup_raises(self):
        dfg = DFG("t")
        with pytest.raises(UnknownNodeError):
            dfg.node(99)
        with pytest.raises(UnknownNodeError):
            dfg.consumers(99)


class TestDFGQueries:
    def test_counts_and_signature(self, diamond_dfg):
        assert diamond_dfg.num_inputs == 2
        assert diamond_dfg.num_outputs == 1
        assert diamond_dfg.num_operations == 3
        assert diamond_dfg.io_signature == "2/1"

    def test_consumers_and_fanout(self, diamond_dfg):
        inputs = diamond_dfg.inputs()
        a = inputs[0]
        # 'a' feeds both the ADD and the SUB.
        assert len(diamond_dfg.consumers(a.node_id)) == 2
        consumer_ops = {
            diamond_dfg.node(c).opcode for c in diamond_dfg.consumer_ids(a.node_id)
        }
        assert consumer_ops == {OpCode.ADD, OpCode.SUB}

    def test_edges_carry_operand_positions(self, diamond_dfg):
        edges = diamond_dfg.edges()
        assert all(isinstance(e, DFGEdge) for e in edges)
        # Binary ops contribute two edges each, output contributes one.
        assert len(edges) == 3 * 2 + 1

    def test_topological_order_respects_dependencies(self, diamond_dfg):
        order = diamond_dfg.topological_order()
        position = {node_id: i for i, node_id in enumerate(order)}
        for edge in diamond_dfg.edges():
            assert position[edge.producer] < position[edge.consumer]

    def test_len_and_iteration(self, diamond_dfg):
        assert len(diamond_dfg) == len(list(diamond_dfg))

    def test_copy_is_independent(self, diamond_dfg):
        clone = diamond_dfg.copy()
        clone.new_node(OpCode.INPUT)
        assert len(clone) == len(diamond_dfg) + 1

    def test_operation_listing_excludes_io(self, gradient):
        ops = gradient.operations()
        assert all(o.is_operation for o in ops)
        assert len(ops) == 11


class TestTopologicalOrder:
    def test_matches_networkx_lexicographic_sort(self, gradient, diamond_dfg):
        import networkx as nx

        for dfg in (gradient, diamond_dfg):
            graph = nx.DiGraph()
            graph.add_nodes_from(node.node_id for node in dfg.nodes())
            graph.add_edges_from((edge.producer, edge.consumer) for edge in dfg.edges())
            expected = list(nx.lexicographical_topological_sort(graph))
            assert dfg.topological_order() == expected

    def test_memo_invalidated_by_add_node(self, diamond_dfg):
        before = diamond_dfg.topological_order()
        diamond_dfg.new_node(OpCode.INPUT)
        after = diamond_dfg.topological_order()
        assert len(after) == len(before) + 1

    def test_survives_pre_memo_pickles(self, gradient):
        """DFGs unpickled from an old REPRO_CACHE_DIR lack _derived."""
        expected = gradient.topological_order()
        del gradient.__dict__["_derived"]
        assert gradient.topological_order() == expected


class TestNetworkxAbsent:
    """networkx is optional: the library never imports it."""

    def test_toolchain_runs_without_networkx(self):
        script = textwrap.dedent(
            """
            import sys
            sys.modules["networkx"] = None  # import networkx -> ImportError
            sys.path.insert(0, {src!r})

            from repro import Toolchain
            from repro.kernels.library import GRADIENT_C_SOURCE
            from repro.specs import OverlaySpec, SimSpec
            from repro.verify import VerifyContext, run_passes

            tc = Toolchain()
            handle = tc.compile(source=GRADIENT_C_SOURCE, overlay=OverlaySpec("v3"), check=True)
            assert not run_passes(VerifyContext.from_handle(handle)).diagnostics
            cycle, fast, batched = (
                tc.simulate(handle, SimSpec(engine=engine, num_blocks=9))
                for engine in ("cycle", "fast", "batched")
            )
            assert cycle == fast == batched and cycle.matches_reference
            print("NETWORKX-ABSENT-OK")
            """
        ).format(src=SRC_DIR)
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        assert "NETWORKX-ABSENT-OK" in proc.stdout


def _readded(dfg):
    """What ``copy()`` must equal: every node re-added in id order."""
    clone = DFG(name=dfg.name)
    for node in dfg.nodes():
        clone.add_node(node)
    return clone


def _out_of_order_dfg():
    """Consumers added out of id order, and an id reserved past the last node."""
    dfg = DFG("shuffled")
    for node in (
        DFGNode(node_id=1, opcode=OpCode.INPUT, name="a"),
        DFGNode(node_id=5, opcode=OpCode.NEG, operands=(1,)),
        DFGNode(node_id=3, opcode=OpCode.NOT, operands=(1,)),
        DFGNode(node_id=6, opcode=OpCode.MUL, operands=(3, 5)),
        DFGNode(node_id=7, opcode=OpCode.OUTPUT, operands=(6,), name="o"),
    ):
        dfg.add_node(node)
    assert dfg.consumers(1) == [(5, 0), (3, 0)]
    dfg.allocate_id()
    return dfg


def _copy_cases():
    for name in library.kernel_names():
        yield library.get_kernel(name)
    for seed in range(40):
        yield random_dfg(2 + seed % 3, 3 + seed % 26, seed=seed)
    yield _out_of_order_dfg()


class TestCopy:
    def test_copy_equals_readding_every_node(self):
        for dfg in _copy_cases():
            copy, expected = dfg.copy(), _readded(dfg)
            assert copy.nodes() == expected.nodes(), dfg.name
            for node_id in expected.node_ids():
                assert copy.consumers(node_id) == expected.consumers(node_id), dfg.name
            assert copy.allocate_id() == expected.allocate_id(), dfg.name

    def test_copy_keeps_the_name_unless_given_one(self, diamond_dfg):
        assert diamond_dfg.copy().name == "diamond"
        assert diamond_dfg.copy(name="other").name == "other"


def _fresh_hash(dfg):
    return hashlib.sha256(canonical_json(dfg).encode("utf-8")).hexdigest()


def _values(dfg):
    lifetimes = value_lifetimes(dfg, asap_stage_assignment(dfg))
    return dfg_fingerprint(dfg), asap_levels(dfg), dfg.topological_order(), lifetimes


class TestDerivedValues:
    """A graph and its copies share one memo until either gains a node."""

    def test_two_library_copies_hash_and_level_once(self, monkeypatch):
        # Cold library and frontend caches, so nothing is memoised yet.
        monkeypatch.setattr(library, "_CACHE", {})
        monkeypatch.setattr(frontend_cache, "_DEFAULT_CACHE", frontend_cache.FrontendCache())
        first, second = library.get_kernel("poly7"), library.get_kernel("poly7")
        assert first is not second
        reference = _readded(first)
        expected = _values(reference), dfg_depth(reference), level_sets(reference)
        calls = {"canonical_json": 0, "levelisations": 0}
        real_json, real_order = serialize.canonical_json, DFG.topological_order

        def counting_json(dfg):
            calls["canonical_json"] += 1
            return real_json(dfg)

        def counting_order(dfg):
            # Each ASAP levelisation walks the topological order once.
            calls["levelisations"] += 1
            return real_order(dfg)

        monkeypatch.setattr(serialize, "canonical_json", counting_json)
        monkeypatch.setattr(DFG, "topological_order", counting_order)
        assert dfg_fingerprint(first) == dfg_fingerprint(second) == expected[0][0]
        assert asap_levels(first) == asap_levels(second) == expected[0][1]
        assert dfg_depth(second) == expected[1]
        assert level_sets(first) == expected[2]
        assert set(asap_stage_assignment(second)) == {n.node_id for n in second.operations()}
        assert calls == {"canonical_json": 1, "levelisations": 1}

    def test_levels_are_the_callers_own_copy(self, gradient):
        levels = asap_levels(gradient)
        levels.clear()
        assert asap_levels(gradient.copy()) == asap_levels(_readded(gradient))

    def test_a_graph_that_gains_a_node_detaches_from_its_copies(self, diamond_dfg):
        before = _values(diamond_dfg)
        clone = diamond_dfg.copy()
        assert _values(clone) == before
        out = clone.outputs()[0].operands[0]
        clone.new_node(OpCode.OUTPUT, operands=(clone.new_node(OpCode.NEG, (out,)).node_id,))
        assert _values(clone) == _values(_readded(clone))
        assert dfg_fingerprint(clone) == _fresh_hash(clone) != before[0]
        assert max(asap_levels(clone).values()) == 3
        # ... and the source neither reads the clone's values nor loses its own.
        assert _values(diamond_dfg) == before
        diamond_dfg.new_node(OpCode.INPUT)
        assert _values(diamond_dfg) == _values(_readded(diamond_dfg))
        assert _values(clone) == _values(_readded(clone))

    def test_a_copy_under_another_name_hashes_again(self, diamond_dfg):
        original = dfg_fingerprint(diamond_dfg)
        renamed = diamond_dfg.copy(name="other")
        assert dfg_fingerprint(renamed) == _fresh_hash(renamed) != original
        assert dfg_fingerprint(diamond_dfg) == original == _fresh_hash(diamond_dfg)

    def test_a_rename_after_hashing_hashes_again(self, diamond_dfg):
        original = dfg_fingerprint(diamond_dfg)
        diamond_dfg.name = "renamed"
        assert dfg_fingerprint(diamond_dfg) == _fresh_hash(diamond_dfg) != original

    def test_copies_racing_to_fill_the_memo_read_complete_values(self):
        # Threads share copies of one graph; whichever fills a value first,
        # no reader may see it half built.  Each round races on a new graph.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, to expose races
        try:
            for seed in range(10):
                source = random_dfg(5, 200, seed=seed)
                reference = _readded(source)
                expected = (_values(reference), dfg_depth(reference), level_sets(reference))
                copies = [source.copy() for _ in range(8)]
                barrier = threading.Barrier(len(copies))
                seen = [None] * len(copies)

                def worker(index):
                    copy = copies[index]
                    barrier.wait()
                    depth, groups = dfg_depth(copy), level_sets(copy)
                    seen[index] = (_values(copy), depth, groups)

                threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(copies))]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                assert seen == [expected] * len(copies), seed
        finally:
            sys.setswitchinterval(interval)

    def test_an_unpickled_graph_without_the_memo_still_works(self, gradient):
        expected = _values(gradient)
        restored = pickle.loads(pickle.dumps(gradient))
        del restored.__dict__["_derived"]  # as pickled before the memo existed
        assert _values(restored) == expected
        assert _values(restored.copy()) == expected
