"""Unit tests for repro.dfg.graph and repro.dfg.node."""

import os
import subprocess
import sys
import textwrap

import pytest

from repro.dfg.graph import DFG
from repro.dfg.node import DFGEdge, DFGNode, default_name
from repro.dfg.opcodes import OpCode
from repro.errors import DFGValidationError, UnknownNodeError

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
        assert diamond_dfg.fanout(a.node_id) == 2
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

    def test_to_networkx_preserves_structure(self, diamond_dfg):
        graph = diamond_dfg.to_networkx()
        assert graph.number_of_nodes() == len(diamond_dfg)
        assert graph.number_of_edges() == len(diamond_dfg.edges())

    def test_subgraph_converts_severed_nodes_to_inputs(self, diamond_dfg):
        ops = [n.node_id for n in diamond_dfg.operations()]
        sub = diamond_dfg.subgraph(ops)
        # The ADD/SUB lost their input operands and become boundary inputs.
        assert sub.num_operations < diamond_dfg.num_operations or sub.num_inputs > 0

    def test_operation_listing_excludes_io(self, gradient):
        ops = gradient.operations()
        assert all(o.is_operation for o in ops)
        assert len(ops) == 11


class TestTopologicalOrder:
    def test_matches_networkx_lexicographic_sort(self, gradient, diamond_dfg):
        import networkx as nx

        for dfg in (gradient, diamond_dfg):
            expected = list(nx.lexicographical_topological_sort(dfg.to_networkx()))
            assert dfg.topological_order() == expected

    def test_memo_invalidated_by_add_node(self, diamond_dfg):
        before = diamond_dfg.topological_order()
        diamond_dfg.new_node(OpCode.INPUT)
        after = diamond_dfg.topological_order()
        assert len(after) == len(before) + 1

    def test_survives_pre_memo_pickles(self, gradient):
        """DFGs unpickled from an old REPRO_CACHE_DIR lack _topo_cache."""
        expected = gradient.topological_order()
        del gradient.__dict__["_topo_cache"]
        assert gradient.topological_order() == expected


class TestNetworkxAbsent:
    """networkx is optional: only :meth:`DFG.to_networkx` imports it."""

    def test_toolchain_runs_without_networkx(self):
        script = textwrap.dedent(
            """
            import sys
            sys.modules["networkx"] = None  # import networkx -> ImportError
            sys.path.insert(0, {src!r})

            from repro import Toolchain
            from repro.kernels.library import GRADIENT_C_SOURCE
            from repro.specs import OverlaySpec, SimSpec

            tc = Toolchain()
            handle = tc.compile(source=GRADIENT_C_SOURCE, overlay=OverlaySpec("v3"), check=True)
            assert not tc.verify(handle, use_cache=False).diagnostics
            cycle, fast, batched = (
                tc.simulate(handle, SimSpec(engine=engine, num_blocks=9))
                for engine in ("cycle", "fast", "batched")
            )
            assert cycle == fast == batched and cycle.matches_reference
            try:
                handle.schedule.dfg.to_networkx()
            except ImportError:
                print("NETWORKX-ABSENT-OK")
            """
        ).format(src=SRC_DIR)
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        assert "NETWORKX-ABSENT-OK" in proc.stdout
