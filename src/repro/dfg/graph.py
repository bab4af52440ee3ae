"""The data-flow graph (DFG) container.

The DFG is the central IR of the tool flow: the frontend produces it, the
schedulers consume it, and the reference evaluator executes it.  It is a DAG
of :class:`~repro.dfg.node.DFGNode` objects; edges carry the operand position
so that non-commutative operations (SUB, SHL, ...) keep their operand order.

A `networkx.DiGraph` view is available through :meth:`DFG.to_networkx` for
callers that want the networkx toolbox; the library itself never needs it
(networkx is imported only when that view is built).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..errors import DFGValidationError, UnknownNodeError
from .node import DFGEdge, DFGNode
from .opcodes import OpCode

if TYPE_CHECKING:
    import networkx as nx


class DFG:
    """A data-flow graph for a single compute kernel.

    Nodes are added through :meth:`add_node` (usually via
    :class:`~repro.dfg.builder.DFGBuilder` or a frontend) and are immutable
    once added.  The graph maintains producer/consumer indices so that the
    schedulers can query fan-out cheaply.
    """

    def __init__(self, name: str = "kernel"):
        self.name = name
        self._nodes: Dict[int, DFGNode] = {}
        self._consumers: Dict[int, List[Tuple[int, int]]] = {}
        self._next_id = 1
        self._topo_cache: Optional[List[int]] = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def allocate_id(self) -> int:
        """Reserve and return the next free node id."""
        node_id = self._next_id
        self._next_id += 1
        return node_id

    def add_node(self, node: DFGNode) -> DFGNode:
        """Add a fully-formed node to the graph.

        Raises
        ------
        DFGValidationError
            If the id is already used or an operand references a missing node.
        """
        if node.node_id in self._nodes:
            raise DFGValidationError(f"duplicate node id {node.node_id}")
        for operand in node.operands:
            if operand not in self._nodes:
                raise DFGValidationError(
                    f"node {node.node_id} ({node.opcode.name}) references "
                    f"unknown operand {operand}"
                )
        self._nodes[node.node_id] = node
        self._consumers.setdefault(node.node_id, [])
        for position, operand in enumerate(node.operands):
            self._consumers[operand].append((node.node_id, position))
        if node.node_id >= self._next_id:
            self._next_id = node.node_id + 1
        self._topo_cache = None
        return node

    def new_node(
        self,
        opcode: OpCode,
        operands: Sequence[int] = (),
        name: str = "",
        value: Optional[int] = None,
    ) -> DFGNode:
        """Create a node with a fresh id and add it to the graph."""
        node = DFGNode(
            node_id=self.allocate_id(),
            opcode=opcode,
            operands=tuple(operands),
            name=name,
            value=value,
        )
        return self.add_node(node)

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    def node(self, node_id: int) -> DFGNode:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise UnknownNodeError(f"no node with id {node_id}") from None

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def __iter__(self) -> Iterator[DFGNode]:
        return iter(self.nodes())

    def nodes(self) -> List[DFGNode]:
        """All nodes in id (creation) order."""
        return [self._nodes[i] for i in sorted(self._nodes)]

    def node_ids(self) -> List[int]:
        return sorted(self._nodes)

    def edges(self) -> List[DFGEdge]:
        """All data edges, ordered by (consumer id, operand position)."""
        result: List[DFGEdge] = []
        for node in self.nodes():
            for position, operand in enumerate(node.operands):
                result.append(DFGEdge(operand, node.node_id, position))
        result.sort(key=lambda e: (e.consumer, e.operand_index))
        return result

    def inputs(self) -> List[DFGNode]:
        """Primary input nodes, in id order."""
        return [n for n in self.nodes() if n.is_input]

    def outputs(self) -> List[DFGNode]:
        """Primary output nodes, in id order."""
        return [n for n in self.nodes() if n.is_output]

    def constants(self) -> List[DFGNode]:
        return [n for n in self.nodes() if n.is_const]

    def operations(self) -> List[DFGNode]:
        """Compute nodes (the ones that become FU instructions)."""
        return [n for n in self.nodes() if n.is_operation]

    def consumers(self, node_id: int) -> List[Tuple[int, int]]:
        """List of ``(consumer id, operand position)`` pairs for a node."""
        if node_id not in self._nodes:
            raise UnknownNodeError(f"no node with id {node_id}")
        return list(self._consumers[node_id])

    def consumer_ids(self, node_id: int) -> List[int]:
        return [c for c, _ in self.consumers(node_id)]

    def producers(self, node_id: int) -> List[int]:
        """Operand ids of a node (its producers), in operand order."""
        return list(self.node(node_id).operands)

    def fanout(self, node_id: int) -> int:
        return len(self.consumers(node_id))

    # ------------------------------------------------------------------
    # derived quantities used throughout the paper
    # ------------------------------------------------------------------
    @property
    def num_inputs(self) -> int:
        return len(self.inputs())

    @property
    def num_outputs(self) -> int:
        return len(self.outputs())

    @property
    def num_operations(self) -> int:
        """The paper's ``#Ops`` column: number of arithmetic/ALU nodes."""
        return len(self.operations())

    @property
    def io_signature(self) -> str:
        """The paper's ``I/O`` column, e.g. ``"7/1"`` for qspline."""
        return f"{self.num_inputs}/{self.num_outputs}"

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    def to_networkx(self) -> nx.DiGraph:
        """Return a ``networkx.DiGraph`` view of the DFG.

        Node attributes: ``opcode`` (name string), ``name``, ``value``.
        Edge attributes: ``operand_index``.
        """
        import networkx as nx

        graph = nx.DiGraph(name=self.name)
        for node in self.nodes():
            graph.add_node(
                node.node_id,
                opcode=node.opcode.name,
                name=node.name,
                value=node.value,
            )
        for edge in self.edges():
            graph.add_edge(edge.producer, edge.consumer, operand_index=edge.operand_index)
        return graph

    def topological_order(self) -> List[int]:
        """Node ids in a deterministic topological order (smallest ready id first).

        Matches networkx's lexicographical topological sort but runs
        directly on the internal indices with a binary heap and memoises the
        result until the next :meth:`add_node`.  This sits on the hot
        compile path — every ASAP/ALAP levelization and depth query calls
        it — so it must not materialise a ``DiGraph`` per call.

        Raises
        ------
        DFGValidationError
            If the graph contains a cycle.
        """
        # getattr: DFGs unpickled from a pre-overhaul disk cache lack the
        # memo attribute entirely; they must keep working, not crash.
        cached = getattr(self, "_topo_cache", None)
        if cached is not None:
            return list(cached)
        import heapq

        indegree = {
            node_id: len(set(node.operands)) for node_id, node in self._nodes.items()
        }
        ready = [node_id for node_id, degree in indegree.items() if degree == 0]
        heapq.heapify(ready)
        order: List[int] = []
        while ready:
            node_id = heapq.heappop(ready)
            order.append(node_id)
            for consumer in set(c for c, _ in self._consumers[node_id]):
                indegree[consumer] -= 1
                if indegree[consumer] == 0:
                    heapq.heappush(ready, consumer)
        if len(order) != len(self._nodes):
            raise DFGValidationError(f"DFG {self.name!r} contains a cycle")
        self._topo_cache = order
        return list(order)

    def copy(self, name: Optional[str] = None) -> "DFG":
        """Deep-copy the graph (nodes are immutable so they are shared)."""
        clone = DFG(name=name or self.name)
        for node in self.nodes():
            clone.add_node(node)
        return clone

    def subgraph(self, node_ids: Iterable[int], name: Optional[str] = None) -> "DFG":
        """Return the induced subgraph over ``node_ids``.

        Operand references to nodes outside the selection are dropped, so the
        result is mainly useful for visualisation and cluster inspection, not
        for execution.
        """
        keep = set(node_ids)
        clone = DFG(name=name or f"{self.name}_sub")
        for node in self.nodes():
            if node.node_id not in keep:
                continue
            operands = tuple(o for o in node.operands if o in keep)
            if (node.opcode.is_compute or node.is_output) and len(operands) != len(
                node.operands
            ):
                # A compute node that lost operands becomes a boundary input of
                # the induced subgraph.
                replacement = DFGNode(
                    node_id=node.node_id,
                    opcode=OpCode.INPUT,
                    operands=(),
                    name=node.name,
                )
            else:
                replacement = DFGNode(
                    node_id=node.node_id,
                    opcode=node.opcode,
                    operands=operands,
                    name=node.name,
                    value=node.value,
                )
            clone.add_node(replacement)
        return clone

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DFG(name={self.name!r}, inputs={self.num_inputs}, "
            f"outputs={self.num_outputs}, ops={self.num_operations})"
        )
