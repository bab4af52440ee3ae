"""The data-flow graph (DFG) container.

The DFG is the central IR of the tool flow: the frontend produces it, the
schedulers consume it, and the reference evaluator executes it.  It is a DAG
of :class:`~repro.dfg.node.DFGNode` objects; edges carry the operand position
so that non-commutative operations (SUB, SHL, ...) keep their operand order.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..errors import DFGValidationError, UnknownNodeError
from .node import DFGEdge, DFGNode
from .opcodes import OpCode


class DerivedValues:
    """Values a graph's nodes determine, shared by the graph and its copies.

    :meth:`DFG.copy` hands its clone the same object and :meth:`DFG.add_node`
    detaches its graph from it, so every graph holding one has the same
    nodes.  Each field is computed on first use and never changes after,
    except that a field kept under the graph's name is rebuilt for a graph
    of another name; concurrent readers may compute a field twice, and both
    store an equal value, so no lock is needed.  The evaluators hold
    exec-compiled code, which does not pickle, so a pickled graph (a disk
    cache entry, a graph sent to a worker) leaves them behind and builds
    them again on first use.
    """

    __slots__ = (
        "topological_order",
        "asap_levels",
        "fingerprint",
        "value_uses",
        "dfg_diagnostics",
        "stream_evaluator",
        "vector_stream_evaluator",
    )

    def __init__(self) -> None:
        #: :meth:`DFG.topological_order`.
        self.topological_order: Optional[List[int]] = None
        #: Node id -> ASAP level (:func:`repro.dfg.analysis.asap_levels`).
        self.asap_levels: Optional[Dict[int, int]] = None
        #: ``(graph name, content hash)``: the hash covers the name, so
        #: :func:`repro.dfg.serialize.dfg_fingerprint` reuses it only for
        #: a graph of the same name.
        self.fingerprint: Optional[Tuple[str, str]] = None
        #: One ``(id, is_input, operation consumer ids, feeds_output)`` per
        #: input and operation, in id order
        #: (:func:`repro.dfg.analysis.value_lifetimes` reads it).
        self.value_uses: Optional[Tuple[Tuple[int, bool, Tuple[int, ...], bool], ...]] = None
        #: The verifier's DFG verdict, a tuple of diagnostics
        #: (:attr:`repro.verify.engine.VerifyContext.dfg_diagnostics`).  The
        #: checks never read the graph's name, so renamed copies share it.
        self.dfg_diagnostics: Optional[Tuple[object, ...]] = None
        #: ``(graph name, StreamEvaluator)``
        #: (:func:`repro.kernels.reference.stream_evaluator`).
        self.stream_evaluator: Optional[Tuple[str, object]] = None
        #: ``(graph name, VectorStreamEvaluator)``
        #: (:func:`repro.kernels.reference.vector_stream_evaluator`).
        self.vector_stream_evaluator: Optional[Tuple[str, object]] = None

    def __getstate__(self) -> Tuple[None, Dict[str, object]]:
        state = {name: getattr(self, name, None) for name in self.__slots__}
        state["stream_evaluator"] = state["vector_stream_evaluator"] = None
        return None, state


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
        self._derived: Optional[DerivedValues] = None

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
        # The derived values of the old node set may be shared with copies:
        # detach from them rather than clear them.
        self._derived = None
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
    def derived(self) -> DerivedValues:
        """The memo of values derived from this graph's nodes (see
        :class:`DerivedValues`); analyses read and fill it."""
        # getattr: DFGs unpickled from an older disk cache lack the
        # attribute entirely; they must keep working, not crash.
        derived = getattr(self, "_derived", None)
        if derived is None:
            derived = self._derived = DerivedValues()
        return derived

    def topological_order(self) -> List[int]:
        """Node ids in a deterministic topological order (smallest ready id first).

        Matches networkx's lexicographical topological sort, run directly
        on the internal indices with a binary heap, and memoises the result
        in :meth:`derived`: every ASAP/ALAP levelization and depth query on
        the hot compile path calls it.

        Raises
        ------
        DFGValidationError
            If the graph contains a cycle.
        """
        derived = self.derived()
        cached = derived.topological_order
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
        derived.topological_order = order
        return list(order)

    def copy(self, name: Optional[str] = None) -> "DFG":
        """Copy the graph; either side may then gain nodes independently.

        Nodes are immutable, so the clone shares them, and it shares the
        :meth:`derived` values too until either graph gains a node.  The
        clone equals re-adding every node in id order to an empty graph:
        each ``consumers()`` list in (consumer id, position) order and the
        next id one past the largest.  The source is already valid, so no
        node is validated again.
        """
        clone = DFG(name=name or self.name)
        ids = sorted(self._nodes)
        clone._nodes = {node_id: self._nodes[node_id] for node_id in ids}
        clone._consumers = {node_id: sorted(self._consumers[node_id]) for node_id in ids}
        clone._next_id = ids[-1] + 1 if ids else 1
        clone._derived = self.derived()
        return clone

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DFG(name={self.name!r}, inputs={self.num_inputs}, "
            f"outputs={self.num_outputs}, ops={self.num_operations})"
        )
