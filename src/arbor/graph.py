"""Core data types: semantic graphs, arborescences and relation sequences.

A ``SemanticGraph`` is the framework-specific representation (AMR, DM or
UCCA).  An ``Arborescence`` is the unified rooted ordered tree with node
indices; reentrant nodes appear as duplicated copies sharing one index.
A ``RelationSequence`` is the linearized form consumed and produced by the
transducer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator

# Reserved labels.  These never occur as natural node labels in any of the
# supported input formats.
ROOT_LABEL = "@root@"
ROOT_INDEX = 0
ROOT_RELATION = "root"
EOS_LABEL = "@end@"
UNK_LABEL = "@unk@"
PAD_LABEL = "@pad@"
NULL_EDGE = "null"
PHRASE_EDGE = "phrase"
TERMINAL_EDGE = "terminal"
OF_SUFFIX = "-of"


class GraphError(ValueError):
    """Structural problem in a semantic graph."""


class FrameworkMismatch(GraphError):
    """Operation applied to graphs of different frameworks."""


class Framework(str, Enum):
    AMR = "amr"
    DM = "dm"
    UCCA = "ucca"


@dataclass(frozen=True)
class GraphNode:
    id: str
    label: str = ""
    anchors: tuple[int, ...] | None = None


@dataclass(frozen=True)
class GraphEdge:
    source: str
    target: str
    label: str


@dataclass(frozen=True)
class SemanticGraph:
    framework: Framework
    nodes: tuple[GraphNode, ...]
    edges: tuple[GraphEdge, ...]
    tops: tuple[str, ...] = ()

    def __post_init__(self):
        ids = [n.id for n in self.nodes]
        if len(set(ids)) != len(ids):
            dup = sorted({i for i in ids if ids.count(i) > 1})
            raise GraphError(f"duplicate node ids: {dup}")
        known = set(ids)
        for e in self.edges:
            if e.source not in known or e.target not in known:
                raise GraphError(f"edge {e.source}->{e.target} references unknown node")
            if not e.label:
                raise GraphError(f"edge {e.source}->{e.target} has empty label")
        for t in self.tops:
            if t not in known:
                raise GraphError(f"top {t!r} references unknown node")

    def node_map(self) -> dict[str, GraphNode]:
        return {n.id: n for n in self.nodes}

    def outgoing(self) -> dict[str, list[GraphEdge]]:
        out: dict[str, list[GraphEdge]] = {n.id: [] for n in self.nodes}
        for e in self.edges:
            out[e.source].append(e)
        return out

    def incoming(self) -> dict[str, list[GraphEdge]]:
        inc: dict[str, list[GraphEdge]] = {n.id: [] for n in self.nodes}
        for e in self.edges:
            inc[e.target].append(e)
        return inc


@dataclass
class ArborNode:
    """Node of the unified rooted tree.

    ``index`` ties duplicated copies of a reentrant node together: copies
    carry the original's label and index.  ``anchors`` is carried for
    anchored frameworks (DM, UCCA terminals) so inverse conversion can
    re-anchor nodes; it does not participate in linearization decisions.
    """

    label: str
    index: int
    children: list[tuple[str, "ArborNode"]] = field(default_factory=list)
    anchors: tuple[int, ...] | None = None

    def add(self, relation: str, child: "ArborNode") -> "ArborNode":
        self.children.append((relation, child))
        return child


@dataclass
class Arborescence:
    root: ArborNode

    def nodes(self) -> Iterator[ArborNode]:
        """Pre-order traversal in stored child order."""
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(child for _, child in reversed(node.children))

    def size(self) -> int:
        return sum(1 for _ in self.nodes())


@dataclass(frozen=True)
class Relation:
    """One step of the transduction: edge ``source -rel-> target``.

    ``target_anchors`` is optional bookkeeping for anchored frameworks and
    is ignored by structural comparisons of decoded output against vocab
    labels; it simply rides along through linearization round trips.
    """

    source: str
    source_index: int
    rel: str
    target: str
    target_index: int
    target_anchors: tuple[int, ...] | None = None

    def astuple(self) -> tuple[str, int, str, str, int]:
        return (self.source, self.source_index, self.rel, self.target, self.target_index)


@dataclass(frozen=True)
class RelationSequence:
    relations: tuple[Relation, ...]
    eos: bool = True
    truncated: bool = False

    def __len__(self) -> int:
        return len(self.relations)


@dataclass
class ValidationReport:
    violations: list[str] = field(default_factory=list)

    @property
    def valid(self) -> bool:
        return not self.violations

    def __bool__(self) -> bool:
        return self.valid


def validate_arborescence(arbor: Arborescence) -> ValidationReport:
    """Check tree shape, index positivity and index/label coherence."""
    report = ValidationReport()
    seen: set[int] = set()
    label_by_index: dict[int, str] = {}
    stack = [arbor.root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            report.violations.append(
                f"node {node.label!r}#{node.index} reachable twice (not a tree)"
            )
            continue
        seen.add(id(node))
        if node.index <= 0:
            report.violations.append(f"node {node.label!r} has non-positive index {node.index}")
        prev = label_by_index.get(node.index)
        if prev is None:
            label_by_index[node.index] = node.label
        elif prev != node.label:
            report.violations.append(
                f"index {node.index} carries labels {prev!r} and {node.label!r}"
            )
        stack.extend(child for _, child in node.children)
    return report


def weak_components(g: SemanticGraph) -> list[list[str]]:
    """Node ids of each weakly connected component, in node order."""
    adj: dict[str, set[str]] = {n.id: set() for n in g.nodes}
    for e in g.edges:
        adj[e.source].add(e.target)
        adj[e.target].add(e.source)
    seen: set[str] = set()
    components = []
    for n in g.nodes:
        if n.id in seen:
            continue
        stack, members = [n.id], []
        seen.add(n.id)
        while stack:
            cur = stack.pop()
            members.append(cur)
            for nxt in adj[cur]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        components.append(members)
    return components


def _node_signature(g: SemanticGraph, node: GraphNode, out: dict, inc: dict) -> tuple:
    return (
        node.label,
        node.anchors,
        node.id in g.tops,
        tuple(sorted(e.label for e in out[node.id])),
        tuple(sorted(e.label for e in inc[node.id])),
    )


def check_same_framework(g1: SemanticGraph, g2: SemanticGraph) -> None:
    """Raise ``FrameworkMismatch`` if the two graphs differ in framework."""
    if g1.framework != g2.framework:
        raise FrameworkMismatch(f"{g1.framework.value} vs {g2.framework.value}")


def graph_isomorphic(g1: SemanticGraph, g2: SemanticGraph) -> bool:
    """Label-, anchor-, edge- and top-preserving isomorphism test.

    Backtracking search over nodes grouped by a local signature; intended
    for the graph sizes this toolkit works with (well under a hundred
    nodes), not as a general-purpose isomorphism routine.
    """
    check_same_framework(g1, g2)
    if len(g1.nodes) != len(g2.nodes) or len(g1.edges) != len(g2.edges):
        return False
    if len(g1.tops) != len(g2.tops):
        return False

    out1, inc1 = g1.outgoing(), g1.incoming()
    out2, inc2 = g2.outgoing(), g2.incoming()
    sig2: dict[tuple, list[GraphNode]] = {}
    for n in g2.nodes:
        sig2.setdefault(_node_signature(g2, n, out2, inc2), []).append(n)
    groups1: dict[tuple, list[GraphNode]] = {}
    for n in g1.nodes:
        groups1.setdefault(_node_signature(g1, n, out1, inc1), []).append(n)
    if {k: len(v) for k, v in groups1.items()} != {k: len(v) for k, v in sig2.items()}:
        return False

    # Most-constrained-first ordering keeps the search shallow.
    order = sorted(g1.nodes, key=lambda n: len(sig2[_node_signature(g1, n, out1, inc1)]))

    edge_mult1: dict[tuple[str, str], list[str]] = {}
    for e in g1.edges:
        edge_mult1.setdefault((e.source, e.target), []).append(e.label)
    edge_mult2: dict[tuple[str, str], list[str]] = {}
    for e in g2.edges:
        edge_mult2.setdefault((e.source, e.target), []).append(e.label)

    mapping: dict[str, str] = {}
    used: set[str] = set()

    def consistent(n1: str, n2: str) -> bool:
        if sorted(edge_mult1.get((n1, n1), [])) != sorted(edge_mult2.get((n2, n2), [])):
            return False
        for m1, m2 in mapping.items():
            if sorted(edge_mult1.get((n1, m1), [])) != sorted(edge_mult2.get((n2, m2), [])):
                return False
            if sorted(edge_mult1.get((m1, n1), [])) != sorted(edge_mult2.get((m2, n2), [])):
                return False
        return True

    def extend(k: int) -> bool:
        if k == len(order):
            return sorted(mapping[t] for t in g1.tops) == sorted(g2.tops)
        n1 = order[k]
        for cand in sig2[_node_signature(g1, n1, out1, inc1)]:
            if cand.id in used:
                continue
            if not consistent(n1.id, cand.id):
                continue
            mapping[n1.id] = cand.id
            used.add(cand.id)
            if extend(k + 1):
                return True
            del mapping[n1.id]
            used.discard(cand.id)
        return False

    return extend(0)
