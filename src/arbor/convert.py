"""Reversible conversions between framework graphs and arborescences.

Each framework gets a ``*_to_arbor`` / ``arbor_to_*`` pair that round-trips
up to isomorphism:

* AMR: reentrant nodes are duplicated into leaf copies sharing the
  original's index; merging identically indexed nodes inverts this.
* DM: the graph is split into weakly connected components.  Per component
  the top (else the max-outdegree node) becomes the root, a depth-first
  traversal builds the initial tree, and remaining edges are folded in by
  repeatedly reversing (with a ``-of`` label suffix) the first incoming
  edge found by breadth-first search and continuing depth-first from the
  reversed edge's source.  Components are joined by ``null`` edges from
  the top component's root; topless graphs get a synthetic ``@root@``
  root so the inverse can tell the two cases apart.
* UCCA: pre-terminal nodes collapse into their first terminal, remaining
  terminals attach via ``phrase`` edges, and every surviving non-terminal
  is labelled with its incoming edge label (the root gets ``@root@``).
  Canonical UCCA graphs attach terminals through ``terminal``-labelled
  edges, which is what lets the inverse distinguish collapsed
  pre-terminals from direct terminal children.

Node indices are assigned in first-visit order starting at 1; duplicated
copies reuse the original's index, so reconstruction is a merge on equal
indices.
"""

from __future__ import annotations

import re
from collections import Counter, deque
from collections.abc import Mapping

from .graph import (
    Arborescence,
    ArborNode,
    Framework,
    GraphEdge,
    GraphError,
    GraphNode,
    NULL_EDGE,
    OF_SUFFIX,
    PHRASE_EDGE,
    ROOT_LABEL,
    SemanticGraph,
    TERMINAL_EDGE,
    weak_components,
)


def _renumber_preorder(root: ArborNode) -> None:
    """Reassign indices in pre-order of the final tree.

    Fresh nodes then carry exactly the position at which a decoder would
    emit them, so reference sequences agree with the decode-time index
    rule; copies keep sharing their original's (renumbered) index.
    """
    mapping: dict[int, int] = {}

    def walk(node: ArborNode):
        if node.index not in mapping:
            mapping[node.index] = len(mapping) + 1
        node.index = mapping[node.index]
        for _, child in node.children:
            walk(child)

    walk(root)


def _anchor_key(node: GraphNode) -> tuple:
    a = min(node.anchors) if node.anchors else float("inf")
    return (a, node.label, node.id)


class _IndexAllocator:
    def __init__(self):
        self.by_id: dict[str, int] = {}
        self.next = 1

    def assign(self, node_id: str) -> int:
        idx = self.next
        self.by_id[node_id] = idx
        self.next += 1
        return idx


# ---------------------------------------------------------------------------
# AMR


def amr_to_arbor(g: SemanticGraph) -> Arborescence:
    """Duplicate reentrant nodes into indexed leaf copies.

    Children are explored in (edge label, child label) order, which is the
    same ordering later used to linearize AMR references, so conversion
    output is already in reference child order.
    """
    if g.framework != Framework.AMR:
        raise GraphError(f"amr_to_arbor requires an AMR graph, got {g.framework.value}")
    if len(g.tops) != 1:
        raise GraphError(f"AMR graph must have exactly one top, got {len(g.tops)}")

    node_map = g.node_map()
    out = g.outgoing()
    indices = _IndexAllocator()

    def expand(node_id: str) -> ArborNode:
        arbor = ArborNode(node_map[node_id].label, indices.assign(node_id))
        edges = sorted(out[node_id], key=lambda e: (e.label, node_map[e.target].label, e.target))
        for e in edges:
            if e.target in indices.by_id:
                copy = ArborNode(node_map[e.target].label, indices.by_id[e.target])
                arbor.add(e.label, copy)
            else:
                arbor.add(e.label, expand(e.target))
        return arbor

    root = expand(g.tops[0])
    if len(indices.by_id) != len(g.nodes):
        missing = sorted(set(node_map) - set(indices.by_id))
        raise GraphError(f"nodes unreachable from the AMR root: {missing}")
    _renumber_preorder(root)
    return Arborescence(root)


def arbor_to_amr(a: Arborescence) -> SemanticGraph:
    """Merge identically indexed nodes back into a graph."""
    merged, edges, (root_id,) = _merge_by_index([a.root])
    nodes = tuple(GraphNode(id=nid, label=lbl) for nid, (lbl, _) in merged.items())
    return SemanticGraph(Framework.AMR, nodes, tuple(edges), tops=(root_id,))


def _merge_by_index(roots: list[ArborNode]):
    """Collapse one or more arborescences on node indices.

    Returns ``(merged, edges, root_ids)`` where ``merged`` maps node id to
    ``(label, anchors)`` in first-visit order across ``roots``; a copy
    without anchors takes them from a later anchored copy.  Raises on
    index/label incoherence.
    """
    merged: dict[str, tuple[str, tuple[int, ...] | None]] = {}
    edges: list[GraphEdge] = []

    def node_id(n: ArborNode) -> str:
        nid = f"n{n.index}"
        if nid in merged:
            label, anchors = merged[nid]
            if label != n.label:
                raise GraphError(f"index {n.index} carries labels {label!r} and {n.label!r}")
            if anchors is None and n.anchors is not None:
                merged[nid] = (label, n.anchors)
        else:
            merged[nid] = (n.label, n.anchors)
        return nid

    def walk(n: ArborNode):
        nid = node_id(n)
        for rel, child in n.children:
            edges.append(GraphEdge(nid, node_id(child), rel))
            walk(child)

    for root in roots:
        walk(root)
    return merged, edges, [f"n{root.index}" for root in roots]


# ---------------------------------------------------------------------------
# DM


def dm_to_arbor(g: SemanticGraph) -> Arborescence:
    """Convert a bi-lexical dependency graph; any DM graph is convertible.

    Ordering decisions use node anchors: children are attached in surface
    order.
    """
    if g.framework != Framework.DM:
        raise GraphError(f"dm_to_arbor requires a DM graph, got {g.framework.value}")

    node_map = g.node_map()
    indices = _IndexAllocator()
    covered: set[int] = set()

    out_k: dict[str, list[tuple[int, GraphEdge]]] = {n.id: [] for n in g.nodes}
    for k, e in enumerate(g.edges):
        out_k[e.source].append((k, e))

    def make_node(node_id: str) -> ArborNode:
        n = node_map[node_id]
        return ArborNode(n.label, indices.assign(node_id), anchors=n.anchors)

    def make_copy(node_id: str) -> ArborNode:
        n = node_map[node_id]
        return ArborNode(n.label, indices.by_id[node_id], anchors=n.anchors)

    def expand(node_id: str, arbor: ArborNode):
        pending = sorted(
            (ke for ke in out_k[node_id] if ke[0] not in covered),
            key=lambda ke: (_anchor_key(node_map[ke[1].target]), ke[1].label),
        )
        for k, e in pending:
            covered.add(k)
            if e.target in indices.by_id:
                arbor.add(e.label, make_copy(e.target))
            else:
                child = make_node(e.target)
                arbor.add(e.label, child)
                expand(e.target, child)

    def component_root(members: list[str]) -> str:
        for t in g.tops:  # a top in the component wins, in top order
            if t in members:
                return t
        return min(members, key=lambda nid: (-len(out_k[nid]), *_anchor_key(node_map[nid])))

    def convert_component(members: list[str]) -> ArborNode:
        member_set = set(members)
        root_id = component_root(members)
        root = make_node(root_id)
        expand(root_id, root)
        comp_edges = [(k, e) for k, e in enumerate(g.edges) if e.source in member_set]
        while True:
            uncovered = [(k, e) for k, e in comp_edges if k not in covered]
            if not uncovered:
                break
            found = _bfs_first_with_uncovered(root, uncovered, indices.by_id)
            if found is None:
                raise GraphError("DM conversion failed to cover all edges")
            arbor_node, found_edges = found
            # Reverse every uncovered incoming edge of this node at once.
            # Reversing only one would let the following depth-first pass
            # visit the other sources and duplicate this node into its own
            # subtree, which makes source resolution in the linearized
            # form ambiguous.
            found_edges.sort(key=lambda ke: (_anchor_key(node_map[ke[1].source]), ke[1].label))
            covered.update(k for k, _ in found_edges)
            for k, e in found_edges:
                if e.source in indices.by_id:
                    arbor_node.add(e.label + OF_SUFFIX, make_copy(e.source))
                else:
                    child = make_node(e.source)
                    arbor_node.add(e.label + OF_SUFFIX, child)
                    expand(e.source, child)
        return root

    def sort_children(node: ArborNode):
        node.children.sort(
            key=lambda rc: min(rc[1].anchors) if rc[1].anchors else float("inf")
        )
        for _, child in node.children:
            sort_children(child)

    components = weak_components(g)
    components.sort(key=lambda mem: min(_anchor_key(node_map[m]) for m in mem))
    if not components:
        return Arborescence(ArborNode(ROOT_LABEL, 1))

    if g.tops:
        primary = next(k for k, mem in enumerate(components) if g.tops[0] in mem)
        ordered = [components[primary]] + [c for k, c in enumerate(components) if k != primary]
        roots = [convert_component(c) for c in ordered]
        root = roots[0]
        for other in roots[1:]:
            root.add(NULL_EDGE, other)
    else:
        # No top: a synthetic root marks the distinction for the inverse.
        root = ArborNode(ROOT_LABEL, indices.next)
        indices.next += 1
        for members in components:
            root.add(NULL_EDGE, convert_component(members))
    # final surface ordering so conversion output is already in the child
    # order used for reference linearization; indices then follow emission
    # order
    sort_children(root)
    _renumber_preorder(root)
    return Arborescence(root)


def _bfs_first_with_uncovered(root: ArborNode, uncovered, index_by_id):
    """First arborescence node (BFS, queue order) whose graph node has
    uncovered incoming edges, together with all of those edges."""
    incoming: dict[int, list] = {}
    for k, e in uncovered:
        if e.target in index_by_id:
            incoming.setdefault(index_by_id[e.target], []).append((k, e))
    queue = deque([root])
    while queue:
        node = queue.popleft()
        candidates = incoming.get(node.index)
        if candidates:
            return node, candidates
        queue.extend(child for _, child in node.children)
    return None


def arbor_to_dm(a: Arborescence) -> SemanticGraph:
    """Remove null edges, merge equal indices, reverse ``-of`` edges."""
    roots: list[ArborNode] = []
    synthetic = a.root.label == ROOT_LABEL and a.root.anchors is None

    def cut_nulls(node: ArborNode) -> ArborNode:
        kept = []
        for rel, child in node.children:
            sub = cut_nulls(child)
            if rel == NULL_EDGE:
                roots.append(sub)
            else:
                kept.append((rel, sub))
        return ArborNode(node.label, node.index, kept, node.anchors)

    trimmed = cut_nulls(a.root)
    comp_roots = roots if synthetic else [trimmed] + roots

    merged, edges, root_ids = _merge_by_index(comp_roots)

    final_edges = []
    for e in edges:
        if e.label.endswith(OF_SUFFIX):
            base = e.label[: -len(OF_SUFFIX)]
            if not base:
                raise GraphError("edge label '-of' has an empty base label")
            final_edges.append(GraphEdge(e.target, e.source, base))
        else:
            final_edges.append(e)

    nodes = tuple(GraphNode(nid, lbl, anch) for nid, (lbl, anch) in merged.items())
    tops = () if synthetic or not root_ids else (root_ids[0],)
    return SemanticGraph(Framework.DM, nodes, tuple(final_edges), tops)


# ---------------------------------------------------------------------------
# UCCA


def ucca_to_arbor(g: SemanticGraph) -> Arborescence:
    """Collapse pre-terminals, label non-terminals from incoming edges.

    A node with anchors is a terminal; terminals must be leaves and must be
    attached through ``terminal``-labelled edges.  A second parent of any
    node is treated as a reentrancy and duplicated like in AMR conversion.
    """
    if g.framework != Framework.UCCA:
        raise GraphError(f"ucca_to_arbor requires a UCCA graph, got {g.framework.value}")
    if len(g.tops) != 1:
        raise GraphError(f"UCCA graph must have exactly one top, got {len(g.tops)}")

    node_map = g.node_map()
    out = g.outgoing()

    for n in g.nodes:
        if n.anchors is not None and out[n.id]:
            raise GraphError(f"terminal {n.id!r} has outgoing edges")
    for e in g.edges:
        tgt = node_map[e.target]
        if e.label == TERMINAL_EDGE and tgt.anchors is None:
            raise GraphError(f"terminal edge into unanchored node {e.target!r}")
        if tgt.anchors is not None and e.label != TERMINAL_EDGE:
            raise GraphError(
                f"terminal {e.target!r} attached via {e.label!r}; expected 'terminal'"
            )

    def is_preterminal(node_id: str) -> bool:
        children = out[node_id]
        return bool(children) and all(node_map[e.target].anchors is not None for e in children)

    indices = _IndexAllocator()
    placed: dict[str, ArborNode] = {}

    def visit(node_id: str, incoming_label: str | None) -> ArborNode:
        if node_id in placed:
            original = placed[node_id]
            return ArborNode(original.label, original.index, anchors=original.anchors)
        node = node_map[node_id]
        if node.anchors is not None:  # direct terminal under a mixed node
            arbor = ArborNode(node.label, indices.assign(node_id), anchors=node.anchors)
            placed[node_id] = arbor
            return arbor
        if is_preterminal(node_id):
            terminals = sorted((node_map[e.target] for e in out[node_id]), key=_anchor_key)
            first, rest = terminals[0], terminals[1:]
            arbor = ArborNode(first.label, indices.assign(node_id), anchors=first.anchors)
            placed[node_id] = arbor
            placed.setdefault(first.id, arbor)
            for t in rest:
                phrase = ArborNode(t.label, indices.assign(t.id), anchors=t.anchors)
                placed.setdefault(t.id, phrase)
                arbor.add(PHRASE_EDGE, phrase)
            return arbor
        label = incoming_label if incoming_label is not None else ROOT_LABEL
        arbor = ArborNode(label, indices.assign(node_id))
        placed[node_id] = arbor
        for e in out[node_id]:  # stored order
            arbor.add(e.label, visit(e.target, e.label))
        return arbor

    root = visit(g.tops[0], None)
    unreached = sorted(set(node_map) - set(placed))
    if unreached:
        raise GraphError(f"UCCA nodes unreachable from the root: {unreached}")
    _renumber_preorder(root)
    return Arborescence(root)


def arbor_to_ucca(a: Arborescence) -> SemanticGraph:
    """Expand pre-terminal subgraphs and strip non-terminal labels."""
    merged, edges, (root_id,) = _merge_by_index([a.root])

    children: dict[str, list[GraphEdge]] = {nid: [] for nid in merged}
    parents: dict[str, list[GraphEdge]] = {nid: [] for nid in merged}
    for e in edges:
        children[e.source].append(e)
        parents[e.target].append(e)

    for nid, (_, anchors) in merged.items():
        if anchors is None and any(e.label == PHRASE_EDGE for e in children[nid]):
            raise GraphError(f"phrase edge under unanchored node {nid!r}")

    def expand_needed(nid: str) -> bool:
        _, anchors = merged[nid]
        if anchors is None:
            return False
        if nid == root_id:
            return True
        if any(e.label == PHRASE_EDGE for e in children[nid]):
            return True
        # phrase edges are absorbed by the emitting parent's expansion
        return any(e.label not in (TERMINAL_EDGE, PHRASE_EDGE) for e in parents[nid])

    nodes: dict[str, GraphNode] = {}
    for nid, (label, anchors) in merged.items():
        if anchors is None:
            nodes[nid] = GraphNode(nid, "", None)  # labels were added by conversion
        else:
            nodes[nid] = GraphNode(nid, label, anchors)

    redirected: dict[str, str] = {}
    extra_edges: list[GraphEdge] = []
    absorbed_phrase: set[tuple[str, str]] = set()
    new_count = 0
    top = root_id
    for nid in list(merged):
        if not expand_needed(nid):
            continue
        pt_id = f"p{new_count}"
        new_count += 1
        nodes[pt_id] = GraphNode(pt_id, "", None)
        redirected[nid] = pt_id
        extra_edges.append(GraphEdge(pt_id, nid, TERMINAL_EDGE))
        for e in children[nid]:
            if e.label == PHRASE_EDGE:
                extra_edges.append(GraphEdge(pt_id, e.target, TERMINAL_EDGE))
                absorbed_phrase.add((nid, e.target))
        if nid == root_id:
            top = pt_id

    out_edges: list[GraphEdge] = []
    for e in edges:
        if e.label == PHRASE_EDGE and (e.source, e.target) in absorbed_phrase:
            continue
        out_edges.append(GraphEdge(e.source, redirected.get(e.target, e.target), e.label))
    out_edges.extend(extra_edges)

    return SemanticGraph(Framework.UCCA, tuple(nodes.values()), tuple(out_edges), tops=(top,))


# ---------------------------------------------------------------------------
# AMR sense handling


SENSE_SUFFIX = re.compile(r"-\d\d$")
_LEMMA_SHAPE = re.compile(r"^[a-z][a-z0-9]*(?:-[a-z0-9]+)*$")


def amr_strip_senses(g: SemanticGraph) -> tuple[SemanticGraph, dict[str, Counter]]:
    """Remove trailing two-digit sense suffixes, recording observed forms.

    The returned table maps each stripped label to a counter of the full
    labels it was observed as (bare observations included), so restoration
    can also decide to leave non-predicates alone.
    """
    counts: dict[str, Counter] = {}
    new_nodes = []
    for n in g.nodes:
        stripped = SENSE_SUFFIX.sub("", n.label)
        counts.setdefault(stripped, Counter())[n.label] += 1
        new_nodes.append(GraphNode(n.id, stripped, n.anchors))
    return SemanticGraph(g.framework, tuple(new_nodes), g.edges, g.tops), counts


def amr_restore_senses(g: SemanticGraph, counts: Mapping[str, Mapping[str, int]]
                       ) -> SemanticGraph:
    """Attach the most frequent observed form per label.

    Labels never observed in training default to ``label-01`` when they
    look like a predicate lemma (lowercase letters, digits, hyphens);
    copied names, numbers and constants pass through unchanged.
    """
    new_nodes = []
    for n in g.nodes:
        table = counts.get(n.label)
        if table:
            best = max(sorted(table), key=lambda k: table[k])
            new_nodes.append(GraphNode(n.id, best, n.anchors))
        elif _LEMMA_SHAPE.match(n.label) and not SENSE_SUFFIX.search(n.label):
            new_nodes.append(GraphNode(n.id, n.label + "-01", n.anchors))
        else:
            new_nodes.append(GraphNode(n.id, n.label, n.anchors))
    return SemanticGraph(g.framework, tuple(new_nodes), g.edges, g.tops)


# ---------------------------------------------------------------------------
# Dispatch helpers


def to_arbor(g: SemanticGraph) -> Arborescence:
    if g.framework == Framework.AMR:
        return amr_to_arbor(g)
    if g.framework == Framework.DM:
        return dm_to_arbor(g)
    return ucca_to_arbor(g)


def from_arbor(a: Arborescence, framework: Framework) -> SemanticGraph:
    if framework == Framework.AMR:
        return arbor_to_amr(a)
    if framework == Framework.DM:
        return arbor_to_dm(a)
    return arbor_to_ucca(a)
