"""Pre-order linearization of arborescences into relation sequences.

The first relation of every sequence has the ROOT pseudo-source
(``@root@``, index 0, relation type ``root``); each later relation's
source is a target emitted earlier.  Child order is fixed by an
``OrderingPolicy`` before traversal, so linearize/delinearize is an exact
structural identity on policy-ordered trees.
"""

from __future__ import annotations

from enum import Enum

from .graph import (
    Arborescence,
    ArborNode,
    Relation,
    RelationSequence,
    ROOT_INDEX,
    ROOT_LABEL,
    ROOT_RELATION,
    validate_arborescence,
)


class LinearizeError(ValueError):
    pass


class OrderingPolicy(Enum):
    """Child ordering used when emitting reference sequences.

    ALPHANUMERIC sorts children by (relation label, child label); used for
    AMR.  SURFACE sorts children by their token anchors; used for DM.
    SOURCE keeps stored child order; used for UCCA, whose canonical input
    preserves annotation order.
    """

    ALPHANUMERIC = "alphanumeric"
    SURFACE = "surface"
    SOURCE = "source"


def policy_for(framework) -> OrderingPolicy:
    value = getattr(framework, "value", framework)
    return {
        "amr": OrderingPolicy.ALPHANUMERIC,
        "dm": OrderingPolicy.SURFACE,
        "ucca": OrderingPolicy.SOURCE,
    }[value]


def _ordered_children(node: ArborNode, policy: OrderingPolicy):
    if policy == OrderingPolicy.SOURCE:
        return list(node.children)
    if policy == OrderingPolicy.ALPHANUMERIC:
        return sorted(node.children, key=lambda rc: (rc[0], rc[1].label))
    return sorted(
        node.children,
        key=lambda rc: min(rc[1].anchors) if rc[1].anchors else float("inf"),
    )


def arbor_to_relations(a: Arborescence, policy: OrderingPolicy) -> RelationSequence:
    """Emit one relation per node by pre-order traversal."""
    report = validate_arborescence(a)
    if not report.valid:
        raise LinearizeError("invalid arborescence: " + "; ".join(report.violations))

    relations: list[Relation] = []

    def emit(source_label: str, source_index: int, rel: str, node: ArborNode):
        relations.append(
            Relation(source_label, source_index, rel, node.label, node.index, node.anchors)
        )
        for child_rel, child in _ordered_children(node, policy):
            emit(node.label, node.index, child_rel, child)

    emit(ROOT_LABEL, ROOT_INDEX, ROOT_RELATION, a.root)
    return RelationSequence(tuple(relations))


def relations_to_arbor(rs: RelationSequence) -> Arborescence:
    """Rebuild the arborescence; inverse of :func:`arbor_to_relations`.

    Sources resolve to the latest preceding target with a matching
    (label, index) pair.  For sequences produced by pre-order traversal
    this is the emitting parent itself, provided no node's subtree
    contains a copy of that same node (conversions of acyclic graphs
    never produce such trees).
    """
    if not rs.relations:
        raise LinearizeError("empty relation sequence")
    first = rs.relations[0]
    if first.source != ROOT_LABEL or first.source_index != ROOT_INDEX:
        raise LinearizeError(
            f"first relation must have the ROOT pseudo-source, got "
            f"({first.source!r}, {first.source_index})"
        )
    root = ArborNode(first.target, first.target_index, anchors=first.target_anchors)
    latest = {(first.target, first.target_index): root}
    for i, rel in enumerate(rs.relations[1:], start=2):
        if rel.source == ROOT_LABEL and rel.source_index == ROOT_INDEX:
            raise LinearizeError(f"second ROOT relation at position {i}")
        parent = latest.get((rel.source, rel.source_index))
        if parent is None:
            raise LinearizeError(
                f"no preceding target matches source ({rel.source!r}, {rel.source_index})")
        node = ArborNode(rel.target, rel.target_index, anchors=rel.target_anchors)
        parent.add(rel.rel, node)
        latest[(rel.target, rel.target_index)] = node
    return Arborescence(root)


def resolve_source(prefix, source: str, source_index: int) -> int:
    """Latest preceding position (1-based) whose target matches; ROOT is 0."""
    if source == ROOT_LABEL and source_index == ROOT_INDEX:
        return 0
    for pos in range(len(prefix), 0, -1):
        rel = prefix[pos - 1]
        if rel.target == source and rel.target_index == source_index:
            return pos
    raise LinearizeError(f"no preceding target matches source ({source!r}, {source_index})")
