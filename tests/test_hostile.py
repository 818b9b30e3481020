"""Conversion and linearization round trips on hostile graphs.

Each graph goes ``to_arbor`` -> ``arbor_to_relations`` ->
``relations_to_arbor`` -> ``from_arbor`` and through a canonical
write/read (and a PENMAN write/read for AMR).  The result must be
isomorphic to the input, or the run must raise ``GraphError`` or
``FormatError``: never another exception and never a different graph.
Graphs nested deeper than Python's recursion limit are not covered: the
walks recurse once per level.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arbor.convert import from_arbor, to_arbor
from arbor.formats import (
    CanonicalGraphRecord,
    FormatError,
    read_canonical,
    read_penman,
    write_canonical,
    write_penman,
)
from arbor.graph import (
    EOS_LABEL,
    Framework,
    GraphEdge,
    GraphError,
    GraphNode,
    PAD_LABEL,
    ROOT_LABEL,
    SemanticGraph,
    TERMINAL_EDGE,
    UNK_LABEL,
    graph_isomorphic,
)
from arbor.linearize import arbor_to_relations, policy_for, relations_to_arbor

from conftest import AMR_ROLES, DM_LABELS, WORDS

RESERVED = {ROOT_LABEL, EOS_LABEL, UNK_LABEL, PAD_LABEL}


def round_trip(g: SemanticGraph) -> SemanticGraph:
    seq = arbor_to_relations(to_arbor(g), policy_for(g.framework))
    back = from_arbor(relations_to_arbor(seq), g.framework)
    record = CanonicalGraphRecord.from_graph("r", back, [])
    back = read_canonical(write_canonical(record)).graph()
    if g.framework == Framework.AMR:
        back = read_penman(write_penman(back))
    return back


def survives(g: SemanticGraph) -> bool:
    """True if ``g`` round-trips to an isomorphic graph, False if the run
    rejects it with ``GraphError`` or ``FormatError``."""
    try:
        back = round_trip(g)
    except (GraphError, FormatError):
        return False
    assert graph_isomorphic(g, back)
    return True


# Labels with quotes, backslashes, spaces, slashes, parentheses and
# non-ASCII characters; the reserved labels are no natural node labels.
hostile_labels = st.text(
    st.sampled_from(list('ab "\\/():é漢字ß🙂-_.')), min_size=1, max_size=8
).filter(lambda s: s not in RESERVED)


@st.composite
def amr_trees(draw):
    """AMR graphs of hostile labels: a tree plus reentrant edges to later
    nodes, so they stay acyclic."""
    n = draw(st.integers(1, 12))
    nodes = tuple(GraphNode(f"n{i}", draw(hostile_labels)) for i in range(n))
    roles = st.sampled_from(AMR_ROLES)
    edges = [GraphEdge(f"n{draw(st.integers(0, i - 1))}", f"n{i}", draw(roles))
             for i in range(1, n)]
    for _ in range(draw(st.integers(0, n // 2))):
        i, j = sorted(draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                                    unique=True)))
        edge = GraphEdge(f"n{i}", f"n{j}", draw(roles))
        if edge not in edges:
            edges.append(edge)
    return SemanticGraph(Framework.AMR, nodes, tuple(edges), tops=("n0",))


@st.composite
def disconnected_dm_graphs(draw):
    """Anchored DM graphs of several weak components (isolated nodes
    included), edges pointing to later anchors, with or without a top."""
    n = draw(st.integers(1, 12))
    component = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    nodes = tuple(GraphNode(f"t{i}", draw(st.sampled_from(WORDS)), anchors=(i,))
                  for i in range(n))
    edges = set()
    for i in range(n):
        for j in range(i + 1, n):
            if component[i] == component[j] and draw(st.booleans()):
                edges.add(GraphEdge(f"t{i}", f"t{j}", draw(st.sampled_from(DM_LABELS))))
    tops = (f"t{draw(st.integers(0, n - 1))}",) if draw(st.booleans()) else ()
    return SemanticGraph(Framework.DM, nodes, tuple(sorted(edges, key=str)), tops=tops)


def wide_graph(framework: Framework) -> SemanticGraph:
    """One node with 200 children."""
    width = 200
    if framework == Framework.AMR:
        nodes = (GraphNode("h", "hub"),) + tuple(
            GraphNode(f"c{k}", f"leaf{k % 7}") for k in range(width))
        edges = tuple(GraphEdge("h", f"c{k}", AMR_ROLES[k % len(AMR_ROLES)])
                      for k in range(width))
    elif framework == Framework.DM:
        nodes = tuple(GraphNode(f"t{k}", WORDS[k % len(WORDS)], anchors=(k,))
                      for k in range(width + 1))
        edges = tuple(GraphEdge("t0", f"t{k}", DM_LABELS[k % len(DM_LABELS)])
                      for k in range(1, width + 1))
    else:
        nodes = (GraphNode("u", ""),) + tuple(
            GraphNode(f"w{k}", WORDS[k % len(WORDS)], anchors=(k,)) for k in range(width))
        edges = tuple(GraphEdge("u", f"w{k}", TERMINAL_EDGE) for k in range(width))
    tops = (nodes[0].id,)
    return SemanticGraph(framework, nodes, edges, tops=tops)


@pytest.mark.parametrize("framework", list(Framework), ids=lambda f: f.value)
def test_empty_graph(framework):
    # an empty DM graph is a sentence without semantic nodes; AMR and UCCA
    # graphs need a top, so their empty graphs are rejected
    assert survives(SemanticGraph(framework, (), (), ())) == (framework == Framework.DM)


@pytest.mark.parametrize("framework", list(Framework), ids=lambda f: f.value)
def test_wide_graph_round_trips(framework):
    assert survives(wide_graph(framework))


@given(disconnected_dm_graphs())
@settings(max_examples=150, deadline=None)
def test_disconnected_dm_graphs(g):
    assert survives(g)


@given(amr_trees())
@settings(max_examples=150, deadline=None)
def test_hostile_amr_labels_through_penman(g):
    assert survives(g)
