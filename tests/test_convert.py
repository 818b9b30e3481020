import numpy as np
import pytest

from arbor.convert import (
    ConversionTrace,
    amr_restore_senses,
    amr_strip_senses,
    amr_to_arbor,
    arbor_to_amr,
    arbor_to_dm,
    arbor_to_ucca,
    dm_to_arbor,
    from_arbor,
    to_arbor,
    ucca_to_arbor,
)
from arbor.formats import read_penman
from arbor.graph import (
    Arborescence,
    ArborNode,
    Framework,
    GraphEdge,
    GraphError,
    GraphNode,
    NULL_EDGE,
    OF_SUFFIX,
    ROOT_LABEL,
    SemanticGraph,
    TERMINAL_EDGE,
    graph_isomorphic,
    validate_arborescence,
)

from conftest import random_amr_graph, random_dm_graph, random_ucca_graph


def collect(arbor):
    return [(n.label, n.index) for n in arbor.nodes()]


class TestAmr:
    def test_vinken_duplication(self):
        g = read_penman("(e / express-01 :ARG0 (p / person) :ARG1 (c / concern :poss p))")
        arbor = amr_to_arbor(g)
        persons = [n for n in arbor.nodes() if n.label == "person"]
        assert len(persons) == 2
        assert {n.index for n in persons} == {2}
        assert validate_arborescence(arbor).valid

    def test_chain_without_reentrancy(self):
        g = read_penman("(a / alpha :x (b / beta :y (c / gamma)))")
        arbor = amr_to_arbor(g)
        assert collect(arbor) == [("alpha", 1), ("beta", 2), ("gamma", 3)]

    def test_three_incoming_edges_make_two_copies(self):
        nodes = [GraphNode(i, l) for i, l in
                 [("r", "root-c"), ("a", "aa"), ("b", "bb"), ("t", "shared")]]
        edges = [GraphEdge("r", "a", "x"), GraphEdge("r", "b", "y"),
                 GraphEdge("r", "t", "z"), GraphEdge("a", "t", "w"), GraphEdge("b", "t", "v")]
        g = SemanticGraph(Framework.AMR, tuple(nodes), tuple(edges), tops=("r",))
        trace = ConversionTrace()
        arbor = amr_to_arbor(g, trace=trace)
        assert trace.duplicated == {"t": 2}
        shared = [n for n in arbor.nodes() if n.label == "shared"]
        assert len(shared) == 3 and len({n.index for n in shared}) == 1

    def test_children_sorted_alphanumerically(self):
        g = read_penman("(a / alpha :ARG1 (b / bb) :ARG0 (c / cc))")
        arbor = amr_to_arbor(g)
        assert [rel for rel, _ in arbor.root.children] == ["ARG0", "ARG1"]

    def test_unreachable_node_rejected(self):
        nodes = (GraphNode("a", "x"), GraphNode("b", "y"))
        g = SemanticGraph(Framework.AMR, nodes, (), tops=("a",))
        with pytest.raises(GraphError, match="unreachable"):
            amr_to_arbor(g)

    def test_merge_preserves_counts_without_duplicates(self):
        g = read_penman("(a / alpha :x (b / beta) :y (c / gamma))")
        arbor = amr_to_arbor(g)
        back = arbor_to_amr(arbor)
        assert len(back.nodes) == 3 and len(back.edges) == 2

    @pytest.mark.parametrize("seed", range(60))
    def test_fuzzed_round_trip(self, seed):
        g = random_amr_graph(np.random.default_rng(seed))
        arbor = amr_to_arbor(g)
        assert validate_arborescence(arbor).valid
        assert graph_isomorphic(g, arbor_to_amr(arbor))


class TestDm:
    def test_single_edge_top(self):
        g = SemanticGraph(
            Framework.DM,
            (GraphNode("a", "wa", (0,)), GraphNode("b", "wb", (1,))),
            (GraphEdge("a", "b", "ARG1"),),
            tops=("a",),
        )
        arbor = dm_to_arbor(g)
        assert arbor.root.label == "wa"
        assert [(rel, c.label) for rel, c in arbor.root.children] == [("ARG1", "wb")]
        assert graph_isomorphic(g, arbor_to_dm(arbor))

    def test_reversal_adds_of_suffix(self):
        # c is only reachable against edge direction: one reversal expected
        g = SemanticGraph(
            Framework.DM,
            (GraphNode("a", "wa", (0,)), GraphNode("c", "wc", (1,))),
            (GraphEdge("c", "a", "ARG1"),),
            tops=("a",),
        )
        trace = ConversionTrace()
        arbor = dm_to_arbor(g, trace=trace)
        assert len(trace.reversed_edges) == 1
        rels = [rel for rel, _ in arbor.root.children]
        assert rels == ["ARG1" + OF_SUFFIX]
        assert graph_isomorphic(g, arbor_to_dm(arbor))

    def test_of_edge_count_equals_reversals(self):
        rng = np.random.default_rng(123)
        for _ in range(40):
            g = random_dm_graph(rng)
            trace = ConversionTrace()
            arbor = dm_to_arbor(g, trace=trace)
            n_of = sum(
                1
                for node in arbor.nodes()
                for rel, _ in node.children
                if rel.endswith(OF_SUFFIX)
            )
            assert n_of == len(trace.reversed_edges)

    def test_components_joined_by_null_edges(self):
        g = SemanticGraph(
            Framework.DM,
            (GraphNode("a", "wa", (0,)), GraphNode("b", "wb", (1,)),
             GraphNode("c", "wc", (2,)), GraphNode("d", "wd", (3,))),
            (GraphEdge("a", "b", "ARG1"), GraphEdge("c", "d", "ARG2")),
            tops=("a",),
        )
        arbor = dm_to_arbor(g)
        null_children = [c for rel, c in arbor.root.children if rel == NULL_EDGE]
        assert len(null_children) == 1 and null_children[0].label == "wc"
        assert graph_isomorphic(g, arbor_to_dm(arbor))

    def test_topless_graph_gets_synthetic_root(self):
        g = SemanticGraph(
            Framework.DM,
            (GraphNode("a", "wa", (0,)), GraphNode("b", "wb", (1,))),
            (GraphEdge("a", "b", "ARG1"),),
            tops=(),
        )
        arbor = dm_to_arbor(g)
        assert arbor.root.label == ROOT_LABEL
        back = arbor_to_dm(arbor)
        assert back.tops == ()
        assert graph_isomorphic(g, back)

    def test_only_null_edges_from_root_yield_isolated_nodes(self):
        g = SemanticGraph(
            Framework.DM,
            (GraphNode("a", "wa", (0,)), GraphNode("b", "wb", (1,)),
             GraphNode("c", "wc", (2,))),
            (),
            tops=(),
        )
        arbor = dm_to_arbor(g)
        assert all(rel == NULL_EDGE for rel, _ in arbor.root.children)
        back = arbor_to_dm(arbor)
        assert len(back.nodes) == 3 and len(back.edges) == 0
        assert graph_isomorphic(g, back)

    def test_empty_graph(self):
        g = SemanticGraph(Framework.DM, (), (), ())
        back = arbor_to_dm(dm_to_arbor(g))
        assert len(back.nodes) == 0 and len(back.edges) == 0

    def test_empty_of_base_rejected(self):
        root = ArborNode("x", 1, anchors=(0,))
        root.add(OF_SUFFIX, ArborNode("y", 2, anchors=(1,)))
        with pytest.raises(GraphError, match="empty base"):
            arbor_to_dm(Arborescence(root))

    @pytest.mark.parametrize("seed", range(60))
    def test_fuzzed_round_trip(self, seed):
        g = random_dm_graph(np.random.default_rng(1000 + seed))
        arbor = dm_to_arbor(g)
        assert validate_arborescence(arbor).valid
        assert graph_isomorphic(g, arbor_to_dm(arbor))


class TestIndexMerge:
    @staticmethod
    def _two_labels_at_one_index():
        root = ArborNode("x", 1, anchors=(0,))
        root.add("a", ArborNode("y", 2, anchors=(1,)))
        root.add("b", ArborNode("z", 2, anchors=(1,)))
        return Arborescence(root)

    @pytest.mark.parametrize("inverse", [arbor_to_amr, arbor_to_dm])
    def test_label_conflict_in_one_tree(self, inverse):
        with pytest.raises(GraphError, match="index 2 carries labels 'y' and 'z'"):
            inverse(self._two_labels_at_one_index())

    def test_dm_label_conflict_across_null_component(self):
        root = ArborNode("x", 1, anchors=(0,))
        root.add("arg", ArborNode("y", 2, anchors=(1,)))
        other = root.add(NULL_EDGE, ArborNode("w", 3, anchors=(2,)))
        other.add("arg", ArborNode("q", 2, anchors=(1,)))
        with pytest.raises(GraphError, match="index 2 carries labels 'y' and 'q'"):
            arbor_to_dm(Arborescence(root))

    @pytest.mark.parametrize("via", ["b", NULL_EDGE])
    def test_dm_later_anchored_copy_fills_anchors(self, via):
        root = ArborNode("x", 1, anchors=(0,))
        root.add("a", ArborNode("y", 2))
        z = root.add(via, ArborNode("z", 3, anchors=(2,)))
        z.add("c", ArborNode("y", 2, anchors=(1,)))
        back = arbor_to_dm(Arborescence(root))
        assert back.nodes == (GraphNode("n1", "x", (0,)), GraphNode("n2", "y", (1,)),
                              GraphNode("n3", "z", (2,)))
        expected = [("n1", "n2", "a"), ("n3", "n2", "c")]
        if via != NULL_EDGE:
            expected.insert(1, ("n1", "n3", "b"))
        assert [(e.source, e.target, e.label) for e in back.edges] == expected
        assert back.tops == ("n1",)


class TestUcca:
    def _preterminal_fixture(self):
        nodes = (
            GraphNode("root", ""),
            GraphNode("p", ""),
            GraphNode("w0", "Pierre", (0,)),
            GraphNode("w1", "Vinken", (1,)),
        )
        edges = (
            GraphEdge("root", "p", "A"),
            GraphEdge("p", "w0", TERMINAL_EDGE),
            GraphEdge("p", "w1", TERMINAL_EDGE),
        )
        return SemanticGraph(Framework.UCCA, nodes, edges, tops=("root",))

    def test_preterminal_collapse_with_phrase_edge(self):
        arbor = ucca_to_arbor(self._preterminal_fixture())
        assert arbor.root.label == ROOT_LABEL
        (rel, pierre), = arbor.root.children
        assert rel == "A" and pierre.label == "Pierre" and pierre.anchors == (0,)
        (prel, vinken), = pierre.children
        assert prel == "phrase" and vinken.label == "Vinken"

    def test_single_terminal_collapse_no_phrase(self):
        nodes = (GraphNode("r", ""), GraphNode("p", ""), GraphNode("w", "dog", (0,)))
        edges = (GraphEdge("r", "p", "P"), GraphEdge("p", "w", TERMINAL_EDGE))
        g = SemanticGraph(Framework.UCCA, nodes, edges, tops=("r",))
        arbor = ucca_to_arbor(g)
        (rel, child), = arbor.root.children
        assert rel == "P" and child.label == "dog" and not child.children

    def test_nonterminal_label_from_incoming_edge(self):
        nodes = (GraphNode("r", ""), GraphNode("e", ""), GraphNode("w", "dog", (0,)))
        edges = (GraphEdge("r", "e", "E"), GraphEdge("e", "w", TERMINAL_EDGE))
        g = SemanticGraph(Framework.UCCA, nodes, edges, tops=("r",))
        arbor = ucca_to_arbor(g)
        # e is a pre-terminal here, so it collapses; use a non-preterminal
        nodes = (GraphNode("r", ""), GraphNode("e", ""), GraphNode("f", ""),
                 GraphNode("w", "dog", (0,)))
        edges = (GraphEdge("r", "e", "E"), GraphEdge("e", "f", "C"),
                 GraphEdge("f", "w", TERMINAL_EDGE))
        g = SemanticGraph(Framework.UCCA, nodes, edges, tops=("r",))
        arbor = ucca_to_arbor(g)
        (rel, e_node), = arbor.root.children
        assert e_node.label == "E"

    def test_terminal_edge_to_unanchored_rejected(self):
        nodes = (GraphNode("r", ""), GraphNode("x", ""))
        edges = (GraphEdge("r", "x", TERMINAL_EDGE),)
        g = SemanticGraph(Framework.UCCA, nodes, edges, tops=("r",))
        with pytest.raises(GraphError, match="unanchored"):
            ucca_to_arbor(g)

    def test_phrase_under_unanchored_rejected(self):
        root = ArborNode(ROOT_LABEL, 1)
        root.add("phrase", ArborNode("x", 2, anchors=(0,)))
        with pytest.raises(GraphError, match="phrase"):
            arbor_to_ucca(Arborescence(root))

    def test_round_trip_fixture(self):
        g = self._preterminal_fixture()
        assert graph_isomorphic(g, arbor_to_ucca(ucca_to_arbor(g)))

    def test_remote_edge_duplicates(self):
        nodes = (
            GraphNode("r", ""), GraphNode("x", ""), GraphNode("y", ""),
            GraphNode("w0", "a", (0,)), GraphNode("w1", "b", (1,)),
        )
        edges = (
            GraphEdge("r", "x", "P"), GraphEdge("r", "y", "A"),
            GraphEdge("x", "w0", TERMINAL_EDGE), GraphEdge("y", "w1", TERMINAL_EDGE),
            GraphEdge("y", "x", "R"),  # remote second parent of x
        )
        g = SemanticGraph(Framework.UCCA, nodes, edges, tops=("r",))
        arbor = ucca_to_arbor(g)
        a_nodes = [n for n in arbor.nodes() if n.label == "a"]
        assert len(a_nodes) == 2
        assert len({n.index for n in a_nodes}) == 1
        assert graph_isomorphic(g, arbor_to_ucca(arbor))

    @pytest.mark.parametrize("seed", range(60))
    def test_fuzzed_round_trip(self, seed):
        g = random_ucca_graph(np.random.default_rng(2000 + seed))
        arbor = ucca_to_arbor(g)
        assert validate_arborescence(arbor).valid
        assert graph_isomorphic(g, arbor_to_ucca(arbor))


class TestSenses:
    def _amr(self, *labels):
        nodes = tuple(GraphNode(f"n{i}", l) for i, l in enumerate(labels))
        edges = tuple(GraphEdge("n0", f"n{i}", "op") for i in range(1, len(labels)))
        return SemanticGraph(Framework.AMR, nodes, edges, tops=("n0",))

    def test_strip_and_restore(self):
        g = self._amr("express-01", "person")
        stripped, counts = amr_strip_senses(g)
        assert [n.label for n in stripped.nodes] == ["express", "person"]
        assert counts["express"] == {"express-01": 1}
        restored = amr_restore_senses(stripped, {"express": {"express-01": 5}, "person": {"person": 3}})
        assert [n.label for n in restored.nodes] == ["express-01", "person"]

    def test_no_suffix_unchanged_both_ways(self):
        g = self._amr("person")
        stripped, counts = amr_strip_senses(g)
        assert stripped.nodes[0].label == "person"
        restored = amr_restore_senses(stripped, {k: dict(v) for k, v in counts.items()})
        assert restored.nodes[0].label == "person"

    def test_unseen_lemma_defaults_to_01(self):
        g = self._amr("want")
        restored = amr_restore_senses(g, {})
        assert restored.nodes[0].label == "want-01"

    def test_non_lemma_labels_pass_through(self):
        g = self._amr("Pierre", "5")
        restored = amr_restore_senses(g, {})
        assert [n.label for n in restored.nodes] == ["Pierre", "5"]

    def test_most_frequent_wins_ties_lexicographic(self):
        g = self._amr("run")
        restored = amr_restore_senses(g, {"run": {"run-02": 3, "run-01": 3}})
        assert restored.nodes[0].label == "run-01"


class TestDispatch:
    @pytest.mark.parametrize("framework", list(Framework))
    def test_to_from_arbor(self, framework):
        rng = np.random.default_rng(99)
        from conftest import random_graph

        g = random_graph(rng, framework)
        arbor = to_arbor(g)
        assert graph_isomorphic(g, from_arbor(arbor, framework))
