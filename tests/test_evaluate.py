import warnings

import numpy as np
import pytest

from arbor.evaluate import (
    F1Report,
    SmatchError,
    labeled_triple_f1,
    linear_fit_r2,
    smatch_score,
    validity_audit,
)
from arbor.graph import Framework, GraphEdge, GraphNode, SemanticGraph

from conftest import random_amr_graph, random_dm_graph


def dm_graph(nodes, edges, tops=()):
    return SemanticGraph(
        Framework.DM,
        tuple(GraphNode(i, l, a) for i, l, a in nodes),
        tuple(GraphEdge(*e) for e in edges),
        tuple(tops),
    )


def amr_graph(nodes, edges, tops):
    return SemanticGraph(
        Framework.AMR,
        tuple(GraphNode(i, l) for i, l in nodes),
        tuple(GraphEdge(*e) for e in edges),
        tuple(tops),
    )


FOUR_EDGE = dm_graph(
    [("a", "wa", (0,)), ("b", "wb", (1,)), ("c", "wc", (2,)), ("d", "wd", (3,))],
    [("a", "b", "ARG1"), ("a", "c", "ARG2"), ("c", "d", "ARG1")],
    tops=("a",),
)


class TestLabeledTripleF1:
    def test_identical_graphs(self):
        rep = labeled_triple_f1(FOUR_EDGE, FOUR_EDGE)
        assert rep.precision == rep.recall == rep.f1 == 1.0

    def test_missing_edge_recall(self):
        pred = dm_graph(
            [("a", "wa", (0,)), ("b", "wb", (1,)), ("c", "wc", (2,)), ("d", "wd", (3,))],
            [("a", "b", "ARG1"), ("a", "c", "ARG2")],
            tops=("a",),
        )
        rep = labeled_triple_f1(FOUR_EDGE, pred)
        # four gold triples (three edges + top), three predicted
        assert rep.precision == 1.0
        assert rep.recall == pytest.approx(0.75)

    def test_disjoint_graphs(self):
        pred = dm_graph([("x", "zz", (9,))], [], tops=("x",))
        rep = labeled_triple_f1(FOUR_EDGE, pred)
        assert rep.f1 == 0.0

    def test_anchor_identity_not_node_ids(self):
        renamed = dm_graph(
            [("q", "wa", (0,)), ("r", "wb", (1,)), ("s", "wc", (2,)), ("t", "wd", (3,))],
            [("q", "r", "ARG1"), ("q", "s", "ARG2"), ("s", "t", "ARG1")],
            tops=("q",),
        )
        assert labeled_triple_f1(FOUR_EDGE, renamed).f1 == 1.0

    def test_amr_routed_to_smatch(self):
        g = amr_graph([("a", "alpha")], [], tops=("a",))
        rep = labeled_triple_f1(g, g)
        assert rep.f1 == 1.0  # scored by smatch, not anchors

    def test_ucca_unanchored_nodes_matched_by_yield(self):
        g1 = SemanticGraph(
            Framework.UCCA,
            (GraphNode("r", ""), GraphNode("w0", "a", (0,)), GraphNode("w1", "b", (1,))),
            (GraphEdge("r", "w0", "terminal"), GraphEdge("r", "w1", "terminal")),
            ("r",),
        )
        g2 = SemanticGraph(
            Framework.UCCA,
            (GraphNode("x", ""), GraphNode("t0", "a", (0,)), GraphNode("t1", "b", (1,))),
            (GraphEdge("x", "t0", "terminal"), GraphEdge("x", "t1", "terminal")),
            ("x",),
        )
        assert labeled_triple_f1(g1, g2).f1 == 1.0


class TestSmatch:
    def test_graph_vs_itself(self):
        g = amr_graph([("a", "want-01"), ("b", "person")], [("a", "b", "ARG0")], ("a",))
        for mode in ("exact", "hill_climb"):
            assert smatch_score(g, g, mode=mode).f1 == 1.0

    def test_single_node_mismatch_zero(self):
        a = amr_graph([("x", "alpha")], [], ("x",))
        b = amr_graph([("y", "beta")], [], ("y",))
        assert smatch_score(a, b, mode="exact").f1 == 0.0

    def test_variable_renaming_invariant(self):
        a = amr_graph([("x", "go-02"), ("y", "city")], [("x", "y", "ARG4")], ("x",))
        b = amr_graph([("q", "go-02"), ("p", "city")], [("q", "p", "ARG4")], ("q",))
        assert smatch_score(a, b, mode="exact").f1 == 1.0

    def test_one_wrong_edge_label(self):
        a = amr_graph([("x", "go-02"), ("y", "city"), ("z", "person")],
                      [("x", "y", "ARG4"), ("x", "z", "ARG0")], ("x",))
        b = amr_graph([("q", "go-02"), ("p", "city"), ("r", "person")],
                      [("q", "p", "ARG3"), ("q", "r", "ARG0")], ("q",))
        exact = smatch_score(a, b, mode="exact")
        climb = smatch_score(a, b, mode="hill_climb")
        assert exact.matched == 4  # 3 instances + 1 edge
        assert exact.f1 == climb.f1

    def test_exact_limit_enforced(self):
        nodes = [(f"v{i}", "n") for i in range(11)]
        g = amr_graph(nodes, [], (nodes[0][0],))
        with pytest.raises(SmatchError, match="10"):
            smatch_score(g, g, mode="exact")

    def test_include_top_flag(self):
        a = amr_graph([("x", "alpha")], [], ("x",))
        b = amr_graph([("y", "alpha")], [], ("y",))
        without = smatch_score(a, b, mode="exact", include_top=False)
        with_top = smatch_score(a, b, mode="exact", include_top=True)
        assert without.gold == 1 and with_top.gold == 2
        assert with_top.f1 == 1.0

    def test_different_sizes(self):
        a = amr_graph([("x", "alpha"), ("y", "beta")], [("x", "y", "mod")], ("x",))
        b = amr_graph([("q", "alpha")], [], ("q",))
        rep = smatch_score(a, b, mode="exact")
        assert rep.matched == 1
        assert rep.recall == pytest.approx(1 / 3)
        assert rep.precision == 1.0

    @pytest.mark.parametrize("seed", range(25))
    def test_hill_climb_agrees_with_exact_on_small_fixtures(self, seed):
        rng = np.random.default_rng(seed)
        gold = random_amr_graph(rng, max_nodes=6)
        if rng.random() < 0.5:
            pred = random_amr_graph(rng, max_nodes=6)
        else:  # perturbed copy: realistic near-miss
            labels = [n.label for n in gold.nodes]
            nodes = tuple(
                GraphNode(n.id, labels[(i + 1) % len(labels)] if rng.random() < 0.3
                          else n.label)
                for i, n in enumerate(gold.nodes)
            )
            pred = SemanticGraph(Framework.AMR, nodes, gold.edges, gold.tops)
        exact = smatch_score(gold, pred, mode="exact")
        climb = smatch_score(gold, pred, mode="hill_climb")
        assert climb.f1 == pytest.approx(exact.f1, abs=1e-12)

    def test_hill_climb_finds_mapping_without_label_matches(self):
        # No concept label matches, so a label-first start that fills every
        # image leaves the one scoring mapping (gold v0->v1, v1->v2) a
        # 3-cycle away, which no single swap improves towards.
        gold = amr_graph([("v0", "thing"), ("v1", "thing"), ("v2", "city")],
                         [("v0", "v1", "ARG1"), ("v0", "v2", "time"), ("v1", "v2", "op2")],
                         ("v0",))
        pred = amr_graph([("v0", "dog"), ("v1", "dog"), ("v2", "person")],
                         [("v0", "v1", "ARG3"), ("v1", "v2", "ARG1"), ("v1", "v2", "poss")],
                         ("v0",))
        for include_top, f1 in ((False, 1 / 6), (True, 1 / 7)):
            exact = smatch_score(gold, pred, mode="exact", include_top=include_top)
            climb = smatch_score(gold, pred, mode="hill_climb", include_top=include_top)
            assert exact.matched == climb.matched == 1
            assert climb.f1 == pytest.approx(f1, abs=1e-12)


class TestValidityAudit:
    def test_duplicate_arg1_flagged(self):
        g = amr_graph([("a", "x"), ("b", "y"), ("c", "z")],
                      [("a", "b", "ARG1"), ("a", "c", "ARG1")], ("a",))
        report = validity_audit([g])
        assert report.invalid == 1
        assert report.rate == 1.0

    def test_distinct_functional_labels_ok(self):
        g = amr_graph([("a", "x"), ("b", "y"), ("c", "z")],
                      [("a", "b", "ARG0"), ("a", "c", "ARG1")], ("a",))
        assert validity_audit([g]).invalid == 0

    def test_non_functional_duplicates_ok(self):
        g = amr_graph([("a", "x"), ("b", "y"), ("c", "z")],
                      [("a", "b", "mod"), ("a", "c", "mod")], ("a",))
        assert validity_audit([g]).invalid == 0

    def test_empty_set_rate_is_none(self):
        report = validity_audit([])
        assert report.total == 0 and report.rate is None


class TestLinearFit:
    def test_perfect_line(self):
        xs = [1, 2, 3, 4, 5]
        ys = [2.0 * x + 1.0 for x in xs]
        assert linear_fit_r2(xs, ys) == pytest.approx(1.0)

    def test_noisy_line_still_high(self):
        rng = np.random.default_rng(0)
        xs = np.arange(5, 85, 5)
        ys = 3.0 * xs + rng.normal(0, 2.0, size=len(xs))
        assert linear_fit_r2(xs, ys) > 0.95

    def test_quadratic_lower(self):
        xs = np.arange(1, 40)
        ys = xs**3.0
        assert linear_fit_r2(xs, ys) < 0.95

    def test_single_distinct_x_is_undefined(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert linear_fit_r2([8, 8, 8], [0.1, 0.3, 0.2]) is None
            assert linear_fit_r2([4], [0.5]) is None
