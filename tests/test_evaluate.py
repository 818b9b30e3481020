import dataclasses
import itertools
import random
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest

from arbor import inference
from arbor.evaluate import (
    SMATCH_RESTARTS,
    F1Report,
    SmatchError,
    _hill_climb,
    _initial_mapping,
    _smatch_parts,
    _weight_table,
    labeled_triple_f1,
    linear_fit_r2,
    smatch_score,
    speed_bench,
    validity_audit,
)
from arbor.graph import Framework, FrameworkMismatch, GraphEdge, GraphNode, SemanticGraph

from conftest import build_tiny_model, make_inputs, random_amr_graph, random_dm_graph


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

    @pytest.mark.parametrize("gold_fw, pred_fw", [("dm", "amr"), ("amr", "dm"), ("dm", "ucca")])
    def test_frameworks_must_match(self, gold_fw, pred_fw):
        graphs = {"amr": amr_graph([("a", "wa")], [], tops=("a",)), "dm": FOUR_EDGE,
                  "ucca": SemanticGraph(Framework.UCCA, (GraphNode("a", "wa", (0,)),), (),
                                        ("a",))}
        with pytest.raises(FrameworkMismatch, match=f"{gold_fw} vs {pred_fw}"):
            labeled_triple_f1(graphs[gold_fw], graphs[pred_fw])

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

    @pytest.mark.parametrize("mode", ["bogus", "Exact", ""])
    def test_unknown_mode_rejected_on_every_graph(self, mode):
        empty = SemanticGraph(Framework.AMR, (), (), ())
        g = amr_graph([("x", "alpha")], [], ("x",))
        for gold, pred in ((empty, g), (g, empty), (empty, empty), (g, g)):
            with pytest.raises(ValueError, match="unknown smatch mode"):
                smatch_score(gold, pred, mode=mode)

    @pytest.mark.parametrize("mode", ["exact", "hill_climb"])
    def test_frameworks_must_match(self, mode):
        amr = amr_graph([("a", "wa")], [], tops=("a",))
        for gold, pred in ((FOUR_EDGE, amr), (amr, FOUR_EDGE)):
            with pytest.raises(FrameworkMismatch):
                smatch_score(gold, pred, mode=mode)

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


# ---------------------------------------------------------------------------
# Reference hill climbing: the dict weight table and the closure climb that
# the array search replaced.  The array search must take the same path.


def reference_weight_table(parts_g, parts_p, include_top: bool):
    """Triples matched by each compatible pair of variables.

    ``table[g][p] = (own, neighbours)``: mapping gold ``g`` to pred ``p``
    matches ``own`` instance, top and self-loop triples on its own, and
    ``neighbours[(g2, p2)]`` relation triples more if gold ``g2`` maps to
    pred ``p2``.  A pair absent from the table matches nothing.
    """
    inst_g, rel_g, tops_g = parts_g
    inst_p, rel_p, tops_p = parts_p
    own: Counter = Counter()
    neighbours: dict[tuple[str, str], Counter] = {}

    pred_by_label: dict[str, list[str]] = {}
    for p, label in inst_p.items():
        pred_by_label.setdefault(label, []).append(p)
    for g, label in inst_g.items():
        for p in pred_by_label.get(label, ()):
            own[g, p] += 1
    if include_top:
        for g, n in tops_g.items():
            for p, m in tops_p.items():
                own[g, p] += min(n, m)

    pred_rels: dict[str, list[tuple[str, str, int]]] = {}
    for (c, d), labels in rel_p.items():
        for label, m in labels.items():
            pred_rels.setdefault(label, []).append((c, d, m))
    for (a, b), labels in rel_g.items():
        for label, n in labels.items():
            for c, d, m in pred_rels.get(label, ()):
                if a == b and c == d:
                    own[a, c] += min(n, m)
                elif a != b and c != d:  # an injective mapping never joins the two kinds
                    neighbours.setdefault((a, c), Counter())[b, d] += min(n, m)
                    neighbours.setdefault((b, d), Counter())[a, c] += min(n, m)

    table: dict[str, dict[str, tuple[int, Counter]]] = {g: {} for g in inst_g}
    for g, p in own.keys() | neighbours.keys():
        table[g][p] = (own[g, p], neighbours.get((g, p), Counter()))
    return table


def reference_initial_mapping(candidates, parts_g, parts_p, rng, smart: bool):
    gold_vars = list(candidates)
    mapping: dict[str, str] = {}
    used: set[str] = set()
    if smart:
        # equal concepts first, in deterministic order
        inst_g, inst_p = parts_g[0], parts_p[0]
        for g in gold_vars:
            for p in candidates[g]:
                if p not in used and inst_p[p] == inst_g[g]:
                    mapping[g] = p
                    used.add(p)
                    break
        order = gold_vars
    else:
        order = rng.sample(gold_vars, len(gold_vars))
    for g in order:
        if g in mapping:
            continue
        pool = [p for p in candidates[g] if p not in used]
        if pool:
            mapping[g] = pool[0] if smart else rng.choice(pool)
            used.add(mapping[g])
    return mapping


def reference_hill_climb(mapping, candidates, table) -> int:
    """Improve ``mapping`` in place by the best move or swap until none
    gains; returns its matched-triple count."""
    no_entry = (0, Counter())

    def matched(g, p, skip=None) -> int:
        """Triples ``g -> p`` matches alone and with the other variables
        as mapped, leaving out those shared with ``skip``."""
        own, neighbours = table[g].get(p, no_entry)
        return own + sum(w for (g2, p2), w in neighbours.items()
                         if g2 != skip and mapping.get(g2) == p2)

    def joint(g1, p1, g2, p2) -> int:
        return table[g1].get(p1, no_entry)[1].get((g2, p2), 0)

    # each relation triple is counted once from either end
    alone = sum(table[g][p][0] for g, p in mapping.items())
    current = alone + (sum(matched(g, p) for g, p in mapping.items()) - alone) // 2
    while True:
        best_gain, best_move = 0, None
        used = set(mapping.values())
        for g in candidates:
            here = matched(g, mapping.get(g))
            for p in candidates[g]:
                if p not in used:
                    gain = matched(g, p) - here
                    if gain > best_gain:
                        best_gain, best_move = gain, ((g, p),)
        for g1, g2 in itertools.combinations(candidates, 2):
            p1, p2 = mapping.get(g1), mapping.get(g2)
            if p2 not in table[g1] and p1 not in table[g2]:
                continue  # neither new pair is compatible: nothing to gain
            gain = (matched(g1, p2, g2) + matched(g2, p1, g1) + joint(g1, p2, g2, p1)
                    - matched(g1, p1, g2) - matched(g2, p2, g1) - joint(g1, p1, g2, p2))
            if gain > best_gain:
                best_gain, best_move = gain, ((g1, p2), (g2, p1))
        if best_move is None:
            return current
        for g, p in best_move:
            if p is None:
                del mapping[g]
            else:
                mapping[g] = p
        current += best_gain


def assert_same_search(gold, pred, include_top: bool, seed: int = 0) -> None:
    """Every start and every end point of the array search equals the
    reference's, and ``smatch_score`` equals the reference's best count."""
    parts_g, parts_p = _smatch_parts(gold), _smatch_parts(pred)
    gold_vars, pred_vars = sorted(parts_g[0]), sorted(parts_p[0])
    if not gold_vars or not pred_vars:
        return

    def names(mapping):
        return {gold_vars[g]: pred_vars[p] for g, p in enumerate(mapping.tolist())
                if p < len(pred_vars)}

    ref_table = reference_weight_table(parts_g, parts_p, include_top)
    candidates = {g: sorted(ref_table[g]) for g in gold_vars}
    table = _weight_table(parts_g, parts_p, include_top)
    assert table.candidates == [[pred_vars.index(p) for p in candidates[g]]
                                for g in gold_vars]
    ref_rng, rng = random.Random(seed), random.Random(seed)
    counts = []
    for attempt in range(SMATCH_RESTARTS + 1):
        ref_mapping = reference_initial_mapping(candidates, parts_g, parts_p, ref_rng,
                                                smart=attempt == 0)
        mapping = _initial_mapping(table, rng, smart=attempt == 0)
        assert names(mapping) == ref_mapping, attempt
        counts.append(reference_hill_climb(ref_mapping, candidates, ref_table))
        assert _hill_climb(mapping, table) == counts[-1], attempt
        assert names(mapping) == ref_mapping, attempt
    report = smatch_score(gold, pred, include_top=include_top, seed=seed)
    assert report.matched == max(counts)


def criterion11_pair(rng):
    """A pair drawn as criterion 11 draws its fixtures."""
    gold = random_amr_graph(rng, max_nodes=8)
    if rng.random() < 0.4:
        return gold, random_amr_graph(rng, max_nodes=8)
    return gold, perturbed(rng, gold)


def hostile_graph(rng, n, concepts, roles, edges=None, loops=0, parallel=0, tops=("v0",)):
    """``n`` variables with labels from ``concepts``: a random tree plus
    ``edges`` extra edges (``n // 3`` by default), ``loops`` self-loops and
    ``parallel`` repeats of existing edges, all labelled from ``roles``."""
    nodes = tuple(GraphNode(f"v{i}", concepts[rng.integers(len(concepts))]) for i in range(n))
    out = [GraphEdge(f"v{rng.integers(i)}", f"v{i}", roles[rng.integers(len(roles))])
           for i in range(1, n)]
    for _ in range(n // 3 if edges is None else edges):
        u, v = sorted(rng.integers(n, size=2).tolist())
        if u != v:
            out.append(GraphEdge(f"v{u}", f"v{v}", roles[rng.integers(len(roles))]))
    for _ in range(loops):
        v = f"v{rng.integers(n)}"
        out.append(GraphEdge(v, v, roles[rng.integers(len(roles))]))
    for _ in range(parallel if out else 0):
        out.append(out[rng.integers(len(out))])
    return SemanticGraph(Framework.AMR, nodes, tuple(out), tuple(tops))


def perturbed(rng, gold, share=0.3):
    """Gold with some concepts replaced by their successor's."""
    labels = [n.label for n in gold.nodes]
    nodes = tuple(GraphNode(n.id, labels[(k + 1) % len(labels)] if rng.random() < share
                            else n.label)
                  for k, n in enumerate(gold.nodes))
    return SemanticGraph(gold.framework, nodes, gold.edges, gold.tops)


ROLES = ["ARG0", "ARG1", "ARG2", "mod", "time", "op1"]
HOSTILE = {
    # gold variables left unmapped, and pred variables left unused
    "more_gold": lambda rng: (hostile_graph(rng, 9, ["a", "b", "c"], ROLES),
                              hostile_graph(rng, 4, ["a", "b", "c"], ROLES)),
    "more_pred": lambda rng: (hostile_graph(rng, 4, ["a", "b", "c"], ROLES),
                              hostile_graph(rng, 9, ["a", "b", "c"], ROLES)),
    "nothing_compatible": lambda rng: (hostile_graph(rng, 6, ["a", "b"], ["ARG0", "ARG1"]),
                                       hostile_graph(rng, 6, ["x", "y"], ["mod", "op1"])),
    "single_variable": lambda rng: (hostile_graph(rng, 1, ["a"], ROLES, loops=1),
                                    hostile_graph(rng, 1, ["a", "b"], ROLES,
                                                  loops=int(rng.integers(2)))),
    "single_against_many": lambda rng: (hostile_graph(rng, 1, ["a"], ROLES),
                                        hostile_graph(rng, 7, ["a", "b"], ROLES)),
    "one_label_ties": lambda rng: (hostile_graph(rng, 8, ["a"], ["ARG0"], edges=4),
                                   hostile_graph(rng, 7, ["a"], ["ARG0"], edges=5)),
    "self_loops": lambda rng: (hostile_graph(rng, 7, ["a", "b"], ROLES[:2], loops=4),
                               hostile_graph(rng, 7, ["a", "b"], ROLES[:2], loops=4)),
    "parallel_edges": lambda rng: (hostile_graph(rng, 7, ["a", "b", "c"], ROLES[:2],
                                                 parallel=5),
                                   hostile_graph(rng, 7, ["a", "b", "c"], ROLES[:2],
                                                 parallel=5)),
    "repeated_tops": lambda rng: (hostile_graph(rng, 6, ["a", "b"], ROLES,
                                                tops=("v0", "v0", "v3")),
                                  hostile_graph(rng, 6, ["a", "b"], ROLES,
                                                tops=("v1", "v0", "v1", "v1"))),
}


# ---------------------------------------------------------------------------
# Reference exact search: the scan over every injective mapping, with the
# dict/Counter triple count, that branch and bound replaced.  A gold top
# repeated n times counts n times, as in the triple totals and the weight
# table (the scan once counted each top variable once).


def reference_match_count(mapping, parts1, parts2) -> tuple[int, int]:
    """The instance and relation triples, and the top triples, that
    ``mapping`` (gold name to pred name) matches."""
    inst1, rel1, tops1 = parts1
    inst2, rel2, tops2 = parts2
    count = 0
    for v, label in inst1.items():
        m = mapping.get(v)
        if m is not None and inst2.get(m) == label:
            count += 1
    for (a, b), labels in rel1.items():
        ma, mb = mapping.get(a), mapping.get(b)
        if ma is None or mb is None:
            continue
        other = rel2.get((ma, mb))
        if other:
            count += sum((labels & other).values())
    # the mapping is injective: no two gold tops share an image
    return count, sum(min(n, tops2[mapping[t]]) for t, n in tops1.items() if t in mapping)


def reference_exact(gold, pred) -> dict[bool, int]:
    """The most triples any injective mapping matches, by ``include_top``,
    from every permutation of the larger graph's variables."""
    parts_g, parts_p = _smatch_parts(gold), _smatch_parts(pred)
    gold_vars, pred_vars = sorted(parts_g[0]), sorted(parts_p[0])
    if len(gold_vars) <= len(pred_vars):
        mappings = (dict(zip(gold_vars, images))
                    for images in itertools.permutations(pred_vars, len(gold_vars)))
    else:
        mappings = ({g: p for p, g in zip(pred_vars, images)}
                    for images in itertools.permutations(gold_vars, len(pred_vars)))
    best = {False: 0, True: 0}
    for mapping in mappings:
        count, tops = reference_match_count(mapping, parts_g, parts_p)
        best[False] = max(best[False], count)
        best[True] = max(best[True], count + tops)
    return best


def assert_exact_is_reference(gold, pred) -> None:
    expected = reference_exact(gold, pred)
    for include_top in (False, True):
        report = smatch_score(gold, pred, mode="exact", include_top=include_top)
        assert report.matched == expected[include_top], include_top


# seeds of criterion 11's generator on which hill climbing misses the
# optimum (without tops)
CLIMB_MISSES = (183, 224, 229, 341, 369)


class TestExactSearchMatchesReference:
    def test_criterion11_pairs(self):
        # 40% of the pairs draw pred apart from gold, so sizes differ both
        # ways: more gold than pred variables, and fewer
        sizes = Counter()
        for seed in range(400):
            gold, pred = criterion11_pair(np.random.default_rng(seed))
            assert_exact_is_reference(gold, pred)
            sizes[np.sign(len(gold.nodes) - len(pred.nodes))] += 1
        assert min(sizes[-1], sizes[1]) >= 50, sizes

    @pytest.mark.parametrize("case", sorted(HOSTILE))
    def test_hostile_pairs(self, case):
        for seed in range(4):
            assert_exact_is_reference(*HOSTILE[case](np.random.default_rng(seed)))

    @pytest.mark.parametrize("seed", CLIMB_MISSES)
    def test_beats_hill_climb_where_the_climb_misses(self, seed):
        gold, pred = criterion11_pair(np.random.default_rng(seed))
        exact = smatch_score(gold, pred, mode="exact")
        assert exact.matched == reference_exact(gold, pred)[False]
        assert exact.matched > smatch_score(gold, pred, mode="hill_climb").matched

    def test_repeated_tops_count_in_a_self_score(self):
        g = amr_graph([("x", "a"), ("y", "b")], [("x", "y", "ARG0")], ("x", "x", "y"))
        report = smatch_score(g, g, mode="exact", include_top=True)
        assert (report.matched, report.gold, report.f1) == (6, 6, 1.0)

    def test_ten_variables_one_label(self):
        # every gold/pred pair is compatible: 10! = 3.6M mappings to a scan
        rng = np.random.default_rng(10)
        gold = hostile_graph(rng, 10, ["thing"], ["ARG0"], edges=15)
        assert smatch_score(gold, gold, mode="exact").f1 == 1.0
        pred = hostile_graph(rng, 10, ["thing"], ["ARG0"], edges=15)
        exact = smatch_score(gold, pred, mode="exact")
        assert smatch_score(gold, pred).matched <= exact.matched <= min(exact.gold,
                                                                         exact.predicted)


class TestArraySearchMatchesReference:
    @pytest.mark.parametrize("include_top", [False, True])
    def test_criterion11_pairs_both_directions(self, include_top):
        for seed in range(400):
            gold, pred = criterion11_pair(np.random.default_rng(seed))
            assert_same_search(gold, pred, include_top, seed)
            assert_same_search(pred, gold, include_top, seed)

    @pytest.mark.parametrize("include_top", [False, True])
    def test_perfbench_style_pairs(self, include_top):
        rng = np.random.default_rng(15)
        concepts = [f"c{k}" for k in range(15)]
        for v in (8, 10, 12, 14, 17, 20, 24, 30):
            gold = hostile_graph(rng, v, concepts[: max(4, v // 2)], ROLES, edges=v // 4)
            assert_same_search(gold, perturbed(rng, gold), include_top, seed=v)

    @pytest.mark.parametrize("case", sorted(HOSTILE))
    @pytest.mark.parametrize("include_top", [False, True])
    def test_hostile_pairs(self, case, include_top):
        for seed in range(12):
            gold, pred = HOSTILE[case](np.random.default_rng(seed))
            assert_same_search(gold, pred, include_top, seed)

    def test_parallel_edges_and_self_loops_weigh_more_than_one(self):
        g = amr_graph([("x", "a"), ("y", "b")],
                      [("x", "y", "ARG0"), ("x", "y", "ARG0"), ("x", "x", "mod"),
                       ("x", "x", "mod")], ("x",))
        table = _weight_table(_smatch_parts(g), _smatch_parts(g), include_top=False)
        assert table.own.tolist() == [[3, 0, 0], [0, 1, 0]]
        assert table.w.tolist() == [2, 2]
        assert smatch_score(g, g).matched == 6

    def test_hundred_variables_one_label_stays_sparse(self):
        # every gold/pred pair is compatible: a dense (n1 n2)^2 table would
        # need 800 MB at this size
        rng = np.random.default_rng(100)
        gold = hostile_graph(rng, 100, ["thing"], ["ARG0"], edges=50)
        pred = hostile_graph(rng, 100, ["thing"], ["ARG0"], edges=50)
        tracemalloc.start()
        try:
            report = smatch_score(gold, pred)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20, peak
        assert 100 <= report.matched <= min(report.gold, report.predicted)


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


class TestSpeedBench:
    @pytest.mark.parametrize("eos_bias", [None, 50.0], ids=["truncated", "ends_at_eos"])
    def test_step_counts_exact_counts_the_search_steps(self, monkeypatch, eos_bias):
        model = build_tiny_model(seed=0)
        if eos_bias is not None:  # generate EOS at once
            model.decoder.ffn_vocab.b.data[model.vocabs.dec_word.id("@end@")] = eos_bias
            model.decoder.ffn_switch.b.data[0] = eos_bias
        inputs = [make_inputs(np.random.default_rng(k), 3) for k in range(3)]
        results = [inference.greedy_decode(model, inp, max_len=4) for inp in inputs]
        assert {r.truncated for r in results} == {eos_bias is None}
        assert speed_bench(model, inputs, beam_size=1, max_len=4).step_counts_exact

        greedy = inference.greedy_decode

        def one_step_short(*args, **kwargs):
            result = greedy(*args, **kwargs)
            return dataclasses.replace(result, total_steps=result.total_steps - 1)

        monkeypatch.setattr(inference, "greedy_decode", one_step_short)
        assert not speed_bench(model, inputs, beam_size=1, max_len=4).step_counts_exact
