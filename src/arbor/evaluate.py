"""Scoring harness: anchored triple F1, Smatch, validity audit, speed.

``labeled_triple_f1`` compares anchored graphs (DM, UCCA) by identifying
every node with its terminal yield (the set of token anchors reachable
from it), so unanchored intermediate nodes are matched structurally.
``smatch_score`` compares AMR-style graphs under a variable mapping.  Both
of its searches read one triple-weight table built per pair of graphs: a
dense gold-by-pred array of the triples each compatible pair of variables
(equal concept labels, or the same end of an equally labelled relation)
matches alone, and sparse COO entries for the triples two pairs match
together.  Exact mode finds the optimum by branch and bound over the table
(small graphs only); the default is the hill climbing of reference Smatch,
from a label-matching start plus seeded random restarts at every graph
size, which reads every move and swap gain of a step from the table in a
few numpy calls.
"""

from __future__ import annotations

import random
import time
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .graph import Framework, SemanticGraph, check_same_framework


@dataclass
class F1Report:
    precision: float
    recall: float
    f1: float
    matched: int
    gold: int
    predicted: int

    @classmethod
    def from_counts(cls, matched: int, gold: int, predicted: int) -> "F1Report":
        p = matched / predicted if predicted else 0.0
        r = matched / gold if gold else 0.0
        f1 = 2 * p * r / (p + r) if p + r else 0.0
        return cls(p, r, f1, matched, gold, predicted)


# ---------------------------------------------------------------------------
# Anchored triple F1


def _yields(g: SemanticGraph) -> dict[str, frozenset[int]]:
    out = g.outgoing()
    node_map = g.node_map()
    memo: dict[str, frozenset[int]] = {}

    def walk(nid: str, path: frozenset[str]) -> frozenset[int]:
        if nid in memo:
            return memo[nid]
        node = node_map[nid]
        if node.anchors is not None:
            # anchored nodes are identified by their own anchors
            memo[nid] = frozenset(node.anchors)
            return memo[nid]
        acc: set[int] = set()
        for e in out[nid]:
            if e.target in path:
                continue  # defensive: anchored formats are acyclic
            acc |= walk(e.target, path | {nid})
        memo[nid] = frozenset(acc)
        return memo[nid]

    for n in g.nodes:
        walk(n.id, frozenset())
    return memo


def _anchored_triples(g: SemanticGraph) -> Counter:
    yields = _yields(g)
    triples = Counter()
    for e in g.edges:
        triples[(yields[e.source], e.label, yields[e.target])] += 1
    for t in g.tops:
        triples[("__top__", yields[t])] += 1
    return triples


def labeled_triple_f1(gold: SemanticGraph, pred: SemanticGraph,
                      smatch_mode: str = "hill_climb") -> F1Report:
    """Multiset F1 over (source yield, label, target yield) triples; top
    designations count as extra triples.  AMR graphs are unanchored and
    are routed to :func:`smatch_score` instead, in ``smatch_mode``: this
    is the one place that picks a framework's scorer.  Graphs of different
    frameworks raise ``FrameworkMismatch``."""
    check_same_framework(gold, pred)
    if gold.framework == Framework.AMR:
        return smatch_score(gold, pred, mode=smatch_mode)
    g, p = _anchored_triples(gold), _anchored_triples(pred)
    matched = sum((g & p).values())
    return F1Report.from_counts(matched, sum(g.values()), sum(p.values()))


# ---------------------------------------------------------------------------
# Smatch


MAX_EXACT_VARIABLES = 10
SMATCH_RESTARTS = 4  # random starts after the label-matching one, as in reference Smatch


class SmatchError(ValueError):
    pass


def _smatch_parts(g: SemanticGraph):
    instances = {n.id: n.label for n in g.nodes}
    relations: dict[tuple[str, str], Counter] = {}
    for e in g.edges:
        relations.setdefault((e.source, e.target), Counter())[e.label] += 1
    tops = Counter(g.tops)
    return instances, relations, tops


def _triple_total(instances, relations, tops, include_top: bool) -> int:
    total = len(instances) + sum(sum(c.values()) for c in relations.values())
    if include_top:
        total += sum(tops.values())
    return total


def smatch_score(
    gold: SemanticGraph,
    pred: SemanticGraph,
    mode: str = "hill_climb",
    include_top: bool = False,
    seed: int = 0,
) -> F1Report:
    """Triple F1 maximized over an injective variable mapping.

    Both modes search one weight table (``_weight_table``), built once per
    pair of graphs:

    - a gold variable is only ever mapped to a *compatible* pred variable,
      one with the same concept label (or both tops, with ``include_top``)
      or at the same end of a relation with the same label; any other
      image matches no triple, and leaving the variable unmapped instead
      frees that image for another variable, so the pruning loses nothing;
    - the table gives the triples each compatible pair matches alone (a
      gold-by-pred integer array) and with each other compatible pair (COO
      entries, one per pair of equally labelled relation triples, so memory
      grows with the entries and never with the square of the pair count).

    ``mode='exact'`` finds the optimum by depth-first branch and bound
    (``_exact_search``) and requires at most ``MAX_EXACT_VARIABLES`` = 10
    variables per graph.  A branch is cut when an admissible bound, each
    unassigned variable at its best free image, cannot beat the best
    mapping so far.  The 24 oracle pairs of the ``graphs-eval`` benchmark
    (1 to 8 variables) take about 0.006 s in all, where enumerating every
    mapping took about 0.8 s; a 10-variable pair with one concept label
    and one relation label, where every variable pair is compatible, takes
    up to 0.4 s (10! = 3.6M mappings to enumerate).

    ``mode='hill_climb'`` is the search of reference Smatch (Cai & Knight
    2013), whatever the graph size:

    - the first start maps each gold variable to a free pred variable with
      its label, then the rest to any free compatible image; each of the
      ``SMATCH_RESTARTS`` further starts, drawn from ``seed``, maps the
      gold variables in random order to random free compatible images;
    - from each start the search takes the best of all moves (a gold
      variable to a free compatible image) and swaps (two gold variables
      exchange images) until none gains, and the best end point is the
      score.  Each step sums the COO entries that the current mapping
      satisfies into the matrix of what every pair would match, and reads
      all move and swap gains from it at once; ties go to the first move
      or swap in scan order, so the path is that of a scan over the pairs.

    The restart count is the constant ``SMATCH_RESTARTS`` = 4, as in
    reference Smatch.  On 400 random pairs of up to 8 variables the search
    then misses the exact optimum on 5 (by one or two matched triples), and
    on none with 16 restarts, which take about 3.4 times as long on the
    benchmark's pairs of 8 to 14 variables.  Graphs of different
    frameworks raise ``FrameworkMismatch``.
    """
    if mode not in ("exact", "hill_climb"):
        raise ValueError(f"unknown smatch mode {mode!r}")
    check_same_framework(gold, pred)
    parts_g = _smatch_parts(gold)
    parts_p = _smatch_parts(pred)
    gold_total = _triple_total(*parts_g, include_top)
    pred_total = _triple_total(*parts_p, include_top)
    if not parts_g[0] or not parts_p[0]:
        return F1Report.from_counts(0, gold_total, pred_total)
    largest = max(len(parts_g[0]), len(parts_p[0]))
    if mode == "exact" and largest > MAX_EXACT_VARIABLES:
        raise SmatchError(f"exact mode limited to {MAX_EXACT_VARIABLES} variables, got {largest}")

    table = _weight_table(parts_g, parts_p, include_top)
    if mode == "exact":
        return F1Report.from_counts(_exact_search(table), gold_total, pred_total)
    rng = random.Random(seed)
    best = 0
    for attempt in range(SMATCH_RESTARTS + 1):
        mapping = _initial_mapping(table, rng, smart=attempt == 0)
        best = max(best, _hill_climb(mapping, table))
        if best == min(gold_total, pred_total):
            break  # no mapping can match more
    return F1Report.from_counts(best, gold_total, pred_total)


@dataclass
class _WeightTable:
    """Triples matched by each compatible pair of variables.

    Variables are indices in sorted-name order: gold variables are rows,
    pred variables columns, and the extra last column ``n2`` stands for
    "unmapped" and matches nothing.  Mapping gold ``g`` to pred ``p``
    matches ``own[g, p]`` instance, top and self-loop triples on its own;
    COO entry ``k`` says it matches ``w[k]`` relation triples more if gold
    ``b[k]`` maps to pred ``d[k]``, where ``g, p = a[k], c[k]``.  Each pair
    of relation triples is stored from both ends, and no entry joins a
    variable to itself (``a != b`` and ``c != d``).  ``compatible`` marks
    the pairs that match anything at all, ``candidates[g]`` and
    ``labelled[g]`` list gold ``g``'s compatible and equal-concept images.
    """

    own: np.ndarray  # (n1, n2 + 1) int64
    compatible: np.ndarray  # (n1, n2 + 1) bool
    a: np.ndarray
    c: np.ndarray
    b: np.ndarray
    d: np.ndarray
    w: np.ndarray
    candidates: list[list[int]]
    labelled: list[list[int]]


def _weight_table(parts_g, parts_p, include_top: bool) -> _WeightTable:
    inst_g, rel_g, tops_g = parts_g
    inst_p, rel_p, tops_p = parts_p
    gold_vars, pred_vars = sorted(inst_g), sorted(inst_p)
    n1, n2 = len(gold_vars), len(pred_vars)
    gold_at = {v: k for k, v in enumerate(gold_vars)}
    pred_at = {v: k for k, v in enumerate(pred_vars)}

    concept: dict[str, int] = {}
    gold_concepts = np.array([concept.setdefault(inst_g[v], len(concept)) for v in gold_vars])
    pred_concepts = np.array([concept.setdefault(inst_p[v], len(concept)) for v in pred_vars])
    same_label = np.zeros((n1, n2 + 1), dtype=bool)
    same_label[:, :n2] = gold_concepts[:, None] == pred_concepts[None, :]
    own = same_label.astype(np.int64)
    if include_top:
        for g, n in tops_g.items():
            for p, m in tops_p.items():
                own[gold_at[g], pred_at[p]] += min(n, m)

    pred_rels: dict[str, list[tuple[int, int, int]]] = {}
    for (c, d), labels in rel_p.items():
        for label, m in labels.items():
            pred_rels.setdefault(label, []).append((pred_at[c], pred_at[d], m))
    entries: list[tuple[int, int, int, int, int]] = []
    for (a, b), labels in rel_g.items():
        a, b = gold_at[a], gold_at[b]
        for label, n in labels.items():
            for c, d, m in pred_rels.get(label, ()):
                if a == b and c == d:
                    own[a, c] += min(n, m)
                elif a != b and c != d:  # an injective mapping never joins the two kinds
                    entries += [(a, c, b, d, min(n, m)), (b, d, a, c, min(n, m))]

    a, c, b, d, w = np.array(entries, dtype=np.int64).reshape(-1, 5).T
    compatible = own > 0
    compatible[a, c] = True
    return _WeightTable(own, compatible, a, c, b, d, w,
                        candidates=[np.flatnonzero(row).tolist() for row in compatible],
                        labelled=[np.flatnonzero(row).tolist() for row in same_label])


def _initial_mapping(table: _WeightTable, rng: random.Random, smart: bool) -> np.ndarray:
    """A start of the search: ``mapping[g]`` is gold ``g``'s pred image, or
    ``n2`` for none.  The random starts draw from ``rng`` exactly as a
    mapping over variable names would, so the starts follow the seed."""
    n1, unmapped = table.own.shape[0], table.own.shape[1] - 1
    mapping = [unmapped] * n1
    used: set[int] = set()
    if smart:
        # equal concepts first, in deterministic order
        for g in range(n1):
            for p in table.labelled[g]:
                if p not in used:
                    mapping[g] = p
                    used.add(p)
                    break
        order = range(n1)
    else:
        order = rng.sample(range(n1), n1)
    for g in order:
        if mapping[g] != unmapped:
            continue
        pool = [p for p in table.candidates[g] if p not in used]
        if pool:
            mapping[g] = pool[0] if smart else rng.choice(pool)
            used.add(mapping[g])
    return np.array(mapping, dtype=np.int64)


def _sum_at(cells: np.ndarray, weights: np.ndarray, size: int) -> np.ndarray:
    # bincount sums in float64, exact for integer counts below 2**53
    return np.bincount(cells, weights, size).astype(np.int64)


def _hill_climb(mapping: np.ndarray, table: _WeightTable) -> int:
    """Improve ``mapping`` in place by the best move or swap until none
    gains; returns its matched-triple count.

    Each step reads every gain from ``S``, where ``S[g, p]`` is what mapping
    gold ``g`` to pred ``p`` matches given the rest of the mapping.  Ties go
    to the first candidate in the order of a scan over moves (gold, then
    pred) and then swaps (``itertools.combinations`` of the gold variables),
    and a swap must beat the best move.
    """
    t = table
    n1, width = t.own.shape
    rows = np.arange(n1)
    upper = rows[:, None] < rows  # swaps of g1 < g2, as combinations orders them
    gold_pred = t.a * width + t.c  # each entry's flat cell in S
    gold_gold = t.a * n1 + t.b  # and in the (n1, n1) swap matrix
    # each relation triple is counted once from either end
    joined = (t.c == mapping[t.a]) & (t.d == mapping[t.b])
    current = int(t.own[rows, mapping].sum()) + int(t.w[joined].sum()) // 2
    while True:
        mine, theirs = mapping[t.a], mapping[t.b]
        hit = t.d == theirs
        S = t.own + _sum_at(gold_pred[hit], t.w[hit], n1 * width).reshape(n1, width)
        here = S[rows, mapping]

        free = t.compatible.copy()
        free[:, mapping] = False
        moves = np.where(free, S - here[:, None], 0)
        move = int(moves.argmax())
        move_gain = int(moves.flat[move])

        # swapping the images of g1 and g2 gains S[g1, m[g2]] + S[g2, m[g1]]
        # - S[g1, m[g1]] - S[g2, m[g2]] + J0 + J1, where J0 is the weight
        # between the two current pairs and J1 between the two swapped ones
        paired = (hit & (t.c == mine)) | ((t.c == theirs) & (t.d == mine))
        joint = _sum_at(gold_gold[paired], t.w[paired], n1 * n1).reshape(n1, n1)
        across = S[:, mapping]
        swaps = np.where(upper, across + across.T - here[:, None] - here[None, :] + joint, 0)
        swap = int(swaps.argmax())
        swap_gain = int(swaps.flat[swap])

        if swap_gain > max(move_gain, 0):
            g1, g2 = divmod(swap, n1)
            mapping[g1], mapping[g2] = mapping[g2], mapping[g1]
            current += swap_gain
        elif move_gain > 0:
            g, p = divmod(move, width)
            mapping[g] = p
            current += move_gain
        else:
            return current


def _exact_search(table: _WeightTable) -> int:
    """The most triples an injective mapping matches, by depth-first
    branch and bound.

    Gold variables are assigned in turn, each to a free compatible image
    (best first) or to none.  ``pair[g, p, b, d]`` is the COO weights made
    dense, at most ``(10 * 11)**2`` cells, so assigning ``g`` to ``p``
    adds ``own[g, p]`` plus ``pair[g, p, b, m[b]]`` for each gold ``b``
    already assigned to ``m[b]``.  A branch is cut when its count plus a
    bound on the rest cannot beat the best mapping found.  The bound gives
    each unassigned variable its best free image, counting what the image
    matches alone and with the assigned variables, plus half of the most
    it could match with each other unassigned variable (each such triple
    is counted from both ends).  It is kept doubled, ``twice``, so that it
    stays an integer.  Gold variables go in order of their bound at the
    root, highest first.
    """
    t = table
    n1, width = t.own.shape
    unmapped = width - 1
    pair = np.zeros((n1, width, n1, width), dtype=np.int64)
    np.add.at(pair, (t.a, t.c, t.b, t.d), t.w)
    reach = pair.max(axis=3)  # reach[g, p, b]: the most g -> p matches with b
    start = 2 * t.own + reach.sum(axis=2)
    order = np.argsort(-start.max(axis=1), kind="stable").tolist()
    free = np.ones(width, dtype=bool)
    best = 0

    def search(depth: int, count: int, alone: np.ndarray, twice: np.ndarray) -> None:
        # alone[g, p]: what g -> p matches alone and with the assigned variables;
        # twice: 2 * alone plus reach over the unassigned variables
        nonlocal best
        if depth == n1:
            best = max(best, count)
            return
        if count + int(twice[order[depth:]][:, free].max(axis=1).sum()) // 2 <= best:
            return
        g = order[depth]
        rest = twice - reach[:, :, g]
        images = sorted((p for p in t.candidates[g] if free[p]), key=lambda p: -twice[g, p])
        for p in images + [unmapped]:
            free[p] = p == unmapped  # any number of variables can stay unmapped
            search(depth + 1, count + int(alone[g, p]), alone + pair[:, :, g, p],
                   rest + 2 * pair[:, :, g, p])
            free[p] = True

    search(0, 0, t.own, start)
    return best


# ---------------------------------------------------------------------------
# Validity audit


FUNCTIONAL_LABELS = frozenset(("ARG0", "ARG1", "ARG2", "ARG3", "ARG4", "ARG5"))


@dataclass
class ValidityReport:
    total: int
    invalid: int

    @property
    def rate(self) -> float | None:
        return self.invalid / self.total if self.total else None


def validity_audit(graphs) -> ValidityReport:
    """Count graphs where some node repeats a functional outgoing label."""
    invalid = 0
    for g in graphs:
        per_node = (Counter(e.label for e in edges if e.label in FUNCTIONAL_LABELS)
                    for edges in g.outgoing().values())
        invalid += any(c > 1 for counts in per_node for c in counts.values())
    return ValidityReport(total=len(graphs), invalid=invalid)


# ---------------------------------------------------------------------------
# Speed benchmark


@dataclass
class SpeedReport:
    greedy_tokens_per_sec: float
    beam_tokens_per_sec: float
    linear_r2: float | None  # None when every decode had the same length
    step_counts_exact: bool


def linear_fit_r2(xs, ys) -> float | None:
    """R² of a least-squares line through (xs, ys); None when xs has fewer
    than two distinct values, since no line is then determined."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if np.unique(xs).shape[0] < 2:
        return None
    if len(xs) < 3 or np.allclose(ys, ys[0]):
        return 1.0
    coeffs = np.polyfit(xs, ys, 1)
    pred = np.polyval(coeffs, xs)
    ss_res = float(((ys - pred) ** 2).sum())
    ss_tot = float(((ys - ys.mean()) ** 2).sum())
    return 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0


def speed_bench(model, inputs, beam_size: int = 5, max_len: int = 100) -> SpeedReport:
    """Tokens/sec for greedy and beam decoding plus an O(output) check:
    decode time against emitted relation count must fit a line, and each
    greedy decode must run one step per relation plus an EOS step unless
    truncated (``step_counts_exact``)."""
    from .inference import beam_decode, greedy_decode

    times: list[tuple[int, float]] = []
    tokens = 0
    counters_ok = True
    started = time.perf_counter()
    for inp in inputs:
        t0 = time.perf_counter()
        result = greedy_decode(model, inp, max_len=max_len)
        times.append((result.steps, time.perf_counter() - t0))
        tokens += len(inp.tokens)
        counters_ok &= result.total_steps == len(result.sequence.relations) + (not result.truncated)
    greedy_elapsed = time.perf_counter() - started

    started = time.perf_counter()
    for inp in inputs:
        beam_decode(model, inp, beam_size=beam_size, max_len=max_len)
    beam_elapsed = time.perf_counter() - started

    r2 = linear_fit_r2([n for n, _ in times], [t for _, t in times])
    return SpeedReport(
        greedy_tokens_per_sec=tokens / greedy_elapsed if greedy_elapsed else float("inf"),
        beam_tokens_per_sec=tokens / beam_elapsed if beam_elapsed else float("inf"),
        linear_r2=r2,
        step_counts_exact=counters_ok,
    )
