"""Scoring harness: anchored triple F1, Smatch, validity audit, speed.

``labeled_triple_f1`` compares anchored graphs (DM, UCCA) by identifying
every node with its terminal yield (the set of token anchors reachable
from it), so unanchored intermediate nodes are matched structurally.
``smatch_score`` compares AMR-style graphs under a variable mapping,
either exhaustively (small graphs only) or by the hill climbing of
reference Smatch: only compatible variable pairs (equal concept labels,
or the same end of an equally labelled relation) are tried, the gain of
each move or swap is read from a triple-weight table built once per pair
of graphs, and the search runs from a label-matching start plus seeded
random restarts at every graph size.
"""

from __future__ import annotations

import itertools
import random
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .graph import Framework, SemanticGraph


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


def labeled_triple_f1(gold: SemanticGraph, pred: SemanticGraph) -> F1Report:
    """Multiset F1 over (source yield, label, target yield) triples; top
    designations count as extra triples.  AMR inputs are unanchored and
    are routed to :func:`smatch_score` instead."""
    if gold.framework == Framework.AMR or pred.framework == Framework.AMR:
        return smatch_score(gold, pred)
    g, p = _anchored_triples(gold), _anchored_triples(pred)
    matched = sum((g & p).values())
    return F1Report.from_counts(matched, sum(g.values()), sum(p.values()))


# ---------------------------------------------------------------------------
# Smatch


MAX_EXACT_VARIABLES = 10


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


def _match_count(mapping: dict[str, str], parts1, parts2, include_top: bool) -> int:
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
    if include_top:
        mapped_tops = Counter(mapping[t] for t in tops1 if t in mapping)
        count += sum((mapped_tops & tops2).values())
    return count


def smatch_score(
    gold: SemanticGraph,
    pred: SemanticGraph,
    mode: str = "hill_climb",
    restarts: int = 4,
    include_top: bool = False,
    seed: int = 0,
) -> F1Report:
    """Triple F1 maximized over an injective variable mapping.

    ``mode='exact'`` enumerates every mapping and requires at most
    10 variables per graph.  ``mode='hill_climb'`` is the search of
    reference Smatch (Cai & Knight 2013), whatever the graph size:

    - a gold variable is only ever mapped to a *compatible* pred variable,
      one with the same concept label (or both tops, with ``include_top``)
      or at the same end of a relation with the same label; any other
      image matches no triple, so the pruning loses nothing;
    - a weight table built once per pair of graphs gives the triples each
      compatible pair matches alone and with each other compatible pair,
      so the gain of a move or swap costs O(degree);
    - the first start maps each gold variable to a free pred variable with
      its label, then the rest to any free compatible image; each of the
      ``restarts`` further starts, drawn from ``seed``, maps the gold
      variables in random order to random free compatible images;
    - from each start the search takes the best of all moves (a gold
      variable to a free compatible image) and swaps (two gold variables
      exchange images) until none gains, and the best end point is the
      score.
    """
    parts_g = _smatch_parts(gold)
    parts_p = _smatch_parts(pred)
    gold_vars = sorted(parts_g[0])
    pred_vars = sorted(parts_p[0])
    gold_total = _triple_total(*parts_g, include_top)
    pred_total = _triple_total(*parts_p, include_top)
    if not gold_vars or not pred_vars:
        return F1Report.from_counts(0, gold_total, pred_total)

    if mode == "exact":
        n1, n2 = len(gold_vars), len(pred_vars)
        if max(n1, n2) > MAX_EXACT_VARIABLES:
            raise SmatchError(
                f"exact mode limited to {MAX_EXACT_VARIABLES} variables, got {max(n1, n2)}"
            )
        best = 0
        if n1 <= n2:
            for images in itertools.permutations(pred_vars, n1):
                best = max(best, _match_count(dict(zip(gold_vars, images)),
                                              parts_g, parts_p, include_top))
        else:
            for images in itertools.permutations(gold_vars, n2):
                mapping = {g_var: p_var for p_var, g_var in zip(pred_vars, images)}
                best = max(best, _match_count(mapping, parts_g, parts_p, include_top))
        return F1Report.from_counts(best, gold_total, pred_total)

    if mode != "hill_climb":
        raise ValueError(f"unknown smatch mode {mode!r}")

    table = _weight_table(parts_g, parts_p, include_top)
    candidates = {g: sorted(table[g]) for g in gold_vars}
    rng = random.Random(seed)
    best = 0
    for attempt in range(restarts + 1):
        mapping = _initial_mapping(candidates, parts_g, parts_p, rng, smart=attempt == 0)
        best = max(best, _hill_climb(mapping, candidates, table))
        if best == min(gold_total, pred_total):
            break  # no mapping can match more
    return F1Report.from_counts(best, gold_total, pred_total)


def _weight_table(parts_g, parts_p, include_top: bool):
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


def _initial_mapping(candidates, parts_g, parts_p, rng, smart: bool):
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


def _hill_climb(mapping, candidates, table) -> int:
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


# ---------------------------------------------------------------------------
# Validity audit


DEFAULT_FUNCTIONAL_LABELS = ("ARG0", "ARG1", "ARG2", "ARG3", "ARG4", "ARG5")


@dataclass
class ValidityReport:
    total: int
    invalid: int
    examples: list[tuple[int, str, str]] = field(default_factory=list)

    @property
    def rate(self) -> float | None:
        return self.invalid / self.total if self.total else None


def validity_audit(graphs, functional_labels=DEFAULT_FUNCTIONAL_LABELS,
                   max_examples: int = 10) -> ValidityReport:
    """Count graphs where some node repeats a functional outgoing label."""
    functional = set(functional_labels)
    invalid = 0
    examples: list[tuple[int, str, str]] = []
    for idx, g in enumerate(graphs):
        bad = None
        for nid, edges in g.outgoing().items():
            counts = Counter(e.label for e in edges if e.label in functional)
            dup = [label for label, c in counts.items() if c > 1]
            if dup:
                bad = (idx, nid, dup[0])
                break
        if bad:
            invalid += 1
            if len(examples) < max_examples:
                examples.append(bad)
    return ValidityReport(total=len(graphs), invalid=invalid, examples=examples)


# ---------------------------------------------------------------------------
# Speed benchmark


@dataclass
class SpeedReport:
    greedy_tokens_per_sec: float
    beam_tokens_per_sec: float
    linear_r2: float | None  # None when every decode had the same length
    step_counts_exact: bool
    decode_times: list[tuple[int, float]] = field(default_factory=list)


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
    decode time against emitted relation count must fit a line."""
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
        counters_ok = counters_ok and result.steps == len(result.sequence.relations)
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
        decode_times=times,
    )
