"""Seeded synthetic inputs for the benchmark.

Everything the program under test receives is made here from a seed, and
the same seed gives the same inputs.  The record shapes follow the
synthetic corpus of the test suite (canonical AMR, DM and UCCA records
with copyable tokens, reentrancies and anchored terminals), but sentence
length, the decoder-label vocabulary and the relation-type inventory are
parameters, so one generator serves the tiny smoke sizes and the
paper-default vocabulary of about 12k labels.

Sizes are passed in explicitly rather than drawn, so that two seeds give
inputs of the same shape and the same amount of work: the seed only picks
words, labels and structure.
"""

from __future__ import annotations

import numpy as np

from arbor.encoder import EncoderInput
from arbor.formats import CanonicalGraphRecord
from arbor.graph import Framework, GraphEdge, GraphNode, SemanticGraph, TERMINAL_EDGE

SYLLABLES = ["ba", "ce", "di", "fo", "gu", "ha", "je", "ki", "lo", "mu",
             "na", "pe", "qi", "ro", "su", "ta", "ve", "wi", "xo", "yu",
             "za", "bre", "cla", "dro", "fle", "gri", "plo", "sta", "tru", "vo",
             "ka", "le", "mi", "no", "pu", "ri", "se", "to", "vi", "zu"]
POS_TAGS = ["NNP", "NN", "VBD", "DT", "JJ", "PRP$", "CD", "IN"]
AMR_ROLES = ["ARG0", "ARG1", "ARG2", "ARG3", "mod", "poss", "time", "location", "op1", "op2"]
DM_LABELS = ["ARG1", "ARG2", "ARG3", "BV", "compound", "poss", "loc", "appos", "mwe"]
UCCA_LABELS = ["A", "P", "C", "D", "E", "F", "L", "H", "R", "S"]
# the concept pool of the Smatch oracle fixtures (few labels, many collisions)
ORACLE_CONCEPTS = ["want-01", "person", "city", "go-02", "thing", "name", "good", "say-01",
                   "country", "dog", "run-02", "see-01"]


def word(k: int) -> str:
    """The k-th pseudo-word: distinct for every k, two to four syllables."""
    n = len(SYLLABLES)
    parts = [SYLLABLES[k % n], SYLLABLES[(k // n) % n]]
    k //= n * n
    while k:
        parts.append(SYLLABLES[k % n])
        k //= n
    return "".join(parts)


def label_pool(n: int) -> list[str]:
    """``n`` distinct concept labels, disjoint from the token words."""
    return [word(k) + "-x" for k in range(n)]


def relation_pool(n: int) -> list[str]:
    """``n`` distinct relation types, AMR roles first."""
    return (AMR_ROLES + [f"rel-{word(k)}" for k in range(max(0, n - len(AMR_ROLES)))])[:n]


def token_pool(n: int) -> list[str]:
    return [word(k) for k in range(n)]


def _pick(rng: np.random.Generator, pool: list[str]) -> str:
    return pool[int(rng.integers(len(pool)))]


def sentence(rng: np.random.Generator, n_tokens: int, words: list[str]) -> EncoderInput:
    return EncoderInput(tokens=[_pick(rng, words) for _ in range(n_tokens)],
                        pos=[_pick(rng, POS_TAGS) for _ in range(n_tokens)])


# ---------------------------------------------------------------------------
# Graphs


def amr_graph(rng: np.random.Generator, n_nodes: int, concepts: list[str],
              roles: list[str] = AMR_ROLES, reentrancies: int | None = None) -> SemanticGraph:
    """Rooted, connected, acyclic, with reentrancies (id order is topological)."""
    nodes = [GraphNode(f"v{i}", _pick(rng, concepts)) for i in range(n_nodes)]
    edges, seen = [], set()
    for i in range(1, n_nodes):
        parent = int(rng.integers(0, i))
        label = _pick(rng, roles)
        edges.append(GraphEdge(f"v{parent}", f"v{i}", label))
        seen.add((parent, i, label))
    extra = n_nodes // 4 if reentrancies is None else reentrancies
    for _ in range(extra if n_nodes >= 2 else 0):
        u = int(rng.integers(0, n_nodes - 1))
        v = int(rng.integers(u + 1, n_nodes))
        label = _pick(rng, roles)
        if (u, v, label) not in seen:
            seen.add((u, v, label))
            edges.append(GraphEdge(f"v{u}", f"v{v}", label))
    return SemanticGraph(Framework.AMR, tuple(nodes), tuple(edges), tops=("v0",))


def dm_graph(rng: np.random.Generator, tokens: list[str], labels: list[str] = DM_LABELS,
             components: int = 2) -> SemanticGraph:
    """Bi-lexical graph over ``tokens``: one anchored node per token, split
    into weakly connected components, with extra edges that force edge
    reversal in conversion."""
    n = len(tokens)
    comps = max(1, min(components, n))
    membership = [i % comps if i < comps else int(rng.integers(0, comps)) for i in range(n)]
    nodes = [GraphNode(f"t{i}", tokens[i], anchors=(i,)) for i in range(n)]
    edges, seen = [], set()
    for c in range(comps):
        order = [int(i) for i in rng.permutation([i for i in range(n) if membership[i] == c])]
        for k in range(1, len(order)):
            a, b = order[int(rng.integers(0, k))], order[k]
            lo, hi = min(a, b), max(a, b)
            label = _pick(rng, labels)
            edges.append(GraphEdge(f"t{lo}", f"t{hi}", label))
            seen.add((lo, hi, label))
        for _ in range(len(order) // 3):
            i, j = sorted(int(x) for x in rng.choice(len(order), size=2, replace=False))
            lo, hi = min(order[i], order[j]), max(order[i], order[j])
            label = _pick(rng, labels)
            if (lo, hi, label) not in seen:
                seen.add((lo, hi, label))
                edges.append(GraphEdge(f"t{lo}", f"t{hi}", label))
    tops = (f"t{int(rng.integers(0, n))}",)
    return SemanticGraph(Framework.DM, tuple(nodes), tuple(edges), tops=tops)


def ucca_graph(rng: np.random.Generator, tokens: list[str], labels: list[str] = UCCA_LABELS
               ) -> SemanticGraph:
    """Foundational-layer style tree over ``tokens``: unlabelled
    non-terminals, terminals attached through ``terminal`` edges, and a
    few remote edges between non-terminals."""
    n_term = len(tokens)
    n_nt = max(2, (n_term + 1) // 2)
    nodes = [GraphNode(f"u{i}", "") for i in range(n_nt)]
    edges = []
    for i in range(1, n_nt):
        edges.append(GraphEdge(f"u{int(rng.integers(0, i))}", f"u{i}", _pick(rng, labels)))
    has_child = {e.source for e in edges}
    leaves = [i for i in range(n_nt) if f"u{i}" not in has_child]
    for t in range(n_term):
        nodes.append(GraphNode(f"w{t}", tokens[t], anchors=(t,)))
        # every childless non-terminal gets a terminal first
        parent = leaves[t] if t < len(leaves) else int(rng.integers(0, n_nt))
        edges.append(GraphEdge(f"u{parent}", f"w{t}", TERMINAL_EDGE))
    seen = {(e.source, e.target, e.label) for e in edges}
    for _ in range(n_nt // 4):
        u = int(rng.integers(0, n_nt - 1))
        v = int(rng.integers(u + 1, n_nt))
        label = _pick(rng, labels)
        if (f"u{u}", f"u{v}", label) not in seen:
            seen.add((f"u{u}", f"u{v}", label))
            edges.append(GraphEdge(f"u{u}", f"u{v}", label))
    return SemanticGraph(Framework.UCCA, tuple(nodes), tuple(edges), tops=("u0",))


def graph_for(rng: np.random.Generator, framework: Framework, size: int, words: list[str],
              concepts: list[str]) -> tuple[SemanticGraph, list[str]]:
    """A graph of about ``size`` nodes and the tokens it is anchored to."""
    if framework == Framework.AMR:
        tokens = [_pick(rng, words) for _ in range(max(1, size // 2))]
        return amr_graph(rng, size, concepts), tokens
    if framework == Framework.DM:
        tokens = [_pick(rng, words) for _ in range(size)]
        return dm_graph(rng, tokens), tokens
    tokens = [_pick(rng, words) for _ in range(max(1, (2 * size) // 3))]
    return ucca_graph(rng, tokens), tokens


# ---------------------------------------------------------------------------
# Canonical records


def record(rng: np.random.Generator, rid: str, framework: Framework, n_tokens: int,
           words: list[str], concepts: list[str]) -> CanonicalGraphRecord:
    """One canonical record over a sentence of ``n_tokens`` tokens.

    AMR concepts are half copies of sentence tokens and half labels from
    ``concepts``, so both the copy and the generation heads are trained.
    """
    inp = sentence(rng, n_tokens, words)
    if framework == Framework.AMR:
        pool = inp.tokens + [_pick(rng, concepts) for _ in range(n_tokens)]
        graph = amr_graph(rng, n_tokens, pool)
    elif framework == Framework.DM:
        graph = dm_graph(rng, inp.tokens, components=1)
    else:
        graph = ucca_graph(rng, inp.tokens)
    return CanonicalGraphRecord.from_graph(rid, graph, inp.tokens, inp.pos)


def mixed_corpus(rng: np.random.Generator, n_records: int, lengths: list[int],
                 words: list[str], concepts: list[str]) -> list[CanonicalGraphRecord]:
    """AMR, DM and UCCA records in turn; sentence lengths cycle through
    ``lengths``."""
    frameworks = [Framework.AMR, Framework.DM, Framework.UCCA]
    return [
        record(rng, f"{frameworks[k % 3].value}{k}", frameworks[k % 3],
               lengths[(k // 3) % len(lengths)], words, concepts)
        for k in range(n_records)
    ]


def vocabulary_corpus(rng: np.random.Generator, n_labels: int, n_relations: int,
                      words: list[str], nodes_per_record: int = 40
                      ) -> list[CanonicalGraphRecord]:
    """AMR records that use every label of ``label_pool(n_labels)`` and
    every type of ``relation_pool(n_relations)``, so a vocabulary built from
    them has exactly those sizes (plus reserved symbols)."""
    labels, roles = label_pool(n_labels), relation_pool(n_relations)
    records = []
    for start in range(0, n_labels, nodes_per_record):
        chunk = labels[start:start + nodes_per_record]
        n = len(chunk)
        tokens = [_pick(rng, words) for _ in range(n)]
        nodes = [{"id": f"v{i}", "label": chunk[i], "anchors": None} for i in range(n)]
        edges = [{"src": f"v{int(rng.integers(0, i))}", "tgt": f"v{i}",
                  "label": roles[(start + i) % len(roles)]} for i in range(1, n)]
        records.append(CanonicalGraphRecord(
            id=f"vocab{start}", framework=Framework.AMR, tokens=tokens,
            pos=[_pick(rng, POS_TAGS) for _ in range(n)], nodes=nodes, edges=edges,
            tops=["v0"]))
    # a record can hold n - 1 edges: make sure every relation type occurs
    for k in range(0, len(roles), nodes_per_record - 1):
        part = roles[k:k + nodes_per_record - 1]
        nodes = [{"id": f"v{i}", "label": labels[i % n_labels], "anchors": None}
                 for i in range(len(part) + 1)]
        edges = [{"src": "v0", "tgt": f"v{i + 1}", "label": r} for i, r in enumerate(part)]
        records.append(CanonicalGraphRecord(
            id=f"rels{k}", framework=Framework.AMR, tokens=["x"], pos=["NN"],
            nodes=nodes, edges=edges, tops=["v0"]))
    return records


# ---------------------------------------------------------------------------
# Scoring pairs


def perturb_labels(rng: np.random.Generator, gold: SemanticGraph, share: float = 0.3
                   ) -> SemanticGraph:
    """Gold with some concept labels replaced by their successor's label:
    the perturbation of the Smatch oracle fixtures."""
    labels = [n.label for n in gold.nodes]
    nodes = tuple(
        GraphNode(n.id, labels[(k + 1) % len(labels)] if rng.random() < share else n.label,
                  n.anchors)
        for k, n in enumerate(gold.nodes)
    )
    return SemanticGraph(gold.framework, nodes, gold.edges, gold.tops)


def perturb_edges(rng: np.random.Generator, gold: SemanticGraph, labels: list[str],
                  share: float = 0.3) -> SemanticGraph:
    """Gold with some edge labels replaced: a prediction for anchored F1."""
    edges = tuple(
        GraphEdge(e.source, e.target, _pick(rng, labels)) if rng.random() < share else e
        for e in gold.edges
    )
    return SemanticGraph(gold.framework, gold.nodes, edges, gold.tops)


def oracle_pair(rng: np.random.Generator, n_nodes: int
                ) -> tuple[SemanticGraph, SemanticGraph]:
    """A gold/pred AMR pair of ``n_nodes`` variables each, drawn the way
    the Smatch oracle fixtures are (at most 8 variables): 40% unrelated
    predictions, otherwise gold with rotated labels.  The caller fixes the
    size so that the cost of exact search does not depend on the seed."""

    def draw() -> SemanticGraph:
        return amr_graph(rng, n_nodes, ORACLE_CONCEPTS,
                         reentrancies=int(rng.integers(0, max(1, n_nodes // 2) + 1)))

    gold = draw()
    pred = draw() if rng.random() < 0.4 else perturb_labels(rng, gold)
    return gold, pred
