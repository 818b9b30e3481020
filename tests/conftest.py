"""Shared generators and fixtures.

The graph fuzzers generate acyclic graphs only: that matches the target
formats (AMR is cyclic only in rare annotation errors) and keeps the
relation-sequence encoding unambiguous.  Arborescence fuzzing attaches
reentrant copies strictly as leaves outside the original's subtree, the
shape the converters themselves produce.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import pytest

from arbor import autodiff as ad
from arbor import formats
from arbor.decoder import StepOutput, gold_blocks
from arbor.encoder import EncoderInput
from arbor.graph import (
    Arborescence,
    ArborNode,
    Framework,
    GraphEdge,
    GraphNode,
    SemanticGraph,
    TERMINAL_EDGE,
)
from arbor.model import ModelConfig, TransducerModel, build_vocabularies
from arbor.training import LossBreakdown, sequence_loss

CONCEPTS = ["want-01", "person", "city", "go-02", "thing", "name", "good", "say-01",
            "country", "dog", "run-02", "see-01"]
AMR_ROLES = ["ARG0", "ARG1", "ARG2", "ARG3", "mod", "poss", "time", "location", "op1", "op2"]
WORDS = ["Pierre", "Vinken", "expressed", "his", "concern", "the", "board", "joined",
         "group", "old", "years", "chairman"]
DM_LABELS = ["ARG1", "ARG2", "ARG3", "BV", "compound", "poss", "loc", "appos", "mwe"]
UCCA_LABELS = ["A", "P", "C", "D", "E", "F", "L", "H", "R", "S"]
POS_TAGS = ["NNP", "NN", "VBD", "DT", "JJ", "PRP$", "CD", "IN"]


# ---------------------------------------------------------------------------
# Gradient checking and test-only ops


class GradCheckReport:
    def __init__(self, tol: float):
        self.tol = tol
        self.max_rel_err = 0.0
        self.worst: tuple[str, tuple, float] | None = None
        self.checked = 0
        self.failures: list[tuple[str, tuple, float, float, float]] = []

    @property
    def passed(self) -> bool:
        return self.max_rel_err < self.tol

    def note(self, name: str, coord: tuple, analytic: float, numeric: float) -> None:
        rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-8)
        self.checked += 1
        if rel > self.max_rel_err:
            self.max_rel_err = rel
            self.worst = (name, coord, rel)
        if rel >= self.tol:
            self.failures.append((name, coord, analytic, numeric, rel))

    def __repr__(self):
        return (
            f"GradCheckReport(checked={self.checked}, max_rel_err={self.max_rel_err:.3g}, "
            f"passed={self.passed})"
        )


def grad_check(
    f,
    params,
    h: float = 1e-5,
    tol: float = 1e-4,
    rng: np.random.Generator | None = None,
    total_coords: int = 200,
) -> GradCheckReport:
    """Compare analytic gradients of ``f()`` against central differences.

    ``params`` is a list of (name, Tensor) pairs; every tensor gets at
    least one sampled coordinate and the remaining budget is spread
    proportionally to tensor size.  ``f`` must be deterministic (dropout
    disabled).
    """
    params = list(params)
    rng = rng if rng is not None else np.random.default_rng(0)

    # a gradient left from an earlier backward would add to the analytic one
    for _, t in params:
        t.zero_grad()
    with ad.Tape() as tape:
        loss = f()
    tape.backward(loss)
    analytic = {
        name: (t.grad.copy() if t.grad is not None else np.zeros_like(t.data))
        for name, t in params
    }
    for _, t in params:
        t.zero_grad()

    total_size = sum(t.size for _, t in params)
    report = GradCheckReport(tol)
    for name, t in params:
        budget = max(1, round(total_coords * t.size / max(total_size, 1)))
        budget = min(budget, t.size)
        flat_ids = rng.choice(t.size, size=budget, replace=False)
        flat = t.data.reshape(-1)
        for fid in flat_ids:
            orig = flat[fid]
            flat[fid] = orig + h
            up = float(f().data)
            flat[fid] = orig - h
            down = float(f().data)
            flat[fid] = orig
            numeric = (up - down) / (2.0 * h)
            coord = np.unravel_index(fid, t.shape) if t.ndim else ()
            report.note(name, coord, float(analytic[name].reshape(-1)[fid]), numeric)
    return report


def check_op(build, params, tol=1e-6, seed=0, coords=40):
    """Gradient-check ``build()`` over the (name, Tensor) ``params``."""
    report = grad_check(build, params, rng=np.random.default_rng(seed),
                        total_coords=coords, tol=tol)
    assert report.passed, report.worst
    return report


def sigmoid(x):
    out = 1.0 / (1.0 + np.exp(-x.data))
    return ad._apply(out, [(x, lambda g: g * out * (1.0 - out))])


def maximum(a, b):
    # ties go to the first argument
    return ad._select("maximum", np.maximum, np.greater_equal, a, b)


def sub(a, b):
    return ad._elementwise("sub", np.subtract, a, b, ad._identity, np.negative)


def exp(x):
    out = np.exp(x.data)
    return ad._apply(out, [(x, lambda g: g * out)])


def tanh(x):
    out = np.tanh(x.data)
    return ad._apply(out, [(x, lambda g: g * (1.0 - out * out))])


def composed_lstm_cell(x, h, c, w_ih, w_hh, b):
    """One LSTM step on vectors as composed ops, which record gradients:
    the taped reference for ``lstm_step`` and ``lstm_layer``, evaluating
    their expressions in their order, so its ``(h, c)`` are bit-equal."""
    gates = ad.add(ad.add(ad.matmul(w_ih, x), ad.matmul(w_hh, h)), b)
    hid = h.shape[0]
    i = sigmoid(ad.narrow(gates, 0, 0, hid))
    f = sigmoid(ad.narrow(gates, 0, hid, 2 * hid))
    g = tanh(ad.narrow(gates, 0, 2 * hid, 3 * hid))
    o = sigmoid(ad.narrow(gates, 0, 3 * hid, 4 * hid))
    c = ad.add(ad.mul(f, c), ad.mul(i, g))
    return ad.mul(o, tanh(c)), c


def backward(loss):
    """Run backward on the innermost active tape."""
    tape = ad._active_tape()
    if tape is None:
        raise ad.TapeError("no active tape; wrap the forward pass in `with Tape() as t:`")
    tape.backward(loss)


def repeat_rows(v, n):
    """Tile a vector into n identical rows, ``(n, d)``, or each row of a
    matrix into n identical rows, ``(m, n, d)``."""
    if v.ndim not in (1, 2):
        raise ad.ShapeError(f"repeat_rows expects a vector or a matrix, got shape {v.shape}")
    out = np.broadcast_to(v.data[..., None, :], v.shape[:-1] + (n, v.shape[-1])).copy()
    return ad._apply(out, [(v, lambda g: g.sum(axis=-2))])


def concatenated_scores(scorer, rows):
    """An ``AttentionScorer``'s score of each concatenated ``[q; k]`` row of
    an ``(n, d)`` matrix, ``(n,)``: its first layer unsplit, ``W [q; k]``."""
    return ad.reshape(scorer.out(scorer.mlp(rows)), rows.shape[:-1])


def random_amr_graph(rng: np.random.Generator, max_nodes: int = 12) -> SemanticGraph:
    """Acyclic, rooted, connected, with reentrancies."""
    n = int(rng.integers(1, max_nodes + 1))
    nodes = [GraphNode(f"v{i}", CONCEPTS[rng.integers(len(CONCEPTS))]) for i in range(n)]
    edges = []
    for i in range(1, n):
        parent = int(rng.integers(0, i))
        edges.append(GraphEdge(f"v{parent}", f"v{i}", AMR_ROLES[rng.integers(len(AMR_ROLES))]))
    seen = {(e.source, e.target, e.label) for e in edges}
    extra = int(rng.integers(0, max(1, n // 2) + 1))
    for _ in range(extra):
        if n < 2:
            break
        u = int(rng.integers(0, n - 1))
        v = int(rng.integers(u + 1, n))  # id order is topological: stays acyclic
        label = AMR_ROLES[rng.integers(len(AMR_ROLES))]
        if (f"v{u}", f"v{v}", label) not in seen:
            seen.add((f"v{u}", f"v{v}", label))
            edges.append(GraphEdge(f"v{u}", f"v{v}", label))
    return SemanticGraph(Framework.AMR, tuple(nodes), tuple(edges), tops=("v0",))


def random_dm_graph(rng: np.random.Generator, max_nodes: int = 12,
                    max_components: int = 3) -> SemanticGraph:
    """Anchored acyclic graph in up to three weakly connected components;
    some nodes are unreachable from the top so edge reversal is exercised."""
    n = int(rng.integers(1, max_nodes + 1))
    n_comp = int(rng.integers(1, min(max_components, n) + 1))
    membership = list(rng.integers(0, n_comp, size=n))
    for c in range(n_comp):  # pin one node per component so none is empty
        membership[c] = c
    nodes = [GraphNode(f"t{i}", WORDS[rng.integers(len(WORDS))], anchors=(i,))
             for i in range(n)]
    edges = []
    seen = set()
    for c in range(n_comp):
        members = [i for i in range(n) if membership[i] == c]
        order = list(rng.permutation(members))
        for k in range(1, len(order)):
            a = order[int(rng.integers(0, k))]
            b = order[k]
            lo, hi = (a, b) if order.index(a) < order.index(b) else (b, a)
            label = DM_LABELS[rng.integers(len(DM_LABELS))]
            edges.append(GraphEdge(f"t{lo}", f"t{hi}", label))
            seen.add((lo, hi, label))
        for _ in range(int(rng.integers(0, len(members)))):
            if len(members) < 2:
                break
            i, j = sorted(rng.choice(len(order), size=2, replace=False))
            lo, hi = order[i], order[j]
            label = DM_LABELS[rng.integers(len(DM_LABELS))]
            if (lo, hi, label) not in seen:
                seen.add((lo, hi, label))
                edges.append(GraphEdge(f"t{lo}", f"t{hi}", label))
    tops = (f"t{int(rng.integers(0, n))}",) if rng.random() < 0.8 else ()
    return SemanticGraph(Framework.DM, tuple(nodes), tuple(edges), tops=tops)


def random_ucca_graph(rng: np.random.Generator, max_nodes: int = 15) -> SemanticGraph:
    """Foundational-layer style tree with remote edges.

    Non-terminals are unlabelled; terminals are anchored tokens attached
    through ``terminal`` edges; remote (second-parent) edges only target
    non-terminals.
    """
    n_term = int(rng.integers(1, max(2, max_nodes // 2)))
    n_nt = int(rng.integers(1, max(2, max_nodes - n_term)))
    nodes = [GraphNode(f"u{i}", "") for i in range(n_nt)]
    edges = []
    for i in range(1, n_nt):
        parent = int(rng.integers(0, i))
        edges.append(GraphEdge(f"u{parent}", f"u{i}",
                               UCCA_LABELS[rng.integers(len(UCCA_LABELS))]))
    for t in range(n_term):
        nodes.append(GraphNode(f"w{t}", WORDS[rng.integers(len(WORDS))], anchors=(t,)))
        # bias terminal attachment toward childless non-terminals
        leaves = [i for i in range(n_nt)
                  if not any(e.source == f"u{i}" for e in edges if e.target.startswith("u"))]
        pool = leaves if leaves and rng.random() < 0.7 else list(range(n_nt))
        parent = pool[int(rng.integers(0, len(pool)))]
        edges.append(GraphEdge(f"u{parent}", f"w{t}", TERMINAL_EDGE))
    seen = {(e.source, e.target, e.label) for e in edges}
    for _ in range(int(rng.integers(0, 3))):
        if n_nt < 3:
            break
        u = int(rng.integers(0, n_nt - 1))
        v = int(rng.integers(u + 1, n_nt))
        label = UCCA_LABELS[rng.integers(len(UCCA_LABELS))]
        if (f"u{u}", f"u{v}", label) not in seen:
            seen.add((f"u{u}", f"u{v}", label))
            edges.append(GraphEdge(f"u{u}", f"u{v}", label))
    return SemanticGraph(Framework.UCCA, tuple(nodes), tuple(edges), tops=("u0",))


def random_graph(rng: np.random.Generator, framework: Framework) -> SemanticGraph:
    if framework == Framework.AMR:
        return random_amr_graph(rng)
    if framework == Framework.DM:
        return random_dm_graph(rng)
    return random_ucca_graph(rng)


def random_arborescence(rng: np.random.Generator, max_nodes: int = 15,
                        with_anchors: bool = False) -> Arborescence:
    """Valid arborescence with leaf reentrancy copies outside the
    original's subtree."""
    n = int(rng.integers(1, max_nodes + 1))
    originals = []
    for i in range(n):
        anchors = (int(rng.integers(0, 20)),) if with_anchors and rng.random() < 0.5 else None
        originals.append(ArborNode(CONCEPTS[rng.integers(len(CONCEPTS))], i + 1,
                                   anchors=anchors))
    for i in range(1, n):
        parent = originals[int(rng.integers(0, i))]
        parent.add(AMR_ROLES[rng.integers(len(AMR_ROLES))], originals[i])

    subtree: dict[int, set[int]] = {i: {i} for i in range(n)}
    def collect(i):
        for _, child in originals[i].children:
            ci = child.index - 1
            collect(ci)
            subtree[i] |= subtree[ci]
    collect(0)

    n_copies = int(rng.integers(0, max(1, n // 3) + 1))
    for _ in range(n_copies):
        m = int(rng.integers(0, n))
        hosts = [i for i in range(n) if i not in subtree[m]]
        if not hosts:
            continue
        p = hosts[int(rng.integers(0, len(hosts)))]
        orig = originals[m]
        originals[p].add(
            AMR_ROLES[rng.integers(len(AMR_ROLES))],
            ArborNode(orig.label, orig.index, anchors=orig.anchors),
        )
    return Arborescence(originals[0])


# ---------------------------------------------------------------------------
# Tiny models


def make_inputs(rng: np.random.Generator, n_tokens: int | None = None) -> EncoderInput:
    n = n_tokens if n_tokens is not None else int(rng.integers(1, 7))
    tokens = [WORDS[rng.integers(len(WORDS))] for _ in range(n)]
    pos = [POS_TAGS[rng.integers(len(POS_TAGS))] for _ in range(n)]
    return EncoderInput(tokens=tokens, pos=pos)


def tiny_config(framework: str = "amr", **overrides) -> ModelConfig:
    """Small dimensions for tests; same architecture."""
    cfg = dict(
        framework=framework,
        word_dim=16, char_emb_dim=6, char_channels=8, pos_dim=6,
        feature_dim=4, index_dim=6, index_table_size=64, rel_dim=8,
        encoder_hidden=12, encoder_layers=2, decoder_layers=2,
        relation_hidden=20, attn_hidden=10, biaffine_size=10, bilinear_size=10,
        dropout=0.0, encoder_vocab_cap=5000, decoder_vocab_cap=5000,
    )
    cfg.update(overrides)
    return ModelConfig(**cfg)


def build_tiny_model(seed: int = 0, framework: str = "amr",
                     extra_labels=(), rel_labels=None, **config_overrides) -> TransducerModel:
    """Model over the shared word/concept pools with tiny dimensions."""
    from arbor.graph import Relation, RelationSequence
    from arbor.linearize import OrderingPolicy
    from arbor import training

    cfg = tiny_config(framework, **config_overrides)
    rng = np.random.default_rng(seed)
    inputs = [make_inputs(rng) for _ in range(6)]
    rels = rel_labels if rel_labels is not None else AMR_ROLES
    fake_refs = []
    labels = CONCEPTS + WORDS + list(extra_labels)
    for k in range(6):
        seq = [Relation("@root@", 0, "root", labels[k % len(labels)], 1)]
        for j, lbl in enumerate(labels):
            seq.append(Relation(labels[k % len(labels)], 1, rels[j % len(rels)], lbl, j + 2))
        fake_refs.append(RelationSequence(tuple(seq)))
    vocabs = build_vocabularies(cfg, inputs, fake_refs)
    return TransducerModel(cfg, vocabs, seed=seed)


@pytest.fixture(scope="session")
def tiny_model():
    return build_tiny_model(seed=0)


# ---------------------------------------------------------------------------
# Synthetic training corpora


NAMES = ["Pierre", "Mary", "John", "Vinken", "Elsevier"]
VERBS = ["expressed", "joined", "saw", "wanted"]
NOUNS = ["concern", "board", "group", "dog", "city"]
DETS = ["the", "a"]


def _amr_record(rng: np.random.Generator, rid: str):
    from arbor.formats import CanonicalGraphRecord

    name = NAMES[rng.integers(len(NAMES))]
    verb = VERBS[rng.integers(len(VERBS))]
    noun = NOUNS[rng.integers(len(NOUNS))]
    tokens = [name, verb, "his", noun][: 3 + int(rng.random() < 0.7)]
    pos = ["NNP", "VBD", "PRP$", "NN"][: len(tokens)]
    nodes = [
        {"id": "v", "label": verb + "-01", "anchors": None},
        {"id": "p", "label": name, "anchors": None},
        {"id": "c", "label": noun, "anchors": None},
    ]
    edges = [
        {"src": "v", "tgt": "p", "label": "ARG0"},
        {"src": "v", "tgt": "c", "label": "ARG1"},
    ]
    if len(tokens) == 4:  # reentrancy through the possessive
        edges.append({"src": "c", "tgt": "p", "label": "poss"})
    return CanonicalGraphRecord(
        id=rid, framework=Framework.AMR, tokens=tokens, pos=pos,
        nodes=nodes, edges=edges, tops=["v"],
    )


def _dm_record(rng: np.random.Generator, rid: str):
    from arbor.formats import CanonicalGraphRecord

    det = DETS[rng.integers(len(DETS))]
    noun = NOUNS[rng.integers(len(NOUNS))]
    verb = VERBS[rng.integers(len(VERBS))]
    det2 = DETS[rng.integers(len(DETS))]
    noun2 = NOUNS[rng.integers(len(NOUNS))]
    tokens = [det, noun, verb, det2, noun2]
    pos = ["DT", "NN", "VBD", "DT", "NN"]
    nodes = [
        {"id": f"t{i}", "label": tokens[i], "anchors": [i]} for i in range(5)
    ]
    edges = [
        {"src": "t0", "tgt": "t1", "label": "BV"},
        {"src": "t2", "tgt": "t1", "label": "ARG1"},
        {"src": "t2", "tgt": "t4", "label": "ARG2"},
        {"src": "t3", "tgt": "t4", "label": "BV"},
    ]
    return CanonicalGraphRecord(
        id=rid, framework=Framework.DM, tokens=tokens, pos=pos,
        nodes=nodes, edges=edges, tops=["t2"],
    )


def _ucca_record(rng: np.random.Generator, rid: str):
    from arbor.formats import CanonicalGraphRecord

    name = NAMES[rng.integers(len(NAMES))]
    verb = VERBS[rng.integers(len(VERBS))]
    noun = NOUNS[rng.integers(len(NOUNS))]
    two_word = rng.random() < 0.5
    tokens = [name, verb, "the", noun] if two_word else [name, verb, noun]
    pos = (["NNP", "VBD", "DT", "NN"] if two_word else ["NNP", "VBD", "NN"])
    nodes = [
        {"id": "r", "label": "", "anchors": None},
        {"id": "pa", "label": "", "anchors": None},
        {"id": "pp", "label": "", "anchors": None},
        {"id": "pc", "label": "", "anchors": None},
    ] + [{"id": f"w{i}", "label": tokens[i], "anchors": [i]} for i in range(len(tokens))]
    edges = [
        {"src": "r", "tgt": "pa", "label": "A"},
        {"src": "r", "tgt": "pp", "label": "P"},
        {"src": "r", "tgt": "pc", "label": "A"},
        {"src": "pa", "tgt": "w0", "label": "terminal"},
        {"src": "pp", "tgt": "w1", "label": "terminal"},
    ]
    if two_word:
        edges.append({"src": "pc", "tgt": "w2", "label": "terminal"})
        edges.append({"src": "pc", "tgt": "w3", "label": "terminal"})
    else:
        edges.append({"src": "pc", "tgt": "w2", "label": "terminal"})
    return CanonicalGraphRecord(
        id=rid, framework=Framework.UCCA, tokens=tokens, pos=pos,
        nodes=nodes, edges=edges, tops=["r"],
    )


def synthetic_corpus(n_amr: int = 11, n_dm: int = 11, n_ucca: int = 10, seed: int = 202):
    """Mixed-framework canonical records with heavy copy structure."""
    rng = np.random.default_rng(seed)
    records = []
    for k in range(n_amr):
        records.append(_amr_record(rng, f"amr{k}"))
    for k in range(n_dm):
        records.append(_dm_record(rng, f"dm{k}"))
    for k in range(n_ucca):
        records.append(_ucca_record(rng, f"ucca{k}"))
    return records


@dataclass
class Checkpoint:
    hyperparameters: dict
    vocabularies: dict
    tensors: dict[str, np.ndarray]


def load_checkpoint(path) -> Checkpoint:
    """The checkpoint at ``path`` as stored: each tensor read by
    ``formats.read_checkpoint`` into a float32 array of its own."""
    def build(hyperparameters, vocabularies, shapes):
        tensors = {name: np.empty(shape, dtype=np.float32) for name, shape in shapes.items()}
        return Checkpoint(hyperparameters, vocabularies, tensors), tensors

    return formats.read_checkpoint(path, build)


def encode_one(encoder, inp, train: bool = False, rng=None):
    """``Encoder.encode`` of one sentence, in train mode under the
    ``dropout_masks`` drawn from ``rng``, as the stepwise decoder draws
    them."""
    masks = None
    if train and encoder.config.dropout > 0.0:
        if rng is None:
            raise ValueError("dropout in train mode needs an explicit rng")
        masks = [encoder.dropout_masks(inp, rng)]
    return encoder.encode(inp, masks=masks)


def output_row(out: StepOutput, b: int) -> StepOutput:
    """Row ``b`` of a ``StepOutput`` alone, with the row axis dropped."""
    def pick(t):
        return None if t is None else ad.element(t, b)

    return StepOutput(
        pick(out.vocab_logits), pick(out.p_vocab), pick(out.a_dec), pick(out.switch),
        pick(out.p_target), pick(out.covloss), out.vocab_size, out.n_enc, out.n_dec,
        out.dec_records[b], out.fresh_index[b],
    )


def predict_one(dec, enc, state, rel_in, train: bool = False, rng=None):
    """``predict_target`` on one state and relation: the output row, with
    the row axis dropped, and the new state."""
    out, (new,) = dec.predict_target(enc, [state], [rel_in], train, rng)
    return output_row(out, 0), new


def reference_feed(dec, state, record, train: bool = False, rng=None):
    """``Decoder.feed_target`` as a taped step: the target LSTM layers on
    the new node by ``composed_lstm_cell``, each layer's output under
    dropout as training draws it."""
    x = ad.element(dec._node_inputs([record], state.label_memo), 0)
    lstm = []
    for cell, (h, c) in zip(dec.lstm_cells, state.lstm):
        h, c = composed_lstm_cell(x, h, c, cell.w_ih, cell.w_hh, cell.b)
        lstm.append((h, c))
        x = ad.dropout(h, dec.config.dropout, train, rng)
    return replace(state, lstm=tuple(lstm), h=x, nodes=state.nodes + (record,))


def sentence_loss(model, enc_input, reference, **kwargs) -> LossBreakdown:
    """``sequence_loss`` of one sentence, with scalar components."""
    loss = sequence_loss(model, [enc_input], [reference], **kwargs)
    return LossBreakdown(*(ad.element(t, 0) for t in (
        loss.nll_source, loss.nll_relation, loss.nll_target, loss.coverage_penalty,
        loss.total)), loss.switch)


def relation_dist(dec, state, position: int):
    """P(r) for one fed state and one source position."""
    return ad.softmax(dec.relation_scores(state, position))


def switch_values(out) -> tuple[float, float, float]:
    """A one-row ``StepOutput``'s (p_gen, p_enc, p_dec), with p_dec 0 before
    a node can be copied."""
    return tuple(out.switch.data.tolist()) + (0.0,) * (3 - out.switch.shape[-1])


def gold_support(dec, out, label: str, tokens: list[str], index: int | None = None
                 ) -> list[int]:
    """Positions of ``out.p_target`` that produce the gold node: the
    ``gold_blocks`` of ``label`` as offsets into the mixed distribution."""
    generate, token_copies, node_copies = gold_blocks(
        label, tokens, out.dec_records, out.fresh_index, index)
    return ([dec.word_vocab.id(label)] * generate
            + [out.vocab_size + t for t in token_copies]
            + [out.vocab_size + out.n_enc + k for k in node_copies])
