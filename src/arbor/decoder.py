"""Factorized relation decoder.

Per step the decoder consumes the previous relation and produces the next
one in three stages: the target node module predicts the next node label
through a pointer-generator mixture (generate from vocabulary, copy an
input token, copy a preceding node), the source node module points at a
preceding target node (position 0 is the ROOT pseudo-node, represented by
the encoder-derived initialization state), and the relation type module
scores all relation labels with a bilinear form over the source and
target LSTM states.

Node indices follow the copy rule: a node produced by copying a preceding
node reuses that node's index; any other node gets the next step number.
POS tags of nodes are inferred at runtime: token copies take the token's
POS, node copies take the antecedent's POS, generated nodes get the UNK
tag.

A ``DecoderState`` holds the hypotheses of one decode step as rows: the
open hypotheses of one beam, or of the beams of several sentences of
equal length decoded in lockstep; one hypothesis is a one-row state.  One
``predict_target`` call scores the next target of every row, each
reading the encoder rows of its own sentence, and one ``expand`` call
feeds all of the step's (row, target) expansions and scores their
sources and relation types; ``Expansions.state`` gathers the chosen
expansions into the next state.  Every row of both calls is bit-equal to
that row alone: a weight times the rows' queries is one
vector product per row (``per_row``: one gemv, the one the vector form
makes, which ``autodiff._mv`` runs over row blocks of a large weight
when BLAS is OpenBLAS on one thread),
and a product over a row's keys is one matrix of a stacked matmul; a
gemm over all rows would round each row differently depending on the
others.  So an ``expand`` row is also bit-equal to ``feed_target``
(one expansion) followed by ``point_source`` and ``relation_dist_all``,
the one-row reference that ``expand`` is tested against.  Decoding has no
train mode and carries no coverage: the LSTM step runs forward only (it
refuses a tape), ``predict_target`` draws no dropout, and coverage enters
only the training loss.

What no step changes is made once per decode, by ``initial_state``, as
the state's ``DecodeConstants``: each sentence's encoder keys through
the encoder attention's key half (one matrix per sentence, as ``pairs``
projects them), and the transposed halves of both attention weights.
The decoder-copy keys, the z history, go through the key half every
step: a row of a gemm rounds with the number of rows, so a z projected
once as it joined the history would not give the scores ``pairs``
gives.

Each node is projected once: when a node's state becomes a pointer
candidate (in ``predict_target``), its ``mlp_end`` and ``mlp_rel_src`` rows
are appended to the row blocks that the ``DecoderState`` holds, as its z
is to the z history, and the source and relation scorers read those
blocks whole.  A label embedding is the one row of ``label_rows``, the
lookup training makes for all of its labels; within one decode it is
memoised by (label, POS) while no tape records.

Training does not step through this module's decode forms: under teacher
forcing ``training.sequence_loss`` runs each target LSTM layer as one
``autodiff.lstm_layer`` op and every head once per batch as matrix rows
(``label_rows``, ``index_rows``, the attention scorers' ``pairs``, the
biaffine over all of a sentence's targets at once), and builds its inputs
with ``reference_node`` and ``gold_blocks``.  The pairwise scorers are the
same calls in both: decoding gives each row's query to the two
attentions' ``pairs`` and to the source pointer's biaffine as a one-row
matrix against that row's own keys or candidates, and to the relation
bilinear as a query row against its own source rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from . import autodiff as ad
from . import nn
from .autodiff import Tensor
from .encoder import EncoderOutput
from .graph import ROOT_INDEX, ROOT_LABEL, ROOT_RELATION, UNK_LABEL
from .vocab import Vocab

ORIGIN_VOCAB = "vocab"
ORIGIN_ENC = "enc"
ORIGIN_DEC = "dec"


@dataclass(frozen=True)
class NodeRecord:
    label: str
    index: int
    pos: str
    origin: str
    anchors: tuple[int, ...] | None = None


@dataclass(frozen=True)
class RelationInput:
    """The consumed relation's source and type parts (targets are fed
    separately through the LSTM)."""

    u_label: str
    u_index: int
    u_pos: str
    rel: str


BOS_INPUT = RelationInput(ROOT_LABEL, ROOT_INDEX, UNK_LABEL, ROOT_RELATION)


@dataclass(frozen=True)
class DecodeConstants:
    """What every step of one decode reads and no step changes, made once
    by ``initial_state``: each sentence's encoder keys through the encoder
    attention's key half, and the transposes of both attention scorers
    (``nn.AttentionScorer.transposes``).  They hold the weights of the
    moment the decode started; the next decode makes its own."""

    enc: EncoderOutput  # the encoding they were made from (predict_target checks)
    enc_keys: Tensor  # (sentences, n, attn_hidden): W_k of each encoder state
    attn: nn.Transposes
    dec_attn: nn.Transposes


@dataclass(frozen=True)
class DecoderState:
    """The hypotheses of a decode after ``step`` relations, as rows: every
    tensor has a leading row axis, and ``nodes`` and ``rows`` hold one entry
    per row.  Of the target states only the last one, ``h``, is kept.  The
    z history and the candidate rows are stacks of matrices that
    ``predict_target`` grows by a row each step."""

    lstm: tuple[tuple[Tensor, Tensor], ...]  # per layer (h, c), (rows, decoder_hidden) each
    h: Tensor  # final-layer state of each row's last target (ROOT's before the first)
    z_hist: Tensor  # (rows, i, relation_hidden): relation hidden states available for copying
    nodes: tuple[tuple[NodeRecord, ...], ...]  # per row, the emitted target nodes v_1..v_i
    step: int  # number of relations consumed so far
    # mlp_end and mlp_rel_src of each pointer candidate's state (ROOT, then
    # every target) as rows of each row's matrix, computed once when it
    # becomes a candidate (in predict_target); after a feed both hold
    # len(nodes[b]) rows for row b
    end_rows: Tensor
    rel_src_rows: Tensor
    rows: tuple[int, ...]  # each row's sentence in the encoded batch
    # shared by all states of one decode, as label_memo is
    constants: DecodeConstants = field(compare=False, repr=False)
    # (label, pos) -> label_vec for one decode (of one sentence or of several
    # in lockstep), shared by all of its states and never by the model; read
    # and filled only while no tape records
    label_memo: dict = field(default_factory=dict, compare=False, repr=False)

    def take(self, idx) -> DecoderState:
        """Rows ``idx`` of this state, in that order; a row may repeat."""
        idx = np.asarray(idx, dtype=np.intp)
        rows = partial(ad.embedding_gather, ids=idx)
        return replace(
            self, lstm=tuple((rows(h), rows(c)) for h, c in self.lstm), h=rows(self.h),
            z_hist=rows(self.z_hist), nodes=tuple(self.nodes[b] for b in idx),
            end_rows=rows(self.end_rows), rel_src_rows=rows(self.rel_src_rows),
            rows=tuple(self.rows[b] for b in idx))

    def node_pos(self, row: int, position: int) -> str:
        """POS of the node of row ``row`` at pointer position (0 = ROOT -> UNK)."""
        return UNK_LABEL if position == 0 else self.nodes[row][position - 1].pos

    def next_fresh_index(self, row: int) -> int:
        """Next unused node index of row ``row``.

        Copies reuse their antecedent's index, so the next fresh value is
        one past the count of distinct nodes; it equals the step number on
        copy-free prefixes and keeps decode-time indices aligned with
        first-visit reference indices.
        """
        return max((rec.index for rec in self.nodes[row]), default=0) + 1


@dataclass
class Expansions:
    """One search step's (row, target) expansions as matrix rows:
    row ``e`` feeds ``records[e]`` to row ``parents[e]`` of ``base``
    (``Decoder.expand``)."""

    base: DecoderState
    parents: np.ndarray  # the row of base that each expansion feeds
    records: list[NodeRecord]
    lstm: tuple[tuple[Tensor, Tensor], ...]  # per layer (h, c), one row per expansion
    p_source: np.ndarray  # (rows, i + 1): P(u) over positions 0..i
    p_relation: np.ndarray  # (rows, i + 1, types): P(r) for each source position

    def state(self, sel) -> DecoderState:
        """The fed state whose row ``k`` is expansion ``sel[k]``; an
        expansion may repeat."""
        sel = np.asarray(sel, dtype=np.intp)
        fed = self.base.take(self.parents[sel])
        lstm = tuple((Tensor(h.data[sel]), Tensor(c.data[sel])) for h, c in self.lstm)
        nodes = tuple(prev + (self.records[e],) for prev, e in zip(fed.nodes, sel))
        return replace(fed, lstm=lstm, h=lstm[-1][0], nodes=nodes)


@dataclass
class StepOutput:
    """The target head's output for the rows of a state: each tensor has a
    leading row axis, and ``dec_records`` and ``fresh_index`` hold one entry
    per row."""

    vocab_logits: Tensor
    p_vocab: Tensor
    a_dec: Tensor | None
    switch: Tensor  # (p_gen, p_enc, p_dec); no p_dec before a node can be copied
    p_target: Tensor  # concat of weighted vocab / encoder / decoder blocks
    vocab_size: int
    n_enc: int
    n_dec: int
    dec_records: tuple  # per row, the nodes addressable by decoder copy
    fresh_index: tuple[int, ...]  # per row, the index a generated or token-copied node would get


class Decoder(nn.Module):
    def __init__(self, rng, config, word_vocab: Vocab, rel_vocab: Vocab,
                 pos_vocab: Vocab, char_vocab: Vocab, char_cnn: nn.CharCnn,
                 pos_table: nn.Embedding):
        super().__init__()
        self.config = config
        self.word_vocab = word_vocab
        self.rel_vocab = rel_vocab
        self.pos_vocab = pos_vocab
        self.char_vocab = char_vocab

        c = config
        self.word_emb = self.add_child("word", nn.Embedding(rng, len(word_vocab), c.word_dim))
        self.char_cnn = self.add_child("char_cnn", char_cnn)
        self.pos_emb = self.add_child("pos", pos_table)
        self.rel_emb = self.add_child("rel", nn.Embedding(rng, len(rel_vocab), c.rel_dim))
        self.index_emb = self.add_child(
            "index", nn.Embedding(rng, c.index_table_size, c.index_dim)
        )

        label_dim = c.word_dim + c.char_channels + c.pos_dim
        self.label_dim = label_dim
        self.lstm_cells = [
            self.add_child(
                f"lstm.l{k}",
                nn.LstmCell(rng, label_dim + c.index_dim if k == 0 else c.decoder_hidden,
                            c.decoder_hidden),
            )
            for k in range(c.decoder_layers)
        ]
        enc_dim = 2 * c.encoder_hidden
        self.attn_mlp = self.add_child(
            "attn", nn.AttentionScorer(rng, c.decoder_hidden + enc_dim, c.attn_hidden))
        self.ffn_relation = self.add_child(
            "ffn_relation",
            nn.Linear(rng, c.decoder_hidden + enc_dim + c.rel_dim + label_dim + c.index_dim,
                      c.relation_hidden),
        )
        self.ffn_vocab = self.add_child(
            "ffn_vocab", nn.Linear(rng, c.relation_hidden, len(word_vocab))
        )
        self.dec_attn_mlp = self.add_child(
            "dec_attn", nn.AttentionScorer(rng, 2 * c.relation_hidden, c.attn_hidden)
        )
        self.ffn_switch = self.add_child("ffn_switch", nn.Linear(rng, c.relation_hidden, 3))
        self.mlp_start = self.add_child(
            "mlp_start", nn.Mlp(rng, c.decoder_hidden, c.biaffine_size)
        )
        self.mlp_end = self.add_child("mlp_end", nn.Mlp(rng, c.decoder_hidden, c.biaffine_size))
        self.biaffine = self.add_child(
            "biaffine", nn.Biaffine(rng, c.biaffine_size, c.biaffine_size)
        )
        self.mlp_rel_src = self.add_child(
            "mlp_rel_src", nn.Mlp(rng, c.decoder_hidden, c.bilinear_size)
        )
        self.mlp_rel_tgt = self.add_child(
            "mlp_rel_tgt", nn.Mlp(rng, c.decoder_hidden, c.bilinear_size)
        )
        self.bilinear = self.add_child(
            "bilinear", nn.Bilinear(rng, c.bilinear_size, c.bilinear_size, len(rel_vocab))
        )

    # -- embeddings ---------------------------------------------------------

    def _index_id(self, index: int) -> int:
        return min(max(index, 0), self.config.index_table_size - 1)  # overflow bucket

    def label_rows(self, pairs: list[tuple[str, str]]) -> Tensor:
        """Word, character and POS embeddings of each ``(label, pos)`` pair
        of node labels as matrix rows, by one lookup per table."""
        word = self.word_emb([self.word_vocab.id(label) for label, _ in pairs])
        chars = self.char_cnn.rows([[self.char_vocab.id(ch) for ch in label]
                                    for label, _ in pairs])
        pos = self.pos_emb([self.pos_vocab.id(p) for _, p in pairs])
        return ad.concat([word, chars, pos], axis=1)

    def index_rows(self, indices: list[int]) -> Tensor:
        """Index embeddings of node indices as matrix rows, by one lookup."""
        return self.index_emb([self._index_id(i) for i in indices])

    def label_vec(self, label: str, pos: str, memo: dict | None = None) -> Tensor:
        """The ``label_rows`` row of one node label.

        ``memo`` is a decode's ``label_memo``.  It is used only while no
        tape records: a recorded lookup must reach the embedding tables'
        gradients every time, so under a tape each call is a new lookup.
        """
        if memo is not None and not ad.recording():
            vec = memo.get((label, pos))
            if vec is None:
                vec = memo[(label, pos)] = self.label_vec(label, pos)
            return vec
        return ad.element(self.label_rows([(label, pos)]), 0)

    # -- stepping -----------------------------------------------------------

    def initial_state(self, enc: EncoderOutput) -> DecoderState:
        """The state before the first relation: one row per sentence of an
        encoded batch, with the decode's ``DecodeConstants`` made from the
        current weights.  The encoder keys are one stacked matmul, one
        matrix per sentence, as ``pairs`` projects them."""
        c, rows = self.config, len(enc.lengths)
        lstm = tuple((h, ad.constant(np.zeros((rows, c.decoder_hidden)))) for h in enc.init)
        attn = self.attn_mlp.transposes(c.decoder_hidden)
        return DecoderState(
            constants=DecodeConstants(enc, self.attn_mlp.project_keys(enc.states, attn), attn,
                                      self.dec_attn_mlp.transposes(c.relation_hidden)),
            lstm=lstm,
            h=enc.init[-1],
            z_hist=ad.constant(np.zeros((rows, 0, c.relation_hidden))),
            nodes=((),) * rows,
            step=0,
            end_rows=ad.constant(np.zeros((rows, 0, c.biaffine_size))),
            rel_src_rows=ad.constant(np.zeros((rows, 0, c.bilinear_size))),
            rows=tuple(range(rows)),
        )

    def predict_target(self, enc: EncoderOutput, state: DecoderState,
                       rel_ins: list[RelationInput]) -> tuple[StepOutput, DecoderState]:
        """Consume relation ``rel_ins[b]`` in row ``b`` of ``state`` for every
        row and produce the next-target mixtures, as one ``StepOutput`` of
        rows and the new state.  The rows have consumed the same number of
        relations, since they are rows of one state.

        ``enc`` encodes sentences of equal length, and row ``b`` reads the
        encoder rows of its sentence, ``state.rows[b]``.  The rows may come
        in any order, and several may share a sentence.

        Each row is bit-equal to that row alone.  A weight times the rows'
        queries (the ``ffn_*`` layers, ``mlp_end``, ``mlp_rel_src``, the
        attentions' query halves) is one vector product per row, and a
        product over a row's keys (the attentions' key halves and output
        layers, ``a_enc @ enc.states``) is one matrix of a stacked matmul;
        a gemm over all rows would round differently.  The encoder keys
        come projected from ``state.constants``.  A state paired with an
        encoding other than the one it was started from (a row of a batch
        against its sentence encoded alone) has its rows' keys projected
        on every step instead, to the same bits.
        """
        rows, n = len(state.rows), enc.n
        if min(enc.lengths) < n:
            raise ValueError("predict_target: sentences of unequal length need padding masks")
        consts = state.constants
        keys = ad.embedding_gather(enc.states, state.rows)
        if consts.enc is enc:
            enc_keys = ad.embedding_gather(consts.enc_keys, state.rows)
        else:
            enc_keys = self.attn_mlp.project_keys(keys, consts.attn)
        h = state.h

        a_enc = ad.softmax(self.attn_mlp.score(h, enc_keys, consts.attn))
        context = ad.reshape(ad.matmul(ad.reshape(a_enc, (rows, 1, n)), keys),
                             (rows, keys.shape[2]))

        u = ad.stack_rows([self.label_vec(r.u_label, r.u_pos, state.label_memo)
                           for r in rel_ins])
        du = self.index_rows([r.u_index for r in rel_ins])
        rel = self.rel_emb([self.rel_vocab.id(r.rel) for r in rel_ins])
        z = self.ffn_relation(ad.concat([h, context, rel, u, du], axis=1), per_row=True)

        vocab_logits = self.ffn_vocab(z, per_row=True)
        p_vocab = ad.softmax(vocab_logits)
        switch_logits = self.ffn_switch(z, per_row=True)

        z_hist = state.z_hist
        n_dec = z_hist.shape[1]
        blocks = [p_vocab, a_enc]
        if n_dec:
            dec_attn = self.dec_attn_mlp
            a_dec = ad.softmax(dec_attn.score(
                z, dec_attn.project_keys(z_hist, consts.dec_attn), consts.dec_attn))
            blocks.append(a_dec)
        else:
            # no copyable nodes yet: decoder-copy mass is exactly zero
            a_dec = None
            switch_logits = ad.narrow(switch_logits, 1, 0, 2)
        sw = ad.softmax(switch_logits)
        weights = [ad.narrow(sw, 1, k, k + 1) for k in range(len(blocks))]  # (rows, 1) each
        p_target = ad.concat([ad.mul(w, block) for w, block in zip(weights, blocks)], axis=1)

        if state.step >= 1:
            z_hist = _append_rows(z_hist, z)
        # h is a pointer candidate from the next feed on
        new = replace(state, z_hist=z_hist, step=state.step + 1,
                      end_rows=_append_rows(state.end_rows, self.mlp_end(h, per_row=True)),
                      rel_src_rows=_append_rows(state.rel_src_rows,
                                                self.mlp_rel_src(h, per_row=True)))
        out = StepOutput(
            vocab_logits=vocab_logits, p_vocab=p_vocab, a_dec=a_dec, switch=sw,
            p_target=p_target, vocab_size=len(self.word_vocab), n_enc=n, n_dec=n_dec,
            dec_records=tuple(nodes[:n_dec] for nodes in state.nodes),
            fresh_index=tuple(state.next_fresh_index(b) for b in range(rows)),
        )
        return out, new

    def _node_inputs(self, records: list[NodeRecord], memo: dict) -> Tensor:
        """The target LSTM's input rows for nodes: their memoised label
        vectors beside their index embeddings, gathered by one lookup."""
        labels = ad.stack_rows([self.label_vec(r.label, r.pos, memo) for r in records])
        return ad.concat([labels, self.index_rows([r.index for r in records])], axis=1)

    def feed_target(self, state: DecoderState, record: NodeRecord) -> DecoderState:
        """Run the target LSTM of a one-row state over the new node
        ``v_{i+1}``: one ``expand``."""
        return self.expand(state, [0], [record]).state([0])

    def expand(self, state: DecoderState, parents, records: list[NodeRecord]) -> Expansions:
        """Feed ``records[e]`` to row ``parents[e]`` of ``state`` for every
        expansion ``e`` at once, and score its sources and relation types.

        The target LSTM, the source pointer and the relation scorer run
        once over all expansions as matrix rows.  The recurrent product of
        each row of ``state`` is computed once however many expansions
        share it, as is the input projection of each distinct (label, POS,
        index) node; the candidate rows are the parent rows' own blocks.
        Each row is bit-equal to the expansion alone, and ``p_source`` and
        ``p_relation`` to ``point_source`` and ``relation_dist_all`` on the
        fed state, since every query projection is one product per row.
        """
        parents = np.asarray(parents, dtype=np.intp)
        nodes, input_rows = _distinct(records, lambda r: (r.label, r.pos, r.index))
        x, lstm = self._node_inputs(nodes, state.label_memo), []
        for k, cell in enumerate(self.lstm_cells):  # layer k's rows read layer k-1's
            x, c = cell(x, state.lstm[k], parents, None if k else input_rows)
            lstm.append((x, c))
        ends = ad.embedding_gather(state.end_rows, parents)
        srcs = ad.embedding_gather(state.rel_src_rows, parents)
        p_source = self._source_dist(self.biaffine(self.mlp_start(x, per_row=True), ends))
        p_relation = ad.softmax(self._relation_logits(x, srcs), axis=-1)
        return Expansions(state, parents, records, tuple(lstm), p_source.data, p_relation.data)

    def _relation_logits(self, h: Tensor, srcs: Tensor) -> Tensor:
        """Bilinear relation-type logits of target rows ``h`` over their own
        candidate source matrices ``srcs``, ``(rows, i + 1, types)``."""
        return self.bilinear(srcs, self.mlp_rel_tgt(h, per_row=True), per_row=True)

    @staticmethod
    def _source_dist(scores: Tensor) -> Tensor:
        """P(u) from pointer logits over positions 0..i on the last axis.

        ROOT is a candidate only while it is the sole one (the first
        relation); afterwards its probability is exactly zero so every
        later source is a real preceding node and any complete decode
        reconstructs to a single-rooted tree.
        """
        n = scores.shape[-1]
        if n == 1:
            return ad.softmax(scores, axis=-1)
        rest = ad.softmax(ad.narrow(scores, scores.ndim - 1, 1, n), axis=-1)
        return ad.concat([ad.constant(np.zeros(scores.shape[:-1] + (1,))), rest], axis=-1)

    # -- one fed one-row state: the references that expand is tested against;
    # decoding calls expand

    def source_scores(self, state: DecoderState) -> Tensor:
        """Biaffine pointer logits over positions 0..i (0 is ROOT)."""
        return ad.element(self.biaffine(self.mlp_start(state.h, per_row=True),
                                        state.end_rows), 0)

    def point_source(self, state: DecoderState) -> Tensor:
        """P(u) over pointer positions 0..i (0 is ROOT, masked after the
        first relation)."""
        return self._source_dist(self.source_scores(state))

    def relation_scores(self, state: DecoderState, position: int) -> Tensor:
        """Bilinear relation-type logits given the source pointer choice."""
        return ad.element(ad.element(self._relation_logits(state.h, state.rel_src_rows), 0),
                          position)

    def relation_dist_all(self, state: DecoderState) -> np.ndarray:
        """P(r) rows for every candidate source position."""
        return ad.softmax(ad.element(self._relation_logits(state.h, state.rel_src_rows), 0),
                          axis=-1).data


def _distinct(items: list, key) -> tuple[list, np.ndarray]:
    """The items of distinct ``key``, in order of first appearance, and for
    each item the row of its key among them."""
    row_of: dict = {}
    distinct, rows = [], []
    for item in items:
        k = key(item)
        if k not in row_of:
            row_of[k] = len(distinct)
            distinct.append(item)
        rows.append(row_of[k])
    return distinct, np.array(rows)


def _append_rows(blocks: Tensor, rows: Tensor) -> Tensor:
    """Row ``b`` of ``rows`` appended to matrix ``b`` of the stack ``blocks``."""
    return ad.concat([blocks, ad.reshape(rows, (rows.shape[0], 1, rows.shape[1]))], axis=1)


def reference_node(nodes, label: str, index: int, tokens: list[str], pos_tags: list[str],
                   anchors: tuple[int, ...] | None = None) -> NodeRecord:
    """The node record of a teacher-forced reference target after ``nodes``.

    Origins are not annotated in references, so POS is inferred by rule:
    an index matching an earlier node means a node copy; else a token with
    the same surface form supplies its POS; else UNK.
    """
    for prev in nodes:
        if prev.index == index:
            return NodeRecord(label, index, prev.pos, ORIGIN_DEC, anchors)
    for t, tok in enumerate(tokens):
        if tok == label:
            return NodeRecord(label, index, pos_tags[t], ORIGIN_ENC,
                              anchors if anchors is not None else (t,))
    return NodeRecord(label, index, UNK_LABEL, ORIGIN_VOCAB, anchors)


def gold_blocks(label: str, tokens: list[str], dec_records, fresh_index: int,
                index: int | None = None) -> tuple[bool, list[int], list[int]]:
    """The productions of the gold node, per block of the mixed
    distribution: whether generating the label's vocabulary entry counts,
    the input tokens whose copy counts, and the copyable nodes
    (``dec_records``) whose copy counts.

    With an ``index``, only productions that also yield that node index
    count: generation and token copies assign ``fresh_index``, while a
    node copy reuses its antecedent's.  Without an index (or when nothing
    matches, as with hand-built references that skip indices) any
    production of the label counts.
    """
    token_copies = [t for t, tok in enumerate(tokens) if tok == label]
    by_label = [k for k, record in enumerate(dec_records) if record.label == label]
    if index is None:
        return True, token_copies, by_label
    fresh = index == fresh_index
    by_index = [k for k in by_label if dec_records[k].index == index]
    if not (fresh or by_index):
        return True, token_copies, by_label
    return fresh, token_copies if fresh else [], by_index
