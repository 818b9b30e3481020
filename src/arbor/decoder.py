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

Each node is projected once: when a node's state becomes a pointer
candidate (in ``predict_target``), its ``mlp_end`` and ``mlp_rel_src`` rows
are cached on the ``DecoderState``, and the source and relation scorers
stack those rows.  Within one decode, label embeddings are memoised by
(label, POS) while no tape records.  Beam search feeds all of a step's
(hypothesis, target) expansions at once through ``expand``, whose rows
agree to rounding with ``feed_target`` followed by ``point_source`` and
``relation_dist_all`` on each expansion alone; those two are the
one-expansion reference that ``expand`` is tested against, not a second
decode path.

Training does not step through this module's decode forms: under teacher
forcing ``training.sequence_loss`` runs the target LSTM cells step by step
and every head once per sentence as matrix rows (``label_rows``,
``index_rows``, the attention scorers' ``pairs`` form, the biaffine's
shared-candidates form), and builds its inputs with ``reference_node`` and
``gold_blocks``.  The stepwise ``predict_target``/``feed_target`` loss
equals it to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

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
    copied_from: int | None = None  # token position (enc) or node number (dec)
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
class DecoderState:
    """A decode after ``step`` relations.  Of the target states only the last
    one, ``h``, is kept: no scorer reads an earlier one."""

    lstm: tuple[tuple[Tensor, Tensor], ...]  # per-layer (h, c)
    h: Tensor  # final-layer state of the last target (ROOT's before the first)
    z_hist: tuple[Tensor, ...]  # relation hidden states available for copying
    nodes: tuple[NodeRecord, ...]  # emitted target nodes v_1..v_i
    coverage: Tensor  # running sum of encoder attentions
    step: int  # number of relations consumed so far
    # mlp_end and mlp_rel_src of each pointer candidate's state (ROOT, then
    # every target), computed once when it becomes a candidate (in
    # predict_target); after a feed both hold len(nodes) rows
    end_rows: tuple[Tensor, ...] = ()
    rel_src_rows: tuple[Tensor, ...] = ()
    # (label, pos) -> label_vec for one decode, shared by all of its states
    # and never by the model; read and filled only while no tape records
    label_memo: dict = field(default_factory=dict, compare=False, repr=False)

    def node_pos(self, position: int) -> str:
        """POS of the node at pointer position (0 = ROOT -> UNK)."""
        return UNK_LABEL if position == 0 else self.nodes[position - 1].pos

    @property
    def next_fresh_index(self) -> int:
        """Next unused node index.

        Copies reuse their antecedent's index, so the next fresh value is
        one past the count of distinct nodes; it equals the step number on
        copy-free prefixes and keeps decode-time indices aligned with
        first-visit reference indices.
        """
        return max((rec.index for rec in self.nodes), default=0) + 1


@dataclass
class Expansions:
    """One search step's (hypothesis, target) expansions as matrix rows:
    row ``e`` feeds ``records[e]`` to ``parents[e]`` (``Decoder.expand``)."""

    parents: list[DecoderState]
    records: list[NodeRecord]
    lstm: tuple[tuple[Tensor, Tensor], ...]  # per layer (h, c), one row per expansion
    p_source: np.ndarray  # (rows, i + 1): P(u) over positions 0..i
    p_relation: np.ndarray  # (rows, i + 1, types): P(r) for each source position

    def state(self, e: int) -> DecoderState:
        """The state ``feed_target(parents[e], records[e])`` returns."""
        parent = self.parents[e]
        lstm = tuple((Tensor(h.data[e].copy()), Tensor(c.data[e].copy()))
                     for h, c in self.lstm)
        return replace(parent, lstm=lstm, h=lstm[-1][0], nodes=parent.nodes + (self.records[e],))


@dataclass
class StepOutput:
    vocab_logits: Tensor
    p_vocab: Tensor
    a_dec: Tensor | None
    switch: tuple[Tensor, Tensor, Tensor | None]  # (p_gen, p_enc, p_dec)
    p_target: Tensor  # concat of weighted vocab / encoder / decoder blocks
    covloss: Tensor
    vocab_size: int
    n_enc: int
    n_dec: int
    dec_records: tuple[NodeRecord, ...]  # nodes addressable by decoder copy
    fresh_index: int  # index a generated or token-copied node would get

    def switch_values(self) -> tuple[float, float, float]:
        g, e, d = self.switch
        return (float(g.data), float(e.data), float(d.data) if d is not None else 0.0)


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
        """``label_vec`` of each ``(label, pos)`` pair as matrix rows, by
        one lookup per table (teacher forcing)."""
        word = self.word_emb([self.word_vocab.id(label) for label, _ in pairs])
        chars = self.char_cnn.rows([[self.char_vocab.id(ch) for ch in label]
                                    for label, _ in pairs])
        pos = self.pos_emb([self.pos_vocab.id(p) for _, p in pairs])
        return ad.concat([word, chars, pos], axis=1)

    def index_rows(self, indices: list[int]) -> Tensor:
        """Index embeddings of node indices as matrix rows, by one lookup."""
        return self.index_emb([self._index_id(i) for i in indices])

    def label_vec(self, label: str, pos: str, memo: dict | None = None) -> Tensor:
        """Word, character and POS embeddings of a node label.

        ``memo`` is a decode's ``label_memo``.  It is used only while no
        tape records: a recorded lookup must reach the embedding tables'
        gradients every time, so under a tape each call is a new lookup.
        """
        if memo is not None and not ad.recording():
            vec = memo.get((label, pos))
            if vec is None:
                vec = memo[(label, pos)] = self.label_vec(label, pos)
            return vec
        word = self.word_emb.one(self.word_vocab.id(label))
        chars = self.char_cnn([self.char_vocab.id(ch) for ch in label])
        pos_v = self.pos_emb.one(self.pos_vocab.id(pos))
        return ad.concat([word, chars, pos_v])

    # -- stepping -----------------------------------------------------------

    def initial_state(self, enc: EncoderOutput) -> DecoderState:
        lstm = tuple((init, ad.constant(np.zeros(self.config.decoder_hidden)))
                     for init in enc.init)
        return DecoderState(
            lstm=lstm,
            h=enc.init[-1],
            z_hist=(),
            nodes=(),
            coverage=ad.constant(np.zeros(enc.n)),
            step=0,
        )

    def predict_target(self, enc: EncoderOutput, state: DecoderState, rel_in: RelationInput,
                       train: bool = False, rng: np.random.Generator | None = None
                       ) -> tuple[StepOutput, DecoderState]:
        """Consume relation ``rel_in`` and produce the next-target mixture."""
        c = self.config
        h_i = state.h

        attn_in = ad.concat([ad.repeat_rows(h_i, enc.n), enc.states], axis=1)
        a_enc = ad.softmax(self.attn_mlp(attn_in))
        context = ad.matmul(a_enc, enc.states)

        u_vec = self.label_vec(rel_in.u_label, rel_in.u_pos, state.label_memo)
        du_vec = self.index_emb.one(self._index_id(rel_in.u_index))
        r_vec = self.rel_emb.one(self.rel_vocab.id(rel_in.rel))
        z = self.ffn_relation(ad.concat([h_i, context, r_vec, u_vec, du_vec]))
        z = ad.dropout(z, c.dropout, train, rng)

        vocab_logits = self.ffn_vocab(z)
        p_vocab = ad.softmax(vocab_logits)
        switch_logits = self.ffn_switch(z)

        n_dec = len(state.z_hist)
        if n_dec:
            z_rows = ad.stack_rows(state.z_hist)
            pair = ad.concat([ad.repeat_rows(z, n_dec), z_rows], axis=1)
            a_dec = ad.softmax(self.dec_attn_mlp(pair))
            sw = ad.softmax(switch_logits)
            p_gen, p_enc, p_dec = (ad.element(sw, 0), ad.element(sw, 1), ad.element(sw, 2))
            blocks = [ad.mul(p_gen, p_vocab), ad.mul(p_enc, a_enc), ad.mul(p_dec, a_dec)]
        else:
            # no copyable nodes yet: decoder-copy mass is exactly zero
            a_dec = None
            sw = ad.softmax(ad.narrow(switch_logits, 0, 0, 2))
            p_gen, p_enc, p_dec = ad.element(sw, 0), ad.element(sw, 1), None
            blocks = [ad.mul(p_gen, p_vocab), ad.mul(p_enc, a_enc)]
        p_target = ad.concat(blocks)

        covloss = ad.sum_all(ad.minimum(a_enc, state.coverage))
        new_state = replace(
            state,
            z_hist=state.z_hist + (z,) if state.step >= 1 else state.z_hist,
            coverage=ad.add(state.coverage, a_enc),
            step=state.step + 1,
            # h_i is a pointer candidate from the next feed on
            end_rows=state.end_rows + (self.mlp_end(h_i),),
            rel_src_rows=state.rel_src_rows + (self.mlp_rel_src(h_i),),
        )
        out = StepOutput(
            vocab_logits=vocab_logits, p_vocab=p_vocab, a_dec=a_dec,
            switch=(p_gen, p_enc, p_dec), p_target=p_target, covloss=covloss,
            vocab_size=len(self.word_vocab), n_enc=enc.n, n_dec=n_dec,
            dec_records=state.nodes[:n_dec], fresh_index=state.next_fresh_index,
        )
        return out, new_state

    def _node_input(self, record: NodeRecord, memo: dict) -> Tensor:
        """The target LSTM's input for a node: label and index embeddings."""
        return ad.concat([self.label_vec(record.label, record.pos, memo),
                          self.index_emb.one(self._index_id(record.index))])

    def _run_lstm(self, x: Tensor, states, state_rows=None, train: bool = False,
                  rng: np.random.Generator | None = None):
        """Run the target LSTM layers on ``x``; returns the per-layer
        ``(h, c)`` and the last layer's output after dropout."""
        lstm = []
        for cell, state in zip(self.lstm_cells, states):
            h, c = cell(x, state, state_rows)
            lstm.append((h, c))
            x = ad.dropout(h, self.config.dropout, train, rng)
        return tuple(lstm), x

    def feed_target(self, state: DecoderState, record: NodeRecord,
                    train: bool = False, rng: np.random.Generator | None = None
                    ) -> DecoderState:
        """Run the target LSTM over the new node ``v_{i+1}``."""
        lstm, h = self._run_lstm(self._node_input(record, state.label_memo), state.lstm,
                                 train=train, rng=rng)
        return replace(state, lstm=lstm, h=h, nodes=state.nodes + (record,))

    def expand(self, parents: list[DecoderState], records: list[NodeRecord]) -> Expansions:
        """Feed ``records[e]`` to ``parents[e]`` for every expansion ``e`` at
        once, and score its sources and relation types.

        The target LSTM, the source pointer and the relation scorer run
        once over all expansions as matrix rows, and each distinct parent's
        recurrent product and candidate rows are computed once however many
        expansions share it.  The LSTM rows are bit-equal to
        ``feed_target(parents[e], records[e])``; the pointer and type
        projections are gemms over the rows, so ``p_source`` and
        ``p_relation`` agree with ``point_source`` and
        ``relation_dist_all`` on the fed state to rounding.  The parents
        must have consumed the same number of relations, as a beam's
        hypotheses have.
        """
        memo = parents[0].label_memo
        x = ad.stack_rows([self._node_input(r, memo) for r in records])
        distinct: list[DecoderState] = []
        row_of: dict[int, int] = {}  # id(parent) -> its row in ``distinct``
        for s in parents:
            if id(s) not in row_of:
                row_of[id(s)] = len(distinct)
                distinct.append(s)
        state_rows = np.array([row_of[id(s)] for s in parents])
        states = [(ad.stack_rows([s.lstm[k][0] for s in distinct]),
                   ad.stack_rows([s.lstm[k][1] for s in distinct]))
                  for k in range(len(self.lstm_cells))]
        lstm, x = self._run_lstm(x, states, state_rows)
        cached = [(ad.stack_rows(s.end_rows), ad.stack_rows(s.rel_src_rows)) for s in distinct]
        ends = ad.stack_rows([cached[r][0] for r in state_rows])
        srcs = ad.stack_rows([cached[r][1] for r in state_rows])
        p_source = self._source_dist(self.biaffine(self.mlp_start(x), ends))
        p_relation = ad.softmax(self.bilinear(srcs, self.mlp_rel_tgt(x)), axis=-1)
        return Expansions(parents, records, lstm, p_source.data, p_relation.data)

    def source_scores(self, state: DecoderState) -> Tensor:
        """Biaffine pointer logits over positions 0..i (0 is ROOT)."""
        start = self.mlp_start(state.h)
        return self.biaffine(start, ad.stack_rows(state.end_rows))

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

    def point_source(self, state: DecoderState) -> Tensor:
        """P(u) over pointer positions 0..i (0 is ROOT, masked after the
        first relation) for one fed state: the one-expansion reference that
        ``expand`` is tested against; decoding calls ``expand``."""
        return self._source_dist(self.source_scores(state))

    def relation_scores(self, state: DecoderState, position: int) -> Tensor:
        """Bilinear relation-type logits given the source pointer choice."""
        tgt = self.mlp_rel_tgt(state.h)
        return self.bilinear(state.rel_src_rows[position], tgt)

    def relation_dist(self, state: DecoderState, position: int) -> Tensor:
        return ad.softmax(self.relation_scores(state, position))

    def relation_dist_all(self, state: DecoderState) -> np.ndarray:
        """P(r) rows for every candidate source position of one fed state:
        the one-expansion reference that ``expand`` is tested against;
        decoding calls ``expand``."""
        srcs = ad.stack_rows(state.rel_src_rows)
        tgt = self.mlp_rel_tgt(state.h)
        return ad.softmax(self.bilinear(srcs, tgt), axis=-1).data

    # -- bookkeeping --------------------------------------------------------

    def next_index(self, state: DecoderState, origin: str, copied_from: int | None) -> int:
        if origin == ORIGIN_DEC:
            return state.nodes[copied_from - 1].index
        return state.next_fresh_index

    def gold_support(self, out: StepOutput, label: str, tokens: list[str],
                     index: int | None = None) -> list[int]:
        """Positions of the mixed distribution that produce the gold node
        (``gold_blocks`` as offsets into ``out.p_target``)."""
        generate, token_copies, node_copies = gold_blocks(
            label, tokens, out.dec_records, out.fresh_index, index)
        return ([self.word_vocab.id(label)] * generate
                + [out.vocab_size + t for t in token_copies]
                + [out.vocab_size + out.n_enc + k for k in node_copies])


def reference_node(nodes, label: str, index: int, tokens: list[str], pos_tags: list[str],
                   anchors: tuple[int, ...] | None = None) -> NodeRecord:
    """The node record of a teacher-forced reference target after ``nodes``.

    Origins are not annotated in references, so POS is inferred by rule:
    an index matching an earlier node means a node copy; else a token with
    the same surface form supplies its POS; else UNK.
    """
    for prev in nodes:
        if prev.index == index:
            return NodeRecord(label, index, prev.pos, ORIGIN_DEC, None, anchors)
    for t, tok in enumerate(tokens):
        if tok == label:
            return NodeRecord(label, index, pos_tags[t], ORIGIN_ENC, t,
                              anchors if anchors is not None else (t,))
    return NodeRecord(label, index, UNK_LABEL, ORIGIN_VOCAB, None, anchors)


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
