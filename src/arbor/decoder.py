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
"""

from __future__ import annotations

from dataclasses import dataclass, replace

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
    lstm: tuple[tuple[Tensor, Tensor], ...]  # per-layer (h, c)
    h_hist: tuple[Tensor, ...]  # final-layer target states, position 0 = ROOT
    z_hist: tuple[Tensor, ...]  # relation hidden states available for copying
    nodes: tuple[NodeRecord, ...]  # emitted target nodes v_1..v_i
    coverage: Tensor  # running sum of encoder attentions
    step: int  # number of relations consumed so far

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
class StepOutput:
    z: Tensor
    vocab_logits: Tensor
    p_vocab: Tensor
    a_enc: Tensor
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

    def label_vec(self, label: str, pos: str) -> Tensor:
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
            h_hist=(enc.init[-1],),
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
        h_i = state.h_hist[-1]

        attn_in = ad.concat([ad.repeat_rows(h_i, enc.n), enc.states], axis=1)
        a_enc = ad.softmax(self.attn_mlp(attn_in))
        context = ad.matmul(a_enc, enc.states)

        u_vec = self.label_vec(rel_in.u_label, rel_in.u_pos)
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
        )
        out = StepOutput(
            z=z, vocab_logits=vocab_logits, p_vocab=p_vocab, a_enc=a_enc, a_dec=a_dec,
            switch=(p_gen, p_enc, p_dec), p_target=p_target, covloss=covloss,
            vocab_size=len(self.word_vocab), n_enc=enc.n, n_dec=n_dec,
            dec_records=state.nodes[:n_dec], fresh_index=state.next_fresh_index,
        )
        return out, new_state

    def feed_target(self, state: DecoderState, record: NodeRecord,
                    train: bool = False, rng: np.random.Generator | None = None
                    ) -> DecoderState:
        """Run the target LSTM over the new node ``v_{i+1}``."""
        x = ad.concat([
            self.label_vec(record.label, record.pos),
            self.index_emb.one(self._index_id(record.index)),
        ])
        new_lstm = []
        for k, cell in enumerate(self.lstm_cells):
            h, cc = cell(x, state.lstm[k])
            new_lstm.append((h, cc))
            x = ad.dropout(h, self.config.dropout, train, rng)
        return replace(
            state,
            lstm=tuple(new_lstm),
            h_hist=state.h_hist + (x,),
            nodes=state.nodes + (record,),
        )

    def source_scores(self, state: DecoderState) -> Tensor:
        """Biaffine pointer logits over positions 0..i (0 is ROOT)."""
        h_new = state.h_hist[-1]
        candidates = ad.stack_rows(state.h_hist[:-1])
        start = self.mlp_start(h_new)
        ends = self.mlp_end(candidates)
        return self.biaffine(start, ends)

    def point_source(self, state: DecoderState) -> Tensor:
        """P(u) over pointer positions 0..i (0 is ROOT).

        ROOT is a candidate only while it is the sole one (the first
        relation); afterwards its probability is exactly zero so every
        later source is a real preceding node and any complete decode
        reconstructs to a single-rooted tree.
        """
        scores = self.source_scores(state)
        if not state.nodes[:-1]:
            return ad.softmax(scores)
        rest = ad.softmax(ad.narrow(scores, 0, 1, scores.shape[0]))
        return ad.concat([ad.constant(np.zeros(1)), rest])

    def relation_scores(self, state: DecoderState, position: int) -> Tensor:
        """Bilinear relation-type logits given the source pointer choice."""
        src = self.mlp_rel_src(state.h_hist[position])
        tgt = self.mlp_rel_tgt(state.h_hist[-1])
        return self.bilinear(src, tgt)

    def relation_dist(self, state: DecoderState, position: int) -> Tensor:
        return ad.softmax(self.relation_scores(state, position))

    def relation_dist_all(self, state: DecoderState) -> np.ndarray:
        """P(r) rows for every candidate source position; inference only."""
        srcs = self.mlp_rel_src(ad.stack_rows(state.h_hist[:-1]))
        tgt = self.mlp_rel_tgt(state.h_hist[-1])
        return ad.softmax(self.bilinear(srcs, tgt), axis=-1).data

    # -- bookkeeping --------------------------------------------------------

    def next_index(self, state: DecoderState, origin: str, copied_from: int | None) -> int:
        if origin == ORIGIN_DEC:
            return state.nodes[copied_from - 1].index
        return state.next_fresh_index

    def reference_record(self, state: DecoderState, label: str, index: int,
                         tokens: list[str], pos_tags: list[str],
                         anchors: tuple[int, ...] | None = None) -> NodeRecord:
        """Build the node record for a teacher-forced reference target.

        Origins are not annotated in references, so POS is inferred by
        rule: an index matching an earlier node means a node copy; else a
        token with the same surface form supplies its POS; else UNK.
        """
        for prev in state.nodes:
            if prev.index == index:
                return NodeRecord(label, index, prev.pos, ORIGIN_DEC, None, anchors)
        for t, tok in enumerate(tokens):
            if tok == label:
                return NodeRecord(label, index, pos_tags[t], ORIGIN_ENC, t,
                                  anchors if anchors is not None else (t,))
        return NodeRecord(label, index, UNK_LABEL, ORIGIN_VOCAB, None, anchors)

    def gold_support(self, out: StepOutput, label: str, tokens: list[str],
                     index: int | None = None) -> list[int]:
        """Positions of the mixed distribution that produce the gold node.

        With an ``index``, only productions that also yield that node index
        count: generation and token copies assign the next fresh index,
        while a node copy reuses its antecedent's.  Without an index (or
        when nothing matches, as with hand-built references that skip
        indices) any production of the label counts.
        """
        by_label: list[int] = [self.word_vocab.id(label)]
        for t, tok in enumerate(tokens):
            if tok == label:
                by_label.append(out.vocab_size + t)
        dec_by_label: list[int] = []
        for k, record in enumerate(out.dec_records):
            if record.label == label:
                dec_by_label.append(out.vocab_size + out.n_enc + k)
        if index is None:
            return by_label + dec_by_label
        support: list[int] = []
        if index == out.fresh_index:
            support.extend(by_label)
        for k, record in enumerate(out.dec_records):
            if record.label == label and record.index == index:
                support.append(out.vocab_size + out.n_enc + k)
        return support if support else by_label + dec_by_label
