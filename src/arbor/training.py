"""Reference construction, loss assembly and the optimization loop.

The loss per reference relation decomposes into three negative
log-likelihood terms (source pointer, relation type, target node) plus a
coverage penalty.  The target-node NLL is computed against the mixed
generate/copy distribution, counting *every* production of the gold label
(vocabulary entry, matching input tokens, matching preceding nodes) as
correct.  Label smoothing applies to the vocabulary-generation and
relation-type distributions only; smoothing over the dynamic pointer
supports would be ill-defined.

Under teacher forcing every decoder input is known before the first
step, so ``sequence_loss`` runs only the LSTM recurrences step by step,
inside one ``autodiff.lstm_layer`` op per layer and direction (then one
dropout over the layer's rows).  Every head runs once over the prediction
steps as matrix rows: encoder attention for all T queries, the
``ffn_relation``/``ffn_vocab``/``ffn_switch`` affines, decoder-copy
attention over the relation states under a causal mask, the biaffine
pointer as one T x T product under a lower-triangular mask (ROOT only
while it is the gold source), the bilinear scorer at the gold source rows
only, and coverage as an exclusive cumulative sum of the attention rows.
The attention scorers' ``pairs``, the biaffine and the bilinear take the
call form decoding uses, here with all of a sentence's queries as rows.

``sequence_loss`` takes lists of sentences and references and returns
``(B,)`` loss components; ``train`` makes one call and one backward pass
per batch.  The batch's B sentences run as rows: the encoder and target LSTMs
over B padded sequences, where a padded step carries the state, and every
head over (B, T) stacks, T the batch's longest, with padding masks on top
of the causal ones (padded keys get no attention, padded steps add
exactly 0 to every loss term and pass no gradient).  One sentence is a
batch of one.  Dropout follows one rule: before any op runs, each
sentence in batch order draws what it draws alone, in the stepwise
order: its encoder embedding mask, its encoder state mask, one block for
its relation steps (each step's relation-state mask, then its LSTM layer
masks), then its EOS step's relation-state mask.  So each sentence's
loss equals the tests' stepwise loss (one-row ``predict_target`` calls
and a taped LSTM step per relation) on that sentence alone to rounding,
dropout included, and the generator ends where running the sentences
one by one leaves it.  Inference keeps the stepwise
``Decoder.predict_target`` and ``Decoder.expand``.
"""

from __future__ import annotations

import json
import random
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .decoder import (BOS_INPUT, ORIGIN_VOCAB, NodeRecord, RelationInput, gold_blocks,
                      reference_node)
from .encoder import EncoderInput
from .evaluate import F1Report
from .graph import EOS_LABEL, PAD_LABEL, UNK_LABEL, RelationSequence
from .linearize import OrderingPolicy, arbor_to_relations, resolve_source
from .model import (FRACTION, NON_NEGATIVE, POSITIVE, TransducerModel, check_fields,
                    encoder_input_from_record)


@dataclass
class TrainConfig:
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    max_grad_norm: float = 5.0
    coverage_weight: float = 1.0
    label_smoothing: float = 0.1
    batch_size: int = 64
    max_epochs: int = 500
    patience: int = 5
    seed: int = 13

    def __post_init__(self):
        check_fields(self, _TRAIN_RANGES)


_TRAIN_RANGES = dict(
    learning_rate=POSITIVE, beta1=FRACTION, beta2=FRACTION, adam_eps=POSITIVE,
    max_grad_norm=POSITIVE, coverage_weight=NON_NEGATIVE, label_smoothing=FRACTION,
    batch_size=POSITIVE, max_epochs=NON_NEGATIVE, patience=NON_NEGATIVE, seed=NON_NEGATIVE)


@dataclass
class LossBreakdown:
    """Loss components, each ``(B,)``: one entry per sentence of a batch."""

    nll_source: Tensor
    nll_relation: Tensor
    nll_target: Tensor
    coverage_penalty: Tensor
    total: Tensor
    # switch probabilities (generate, token copy, node copy) per prediction
    # step, one row each, the sentences' steps stacked in batch order
    switch: np.ndarray | None = None

    def values(self) -> dict[str, list[float]]:
        return {
            "nll_source": self.nll_source.data.tolist(),
            "nll_relation": self.nll_relation.data.tolist(),
            "nll_target": self.nll_target.data.tolist(),
            "coverage_penalty": self.coverage_penalty.data.tolist(),
            "total": self.total.data.tolist(),
        }


def make_reference(arbor, policy: OrderingPolicy) -> RelationSequence:
    """Linearize a reference arborescence; the EOS flag marks the extra
    end-of-sequence prediction step."""
    seq = arbor_to_relations(arbor, policy)
    return RelationSequence(seq.relations, eos=True)


def smoothed_targets(n_classes: int, gold: int, eps: float) -> np.ndarray:
    """(1 - eps) * onehot + eps / K."""
    q = np.full(n_classes, eps / n_classes)
    q[gold] += 1.0 - eps
    return q


def _masked(scores: Tensor, allowed: np.ndarray) -> Tensor:
    """``scores`` with the entries that ``allowed`` rules out set to -inf, so
    a softmax over each row gives them exactly zero mass."""
    return ad.add(scores, ad.constant(np.where(allowed, 0.0, -np.inf)))


def _block_mass(p: Tensor, support: np.ndarray) -> Tensor:
    """Per row, the mass of ``p`` on the 0/1 ``support`` entries."""
    return ad.sum_axis(ad.mul(p, ad.constant(support)), -1)


def _row_sums(x: Tensor, rows: np.ndarray | None = None) -> Tensor:
    """Each sentence's sum of a ``(B, ...)`` stack, with ``rows`` (B, T)
    weighting the rows of the second axis: one pairwise sum over each
    sentence's entries, so a one-sentence batch sums as ``sum_all`` does."""
    if rows is not None:
        x = ad.mul(x, ad.constant(rows.reshape(rows.shape + (1,) * (x.ndim - 2))))
    return ad.sum_axis(ad.reshape(x, (x.shape[0], -1)), 1)


def _padded(blocks, shape) -> np.ndarray:
    """The arrays ``blocks`` in the leading corners of zero arrays of
    ``shape``, stacked: ``(len(blocks),) + shape``."""
    out = np.zeros((len(blocks),) + tuple(shape))
    for b, block in enumerate(blocks):
        out[(b,) + tuple(slice(0, k) for k in block.shape)] = block
    return out


# the LSTM input of a padded step
_PAD_NODE = NodeRecord(PAD_LABEL, 0, PAD_LABEL, ORIGIN_VOCAB)


@dataclass
class _TeacherForcing:
    """The plain-Python inputs of one reference, for all T prediction steps
    (the relations, then the EOS step if any)."""

    nodes: list[NodeRecord]  # targets v_1..v_N, the LSTM's inputs
    inputs: list[RelationInput]  # relation consumed before each step
    gold_pos: list[int]  # source pointer position of each relation
    vocab: np.ndarray  # (T, V) support of the generate block
    tokens: np.ndarray  # (T, n) support of the token-copy block
    copies: np.ndarray  # (T, T) support of the node-copy block, node k in column k


def _teacher_forcing(dec, enc_input: EncoderInput, reference: RelationSequence
                     ) -> _TeacherForcing:
    rels, tokens = reference.relations, enc_input.tokens
    n_steps = len(rels) + bool(reference.eos)
    plan = _TeacherForcing([], [BOS_INPUT], [], np.zeros((n_steps, len(dec.word_vocab))),
                           np.zeros((n_steps, len(tokens))), np.zeros((n_steps, n_steps)))
    nodes, fresh = plan.nodes, 1
    for i in range(n_steps):
        label, index = (EOS_LABEL, None) if i == len(rels) else (rels[i].target,
                                                                  rels[i].target_index)
        # step i may copy the nodes whose relation state is in the history:
        # v_1..v_{i-1}
        generate, token_copies, node_copies = gold_blocks(
            label, tokens, nodes[: max(i - 1, 0)], fresh, index)
        plan.vocab[i, dec.word_vocab.id(label)] = generate
        plan.tokens[i, token_copies] = 1.0
        plan.copies[i, node_copies] = 1.0
        if i == len(rels):
            break
        rel = rels[i]
        nodes.append(reference_node(nodes, rel.target, rel.target_index, tokens,
                                    enc_input.pos, rel.target_anchors))
        fresh = max(fresh, rel.target_index + 1)
        pos = resolve_source(rels[:i], rel.source, rel.source_index)
        plan.gold_pos.append(pos)
        plan.inputs.append(RelationInput(rel.source, rel.source_index,
                                         UNK_LABEL if pos == 0 else nodes[pos - 1].pos,
                                         rel.rel))
    del plan.inputs[n_steps:]
    return plan


def sequence_loss(
    model: TransducerModel,
    enc_inputs: list[EncoderInput],
    references: list[RelationSequence],
    *,
    label_smoothing: float = 0.1,
    coverage_weight: float = 1.0,
    train: bool = True,
    rng: np.random.Generator | None = None,
) -> LossBreakdown:
    """Teacher-forced loss over a batch of sentences and their references.

    Every component holds one entry per sentence, ``(B,)``, and ``switch``
    stacks the sentences' rows in order; one sentence is a batch of one.
    Only the LSTMs step through time, one ``lstm_layer`` per layer and
    direction over the batch; every head runs once over the batch's
    prediction steps as matrix rows (see the module docstring).  Each
    sentence's loss equals its own to rounding, dropout included.
    """
    dec, cfg = model.decoder, model.config
    plans = [_teacher_forcing(dec, inp, ref) for inp, ref in zip(enc_inputs, references)]
    n_rels, n_steps = [len(p.nodes) for p in plans], [len(p.vocab) for p in plans]
    n_seq, n_rel, n_step = len(plans), max(n_rels), max(n_steps)
    eps = label_smoothing

    # Each sentence draws what it draws alone, in batch order, before any op
    # runs: its encoder embedding and state masks, then one block for its
    # relation steps (the z mask and one mask per target LSTM layer, split
    # by columns: Generator.random fills in C order, so this is the stepwise
    # decoder's per-step draw order), then its EOS step's z mask.
    rh, dh, layers = cfg.relation_hidden, cfg.decoder_hidden, len(dec.lstm_cells)
    enc_masks = z_mask = lstm_masks = None
    if train and cfg.dropout > 0.0:
        if rng is None:
            raise ValueError("dropout in train mode needs an explicit rng")
        enc_masks, blocks, z_rows = [], [], []
        for inp, ref, k in zip(enc_inputs, references, n_rels):
            enc_masks.append(model.encoder.dropout_masks(inp, rng))
            blocks.append(ad.dropout_mask((k, rh + layers * dh), cfg.dropout, rng))
            z_rows.append(blocks[-1][:, :rh])
            if ref.eos:
                z_rows[-1] = np.vstack([z_rows[-1], ad.dropout_mask((1, rh), cfg.dropout, rng)])
        z_mask = _padded(z_rows, (n_step, rh))
        lstm_masks = [_padded([m[:, rh + k * dh : rh + (k + 1) * dh] for m in blocks],
                              (n_rel, dh)) for k in range(layers)]
    enc = model.encoder.encode(list(enc_inputs), masks=enc_masks)
    zero = ad.constant(np.zeros(n_seq))
    if n_step == 0:
        return LossBreakdown(zero, zero, zero, zero, zero, np.zeros((0, 3)))

    def drop(x: Tensor, mask) -> Tensor:
        return x if mask is None else ad.mul(x, ad.constant(mask))

    # (B, T): step t is one of sentence b's; padded steps get zero loss
    steps = np.arange(n_step) < np.array(n_steps)[:, None]

    # label and index embeddings of the N fed nodes, then of the T consumed
    # sources, each sentence's padded to the batch's longest
    fed = [p.nodes + [_PAD_NODE] * (n_rel - len(p.nodes)) for p in plans]
    consumed = [p.inputs + [BOS_INPUT] * (n_step - len(p.inputs)) for p in plans]
    embedded = ad.concat([
        dec.label_rows([(r.label, r.pos) for rows in fed for r in rows]
                       + [(u.u_label, u.u_pos) for rows in consumed for u in rows]),
        dec.index_rows([r.index for rows in fed for r in rows]
                       + [u.u_index for rows in consumed for u in rows]),
    ], axis=1)
    width = embedded.shape[1]

    # the target LSTM, layer by layer; h[:, 0] is the ROOT state
    h = ad.reshape(enc.init[-1], (n_seq, 1, dh))
    if n_rel:
        x = ad.reshape(ad.narrow(embedded, 0, 0, n_seq * n_rel), (n_seq, n_rel, width))
        for k, cell in enumerate(dec.lstm_cells):
            x = drop(cell.layer(x, (enc.init[k], ad.constant(np.zeros((n_seq, dh)))),
                                lengths=n_rels),
                     None if lstm_masks is None else lstm_masks[k])
        h = ad.concat([h, x], axis=1)
    h_query = h if n_step == n_rel + 1 else ad.narrow(h, 1, 0, n_step)

    # target node: attention, relation state z, generate / copy mixture
    keys = np.arange(enc.n) < np.array(enc.lengths)[:, None, None]
    a_enc = ad.softmax(_masked(dec.attn_mlp.pairs(h_query, enc.states),
                               np.broadcast_to(keys, (n_seq, n_step, enc.n))), axis=-1)
    context = ad.matmul(a_enc, enc.states)
    rel_rows = dec.rel_emb([dec.rel_vocab.id(u.rel) for rows in consumed for u in rows])
    z = dec.ffn_relation(ad.concat([
        h_query, context, ad.reshape(rel_rows, (n_seq, n_step, rel_rows.shape[1])),
        ad.reshape(ad.narrow(embedded, 0, n_seq * n_rel, embedded.shape[0]),
                   (n_seq, n_step, width)),
    ], axis=2))
    z = drop(z, z_mask)
    vocab_logits = dec.ffn_vocab(z)
    # node copy has no candidates before step 2
    no_copy = np.ones((n_seq, n_step, 3), dtype=bool)
    no_copy[:, :2, 2] = False
    switch = ad.softmax(_masked(dec.ffn_switch(z), no_copy), axis=-1)
    node_mass = ad.constant(np.zeros((n_seq, n_step)))
    if n_step > 2:
        # step i (>= 2) attends over z_1..z_{i-1}: queries z_2.., keys z_1..
        m = n_step - 2
        scores = dec.dec_attn_mlp.pairs(ad.narrow(z, 1, 2, n_step), ad.narrow(z, 1, 1, m + 1))
        a_dec = ad.softmax(_masked(scores, np.broadcast_to(np.tri(m, dtype=bool),
                                                           (n_seq, m, m))), axis=-1)
        copies = _padded([p.copies for p in plans], (n_step, n_step))
        node_mass = ad.concat([ad.constant(np.zeros((n_seq, 2))),
                               _block_mass(a_dec, copies[:, 2:, :m])], axis=1)
    masses = ad.concat([ad.reshape(mass, (n_seq, n_step, 1)) for mass in (
        _block_mass(ad.softmax(vocab_logits, axis=-1),
                    _padded([p.vocab for p in plans], (n_step, vocab_logits.shape[2]))),
        _block_mass(a_enc, _padded([p.tokens for p in plans], (n_step, enc.n))),
        node_mass,
    )], axis=2)
    # a padded step has no mass; it adds log 1 = 0
    mixed = ad.add(ad.sum_axis(ad.mul(switch, masses), 2), ad.constant(1.0 - steps))
    nll_v = -_row_sums(ad.log(mixed))
    if eps > 0.0:
        uniform = -_row_sums(ad.log_softmax(vocab_logits, axis=-1), steps)
        nll_v = ad.add(ad.mul(nll_v, 1.0 - eps), ad.mul(uniform, eps / vocab_logits.shape[2]))

    # coverage: step i's coverage is the sum of the attentions before it
    coverage = ad.matmul(ad.constant(np.tri(n_step, k=-1)), a_enc)
    cov = _row_sums(ad.minimum(a_enc, coverage), steps)

    nll_u = nll_r = zero
    if n_rel:
        # source pointer: after feeding v_{i+1}, positions 0..i, ROOT only
        # while it is the gold source (the first relation).  A padded row
        # allows ROOT alone, whose log-probability is then exactly 0.
        fed = ad.narrow(h, 1, 1, n_rel + 1)
        gold = _padded([np.array(p.gold_pos) for p in plans], (n_rel,)).astype(np.intp)
        rows = np.arange(n_rel) < np.array(n_rels)[:, None]
        allowed = np.tri(n_rel, dtype=bool) & rows[:, :, None]
        allowed[:, :, 0] = gold == 0
        scores = dec.biaffine(dec.mlp_start(fed), dec.mlp_end(ad.narrow(h, 1, 0, n_rel)))
        nll_u = -_row_sums(ad.pick(ad.log_softmax(_masked(scores, allowed), axis=-1), gold))
        # relation type, at the gold source only
        pairs = n_seq * n_rel
        src = dec.mlp_rel_src(ad.embedding_gather(
            ad.reshape(h, (n_seq * (n_rel + 1), dh)),
            (gold + (n_rel + 1) * np.arange(n_seq)[:, None]).reshape(-1)))
        tgt = dec.mlp_rel_tgt(fed)
        logits = dec.bilinear(ad.reshape(src, (pairs, 1, src.shape[1])),
                              ad.reshape(tgt, (pairs, tgt.shape[2])))
        n_types = logits.shape[2]
        logp = ad.log_softmax(ad.reshape(logits, (n_seq, n_rel, n_types)), axis=-1)
        targets = np.zeros((n_seq, n_rel, n_types))
        for b, ref in enumerate(references):
            for i, rel in enumerate(ref.relations):
                targets[b, i] = smoothed_targets(n_types, dec.rel_vocab.id(rel.rel), eps)
        nll_r = -_row_sums(ad.mul(logp, ad.constant(targets)))

    total = ad.add(ad.add(nll_u, nll_r), ad.add(nll_v, ad.mul(cov, coverage_weight)))
    return LossBreakdown(nll_u, nll_r, nll_v, cov, total,
                         np.concatenate([switch.data[b, :k] for b, k in enumerate(n_steps)]))


# ---------------------------------------------------------------------------
# Optimizer


class AdamState:
    def __init__(self):
        self.t = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        # the update's two temporaries for every parameter, each row as long
        # as the largest parameter
        self.scratch = np.empty((2, 0))


def grad_norm(params: dict[str, Tensor]) -> float:
    """Global L2 norm of all gradients; missing grads count as 0."""
    total = 0.0
    for t in params.values():
        if t.grad is not None:
            total += float((t.grad ** 2).sum())
    return float(np.sqrt(total))


def clip_global_norm(params: dict[str, Tensor], max_norm: float,
                     norm: float | None = None) -> float:
    """Rescale all gradients when their global L2 norm exceeds the bound;
    returns the applied scale.  ``norm`` passes in an already computed
    ``grad_norm(params)``."""
    if norm is None:
        norm = grad_norm(params)
    if norm <= max_norm or norm == 0.0:
        return 1.0
    scale = max_norm / norm
    for t in params.values():
        if t.grad is not None:
            t.grad *= scale
    return scale


def adam_step(
    params: dict[str, Tensor],
    opt: AdamState,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> None:
    """Bias-corrected Adam update in place; missing grads are treated as 0.

    The update is ``m = beta1 m + (1 - beta1) g``, ``v = beta2 v + (1 -
    beta2) g g`` and ``p -= lr (m / bc1) / (sqrt(v / bc2) + eps)``, each
    evaluated in that order with its temporaries written into
    ``opt.scratch``, one buffer for all parameters.

    Every gradient is checked before any state changes: a non-finite one
    raises ``FloatingPointError`` and leaves the parameters and ``opt`` as
    they were.
    """
    for name, p in params.items():
        if p.grad is not None and not np.all(np.isfinite(p.grad)):
            raise FloatingPointError(f"non-finite gradient for parameter {name!r}")
    opt.t += 1
    bc1 = 1.0 - beta1 ** opt.t
    bc2 = 1.0 - beta2 ** opt.t
    size = max((p.size for p in params.values() if p.grad is not None), default=0)
    if opt.scratch.shape[1] < size:
        opt.scratch = np.empty((2, size))
    for name, p in params.items():
        g = p.grad
        if g is None:
            continue
        m, v = opt.m.get(name), opt.v.get(name)
        if m is None:
            m = opt.m[name] = np.zeros_like(p.data)
            v = opt.v[name] = np.zeros_like(p.data)
        a, b = (row[: p.size].reshape(p.shape) for row in opt.scratch)
        m *= beta1
        m += np.multiply(1.0 - beta1, g, out=a)
        v *= beta2
        np.multiply(1.0 - beta2, g, out=a)
        v += np.multiply(a, g, out=a)
        np.multiply(lr, np.divide(m, bc1, out=a), out=a)
        np.add(np.sqrt(np.divide(v, bc2, out=b), out=b), eps, out=b)
        p.data -= np.divide(a, b, out=a)


# ---------------------------------------------------------------------------
# Metrics


def relation_f1(gold_seqs, pred_seqs) -> F1Report:
    """Micro-averaged F1 over exact relation tuples."""
    matched = gold_total = pred_total = 0
    for gold, pred in zip(gold_seqs, pred_seqs):
        g = Counter(r.astuple() for r in gold.relations)
        p = Counter(r.astuple() for r in pred.relations)
        matched += sum((g & p).values())
        gold_total += sum(g.values())
        pred_total += sum(p.values())
    return F1Report.from_counts(matched, gold_total, pred_total)


# ---------------------------------------------------------------------------
# Training loop


@dataclass
class TrainResult:
    best_dev_f1: float
    best_epoch: int
    epochs_run: int
    history: list[dict] = field(default_factory=list)


def _check_pairs(pairs, which: str, references: bool) -> None:
    """Raise ``ValueError`` naming the first pair that cannot be encoded or,
    with ``references``, whose reference has a source with no preceding
    target."""
    for k, (inp, ref) in enumerate(pairs):
        if not inp.tokens:
            raise ValueError(f"{which} pair {k}: cannot encode an empty sentence")
        if references:
            try:
                for i, rel in enumerate(ref.relations):
                    resolve_source(ref.relations[:i], rel.source, rel.source_index)
            except ValueError as exc:
                raise ValueError(f"{which} pair {k}: {exc}") from None


def _batches(pairs, batch_size: int, shuffle_rng: random.Random):
    """Length-bucketed batches in shuffled order."""
    order = sorted(range(len(pairs)), key=lambda i: (len(pairs[i][0].tokens), i))
    chunks = [order[i : i + batch_size] for i in range(0, len(order), batch_size)]
    shuffle_rng.shuffle(chunks)
    return chunks


def train(
    model: TransducerModel,
    train_pairs: list[tuple[EncoderInput, RelationSequence]],
    dev_pairs: list[tuple[EncoderInput, RelationSequence]],
    cfg: TrainConfig,
    log_path=None,
    target_f1: float | None = None,
) -> TrainResult:
    """Mini-batched teacher forcing with greedy-decode dev F1 early stopping.

    Each batch is one ``sequence_loss`` call over its sentences as rows and
    one backward pass of their mean loss.

    Dev F1 is taken after every epoch.  Stops when the count of epochs
    since the best dev score reaches ``patience`` (so patience 0 runs
    exactly one epoch), when ``target_f1`` is reached, or after
    ``max_epochs``.

    Each history entry (one JSONL line at ``log_path``) also holds the
    epoch's mean loss components per example (``nll_u``, ``nll_r``,
    ``nll_v``, unweighted ``coverage``), the mean and maximum pre-clip
    gradient norm, the number of clipped batches, the mean tape records
    per batch, the mean switch probability of generating, copying a token
    and copying a node over all prediction steps (``switch_generate``,
    ``switch_token_copy``, ``switch_node_copy``), and ``relations_per_s``,
    the prediction steps (relations and EOS steps) trained per second of
    the epoch's batches, the dev decode excluded, and ``dev_decode_s``, the
    seconds of the epoch's dev decode.  The dev sentences are decoded
    greedily by ``inference.decode_batch``, equal-length ones in lockstep.

    Every pair is checked before the first batch: a sentence with no
    tokens, or a training reference whose source does not resolve, raises
    ``ValueError`` naming the pair.
    """
    if not train_pairs:
        raise ValueError("empty training corpus")
    _check_pairs(train_pairs, "training", references=True)
    _check_pairs(dev_pairs, "dev", references=False)
    from .inference import decode_batch  # local import; inference is decode-only

    params = model.parameters()
    opt = AdamState()
    drop_rng = np.random.default_rng(cfg.seed)
    history: list[dict] = []
    best_f1, best_epoch, stale = float("-inf"), 0, 0
    best_params: dict[str, np.ndarray] | None = None
    log_fh = open(log_path, "w", encoding="utf-8") if log_path else None

    try:
        epoch = 0
        for epoch in range(1, cfg.max_epochs + 1):
            started = time.perf_counter()
            epoch_loss, n_examples = 0.0, 0
            components = np.zeros(4)  # nll_u, nll_r, nll_v, coverage, summed over examples
            switch = np.zeros(3)  # generate, token copy, node copy, summed over steps
            norms, clipped, records, steps = [], 0, 0, 0
            for chunk in _batches(train_pairs, cfg.batch_size, random.Random(cfg.seed + epoch)):
                model.zero_grads()
                with ad.Tape() as tape:
                    loss = sequence_loss(
                        model, [train_pairs[i][0] for i in chunk],
                        [train_pairs[i][1] for i in chunk],
                        label_smoothing=cfg.label_smoothing,
                        coverage_weight=cfg.coverage_weight,
                        train=True, rng=drop_rng,
                    )
                    total = ad.mul(ad.sum_all(loss.total), 1.0 / len(chunk))
                    records += len(tape.records)
                    tape.backward(total)
                components += [t.data.sum() for t in (loss.nll_source, loss.nll_relation,
                                                      loss.nll_target, loss.coverage_penalty)]
                switch += loss.switch.sum(axis=0)
                steps += len(loss.switch)
                epoch_loss += float(total.data) * len(chunk)
                n_examples += len(chunk)
                norms.append(grad_norm(params))
                if clip_global_norm(params, cfg.max_grad_norm, norms[-1]) < 1.0:
                    clipped += 1
                adam_step(params, opt, cfg.learning_rate, cfg.beta1, cfg.beta2, cfg.adam_eps)
            train_seconds = time.perf_counter() - started

            decode_started = time.perf_counter()
            preds = [result.sequence for result in decode_batch(
                model, [inp for inp, _ in dev_pairs], 1,
                [2 * len(ref.relations) + 8 for _, ref in dev_pairs])]
            dev_decode_s = time.perf_counter() - decode_started
            dev_f1 = relation_f1([r for _, r in dev_pairs], preds).f1

            entry = {
                "epoch": epoch,
                "train_loss": epoch_loss / n_examples,
                "dev_f1": dev_f1,
                "lr": cfg.learning_rate,
                "seconds": round(time.perf_counter() - started, 4),
                **dict(zip(("nll_u", "nll_r", "nll_v", "coverage"),
                           (components / n_examples).tolist())),
                "grad_norm_mean": float(np.mean(norms)),
                "grad_norm_max": max(norms),
                "clipped_batches": clipped,
                "tape_records_per_batch": records / len(norms),
                **dict(zip(("switch_generate", "switch_token_copy", "switch_node_copy"),
                           (switch / max(steps, 1)).tolist())),
                "relations_per_s": steps / train_seconds,
                "dev_decode_s": dev_decode_s,
            }
            history.append(entry)
            if log_fh:
                log_fh.write(json.dumps(entry) + "\n")
                log_fh.flush()

            if dev_f1 > best_f1:
                best_f1, best_epoch, stale = dev_f1, epoch, 0
                if best_params is None:
                    best_params = {k: t.data.copy() for k, t in params.items()}
                else:  # one snapshot, refilled in place
                    for k, t in params.items():
                        np.copyto(best_params[k], t.data)
            else:
                stale += 1
            if target_f1 is not None and dev_f1 >= target_f1:
                break
            if stale >= cfg.patience:
                break
    finally:
        if log_fh:
            log_fh.close()

    if best_params is not None:
        for name, t in params.items():
            t.data = best_params[name]
    return TrainResult(best_dev_f1=best_f1, best_epoch=best_epoch, epochs_run=epoch,
                       history=history)


# ---------------------------------------------------------------------------
# Corpus preparation


def prepare_corpus(records):
    """Turn canonical records into (EncoderInput, RelationSequence) pairs.

    AMR graphs have their sense suffixes stripped first; the merged
    observation table is returned for restoration at parse time.  Mixed
    frameworks are allowed; each record linearizes under its own child
    ordering policy.
    """
    from .convert import amr_strip_senses, to_arbor
    from .graph import Framework
    from .linearize import policy_for

    pairs = []
    sense_counts: dict[str, Counter] = {}
    for record in records:
        graph = record.graph()
        if graph.framework == Framework.AMR:
            graph, counts = amr_strip_senses(graph)
            for lemma, counter in counts.items():
                sense_counts.setdefault(lemma, Counter()).update(counter)
        arbor = to_arbor(graph)
        inp = encoder_input_from_record(record)
        pairs.append((inp, make_reference(arbor, policy_for(record.framework))))
    return pairs, {k: dict(v) for k, v in sense_counts.items()}
