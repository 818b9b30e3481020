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
step, so ``sequence_loss`` runs only the target LSTM recurrence step by
step (one ``lstm_cell`` per step and layer, then one dropout over the
layer's rows).  Every head runs once per sentence over its T prediction
steps as matrix rows: encoder attention for all T queries, the
``ffn_relation``/``ffn_vocab``/``ffn_switch`` affines, decoder-copy
attention over the relation states under a causal mask, the biaffine
pointer as one T x T product under a lower-triangular mask (ROOT only
while it is the gold source), the bilinear scorer at the gold source rows
only, and coverage as an exclusive cumulative sum of the attention rows.
Dropout masks are drawn in the order the stepwise decoder draws them
(each step's relation-state mask, then its LSTM layer masks; the EOS step
only the former), so the loss equals the stepwise loss of the decoder's
``predict_target``/``feed_target`` to rounding, dropout included.
Inference keeps those stepwise vector forms and ``Decoder.expand``.
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
from .decoder import BOS_INPUT, NodeRecord, RelationInput, gold_blocks, reference_node
from .encoder import EncoderInput
from .evaluate import F1Report
from .graph import EOS_LABEL, UNK_LABEL, RelationSequence
from .linearize import OrderingPolicy, arbor_to_relations, resolve_source
from .model import TransducerModel, encoder_input_from_record


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
        if not 0.0 <= self.label_smoothing < 1.0:
            raise ValueError("label smoothing must lie in [0, 1)")
        for name in ("learning_rate", "max_grad_norm", "batch_size"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


@dataclass
class LossBreakdown:
    nll_source: Tensor
    nll_relation: Tensor
    nll_target: Tensor
    coverage_penalty: Tensor
    total: Tensor
    # (T, 3) switch probabilities (generate, token copy, node copy) per step
    switch: np.ndarray | None = None

    def values(self) -> dict[str, float]:
        return {
            "nll_source": float(self.nll_source.data),
            "nll_relation": float(self.nll_relation.data),
            "nll_target": float(self.nll_target.data),
            "coverage_penalty": float(self.coverage_penalty.data),
            "total": float(self.total.data),
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
    return ad.sum_axis(ad.mul(p, ad.constant(support)), 1)


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
    return plan


def sequence_loss(
    model: TransducerModel,
    enc_input: EncoderInput,
    reference: RelationSequence,
    *,
    label_smoothing: float = 0.1,
    coverage_weight: float = 1.0,
    train: bool = True,
    rng: np.random.Generator | None = None,
) -> LossBreakdown:
    """Teacher-forced loss over one reference sequence.

    Only the target LSTM runs step by step; every head runs once over the
    T prediction steps as matrix rows (see the module docstring).  The
    dropout masks are the ones the stepwise decoder draws, in its order.
    """
    dec, cfg = model.decoder, model.config
    enc = model.encoder.encode(enc_input, train, rng)
    zero = ad.constant(np.zeros(()))
    plan = _teacher_forcing(dec, enc_input, reference)
    n_rel, n_steps = len(plan.nodes), len(plan.vocab)
    if n_steps == 0:
        return LossBreakdown(zero, zero, zero, zero, zero, np.zeros((0, 3)))
    eps = label_smoothing

    # Stepwise, each step draws its z mask and then one mask per LSTM layer;
    # the EOS step draws only its z mask.  Generator.random fills in C order,
    # so one block split by columns draws the same masks.
    rh, dh, layers = cfg.relation_hidden, cfg.decoder_hidden, len(dec.lstm_cells)
    z_mask = lstm_masks = None
    if train and cfg.dropout > 0.0:
        if rng is None:
            raise ValueError("dropout in train mode needs an explicit rng")
        keep = 1.0 - cfg.dropout
        block = (rng.random((n_rel, rh + layers * dh)) < keep) / keep
        z_mask = block[:, :rh]
        if reference.eos:
            z_mask = np.vstack([z_mask, (rng.random(rh) < keep) / keep])
        lstm_masks = [block[:, rh + k * dh : rh + (k + 1) * dh] for k in range(layers)]

    def drop(x: Tensor, mask) -> Tensor:
        return x if mask is None else ad.mul(x, ad.constant(mask))

    # label and index embeddings of the N fed nodes, then of the T consumed
    # sources
    inputs = plan.inputs[:n_steps]
    embedded = ad.concat([
        dec.label_rows([(r.label, r.pos) for r in plan.nodes]
                       + [(u.u_label, u.u_pos) for u in inputs]),
        dec.index_rows([r.index for r in plan.nodes] + [u.u_index for u in inputs]),
    ], axis=1)

    # the target LSTM, layer by layer; h[0] is the ROOT state
    h = ad.reshape(enc.init[-1], (1, dh))
    if n_rel:
        x = ad.narrow(embedded, 0, 0, n_rel)
        for k, cell in enumerate(dec.lstm_cells):
            state, outs = (enc.init[k], ad.constant(np.zeros(dh))), []
            for row in ad.unstack_rows(x):
                state = cell(row, state)
                outs.append(state[0])
            x = drop(ad.stack_rows(outs), None if lstm_masks is None else lstm_masks[k])
        h = ad.concat([h, x], axis=0)
    h_query = h if n_steps == n_rel + 1 else ad.narrow(h, 0, 0, n_steps)

    # target node: attention, relation state z, generate / copy mixture
    a_enc = ad.softmax(dec.attn_mlp.pairs(h_query, enc.states), axis=-1)
    context = ad.matmul(a_enc, enc.states)
    rel_rows = dec.rel_emb([dec.rel_vocab.id(u.rel) for u in inputs])
    z = dec.ffn_relation(ad.concat(
        [h_query, context, rel_rows, ad.narrow(embedded, 0, n_rel, n_rel + n_steps)], axis=1))
    z = drop(z, z_mask)
    vocab_logits = dec.ffn_vocab(z)
    # node copy has no candidates before step 2
    no_copy = np.ones((n_steps, 3), dtype=bool)
    no_copy[:2, 2] = False
    switch = ad.softmax(_masked(dec.ffn_switch(z), no_copy), axis=-1)
    node_mass = ad.constant(np.zeros(n_steps))
    if n_steps > 2:
        # step i (>= 2) attends over z_1..z_{i-1}: queries z_2.., keys z_1..
        m = n_steps - 2
        scores = dec.dec_attn_mlp.pairs(ad.narrow(z, 0, 2, n_steps), ad.narrow(z, 0, 1, m + 1))
        a_dec = ad.softmax(_masked(scores, np.tri(m, dtype=bool)), axis=-1)
        node_mass = ad.concat([ad.constant(np.zeros(2)),
                               _block_mass(a_dec, plan.copies[2:, :m])])
    masses = ad.transpose(ad.stack_rows([
        _block_mass(ad.softmax(vocab_logits, axis=-1), plan.vocab),
        _block_mass(a_enc, plan.tokens),
        node_mass,
    ]))
    nll_v = -ad.sum_all(ad.log(ad.sum_axis(ad.mul(switch, masses), 1)))
    if eps > 0.0:
        uniform = -ad.sum_all(ad.log_softmax(vocab_logits, axis=-1))
        nll_v = ad.add(ad.mul(nll_v, 1.0 - eps), ad.mul(uniform, eps / vocab_logits.shape[1]))

    # coverage: step i's coverage is the sum of the attentions before it
    coverage = ad.matmul(ad.constant(np.tri(n_steps, k=-1)), a_enc)
    cov = ad.sum_all(ad.minimum(a_enc, coverage))

    nll_u = nll_r = zero
    if n_rel:
        # source pointer: after feeding v_{i+1}, positions 0..i, ROOT only
        # while it is the gold source (the first relation)
        fed = ad.narrow(h, 0, 1, n_rel + 1)
        gold = np.array(plan.gold_pos)
        allowed = np.tri(n_rel, dtype=bool)
        allowed[:, 0] &= gold == 0
        scores = dec.biaffine(dec.mlp_start(fed), dec.mlp_end(ad.narrow(h, 0, 0, n_rel)))
        nll_u = -ad.sum_all(ad.pick(ad.log_softmax(_masked(scores, allowed), axis=-1), gold))
        # relation type, at the gold source only
        src = dec.mlp_rel_src(ad.embedding_gather(h, gold))
        logits = dec.bilinear(ad.reshape(src, (n_rel, 1, src.shape[1])), dec.mlp_rel_tgt(fed))
        logp = ad.log_softmax(ad.reshape(logits, (n_rel, logits.shape[2])), axis=-1)
        targets = np.stack([smoothed_targets(logp.shape[1], dec.rel_vocab.id(rel.rel), eps)
                            for rel in reference.relations])
        nll_r = -ad.sum_all(ad.mul(logp, ad.constant(targets)))

    total = ad.add(ad.add(nll_u, nll_r), ad.add(nll_v, ad.mul(cov, coverage_weight)))
    return LossBreakdown(nll_u, nll_r, nll_v, cov, total, switch.data)


# ---------------------------------------------------------------------------
# Optimizer


class AdamState:
    def __init__(self):
        self.t = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}


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
    """Bias-corrected Adam update in place; missing grads are treated as 0."""
    opt.t += 1
    bc1 = 1.0 - beta1 ** opt.t
    bc2 = 1.0 - beta2 ** opt.t
    for name, p in params.items():
        g = p.grad
        if g is None:
            continue
        if not np.all(np.isfinite(g)):
            raise FloatingPointError(f"non-finite gradient for parameter {name!r}")
        m = opt.m.setdefault(name, np.zeros_like(p.data))
        v = opt.v.setdefault(name, np.zeros_like(p.data))
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        p.data -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)


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
    the epoch's batches, the dev decode excluded.

    Every pair is checked before the first batch: a sentence with no
    tokens, or a training reference whose source does not resolve, raises
    ``ValueError`` naming the pair.
    """
    if not train_pairs:
        raise ValueError("empty training corpus")
    _check_pairs(train_pairs, "training", references=True)
    _check_pairs(dev_pairs, "dev", references=False)
    from .inference import greedy_decode  # local import; inference is decode-only

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
                    total = ad.constant(np.zeros(()))
                    for idx in chunk:
                        inp, ref = train_pairs[idx]
                        loss = sequence_loss(
                            model, inp, ref,
                            label_smoothing=cfg.label_smoothing,
                            coverage_weight=cfg.coverage_weight,
                            train=True, rng=drop_rng,
                        )
                        total = ad.add(total, loss.total)
                        components += [loss.nll_source.item(), loss.nll_relation.item(),
                                       loss.nll_target.item(), loss.coverage_penalty.item()]
                        switch += loss.switch.sum(axis=0)
                        steps += len(loss.switch)
                    total = ad.mul(total, 1.0 / len(chunk))
                    records += len(tape.records)
                    tape.backward(total)
                epoch_loss += float(total.data) * len(chunk)
                n_examples += len(chunk)
                norms.append(grad_norm(params))
                if clip_global_norm(params, cfg.max_grad_norm, norms[-1]) < 1.0:
                    clipped += 1
                adam_step(params, opt, cfg.learning_rate, cfg.beta1, cfg.beta2, cfg.adam_eps)
            train_seconds = time.perf_counter() - started

            preds = [
                greedy_decode(model, inp, max_len=2 * len(ref.relations) + 8).sequence
                for inp, ref in dev_pairs
            ]
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
            }
            history.append(entry)
            if log_fh:
                log_fh.write(json.dumps(entry) + "\n")
                log_fh.flush()

            if dev_f1 > best_f1:
                best_f1, best_epoch, stale = dev_f1, epoch, 0
                best_params = {k: t.data.copy() for k, t in params.items()}
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
