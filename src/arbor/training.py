"""Reference construction, loss assembly and the optimization loop.

The loss per reference relation decomposes into three negative
log-likelihood terms (source pointer, relation type, target node) plus a
coverage penalty.  The target-node NLL is computed against the mixed
generate/copy distribution, counting *every* production of the gold label
(vocabulary entry, matching input tokens, matching preceding nodes) as
correct.  Label smoothing applies to the vocabulary-generation and
relation-type distributions only; smoothing over the dynamic pointer
supports would be ill-defined.
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
from .decoder import BOS_INPUT, RelationInput
from .encoder import EncoderInput
from .graph import EOS_LABEL, RelationSequence
from .linearize import OrderingPolicy, arbor_to_relations, resolve_source
from .model import TransducerModel


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
    eval_every: int = 1

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

    def values(self) -> dict[str, float]:
        return {
            "nll_source": float(self.nll_source.data),
            "nll_relation": float(self.nll_relation.data),
            "nll_target": float(self.nll_target.data),
            "coverage_penalty": float(self.coverage_penalty.data),
            "total": float(self.total.data),
        }


def make_reference(enc_input: EncoderInput, arbor, policy: OrderingPolicy) -> RelationSequence:
    """Linearize a reference arborescence; the EOS flag marks the extra
    end-of-sequence prediction step."""
    seq = arbor_to_relations(arbor, policy)
    return RelationSequence(seq.relations, eos=True)


def smoothed_targets(n_classes: int, gold: int, eps: float) -> np.ndarray:
    """(1 - eps) * onehot + eps / K."""
    q = np.full(n_classes, eps / n_classes)
    q[gold] += 1.0 - eps
    return q


def _smoothed_ce(logits: Tensor, gold: int, eps: float) -> Tensor:
    logp = ad.log_softmax(logits)
    if eps == 0.0:
        return -ad.element(logp, gold)
    q = ad.constant(smoothed_targets(logits.shape[0], gold, eps))
    return -ad.matmul(q, logp)


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
    """Teacher-forced loss over one reference sequence."""
    dec = model.decoder
    enc = model.encoder.encode(enc_input, train, rng)
    state = dec.initial_state(enc)
    rel_in = BOS_INPUT

    zero = ad.constant(np.zeros(()))
    nll_u, nll_r, nll_v, cov = zero, zero, zero, zero
    eps = label_smoothing

    def target_nll(out, gold_label: str, gold_index: int | None = None) -> Tensor:
        support = dec.gold_support(out, gold_label, enc_input.tokens, gold_index)
        mass = ad.element(out.p_target, support[0])
        for slot in support[1:]:
            mass = ad.add(mass, ad.element(out.p_target, slot))
        nll = -ad.log(mass)
        if eps > 0.0:
            uniform = -ad.sum_all(ad.log_softmax(out.vocab_logits))
            nll = ad.add(ad.mul(nll, 1.0 - eps), ad.mul(uniform, eps / out.vocab_size))
        return nll

    for i, rel in enumerate(reference.relations):
        out, state = dec.predict_target(enc, state, rel_in, train, rng)
        cov = ad.add(cov, out.covloss)
        nll_v = ad.add(nll_v, target_nll(out, rel.target, rel.target_index))

        record = dec.reference_record(
            state, rel.target, rel.target_index, enc_input.tokens, enc_input.pos,
            rel.target_anchors,
        )
        state = dec.feed_target(state, record, train, rng)

        gold_pos = resolve_source(reference.relations[:i], rel.source, rel.source_index)
        scores = dec.source_scores(state)
        if gold_pos == 0:  # first relation: ROOT is the sole candidate
            nll_u = ad.add(nll_u, -ad.element(ad.log_softmax(scores), 0))
        else:
            # ROOT is masked out of the pointer support after step one
            masked = ad.narrow(scores, 0, 1, scores.shape[0])
            nll_u = ad.add(nll_u, -ad.element(ad.log_softmax(masked), gold_pos - 1))
        nll_r = ad.add(
            nll_r, _smoothed_ce(dec.relation_scores(state, gold_pos),
                                dec.rel_vocab.id(rel.rel), eps)
        )
        rel_in = RelationInput(rel.source, rel.source_index, state.node_pos(gold_pos), rel.rel)

    if reference.eos:
        out, state = dec.predict_target(enc, state, rel_in, train, rng)
        cov = ad.add(cov, out.covloss)
        nll_v = ad.add(nll_v, target_nll(out, EOS_LABEL))

    total = ad.add(ad.add(nll_u, nll_r), ad.add(nll_v, ad.mul(cov, coverage_weight)))
    return LossBreakdown(nll_u, nll_r, nll_v, cov, total)


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


@dataclass
class RelationF1:
    precision: float
    recall: float
    f1: float
    matched: int
    gold: int
    predicted: int


def relation_f1(gold_seqs, pred_seqs) -> RelationF1:
    """Micro-averaged F1 over exact relation tuples."""
    matched = gold_total = pred_total = 0
    for gold, pred in zip(gold_seqs, pred_seqs):
        g = Counter(r.astuple() for r in gold.relations)
        p = Counter(r.astuple() for r in pred.relations)
        matched += sum((g & p).values())
        gold_total += sum(g.values())
        pred_total += sum(p.values())
    precision = matched / pred_total if pred_total else 0.0
    recall = matched / gold_total if gold_total else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return RelationF1(precision, recall, f1, matched, gold_total, pred_total)


# ---------------------------------------------------------------------------
# Training loop


@dataclass
class TrainResult:
    best_dev_f1: float
    best_epoch: int
    epochs_run: int
    history: list[dict] = field(default_factory=list)


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

    Stops when the count of evaluations since the best dev score reaches
    ``patience`` (so patience 0 runs exactly one epoch), when ``target_f1``
    is reached, or after ``max_epochs``.

    Each history entry (one JSONL line at ``log_path``) also holds the
    epoch's mean loss components per example (``nll_u``, ``nll_r``,
    ``nll_v``, unweighted ``coverage``), the mean and maximum pre-clip
    gradient norm, the number of clipped batches and the mean tape records
    per batch.
    """
    if not train_pairs:
        raise ValueError("empty training corpus")
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
            norms, clipped, records = [], 0, 0
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
                    total = ad.mul(total, 1.0 / len(chunk))
                    records += len(tape.records)
                    tape.backward(total)
                epoch_loss += float(total.data) * len(chunk)
                n_examples += len(chunk)
                norms.append(grad_norm(params))
                if clip_global_norm(params, cfg.max_grad_norm, norms[-1]) < 1.0:
                    clipped += 1
                adam_step(params, opt, cfg.learning_rate, cfg.beta1, cfg.beta2, cfg.adam_eps)

            dev_f1 = float("nan")
            if epoch % cfg.eval_every == 0:
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
            }
            history.append(entry)
            if log_fh:
                log_fh.write(json.dumps(entry) + "\n")
                log_fh.flush()

            if epoch % cfg.eval_every == 0:
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


def prepare_corpus(records, strip_senses: bool = True):
    """Turn canonical records into (EncoderInput, RelationSequence) pairs.

    AMR graphs have their sense suffixes stripped first; the merged
    observation table is returned for restoration at parse time.  Mixed
    frameworks are allowed; each record linearizes under its own child
    ordering policy.
    """
    from .convert import amr_strip_senses, to_arbor
    from .graph import Framework
    from .linearize import policy_for
    from .model import encoder_input_from_record

    pairs = []
    sense_counts: dict[str, Counter] = {}
    for record in records:
        graph = record.graph()
        if strip_senses and graph.framework == Framework.AMR:
            graph, counts = amr_strip_senses(graph)
            for lemma, counter in counts.items():
                sense_counts.setdefault(lemma, Counter()).update(counter)
        arbor = to_arbor(graph)
        inp = encoder_input_from_record(record)
        pairs.append((inp, make_reference(inp, arbor, policy_for(record.framework))))
    return pairs, {k: dict(v) for k, v in sense_counts.items()}
