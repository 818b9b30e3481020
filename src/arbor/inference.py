"""Beam-search decoding over semantic relations.

Every decoded sequence reconstructs to a valid arborescence by
construction: the source pointer can only address previously emitted
nodes (or ROOT), so no spanning-tree repair is ever needed and decoding
runs in one pass over the output relations.

There is one decode loop.  Beam search expands every hypothesis in the
beam each step: one ``Decoder.predict_target`` call scores the next
target of every hypothesis as matrix rows, the top-K target-node
candidates of each are taken, EOS moves a hypothesis to the finished pool
(with no score contribution), and the rest become (hypothesis, target)
expansions.  One ``Decoder.expand`` call feeds all of a step's expansions
as matrix rows and scores every (source, relation type) pair of each, so
the step's scores are one (expansion, source, type) array.  The global
top-K of those scores, ties broken by arrival order, forms the next beam,
and only its K members are built as decoder states and objects.  Greedy
search is this loop at width 1: argmax target, then argmax (source,
type), with ties going to the lowest index.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .convert import amr_restore_senses, from_arbor
from .decoder import (
    BOS_INPUT,
    DecoderState,
    NodeRecord,
    ORIGIN_DEC,
    ORIGIN_ENC,
    ORIGIN_VOCAB,
    RelationInput,
)
from .encoder import EncoderInput
from .graph import (
    EOS_LABEL,
    Framework,
    GraphNode,
    Relation,
    RelationSequence,
    ROOT_INDEX,
    ROOT_LABEL,
    SemanticGraph,
    UNK_LABEL,
)
from .linearize import relations_to_arbor
from .model import TransducerModel


@dataclass
class DecodeResult:
    sequence: RelationSequence
    score: float
    steps: int  # relation-producing iterations == emitted relation count
    total_steps: int  # including the terminating EOS probe
    truncated: bool
    # the finished pool of every decode, greedy included, for instrumentation
    pool: list[tuple[tuple[Relation, ...], float]] | None = None


def _slot_info(model: TransducerModel, out, tokens: list[str], pos_tags: list[str],
               slot: int) -> NodeRecord:
    """Interpret a position of the mixed target distribution."""
    v, n_enc = out.vocab_size, out.n_enc
    if slot < v:
        label = model.vocabs.dec_word.token(slot)
        return NodeRecord(label, out.fresh_index, UNK_LABEL, ORIGIN_VOCAB)
    if slot < v + n_enc:
        t = slot - v
        return NodeRecord(tokens[t], out.fresh_index, pos_tags[t], ORIGIN_ENC, (t,))
    rec = out.dec_records[slot - v - n_enc]
    return NodeRecord(rec.label, rec.index, rec.pos, ORIGIN_DEC, rec.anchors)


def _source_of(state, position: int) -> tuple[str, int]:
    if position == 0:
        return ROOT_LABEL, ROOT_INDEX
    rec = state.nodes[position - 1]
    return rec.label, rec.index


@dataclass
class Hypothesis:
    relations: tuple[Relation, ...]
    score: float
    state: object
    rel_in: RelationInput
    truncated: bool = False


def _top_k(scores: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` largest scores, ties in index order.

    Returns ``np.argsort(-scores, kind="stable")[:k]``, but sorts only the
    entries at or above the k-th largest score, so that a greedy step does
    not sort every target slot (12k at paper-default dims).
    """
    n = scores.shape[0]
    if k >= n:
        return np.argsort(-scores, kind="stable")
    threshold = np.partition(scores, n - k)[n - k]
    candidates = np.flatnonzero(scores >= threshold)
    return candidates[np.argsort(-scores[candidates], kind="stable")[:k]]


def _search(model: TransducerModel, enc_input: EncoderInput, beam_size: int,
            max_len: int) -> DecodeResult:
    """The decode loop behind both ``greedy_decode`` and ``beam_decode``."""
    if beam_size < 1:
        raise ValueError("beam size must be at least 1")
    if max_len < 1:
        raise ValueError("max_len must be at least 1")
    dec = model.decoder
    eos_id = model.vocabs.dec_word.id(EOS_LABEL)
    n_types = len(model.vocabs.rel)
    enc = model.encoder.encode(enc_input)
    init = Hypothesis((), 0.0, dec.initial_state(enc), BOS_INPUT)
    beam: list[Hypothesis] = [init]
    finished: list[Hypothesis] = []
    total_steps = 0

    for _ in range(max_len):
        if not beam:
            break
        # the (hypothesis, target) expansions of this step, in arrival order
        owners: list[Hypothesis] = []
        parents: list[DecoderState] = []
        records: list[NodeRecord] = []
        heads: list[float] = []  # hypothesis score + log P(target)
        outs, fed = dec.predict_target(enc, [hyp.state for hyp in beam],
                                       [hyp.rel_in for hyp in beam])
        total_steps += len(beam)
        for b, hyp in enumerate(beam):
            out = outs.row(b)
            p = out.p_target.data
            for slot in _top_k(p, beam_size):
                slot = int(slot)
                if slot == eos_id:
                    # per the search over relations, EOS closes the
                    # hypothesis without a score update
                    finished.append(Hypothesis(hyp.relations, hyp.score, None, hyp.rel_in))
                    continue
                owners.append(hyp)
                parents.append(fed[b])
                records.append(_slot_info(model, out, enc_input.tokens, enc_input.pos, slot))
                heads.append(hyp.score + float(np.log(p[slot])))
        if not records:
            beam = []
            break
        exp = dec.expand(parents, records)
        # scores by (expansion, source, type).  Keep this addition order: it
        # is that of scoring one relation at a time, so the sum adds no
        # rounding difference against that reference
        with np.errstate(divide="ignore"):  # zero probability -> -inf
            scores = ((np.array(heads)[:, None] + np.log(exp.p_source))[:, :, None]
                      + np.log(exp.p_relation))
        # candidates in arrival order; drops the masked ROOT position
        cand_e, cand_j = np.nonzero(exp.p_source)
        flat = scores[cand_e, cand_j].ravel()
        states: dict[int, DecoderState] = {}  # built for survivors only
        beam = []
        for i in _top_k(flat, beam_size):
            row, r_id = divmod(int(i), n_types)
            e, j = int(cand_e[row]), int(cand_j[row])
            if e not in states:
                states[e] = exp.state(e)
            state2, record = states[e], records[e]
            rel = model.vocabs.rel.token(r_id)
            u_label, u_index = _source_of(state2, j)
            relation = Relation(u_label, u_index, rel, record.label, record.index,
                                record.anchors)
            beam.append(Hypothesis(
                owners[e].relations + (relation,), float(flat[i]), state2,
                RelationInput(u_label, u_index, state2.node_pos(j), rel),
            ))

    for hyp in beam:  # flush hypotheses still open at max length
        finished.append(Hypothesis(hyp.relations, hyp.score, None, hyp.rel_in, truncated=True))

    if not finished:
        return DecodeResult(RelationSequence((), eos=True), 0.0, 0, total_steps, False)
    best = max(enumerate(finished), key=lambda kv: (kv[1].score, -kv[0]))[1]
    seq = RelationSequence(best.relations, eos=not best.truncated, truncated=best.truncated)
    pool = [(h.relations, h.score) for h in finished]
    return DecodeResult(seq, best.score, len(best.relations), total_steps, best.truncated,
                        pool=pool)


# Two names for the one search, each calling it directly rather than the
# other, so that wrapping either name never nests one decode in another.

def greedy_decode(model: TransducerModel, enc_input: EncoderInput,
                  max_len: int = 100) -> DecodeResult:
    """Argmax target, then argmax (source, type): beam search of width 1."""
    return _search(model, enc_input, 1, max_len)


def beam_decode(model: TransducerModel, enc_input: EncoderInput, beam_size: int = 5,
                max_len: int = 100) -> DecodeResult:
    """Beam search over full relations (target, source, type jointly)."""
    return _search(model, enc_input, beam_size, max_len)


def _empty_graph(framework: Framework) -> SemanticGraph:
    if framework == Framework.DM:
        return SemanticGraph(Framework.DM, (), (), ())
    if framework == Framework.AMR:
        node = GraphNode("n1", "amr-empty")
        return SemanticGraph(Framework.AMR, (node,), (), ("n1",))
    node = GraphNode("n1", "")
    return SemanticGraph(Framework.UCCA, (node,), (), ("n1",))


def parse(model: TransducerModel, enc_input: EncoderInput, *, beam_size: int = 1,
          max_len: int = 100, framework: Framework | None = None) -> SemanticGraph:
    """Decode with a beam of ``beam_size`` (1 is greedy) and convert back to
    a framework graph.

    ``framework`` overrides the model's own tag, which matters for models
    trained on mixed-framework corpora.
    """
    target = framework if framework is not None else model.framework
    result = beam_decode(model, enc_input, beam_size=beam_size, max_len=max_len)
    if not result.sequence.relations:
        return _empty_graph(target)
    arbor = relations_to_arbor(result.sequence)
    graph = from_arbor(arbor, target)
    if target == Framework.AMR and model.sense_counts:
        counts = {k: Counter(v) for k, v in model.sense_counts.items()}
        graph = amr_restore_senses(graph, counts)
    return graph
