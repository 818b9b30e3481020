"""Beam-search decoding over semantic relations.

Every decoded sequence reconstructs to a valid arborescence by
construction: the source pointer can only address previously emitted
nodes (or ROOT), so no spanning-tree repair is ever needed and decoding
runs in one pass over the output relations.

There is one decode loop, over a list of sentences of equal token count
whose beams run in lockstep; one sentence is the one-entry case.  The
sentences are encoded by one ``Encoder.encode`` call, and the loop holds
one ``DecoderState`` per step whose rows are the open hypotheses of all
live sentences, each sentence's beam a contiguous block of rows.  Each
step, one ``Decoder.predict_target`` call scores the next target of
every row, each reading the encoder rows of its own sentence.  The top-K
target-node candidates of each row are taken; EOS moves a hypothesis to
its sentence's finished pool (with no score contribution), and the rest
become (row, target) expansions.  One ``Decoder.expand`` call feeds all
of the step's expansions as matrix rows and scores every (source,
relation type) pair of each, so the step's scores are one (expansion,
source, type) array.  Each sentence's top-K of its own block of those
scores, ties broken by arrival order, forms its next beam, and one
``Expansions.state`` call gathers the chosen expansions of every
sentence into the next state.  A sentence retires when its beam empties
or at its own ``max_len``, where it adds no rows to the next state.
Every row of both decoder calls is bit-equal to that row alone, so a
sentence decodes bit for bit as it does alone.
Greedy search is this loop at width 1: argmax target, then argmax
(source, type), with ties going to the lowest index.

``decode_batch`` groups many sentences by token count and runs each
group, in pieces of at most ``MAX_LOCKSTEP`` sentences, through the loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .convert import amr_restore_senses, from_arbor
from .decoder import (
    BOS_INPUT,
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
               slot: int, row: int) -> NodeRecord:
    """Interpret a position of the mixed target distribution of row ``row``
    of ``out``, a ``StepOutput``."""
    v, n_enc = out.vocab_size, out.n_enc
    fresh, dec_records = out.fresh_index[row], out.dec_records[row]
    if slot < v:
        label = model.vocabs.dec_word.token(slot)
        return NodeRecord(label, fresh, UNK_LABEL, ORIGIN_VOCAB)
    if slot < v + n_enc:
        t = slot - v
        return NodeRecord(tokens[t], fresh, pos_tags[t], ORIGIN_ENC, (t,))
    rec = dec_records[slot - v - n_enc]
    return NodeRecord(rec.label, rec.index, rec.pos, ORIGIN_DEC, rec.anchors)


def _source_of(nodes: tuple[NodeRecord, ...], position: int) -> tuple[str, int]:
    """Label and index of pointer position ``position`` over ``nodes``."""
    if position == 0:
        return ROOT_LABEL, ROOT_INDEX
    rec = nodes[position - 1]
    return rec.label, rec.index


@dataclass
class Hypothesis:
    relations: tuple[Relation, ...]
    score: float
    rel_in: RelationInput


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


# The most sentences one decode loop runs in lockstep.  A step's arrays grow
# with its rows: at beam 5 and paper-default dims each (expansion, source,
# type) array holds 2.3 MB per sentence by step 110.  What a sentence saves
# levels off: at criterion-08 dims, 32 five-token sentences decoded for 20
# steps took 18.3 ms each one at a time, 4.1 ms at 16 and 3.7 ms at 32
# (greedy), and 44.5, 34.6 and 33.6 ms at beam 5 (one BLAS thread).
MAX_LOCKSTEP = 16


@dataclass
class _Sentence:
    """One sentence's search state in the lockstep loop."""

    enc_input: EncoderInput
    max_len: int
    beam: list[Hypothesis]
    finished: list[Hypothesis] = field(default_factory=list)
    total_steps: int = 0

    def result(self) -> DecodeResult:
        """The best of the finished and then the open hypotheses, by score
        and then by that order; an open one is truncated."""
        pool = self.finished + self.beam
        if not pool:
            return DecodeResult(RelationSequence((), eos=True), 0.0, 0, self.total_steps, False)
        k, best = max(enumerate(pool), key=lambda kv: (kv[1].score, -kv[0]))
        truncated = k >= len(self.finished)
        seq = RelationSequence(best.relations, eos=not truncated, truncated=truncated)
        return DecodeResult(seq, best.score, len(best.relations), self.total_steps, truncated,
                            pool=[(h.relations, h.score) for h in pool])


def _check_search(beam_size: int, max_lens) -> None:
    if beam_size < 1:
        raise ValueError("beam size must be at least 1")
    if any(max_len < 1 for max_len in max_lens):
        raise ValueError("max_len must be at least 1")


def _search(model: TransducerModel, enc_inputs: list[EncoderInput], beam_size: int,
            max_lens: list[int]) -> list[DecodeResult]:
    """The decode loop behind ``greedy_decode``, ``beam_decode`` and
    ``decode_batch``: the beams of sentences of equal token count in
    lockstep (see the module docstring)."""
    _check_search(beam_size, max_lens)
    dec = model.decoder
    eos_id = model.vocabs.dec_word.id(EOS_LABEL)
    n_types = len(model.vocabs.rel)
    # the state's rows are the beams of the live sentences, in order
    state = dec.initial_state(model.encoder.encode(enc_inputs))
    sents = [_Sentence(inp, max_len, [Hypothesis((), 0.0, BOS_INPUT)])
             for inp, max_len in zip(enc_inputs, max_lens)]

    for step in range(max(max_lens)):
        live = [s for s in sents if s.beam and step < s.max_len]
        if not live:
            break
        hyps = [hyp for s in live for hyp in s.beam]
        outs, state = dec.predict_target(state, [hyp.rel_in for hyp in hyps])
        # the (hypothesis, target) expansions of this step, in arrival order
        # within each sentence's block of rows
        parents: list[int] = []  # the row of each expansion's hypothesis
        records: list[NodeRecord] = []
        heads: list[float] = []  # hypothesis score + log P(target)
        blocks: list[tuple[_Sentence, int, int]] = []
        b = 0
        for sent in live:
            sent.total_steps += len(sent.beam)
            lo = len(records)
            tokens, pos = sent.enc_input.tokens, sent.enc_input.pos
            for hyp in sent.beam:
                p = outs.p_target.data[b]
                for slot in _top_k(p, beam_size):
                    slot = int(slot)
                    if slot == eos_id:
                        # per the search over relations, EOS closes the
                        # hypothesis without a score update
                        sent.finished.append(hyp)
                        continue
                    parents.append(b)
                    records.append(_slot_info(model, outs, tokens, pos, slot, b))
                    heads.append(hyp.score + float(np.log(p[slot])))
                b += 1
            blocks.append((sent, lo, len(records)))
        if not records:
            for sent in live:
                sent.beam = []
            break
        exp = dec.expand(state, parents, records)
        # scores by (expansion, source, type).  Keep this addition order: it
        # is that of scoring one relation at a time, so the sum adds no
        # rounding difference against that reference
        with np.errstate(divide="ignore"):  # zero probability -> -inf
            scores = ((np.array(heads)[:, None] + np.log(exp.p_source))[:, :, None]
                      + np.log(exp.p_relation))
        survivors: list[int] = []  # the expansions that the next step goes on from
        for sent, lo, hi in blocks:
            # candidates in arrival order; drops the masked ROOT position
            cand_e, cand_j = np.nonzero(exp.p_source[lo:hi])
            flat = scores[lo:hi][cand_e, cand_j].ravel()
            sent.beam = []
            for i in _top_k(flat, beam_size):
                row, r_id = divmod(int(i), n_types)
                e, j = lo + int(cand_e[row]), int(cand_j[row])
                b, record = parents[e], records[e]
                rel = model.vocabs.rel.token(r_id)
                u_label, u_index = _source_of(state.nodes[b], j)
                relation = Relation(u_label, u_index, rel, record.label, record.index,
                                    record.anchors)
                sent.beam.append(Hypothesis(
                    hyps[b].relations + (relation,), float(flat[i]),
                    RelationInput(u_label, u_index, state.node_pos(b, j), rel),
                ))
                # a sentence at its max_len keeps its beam but drops its rows
                if step + 1 < sent.max_len:
                    survivors.append(e)
        state = exp.state(survivors)

    # hypotheses still open at max length are flushed as truncated
    return [sent.result() for sent in sents]


# Two names for the one search, each calling it directly rather than the
# other, so that wrapping either name never nests one decode in another.

def greedy_decode(model: TransducerModel, enc_input: EncoderInput,
                  max_len: int = 100) -> DecodeResult:
    """Argmax target, then argmax (source, type): beam search of width 1."""
    return _search(model, [enc_input], 1, [max_len])[0]


def beam_decode(model: TransducerModel, enc_input: EncoderInput, beam_size: int = 5,
                max_len: int = 100) -> DecodeResult:
    """Beam search over full relations (target, source, type jointly)."""
    return _search(model, [enc_input], beam_size, [max_len])[0]


def decode_batch(model: TransducerModel, inputs: list[EncoderInput], beam_size: int,
                 max_lens: list[int]) -> list[DecodeResult]:
    """Decode ``inputs[i]`` with a beam of ``beam_size`` (1 is greedy) and
    at most ``max_lens[i]`` steps, for every ``i``; the results come in
    input order, each bit-identical to decoding that sentence alone.

    Sentences of equal token count are decoded in lockstep, at most
    ``MAX_LOCKSTEP`` at a time, so encoder attention and encoder rows need
    no padding.  Every argument is checked before the first decode.
    """
    if len(max_lens) != len(inputs):
        raise ValueError(f"{len(max_lens)} max_lens for {len(inputs)} inputs")
    _check_search(beam_size, max_lens)
    groups: dict[int, list[int]] = {}
    for i, inp in enumerate(inputs):
        groups.setdefault(len(inp.tokens), []).append(i)
    results: list[DecodeResult | None] = [None] * len(inputs)
    for group in groups.values():
        for lo in range(0, len(group), MAX_LOCKSTEP):
            part = group[lo : lo + MAX_LOCKSTEP]
            decoded = _search(model, [inputs[i] for i in part], beam_size,
                              [max_lens[i] for i in part])
            for i, result in zip(part, decoded):
                results[i] = result
    return results


def _empty_graph(framework: Framework) -> SemanticGraph:
    if framework == Framework.DM:
        return SemanticGraph(Framework.DM, (), (), ())
    if framework == Framework.AMR:
        node = GraphNode("n1", "amr-empty")
        return SemanticGraph(Framework.AMR, (node,), (), ("n1",))
    node = GraphNode("n1", "")
    return SemanticGraph(Framework.UCCA, (node,), (), ("n1",))


def to_graph(model: TransducerModel, sequence: RelationSequence,
             framework: Framework | None = None) -> SemanticGraph:
    """A decoded relation sequence as a framework graph: the framework's
    empty graph for no relations, with AMR senses restored.

    ``framework`` overrides the model's own tag, which matters for models
    trained on mixed-framework corpora.
    """
    target = framework if framework is not None else model.framework
    if not sequence.relations:
        return _empty_graph(target)
    graph = from_arbor(relations_to_arbor(sequence), target)
    if target == Framework.AMR and model.sense_counts:
        graph = amr_restore_senses(graph, model.sense_counts)
    return graph


def parse(model: TransducerModel, enc_input: EncoderInput, *, beam_size: int = 1,
          max_len: int = 100, framework: Framework | None = None) -> SemanticGraph:
    """Decode with a beam of ``beam_size`` (1 is greedy) and convert back to
    a framework graph (``to_graph``)."""
    result = beam_decode(model, enc_input, beam_size=beam_size, max_len=max_len)
    return to_graph(model, result.sequence, framework)
