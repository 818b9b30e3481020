from collections import Counter
from dataclasses import dataclass, replace

import numpy as np
import pytest

from arbor.decoder import BOS_INPUT, ORIGIN_DEC, RelationInput
from arbor.encoder import EncoderInput
from arbor.graph import (
    EOS_LABEL,
    Framework,
    NULL_EDGE,
    OF_SUFFIX,
    Relation,
    RelationSequence,
    ROOT_INDEX,
    ROOT_LABEL,
    UNK_LABEL,
    validate_arborescence,
)
from arbor import autodiff as ad
from arbor import cli, inference
from arbor.decoder import Decoder
from arbor.encoder import Encoder
from arbor.formats import write_canonical
from arbor.inference import (
    beam_decode,
    decode_batch,
    greedy_decode,
    parse,
    _slot_info,
    _source_of,
    _top_k,
)
from arbor.linearize import relations_to_arbor
from arbor.model import TransducerModel, Vocabularies
from arbor.vocab import NODE_RESERVED, RELATION_RESERVED, Vocab

from conftest import (build_tiny_model, make_inputs, output_row, reference_feed,
                      synthetic_corpus, tiny_config)
from test_model import SMALL_DIMS


def micro_model(seed: int) -> TransducerModel:
    """Tiny label space for exhaustive enumeration."""
    cfg = tiny_config("amr", word_dim=4, char_emb_dim=3, char_channels=4,
                      pos_dim=3, index_dim=3, rel_dim=3, encoder_hidden=4,
                      relation_hidden=6, biaffine_size=4, bilinear_size=4,
                      index_table_size=16)
    vocabs = Vocabularies(
        enc_word=Vocab(["tok"]),
        dec_word=Vocab(["aa", "bb"], reserved=NODE_RESERVED),
        pos=Vocab(["NN"]),
        char=Vocab(list("abktox")),
        rel=Vocab(["x"], reserved=RELATION_RESERVED),
    )
    return TransducerModel(cfg, vocabs, seed=seed)


def enumerate_best(model, inp, max_len):
    """Recursive enumeration of every decodable relation sequence.

    Mirrors the scoring rules (EOS closes a hypothesis with no score
    contribution; hypotheses still open at max_len are closed as they
    stand) while sharing nothing with the search loop: it walks every
    slot, source and type in order and keeps the first best by a strict
    ``>``.  A node's non-EOS slots are fed by one ``Decoder.expand`` call,
    whose rows ``TestExpand`` checks against one expansion at a time.
    """
    dec = model.decoder
    eos_id = model.vocabs.dec_word.id(EOS_LABEL)
    enc = model.encoder.encode([inp])
    best = {"score": -np.inf, "seq": ()}

    def consider(seq, score):
        if score > best["score"]:
            best["score"] = score
            best["seq"] = seq

    def walk(state, rel_in, seq, score, depth):
        if depth == max_len:
            consider(seq, score)
            return
        out, state1 = dec.predict_target(state, [rel_in])
        p = out.p_target.data[0]
        slots = [slot for slot in range(p.shape[0]) if slot != eos_id]
        records = [_slot_info(model, out, inp.tokens, inp.pos, slot, 0) for slot in slots]
        exp = dec.expand(state1, [0] * len(slots), records)
        e = 0  # the expansion of the next non-EOS slot
        for slot in range(p.shape[0]):
            if slot == eos_id:
                consider(seq, score)  # EOS: no score update
                continue
            record, pu, pr_all, state2 = (records[e], exp.p_source[e], exp.p_relation[e],
                                          exp.state([e]))
            e += 1
            for j in range(pu.shape[0]):
                if pu[j] == 0.0:
                    continue
                u_label, u_index = _source_of(state2.nodes[0], j)
                for r_id in range(pr_all.shape[1]):
                    rel = model.vocabs.rel.token(r_id)
                    relation = Relation(u_label, u_index, rel, record.label, record.index)
                    walk(
                        state2,
                        RelationInput(u_label, u_index, state2.node_pos(0, j), rel),
                        seq + (relation,),
                        score + np.log(p[slot]) + np.log(pu[j]) + np.log(pr_all[j, r_id]),
                        depth + 1,
                    )

    walk(dec.initial_state(enc), BOS_INPUT, (), 0.0, 0)
    return best["seq"], best["score"]


@dataclass
class Hypothesis:
    """A hypothesis of ``reference_beam_decode``, with its own one-row state."""

    relations: tuple[Relation, ...]
    score: float
    state: object
    rel_in: RelationInput
    truncated: bool = False


def reference_beam_decode(model, inp, beam_size, max_len):
    """Beam search that builds an object for every candidate relation.

    The implementation ``beam_decode`` replaced, kept as the reference its
    array scoring must reproduce exactly: every candidate becomes a
    ``Hypothesis`` and all of them are sorted by (-score, arrival).
    """
    from arbor.inference import DecodeResult

    dec = model.decoder
    eos_id = model.vocabs.dec_word.id(EOS_LABEL)
    enc = model.encoder.encode([inp])
    beam = [Hypothesis((), 0.0, dec.initial_state(enc), BOS_INPUT)]
    finished = []
    total_steps = 0
    for _ in range(max_len):
        if not beam:
            break
        candidates = []
        arrival = 0
        for hyp in beam:
            out, state1 = dec.predict_target(hyp.state, [hyp.rel_in])
            total_steps += 1
            p = out.p_target.data[0]
            top = np.argsort(-p, kind="stable")[: min(beam_size, p.shape[0])]
            for slot in top:
                slot = int(slot)
                if slot == eos_id:
                    finished.append(Hypothesis(hyp.relations, hyp.score, None, hyp.rel_in))
                    continue
                record = _slot_info(model, out, inp.tokens, inp.pos, slot, 0)
                state2 = reference_feed(dec, state1, record)
                pu = dec.point_source(state2).data
                pr_all = dec.relation_dist_all(state2)
                logp_v = float(np.log(p[slot]))
                for j in range(pu.shape[0]):
                    if pu[j] == 0.0:
                        continue
                    u_label, u_index = _source_of(state2.nodes[0], j)
                    base = hyp.score + logp_v + float(np.log(pu[j]))
                    for r_id in range(pr_all.shape[1]):
                        rel = model.vocabs.rel.token(r_id)
                        with np.errstate(divide="ignore"):
                            new_score = base + float(np.log(pr_all[j, r_id]))
                        relation = Relation(u_label, u_index, rel, record.label,
                                            record.index, record.anchors)
                        new_hyp = Hypothesis(
                            hyp.relations + (relation,), new_score, state2,
                            RelationInput(u_label, u_index, state2.node_pos(0, j), rel),
                        )
                        candidates.append((new_score, arrival, new_hyp))
                        arrival += 1
        candidates.sort(key=lambda c: (-c[0], c[1]))
        beam = [c[2] for c in candidates[:beam_size]]
    for hyp in beam:
        finished.append(Hypothesis(hyp.relations, hyp.score, None, hyp.rel_in, truncated=True))
    if not finished:
        return DecodeResult(RelationSequence((), eos=True), 0.0, 0, total_steps, False)
    best = max(enumerate(finished), key=lambda kv: (kv[1].score, -kv[0]))[1]
    seq = RelationSequence(best.relations, eos=not best.truncated, truncated=best.truncated)
    pool = [(h.relations, h.score) for h in finished]
    return DecodeResult(seq, best.score, len(best.relations), total_steps, best.truncated,
                        pool=pool)


def reference_greedy_decode(model, inp, max_len):
    """Greedy search as a hand-written argmax loop.

    The implementation that beam search of width 1 replaced, kept as the
    reference it must reproduce: the same relations, steps and truncation,
    with scores summed in another order.
    """
    from arbor.inference import DecodeResult

    dec = model.decoder
    eos_id = model.vocabs.dec_word.id(EOS_LABEL)
    enc = model.encoder.encode([inp])
    state = dec.initial_state(enc)
    rel_in = BOS_INPUT
    relations = []
    score = 0.0
    total_steps = 0
    saw_eos = False
    for _ in range(max_len):
        out, state = dec.predict_target(state, [rel_in])
        total_steps += 1
        p = out.p_target.data[0]
        slot = int(np.argmax(p))
        if slot == eos_id:
            saw_eos = True
            break
        record = _slot_info(model, out, inp.tokens, inp.pos, slot, 0)
        state = reference_feed(dec, state, record)
        pu = dec.point_source(state).data
        pr_all = dec.relation_dist_all(state)
        # the source choice maximizes the joint source+type probability
        with np.errstate(divide="ignore"):
            joint = np.log(pu)[:, None] + np.log(pr_all)  # masked ROOT -> -inf
        j, r_id = np.unravel_index(int(np.argmax(joint)), joint.shape)
        j, r_id = int(j), int(r_id)
        rel = model.vocabs.rel.token(r_id)
        u_label, u_index = _source_of(state.nodes[0], j)
        score += float(np.log(p[slot]) + joint[j, r_id])
        relations.append(Relation(u_label, u_index, rel, record.label, record.index,
                                  record.anchors))
        rel_in = RelationInput(u_label, u_index, state.node_pos(0, j), rel)
    seq = RelationSequence(tuple(relations), eos=saw_eos, truncated=not saw_eos)
    return DecodeResult(seq, score, len(relations), total_steps, truncated=not saw_eos)


def zero_scorers(model):
    """Zero the vocabulary, source and type scorers: every choice ties."""
    for module in (model.decoder.ffn_vocab, model.decoder.bilinear,
                   model.decoder.biaffine):
        for t in module.parameters().values():
            t.data[...] = 0.0
    return model


def assert_same_decode(new, ref):
    assert new.sequence.relations == ref.sequence.relations
    assert new.score == ref.score  # bit-equal, not approximately equal
    assert new.pool == ref.pool
    assert (new.steps, new.total_steps, new.truncated) == (
        ref.steps, ref.total_steps, ref.truncated)


class TestGreedy:
    def test_structural_validity_over_random_models(self):
        for seed in range(25):
            model = build_tiny_model(seed=100 + seed)
            inp = make_inputs(np.random.default_rng(seed), 3)
            result = greedy_decode(model, inp, max_len=10)
            if result.sequence.relations:
                arbor = relations_to_arbor(result.sequence)
                assert validate_arborescence(arbor).valid

    def test_step_counter_equals_relations(self):
        model = build_tiny_model(seed=42)
        inp = make_inputs(np.random.default_rng(0), 4)
        result = greedy_decode(model, inp, max_len=12)
        assert result.steps == len(result.sequence.relations)
        assert result.total_steps in (result.steps, result.steps + 1)

    def test_deterministic(self):
        model = build_tiny_model(seed=43)
        inp = make_inputs(np.random.default_rng(1), 4)
        a = greedy_decode(model, inp, max_len=10)
        b = greedy_decode(model, inp, max_len=10)
        assert a.sequence == b.sequence and a.score == b.score

    def test_forced_eos_first_gives_empty_sequence(self):
        model = build_tiny_model(seed=44)
        eos_row = model.vocabs.dec_word.id(EOS_LABEL)
        model.decoder.ffn_vocab.b.data[eos_row] = 100.0
        model.decoder.ffn_switch.b.data[:] = [100.0, -100.0, -100.0]
        result = greedy_decode(model, make_inputs(np.random.default_rng(2), 3))
        assert result.sequence.relations == ()
        assert not result.truncated

    def test_truncation_flagged(self):
        model = build_tiny_model(seed=45)
        eos_row = model.vocabs.dec_word.id(EOS_LABEL)
        model.decoder.ffn_vocab.b.data[eos_row] = -100.0
        result = greedy_decode(model, make_inputs(np.random.default_rng(3), 3), max_len=4)
        assert result.truncated
        assert len(result.sequence.relations) == 4

    # 30 random models, and one whose zeroed scorers make every choice a
    # tie, so that both must pick the lowest index each time.  Untouched,
    # the random models never pick EOS; an EOS bias of 2 ends about half of
    # their decodes early.
    @pytest.mark.parametrize("case", [*range(30), "ties"])
    def test_matches_argmax_reference(self, case):
        if case == "ties":
            model = zero_scorers(build_tiny_model(seed=620))
            inp = make_inputs(np.random.default_rng(20), 3)
        else:
            model = build_tiny_model(seed=700 + case)
            inp = make_inputs(np.random.default_rng(case), 2 + case % 4)
        eos_row = model.vocabs.dec_word.id(EOS_LABEL)
        for eos_bias in (0.0, 2.0):
            model.decoder.ffn_vocab.b.data[eos_row] += eos_bias
            for max_len in (1, 4, 12):
                new = greedy_decode(model, inp, max_len=max_len)
                ref = reference_greedy_decode(model, inp, max_len)
                assert new.sequence.relations == ref.sequence.relations
                assert (new.steps, new.total_steps, new.truncated) == (
                    ref.steps, ref.total_steps, ref.truncated)
                assert abs(new.score - ref.score) <= 1e-12


class TestBeam:
    @pytest.mark.parametrize("seed", range(30))
    def test_k1_equals_greedy(self, seed):
        model = build_tiny_model(seed=200 + seed)
        inp = make_inputs(np.random.default_rng(seed), 3)
        g = greedy_decode(model, inp, max_len=6)
        b = beam_decode(model, inp, beam_size=1, max_len=6)
        assert b.sequence.relations == g.sequence.relations
        assert b.score == pytest.approx(g.score, abs=1e-9)

    @pytest.mark.parametrize("seed", range(10))
    def test_full_width_matches_exhaustive_enumeration(self, seed):
        model = micro_model(seed)
        inp = EncoderInput(tokens=["tok"], pos=["NN"])
        brute_seq, brute_score = enumerate_best(model, inp, max_len=2)
        beam = beam_decode(model, inp, beam_size=4096, max_len=2)
        assert beam.score == pytest.approx(brute_score, abs=1e-9)
        assert tuple(r.astuple() for r in beam.sequence.relations) == tuple(
            r.astuple() for r in brute_seq
        )

    def test_monotone_in_beam_size(self):
        model = micro_model(99)
        inp = EncoderInput(tokens=["tok"], pos=["NN"])
        scores = [beam_decode(model, inp, beam_size=k, max_len=3).score
                  for k in (1, 2, 4, 8, 64)]
        for a, b in zip(scores, scores[1:]):
            assert b >= a - 1e-12

    def test_beam_at_least_greedy_when_path_survives(self):
        for seed in range(10):
            model = build_tiny_model(seed=300 + seed)
            inp = make_inputs(np.random.default_rng(seed), 3)
            g = greedy_decode(model, inp, max_len=5)
            b = beam_decode(model, inp, beam_size=5, max_len=5)
            survived = any(rels == g.sequence.relations for rels, _ in b.pool)
            if survived:
                assert b.score >= g.score - 1e-12

    def test_validity_over_random_models(self):
        for seed in range(15):
            model = build_tiny_model(seed=400 + seed)
            inp = make_inputs(np.random.default_rng(seed), 3)
            result = beam_decode(model, inp, beam_size=3, max_len=8)
            if result.sequence.relations:
                arbor = relations_to_arbor(result.sequence)
                assert validate_arborescence(arbor).valid


    @pytest.mark.parametrize("beam_size", [2, 3, 5, 8])
    @pytest.mark.parametrize("seed", range(20))
    def test_matches_object_per_candidate_reference(self, seed, beam_size):
        model = build_tiny_model(seed=600 + seed)
        inp = make_inputs(np.random.default_rng(seed), 3)
        assert_same_decode(beam_decode(model, inp, beam_size=beam_size, max_len=5),
                           reference_beam_decode(model, inp, beam_size, max_len=5))

    @pytest.mark.parametrize("beam_size", [2, 3, 5, 8])
    def test_ties_keep_arrival_order(self, beam_size):
        # zeroed scorers make every source and type equally likely, so the
        # beam is decided by the tie-break on arrival order alone
        model = build_tiny_model(seed=620)
        for module in (model.decoder.ffn_vocab, model.decoder.bilinear,
                       model.decoder.biaffine):
            for t in module.parameters().values():
                t.data[...] = 0.0
        inp = make_inputs(np.random.default_rng(20), 3)
        new = beam_decode(model, inp, beam_size=beam_size, max_len=5)
        ref = reference_beam_decode(model, inp, beam_size, max_len=5)
        assert len({score for _, score in ref.pool}) < len(ref.pool)
        assert_same_decode(new, ref)


class TestParse:
    def test_empty_decode_gives_framework_empty_graph(self):
        for fw, expected_nodes in (("amr", 1), ("dm", 0), ("ucca", 1)):
            model = build_tiny_model(seed=46, framework=fw)
            eos_row = model.vocabs.dec_word.id(EOS_LABEL)
            model.decoder.ffn_vocab.b.data[eos_row] = 100.0
            model.decoder.ffn_switch.b.data[:] = [100.0, -100.0, -100.0]
            g = parse(model, make_inputs(np.random.default_rng(4), 3))
            assert g.framework == Framework(fw)
            assert len(g.nodes) == expected_nodes

    def test_dm_output_carries_no_internal_labels(self):
        for seed in range(10):
            model = build_tiny_model(seed=500 + seed, framework="dm")
            inp = make_inputs(np.random.default_rng(seed), 4)
            g = parse(model, inp, beam_size=1, max_len=8)
            for e in g.edges:
                assert e.label != NULL_EDGE
                assert not e.label.endswith(OF_SUFFIX)

    def test_parse_always_returns_framework_graph(self):
        for fw in ("amr", "dm", "ucca"):
            model = build_tiny_model(seed=47, framework=fw)
            inp = make_inputs(np.random.default_rng(5), 3)
            g = parse(model, inp, beam_size=2, max_len=6)
            assert g.framework == Framework(fw)

    def test_amr_sense_restoration_applied(self, tmp_path):
        # the table as plain dicts, as amr_strip_senses' Counters, and as a
        # checkpoint loads it back
        senses = {"want": {"want-02": 1, "want-01": 3}}
        for source in ("dicts", "counters", "checkpoint"):
            model = build_tiny_model(seed=48, framework="amr", extra_labels=("want",))
            model.sense_counts = ({k: Counter(v) for k, v in senses.items()}
                                  if source == "counters" else senses)
            want_row = model.vocabs.dec_word.id("want")
            model.decoder.ffn_vocab.b.data[want_row] = 100.0
            model.decoder.ffn_switch.b.data[:] = [100.0, -100.0, -100.0]
            if source == "checkpoint":
                model.save(tmp_path / "model.ckpt")
                model = TransducerModel.load(tmp_path / "model.ckpt")
                assert model.sense_counts == senses
            g = parse(model, make_inputs(np.random.default_rng(6), 2), max_len=1)
            assert [n.label for n in g.nodes] == ["want-01"], source


class TestSearchArguments:
    @pytest.mark.parametrize("max_len", [0, -1])
    @pytest.mark.parametrize("decode", [
        lambda m, i, n: greedy_decode(m, i, max_len=n),
        lambda m, i, n: beam_decode(m, i, beam_size=5, max_len=n),
        lambda m, i, n: parse(m, i, beam_size=5, max_len=n),
    ], ids=["greedy", "beam", "parse"])
    def test_max_len_below_one_rejected(self, decode, max_len):
        model = build_tiny_model(seed=49)
        with pytest.raises(ValueError, match="max_len"):
            decode(model, make_inputs(np.random.default_rng(7), 3), max_len)

    @pytest.mark.parametrize("beam_size", [0, -3])
    def test_beam_size_below_one_rejected(self, beam_size):
        model = build_tiny_model(seed=49)
        inp = make_inputs(np.random.default_rng(7), 3)
        with pytest.raises(ValueError, match="beam size"):
            beam_decode(model, inp, beam_size=beam_size)
        with pytest.raises(ValueError, match="beam size"):
            parse(model, inp, beam_size=beam_size)


class TestTopK:
    @pytest.mark.parametrize("n", [1, 2, 7, 50])
    def test_matches_stable_argsort(self, n):
        rng = np.random.default_rng(n)
        for _ in range(100):
            # few distinct values, so most entries tie; -inf as a zero probability
            p = rng.integers(-1, 4, size=n).astype(float)
            p[p < 0] = -np.inf
            expected = np.argsort(-p, kind="stable")
            for k in sorted({1, max(1, n // 2), max(1, n - 1), n, n + 1, 3 * n}):
                np.testing.assert_array_equal(_top_k(p, k), expected[:k])


def assert_close(a, b, tol=1e-12):
    assert a.shape == b.shape
    assert np.abs(a - b).max(initial=0.0) <= tol


class TestExpand:
    """``Decoder.expand`` against feed_target + point_source +
    relation_dist_all on one expansion at a time."""

    @pytest.mark.parametrize("seed", range(30))
    def test_rows_match_one_expansion_at_a_time(self, seed):
        model = build_tiny_model(seed=800 + seed)
        dec = model.decoder
        eos_id = model.vocabs.dec_word.id(EOS_LABEL)
        inp = make_inputs(np.random.default_rng(seed), 2 + seed % 4)
        enc = model.encoder.encode([inp])
        copies = 0
        for k in (1, 5):
            state, rel_ins = dec.initial_state(enc), [BOS_INPUT]
            for step in range(5):
                outs, state1 = dec.predict_target(state, rel_ins)
                parents, records = [], []
                for b in range(len(rel_ins)):
                    out = output_row(outs, b)
                    slots = [int(s) for s in _top_k(out.p_target.data, k) if s != eos_id]
                    # every node copy as well, so that copy records are covered
                    slots += range(out.vocab_size + out.n_enc, out.p_target.shape[0])
                    for slot in slots:
                        parents.append(b)
                        records.append(_slot_info(model, outs, inp.tokens, inp.pos, slot, b))
                exp = dec.expand(state1, parents, records)
                n = step + 1  # ROOT and the nodes fed so far
                assert exp.p_source.shape == (len(records), n)
                if step == 0:  # ROOT alone
                    assert np.all(exp.p_source == 1.0)
                else:
                    assert np.all(exp.p_source[:, 0] == 0.0)
                for e, (b, record) in enumerate(zip(parents, records)):
                    one = dec.feed_target(state1.take([b]), record)
                    fed = exp.state([e])
                    for f in (one, fed):
                        assert (f.end_rows.shape[1] == f.rel_src_rows.shape[1]
                                == len(f.nodes[0]))
                    assert fed.nodes == one.nodes
                    for (h, c), (h1, c1) in zip(fed.lstm, one.lstm):
                        assert_close(h.data, h1.data)
                        assert_close(c.data, c1.data)
                    assert_close(exp.p_source[e], dec.point_source(one).data)
                    assert_close(exp.p_relation[e], dec.relation_dist_all(one))
                    copies += record.origin == ORIGIN_DEC
                # the next step expands the first k fed states, each from its
                # most likely (source, type)
                firsts = range(min(k, len(records)))
                state, rel_ins = exp.state(firsts), []
                for e in firsts:
                    j, r_id = np.unravel_index(
                        int(np.argmax(exp.p_source[e][:, None] * exp.p_relation[e])),
                        exp.p_relation[e].shape)
                    u_label, u_index = _source_of(state.nodes[e], int(j))
                    rel_ins.append(RelationInput(u_label, u_index, state.node_pos(e, int(j)),
                                                 model.vocabs.rel.token(int(r_id))))
        assert copies > 0


def assert_bits(a, b):
    assert a.shape == b.shape and np.array_equal(a, b)


def lockstep_model(dims: str, seed: int):
    """A tiny or criterion-08 model whose EOS bias ends some decodes early
    while others run to their limit."""
    model = build_tiny_model(seed=seed, **(SMALL_DIMS if dims == "criterion-08" else {}))
    model.decoder.ffn_vocab.b.data[model.vocabs.dec_word.id(EOS_LABEL)] += 2.0
    return model


def decode_alone(model, inp, beam_size, max_len):
    if beam_size == 1:
        return greedy_decode(model, inp, max_len=max_len)
    return beam_decode(model, inp, beam_size=beam_size, max_len=max_len)


class TestDecodeBatch:
    """``decode_batch`` runs the beams of equal-length sentences in
    lockstep; every sentence must decode bit for bit as it does alone."""

    # token counts in no order, with several sentences of each count
    LENGTHS = (3, 1, 4, 3, 2, 4, 3, 1, 3, 4, 3)

    @pytest.mark.parametrize("beam_size", [1, 5])
    @pytest.mark.parametrize("dims", ["tiny", "criterion-08"])
    def test_each_sentence_equals_its_decode_alone(self, dims, beam_size):
        model = lockstep_model(dims, seed=919)
        rng = np.random.default_rng(11)
        inputs = [make_inputs(rng, n) for n in self.LENGTHS]
        max_lens = [int(m) for m in rng.integers(2, 10, size=len(inputs))]
        results = decode_batch(model, inputs, beam_size, max_lens)
        assert len(results) == len(inputs)
        for inp, max_len, got in zip(inputs, max_lens, results):
            assert_same_decode(got, decode_alone(model, inp, beam_size, max_len))
        # some sentence closed by EOS before a sentence of its length stopped
        assert any(not a.truncated and a.total_steps < b.total_steps
                   and len(x.tokens) == len(y.tokens)
                   for x, a in zip(inputs, results) for y, b in zip(inputs, results))

    @pytest.mark.parametrize("beam_size", [1, 5])
    def test_tie_model(self, beam_size):
        model = zero_scorers(build_tiny_model(seed=620))
        rng = np.random.default_rng(20)
        inputs = [make_inputs(rng, n) for n in (3, 3, 2, 3)]
        max_lens = [5, 3, 5, 4]
        results = decode_batch(model, inputs, beam_size, max_lens)
        for inp, max_len, got in zip(inputs, max_lens, results):
            assert_same_decode(got, decode_alone(model, inp, beam_size, max_len))

    def test_groups_cut_at_the_lockstep_limit(self, monkeypatch):
        model = lockstep_model("tiny", seed=911)
        rng = np.random.default_rng(12)
        inputs = [make_inputs(rng, 3) for _ in range(5)]
        max_lens = [6, 2, 6, 4, 6]
        whole = decode_batch(model, inputs, 2, max_lens)
        monkeypatch.setattr(inference, "MAX_LOCKSTEP", 2)
        for got, want in zip(decode_batch(model, inputs, 2, max_lens), whole):
            assert_same_decode(got, want)

    def test_one_call_per_group_and_step(self, monkeypatch):
        model = lockstep_model("tiny", seed=912)
        calls = {"encode": 0, "predict_target": 0, "expand": 0}
        for cls, name in ((Encoder, "encode"), (Decoder, "predict_target"),
                          (Decoder, "expand")):
            def counted(*args, name=name, fn=getattr(cls, name), **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            monkeypatch.setattr(cls, name, counted)
        rng = np.random.default_rng(13)
        inputs = [make_inputs(rng, n) for n in (2, 4, 2, 2, 4)]
        results = decode_batch(model, inputs, 1, [7, 3, 7, 5, 7])
        groups = ([results[0], results[2], results[3]], [results[1], results[4]])
        assert calls["encode"] == len(groups)  # one per token count
        # greedy: a sentence is live for total_steps steps and expands at
        # all but an EOS step; each step of a group is one call of each
        assert calls["predict_target"] == sum(max(r.total_steps for r in g) for g in groups)
        assert calls["expand"] == sum(max(r.steps for r in g) for g in groups)
        assert len({r.total_steps for r in results}) > 1

    def test_arguments_checked_before_any_decode(self):
        model = build_tiny_model(seed=913)
        rng = np.random.default_rng(14)
        inputs = [make_inputs(rng, 2), make_inputs(rng, 3)]
        with pytest.raises(ValueError, match="max_len"):
            decode_batch(model, inputs, 1, [4, 0])
        with pytest.raises(ValueError, match="beam size"):
            decode_batch(model, inputs, 0, [4, 4])
        with pytest.raises(ValueError, match="max_lens"):
            decode_batch(model, inputs, 1, [4])
        assert decode_batch(model, [], 1, []) == []


class TestNoTape:
    """The decode step runs the target LSTM forward only (``lstm_step``):
    a decode under a tape fails loudly instead of dropping gradients."""

    def test_decode_under_a_tape_raises(self):
        model = build_tiny_model(seed=3)
        inp = make_inputs(np.random.default_rng(0), 3)
        for decode in (lambda: greedy_decode(model, inp, max_len=5),
                       lambda: decode_batch(model, [inp, inp], 2, [5, 5])):
            with ad.Tape(), pytest.raises(ad.TapeError, match="lstm_step"):
                decode()

    def test_arbor_parse_runs_no_tape(self, tmp_path, monkeypatch):
        model = build_tiny_model(seed=3)
        model.save(tmp_path / "m.ckpt")
        with open(tmp_path / "in.jsonl", "w", encoding="utf-8") as fh:
            for record in synthetic_corpus(2, 2, 2):
                fh.write(write_canonical(record) + "\n")
        step, recording = ad.lstm_step, []

        def watched(*args):
            recording.append(ad.recording())
            return step(*args)

        monkeypatch.setattr(ad, "lstm_step", watched)
        assert cli.main(["parse", "--model", str(tmp_path / "m.ckpt"), "--input",
                         str(tmp_path / "in.jsonl"), "--output", str(tmp_path / "out.jsonl"),
                         "--beam", "2"]) == 0
        assert recording and not any(recording)


class TestExpandRows:
    @pytest.mark.parametrize("dims", ["tiny", "criterion-08"])
    def test_rows_bit_equal_to_each_expansion_alone(self, dims):
        """Rows of three sentences after two steps, each with several
        targets: every row of one ``expand`` call equals ``expand`` on that
        row alone and ``feed_target`` + ``point_source`` +
        ``relation_dist_all``, bit for bit.  Each step's state, also taken
        out of order and with one row twice, gives ``predict_target`` rows
        bit-equal to each sentence's row alone against its own encode."""
        model = build_tiny_model(seed=914, **(SMALL_DIMS if dims == "criterion-08" else {}))
        dec, eos_id = model.decoder, model.vocabs.dec_word.id(EOS_LABEL)
        rng = np.random.default_rng(15)
        inputs = [make_inputs(rng, 4) for _ in range(3)]
        enc = model.encoder.encode(inputs)
        alone_encs = [model.encoder.encode([inp]) for inp in inputs]
        state = dec.initial_state(enc)
        rel_ins = [BOS_INPUT] * 3
        for step in range(3):
            outs, fed = dec.predict_target(state, rel_ins)
            order = [2, 0, 2, 1]
            mixed, mixed_fed = dec.predict_target(state.take(order),
                                                  [rel_ins[s] for s in order])
            for b, s in enumerate(order):
                alone, alone_fed = dec.predict_target(
                    replace(state.take([s]), rows=(0,),
                            constants=dec.initial_state(alone_encs[s]).constants),
                    [rel_ins[s]])
                got = output_row(mixed, b)
                for other in (output_row(alone, 0), output_row(outs, s)):
                    assert_bits(got.p_target.data, other.p_target.data)
                    assert_bits(got.switch.data, other.switch.data)
                for new, r in ((alone_fed, 0), (fed, s)):
                    for name in ("z_keys", "end_rows", "rel_src_rows"):
                        assert_bits(getattr(mixed_fed, name).data[b],
                                    getattr(new, name).data[r])
                assert mixed_fed.rows[b] == fed.rows[s] == s
            parents, records = [], []
            for b in range(3):
                out = output_row(outs, b)
                for slot in _top_k(out.p_target.data, 4):
                    if slot != eos_id:
                        parents.append(b)
                        records.append(_slot_info(model, outs, inputs[b].tokens,
                                                  inputs[b].pos, int(slot), b))
            exp = dec.expand(fed, parents, records)
            for e, (b, record) in enumerate(zip(parents, records)):
                alone = dec.expand(fed.take([b]), [0], [record])
                one = dec.feed_target(fed.take([b]), record)
                assert_bits(exp.p_source[e], alone.p_source[0])
                assert_bits(exp.p_relation[e], alone.p_relation[0])
                assert_bits(exp.p_source[e], dec.point_source(one).data)
                assert_bits(exp.p_relation[e], dec.relation_dist_all(one))
                for (h, c), (h1, c1) in zip(exp.state([e]).lstm, one.lstm):
                    assert_bits(h.data, h1.data)
                    assert_bits(c.data, c1.data)
            # each sentence goes on from its first expansion, through ROOT
            # and then the first node
            state = exp.state([parents.index(b) for b in range(3)])
            rel_ins = [RelationInput(*_source_of(state.nodes[b], min(step, 1)),
                                     state.node_pos(b, min(step, 1)), model.vocabs.rel.token(0))
                       for b in range(3)]

    def test_an_expansion_selected_twice_gives_two_rows_equal_to_it_alone(self):
        """``Expansions.state([e, e])``: both rows are bit-equal to feeding
        that expansion alone, and so are the next step's rows."""
        model = build_tiny_model(seed=915)
        dec, eos_id = model.decoder, model.vocabs.dec_word.id(EOS_LABEL)
        inp = make_inputs(np.random.default_rng(17), 4)
        enc = model.encoder.encode([inp])
        outs, state = dec.predict_target(dec.initial_state(enc), [BOS_INPUT])
        slots = [int(s) for s in _top_k(outs.p_target.data[0], 4) if s != eos_id]
        records = [_slot_info(model, outs, inp.tokens, inp.pos, slot, 0) for slot in slots]
        exp = dec.expand(state, [0] * len(records), records)
        e = len(records) - 1
        twice, one = exp.state([e, e]), dec.feed_target(state, records[e])
        rel_in = RelationInput(ROOT_LABEL, ROOT_INDEX, UNK_LABEL, model.vocabs.rel.token(0))
        out2, next2 = dec.predict_target(twice, [rel_in] * 2)
        out1, next1 = dec.predict_target(one, [rel_in])
        for b in range(2):
            assert twice.nodes[b] == one.nodes[0] and twice.rows[b] == 0
            for (h, c), (h1, c1) in zip(twice.lstm, one.lstm):
                assert_bits(h.data[b], h1.data[0])
                assert_bits(c.data[b], c1.data[0])
            assert_bits(twice.h.data[b], one.h.data[0])
            assert_bits(out2.p_target.data[b], out1.p_target.data[0])
            for name in ("z_keys", "end_rows", "rel_src_rows"):
                assert_bits(getattr(next2, name).data[b], getattr(next1, name).data[0])

    def test_initial_state_refuses_sentences_of_unequal_length(self):
        model = build_tiny_model(seed=914)
        rng = np.random.default_rng(16)
        enc = model.encoder.encode([make_inputs(rng, 3), make_inputs(rng, 4)])
        with pytest.raises(ValueError, match="unequal length"):
            model.decoder.initial_state(enc)


class TestDecodeConstants:
    def test_encoder_keys_projected_once_per_sentence(self, monkeypatch):
        """A decode projects its encoder keys once, one matrix per sentence
        in one stacked product, however many steps it runs."""
        model = build_tiny_model(seed=916)
        model.decoder.ffn_vocab.b.data[model.vocabs.dec_word.id(EOS_LABEL)] = -1e9
        attn, scorer = model.decoder.attn_mlp, type(model.decoder.attn_mlp)
        projected, real = [], scorer.project_keys

        def counted(self, keys, *args, **kwargs):
            if self is attn:
                projected.append(keys.shape[:-2])
            return real(self, keys, *args, **kwargs)

        monkeypatch.setattr(scorer, "project_keys", counted)
        rng = np.random.default_rng(18)
        inputs = [make_inputs(rng, 3) for _ in range(3)]
        for beam, max_len in ((1, 1), (1, 12), (3, 12)):
            projected.clear()
            results = decode_batch(model, inputs, beam, [max_len] * 3)
            assert [r.steps for r in results] == [max_len] * 3
            assert projected == [(3,)]

    def test_each_relation_state_key_projected_once(self, monkeypatch):
        """A decode projects each relation state's decoder-copy key once, as
        it joins the history, not the whole history every step."""
        model = build_tiny_model(seed=916)
        model.decoder.ffn_vocab.b.data[model.vocabs.dec_word.id(EOS_LABEL)] = -1e9
        dec_attn, scorer = model.decoder.dec_attn_mlp, type(model.decoder.dec_attn_mlp)
        projected, real = [], scorer.project_keys

        def counted(self, keys, *args, **kwargs):
            if self is dec_attn:
                projected.append(int(np.prod(keys.shape[:-1])))
            return real(self, keys, *args, **kwargs)

        monkeypatch.setattr(scorer, "project_keys", counted)
        result = greedy_decode(model, make_inputs(np.random.default_rng(18), 3), max_len=12)
        assert result.steps == 12
        assert sum(projected) == 11

    def test_decode_after_weights_change_equals_a_model_built_with_them(self):
        """Every weight changed in place, as ``adam_step`` changes it, between
        two decodes: the second equals, bit for bit, the decode of a model
        that had those weights before its first decode."""
        model, fresh = build_tiny_model(seed=917), build_tiny_model(seed=917)
        rng = np.random.default_rng(19)
        inputs = [make_inputs(rng, 4), make_inputs(rng, 4)]

        def decodes(m):
            return [*decode_batch(m, inputs, 3, [8, 8]), greedy_decode(m, inputs[0], max_len=8)]

        before = decodes(model)
        params = model.parameters()
        for p in params.values():
            p.data -= 0.05 * rng.standard_normal(p.shape)
        for name, p in fresh.parameters().items():
            p.data = params[name].data.copy()
        after = decodes(model)
        for got, want in zip(after, decodes(fresh)):
            assert_same_decode(got, want)
        assert [r.score for r in after] != [r.score for r in before]
