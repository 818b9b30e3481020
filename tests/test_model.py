import json
import tracemalloc

import numpy as np
import pytest

from arbor import autodiff as ad
from arbor import formats
from arbor.decoder import (
    BOS_INPUT, NodeRecord, ORIGIN_DEC, ORIGIN_ENC, ORIGIN_VOCAB, RelationInput, reference_node,
)
from arbor.encoder import EncoderInput
from arbor.formats import CheckpointError
from arbor.graph import EOS_LABEL, ROOT_INDEX, ROOT_LABEL, UNK_LABEL
from arbor.model import ModelConfig, TransducerModel, Vocabularies, build_vocabularies

from conftest import (build_tiny_model, check_op, composed_lstm_cell, dropout, encode_one,
                      gold_support, make_inputs, output_row, predict_one, reference_feed,
                      reference_predict_target, relation_dist, repeat_rows, switch_values,
                      tanh)


@pytest.fixture(scope="module")
def model():
    return build_tiny_model(seed=1)


def drive_steps(model, inp, labels, rng_seed=0):
    """Feed a fixed label sequence; returns collected step outputs."""
    dec = model.decoder
    enc = model.encoder.encode([inp])
    state = dec.initial_state(enc)
    rel_in = BOS_INPUT
    outs = []
    for i, label in enumerate(labels):
        out, state = predict_one(dec, state, rel_in)
        outs.append(out)
        record = reference_node(state.nodes[0], label, i + 1, inp.tokens, inp.pos)
        state = dec.feed_target(state, record)
        pu = dec.point_source(state)
        pr = relation_dist(dec, state, 0)
        outs[-1] = (out, pu, pr)
        rel_in = RelationInput(label, i + 1, UNK_LABEL, "root")
    return outs, state


SMALL_DIMS = dict(  # the criterion-08 and benchmark dimensions
    word_dim=32, char_emb_dim=8, char_channels=16, pos_dim=8, index_dim=8, rel_dim=16,
    encoder_hidden=64, relation_hidden=128, attn_hidden=32, biaffine_size=32,
    bilinear_size=32, dropout=0.2,
)


def amax(x, axis=0):
    """Max-reduce a tensor along an axis; the gradient flows to the first
    maximum.  The reference for ``autodiff.affine_max`` and the character
    CNN."""
    idx = np.expand_dims(x.data.argmax(axis=axis), axis)
    out = x.data.max(axis=axis)

    def fn(g):
        full = np.zeros_like(x.data)
        np.put_along_axis(full, idx, np.expand_dims(g, axis), axis)
        return full

    return ad._apply(out, [(x, fn)])


def reference_chars(cnn, char_ids):
    """One word's character features by its own lookup, affine and max."""
    windows = ad.reshape(cnn.emb(cnn._window_ids(char_ids)),
                         (max(len(char_ids), 1), cnn.kernel * cnn.char_dim))
    return amax(ad.affine(windows, cnn.w, cnn.b), axis=0)


def reference_encode(encoder, inp, train=False, rng=None):
    """``Encoder.encode``'s states and init as computed with per-token
    character features and one ``composed_lstm_cell`` per token, layer and
    direction, over the tokens as vectors."""
    assert not encoder.feature_vocabs
    embedded = dropout(ad.concat([
        encoder.word_emb([encoder.word_vocab.id(w) for w in inp.tokens]),
        ad.stack_rows([reference_chars(encoder.char_cnn, encoder.char_ids(w))
                       for w in inp.tokens]),
        encoder.pos_emb([encoder.pos_vocab.id(p) for p in inp.pos]),
    ], axis=1), encoder.config.dropout, train, rng)
    xs = [ad.reshape(ad.narrow(embedded, 0, k, k + 1), (embedded.shape[1],))
          for k in range(len(inp.tokens))]
    bilstm, h, init = encoder.bilstm, encoder.config.encoder_hidden, []
    for k in range(bilstm.layers):
        fwd, bwd = bilstm.fwd[k], bilstm.bwd[k]
        f_states, state = [], fwd.zero_state()
        for x in xs:
            state = composed_lstm_cell(x, *state, fwd.w_ih, fwd.w_hh, fwd.b)
            f_states.append(state[0])
        b_states, state = [], bwd.zero_state()
        for x in reversed(xs):
            state = composed_lstm_cell(x, *state, bwd.w_ih, bwd.w_hh, bwd.b)
            b_states.append(state[0])
        b_states.reverse()
        xs = [ad.concat([f, b]) for f, b in zip(f_states, b_states)]
        init.append(ad.concat([ad.narrow(xs[0], 0, h, 2 * h), ad.narrow(xs[-1], 0, 0, h)]))
    return dropout(ad.stack_rows(xs), encoder.config.dropout, train, rng), init


def t(data):
    return ad.Tensor(np.asarray(data, dtype=float), requires_grad=True)


class TestAmax:
    def test_amax_and_repeat_rows(self):
        rng = np.random.default_rng(9)
        x = t(rng.standard_normal((4, 3)))
        v = t(rng.standard_normal(5))

        def build():
            pooled = amax(x, axis=0)  # (3,)
            tiled = repeat_rows(v, 3)  # (3, 5)
            return ad.add(ad.sum_all(pooled), ad.sum_all(tiled))

        check_op(build, [("x", x), ("v", v)], coords=27)

    def test_amax_over_a_middle_axis(self):
        x = t(np.random.default_rng(12).standard_normal((2, 4, 3)))
        assert np.array_equal(amax(x, axis=1).data, x.data.max(axis=1))
        check_op(lambda: ad.sum_all(tanh(amax(x, axis=1))), [("x", x)], coords=24)


class TestEncoder:
    def test_embedded_dim_is_sum_of_channels(self, model):
        cfg = model.config
        inp = make_inputs(np.random.default_rng(0), 3)
        embedded = model.encoder.embed_tokens([inp])
        assert embedded.shape == (1, 3, cfg.word_dim + cfg.char_channels + cfg.pos_dim)

    def test_encode_output_shapes(self, model):
        inp = make_inputs(np.random.default_rng(1), 4)
        enc = model.encoder.encode([inp])
        assert enc.states.shape == (1, 4, 2 * model.config.encoder_hidden)
        assert len(enc.init) == model.config.encoder_layers
        for vec in enc.init:
            assert vec.shape == (1, 2 * model.config.encoder_hidden)

    def test_single_token_shape(self, model):
        inp = EncoderInput(tokens=["Pierre"], pos=["NNP"])
        enc = model.encoder.encode([inp])
        assert enc.states.shape == (1, 1, 2 * model.config.encoder_hidden)

    def test_deterministic_without_dropout(self, model):
        inp = make_inputs(np.random.default_rng(2), 5)
        a = model.encoder.encode([inp]).states.data
        b = model.encoder.encode([inp]).states.data
        assert np.array_equal(a, b)

    def test_identical_tokens_identical_rows(self, model):
        inp = EncoderInput(tokens=["board", "board"], pos=["NN", "NN"])
        rows = model.encoder.embed_tokens([inp]).data[0]
        assert np.array_equal(rows[0], rows[1])

    def test_unseen_token_uses_unk_and_stays_finite(self, model):
        inp = EncoderInput(tokens=["zzzunseen"], pos=["NN"])
        enc = model.encoder.encode([inp])
        assert np.all(np.isfinite(enc.states.data))

    # "paper_chars": the paper-default character dimensions, where one
    # product over a long sentence's windows rounds unlike a word's own
    @pytest.mark.parametrize("dims", [{}, SMALL_DIMS, dict(char_emb_dim=32, char_channels=100)],
                             ids=["tiny", "small", "paper_chars"])
    def test_encode_bit_equal_to_cell_steps(self, dims):
        model = build_tiny_model(seed=4, **dims)
        rng = np.random.default_rng(5)
        for n in (1, 2, 5, 12, 50):
            inp = make_inputs(rng, n)
            # a one-character word is a one-row product, which rounds unlike
            # a row of a larger one
            inp.tokens[n // 2] = "."
            for train in (False, True):
                seed = int(rng.integers(1 << 30))
                enc = encode_one(model.encoder, inp, train, np.random.default_rng(seed))
                states, init = reference_encode(model.encoder, inp, train,
                                                np.random.default_rng(seed))
                assert np.array_equal(enc.states.data[0], states.data)
                assert len(enc.init) == len(init)
                for got, want in zip(enc.init, init):
                    assert np.array_equal(got.data[0], want.data)

    def test_tape_records_do_not_grow_with_length(self, model):
        rng = np.random.default_rng(6)
        counts = []
        for n in (3, 12):
            with ad.Tape() as tape:
                model.encoder.encode([make_inputs(rng, n)])
            counts.append(len(tape.records))
        assert counts[0] == counts[1] > 0

    def test_empty_sentence_rejected(self, model):
        with pytest.raises(ValueError, match="empty"):
            model.encoder.encode([EncoderInput(tokens=[], pos=[])])

    def test_feature_column_length_checked(self):
        with pytest.raises(ValueError, match="length"):
            EncoderInput(tokens=["a", "b"], pos=["x", "y"], features={"ner": ["O"]})


class TestDecoderStep:
    def test_distributions_sum_to_one(self, model):
        rng = np.random.default_rng(3)
        inp = make_inputs(rng, 4)
        outs, _ = drive_steps(model, inp, ["person", "city", "person"])
        for out, pu, pr in outs:
            assert abs(out.p_target.data.sum() - 1.0) < 1e-6
            assert abs(pu.data.sum() - 1.0) < 1e-6
            assert abs(pr.data.sum() - 1.0) < 1e-6
            assert abs(sum(switch_values(out)) - 1.0) < 1e-9

    def test_first_step_has_no_decoder_copy_mass(self, model):
        inp = make_inputs(np.random.default_rng(4), 3)
        enc = model.encoder.encode([inp])
        state = model.decoder.initial_state(enc)
        out, state = predict_one(model.decoder, state, BOS_INPUT)
        assert out.n_dec == 0 and out.a_dec is None
        assert switch_values(out)[2] == 0.0
        assert out.p_target.shape == (out.vocab_size + out.n_enc,)

    def test_second_step_still_excludes_first_node(self, model):
        # copy support is nodes 1..i-1: at step 2 it is still empty
        inp = make_inputs(np.random.default_rng(5), 3)
        outs, _ = drive_steps(model, inp, ["person", "city"])
        assert outs[1][0].n_dec == 0

    def test_third_step_can_copy_first_node(self, model):
        inp = make_inputs(np.random.default_rng(6), 3)
        outs, _ = drive_steps(model, inp, ["person", "city", "thing"])
        out = outs[2][0]
        assert out.n_dec == 1
        assert out.dec_records[0].label == "person"

    def test_pointer_over_root_only_at_first_step(self, model):
        inp = make_inputs(np.random.default_rng(7), 3)
        enc = model.encoder.encode([inp])
        dec = model.decoder
        state = dec.initial_state(enc)
        out, state = predict_one(dec, state, BOS_INPUT)
        state = dec.feed_target(state, NodeRecord("person", 1, UNK_LABEL, ORIGIN_VOCAB))
        pu = dec.point_source(state)
        assert pu.shape == (1,)
        assert pu.data[0] == pytest.approx(1.0)

    def test_zero_biaffine_gives_uniform_pointer(self, model):
        inp = make_inputs(np.random.default_rng(8), 3)
        dec = model.decoder
        saved = {n: p.data.copy() for n, p in dec.biaffine.parameters().items()}
        for p in dec.biaffine.parameters().values():
            p.data = np.zeros_like(p.data)
        try:
            _, state = drive_steps(model, inp, ["person", "city", "thing"])
            pu = dec.point_source(state).data
            assert pu[0] == 0.0  # ROOT masked once real candidates exist
            assert np.allclose(pu[1:], 1.0 / (len(pu) - 1))
        finally:
            for n, p in dec.biaffine.parameters().items():
                p.data = saved[n]

    def test_forced_generate_switch_matches_vocab_argmax(self, model):
        inp = make_inputs(np.random.default_rng(9), 3)
        dec = model.decoder
        saved = dec.ffn_switch.b.data.copy()
        dec.ffn_switch.b.data = np.array([50.0, -50.0, -50.0])
        try:
            enc = model.encoder.encode([inp])
            state = dec.initial_state(enc)
            out, _ = predict_one(dec, state, BOS_INPUT)
            assert int(np.argmax(out.p_target.data)) == int(np.argmax(out.p_vocab.data))
        finally:
            dec.ffn_switch.b.data = saved

    def test_relation_dist_with_single_type(self):
        model = build_tiny_model(seed=2, rel_labels=["root"])
        # relation vocabulary: pad, unk, root
        inp = make_inputs(np.random.default_rng(10), 2)
        _, state = drive_steps(model, inp, ["person"])
        pr = relation_dist(model.decoder, state, 0)
        assert pr.shape == (len(model.vocabs.rel),)
        assert abs(pr.data.sum() - 1.0) < 1e-9

    def test_relation_dist_all_rows_match_relation_dist(self, model):
        inp = make_inputs(np.random.default_rng(11), 4)
        dec = model.decoder
        enc = model.encoder.encode([inp])
        state = dec.initial_state(enc)
        rel_in = BOS_INPUT
        for i, label in enumerate(["person", "city", "person", "thing"]):
            _, state = predict_one(dec, state, rel_in)
            state = dec.feed_target(state, reference_node(state.nodes[0], label, i + 1,
                                                          inp.tokens, inp.pos))
            rows = dec.relation_dist_all(state)
            assert rows.shape == (len(state.nodes[0]), len(model.vocabs.rel))
            for j in range(rows.shape[0]):
                assert np.abs(rows[j] - relation_dist(dec, state, j).data).max() <= 1e-12
            rel_in = RelationInput(label, i + 1, UNK_LABEL, "root")


class TestPredictRows:
    """``predict_target`` over the rows of a state, and on one row alone,
    against the taped one-row reference (``reference_predict_target``), bit
    for bit."""

    @pytest.mark.parametrize("dims", [{}, SMALL_DIMS], ids=["tiny", "small"])
    def test_rows_bit_equal_to_single_state_reference(self, dims):
        model = build_tiny_model(seed=21, **dims)
        dec, vocabs = model.decoder, model.vocabs
        rng = np.random.default_rng(22)
        inp = make_inputs(rng, 5)
        enc = model.encoder.encode([inp])

        def random_rel_in(state, b):
            nodes = state.nodes[b]
            j = int(rng.integers(len(nodes) + 1))
            u = nodes[j - 1] if j else None
            return RelationInput(u.label if u else ROOT_LABEL, u.index if u else ROOT_INDEX,
                                 state.node_pos(b, j),
                                 vocabs.rel.token(int(rng.integers(len(vocabs.rel)))))

        def random_record(state, b):
            nodes = state.nodes[b]
            if nodes and rng.random() < 0.4:
                rec = nodes[int(rng.integers(len(nodes)))]
                return NodeRecord(rec.label, rec.index, rec.pos, ORIGIN_DEC, rec.anchors)
            t = int(rng.integers(len(inp.tokens)))
            if rng.random() < 0.5:
                return NodeRecord(inp.tokens[t], state.next_fresh_index(b), inp.pos[t],
                                  ORIGIN_ENC, (t,))
            return NodeRecord(vocabs.dec_word.token(int(rng.integers(2, len(vocabs.dec_word)))),
                              state.next_fresh_index(b), UNK_LABEL, ORIGIN_VOCAB)

        def walk(steps, rows):
            """Decode prefixes of ``steps`` relations as the rows of one
            state, each with its own random choices, node copies among
            them."""
            state = dec.initial_state(enc).take([0] * rows)
            rel_ins = [BOS_INPUT] * rows
            for _ in range(steps):
                _, state = dec.predict_target(state, rel_ins)
                state = dec.expand(state, range(rows), [random_record(state, b)
                                                        for b in range(rows)]).state(range(rows))
                rel_ins = [random_rel_in(state, b) for b in range(rows)]
            return state, rel_ins

        for steps, n_dec in ((0, 0), (1, 0), (2, 1), (4, 3)):
            for rows in (1, 2, 5):
                state, rel_ins = walk(steps, rows)
                out, fed = dec.predict_target(state, rel_ins)
                assert out.p_target.ndim == 2 and len(fed.rows) == rows and out.n_dec == n_dec
                assert fed.h is state.h and fed.lstm is state.lstm and fed.nodes == state.nodes
                for b, rel_in in enumerate(rel_ins):
                    alone = state.take([b])
                    ref, ref_new, _, _ = reference_predict_target(dec, enc, alone, rel_in)
                    one = predict_one(dec, alone, rel_in)
                    for got, new in ((output_row(out, b), fed.take([b])), one):
                        assert got.p_target.shape == ref.p_target.shape
                        assert np.array_equal(got.p_target.data, ref.p_target.data)
                        assert switch_values(got) == switch_values(ref)
                        assert got.n_dec == n_dec and got.dec_records == alone.nodes[0][:n_dec]
                        assert got.fresh_index == alone.next_fresh_index(0)
                        for name in ("z_keys", "end_rows", "rel_src_rows"):
                            assert np.array_equal(getattr(new, name).data,
                                                  getattr(ref_new, name).data), name
                        assert new.step == state.step + 1 and new.nodes == alone.nodes
                    assert one[1].h is alone.h and one[1].lstm is alone.lstm


class TestLabelMemo:
    """The (label, POS) memo of one decode never serves a stale row and is
    never read under a tape."""

    def test_decode_after_a_weight_change_equals_a_fresh_model(self):
        from arbor.inference import beam_decode

        model = build_tiny_model(seed=61)
        inp = make_inputs(np.random.default_rng(61), 4)
        before = beam_decode(model, inp, beam_size=3, max_len=6)
        rng = np.random.default_rng(62)
        for module in (model.decoder.word_emb, model.decoder.char_cnn):
            for t in module.parameters().values():
                t.data = t.data + rng.standard_normal(t.shape)
        after = beam_decode(model, inp, beam_size=3, max_len=6)
        fresh = build_tiny_model(seed=61)
        weights = model.parameters()
        for name, t in fresh.parameters().items():
            t.data = weights[name].data.copy()
        expected = beam_decode(fresh, inp, beam_size=3, max_len=6)
        assert after.score != before.score
        assert after.sequence.relations == expected.sequence.relations
        assert after.score == expected.score
        assert after.pool == expected.pool

    def test_every_lookup_under_a_tape_is_new_and_recorded(self, model):
        dec = model.decoder
        enc = model.encoder.encode([make_inputs(np.random.default_rng(63), 3)])
        memo = dec.initial_state(enc).constants.label_memo
        cached = dec.label_vec("person", "NN", memo)
        assert dec.label_vec("person", "NN", memo) is cached
        with ad.Tape() as tape:
            first = dec.label_vec("person", "NN", memo)
            per_lookup = len(tape.records)
            second = dec.label_vec("person", "NN", memo)
            assert per_lookup > 0 and len(tape.records) == 2 * per_lookup
        assert first is not cached and second is not first
        assert first.requires_grad and second.requires_grad
        assert np.array_equal(first.data, cached.data) and np.array_equal(second.data, cached.data)
        assert list(memo) == [("person", "NN")]


class TestIndexAndPos:
    def test_index_rule_fresh_and_copy(self, model):
        dec = model.decoder
        inp = make_inputs(np.random.default_rng(11), 3)
        enc = model.encoder.encode([inp])
        state = dec.initial_state(enc)
        out, state = predict_one(dec, state, BOS_INPUT)
        assert state.next_fresh_index(0) == 1
        state = dec.feed_target(state, NodeRecord("person", 1, "NN", ORIGIN_VOCAB))
        out, state = predict_one(dec, state, RelationInput("person", 1, "NN", "root"))
        assert state.next_fresh_index(0) == 2
        state = dec.feed_target(state, NodeRecord("city", 2, "NN", ORIGIN_VOCAB))
        # copying node 1 reuses its index
        assert state.nodes[0][0].index == 1
        assert state.next_fresh_index(0) == 3

    def test_reference_pos_rules(self, model):
        dec = model.decoder
        inp = EncoderInput(tokens=["Pierre", "expressed"], pos=["NNP", "VBD"])
        enc = model.encoder.encode([inp])
        state = dec.initial_state(enc)
        _, state = predict_one(dec, state, BOS_INPUT)
        # token copy: POS of the matching token
        rec = reference_node(state.nodes[0], "Pierre", 1, inp.tokens, inp.pos)
        assert rec.pos == "NNP" and rec.origin == ORIGIN_ENC
        state = dec.feed_target(state, rec)
        # node copy: same index as an earlier node -> that node's POS
        rec2 = reference_node(state.nodes[0], "Pierre", 1, inp.tokens, inp.pos)
        assert rec2.pos == "NNP" and rec2.origin == ORIGIN_DEC
        # generated: UNK tag
        rec3 = reference_node(state.nodes[0], "want", 7, inp.tokens, inp.pos)
        assert rec3.pos == UNK_LABEL and rec3.origin == ORIGIN_VOCAB

    def test_pos_propagates_through_node_copies(self, model):
        dec = model.decoder
        inp = EncoderInput(tokens=["Pierre"], pos=["NNP"])
        enc = model.encoder.encode([inp])
        state = dec.initial_state(enc)
        _, state = predict_one(dec, state, BOS_INPUT)
        state = dec.feed_target(
            state, NodeRecord("Pierre", 1, "NNP", ORIGIN_ENC, (0,)))
        _, state = predict_one(dec, state, RelationInput("Pierre", 1, "NNP", "root"))
        # copy of the copy still carries NNP
        rec = reference_node(state.nodes[0], "Pierre", 1, inp.tokens, inp.pos)
        assert rec.pos == "NNP"

    def test_index_overflow_clamps_to_bucket(self, model):
        cap = model.config.index_table_size
        assert model.decoder._index_id(cap + 100) == cap - 1
        assert model.decoder._index_id(3) == 3

    def test_gold_support_collects_all_productions(self, model):
        dec = model.decoder
        inp = EncoderInput(tokens=["person", "city", "person"], pos=["NN", "NN", "NN"])
        outs, _ = drive_steps(model, inp, ["person", "city", "thing"])
        out = outs[2][0]  # step with one copyable node ("person")
        support = gold_support(dec, out, "person", inp.tokens)
        v = out.vocab_size
        assert support[0] == dec.word_vocab.id("person")
        assert v + 0 in support and v + 2 in support  # both matching tokens
        assert v + out.n_enc + 0 in support  # the preceding node


class TestGradientFlow:
    def test_grads_reach_word_embedding_of_used_token(self, model):
        inp = EncoderInput(tokens=["Pierre", "board", "city"], pos=["NNP", "NN", "NN"])
        table = model.encoder.word_emb.table
        with ad.Tape() as tape:
            enc = model.encoder.encode([inp])
            loss = ad.sum_all(ad.narrow(enc.states, 1, 2, 3))
            tape.backward(loss)
        row = model.vocabs.enc_word.id("city")
        assert table.grad is not None
        assert np.abs(table.grad[row]).max() > 0
        model.zero_grads()

    def test_relation_grads_flow_to_both_states(self, model):
        inp = make_inputs(np.random.default_rng(13), 3)
        dec = model.decoder
        with ad.Tape() as tape:
            enc = model.encoder.encode([inp])
            state = dec.initial_state(enc)
            _, state, _, coverage = reference_predict_target(dec, enc, state, BOS_INPUT)
            state = reference_feed(dec, state, NodeRecord("person", 1, "NN", ORIGIN_VOCAB))
            _, state, _, _ = reference_predict_target(
                dec, enc, state, RelationInput("person", 1, "NN", "root"), coverage)
            state = reference_feed(dec, state, NodeRecord("city", 2, "NN", ORIGIN_VOCAB))
            pr = relation_dist(dec, state, 1)
            loss = ad.log(ad.element(pr, 2))
            tape.backward(loss)
        assert dec.mlp_rel_src.lin.w.grad is not None
        assert dec.mlp_rel_tgt.lin.w.grad is not None
        assert np.abs(dec.mlp_rel_src.lin.w.grad).max() > 0
        assert np.abs(dec.mlp_rel_tgt.lin.w.grad).max() > 0
        model.zero_grads()


class TestCheckpointRoundTrip:
    def test_save_load_identical_behaviour(self, model, tmp_path):
        path = tmp_path / "m.ckpt"
        model.save(path)
        loaded = TransducerModel.load(path)
        inp = make_inputs(np.random.default_rng(14), 3)
        a = model.encoder.encode([inp]).states.data.astype(np.float32)
        b = loaded.encoder.encode([inp]).states.data.astype(np.float32)
        assert np.allclose(a, b, atol=1e-5)
        # parameters survive bitwise at storage precision
        for name, p in model.parameters().items():
            assert np.array_equal(p.data.astype(np.float32),
                                  loaded.parameters()[name].data.astype(np.float32))

    def test_loads_checkpoint_with_removed_config_keys(self, model, tmp_path):
        """A checkpoint whose config still carries ``external_dim`` and
        ``char_kernel`` (both always 0 and 3) loads and decodes as before."""
        from arbor.inference import greedy_decode

        path = tmp_path / "m.ckpt"
        model.save(path)
        header, payload = path.read_bytes().split(b"\n", 1)
        header = json.loads(header)
        header["hyperparameters"]["config"].update(external_dim=0, char_kernel=3)
        old = tmp_path / "old.ckpt"
        old.write_bytes(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n" + payload)
        current, loaded = TransducerModel.load(path), TransducerModel.load(old)
        assert loaded.config == current.config
        for k in range(3):
            inp = make_inputs(np.random.default_rng(40 + k), 4)
            a, b = greedy_decode(current, inp, max_len=12), greedy_decode(loaded, inp, max_len=12)
            assert a.sequence == b.sequence and a.score == b.score

    def test_shared_tables_deduplicated(self, model):
        names = list(model.parameters())
        char_tables = [n for n in names if "char_cnn.emb.table" in n]
        pos_tables = [n for n in names if n.endswith("pos.table")]
        assert len(char_tables) == 1
        assert len(pos_tables) == 1

    def test_load_save_load_same_path_bit_equal(self, model, tmp_path):
        """A model loaded from a path, saved to that same path and loaded
        again has bit-equal parameters: the load holds nothing of the file."""
        path = tmp_path / "m.ckpt"
        model.save(path)
        first = TransducerModel.load(path)
        first.save(path)
        second = TransducerModel.load(path)
        for name, p in first.parameters().items():
            assert p.data.dtype == second.parameters()[name].data.dtype == np.float64
            assert np.array_equal(p.data, second.parameters()[name].data), name

    def test_load_memory_is_bounded(self, tmp_path):
        """The traced peak of a load, less the parameters it fills, stays
        below a fixed bound well under the payload: no copy of the payload
        and no drawn weights beside the model."""
        model = build_tiny_model(seed=2, encoder_hidden=160, relation_hidden=512, word_dim=64)
        path = tmp_path / "m.ckpt"
        model.save(path)
        payload = 4 * sum(p.data.size for p in model.parameters().values())
        assert payload > 8 * 4 * formats._BUFFER_VALUES
        del model
        tracemalloc.start()
        try:
            loaded = TransducerModel.load(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        excess = peak - sum(p.data.nbytes for p in loaded.parameters().values())
        assert excess < 2 * 2**20, (excess, payload)


def rewritten_checkpoint(path, edit):
    """A copy of the checkpoint at ``path``, written beside it, with
    ``edit(directory, payload) -> payload`` applied; ``edit`` may change the
    directory's entries in place."""
    header, payload = path.read_bytes().split(b"\n", 1)
    header = json.loads(header)
    payload = edit(header["tensors"], payload)
    out = path.with_name("edited.ckpt")
    out.write_bytes(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n" + payload)
    return out


def _drop_last(directory, payload):
    return payload[: directory.pop()["offset"]]


def _add_extra(directory, payload):
    directory.append({"name": "decoder.extra", "shape": [2], "offset": len(payload)})
    return payload + bytes(8)


def _transpose_first_matrix(directory, payload):
    entry = next(e for e in directory if len(e["shape"]) == 2 and len(set(e["shape"])) == 2)
    entry["shape"].reverse()
    return payload


def _duplicate_name(directory, payload):
    directory[1]["name"] = directory[0]["name"]
    return payload


def _cut_largest_in_half(directory, payload):
    entry = max(directory, key=lambda e: int(np.prod(e["shape"])))
    return payload[: entry["offset"] + 2 * int(np.prod(entry["shape"]))]


class TestLoadRejects:
    """``TransducerModel.load`` allocates the weights without drawing them,
    so each of these must fail before a model is returned."""

    @pytest.mark.parametrize("edit, message", [
        (_drop_last, "tensor mismatch: missing=\\[.decoder\\.[^]]+\\] extra=\\[\\]"),
        (_add_extra, "tensor mismatch: missing=\\[\\] extra=\\['decoder.extra'\\]"),
        (_transpose_first_matrix, "shape"),
        (_duplicate_name, "duplicate tensor"),
        (lambda directory, payload: payload + bytes(4), "payload length .* does not match"),
        (_cut_largest_in_half, "payload length .* does not match"),
    ])
    def test_rejected(self, model, tmp_path, edit, message):
        path = tmp_path / "m.ckpt"
        model.save(path)
        bad = rewritten_checkpoint(path, edit)
        with pytest.raises(CheckpointError, match=message):
            TransducerModel.load(bad)

    @pytest.mark.parametrize("edit, message", [
        (lambda h, v: h.pop("config"), "KeyError\\('config'\\)"),
        (lambda h, v: v.pop("vocabs"), "KeyError\\('vocabs'\\)"),
        (lambda h, v: h.update(config=[1]), "bad checkpoint model description"),
    ])
    def test_bad_model_description(self, model, tmp_path, edit, message):
        path = tmp_path / "m.ckpt"
        model.save(path)
        header, payload = path.read_bytes().split(b"\n", 1)
        header = json.loads(header)
        edit(header["hyperparameters"], header["vocabularies"])
        path.write_bytes(json.dumps(header).encode("utf-8") + b"\n" + payload)
        with pytest.raises(CheckpointError, match=message):
            TransducerModel.load(path)
