import json

import numpy as np
import pytest

from arbor import autodiff as ad
from arbor.decoder import (
    BOS_INPUT, NodeRecord, ORIGIN_DEC, ORIGIN_ENC, ORIGIN_VOCAB, RelationInput, reference_node,
)
from arbor.encoder import EncoderInput
from arbor.graph import EOS_LABEL, UNK_LABEL
from arbor.model import ModelConfig, TransducerModel, Vocabularies, build_vocabularies

from conftest import build_tiny_model, make_inputs


@pytest.fixture(scope="module")
def model():
    return build_tiny_model(seed=1)


def drive_steps(model, inp, labels, rng_seed=0):
    """Feed a fixed label sequence; returns collected step outputs."""
    dec = model.decoder
    enc = model.encoder.encode(inp)
    state = dec.initial_state(enc)
    rel_in = BOS_INPUT
    outs = []
    for i, label in enumerate(labels):
        out, state = dec.predict_target(enc, state, rel_in)
        outs.append(out)
        record = reference_node(state.nodes, label, i + 1, inp.tokens, inp.pos)
        state = dec.feed_target(state, record)
        pu = dec.point_source(state)
        pr = dec.relation_dist(state, 0)
        outs[-1] = (out, pu, pr)
        rel_in = RelationInput(label, i + 1, UNK_LABEL, "root")
    return outs, state


class TestEncoder:
    def test_embedded_dim_is_sum_of_channels(self, model):
        cfg = model.config
        inp = make_inputs(np.random.default_rng(0), 3)
        embedded = model.encoder.embed_tokens(inp)
        assert embedded.shape == (3, cfg.word_dim + cfg.char_channels + cfg.pos_dim)

    def test_encode_output_shapes(self, model):
        inp = make_inputs(np.random.default_rng(1), 4)
        enc = model.encoder.encode(inp)
        assert enc.states.shape == (4, 2 * model.config.encoder_hidden)
        assert len(enc.init) == model.config.encoder_layers
        for vec in enc.init:
            assert vec.shape == (2 * model.config.encoder_hidden,)

    def test_single_token_shape(self, model):
        inp = EncoderInput(tokens=["Pierre"], pos=["NNP"])
        enc = model.encoder.encode(inp)
        assert enc.states.shape == (1, 2 * model.config.encoder_hidden)

    def test_deterministic_without_dropout(self, model):
        inp = make_inputs(np.random.default_rng(2), 5)
        a = model.encoder.encode(inp).states.data
        b = model.encoder.encode(inp).states.data
        assert np.array_equal(a, b)

    def test_identical_tokens_identical_rows(self, model):
        inp = EncoderInput(tokens=["board", "board"], pos=["NN", "NN"])
        rows = model.encoder.embed_tokens(inp).data
        assert np.array_equal(rows[0], rows[1])

    def test_unseen_token_uses_unk_and_stays_finite(self, model):
        inp = EncoderInput(tokens=["zzzunseen"], pos=["NN"])
        enc = model.encoder.encode(inp)
        assert np.all(np.isfinite(enc.states.data))

    def test_empty_sentence_rejected(self, model):
        with pytest.raises(ValueError, match="empty"):
            model.encoder.encode(EncoderInput(tokens=[], pos=[]))

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
            assert abs(sum(out.switch_values()) - 1.0) < 1e-9

    def test_first_step_has_no_decoder_copy_mass(self, model):
        inp = make_inputs(np.random.default_rng(4), 3)
        enc = model.encoder.encode(inp)
        state = model.decoder.initial_state(enc)
        out, state = model.decoder.predict_target(enc, state, BOS_INPUT)
        assert out.n_dec == 0 and out.a_dec is None
        assert out.switch_values()[2] == 0.0
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
        enc = model.encoder.encode(inp)
        dec = model.decoder
        state = dec.initial_state(enc)
        out, state = dec.predict_target(enc, state, BOS_INPUT)
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
            enc = model.encoder.encode(inp)
            state = dec.initial_state(enc)
            out, _ = dec.predict_target(enc, state, BOS_INPUT)
            assert int(np.argmax(out.p_target.data)) == int(np.argmax(out.p_vocab.data))
        finally:
            dec.ffn_switch.b.data = saved

    def test_relation_dist_with_single_type(self):
        model = build_tiny_model(seed=2, rel_labels=["root"])
        # relation vocabulary: pad, unk, root
        inp = make_inputs(np.random.default_rng(10), 2)
        _, state = drive_steps(model, inp, ["person"])
        pr = model.decoder.relation_dist(state, 0)
        assert pr.shape == (len(model.vocabs.rel),)
        assert abs(pr.data.sum() - 1.0) < 1e-9

    def test_relation_dist_all_rows_match_relation_dist(self, model):
        inp = make_inputs(np.random.default_rng(11), 4)
        dec = model.decoder
        enc = model.encoder.encode(inp)
        state = dec.initial_state(enc)
        rel_in = BOS_INPUT
        for i, label in enumerate(["person", "city", "person", "thing"]):
            _, state = dec.predict_target(enc, state, rel_in)
            state = dec.feed_target(state, reference_node(state.nodes, label, i + 1,
                                                          inp.tokens, inp.pos))
            rows = dec.relation_dist_all(state)
            assert rows.shape == (len(state.nodes), len(model.vocabs.rel))
            for j in range(rows.shape[0]):
                assert np.abs(rows[j] - dec.relation_dist(state, j).data).max() <= 1e-12
            rel_in = RelationInput(label, i + 1, UNK_LABEL, "root")


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
        enc = model.encoder.encode(make_inputs(np.random.default_rng(63), 3))
        memo = dec.initial_state(enc).label_memo
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
        enc = model.encoder.encode(inp)
        state = dec.initial_state(enc)
        out, state = dec.predict_target(enc, state, BOS_INPUT)
        assert dec.next_index(state, ORIGIN_VOCAB, None) == 1
        state = dec.feed_target(state, NodeRecord("person", 1, "NN", ORIGIN_VOCAB))
        out, state = dec.predict_target(
            enc, state, RelationInput("person", 1, "NN", "root"))
        assert dec.next_index(state, ORIGIN_ENC, 0) == 2
        state = dec.feed_target(state, NodeRecord("city", 2, "NN", ORIGIN_VOCAB))
        # copying node 1 reuses its index
        assert dec.next_index(state, ORIGIN_DEC, 1) == 1
        assert dec.next_index(state, ORIGIN_VOCAB, None) == 3

    def test_reference_pos_rules(self, model):
        dec = model.decoder
        inp = EncoderInput(tokens=["Pierre", "expressed"], pos=["NNP", "VBD"])
        enc = model.encoder.encode(inp)
        state = dec.initial_state(enc)
        _, state = dec.predict_target(enc, state, BOS_INPUT)
        # token copy: POS of the matching token
        rec = reference_node(state.nodes, "Pierre", 1, inp.tokens, inp.pos)
        assert rec.pos == "NNP" and rec.origin == ORIGIN_ENC
        state = dec.feed_target(state, rec)
        # node copy: same index as an earlier node -> that node's POS
        rec2 = reference_node(state.nodes, "Pierre", 1, inp.tokens, inp.pos)
        assert rec2.pos == "NNP" and rec2.origin == ORIGIN_DEC
        # generated: UNK tag
        rec3 = reference_node(state.nodes, "want", 7, inp.tokens, inp.pos)
        assert rec3.pos == UNK_LABEL and rec3.origin == ORIGIN_VOCAB

    def test_pos_propagates_through_node_copies(self, model):
        dec = model.decoder
        inp = EncoderInput(tokens=["Pierre"], pos=["NNP"])
        enc = model.encoder.encode(inp)
        state = dec.initial_state(enc)
        _, state = dec.predict_target(enc, state, BOS_INPUT)
        state = dec.feed_target(
            state, NodeRecord("Pierre", 1, "NNP", ORIGIN_ENC, 0, (0,)))
        _, state = dec.predict_target(enc, state, RelationInput("Pierre", 1, "NNP", "root"))
        # copy of the copy still carries NNP
        rec = reference_node(state.nodes, "Pierre", 1, inp.tokens, inp.pos)
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
        support = dec.gold_support(out, "person", inp.tokens)
        v = out.vocab_size
        assert support[0] == dec.word_vocab.id("person")
        assert v + 0 in support and v + 2 in support  # both matching tokens
        assert v + out.n_enc + 0 in support  # the preceding node


class TestGradientFlow:
    def test_grads_reach_word_embedding_of_used_token(self, model):
        inp = EncoderInput(tokens=["Pierre", "board", "city"], pos=["NNP", "NN", "NN"])
        table = model.encoder.word_emb.table
        with ad.Tape() as tape:
            enc = model.encoder.encode(inp)
            loss = ad.sum_all(ad.narrow(enc.states, 0, 2, 3))
            tape.backward(loss)
        row = model.vocabs.enc_word.id("city")
        assert table.grad is not None
        assert np.abs(table.grad[row]).max() > 0
        model.zero_grads()

    def test_relation_grads_flow_to_both_states(self, model):
        inp = make_inputs(np.random.default_rng(13), 3)
        dec = model.decoder
        with ad.Tape() as tape:
            enc = model.encoder.encode(inp)
            state = dec.initial_state(enc)
            _, state = dec.predict_target(enc, state, BOS_INPUT)
            state = dec.feed_target(state, NodeRecord("person", 1, "NN", ORIGIN_VOCAB))
            _, state = dec.predict_target(enc, state,
                                          RelationInput("person", 1, "NN", "root"))
            state = dec.feed_target(state, NodeRecord("city", 2, "NN", ORIGIN_VOCAB))
            pr = dec.relation_dist(state, 1)
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
        a = model.encoder.encode(inp).states.data.astype(np.float32)
        b = loaded.encoder.encode(inp).states.data.astype(np.float32)
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
