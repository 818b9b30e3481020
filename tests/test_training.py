import json
from pathlib import Path

import numpy as np
import pytest

from arbor import autodiff as ad
from arbor.autodiff import Tape, Tensor
from arbor.decoder import BOS_INPUT, RelationInput
from arbor.encoder import EncoderInput
from arbor.graph import Relation, RelationSequence
from arbor.linearize import OrderingPolicy, resolve_source
from arbor.training import (
    AdamState,
    TrainConfig,
    adam_step,
    clip_global_norm,
    make_reference,
    relation_f1,
    sequence_loss,
    smoothed_targets,
    train,
)

from conftest import build_tiny_model, make_inputs, random_arborescence


class TestSmoothing:
    def test_four_class_vector(self):
        q = smoothed_targets(4, 0, 0.1)
        assert q.tolist() == [0.925, 0.025, 0.025, 0.025]

    def test_sums_to_one_exactly(self):
        for k in (2, 3, 4, 7, 11):
            for eps in (0.0, 0.1, 0.3):
                q = smoothed_targets(k, k // 2, eps)
                assert q.sum() == pytest.approx(1.0, abs=1e-15)

    def test_zero_eps_is_onehot(self):
        assert smoothed_targets(3, 1, 0.0).tolist() == [0.0, 1.0, 0.0]


class TestAdam:
    def test_zero_gradient_keeps_parameters(self):
        p = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        p.grad = np.zeros(2)
        before = p.data.copy()
        adam_step({"p": p}, AdamState(), lr=0.1)
        assert np.array_equal(p.data, before)

    def test_single_step_hand_computed(self):
        # constant gradient 1: first update is -lr regardless of moments
        p = Tensor(np.array(0.5), requires_grad=True)
        p.grad = np.array(1.0)
        adam_step({"p": p}, AdamState(), lr=0.001)
        m_hat, v_hat = 1.0, 1.0  # bias-corrected first moments
        expected = 0.5 - 0.001 * m_hat / (np.sqrt(v_hat) + 1e-8)
        assert p.data == pytest.approx(expected, abs=1e-12)
        assert p.data == pytest.approx(0.499, abs=1e-6)

    def test_two_steps_hand_computed(self):
        p = Tensor(np.array(0.0), requires_grad=True)
        state = AdamState()
        b1, b2, eps = 0.9, 0.999, 1e-8
        m = v = 0.0
        x = 0.0
        for t in (1, 2):
            g = 2.0 if t == 1 else -1.0
            p.grad = np.array(g)
            adam_step({"p": p}, state, lr=0.01, beta1=b1, beta2=b2, eps=eps)
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            x -= 0.01 * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
        assert p.data == pytest.approx(x, abs=1e-12)

    def test_nan_gradient_aborts(self):
        p = Tensor(np.array(1.0), requires_grad=True)
        p.grad = np.array(np.nan)
        with pytest.raises(FloatingPointError):
            adam_step({"p": p}, AdamState(), lr=0.1)


class TestClip:
    def test_norm_ten_scaled_by_half(self):
        p1 = Tensor(np.zeros(2), requires_grad=True)
        p2 = Tensor(np.zeros(2), requires_grad=True)
        p1.grad = np.array([6.0, 0.0])
        p2.grad = np.array([0.0, 8.0])
        scale = clip_global_norm({"a": p1, "b": p2}, 5.0)
        assert scale == pytest.approx(0.5)
        total = np.sqrt((p1.grad**2).sum() + (p2.grad**2).sum())
        assert total == pytest.approx(5.0)

    def test_below_threshold_untouched(self):
        p = Tensor(np.zeros(2), requires_grad=True)
        p.grad = np.array([3.0, 0.0])
        assert clip_global_norm({"p": p}, 5.0) == 1.0
        assert np.array_equal(p.grad, [3.0, 0.0])


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(label_smoothing=1.0)
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)


def tiny_reference(tokens=("Pierre", "expressed")):
    relations = (
        Relation("@root@", 0, "root", "say-01", 1),
        Relation("say-01", 1, "ARG0", "person", 2),
    )
    return RelationSequence(relations, eos=True)


class TestSequenceLoss:
    def test_breakdown_totals_and_nonnegativity(self):
        model = build_tiny_model(seed=3)
        inp = make_inputs(np.random.default_rng(0), 3)
        ref = tiny_reference()
        loss = sequence_loss(model, inp, ref, train=False)
        v = loss.values()
        assert v["total"] == pytest.approx(
            v["nll_source"] + v["nll_relation"] + v["nll_target"] + v["coverage_penalty"]
        )
        for key in ("nll_source", "nll_relation", "nll_target", "coverage_penalty"):
            assert v[key] >= 0

    def test_coverage_weight_scales_total(self):
        model = build_tiny_model(seed=3)
        inp = make_inputs(np.random.default_rng(0), 3)
        ref = tiny_reference()
        a = sequence_loss(model, inp, ref, coverage_weight=0.0, train=False).values()
        b = sequence_loss(model, inp, ref, coverage_weight=2.0, train=False).values()
        assert b["total"] == pytest.approx(a["total"] + 2.0 * a["coverage_penalty"])

    def test_first_step_coverage_is_zero_exactly(self):
        model = build_tiny_model(seed=4)
        inp = make_inputs(np.random.default_rng(1), 3)
        ref = RelationSequence((Relation("@root@", 0, "root", "person", 1),), eos=False)
        dec = model.decoder
        enc = model.encoder.encode(inp)
        state = dec.initial_state(enc)
        out, _ = dec.predict_target(enc, state, BOS_INPUT)
        assert float(out.covloss.data) == 0.0

    def test_loss_equals_direct_probability_product(self):
        # eps = 0, coverage weight 0: loss must be -log of the stepwise
        # probability product, computed here independently step by step
        model = build_tiny_model(seed=5)
        inp = EncoderInput(tokens=["zq1", "zq2"], pos=["NN", "NN"])  # no label collisions
        ref = tiny_reference()
        loss = sequence_loss(model, inp, ref, label_smoothing=0.0,
                             coverage_weight=0.0, train=False)

        dec = model.decoder
        enc = model.encoder.encode(inp)
        state = dec.initial_state(enc)
        rel_in = BOS_INPUT
        logp = 0.0
        for i, rel in enumerate(ref.relations):
            out, state = dec.predict_target(enc, state, rel_in)
            logp += np.log(out.p_target.data[dec.word_vocab.id(rel.target)])
            record = dec.reference_record(state, rel.target, rel.target_index,
                                          inp.tokens, inp.pos)
            state = dec.feed_target(state, record)
            pos = resolve_source(ref.relations[:i], rel.source, rel.source_index)
            logp += np.log(dec.point_source(state).data[pos])
            logp += np.log(dec.relation_dist(state, pos).data[dec.rel_vocab.id(rel.rel)])
            rel_in = RelationInput(rel.source, rel.source_index,
                                   state.node_pos(pos), rel.rel)
        out, _ = dec.predict_target(enc, state, rel_in)
        logp += np.log(out.p_target.data[dec.word_vocab.id("@end@")])
        assert float(loss.total.data) == pytest.approx(-logp, abs=1e-10)

    def test_full_model_gradient_check(self):
        model = build_tiny_model(seed=6)
        inp = EncoderInput(tokens=["Pierre", "expressed"], pos=["NNP", "VBD"])
        relations = (
            Relation("@root@", 0, "root", "say-01", 1),
            Relation("say-01", 1, "ARG0", "Pierre", 2),
            Relation("say-01", 1, "ARG1", "thing", 3),
        )
        ref = RelationSequence(relations, eos=True)

        def build():
            return sequence_loss(model, inp, ref, train=False).total

        # h sits where central differences are no longer dominated by
        # float64 cancellation noise on small-gradient coordinates
        report = ad.grad_check(build, list(model.parameters().items()),
                               rng=np.random.default_rng(0), total_coords=250, h=5e-4)
        assert report.checked >= 200
        assert report.passed, report.worst


class TestMakeReference:
    def test_delegates_and_flags_eos(self):
        rng = np.random.default_rng(2)
        arbor = random_arborescence(rng)
        inp = make_inputs(rng, 3)
        ref = make_reference(inp, arbor, OrderingPolicy.SOURCE)
        assert ref.eos
        assert len(ref.relations) == arbor.size()
        emitted = {("@root@", 0)}
        for rel in ref.relations:
            assert (rel.source, rel.source_index) in emitted
            emitted.add((rel.target, rel.target_index))


class TestRelationF1:
    def test_identical_sequences(self):
        ref = tiny_reference()
        rep = relation_f1([ref], [ref])
        assert rep.f1 == 1.0 and rep.matched == 2

    def test_partial_overlap(self):
        gold = tiny_reference()
        pred = RelationSequence((gold.relations[0],))
        rep = relation_f1([gold], [pred])
        assert rep.precision == 1.0
        assert rep.recall == 0.5

    def test_empty_prediction(self):
        rep = relation_f1([tiny_reference()], [RelationSequence(())])
        assert rep.f1 == 0.0


class TestTrainLoop:
    def _pairs(self, model, n=4):
        rng = np.random.default_rng(7)
        pairs = []
        for k in range(n):
            inp = EncoderInput(tokens=["Pierre", "expressed"], pos=["NNP", "VBD"])
            relations = (
                Relation("@root@", 0, "root", "say-01", 1),
                Relation("say-01", 1, "ARG0", "Pierre", 2),
            )
            pairs.append((inp, RelationSequence(relations, eos=True)))
        return pairs

    def test_patience_zero_runs_exactly_one_epoch(self, tmp_path):
        model = build_tiny_model(seed=8)
        pairs = self._pairs(model)
        cfg = TrainConfig(batch_size=2, max_epochs=50, patience=0, seed=1)
        result = train(model, pairs, pairs, cfg)
        assert result.epochs_run == 1

    def test_fixed_seed_reproduces_loss_trajectory(self, tmp_path):
        losses = []
        for _ in range(2):
            model = build_tiny_model(seed=9)
            pairs = self._pairs(model)
            cfg = TrainConfig(batch_size=2, max_epochs=3, patience=10, seed=5)
            log = tmp_path / f"m{_}.jsonl"
            train(model, pairs, pairs, cfg, log_path=log)
            entries = [json.loads(l) for l in Path(log).read_text().splitlines()]
            losses.append([e["train_loss"] for e in entries])
        assert losses[0] == losses[1]  # bitwise identical

    def test_metrics_log_schema(self, tmp_path):
        model = build_tiny_model(seed=10)
        pairs = self._pairs(model)
        cfg = TrainConfig(batch_size=4, max_epochs=2, patience=10, seed=2)
        log = tmp_path / "metrics.jsonl"
        train(model, pairs, pairs, cfg, log_path=log)
        entries = [json.loads(l) for l in Path(log).read_text().splitlines()]
        assert len(entries) == 2
        assert set(entries[0]) == {
            "epoch", "train_loss", "dev_f1", "lr", "seconds",
            "nll_u", "nll_r", "nll_v", "coverage",
            "grad_norm_mean", "grad_norm_max", "clipped_batches", "tape_records_per_batch",
        }

    @pytest.mark.parametrize("max_grad_norm,clipped", [(1e-3, 2), (1e9, 0)])
    def test_epoch_telemetry(self, tmp_path, max_grad_norm, clipped):
        model = build_tiny_model(seed=13)
        pairs = self._pairs(model)
        cfg = TrainConfig(batch_size=2, max_epochs=2, patience=10, seed=4,
                          coverage_weight=0.5, max_grad_norm=max_grad_norm)
        log = tmp_path / "metrics.jsonl"
        result = train(model, pairs, pairs, cfg, log_path=log)
        logged = [json.loads(l) for l in Path(log).read_text().splitlines()]
        assert [e["nll_v"] for e in logged] == [e["nll_v"] for e in result.history]
        for e in result.history:
            for key in ("nll_u", "nll_r", "nll_v", "coverage", "grad_norm_mean",
                        "grad_norm_max", "tape_records_per_batch"):
                assert np.isfinite(e[key]), key
            recombined = e["nll_u"] + e["nll_r"] + e["nll_v"] + 0.5 * e["coverage"]
            assert abs(recombined - e["train_loss"]) <= 1e-9
            assert e["grad_norm_max"] >= e["grad_norm_mean"] > 0.0
            assert e["clipped_batches"] == clipped  # 4 examples in batches of 2
            assert e["tape_records_per_batch"] > 0

    def test_empty_corpus_rejected(self):
        model = build_tiny_model(seed=11)
        with pytest.raises(ValueError, match="empty"):
            train(model, [], [], TrainConfig())

    def test_single_example_loss_decreases(self):
        model = build_tiny_model(seed=12)
        pairs = self._pairs(model, n=1)
        cfg = TrainConfig(batch_size=1, max_epochs=80, patience=80,
                          label_smoothing=0.0, coverage_weight=0.0, seed=3)
        result = train(model, pairs, pairs, cfg)
        first = result.history[0]["train_loss"]
        last = result.history[-1]["train_loss"]
        assert last < first * 0.5
