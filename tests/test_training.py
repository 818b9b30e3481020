import json
import random
import sys
from pathlib import Path

import numpy as np
import pytest

from arbor import autodiff as ad
from arbor.autodiff import Tape, Tensor
from arbor.decoder import BOS_INPUT, RelationInput, reference_node
from arbor.encoder import EncoderInput
from arbor.graph import EOS_LABEL, Relation, RelationSequence
from arbor.linearize import OrderingPolicy, resolve_source
from arbor.model import ModelConfig, TransducerModel, build_vocabularies
from arbor.training import (
    AdamState,
    _batches,
    _teacher_forcing,
    LossBreakdown,
    TrainConfig,
    adam_step,
    clip_global_norm,
    make_reference,
    prepare_corpus,
    relation_f1,
    sequence_loss,
    smoothed_targets,
    train,
)

from conftest import (build_tiny_model, encode_one, gold_support, grad_check, make_inputs,
                      predict_one, random_arborescence, reference_feed, relation_dist,
                      repeat_rows, sentence_loss, synthetic_corpus)

ROOT = Path(__file__).resolve().parents[1]


def reference_sequence_loss(model, enc_input, reference, *, label_smoothing=0.1,
                            coverage_weight=1.0, train=True, rng=None) -> LossBreakdown:
    """The stepwise teacher-forced loss: per relation one ``predict_target``,
    a taped target LSTM step (``reference_feed``), source pointer and
    relation scorer step, as decoding runs them.  ``sequence_loss`` must
    equal it to rounding."""
    dec = model.decoder
    enc = encode_one(model.encoder, enc_input, train, rng)
    state = dec.initial_state(enc)
    rel_in = BOS_INPUT

    zero = ad.constant(np.zeros(()))
    nll_u, nll_r, nll_v, cov = zero, zero, zero, zero
    eps = label_smoothing

    def target_nll(out, gold_label, gold_index=None):
        support = gold_support(dec, out, gold_label, enc_input.tokens, gold_index)
        mass = ad.element(out.p_target, support[0])
        for slot in support[1:]:
            mass = ad.add(mass, ad.element(out.p_target, slot))
        nll = -ad.log(mass)
        if eps > 0.0:
            uniform = -ad.sum_all(ad.log_softmax(out.vocab_logits))
            nll = ad.add(ad.mul(nll, 1.0 - eps), ad.mul(uniform, eps / out.vocab_size))
        return nll

    def smoothed_ce(logits, gold):
        logp = ad.log_softmax(logits)
        if eps == 0.0:
            return -ad.element(logp, gold)
        return -ad.matmul(ad.constant(smoothed_targets(logits.shape[0], gold, eps)), logp)

    for i, rel in enumerate(reference.relations):
        out, state = predict_one(dec, enc, state, rel_in, train, rng)
        cov = ad.add(cov, out.covloss)
        nll_v = ad.add(nll_v, target_nll(out, rel.target, rel.target_index))
        record = reference_node(state.nodes, rel.target, rel.target_index, enc_input.tokens,
                                enc_input.pos, rel.target_anchors)
        state = reference_feed(dec, state, record, train, rng)
        gold_pos = resolve_source(reference.relations[:i], rel.source, rel.source_index)
        scores = dec.source_scores(state)
        if gold_pos == 0:  # first relation: ROOT is the sole candidate
            nll_u = ad.add(nll_u, -ad.element(ad.log_softmax(scores), 0))
        else:  # ROOT is masked out of the pointer support after step one
            masked = ad.narrow(scores, 0, 1, scores.shape[0])
            nll_u = ad.add(nll_u, -ad.element(ad.log_softmax(masked), gold_pos - 1))
        nll_r = ad.add(nll_r, smoothed_ce(dec.relation_scores(state, gold_pos),
                                          dec.rel_vocab.id(rel.rel)))
        rel_in = RelationInput(rel.source, rel.source_index, state.node_pos(gold_pos), rel.rel)

    if reference.eos:
        out, state = predict_one(dec, enc, state, rel_in, train, rng)
        cov = ad.add(cov, out.covloss)
        nll_v = ad.add(nll_v, target_nll(out, EOS_LABEL))

    total = ad.add(ad.add(nll_u, nll_r), ad.add(nll_v, ad.mul(cov, coverage_weight)))
    return LossBreakdown(nll_u, nll_r, nll_v, cov, total)


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

    def test_in_place_update_bit_equal_to_formula(self):
        def formula_step(params, m, v, t, lr, beta1, beta2, eps):
            """The allocating update the in-place one replaced."""
            bc1, bc2 = 1.0 - beta1 ** t, 1.0 - beta2 ** t
            for name, p in params.items():
                g = p.grad
                if g is None:
                    continue
                if name not in m:
                    m[name], v[name] = np.zeros_like(p.data), np.zeros_like(p.data)
                m[name] *= beta1
                m[name] += (1.0 - beta1) * g
                v[name] *= beta2
                v[name] += (1.0 - beta2) * g * g
                p.data -= lr * (m[name] / bc1) / (np.sqrt(v[name] / bc2) + eps)

        rng = np.random.default_rng(3)
        shapes = {"w": (7, 5), "b": (7,), "s": (), "late": (3, 4), "never": (9,)}
        ours = {k: Tensor(rng.standard_normal(s), requires_grad=True) for k, s in shapes.items()}
        ref = {k: Tensor(t.data.copy(), requires_grad=True) for k, t in ours.items()}
        state, m, v = AdamState(), {}, {}
        for t in range(1, 7):
            for name, shape in shapes.items():
                # "late" gets its first gradient at step 3, "never" none
                g = None if name == "never" or (name == "late" and t < 3) else \
                    rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 3)
                ours[name].grad = ref[name].grad = g
            adam_step(ours, state, lr=0.01, beta1=0.8, beta2=0.95, eps=1e-6)
            formula_step(ref, m, v, t, 0.01, 0.8, 0.95, 1e-6)
            assert state.m.keys() == m.keys() == state.v.keys()
            assert ("late" in m) == (t >= 3) and "never" not in m
            for name in shapes:
                assert np.array_equal(ours[name].data, ref[name].data)
            for name in m:
                assert np.array_equal(state.m[name], m[name])
                assert np.array_equal(state.v[name], v[name])
        # one shared buffer pair, as long as the largest parameter
        assert state.scratch.shape == (2, 35)

    def test_nan_gradient_aborts(self):
        p = Tensor(np.array(1.0), requires_grad=True)
        p.grad = np.array(np.nan)
        with pytest.raises(FloatingPointError):
            adam_step({"p": p}, AdamState(), lr=0.1)

    def test_nan_gradient_changes_no_state(self):
        # the non-finite gradient is on the second parameter: the first must
        # not be stepped, nor the step count and moments advanced
        first = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        second = Tensor(np.array([3.0]), requires_grad=True)
        params, state = {"first": first, "second": second}, AdamState()
        first.grad, second.grad = np.array([0.5, -1.0]), np.array([2.0])
        adam_step(params, state, lr=0.1)
        before = (first.data.copy(), second.data.copy(), state.t,
                  {k: v.copy() for k, v in state.m.items()},
                  {k: v.copy() for k, v in state.v.items()})
        first.grad, second.grad = np.array([0.25, 0.5]), np.array([np.nan])
        with pytest.raises(FloatingPointError, match="'second'"):
            adam_step(params, state, lr=0.1)
        assert np.array_equal(first.data, before[0]) and np.array_equal(second.data, before[1])
        assert state.t == before[2] == 1
        for got, want in ((state.m, before[3]), (state.v, before[4])):
            assert got.keys() == want.keys()
            assert all(np.array_equal(got[k], want[k]) for k in want)


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
        loss = sentence_loss(model, inp, ref, train=False)
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
        a = sentence_loss(model, inp, ref, coverage_weight=0.0, train=False).values()
        b = sentence_loss(model, inp, ref, coverage_weight=2.0, train=False).values()
        assert b["total"] == pytest.approx(a["total"] + 2.0 * a["coverage_penalty"])

    def test_first_step_coverage_is_zero_exactly(self):
        model = build_tiny_model(seed=4)
        inp = make_inputs(np.random.default_rng(1), 3)
        ref = RelationSequence((Relation("@root@", 0, "root", "person", 1),), eos=False)
        dec = model.decoder
        enc = model.encoder.encode(inp)
        state = dec.initial_state(enc)
        out, _ = predict_one(dec, enc, state, BOS_INPUT)
        assert float(out.covloss.data) == 0.0

    def test_loss_equals_direct_probability_product(self):
        # eps = 0, coverage weight 0: loss must be -log of the stepwise
        # probability product, computed here independently step by step
        model = build_tiny_model(seed=5)
        inp = EncoderInput(tokens=["zq1", "zq2"], pos=["NN", "NN"])  # no label collisions
        ref = tiny_reference()
        loss = sentence_loss(model, inp, ref, label_smoothing=0.0,
                             coverage_weight=0.0, train=False)

        dec = model.decoder
        enc = model.encoder.encode(inp)
        state = dec.initial_state(enc)
        rel_in = BOS_INPUT
        logp = 0.0
        for i, rel in enumerate(ref.relations):
            out, state = predict_one(dec, enc, state, rel_in)
            logp += np.log(out.p_target.data[dec.word_vocab.id(rel.target)])
            record = reference_node(state.nodes, rel.target, rel.target_index,
                                    inp.tokens, inp.pos)
            state = dec.feed_target(state, record)
            pos = resolve_source(ref.relations[:i], rel.source, rel.source_index)
            logp += np.log(dec.point_source(state).data[pos])
            logp += np.log(relation_dist(dec, state, pos).data[dec.rel_vocab.id(rel.rel)])
            rel_in = RelationInput(rel.source, rel.source_index,
                                   state.node_pos(pos), rel.rel)
        out, _ = predict_one(dec, enc, state, rel_in)
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
            return sentence_loss(model, inp, ref, train=False).total

        # h sits where central differences are no longer dominated by
        # float64 cancellation noise on small-gradient coordinates
        report = grad_check(build, list(model.parameters().items()),
                               rng=np.random.default_rng(0), total_coords=250, h=5e-4)
        assert report.checked >= 200
        assert report.passed, report.worst


class TestMakeReference:
    def test_delegates_and_flags_eos(self):
        rng = np.random.default_rng(2)
        arbor = random_arborescence(rng)
        ref = make_reference(arbor, OrderingPolicy.SOURCE)
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
            "switch_generate", "switch_token_copy", "switch_node_copy", "relations_per_s",
            "dev_decode_s",
        }

    def test_switch_masses_sum_to_one(self, tmp_path):
        model = build_tiny_model(seed=14)
        pairs = self._pairs(model)
        cfg = TrainConfig(batch_size=2, max_epochs=2, patience=10, seed=6)
        for e in train(model, pairs, pairs, cfg).history:
            masses = [e["switch_generate"], e["switch_token_copy"], e["switch_node_copy"]]
            assert abs(sum(masses) - 1.0) <= 1e-9
            assert all(0.0 <= m <= 1.0 for m in masses)
            assert e["relations_per_s"] > 0.0

    @pytest.mark.parametrize("which", ["training", "dev"])
    def test_empty_sentence_rejected_before_training(self, which):
        model = build_tiny_model(seed=15)
        pairs = self._pairs(model)
        bad = list(pairs)
        bad[2] = (EncoderInput(tokens=[], pos=[]), pairs[2][1])
        train_pairs, dev_pairs = (bad, pairs) if which == "training" else (pairs, bad)
        with pytest.raises(ValueError, match=f"^{which} pair 2: cannot encode an empty sentence"):
            train(model, train_pairs, dev_pairs, TrainConfig(batch_size=2, max_epochs=1))
        # nothing was trained: the parameters are the initial ones
        fresh = build_tiny_model(seed=15)
        for name, t in model.parameters().items():
            assert np.array_equal(t.data, fresh.parameters()[name].data), name

    def test_unresolvable_source_rejected_before_training(self):
        model = build_tiny_model(seed=16)
        pairs = self._pairs(model)
        inp, _ = pairs[1]
        orphan = RelationSequence((Relation("@root@", 0, "root", "say-01", 1),
                                   Relation("person", 7, "ARG0", "Pierre", 2)), eos=True)
        with pytest.raises(ValueError, match="^training pair 1: "):
            train(model, [pairs[0], (inp, orphan)], pairs, TrainConfig(batch_size=2))

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


# ---------------------------------------------------------------------------
# Whole-sequence loss against the stepwise reference


def _loss_and_grads(loss_fn, model, inp, ref, **kwargs):
    model.zero_grads()
    with Tape() as tape:
        loss = loss_fn(model, inp, ref, **kwargs)
    tape.backward(loss.total)
    grads = {name: np.zeros_like(t.data) if t.grad is None else t.grad.copy()
             for name, t in model.parameters().items()}
    model.zero_grads()
    return loss.values(), grads


def _assert_same_loss(model, pairs, seed=None, tol=1e-10, **kwargs):
    """Loss components and every parameter gradient of ``sequence_loss``
    equal the stepwise reference within ``tol`` relative, pair by pair.
    A gradient that is zero in exact arithmetic (the bias of scores under a
    softmax) is rounding noise on both sides, below 1e-12 of the largest
    gradient entry; it is checked as that.  With a ``seed``, both sides
    train with dropout from their own copy of one generator, which stays
    in step over the whole corpus."""
    rngs = [None, None] if seed is None else [np.random.default_rng(seed) for _ in range(2)]
    for k, (inp, ref) in enumerate(pairs):
        got, got_grads = _loss_and_grads(sentence_loss, model, inp, ref,
                                         train=seed is not None, rng=rngs[0], **kwargs)
        want, want_grads = _loss_and_grads(reference_sequence_loss, model, inp, ref,
                                           train=seed is not None, rng=rngs[1], **kwargs)
        for key, value in want.items():
            assert abs(got[key] - value) <= tol * max(abs(value), 1e-300), (k, key, got, want)
        largest = max(np.abs(g).max(initial=0.0) for g in want_grads.values())
        for name, g in want_grads.items():
            size = max(np.abs(g).max(initial=0.0), np.abs(got_grads[name]).max(initial=0.0))
            if size <= 1e-12 * largest:
                continue
            diff = np.abs(got_grads[name] - g).max(initial=0.0)
            assert diff <= tol * np.abs(g).max(initial=0.0), (k, name, diff)
    if seed is not None:  # both sides drew the same number of masks
        assert rngs[0].random() == rngs[1].random()


@pytest.fixture(scope="module")
def train_small():
    """The benchmark's train-small model and its 64 pairs (seed 1)."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    workload = workloads.make("train-small", "full", 1, None)
    workload.setup()
    assert len(workload.pairs) == 64
    return workload.model, workload.pairs


@pytest.fixture(scope="module")
def overfit_corpus():
    """The criterion-08 corpus and model."""
    pairs, senses = prepare_corpus(synthetic_corpus())
    config = ModelConfig(
        framework="amr", word_dim=32, char_emb_dim=8, char_channels=16, pos_dim=8,
        index_dim=8, index_table_size=64, rel_dim=16,
        encoder_hidden=64, encoder_layers=2, decoder_layers=2,
        relation_hidden=128, attn_hidden=32, biaffine_size=32, bilinear_size=32,
        dropout=0.2,
    )
    vocabs = build_vocabularies(config, [p[0] for p in pairs], [p[1] for p in pairs])
    return TransducerModel(config, vocabs, seed=11, sense_counts=senses), pairs


SETTINGS = [  # (dropout seed, label smoothing, coverage weight)
    (None, 0.0, 0.0), (None, 0.1, 1.0), (5, 0.1, 1.0), (6, 0.0, 1.0), (7, 0.1, 0.0),
]


class TestWholeSequenceLoss:
    @pytest.mark.parametrize("seed,eps,cov", SETTINGS)
    def test_train_small_corpus(self, train_small, seed, eps, cov):
        model, pairs = train_small
        _assert_same_loss(model, pairs, seed, label_smoothing=eps, coverage_weight=cov)

    @pytest.mark.parametrize("seed,eps,cov", SETTINGS)
    def test_overfit_corpus(self, overfit_corpus, seed, eps, cov):
        model, pairs = overfit_corpus
        _assert_same_loss(model, pairs, seed, label_smoothing=eps, coverage_weight=cov)

    EDGE_CASES = {
        "eos_only": (["Pierre", "expressed"], (), True),
        "single_relation": (["Pierre", "expressed"], (("@root@", 0, "root", "say-01", 1),), True),
        "no_eos": (["Pierre", "expressed"], (("@root@", 0, "root", "say-01", 1),
                                             ("say-01", 1, "ARG0", "person", 2)), False),
        # person is copied back as node 2 (a node copy) and Pierre is an
        # input token (a token copy) at the root and again deeper down
        "node_and_token_copies": (
            ["Pierre", "Vinken", "Pierre"],
            (("@root@", 0, "root", "Pierre", 1), ("Pierre", 1, "ARG0", "person", 2),
             ("person", 2, "ARG1", "say-01", 3), ("say-01", 3, "ARG0", "person", 2),
             ("person", 2, "mod", "Pierre", 4), ("Pierre", 1, "ARG2", "Vinken", 5)), True),
        # indices at and above the table size share the overflow bucket
        "index_overflow": (["Pierre", "expressed"],
                           (("@root@", 0, "root", "say-01", 1),
                            ("say-01", 1, "ARG0", "person", 64),
                            ("person", 64, "ARG1", "thing", 90)), True),
        "one_token": (["Pierre"], (("@root@", 0, "root", "Pierre", 1),
                                   ("Pierre", 1, "ARG0", "person", 2)), True),
    }

    @pytest.mark.parametrize("case", sorted(EDGE_CASES))
    @pytest.mark.parametrize("seed,eps,cov", SETTINGS)
    def test_edge_cases(self, case, seed, eps, cov):
        tokens, relations, eos = self.EDGE_CASES[case]
        model = build_tiny_model(seed=21, dropout=0.3, index_table_size=64)
        inp = EncoderInput(tokens=list(tokens), pos=["NNP"] * len(tokens))
        ref = RelationSequence(tuple(Relation(*r) for r in relations), eos=eos)
        _assert_same_loss(model, [(inp, ref)], seed, label_smoothing=eps, coverage_weight=cov)

    def test_no_steps_is_zero(self):
        model = build_tiny_model(seed=21)
        inp = EncoderInput(tokens=["Pierre"], pos=["NNP"])
        loss = sentence_loss(model, inp, RelationSequence((), eos=False), train=False)
        assert loss.values() == dict.fromkeys(loss.values(), 0.0)

    def test_switch_rows_sum_to_one(self, overfit_corpus):
        model, pairs = overfit_corpus
        for inp, ref in pairs[:6]:
            switch = sentence_loss(model, inp, ref, train=False).switch
            assert switch.shape == (len(ref.relations) + 1, 3)
            assert np.abs(switch.sum(axis=1) - 1.0).max() <= 1e-12
            assert not switch[:2, 2].any()  # no node to copy before step 2


def one_sentence_loss(model, enc_input, reference, *, label_smoothing=0.1,
                      coverage_weight=1.0, train=True, rng=None) -> LossBreakdown:
    """``sequence_loss``'s body for one sentence as it was before a batch
    ran as rows, with the shared-candidates biaffine of that time inlined.
    A one-sentence batch must equal it bit for bit."""
    dec, cfg = model.decoder, model.config
    enc = encode_one(model.encoder, enc_input, train, rng)
    zero = ad.constant(np.zeros(()))
    plan = _teacher_forcing(dec, enc_input, reference)
    n_rel, n_steps = len(plan.nodes), len(plan.vocab)
    if n_steps == 0:
        return LossBreakdown(zero, zero, zero, zero, zero, np.zeros((0, 3)))
    eps = label_smoothing

    def masked(scores, allowed):
        return ad.add(scores, ad.constant(np.where(allowed, 0.0, -np.inf)))

    def block_mass(p, support):
        return ad.sum_axis(ad.mul(p, ad.constant(support)), 1)

    rh, dh, layers = cfg.relation_hidden, cfg.decoder_hidden, len(dec.lstm_cells)
    z_mask = lstm_masks = None
    if train and cfg.dropout > 0.0:
        keep = 1.0 - cfg.dropout
        block = (rng.random((n_rel, rh + layers * dh)) < keep) / keep
        z_mask = block[:, :rh]
        if reference.eos:
            z_mask = np.vstack([z_mask, (rng.random(rh) < keep) / keep])
        lstm_masks = [block[:, rh + k * dh : rh + (k + 1) * dh] for k in range(layers)]

    def drop(x, mask):
        return x if mask is None else ad.mul(x, ad.constant(mask))

    inputs = plan.inputs[:n_steps]
    embedded = ad.concat([
        dec.label_rows([(r.label, r.pos) for r in plan.nodes]
                       + [(u.u_label, u.u_pos) for u in inputs]),
        dec.index_rows([r.index for r in plan.nodes] + [u.u_index for u in inputs]),
    ], axis=1)
    h = ad.reshape(enc.init[-1], (1, dh))
    if n_rel:
        x = ad.narrow(embedded, 0, 0, n_rel)
        for k, cell in enumerate(dec.lstm_cells):
            x = drop(cell.layer(x, (enc.init[k], ad.constant(np.zeros(dh)))),
                     None if lstm_masks is None else lstm_masks[k])
        h = ad.concat([h, x], axis=0)
    h_query = h if n_steps == n_rel + 1 else ad.narrow(h, 0, 0, n_steps)

    a_enc = ad.softmax(dec.attn_mlp.pairs(h_query, enc.states), axis=-1)
    context = ad.matmul(a_enc, enc.states)
    rel_rows = dec.rel_emb([dec.rel_vocab.id(u.rel) for u in inputs])
    z = dec.ffn_relation(ad.concat(
        [h_query, context, rel_rows, ad.narrow(embedded, 0, n_rel, n_rel + n_steps)], axis=1))
    z = drop(z, z_mask)
    vocab_logits = dec.ffn_vocab(z)
    no_copy = np.ones((n_steps, 3), dtype=bool)
    no_copy[:2, 2] = False
    switch = ad.softmax(masked(dec.ffn_switch(z), no_copy), axis=-1)
    node_mass = ad.constant(np.zeros(n_steps))
    if n_steps > 2:
        m = n_steps - 2
        scores = dec.dec_attn_mlp.pairs(ad.narrow(z, 0, 2, n_steps), ad.narrow(z, 0, 1, m + 1))
        a_dec = ad.softmax(masked(scores, np.tri(m, dtype=bool)), axis=-1)
        node_mass = ad.concat([ad.constant(np.zeros(2)),
                               block_mass(a_dec, plan.copies[2:, :m])])
    masses = ad.transpose(ad.stack_rows([
        block_mass(ad.softmax(vocab_logits, axis=-1), plan.vocab),
        block_mass(a_enc, plan.tokens),
        node_mass,
    ]))
    nll_v = -ad.sum_all(ad.log(ad.sum_axis(ad.mul(switch, masses), 1)))
    if eps > 0.0:
        uniform = -ad.sum_all(ad.log_softmax(vocab_logits, axis=-1))
        nll_v = ad.add(ad.mul(nll_v, 1.0 - eps), ad.mul(uniform, eps / vocab_logits.shape[1]))

    coverage = ad.matmul(ad.constant(np.tri(n_steps, k=-1)), a_enc)
    cov = ad.sum_all(ad.minimum(a_enc, coverage))

    nll_u = nll_r = zero
    if n_rel:
        fed = ad.narrow(h, 0, 1, n_rel + 1)
        gold = np.array(plan.gold_pos)
        allowed = np.tri(n_rel, dtype=bool)
        allowed[:, 0] &= gold == 0
        bi = dec.biaffine
        x1, x2 = dec.mlp_start(fed), dec.mlp_end(ad.narrow(h, 0, 0, n_rel))
        w1, w2 = ad.narrow(bi.w, 0, 0, bi.dim1), ad.narrow(bi.w, 0, bi.dim1, bi.dim1 + bi.dim2)
        bil = ad.matmul(ad.matmul(x1, bi.u), ad.transpose(x2))
        lin = ad.add(ad.transpose(repeat_rows(ad.matmul(x1, w1), n_rel)), ad.matmul(x2, w2))
        scores = ad.add(lin, ad.add(bil, bi.b))
        nll_u = -ad.sum_all(ad.pick(ad.log_softmax(masked(scores, allowed), axis=-1), gold))
        src = dec.mlp_rel_src(ad.embedding_gather(h, gold))
        logits = dec.bilinear(ad.reshape(src, (n_rel, 1, src.shape[1])), dec.mlp_rel_tgt(fed))
        logp = ad.log_softmax(ad.reshape(logits, (n_rel, logits.shape[2])), axis=-1)
        targets = np.stack([smoothed_targets(logp.shape[1], dec.rel_vocab.id(rel.rel), eps)
                            for rel in reference.relations])
        nll_r = -ad.sum_all(ad.mul(logp, ad.constant(targets)))

    total = ad.add(ad.add(nll_u, nll_r), ad.add(nll_v, ad.mul(cov, coverage_weight)))
    return LossBreakdown(nll_u, nll_r, nll_v, cov, total, switch.data)


def _batch_loss_and_grads(model, pairs, **kwargs):
    """``sequence_loss`` of ``pairs`` as one batch: its components, switch
    rows and the gradients of the summed total."""
    model.zero_grads()
    with Tape() as tape:
        loss = sequence_loss(model, [inp for inp, _ in pairs], [ref for _, ref in pairs],
                             **kwargs)
        total = ad.sum_all(loss.total)
    tape.backward(total)
    grads = {name: np.zeros_like(t.data) if t.grad is None else t.grad.copy()
             for name, t in model.parameters().items()}
    model.zero_grads()
    return loss, grads


class TestBatchLoss:
    """A batch's sentences run as rows: each sentence's loss equals its own
    ``sequence_loss`` and the batch gradient the sum of theirs, within 1e-10
    relative; with dropout, each sentence draws what it draws alone, in
    batch order."""

    # token lengths 1 to 6: an EOS-only reference, no EOS, node and token
    # copies, and indices at and past the index table (size 64)
    HOSTILE = [
        (["Pierre"], (("@root@", 0, "root", "Pierre", 1), ("Pierre", 1, "ARG0", "person", 2)),
         True),
        (["Pierre", "expressed"], (), True),
        (["Pierre", "Vinken", "Pierre"],
         (("@root@", 0, "root", "Pierre", 1), ("Pierre", 1, "ARG0", "person", 2),
          ("person", 2, "ARG1", "say-01", 3), ("say-01", 3, "ARG0", "person", 2),
          ("person", 2, "mod", "Pierre", 4), ("Pierre", 1, "ARG2", "Vinken", 5)), True),
        (["Pierre", "expressed", "thing", "say-01"],
         (("@root@", 0, "root", "say-01", 1), ("say-01", 1, "ARG0", "person", 2)), False),
        (["Pierre", "expressed", "a", "b", "c"],
         (("@root@", 0, "root", "say-01", 1), ("say-01", 1, "ARG0", "person", 64),
          ("person", 64, "ARG1", "thing", 90)), True),
        (["Pierre", "expressed", "a", "b", "c", "d"], (("@root@", 0, "root", "say-01", 1),),
         True),
    ]

    @pytest.fixture(scope="class")
    def hostile(self):
        model = build_tiny_model(seed=21, dropout=0.3, index_table_size=64)
        pairs = [(EncoderInput(tokens=list(tokens), pos=["NNP"] * len(tokens)),
                  RelationSequence(tuple(Relation(*r) for r in relations), eos=eos))
                 for tokens, relations, eos in self.HOSTILE]
        return model, pairs

    @staticmethod
    def assert_batch_equals_examples(model, pairs, seed, tol=1e-10, **kwargs):
        rngs = [None, None] if seed is None else [np.random.default_rng(seed) for _ in range(2)]
        train = seed is not None
        loss, got_grads = _batch_loss_and_grads(model, pairs, train=train, rng=rngs[0], **kwargs)
        got = loss.values()
        want_grads = {name: np.zeros_like(t.data) for name, t in model.parameters().items()}
        rows = 0
        for k, (inp, ref) in enumerate(pairs):
            want, grads = _loss_and_grads(sentence_loss, model, inp, ref, train=train,
                                          rng=rngs[1], **kwargs)
            for key, value in want.items():
                assert abs(got[key][k] - value) <= tol * max(abs(value), 1e-300), (k, key)
            for name, g in grads.items():
                want_grads[name] += g
            steps = len(ref.relations) + ref.eos
            if not train:
                alone = sentence_loss(model, inp, ref, train=False, **kwargs).switch
                assert np.abs(loss.switch[rows : rows + steps] - alone).max(initial=0.0) <= tol
            rows += steps
        assert loss.switch.shape == (rows, 3)
        largest = max(np.abs(g).max(initial=0.0) for g in want_grads.values())
        for name, g in want_grads.items():
            size = max(np.abs(g).max(initial=0.0), np.abs(got_grads[name]).max(initial=0.0))
            if size <= 1e-12 * largest:  # zero in exact arithmetic
                continue
            diff = np.abs(got_grads[name] - g).max(initial=0.0)
            assert diff <= tol * np.abs(g).max(initial=0.0), (name, diff)
        if seed is not None:  # both generators end in the same state
            assert rngs[0].random() == rngs[1].random()

    @pytest.mark.parametrize("seed,eps,cov", SETTINGS)
    def test_train_small_batches(self, train_small, seed, eps, cov):
        model, pairs = train_small
        chunks = _batches(pairs, 8, random.Random(0))
        assert len(chunks) == 8
        for chunk in chunks:
            self.assert_batch_equals_examples(model, [pairs[i] for i in chunk], seed,
                                              label_smoothing=eps, coverage_weight=cov)

    @pytest.mark.parametrize("seed,eps,cov", SETTINGS)
    def test_hostile_batch(self, hostile, seed, eps, cov):
        model, pairs = hostile
        self.assert_batch_equals_examples(model, pairs, seed, label_smoothing=eps,
                                          coverage_weight=cov)

    @pytest.mark.parametrize("seed,eps,cov", SETTINGS)
    def test_one_sentence_batch_bit_equal_to_one_sentence_body(self, hostile, train_small,
                                                              seed, eps, cov):
        for model, pairs in (hostile, (train_small[0], train_small[1][:8])):
            for k, (inp, ref) in enumerate(pairs):
                rngs = [None, None] if seed is None else [np.random.default_rng(seed + k)
                                                          for _ in range(2)]
                kwargs = dict(train=seed is not None, label_smoothing=eps, coverage_weight=cov)
                loss, got_grads = _batch_loss_and_grads(model, [(inp, ref)], rng=rngs[0],
                                                        **kwargs)
                model.zero_grads()
                with Tape() as tape:
                    want = one_sentence_loss(model, inp, ref, rng=rngs[1], **kwargs)
                tape.backward(want.total)
                for key, value in want.values().items():
                    assert np.array_equal(loss.values()[key], [value]), (k, key)
                assert np.array_equal(loss.switch, want.switch)
                for name, t in model.parameters().items():
                    g = np.zeros_like(t.data) if t.grad is None else t.grad
                    assert np.array_equal(got_grads[name], g), (k, name)
                model.zero_grads()

    def test_all_batch_sentences_without_steps(self, hostile):
        model, pairs = hostile
        inp = pairs[0][0]
        loss = sequence_loss(model, [inp, inp], [RelationSequence((), eos=False)] * 2,
                             train=False)
        assert loss.values()["total"] == [0.0, 0.0]
        assert loss.switch.shape == (0, 3)


class TestTapeSize:
    # tape records of the one batch below under the stepwise loss
    # (``reference_sequence_loss``), counted before the whole-sequence loss
    STEPWISE_RECORDS = 7231

    def test_records_per_batch_at_most_a_third_of_stepwise(self):
        rng = np.random.default_rng(31)
        pairs = []
        for _ in range(8):
            inp = make_inputs(rng, 4)
            pairs.append((inp, make_reference(random_arborescence(rng), OrderingPolicy.SOURCE)))
        model = build_tiny_model(seed=31, dropout=0.2)
        cfg = TrainConfig(batch_size=8, max_epochs=1, patience=1, seed=1)
        records = train(model, pairs, pairs[:1], cfg).history[0]["tape_records_per_batch"]
        assert records <= self.STEPWISE_RECORDS / 3, records

    def test_batch_records_at_most_twice_the_longest_example(self):
        # the batch of the test above runs as rows: its tape holds at most
        # twice the records of its longest example alone
        rng = np.random.default_rng(31)
        pairs = []
        for _ in range(8):
            inp = make_inputs(rng, 4)
            pairs.append((inp, make_reference(random_arborescence(rng), OrderingPolicy.SOURCE)))
        model = build_tiny_model(seed=31, dropout=0.2)
        drop = np.random.default_rng(1)
        with Tape() as batch:
            sequence_loss(model, [p[0] for p in pairs], [p[1] for p in pairs], rng=drop)
        inp, ref = max(pairs, key=lambda p: len(p[1].relations))
        with Tape() as longest:
            sentence_loss(model, inp, ref, rng=drop)
        assert len(batch.records) <= 2 * len(longest.records), (len(batch.records),
                                                                len(longest.records))
