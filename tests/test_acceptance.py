"""Acceptance suite: one test per release criterion.

Each test prints a single PASS line when its criterion holds (run with
``pytest -s tests/test_acceptance.py`` to see them); assertions carry the
failure context otherwise.
"""

import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from arbor import autodiff as ad
from arbor.convert import from_arbor, to_arbor
from arbor.decoder import BOS_INPUT, RelationInput, reference_node
from arbor.encoder import EncoderInput
from arbor.evaluate import linear_fit_r2, smatch_score
from arbor.formats import read_penman
from arbor.graph import (
    EOS_LABEL,
    Framework,
    GraphNode,
    Relation,
    RelationSequence,
    SemanticGraph,
    graph_isomorphic,
    validate_arborescence,
)
from arbor.inference import beam_decode, greedy_decode
from arbor.linearize import OrderingPolicy, arbor_to_relations, policy_for, relations_to_arbor
from arbor.model import ModelConfig, TransducerModel, build_vocabularies
from arbor.training import (
    TrainConfig,
    prepare_corpus,
    relation_f1,
    smoothed_targets,
    train,
)

from conftest import (
    build_tiny_model,
    grad_check,
    make_inputs,
    predict_one,
    random_amr_graph,
    random_arborescence,
    random_dm_graph,
    random_ucca_graph,
    relation_dist,
    sentence_loss,
    switch_values,
    synthetic_corpus,
)
from test_inference import enumerate_best, micro_model


def ok(num: int, message: str) -> None:
    print(f"[criterion {num:02d}] PASS: {message}")


def test_criterion_01_round_trip_conversion():
    started = time.perf_counter()
    rng = np.random.default_rng(10_001)
    count = 0
    for seed_block in range(500):
        for maker in (lambda: random_amr_graph(rng, max_nodes=12),
                      lambda: random_dm_graph(rng, max_nodes=12, max_components=3),
                      lambda: random_ucca_graph(rng, max_nodes=15)):
            g = maker()
            arbor = to_arbor(g)
            report = validate_arborescence(arbor)
            assert report.valid, report.violations
            assert graph_isomorphic(g, from_arbor(arbor, g.framework))
            count += 1
    elapsed = time.perf_counter() - started
    assert count == 1500
    assert elapsed < 30.0, f"round-trip fuzzing took {elapsed:.1f}s"
    ok(1, f"{count} fuzzed graphs round-trip isomorphic in {elapsed:.1f}s")


def test_criterion_02_linearization_identity():
    rng = np.random.default_rng(10_002)
    for _ in range(1000):
        arbor = random_arborescence(rng, max_nodes=15, with_anchors=True)
        seq = arbor_to_relations(arbor, OrderingPolicy.SOURCE)
        assert relations_to_arbor(seq).root == arbor.root
    ok(2, "1000 fuzzed arborescences relinearize to exact structural identity")


def test_criterion_03_worked_example_golden():
    g = read_penman("(e / express-01 :ARG0 (p / person) :ARG1 (c / concern :poss p))")
    arbor = to_arbor(g)
    root = arbor.root
    assert (root.label, root.index) == ("express-01", 1)
    assert [(rel, c.label, c.index) for rel, c in root.children] == [
        ("ARG0", "person", 2),
        ("ARG1", "concern", 3),
    ]
    concern = root.children[1][1]
    assert [(rel, c.label, c.index) for rel, c in concern.children] == [
        ("poss", "person", 2)
    ]
    assert not concern.children[0][1].children
    persons = [n for n in arbor.nodes() if n.label == "person"]
    assert len(persons) == 2 and {n.index for n in persons} == {2}
    assert graph_isomorphic(g, from_arbor(arbor, Framework.AMR))
    ok(3, "worked example converts with both person nodes sharing index 2")


def test_criterion_04_probability_hygiene():
    steps = 0
    model_seed = 0
    rng = np.random.default_rng(10_004)
    while steps < 1000:
        model = build_tiny_model(seed=7000 + model_seed)
        model_seed += 1
        dec = model.decoder
        inp = make_inputs(rng, int(rng.integers(1, 6)))
        enc = model.encoder.encode([inp])
        state = dec.initial_state(enc)
        rel_in = BOS_INPUT
        for _ in range(int(rng.integers(3, 8))):
            out, state = predict_one(dec, enc, state, rel_in)
            assert abs(out.p_target.data.sum() - 1.0) < 1e-6
            assert abs(sum(switch_values(out)) - 1.0) < 1e-9
            record = reference_node(
                state.nodes[0],
                model.vocabs.dec_word.token(int(rng.integers(4, len(model.vocabs.dec_word)))),
                state.next_fresh_index(0), inp.tokens, inp.pos)
            state = dec.feed_target(state, record)
            pu = dec.point_source(state)
            assert abs(pu.data.sum() - 1.0) < 1e-6
            position = int(np.argmax(pu.data))
            pr = relation_dist(dec, state, position)
            assert abs(pr.data.sum() - 1.0) < 1e-6
            steps += 1
            rel_in = RelationInput(record.label, record.index, record.pos, "root")
    ok(4, f"{steps} random-model steps keep every distribution normalized")


def test_criterion_05_full_model_gradient_check():
    started = time.perf_counter()
    model = build_tiny_model(seed=6)
    inp = EncoderInput(tokens=["Pierre", "expressed"], pos=["NNP", "VBD"])
    ref = RelationSequence((
        Relation("@root@", 0, "root", "say-01", 1),
        Relation("say-01", 1, "ARG0", "Pierre", 2),
        Relation("say-01", 1, "ARG1", "thing", 3),
    ), eos=True)

    def build():
        return sentence_loss(model, inp, ref, train=False).total

    # step size sits above the float64 cancellation floor of the central
    # differences; the analytic/numeric gap is flat in this region
    report = grad_check(build, list(model.parameters().items()),
                           rng=np.random.default_rng(0), total_coords=250, h=5e-4)
    elapsed = time.perf_counter() - started
    assert report.checked >= 200
    assert report.passed, report.worst
    assert elapsed < 120.0, f"gradient check took {elapsed:.1f}s"
    ok(5, f"max rel err {report.max_rel_err:.2e} over {report.checked} coordinates "
          f"of {len(model.parameters())} tensors in {elapsed:.1f}s")


def test_criterion_06_structural_validity_of_decodes():
    rng = np.random.default_rng(10_006)
    checked_greedy = checked_beam = 0
    for model_seed in range(50):
        model = build_tiny_model(seed=8000 + model_seed,
                                 word_dim=6, char_emb_dim=4, char_channels=6,
                                 pos_dim=4, index_dim=4, rel_dim=4,
                                 encoder_hidden=6, relation_hidden=10,
                                 attn_hidden=6, biaffine_size=6, bilinear_size=6)
        for _ in range(20):
            inp = make_inputs(rng, int(rng.integers(1, 5)))
            g = greedy_decode(model, inp, max_len=6)
            if g.sequence.relations:
                assert validate_arborescence(relations_to_arbor(g.sequence)).valid
            checked_greedy += 1
            b = beam_decode(model, inp, beam_size=5, max_len=6)
            if b.sequence.relations:
                assert validate_arborescence(relations_to_arbor(b.sequence)).valid
            checked_beam += 1
    assert checked_greedy == 1000 and checked_beam == 1000
    ok(6, "1000 greedy and 1000 beam decodes all reconstruct to valid arborescences")


def test_criterion_07_beam_correctness():
    # exhaustive micro-domain: full-width beam equals brute-force argmax
    for seed in range(100):
        model = micro_model(seed)
        inp = EncoderInput(tokens=["tok"], pos=["NN"])
        depth = 2 if seed % 2 else 3
        brute_seq, brute_score = enumerate_best(model, inp, max_len=depth)
        beam = beam_decode(model, inp, beam_size=100_000, max_len=depth)
        assert beam.score == pytest.approx(brute_score, abs=1e-9), seed
        assert tuple(r.astuple() for r in beam.sequence.relations) == tuple(
            r.astuple() for r in brute_seq), seed
    # beam of width one reproduces greedy search
    rng = np.random.default_rng(10_007)
    for seed in range(200):
        model = build_tiny_model(seed=9000 + seed,
                                 word_dim=6, char_emb_dim=4, char_channels=6,
                                 pos_dim=4, index_dim=4, rel_dim=4,
                                 encoder_hidden=6, relation_hidden=10,
                                 attn_hidden=6, biaffine_size=6, bilinear_size=6)
        inp = make_inputs(rng, int(rng.integers(1, 4)))
        g = greedy_decode(model, inp, max_len=5)
        b = beam_decode(model, inp, beam_size=1, max_len=5)
        assert b.sequence.relations == g.sequence.relations, seed
        assert b.score == pytest.approx(g.score, abs=1e-9)
    ok(7, "full-width beam matches brute force 100/100; beam k=1 equals greedy 200/200")


def test_criterion_08_overfit_oracle():
    started = time.perf_counter()
    records = synthetic_corpus()
    assert len(records) == 32
    assert max(len(r.tokens) for r in records) <= 8
    pairs, senses = prepare_corpus(records)
    config = ModelConfig(
        framework="amr", word_dim=32, char_emb_dim=8, char_channels=16, pos_dim=8,
        index_dim=8, index_table_size=64, rel_dim=16,
        encoder_hidden=64, encoder_layers=2, decoder_layers=2,
        relation_hidden=128, attn_hidden=32, biaffine_size=32, bilinear_size=32,
        dropout=0.2,
    )
    vocabs = build_vocabularies(config, [p[0] for p in pairs], [p[1] for p in pairs])
    model = TransducerModel(config, vocabs, seed=11, sense_counts=senses)
    cfg = TrainConfig(batch_size=8, max_epochs=500, patience=500, seed=11)
    result = train(model, pairs, pairs, cfg, target_f1=0.95)
    elapsed = time.perf_counter() - started
    assert result.best_dev_f1 >= 0.95, result.best_dev_f1
    assert result.epochs_run <= 500
    assert elapsed < 600.0, f"overfit run took {elapsed:.1f}s"

    # The overfit model reproduces its training graphs end to end: every
    # record it decodes right parses to a graph isomorphic to its own.  No
    # fixed record is asserted: the 0.95 stop tolerates a few misses, and
    # amr0 and amr2 differ only in the name and an unanchored target label
    # (group vs board), which the model keeps trading between epochs.
    from arbor.inference import parse

    reproduced = Counter()
    for record, (inp, reference) in zip(records, pairs):
        decoded = greedy_decode(model, inp, max_len=16).sequence
        if (Counter(r.astuple() for r in decoded.relations)
                != Counter(r.astuple() for r in reference.relations)):
            continue
        predicted = parse(model, inp, beam_size=1, max_len=16, framework=record.framework)
        assert graph_isomorphic(record.graph(), predicted), record.id
        reproduced[record.framework] += 1
    assert set(reproduced) == {Framework.AMR, Framework.DM, Framework.UCCA}, reproduced
    ok(8, f"32-pair corpus reaches F1 {result.best_dev_f1:.3f} in "
          f"{result.epochs_run} epochs ({elapsed:.0f}s); parse round-trip holds for "
          f"{sum(reproduced.values())} records")


def test_criterion_09_loss_identities():
    # (a) eps=0, coverage weight 0: loss is -log of the probability product
    model = build_tiny_model(seed=5)
    inp = EncoderInput(tokens=["zq1", "zq2"], pos=["NN", "NN"])
    ref = RelationSequence((
        Relation("@root@", 0, "root", "say-01", 1),
        Relation("say-01", 1, "ARG0", "person", 2),
    ), eos=True)
    loss = sentence_loss(model, inp, ref, label_smoothing=0.0, coverage_weight=0.0,
                         train=False)
    from arbor.linearize import resolve_source

    dec = model.decoder
    enc = model.encoder.encode([inp])
    state = dec.initial_state(enc)
    rel_in = BOS_INPUT
    logp = 0.0
    for i, rel in enumerate(ref.relations):
        out, state = predict_one(dec, enc, state, rel_in)
        logp += np.log(out.p_target.data[dec.word_vocab.id(rel.target)])
        record = reference_node(state.nodes[0], rel.target, rel.target_index,
                                inp.tokens, inp.pos)
        state = dec.feed_target(state, record)
        pos = resolve_source(ref.relations[:i], rel.source, rel.source_index)
        logp += np.log(dec.point_source(state).data[pos])
        logp += np.log(relation_dist(dec, state, pos).data[dec.rel_vocab.id(rel.rel)])
        rel_in = RelationInput(rel.source, rel.source_index, state.node_pos(0, pos), rel.rel)
    out, _ = predict_one(dec, enc, state, rel_in)
    logp += np.log(out.p_target.data[dec.word_vocab.id(EOS_LABEL)])
    assert float(loss.total.data) == pytest.approx(-logp, abs=1e-10)

    # (b) the first step's coverage penalty is exactly zero: with one
    # relation and no EOS the reference has one prediction step
    first = RelationSequence((ref.relations[0],), eos=False)
    assert float(sentence_loss(model, inp, first, train=False).coverage_penalty.data) == 0.0

    # (c) the smoothing vector for K=4, eps=0.1
    assert smoothed_targets(4, 0, 0.1).tolist() == [0.925, 0.025, 0.025, 0.025]
    ok(9, "loss equals -log probability product; covloss_1 = 0; smoothing vector exact")


def test_criterion_10_decoding_linearity():
    model = build_tiny_model(seed=21)
    eos_row = model.vocabs.dec_word.id(EOS_LABEL)
    model.decoder.ffn_vocab.b.data[eos_row] = -1e9  # run to max length
    inp = make_inputs(np.random.default_rng(3), 5)

    lengths = [5, 10, 20, 40, 60, 80]
    # three round-robin passes over the lengths, best time per length, so a
    # slow phase of the machine reaches every length alike
    times = [float("inf")] * len(lengths)
    for _ in range(3):
        for k, length in enumerate(lengths):
            t0 = time.perf_counter()
            result = greedy_decode(model, inp, max_len=length)
            times[k] = min(times[k], time.perf_counter() - t0)
            assert result.steps == len(result.sequence.relations) == length
    r2 = linear_fit_r2(lengths, times)
    assert r2 >= 0.95, (r2, times)
    ok(10, f"step counter exact; time-vs-length linear fit R^2 = {r2:.4f}")


def test_criterion_11_smatch_oracle_agreement():
    rng = np.random.default_rng(10_011)
    fixtures = 0
    while fixtures < 50:
        gold = random_amr_graph(rng, max_nodes=8)
        if rng.random() < 0.4:
            pred = random_amr_graph(rng, max_nodes=8)
        else:
            labels = [n.label for n in gold.nodes]
            nodes = tuple(
                GraphNode(n.id, labels[(k + 1) % len(labels)]
                          if rng.random() < 0.3 else n.label)
                for k, n in enumerate(gold.nodes)
            )
            pred = SemanticGraph(Framework.AMR, nodes, gold.edges, gold.tops)
        exact = smatch_score(gold, pred, mode="exact")
        climb = smatch_score(gold, pred, mode="hill_climb")
        assert climb.f1 == pytest.approx(exact.f1, abs=1e-12), fixtures
        assert climb.matched == exact.matched
        fixtures += 1
    ok(11, "exact and hill-climbing agree on all 50 fixtures")


def test_criterion_12_corpus_scale_scores_documented():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    text = readme.read_text(encoding="utf-8")
    for needle in ("77.0", "71.3", "92.2", "87.1", "76.6", "1076", "8%"):
        assert needle in text, f"README missing reference constant {needle}"
    assert "not reproduc" in text.lower() or "out of reach" in text.lower()
    ok(12, "corpus-scale reference scores are documented as out of desk-scale reach")
