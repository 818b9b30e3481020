"""The benchmark's five workloads.

Each workload is set up from the seed, then runs identical passes: every
pass does the same amount of work.  A pass is a list of timed items
(sentences, ``train()`` calls, round trips, scored pairs), timed by a
``Clock``.
Outputs are checked after each pass, outside the timed region; a failed
check is counted, never raised.

Calls into arbor go through module attributes (``inference.parse``,
``convert.to_arbor``, ...) so that the tracer's wrappers see them.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import generate as gen
from arbor import convert, evaluate, formats, inference, linearize, model as model_mod, training
from arbor.graph import EOS_LABEL, Framework, graph_isomorphic, validate_arborescence
from arbor.model import ModelConfig, build_vocabularies
from speed import Speed

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"

# Parse models and their probe sentences do not depend on the run's seed,
# so the digest of the probe output is one committed value per workload.
MODEL_SEED = 0
PROBE_SEED = 1
# The Smatch oracle pairs do not depend on it either: their exact references
# cost set-up time that varies with the pairs drawn, and their agreement is
# meant to be one deterministic figure per commit.
ORACLE_SEED = 2

# Criterion-08 dimensions of the acceptance suite.
SMALL_DIMS = dict(
    framework="amr", word_dim=32, char_emb_dim=8, char_channels=16, pos_dim=8,
    index_dim=8, index_table_size=64, rel_dim=16, encoder_hidden=64, encoder_layers=2,
    decoder_layers=2, relation_hidden=128, attn_hidden=32, biaffine_size=32,
    bilinear_size=32, dropout=0.2,
)


class Checks:
    """Counts checked operations and failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(what)

    def call(self, what: str, fn):
        """Run ``fn`` as one checked operation; None when it raised."""
        try:
            return fn()
        except Exception as exc:  # a failing operation is counted, not fatal
            self.record(False, f"{what}: {type(exc).__name__}: {exc}")
            return None

    def completed(self, output, what: str) -> bool:
        """False, counting a failure, when a timed operation raised."""
        if isinstance(output, Exception):
            self.record(False, f"{what}: {type(output).__name__}: {output}")
            return False
        return True


class Clock:
    """Times the items of one pass, each followed by reference work that
    measures the machine's speed (``speed.Speed``)."""

    def __init__(self, speed: Speed):
        self.speed = speed
        self.seconds: list[float] = []  # wall time of each item

    def time(self, fn, *args):
        """Call ``fn`` and time it.  An exception is returned, not raised,
        so that the pass's checks count it."""
        start = perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:  # counted by Checks.completed
            result = exc
        self.seconds.append(perf_counter() - start)
        self.speed.sample(self.seconds[-1])
        return result


# ---------------------------------------------------------------------------
# Parsing


@dataclass(frozen=True)
class ParseSpec:
    dims: dict | None  # None: ModelConfig.defaults("amr")
    n_labels: int
    n_relations: int
    n_words: int
    beam: int
    lengths: tuple[int, ...]  # sentence lengths of one pass
    probe_lengths: tuple[int, ...]
    reference_work: tuple[str, ...]  # speed.REFERENCE_S keys


class ParseWorkload:
    """``inference.parse`` on a checkpointed model whose EOS logit bias is
    -1e9, so every decode runs to ``max_len = 2n + 10`` as ``arbor parse``
    sets it, whatever the weights: the work per sentence is fixed."""

    unit = "sentences"

    def __init__(self, name: str, size: str, spec: ParseSpec, seed: int, workdir: Path):
        self.name, self.size, self.spec, self.seed, self.workdir = name, size, spec, seed, workdir
        self.reference_work = spec.reference_work

    def setup(self) -> None:
        spec = self.spec
        rng = np.random.default_rng(MODEL_SEED)
        self.words = gen.token_pool(spec.n_words)
        records = gen.vocabulary_corpus(rng, spec.n_labels, spec.n_relations, self.words)
        pairs, senses = training.prepare_corpus(records)
        config = ModelConfig.defaults("amr") if spec.dims is None else ModelConfig(**spec.dims)
        vocabs = build_vocabularies(config, [p[0] for p in pairs], [p[1] for p in pairs])
        model = model_mod.TransducerModel(config, vocabs, seed=MODEL_SEED, sense_counts=senses)
        model.decoder.ffn_vocab.b.data[vocabs.dec_word.id(EOS_LABEL)] = -1e9
        path = self.workdir / f"{self.name}.ckpt"
        model.save(path)
        del model
        self.model = model_mod.TransducerModel.load(path)
        path.unlink()

    def _parse(self, inp):
        return inference.parse(self.model, inp, beam_size=self.spec.beam,
                               max_len=2 * len(inp.tokens) + 10)

    def check_setup(self, checks: Checks) -> dict:
        rng = np.random.default_rng(PROBE_SEED)
        probes = [gen.sentence(rng, n, self.words) for n in self.spec.probe_lengths]
        graphs = checks.call("probe parse", lambda: [self._parse(inp) for inp in probes])
        if graphs is None:
            return {}
        lines = [
            formats.write_canonical(formats.CanonicalGraphRecord.from_graph(
                f"probe{i}", g, inp.tokens, inp.pos))
            for i, (g, inp) in enumerate(zip(graphs, probes))
        ]
        key = f"{self.name}/{self.size}"
        digest = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
        expected = json.loads(DIGESTS.read_text(encoding="utf-8")).get(key)
        checks.record(digest == expected,
                      f"probe output digest {digest} != committed {expected} for {key}")
        return {}

    def prepare_pass(self, k: int):
        rng = np.random.default_rng([self.seed, k])
        return [gen.sentence(rng, n, self.words) for n in self.spec.lengths]

    def run_pass(self, tracer, clock: Clock, inputs):
        graphs = []
        for i, inp in enumerate(inputs):
            tracer.item = f"sentence{i}"
            graphs.append(clock.time(self._parse, inp))
        return graphs

    def units(self, inputs) -> int:
        return len(inputs)

    def check_pass(self, k: int, inputs, graphs, checks: Checks) -> None:
        for i, graph in enumerate(graphs):
            if not checks.completed(graph, f"pass {k} sentence {i}"):
                continue
            report = checks.call(f"pass {k} sentence {i}",
                                 lambda: validate_arborescence(convert.to_arbor(graph)))
            if report is not None:
                checks.record(report.valid, f"pass {k} sentence {i}: {report.violations[:2]}")


# ---------------------------------------------------------------------------
# Training


@dataclass(frozen=True)
class TrainSpec:
    n_records: int
    lengths: tuple[int, ...]
    n_concepts: int
    epochs: int
    batch_size: int
    dev_every: int  # every k-th record is also a dev record


class TrainWorkload:
    """``training.train`` for a fixed number of epochs from the same
    initial weights in every pass, with a greedy dev decode per epoch."""

    unit = "teacher-forced relations"
    reference_work = ("python", "memory")

    def __init__(self, name: str, size: str, spec: TrainSpec, seed: int, workdir: Path):
        self.name, self.size, self.spec, self.seed = name, size, spec, seed

    def setup(self) -> None:
        spec = self.spec
        rng = np.random.default_rng(self.seed)
        records = gen.mixed_corpus(rng, spec.n_records, list(spec.lengths),
                                   gen.token_pool(200), gen.label_pool(spec.n_concepts))
        self.pairs, senses = training.prepare_corpus(records)
        self.dev = self.pairs[::spec.dev_every]
        config = ModelConfig(**SMALL_DIMS)
        vocabs = build_vocabularies(config, [p[0] for p in self.pairs],
                                    [p[1] for p in self.pairs])
        self.model = model_mod.TransducerModel(config, vocabs, seed=self.seed, sense_counts=senses)
        self.initial = {name: t.data.copy() for name, t in self.model.parameters().items()}

    def check_setup(self, checks: Checks) -> dict:
        return {}

    def prepare_pass(self, k: int):
        for name, t in self.model.parameters().items():
            t.data = self.initial[name].copy()
        return training.TrainConfig(batch_size=self.spec.batch_size,
                                    max_epochs=self.spec.epochs, patience=self.spec.epochs,
                                    seed=self.seed)

    def run_pass(self, tracer, clock: Clock, cfg):
        return clock.time(training.train, self.model, self.pairs, self.dev, cfg)

    def units(self, cfg) -> int:
        # every reference relation plus the EOS step, per epoch
        return cfg.max_epochs * sum(len(ref.relations) + 1 for _, ref in self.pairs)

    def check_pass(self, k: int, cfg, result, checks: Checks) -> None:
        if not checks.completed(result, f"pass {k}: train"):
            return
        losses = [h["train_loss"] for h in result.history]
        checks.record(len(losses) == cfg.max_epochs and all(map(math.isfinite, losses)),
                      f"pass {k}: epoch losses {losses}")
        checks.record(losses[-1] < losses[0], f"pass {k}: loss did not fall: {losses}")


# ---------------------------------------------------------------------------
# Graph conversion and evaluation


@dataclass(frozen=True)
class RoundTripSpec:
    sizes: tuple[int, ...]  # node counts, per framework
    repeats: int


class RoundTripWorkload:
    """Round trips through conversion, linearization and both text formats."""

    unit = "graph round trips"
    reference_work = ("python",)
    first_pass = None  # the first pass's output texts

    def __init__(self, name: str, size: str, spec: RoundTripSpec, seed: int, workdir: Path):
        self.name, self.size, self.spec, self.seed = name, size, spec, seed

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        words, concepts = gen.token_pool(500), gen.label_pool(400)
        self.graphs = [
            (f"{fw.value}-{size}-{r}", *gen.graph_for(rng, fw, size, words, concepts))
            for r in range(self.spec.repeats)
            for fw in (Framework.AMR, Framework.DM, Framework.UCCA)
            for size in self.spec.sizes
        ]

    def check_setup(self, checks: Checks) -> dict:
        return {}

    def prepare_pass(self, k: int):
        return None

    def _round_trip(self, gid, graph, tokens):
        fw = graph.framework
        arbor = convert.to_arbor(graph)
        seq = linearize.arbor_to_relations(arbor, linearize.policy_for(fw))
        back = convert.from_arbor(linearize.relations_to_arbor(seq), fw)
        line = formats.write_canonical(formats.CanonicalGraphRecord.from_graph(gid, back, tokens))
        restored = [formats.read_canonical(line).graph()]
        text = ""
        if fw == Framework.AMR:
            text = formats.write_penman(back)
            restored.append(formats.read_penman(text))
        return line + text, restored

    def run_pass(self, tracer, clock: Clock, _inputs):
        trips = []
        for gid, graph, tokens in self.graphs:
            tracer.item = gid
            trips.append(clock.time(self._round_trip, gid, graph, tokens))
        return trips

    def units(self, _inputs) -> int:
        return len(self.graphs)

    def check_pass(self, k: int, _inputs, trips, checks: Checks) -> None:
        texts = [trip if isinstance(trip, Exception) else trip[0] for trip in trips]
        if self.first_pass is None:
            for (gid, graph, _), trip in zip(self.graphs, trips):
                if checks.completed(trip, gid):
                    for back in trip[1]:
                        checks.record(graph_isomorphic(graph, back),
                                      f"{gid}: round trip differs")
            self.first_pass = texts
        else:
            # later passes repeat the inputs of the checked first pass
            checks.record(texts == self.first_pass, f"pass {k}: round trips changed")


@dataclass(frozen=True)
class EvalSpec:
    smatch_vars: tuple[int, ...]  # variables per gold/perturbed AMR pair
    triple_sizes: tuple[int, ...]  # DM and UCCA gold/perturbed pairs
    oracle_pairs: int  # pairs of at most 8 variables with exact references


class EvalWorkload:
    """Smatch and anchored-triple scoring of gold/perturbed pairs."""

    unit = "scored pairs"
    reference_work = ("python",)
    first_pass = None  # the first pass's scores

    def __init__(self, name: str, size: str, spec: EvalSpec, seed: int, workdir: Path):
        self.name, self.size, self.spec, self.seed = name, size, spec, seed

    def setup(self) -> None:
        spec = self.spec
        rng = np.random.default_rng(self.seed)
        words, concepts = gen.token_pool(500), gen.label_pool(400)
        self.smatch_pairs = []
        for k, v in enumerate(spec.smatch_vars):
            gold = gen.amr_graph(rng, v, concepts[: max(4, v // 2)])
            self.smatch_pairs.append((f"smatch{k}-{v}", gold, gen.perturb_labels(rng, gold)))
        self.triple_pairs = []
        for fw in (Framework.DM, Framework.UCCA):
            labels = gen.DM_LABELS if fw == Framework.DM else gen.UCCA_LABELS
            for size in spec.triple_sizes:
                gold, _ = gen.graph_for(rng, fw, size, words, concepts)
                self.triple_pairs.append((f"triple-{fw.value}-{size}", gold,
                                          gen.perturb_edges(rng, gold, labels)))
        # sizes 1..8 in turn: the oracle fixtures' uniform size distribution
        oracle_rng = np.random.default_rng(ORACLE_SEED)
        self.oracle = [gen.oracle_pair(oracle_rng, 1 + k % 8) for k in range(spec.oracle_pairs)]
        self.exact = [evaluate.smatch_score(g, p, mode="exact").matched for g, p in self.oracle]

    def item_vars(self) -> dict[str, int]:
        return {pid: len(gold.nodes) for pid, gold, _ in self.smatch_pairs}

    def check_setup(self, checks: Checks) -> dict:
        agree = 0
        for k, ((gold, pred), exact) in enumerate(zip(self.oracle, self.exact)):
            climbed = checks.call(f"oracle pair {k}", lambda: evaluate.smatch_score(gold, pred))
            agree += climbed is not None and climbed.matched == exact
            own = checks.call(f"oracle gold {k} self-score",
                              lambda: evaluate.smatch_score(gold, gold))
            if own is not None:
                checks.record(own.f1 == 1.0, f"oracle gold {k} self-score {own.f1}")
        for pid, gold, _ in self.triple_pairs:
            own = checks.call(f"{pid} self-score", lambda: evaluate.labeled_triple_f1(gold, gold))
            if own is not None:
                checks.record(own.f1 == 1.0, f"{pid} self-score {own.f1}")
        return {"agreement": agree / len(self.oracle) if self.oracle else 0.0}

    def prepare_pass(self, k: int):
        return None

    def run_pass(self, tracer, clock: Clock, _inputs):
        scores = []
        for pid, gold, pred in self.smatch_pairs:
            tracer.item = pid
            scores.append(clock.time(evaluate.smatch_score, gold, pred))
        for pid, gold, pred in self.triple_pairs:
            tracer.item = pid
            scores.append(clock.time(evaluate.labeled_triple_f1, gold, pred))
        return scores

    def units(self, _inputs) -> int:
        return len(self.smatch_pairs) + len(self.triple_pairs)

    def check_pass(self, k: int, _inputs, scores, checks: Checks) -> None:
        values = [s if isinstance(s, Exception) else (s.matched, s.gold, s.predicted)
                  for s in scores]
        if self.first_pass is None:
            for (pid, _, _), s in zip(self.smatch_pairs + self.triple_pairs, scores):
                if checks.completed(s, pid):
                    checks.record(
                        0.0 <= s.f1 <= 1.0 and s.matched <= min(s.gold, s.predicted),
                        f"{pid}: score {s}")
            self.first_pass = values
        else:
            # later passes repeat the inputs of the checked first pass
            checks.record(values == self.first_pass, f"pass {k}: scores changed")


# ---------------------------------------------------------------------------

WORKLOADS = {
    "parse-greedy-default": (ParseWorkload, {
        "full": ParseSpec(dims=None, n_labels=12000, n_relations=100, n_words=4000, beam=1,
                          lengths=(5, 50), probe_lengths=(3,), reference_work=("memory",)),
        "smoke": ParseSpec(dims=SMALL_DIMS, n_labels=200, n_relations=20, n_words=200,
                           beam=1, lengths=(2, 6), probe_lengths=(3,),
                           reference_work=("memory",)),
    }),
    "parse-beam5-small": (ParseWorkload, {
        "full": ParseSpec(dims=SMALL_DIMS, n_labels=400, n_relations=40, n_words=400, beam=5,
                          lengths=(4, 7), probe_lengths=(4,),
                          reference_work=("python", "memory")),
        "smoke": ParseSpec(dims=SMALL_DIMS, n_labels=100, n_relations=8, n_words=100, beam=5,
                           lengths=(2,), probe_lengths=(2,), reference_work=("python", "memory")),
    }),
    "train-small": (TrainWorkload, {
        "full": TrainSpec(n_records=64, lengths=(3, 4, 5, 6), n_concepts=40, epochs=2,
                          batch_size=8, dev_every=4),
        "smoke": TrainSpec(n_records=9, lengths=(3, 4), n_concepts=10, epochs=2,
                           batch_size=4, dev_every=3),
    }),
    "graphs-roundtrip": (RoundTripWorkload, {
        "full": RoundTripSpec(sizes=(5, 10, 20, 30, 40, 50, 60), repeats=24),
        "smoke": RoundTripSpec(sizes=(30, 60), repeats=1),
    }),
    "graphs-eval": (EvalWorkload, {
        "full": EvalSpec(smatch_vars=(8, 10, 12, 14) * 12, triple_sizes=(10, 20, 30, 40),
                         oracle_pairs=24),
        "smoke": EvalSpec(smatch_vars=(6, 12), triple_sizes=(8,), oracle_pairs=4),
    }),
}


def make(name: str, size: str, seed: int, workdir: Path):
    cls, specs = WORKLOADS[name]
    return cls(name, size, specs[size], seed, workdir)
