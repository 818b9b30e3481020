"""Model configuration and the assembled transducer.

A ``TransducerModel`` bundles vocabularies, the encoder, the decoder and
(for AMR) the sense-restoration table, and knows how to round-trip itself
through a checkpoint file.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import nn
from .encoder import Encoder, EncoderInput
from .decoder import Decoder
from .formats import CheckpointError, read_checkpoint, save_checkpoint
from .graph import Framework
from .vocab import NODE_RESERVED, RELATION_RESERVED, Vocab

# Per-framework defaults: (encoder vocab cap, decoder vocab cap, bilinear
# input size, dropout rate).
_FRAMEWORK_DEFAULTS = {
    "amr": (18000, 12200, 128, 0.33),
    "dm": (11000, 11000, 256, 0.2),
    "ucca": (10000, 10000, 128, 0.33),
}


# config field ranges: a test of the value, and what passes
POSITIVE = (lambda v: v > 0, "a positive number")
NON_NEGATIVE = (lambda v: v >= 0, "a number of at least 0")
FRACTION = (lambda v: 0 <= v < 1, "a number in [0, 1)")
_KINDS = {"int": int, "float": (int, float), "str": str, "dict": dict}


def check_fields(config, ranges: dict) -> None:
    """Raise ``ValueError`` naming the first field of the config dataclass
    ``config`` that is not of its annotated type (an int passes as a float,
    a bool as neither) or fails its range in ``ranges``."""
    for f in fields(config):
        value, (test, allowed) = getattr(config, f.name), ranges.get(f.name, (None, None))
        if isinstance(value, bool) or not isinstance(value, _KINDS[f.type]):
            allowed = f"type {f.type}"
        elif test is None or test(value):
            continue
        raise ValueError(f"config field {f.name}: expected {allowed}, got {value!r}")


@dataclass
class ModelConfig:
    framework: str = "amr"
    word_dim: int = 300
    char_emb_dim: int = 32
    char_channels: int = 100
    pos_dim: int = 100
    feature_dim: int = 100
    feature_dims: dict = field(default_factory=dict)  # per-column override (e.g. anon: 50)
    index_dim: int = 50
    index_table_size: int = 512
    rel_dim: int = 100
    encoder_hidden: int = 512
    encoder_layers: int = 2
    decoder_layers: int = 2
    relation_hidden: int = 1024
    attn_hidden: int = 100
    biaffine_size: int = 256
    bilinear_size: int = 128
    dropout: float = 0.33
    encoder_vocab_cap: int = 18000
    decoder_vocab_cap: int = 12200

    def __post_init__(self):
        check_fields(self, _MODEL_RANGES)

    @property
    def decoder_hidden(self) -> int:
        # the decoder consumes bidirectional encoder states positionally
        return 2 * self.encoder_hidden

    @classmethod
    def defaults(cls, framework: str | Framework, **overrides) -> "ModelConfig":
        value = getattr(framework, "value", framework)
        enc_cap, dec_cap, bilinear, dropout = _FRAMEWORK_DEFAULTS[value]
        cfg = dict(
            framework=value,
            encoder_vocab_cap=enc_cap,
            decoder_vocab_cap=dec_cap,
            bilinear_size=bilinear,
            dropout=dropout,
        )
        if value == "amr":
            cfg["feature_dims"] = {"anon": 50}
        cfg.update(overrides)
        return cls(**cfg)

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, obj: dict) -> "ModelConfig":
        known = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in obj.items() if k in known})


_MODEL_RANGES = {f.name: POSITIVE for f in fields(ModelConfig) if f.type == "int"} | dict(
    framework=(lambda v: v in _FRAMEWORK_DEFAULTS, f"one of {sorted(_FRAMEWORK_DEFAULTS)}"),
    feature_dims=(lambda v: all(type(d) is int and d > 0 for d in v.values()),
                  "a positive int per feature"),
    dropout=FRACTION)


@dataclass
class Vocabularies:
    enc_word: Vocab
    dec_word: Vocab
    pos: Vocab
    char: Vocab
    rel: Vocab
    features: dict[str, Vocab] = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "enc_word": self.enc_word.to_json(),
            "dec_word": self.dec_word.to_json(),
            "pos": self.pos.to_json(),
            "char": self.char.to_json(),
            "rel": self.rel.to_json(),
            "features": {k: v.to_json() for k, v in self.features.items()},
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Vocabularies":
        return cls(
            enc_word=Vocab.from_json(obj["enc_word"]),
            dec_word=Vocab.from_json(obj["dec_word"]),
            pos=Vocab.from_json(obj["pos"]),
            char=Vocab.from_json(obj["char"]),
            rel=Vocab.from_json(obj["rel"]),
            features={k: Vocab.from_json(v) for k, v in obj.get("features", {}).items()},
        )


def build_vocabularies(config: ModelConfig, examples, references) -> Vocabularies:
    """Count tokens/labels over training data and build capped tables.

    ``examples`` are EncoderInputs; ``references`` the aligned reference
    relation sequences.
    """
    enc_words, pos_tags, chars = Counter(), Counter(), Counter()
    feature_values: dict[str, Counter] = {}
    dec_words, rels = Counter(), Counter()
    for inp in examples:
        enc_words.update(inp.tokens)
        pos_tags.update(inp.pos)
        for tok in inp.tokens:
            chars.update(tok)
        for name, col in inp.features.items():
            feature_values.setdefault(name, Counter()).update(col)
    for ref in references:
        for rel in ref.relations:
            dec_words[rel.target] += 1
            rels[rel.rel] += 1
            for ch in rel.target:
                chars[ch] += 1
    return Vocabularies(
        enc_word=Vocab.from_counter(enc_words, config.encoder_vocab_cap),
        dec_word=Vocab.from_counter(dec_words, config.decoder_vocab_cap, reserved=NODE_RESERVED),
        pos=Vocab.from_counter(pos_tags),
        char=Vocab.from_counter(chars),
        rel=Vocab.from_counter(rels, reserved=RELATION_RESERVED),
        features={name: Vocab.from_counter(cnt) for name, cnt in sorted(feature_values.items())},
    )


class TransducerModel(nn.Module):
    def __init__(self, config: ModelConfig, vocabs: Vocabularies,
                 seed: int = 0, word_init: np.ndarray | None = None,
                 sense_counts: dict[str, dict[str, int]] | None = None):
        self._assemble(config, vocabs, seed, sense_counts, np.random.default_rng(seed),
                       word_init)

    def _assemble(self, config, vocabs, seed, sense_counts, rng, word_init=None) -> None:
        """Set up the model; with ``rng`` None every weight is allocated
        without being drawn (``nn.xavier_uniform``), for ``load`` to fill."""
        super().__init__()
        self.config = config
        self.vocabs = vocabs
        self.seed = seed
        self.sense_counts = sense_counts or {}

        char_cnn = nn.CharCnn(rng, len(vocabs.char), config.char_emb_dim, config.char_channels)
        pos_table = nn.Embedding(rng, len(vocabs.pos), config.pos_dim)
        self.encoder = self.add_child(
            "encoder",
            Encoder(rng, config, vocabs.enc_word, vocabs.pos, vocabs.char,
                    vocabs.features, char_cnn, pos_table, word_init=word_init),
        )
        self.decoder = self.add_child(
            "decoder",
            Decoder(rng, config, vocabs.dec_word, vocabs.rel, vocabs.pos,
                    vocabs.char, char_cnn, pos_table),
        )

    def parameters(self, prefix: str = "") -> dict:
        # the char CNN and POS table are shared; dedupe by identity
        seen: dict[int, str] = {}
        out = {}
        for name, t in super().parameters(prefix).items():
            if id(t) in seen:
                continue
            seen[id(t)] = name
            out[name] = t
        return out

    @property
    def framework(self) -> Framework:
        return Framework(self.config.framework)

    def save(self, path) -> None:
        save_checkpoint(
            path,
            hyperparameters={"config": self.config.to_json(), "seed": self.seed},
            vocabularies={
                "vocabs": self.vocabs.to_json(),
                "sense_counts": self.sense_counts,
            },
            tensors={name: t.data for name, t in self.parameters().items()},
        )

    @classmethod
    def load(cls, path) -> "TransducerModel":
        """The model saved at ``path``.  Its weights are allocated without
        being drawn, and ``read_checkpoint`` fills every one of them or
        raises ``CheckpointError``."""
        def build(hyperparameters, vocabularies, _shapes):  # read_checkpoint checks shapes
            try:
                config = ModelConfig.from_json(hyperparameters["config"])
                vocabs = Vocabularies.from_json(vocabularies["vocabs"])
            except (KeyError, TypeError, AttributeError, ValueError) as exc:
                raise CheckpointError(f"bad checkpoint model description: {exc!r}") from exc
            model = cls.__new__(cls)
            model._assemble(config, vocabs, hyperparameters.get("seed", 0),
                            vocabularies.get("sense_counts", {}), None)
            return model, {name: t.data for name, t in model.parameters().items()}

        return read_checkpoint(path, build)


def encoder_input_from_record(record) -> EncoderInput:
    return EncoderInput(
        tokens=list(record.tokens),
        pos=list(record.pos),
        features={k: list(v) for k, v in record.features.items()},
    )
