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
from .formats import CheckpointError, load_checkpoint, save_checkpoint
from .graph import Framework
from .vocab import NODE_RESERVED, RELATION_RESERVED, Vocab

# Per-framework defaults: (encoder vocab cap, decoder vocab cap, bilinear
# input size, dropout rate).
_FRAMEWORK_DEFAULTS = {
    "amr": (18000, 12200, 128, 0.33),
    "dm": (11000, 11000, 256, 0.2),
    "ucca": (10000, 10000, 128, 0.33),
}


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

    @classmethod
    def tiny(cls, framework: str = "amr", **overrides) -> "ModelConfig":
        """Small dimensions for tests; same architecture."""
        cfg = dict(
            framework=framework,
            word_dim=16, char_emb_dim=6, char_channels=8, pos_dim=6,
            feature_dim=4, index_dim=6, index_table_size=64, rel_dim=8,
            encoder_hidden=12, encoder_layers=2, decoder_layers=2,
            relation_hidden=20, attn_hidden=10, biaffine_size=10, bilinear_size=10,
            dropout=0.0, encoder_vocab_cap=5000, decoder_vocab_cap=5000,
        )
        cfg.update(overrides)
        return cls(**cfg)

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, obj: dict) -> "ModelConfig":
        known = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in obj.items() if k in known})


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
        super().__init__()
        self.config = config
        self.vocabs = vocabs
        self.seed = seed
        self.sense_counts = sense_counts or {}
        rng = np.random.default_rng(seed)

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
        ckpt = load_checkpoint(path)
        config = ModelConfig.from_json(ckpt.hyperparameters["config"])
        vocabs = Vocabularies.from_json(ckpt.vocabularies["vocabs"])
        model = cls(config, vocabs, seed=ckpt.hyperparameters.get("seed", 0),
                    sense_counts=ckpt.vocabularies.get("sense_counts", {}))
        params = model.parameters()
        missing = set(params) - set(ckpt.tensors)
        extra = set(ckpt.tensors) - set(params)
        if missing or extra:
            raise CheckpointError(
                f"checkpoint/model tensor mismatch: missing={sorted(missing)[:3]} "
                f"extra={sorted(extra)[:3]}"
            )
        for name, t in params.items():
            stored = ckpt.tensors.pop(name)
            if stored.shape != t.data.shape:
                raise CheckpointError(
                    f"tensor {name!r} shape {stored.shape} != expected {t.data.shape}"
                )
            np.copyto(t.data, stored)
        return model


def encoder_input_from_record(record) -> EncoderInput:
    return EncoderInput(
        tokens=list(record.tokens),
        pos=list(record.pos),
        features={k: list(v) for k, v in record.features.items()},
    )
