"""Token embedding and multi-layer BiLSTM encoding.

The embedding module concatenates, in fixed order: pretrained/trained word
embeddings, character CNN output, POS embeddings and any configured
categorical feature columns.
The encoder output exposes final-layer states plus per-layer decoder
initialization vectors ``[bwd state at token 1; fwd state at token n]``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import nn
from .autodiff import Tensor
from .vocab import Vocab


@dataclass
class EncoderInput:
    tokens: list[str]
    pos: list[str]
    features: dict[str, list[str]] = field(default_factory=dict)

    def __post_init__(self):
        n = len(self.tokens)
        if len(self.pos) != n:
            raise ValueError(f"pos length {len(self.pos)} != token count {n}")
        for name, col in self.features.items():
            if len(col) != n:
                raise ValueError(f"feature {name!r} length {len(col)} != token count {n}")


@dataclass
class EncoderOutput:
    states: Tensor  # (n, 2H) final layer
    init: list[Tensor]  # per layer, (2H,) decoder initialization
    n: int


class Encoder(nn.Module):
    def __init__(self, rng, config, word_vocab: Vocab, pos_vocab: Vocab, char_vocab: Vocab,
                 feature_vocabs: dict[str, Vocab], char_cnn: nn.CharCnn,
                 pos_table: nn.Embedding, word_init: np.ndarray | None = None):
        super().__init__()
        self.config = config
        self.word_vocab = word_vocab
        self.pos_vocab = pos_vocab
        self.char_vocab = char_vocab
        self.feature_vocabs = feature_vocabs
        self.word_emb = self.add_child(
            "word", nn.Embedding(rng, len(word_vocab), config.word_dim, init=word_init)
        )
        # shared with the decoder embedding module
        self.char_cnn = self.add_child("char_cnn", char_cnn)
        self.pos_emb = self.add_child("pos", pos_table)
        self.feature_embs = {
            name: self.add_child(
                f"feat.{name}",
                nn.Embedding(rng, len(vocab), config.feature_dims.get(name, config.feature_dim)),
            )
            for name, vocab in sorted(feature_vocabs.items())
        }
        self.bilstm = self.add_child(
            "bilstm", nn.BiLstm(rng, self.embedded_dim(), config.encoder_hidden, config.encoder_layers)
        )

    def embedded_dim(self) -> int:
        d = self.config.word_dim + self.config.char_channels + self.config.pos_dim
        for name in sorted(self.feature_vocabs):
            d += self.config.feature_dims.get(name, self.config.feature_dim)
        return d

    def char_ids(self, word: str) -> list[int]:
        return [self.char_vocab.id(c) for c in word]

    def embed_tokens(self, inp: EncoderInput, train: bool = False,
                     rng: np.random.Generator | None = None) -> Tensor:
        word_rows = self.word_emb([self.word_vocab.id(t) for t in inp.tokens])
        pos_rows = self.pos_emb([self.pos_vocab.id(p) for p in inp.pos])
        char_rows = ad.stack_rows([self.char_cnn(self.char_ids(t)) for t in inp.tokens])
        parts = [word_rows, char_rows, pos_rows]
        for name in sorted(self.feature_vocabs):
            col = inp.features.get(name)
            if col is None:
                raise ValueError(f"missing feature column {name!r}")
            vocab = self.feature_vocabs[name]
            parts.append(self.feature_embs[name]([vocab.id(v) for v in col]))
        out = ad.concat(parts, axis=1)
        return ad.dropout(out, self.config.dropout, train, rng)

    def encode(self, inp: EncoderInput, train: bool = False,
               rng: np.random.Generator | None = None) -> EncoderOutput:
        if not inp.tokens:
            raise ValueError("cannot encode an empty sentence")
        embedded = self.embed_tokens(inp, train, rng)
        xs = [ad.reshape(ad.narrow(embedded, 0, t, t + 1), (embedded.shape[1],))
              for t in range(len(inp.tokens))]
        per_layer = self.bilstm.run(xs)
        h = self.config.encoder_hidden
        init = []
        for layer_states in per_layer:
            first_bwd = ad.narrow(layer_states[0], 0, h, 2 * h)
            last_fwd = ad.narrow(layer_states[-1], 0, 0, h)
            init.append(ad.concat([first_bwd, last_fwd]))
        states = ad.stack_rows(per_layer[-1])
        states = ad.dropout(states, self.config.dropout, train, rng)
        return EncoderOutput(states=states, init=init, n=len(inp.tokens))
