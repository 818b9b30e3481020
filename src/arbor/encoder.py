"""Token embedding and multi-layer BiLSTM encoding.

The embedding module concatenates, in fixed order: pretrained/trained word
embeddings, character CNN output, POS embeddings and any configured
categorical feature columns; each is one lookup over the sentence's
tokens.  Each BiLSTM layer and direction is one ``autodiff.lstm_layer``
op, so the tape records of an encode do not grow with sentence length.
The encoder output exposes final-layer states plus per-layer decoder
initialization vectors ``[bwd state at token 1; fwd state at token n]``.

A batch of sentences is encoded as rows: the tokens are padded to the
longest sentence (padding rows embed id 0), every lookup and LSTM layer
runs once over the batch, and each sentence's rows equal its own encode
bit for bit.  One sentence is a batch of one.
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
    states: Tensor  # (B, n, 2H) final layer
    init: list[Tensor]  # per layer, (B, 2H) decoder initialization
    n: int  # the longest sentence's tokens
    lengths: tuple[int, ...]  # each sentence's tokens


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

    def check(self, inp: EncoderInput) -> None:
        """Raise ``ValueError`` if ``inp`` cannot be encoded: it has no
        tokens, or lacks a feature column that the encoder embeds."""
        if not inp.tokens:
            raise ValueError("cannot encode an empty sentence")
        for name in sorted(self.feature_vocabs):
            if name not in inp.features:
                raise ValueError(f"missing feature column {name!r}")

    def embed_tokens(self, batch: list[EncoderInput]) -> Tensor:
        """The embedded tokens of a batch of sentences, ``(B, n, d)`` with
        ``n`` the longest sentence and the shorter ones padded by rows of
        id 0 (``PAD``); one lookup per table."""
        n = max(len(inp.tokens) for inp in batch)

        def ids(column, vocab) -> list[int]:
            return [i for inp in batch
                    for i in [vocab.id(v) for v in column(inp)] + [0] * (n - len(inp.tokens))]

        parts = [
            self.word_emb(ids(lambda inp: inp.tokens, self.word_vocab)),
            self.char_cnn.rows([self.char_ids(t) for inp in batch
                                for t in inp.tokens + [""] * (n - len(inp.tokens))]),
            self.pos_emb(ids(lambda inp: inp.pos, self.pos_vocab)),
        ]
        for name in sorted(self.feature_vocabs):
            parts.append(self.feature_embs[name](
                ids(lambda inp: inp.features[name], self.feature_vocabs[name])))
        out = ad.concat(parts, axis=1)
        return ad.reshape(out, (len(batch), n, out.shape[1]))

    def dropout_masks(self, inp: EncoderInput, rng: np.random.Generator
                      ) -> tuple[np.ndarray, np.ndarray]:
        """The embedding and state dropout masks of one sentence, drawn in
        that order."""
        n, rate = len(inp.tokens), self.config.dropout
        return (ad.dropout_mask((n, self.embedded_dim()), rate, rng),
                ad.dropout_mask((n, 2 * self.config.encoder_hidden), rate, rng))

    def encode(self, batch: list[EncoderInput], masks=None) -> EncoderOutput:
        """Encode a batch of sentences as rows (see the module docstring).

        Dropout applies ``masks``, one ``dropout_masks`` pair per sentence,
        when given; without them the encode is deterministic.
        """
        for inp in batch:
            self.check(inp)
        lengths = tuple(len(inp.tokens) for inp in batch)
        n, h = max(lengths), self.config.encoder_hidden

        def drop(x: Tensor, k: int) -> Tensor:
            if masks is None:
                return x
            mask = np.zeros(x.shape)
            rows = mask.reshape(len(batch), n, -1)
            for b, pair in enumerate(masks):
                rows[b, : lengths[b]] = pair[k]
            return ad.mul(x, ad.constant(mask))

        per_layer = self.bilstm.run(drop(self.embed_tokens(batch), 0), lengths)
        # init[k][b] = [bwd state at token 1; fwd state at token n_b]: rows
        # 1 and 2 n_b - 2 of sentence b's states taken as rows of H (fwd, bwd
        # per token)
        ends = [i for b, m in enumerate(lengths) for i in (2 * n * b + 1, 2 * n * b + 2 * m - 2)]
        init = [ad.reshape(ad.embedding_gather(ad.reshape(states, (-1, h)), ends),
                           (len(batch), 2 * h))
                for states in per_layer]
        return EncoderOutput(drop(per_layer[-1], 1), init, n, lengths)
