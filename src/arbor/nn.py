"""Network building blocks: ffn/mlp/biaffine/bilinear scorers, an LSTM
cell, a BiLSTM and a character CNN.

Scoring functions follow the definitions used throughout the decoder:

    ffn(x)            = W x + b
    mlp(x)            = elu(W x + b)
    biaffine(x1, x2)  = x1' U x2 + W [x1; x2] + b
    bilinear(x1, x2)  = x1' U x2 + b        (one U slice per output class)

Each pairwise scorer has one call form over query rows and their key or
candidate rows, which training and decoding share: the attention
scorers' ``pairs`` and the biaffine take a query vector as a one-row
matrix, and the bilinear takes one query as a one-row stack.  Word
features of the character CNN come as rows, one per word.

Parameters are plain Tensors registered under dotted names so checkpoints
can address every tensor individually.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor


def xavier_uniform(rng: np.random.Generator | None, shape) -> np.ndarray:
    """Glorot-uniform weights of ``shape``; with ``rng`` None, an array
    allocated without drawing, for a caller that fills every value (a
    checkpoint load)."""
    if rng is None:
        return np.empty(shape)
    fan_out, fan_in = (shape + (1, 1))[:2] if isinstance(shape, tuple) else (shape, 1)
    if isinstance(shape, tuple) and len(shape) > 2:
        fan_in = int(np.prod(shape[1:]))
    a = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-a, a, size=shape)


class Module:
    """Base with a name->Tensor parameter registry."""

    def __init__(self):
        self._params: dict[str, Tensor] = {}
        self._children: dict[str, "Module"] = {}

    def register(self, name: str, data: np.ndarray) -> Tensor:
        t = Tensor(data, requires_grad=True)
        self._params[name] = t
        return t

    def add_child(self, name: str, module: "Module") -> "Module":
        self._children[name] = module
        return module

    def parameters(self, prefix: str = "") -> dict[str, Tensor]:
        out = {}
        for name, t in self._params.items():
            out[prefix + name] = t
        for cname, child in self._children.items():
            out.update(child.parameters(prefix + cname + "."))
        return out

    def zero_grads(self) -> None:
        for t in self.parameters().values():
            t.zero_grad()


class Linear(Module):
    """ffn(x) = W x + b; accepts a vector, a matrix of row vectors or a stack
    of such matrices (see ``autodiff.affine`` for ``per_row``)."""

    def __init__(self, rng, in_dim: int, out_dim: int):
        super().__init__()
        self.in_dim, self.out_dim = in_dim, out_dim
        self.w = self.register("w", xavier_uniform(rng, (out_dim, in_dim)))
        self.b = self.register("b", np.zeros(out_dim))

    def __call__(self, x: Tensor, per_row: bool = False) -> Tensor:
        return ad.affine(x, self.w, self.b, per_row)


class Mlp(Module):
    """mlp(x) = elu(W x + b)."""

    def __init__(self, rng, in_dim: int, out_dim: int):
        super().__init__()
        self.lin = self.add_child("lin", Linear(rng, in_dim, out_dim))

    def __call__(self, x: Tensor, per_row: bool = False) -> Tensor:
        return ad.elu(self.lin(x, per_row))


class AttentionScorer(Module):
    """Additive attention scoring: project elu hidden features to a scalar.

    A bare elu layer straight to one dimension cannot depend on the query
    in its linear regime (a per-query constant shift cancels under
    softmax), so the scorer keeps a hidden layer and an output projection.
    """

    def __init__(self, rng, in_dim: int, hidden: int):
        super().__init__()
        self.mlp = self.add_child("mlp", Mlp(rng, in_dim, hidden))
        self.out = self.add_child("out", Linear(rng, hidden, 1))

    def pairs(self, queries: Tensor, keys: Tensor) -> Tensor:
        """Scores of every query row against every key row, ``(m, n)``; for
        stacks ``(s, m, d)`` and ``(s, n, d)``, of each matrix's queries
        against its own keys, ``(s, m, n)``.  A query vector against a key
        matrix is a one-row query matrix, giving ``(n,)``, and query rows
        ``(m, d)`` each against its own key matrix ``(m, n, d)`` are a
        stack of one-row query matrices, giving ``(m, n)``.

        The first layer is split as ``W [q; k] = W_q q + W_k k``, both
        halves sliced from the one weight, so no ``[q; k]`` row is built.
        The output layer keeps the stack axis: each matrix of a stack is its
        own product, so its scores are bit-equal to that matrix alone.
        """
        lin = self.mlp.lin
        shape, d = queries.shape[:-1] + keys.shape[-2:-1], queries.shape[-1]
        if keys.ndim == queries.ndim + 1:  # one-row query matrices
            queries = ad.reshape(queries, queries.shape[:-1] + (1, d))
        q = ad.affine(queries, ad.narrow(lin.w, 1, 0, d), lin.b)
        k = ad.affine(keys, ad.narrow(lin.w, 1, d, lin.in_dim),
                      ad.constant(np.zeros(lin.out_dim)))
        hidden = ad.elu(ad.pairwise_add(q, k))
        hidden = ad.reshape(hidden, queries.shape[:-2] + (-1, lin.out_dim))
        return ad.reshape(self.out(hidden), shape)


class Biaffine(Module):
    """Scores query rows ``(..., m, dim1)`` against candidate rows ``(...,
    n, dim2)``, giving ``(..., m, n)``: one query matrix against one
    candidate matrix, or each matrix of a stack against its own.  A query
    vector against a candidate matrix is a one-row query matrix, giving
    ``(n,)``, and query rows ``(m, dim1)`` each against its own candidate
    matrix ``(m, n, dim2)`` are a stack of one-row query matrices, giving
    ``(m, n)``.  A one-row query is projected by a vector product, so each
    row of the per-query form is bit-equal to that query alone; the
    projections of a query matrix of several rows are one gemm, so a row
    agrees with the query alone to rounding."""

    def __init__(self, rng, dim1: int, dim2: int):
        super().__init__()
        self.dim1, self.dim2 = dim1, dim2
        self.u = self.register("u", xavier_uniform(rng, (dim1, dim2)))
        self.w = self.register("w", xavier_uniform(rng, (dim1 + dim2,)))
        self.b = self.register("b", np.zeros(()))

    def __call__(self, x1: Tensor, x2: Tensor) -> Tensor:
        d1, d2 = self.dim1, self.dim2
        given, shape = (x1.shape, x2.shape), x1.shape[:-1] + x2.shape[-2:-1]
        if x2.ndim == x1.ndim + 1:  # one-row query matrices
            x1 = ad.reshape(x1, x1.shape[:-1] + (1,) + x1.shape[-1:])
        if not (x1.ndim == x2.ndim in (2, 3) and x1.shape[:-2] == x2.shape[:-2]
                and x1.shape[-1] == d1 and x2.shape[-1] == d2):
            raise ad.ShapeError(
                f"biaffine: got {given[0]} and {given[1]}, expected ({d1},) or (m, {d1}) "
                f"and (n, {d2}), (m, {d1}) and (m, n, {d2}), or (s, m, {d1}) and (s, n, {d2})"
            )
        w1 = ad.reshape(ad.narrow(self.w, 0, 0, d1), (d1, 1))
        w2 = ad.reshape(ad.narrow(self.w, 0, d1, d1 + d2), (d2, 1))
        bil = ad.transpose(ad.matmul(x2, ad.transpose(ad.matmul(x1, self.u))))
        lin = ad.reshape(ad.pairwise_add(ad.matmul(x1, w1), ad.matmul(x2, w2)), bil.shape)
        return ad.reshape(ad.add(lin, ad.add(bil, self.b)), shape)


class Bilinear(Module):
    """x1' U_k x2 + b_k for each of k classes, for query rows: ``x2`` holds
    ``q`` queries ``(q, dim2)`` and ``x1`` one matrix of source rows per
    query, ``(q, m, dim1)``, giving ``(q, m, k)``.  One query is a one-row
    stack.  The queries are projected by one gemm, so each query's block
    agrees with that query alone to rounding; with ``per_row`` each query is
    its own product and its block is bit-equal to it.
    """

    def __init__(self, rng, dim1: int, dim2: int, classes: int):
        super().__init__()
        self.dim1, self.dim2, self.classes = dim1, dim2, classes
        self.u = self.register("u", xavier_uniform(rng, (classes, dim1, dim2)))
        self.b = self.register("b", np.zeros(classes))

    def __call__(self, x1: Tensor, x2: Tensor, per_row: bool = False) -> Tensor:
        k, d1, d2 = self.classes, self.dim1, self.dim2
        if not (x1.ndim == 3 and x2.ndim == 2 and x1.shape[0] == x2.shape[0]
                and x1.shape[2] == d1 and x2.shape[1] == d2):
            raise ad.ShapeError(
                f"bilinear: got {x1.shape} and {x2.shape}, expected (q, m, {d1}) and (q, {d2})")
        q, flat = x2.shape[0], ad.reshape(self.u, (k * d1, d2))
        if per_row:
            t = ad.matmul(flat, ad.reshape(x2, (q, d2, 1)))
        else:
            t = ad.transpose(ad.matmul(flat, ad.transpose(x2)))
        return ad.add(ad.matmul(x1, ad.transpose(ad.reshape(t, (q, k, d1)))), self.b)


class Embedding(Module):
    def __init__(self, rng, rows: int, dim: int, init: np.ndarray | None = None):
        super().__init__()
        data = init if init is not None else xavier_uniform(rng, (rows, dim))
        if data.shape != (rows, dim):
            raise ad.ShapeError(f"embedding init shape {data.shape} != ({rows}, {dim})")
        self.rows, self.dim = rows, dim
        self.table = self.register("table", np.asarray(data, dtype=float))

    def __call__(self, ids) -> Tensor:
        return ad.embedding_gather(self.table, ids)


class LstmCell(Module):
    """An LSTM over the rows of a matrix or over B padded sequences
    (``layer``), or one forward-only decode step over rows of independent
    cells (``__call__``, see ``autodiff.lstm_step``); gate order i, f, g,
    o; forget bias 1."""

    def __init__(self, rng, in_dim: int, hidden: int):
        super().__init__()
        self.in_dim, self.hidden = in_dim, hidden
        self.w_ih = self.register("w_ih", xavier_uniform(rng, (4 * hidden, in_dim)))
        self.w_hh = self.register("w_hh", xavier_uniform(rng, (4 * hidden, hidden)))
        bias = np.zeros(4 * hidden)
        bias[hidden : 2 * hidden] = 1.0
        self.b = self.register("b", bias)

    def __call__(self, x: Tensor, state: tuple[Tensor, Tensor], state_rows,
                 input_rows=None) -> tuple[Tensor, Tensor]:
        return ad.lstm_step(x, *state, self.w_ih, self.w_hh, self.b, state_rows, input_rows)

    def layer(self, x: Tensor, state: tuple[Tensor, Tensor] | None = None,
              reverse: bool = False, lengths=None) -> Tensor:
        """The ``h`` rows of the recurrence over the rows of ``x``, or over
        the ``lengths`` of B padded sequences, from ``state`` (zeros by
        default); see ``autodiff.lstm_layer``."""
        h0, c0 = state if state is not None else self.zero_state(x.shape[:-2])
        return ad.lstm_layer(x, h0, c0, self.w_ih, self.w_hh, self.b, reverse, lengths)

    def zero_state(self, lead: tuple = ()) -> tuple[Tensor, Tensor]:
        """Zero ``(h, c)`` vectors, or ``lead + (hidden,)`` stacks of them."""
        return (ad.constant(np.zeros(lead + (self.hidden,))),
                ad.constant(np.zeros(lead + (self.hidden,))))


class BiLstm(Module):
    """Concatenated forward/backward LSTM stack; each layer and direction
    runs as one ``autodiff.lstm_layer`` op over the sentence's rows, or over
    a batch of padded sentences."""

    def __init__(self, rng, in_dim: int, hidden: int, layers: int):
        super().__init__()
        if layers < 1:
            raise ValueError("BiLSTM needs at least one layer")
        self.hidden, self.layers = hidden, layers
        self.fwd = []
        self.bwd = []
        for k in range(layers):
            dim = in_dim if k == 0 else 2 * hidden
            self.fwd.append(self.add_child(f"l{k}.fwd", LstmCell(rng, dim, hidden)))
            self.bwd.append(self.add_child(f"l{k}.bwd", LstmCell(rng, dim, hidden)))

    def run(self, x: Tensor, lengths=None) -> list[Tensor]:
        """Per-layer ``(n, 2H)`` matrices of [fwd; bwd] states for the
        ``(n, d)`` input rows, row = time step; for B padded sentences
        ``(B, n, d)`` of ``lengths`` rows each, ``(B, n, 2H)`` stacks (see
        ``autodiff.lstm_layer`` for the padded rows)."""
        if not x.shape[-2]:
            raise ValueError("empty sequence")
        per_layer = []
        for fwd, bwd in zip(self.fwd, self.bwd):
            x = ad.concat([fwd.layer(x, lengths=lengths),
                           bwd.layer(x, reverse=True, lengths=lengths)], axis=-1)
            per_layer.append(x)
        return per_layer


class CharCnn(Module):
    """Width-3 convolution over character embeddings with max pooling.

    Character ids use 0 as padding; one pad column is added on each side,
    and an empty word convolves a single all-padding window, so the output
    is always ``channels``-dimensional.
    """

    def __init__(self, rng, n_chars: int, char_dim: int, channels: int, kernel: int = 3):
        super().__init__()
        if kernel % 2 != 1:
            raise ValueError("kernel width must be odd")
        self.kernel, self.char_dim, self.channels = kernel, char_dim, channels
        self.emb = self.add_child("emb", Embedding(rng, n_chars, char_dim))
        self.w = self.register("w", xavier_uniform(rng, (channels, kernel * char_dim)))
        self.b = self.register("b", np.zeros(channels))

    def _window_ids(self, char_ids: list[int]) -> list[int]:
        """Character ids of the word's windows, end to end (window ``j`` is
        ``ids[j : j + kernel]`` of the padded word)."""
        pad = self.kernel // 2
        ids = [0] * pad + list(char_ids) + [0] * pad
        if len(char_ids) == 0:
            ids = [0] * self.kernel
        return [ids[j + k] for j in range(max(len(char_ids), 1)) for k in range(self.kernel)]

    def rows(self, words: list[list[int]]) -> Tensor:
        """The pooled features of several words, ``(len(words), channels)``,
        by one lookup and one ``affine_max`` over all of their windows; each
        row is bit-equal to the word alone."""
        ids = [i for w in words for i in self._window_ids(w)]
        windows = ad.reshape(self.emb(ids), (len(ids) // self.kernel, self.kernel * self.char_dim))
        return ad.affine_max(windows, self.w, self.b, [max(len(w), 1) for w in words])
