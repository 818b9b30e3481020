"""Network building blocks: ffn/mlp/biaffine/bilinear scorers, an LSTM
cell, a BiLSTM and a character CNN.

Scoring functions follow the definitions used throughout the decoder:

    ffn(x)            = W x + b
    mlp(x)            = elu(W x + b)
    biaffine(x1, x2)  = x1' U x2 + W [x1; x2] + b
    bilinear(x1, x2)  = x1' U x2 + b        (one U slice per output class)

Parameters are plain Tensors registered under dotted names so checkpoints
can address every tensor individually.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor


def xavier_uniform(rng: np.random.Generator, shape) -> np.ndarray:
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
    """ffn(x) = W x + b; accepts a vector or a matrix of row vectors."""

    def __init__(self, rng, in_dim: int, out_dim: int):
        super().__init__()
        self.in_dim, self.out_dim = in_dim, out_dim
        self.w = self.register("w", xavier_uniform(rng, (out_dim, in_dim)))
        self.b = self.register("b", np.zeros(out_dim))

    def __call__(self, x: Tensor) -> Tensor:
        return ad.affine(x, self.w, self.b)


class Mlp(Module):
    """mlp(x) = elu(W x + b)."""

    def __init__(self, rng, in_dim: int, out_dim: int):
        super().__init__()
        self.lin = self.add_child("lin", Linear(rng, in_dim, out_dim))

    def __call__(self, x: Tensor) -> Tensor:
        return ad.elu(self.lin(x))


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

    def __call__(self, rows: Tensor) -> Tensor:
        n = rows.shape[0]
        return ad.reshape(self.out(self.mlp(rows)), (n,))


class Biaffine(Module):
    """Scores one query vector against a matrix of candidate rows."""

    def __init__(self, rng, dim1: int, dim2: int):
        super().__init__()
        self.dim1, self.dim2 = dim1, dim2
        self.u = self.register("u", xavier_uniform(rng, (dim1, dim2)))
        self.w = self.register("w", xavier_uniform(rng, (dim1 + dim2,)))
        self.b = self.register("b", np.zeros(()))

    def __call__(self, x1: Tensor, x2_rows: Tensor) -> Tensor:
        if x1.shape != (self.dim1,) or x2_rows.ndim != 2 or x2_rows.shape[1] != self.dim2:
            raise ad.ShapeError(
                f"biaffine: got {x1.shape} and {x2_rows.shape}, "
                f"expected ({self.dim1},) and (m, {self.dim2})"
            )
        bil = ad.matmul(x2_rows, ad.matmul(x1, self.u))  # (m,)
        w1 = ad.narrow(self.w, 0, 0, self.dim1)
        w2 = ad.narrow(self.w, 0, self.dim1, self.dim1 + self.dim2)
        lin = ad.add(ad.matmul(x2_rows, w2), ad.matmul(w1, x1))
        return ad.add(lin, ad.add(bil, self.b))


class Bilinear(Module):
    """x1' U_k x2 + b_k for each of k classes.

    ``x1`` is a vector, giving ``(k,)`` scores, or a matrix of rows scored
    against the one ``x2``, giving ``(m, k)``.  The two forms multiply in
    different orders (gemv and gemm), so a row of the matrix form can
    differ from the vector form in the last bits.
    """

    def __init__(self, rng, dim1: int, dim2: int, classes: int):
        super().__init__()
        self.dim1, self.dim2, self.classes = dim1, dim2, classes
        self.u = self.register("u", xavier_uniform(rng, (classes, dim1, dim2)))
        self.b = self.register("b", np.zeros(classes))

    def __call__(self, x1: Tensor, x2: Tensor) -> Tensor:
        if x1.ndim not in (1, 2) or x1.shape[-1] != self.dim1 or x2.shape != (self.dim2,):
            raise ad.ShapeError(
                f"bilinear: got {x1.shape} and {x2.shape}, "
                f"expected ({self.dim1},) or (m, {self.dim1}) and ({self.dim2},)"
            )
        flat = ad.reshape(self.u, (self.classes * self.dim1, self.dim2))
        t = ad.reshape(ad.matmul(flat, x2), (self.classes, self.dim1))
        if x1.ndim == 2:
            return ad.add(ad.matmul(x1, ad.transpose(t)), self.b)
        return ad.add(ad.matmul(t, x1), self.b)


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

    def one(self, i: int) -> Tensor:
        return ad.embed_one(self.table, i)


class LstmCell(Module):
    """Single LSTM step on vectors; gate order i, f, g, o; forget bias 1."""

    def __init__(self, rng, in_dim: int, hidden: int):
        super().__init__()
        self.in_dim, self.hidden = in_dim, hidden
        self.w_ih = self.register("w_ih", xavier_uniform(rng, (4 * hidden, in_dim)))
        self.w_hh = self.register("w_hh", xavier_uniform(rng, (4 * hidden, hidden)))
        bias = np.zeros(4 * hidden)
        bias[hidden : 2 * hidden] = 1.0
        self.b = self.register("b", bias)

    def __call__(self, x: Tensor, state: tuple[Tensor, Tensor]) -> tuple[Tensor, Tensor]:
        h_prev, c_prev = state
        return ad.lstm_cell(x, h_prev, c_prev, self.w_ih, self.w_hh, self.b)

    def zero_state(self) -> tuple[Tensor, Tensor]:
        return ad.constant(np.zeros(self.hidden)), ad.constant(np.zeros(self.hidden))


class BiLstm(Module):
    """Concatenated forward/backward LSTM stack."""

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

    def run(self, inputs: list[Tensor]) -> list[list[Tensor]]:
        """Per-layer lists of [fwd;bwd] states, index = time step."""
        if not inputs:
            raise ValueError("empty sequence")
        per_layer: list[list[Tensor]] = []
        xs = inputs
        for k in range(self.layers):
            f_states, state = [], self.fwd[k].zero_state()
            for x in xs:
                h, c = self.fwd[k](x, state)
                state = (h, c)
                f_states.append(h)
            b_states, state = [], self.bwd[k].zero_state()
            for x in reversed(xs):
                h, c = self.bwd[k](x, state)
                state = (h, c)
                b_states.append(h)
            b_states.reverse()
            xs = [ad.concat([f, b]) for f, b in zip(f_states, b_states)]
            per_layer.append(xs)
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

    def __call__(self, char_ids: list[int]) -> Tensor:
        pad = self.kernel // 2
        ids = [0] * pad + list(char_ids) + [0] * pad
        if len(char_ids) == 0:
            ids = [0] * self.kernel
        n_win = max(len(char_ids), 1)
        # row j of ``windows`` is the embeddings of ids[j : j + kernel], end to end
        window_ids = [ids[j + k] for j in range(n_win) for k in range(self.kernel)]
        windows = ad.reshape(self.emb(window_ids), (n_win, self.kernel * self.char_dim))
        return ad.amax(ad.affine(windows, self.w, self.b), axis=0)
