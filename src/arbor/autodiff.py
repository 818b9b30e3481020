"""Reverse-mode automatic differentiation over dense numpy tensors.

Minimal tape-based engine: operations record backward closures onto the
active :class:`Tape`; :func:`backward` replays the tape in reverse and
accumulates gradients additively.  With no tape active, operations run as
plain numpy, which is what inference uses.

The fused ops ``affine``, ``lstm_cell`` and ``embed_one`` each take one
tape record with a hand-written backward.  A fused forward evaluates the
same numpy expressions in the same order as the composed ops it replaces,
so its outputs are bit-identical to theirs; only the order in which
gradients are summed may differ.

Broadcasting is deliberately restricted: elementwise ops require equal
shapes except that (a) python scalars and 0-d tensors pair with anything
and (b) ``add`` of a matrix and a vector broadcasts the vector over the
leading axis (bias add).  Everything else is a shape error.
"""

from __future__ import annotations

import threading

import numpy as np

_TLS = threading.local()


class ShapeError(ValueError):
    pass


class TapeError(RuntimeError):
    pass


class Tensor:
    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    def _accum(self, delta: np.ndarray) -> None:
        if self.grad is None:
            # a copy: ``delta`` may be another tensor's gradient or a view of it
            self.grad = np.array(delta, dtype=self.data.dtype)
        else:
            self.grad += delta

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(self, other)

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)


class Tape:
    """Ordered record of operations; backward replays it exactly once."""

    def __init__(self):
        self.records: list = []
        self.consumed = False

    def __enter__(self):
        stack = getattr(_TLS, "stack", None)
        if stack is None:
            stack = _TLS.stack = []
        stack.append(self)
        return self

    def __exit__(self, *exc):
        _TLS.stack.pop()
        return False

    def backward(self, loss: Tensor) -> None:
        if loss.shape != ():
            raise ShapeError(f"backward requires a scalar loss, got shape {loss.shape}")
        if self.consumed:
            raise TapeError("tape already consumed; re-record the computation")
        self.consumed = True
        loss._accum(np.ones((), dtype=loss.data.dtype))
        for record in reversed(self.records):
            record()


def _active_tape() -> Tape | None:
    stack = getattr(_TLS, "stack", None)
    return stack[-1] if stack else None


def backward(loss: Tensor) -> None:
    """Run backward on the innermost active tape."""
    tape = _active_tape()
    if tape is None:
        raise TapeError("no active tape; wrap the forward pass in `with Tape() as t:`")
    tape.backward(loss)


def _apply(out_data: np.ndarray, pairs, op: str) -> Tensor:
    """Build the output tensor and record backward closures.

    ``pairs`` is a sequence of ``(input, grad_fn)`` where ``grad_fn`` maps
    the output gradient to the input's gradient contribution.
    """
    tape = _active_tape()
    needs = tape is not None and any(t.requires_grad for t, _ in pairs)
    out = Tensor(out_data, requires_grad=needs)
    if needs:
        inputs = [(t, fn) for t, fn in pairs if t.requires_grad]

        def record():
            g = out.grad
            if g is None:
                return
            for t, fn in inputs:
                t._accum(fn(g))

        tape.records.append(record)
    return out


def constant(x) -> Tensor:
    return Tensor(x, requires_grad=False)


# ---------------------------------------------------------------------------
# Elementwise and shape ops


def add(a: Tensor, b) -> Tensor:
    if not isinstance(b, Tensor):
        return _apply(a.data + b, [(a, lambda g: g)], "add")
    if a.shape == b.shape:
        return _apply(a.data + b.data, [(a, lambda g: g), (b, lambda g: g)], "add")
    if a.ndim == 0:
        return _apply(a.data + b.data, [(a, lambda g: g.sum()), (b, lambda g: g)], "add")
    if b.ndim == 0:
        return _apply(a.data + b.data, [(a, lambda g: g), (b, lambda g: g.sum())], "add")
    if a.ndim == 2 and b.ndim == 1 and a.shape[1] == b.shape[0]:
        # bias add over the leading axis
        return _apply(a.data + b.data, [(a, lambda g: g), (b, lambda g: g.sum(axis=0))], "add")
    raise ShapeError(f"add: incompatible shapes {a.shape} and {b.shape}")


def sub(a: Tensor, b) -> Tensor:
    if not isinstance(b, Tensor):
        return _apply(a.data - b, [(a, lambda g: g)], "sub")
    if a.shape != b.shape and a.ndim != 0 and b.ndim != 0:
        raise ShapeError(f"sub: incompatible shapes {a.shape} and {b.shape}")
    return _apply(
        a.data - b.data,
        [
            (a, (lambda g: g.sum()) if a.ndim == 0 and b.ndim != 0 else (lambda g: g)),
            (b, (lambda g: -g.sum()) if b.ndim == 0 and a.ndim != 0 else (lambda g: -g)),
        ],
        "sub",
    )


def mul(a: Tensor, b) -> Tensor:
    if not isinstance(b, Tensor):
        return _apply(a.data * b, [(a, lambda g: g * b)], "mul")
    if a.shape == b.shape:
        return _apply(
            a.data * b.data,
            [(a, lambda g: g * b.data), (b, lambda g: g * a.data)],
            "mul",
        )
    if a.ndim == 0:
        return _apply(
            a.data * b.data,
            [(a, lambda g: (g * b.data).sum()), (b, lambda g: g * a.data)],
            "mul",
        )
    if b.ndim == 0:
        return _apply(
            a.data * b.data,
            [(a, lambda g: g * b.data), (b, lambda g: (g * a.data).sum())],
            "mul",
        )
    raise ShapeError(f"mul: incompatible shapes {a.shape} and {b.shape}")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim == 2 and b.ndim == 2:
        if a.shape[1] != b.shape[0]:
            raise ShapeError(f"matmul: {a.shape} @ {b.shape}")
        return _apply(
            a.data @ b.data,
            [(a, lambda g: g @ b.data.T), (b, lambda g: a.data.T @ g)],
            "matmul",
        )
    if a.ndim == 2 and b.ndim == 1:
        if a.shape[1] != b.shape[0]:
            raise ShapeError(f"matmul: {a.shape} @ {b.shape}")
        return _apply(
            a.data @ b.data,
            [(a, lambda g: np.outer(g, b.data)), (b, lambda g: a.data.T @ g)],
            "matmul",
        )
    if a.ndim == 1 and b.ndim == 2:
        if a.shape[0] != b.shape[0]:
            raise ShapeError(f"matmul: {a.shape} @ {b.shape}")
        return _apply(
            a.data @ b.data,
            [(a, lambda g: b.data @ g), (b, lambda g: np.outer(a.data, g))],
            "matmul",
        )
    if a.ndim == 1 and b.ndim == 1:
        if a.shape[0] != b.shape[0]:
            raise ShapeError(f"matmul: {a.shape} @ {b.shape}")
        return _apply(
            a.data @ b.data,
            [(a, lambda g: g * b.data), (b, lambda g: g * a.data)],
            "matmul",
        )
    raise ShapeError(f"matmul: unsupported ranks {a.shape} @ {b.shape}")


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``w @ x + b`` for a vector ``x``, ``x @ w.T + b`` for a matrix of rows.

    One op in place of matmul + add (+ transpose).  The rows form multiplies
    by a C-ordered copy of ``w.T``, as ``matmul(x, transpose(w))`` did: BLAS
    takes another kernel for a transposed view and rounds differently.
    """
    if (w.ndim != 2 or b.shape != (w.shape[0],) or x.ndim not in (1, 2)
            or x.shape[-1] != w.shape[1]):
        raise ShapeError(f"affine: x {x.shape}, w {w.shape}, b {b.shape}")
    if x.ndim == 1:
        return _apply(
            w.data @ x.data + b.data,
            [(x, lambda g: w.data.T @ g), (w, lambda g: np.outer(g, x.data)), (b, lambda g: g)],
            "affine",
        )
    return _apply(
        x.data @ w.data.T.copy() + b.data,
        [(x, lambda g: g @ w.data), (w, lambda g: g.T @ x.data), (b, lambda g: g.sum(axis=0))],
        "affine",
    )


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = list(tensors)
    if not tensors:
        raise ShapeError("concat of no tensors")
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def slicer(k):
        lo, hi = offsets[k], offsets[k + 1]

        def fn(g):
            index = [slice(None)] * g.ndim
            index[axis] = slice(lo, hi)
            return g[tuple(index)]

        return fn

    return _apply(out_data, [(t, slicer(k)) for k, t in enumerate(tensors)], "concat")


def stack_rows(tensors) -> Tensor:
    """Stack 1-d tensors into a matrix, one per row."""
    tensors = list(tensors)
    if not tensors:
        raise ShapeError("stack_rows of no tensors")
    out_data = np.stack([t.data for t in tensors], axis=0)

    def slicer(k):
        return lambda g: g[k]

    return _apply(out_data, [(t, slicer(k)) for k, t in enumerate(tensors)], "stack_rows")


def narrow(x: Tensor, axis: int, start: int, stop: int) -> Tensor:
    index = [slice(None)] * x.ndim
    index[axis] = slice(start, stop)
    index = tuple(index)

    def fn(g):
        full = np.zeros_like(x.data)
        full[index] = g
        return full

    return _apply(x.data[index], [(x, fn)], "narrow")


def element(x: Tensor, i: int) -> Tensor:
    """Pick one entry of a 1-d tensor as a scalar."""
    if x.ndim != 1:
        raise ShapeError(f"element expects a vector, got shape {x.shape}")

    def fn(g):
        full = np.zeros_like(x.data)
        full[i] = g
        return full

    return _apply(x.data[i], [(x, fn)], "element")


def reshape(x: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    return _apply(x.data.reshape(shape), [(x, lambda g: g.reshape(x.shape))], "reshape")


def transpose(x: Tensor) -> Tensor:
    if x.ndim != 2:
        raise ShapeError(f"transpose expects a matrix, got shape {x.shape}")
    return _apply(x.data.T.copy(), [(x, lambda g: g.T.copy())], "transpose")


def repeat_rows(v: Tensor, n: int) -> Tensor:
    """Tile a vector into n identical rows."""
    if v.ndim != 1:
        raise ShapeError(f"repeat_rows expects a vector, got shape {v.shape}")
    out = np.broadcast_to(v.data, (n, v.shape[0])).copy()
    return _apply(out, [(v, lambda g: g.sum(axis=0))], "repeat_rows")


def sum_all(x: Tensor) -> Tensor:
    return _apply(x.data.sum(), [(x, lambda g: np.full_like(x.data, g))], "sum")


def sum_axis(x: Tensor, axis: int) -> Tensor:
    def fn(g):
        return np.broadcast_to(np.expand_dims(g, axis), x.shape).copy()

    return _apply(x.data.sum(axis=axis), [(x, fn)], "sum")


def amax(x: Tensor, axis: int = 0) -> Tensor:
    """Max-reduce along an axis; gradient flows to the first maximum."""
    idx = np.argmax(x.data, axis=axis)
    out = np.max(x.data, axis=axis)

    def fn(g):
        full = np.zeros_like(x.data)
        if x.ndim == 1:
            full[idx] = g
        elif axis == 0:
            full[idx, np.arange(x.shape[1])] = g
        else:
            full[np.arange(x.shape[0]), idx] = g
        return full

    return _apply(out, [(x, fn)], "amax")


def maximum(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"maximum: incompatible shapes {a.shape} and {b.shape}")
    take_a = a.data >= b.data  # ties go to the first argument
    return _apply(
        np.maximum(a.data, b.data),
        [(a, lambda g: g * take_a), (b, lambda g: g * ~take_a)],
        "maximum",
    )


def minimum(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"minimum: incompatible shapes {a.shape} and {b.shape}")
    take_a = a.data <= b.data
    return _apply(
        np.minimum(a.data, b.data),
        [(a, lambda g: g * take_a), (b, lambda g: g * ~take_a)],
        "minimum",
    )


# ---------------------------------------------------------------------------
# Nonlinearities and normalizations


def log(x: Tensor) -> Tensor:
    return _apply(np.log(x.data), [(x, lambda g: g / x.data)], "log")


def exp(x: Tensor) -> Tensor:
    out = np.exp(x.data)
    return _apply(out, [(x, lambda g: g * out)], "exp")


def tanh(x: Tensor) -> Tensor:
    out = np.tanh(x.data)
    return _apply(out, [(x, lambda g: g * (1.0 - out * out))], "tanh")


def sigmoid(x: Tensor) -> Tensor:
    out = 1.0 / (1.0 + np.exp(-x.data))
    return _apply(out, [(x, lambda g: g * out * (1.0 - out))], "sigmoid")


def elu(x: Tensor) -> Tensor:
    """elu(x) = x for x > 0, exp(x) - 1 otherwise."""
    out = np.where(x.data > 0, x.data, np.expm1(x.data))
    return _apply(out, [(x, lambda g: g * np.where(x.data > 0, 1.0, out + 1.0))], "elu")


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x.data - np.max(x.data, axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def fn(g):
        return (g - (g * out).sum(axis=axis, keepdims=True)) * out

    return _apply(out, [(x, fn)], "softmax")


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x.data - np.max(x.data, axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out = shifted - lse
    soft = np.exp(out)

    def fn(g):
        return g - soft * g.sum(axis=axis, keepdims=True)

    return _apply(out, [(x, fn)], "log_softmax")


# ---------------------------------------------------------------------------
# Fused layers


def lstm_cell(x: Tensor, h: Tensor, c: Tensor, w_ih: Tensor, w_hh: Tensor,
              b: Tensor) -> tuple[Tensor, Tensor]:
    """One LSTM step on vectors (gate order i, f, g, o); returns ``(h, c)``.

    A single tape record with a hand-written backward.  A missing gradient
    on either output counts as zero.
    """
    hid = h.shape[0]
    if (x.ndim != 1 or h.shape != (hid,) or c.shape != (hid,)
            or w_ih.shape != (4 * hid, x.shape[0]) or w_hh.shape != (4 * hid, hid)
            or b.shape != (4 * hid,)):
        raise ShapeError(
            f"lstm_cell: x {x.shape}, h {h.shape}, c {c.shape}, "
            f"w_ih {w_ih.shape}, w_hh {w_hh.shape}, b {b.shape}"
        )
    gates = w_ih.data @ x.data + w_hh.data @ h.data + b.data
    i = 1.0 / (1.0 + np.exp(-gates[0:hid]))
    f = 1.0 / (1.0 + np.exp(-gates[hid : 2 * hid]))
    g = np.tanh(gates[2 * hid : 3 * hid])
    o = 1.0 / (1.0 + np.exp(-gates[3 * hid : 4 * hid]))
    c_data = f * c.data + i * g
    tanh_c = np.tanh(c_data)

    tape = _active_tape()
    needs = tape is not None and any(t.requires_grad for t in (x, h, c, w_ih, w_hh, b))
    h_out = Tensor(o * tanh_c, requires_grad=needs)
    c_out = Tensor(c_data, requires_grad=needs)
    if needs:

        def record():
            gh, gc = h_out.grad, c_out.grad
            if gh is None and gc is None:
                return
            if gh is None:
                dc, d_o = gc, np.zeros(hid)
            else:
                dc = gh * o * (1.0 - tanh_c * tanh_c)
                if gc is not None:
                    dc = gc + dc
                d_o = gh * tanh_c * o * (1.0 - o)
            d_gates = np.concatenate([
                dc * g * i * (1.0 - i),
                dc * c.data * f * (1.0 - f),
                dc * i * (1.0 - g * g),
                d_o,
            ])
            if x.requires_grad:
                x._accum(w_ih.data.T @ d_gates)
            if h.requires_grad:
                h._accum(w_hh.data.T @ d_gates)
            if c.requires_grad:
                c._accum(dc * f)
            if w_ih.requires_grad:
                w_ih._accum(np.outer(d_gates, x.data))
            if w_hh.requires_grad:
                w_hh._accum(np.outer(d_gates, h.data))
            if b.requires_grad:
                b._accum(d_gates)

        tape.records.append(record)
    return h_out, c_out


# ---------------------------------------------------------------------------
# Lookup and regularization


def _gather(table: Tensor, rows, data: np.ndarray) -> Tensor:
    """Output ``data`` (table rows) whose backward adds its gradient into
    ``rows`` of the table gradient, so no full-table array is made per
    lookup; repeated rows accumulate."""
    tape = _active_tape()
    needs = tape is not None and table.requires_grad
    out = Tensor(data, requires_grad=needs)
    if needs:

        def record():
            if out.grad is None:
                return
            if table.grad is None:
                table.grad = np.zeros_like(table.data)
            np.add.at(table.grad, rows, out.grad)

        tape.records.append(record)
    return out


def embedding_gather(table: Tensor, ids) -> Tensor:
    """Select rows of an embedding table; gradients scatter-add back."""
    idx = np.asarray(ids, dtype=np.intp)
    if idx.ndim != 1:
        raise ShapeError(f"embedding_gather expects a flat id list, got shape {idx.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= table.shape[0]):
        raise IndexError(f"embedding id out of range [0, {table.shape[0]})")
    return _gather(table, idx, table.data[idx])


def embed_one(table: Tensor, i: int) -> Tensor:
    """One row of an embedding table as a vector."""
    i = int(i)
    if not 0 <= i < table.shape[0]:
        raise IndexError(f"embedding id {i} out of range [0, {table.shape[0]})")
    return _gather(table, i, table.data[i].copy())


def dropout(x: Tensor, rate: float, train: bool, rng: np.random.Generator | None = None) -> Tensor:
    """Inverted dropout: scales by 1/keep at train time, identity otherwise."""
    if not train or rate <= 0.0:
        return x
    if rng is None:
        raise ValueError("dropout in train mode needs an explicit rng")
    keep = 1.0 - rate
    mask = (rng.random(x.shape) < keep) / keep
    return _apply(x.data * mask, [(x, lambda g: g * mask)], "dropout")


# ---------------------------------------------------------------------------
# Gradient checking


class GradCheckReport:
    def __init__(self, tol: float):
        self.tol = tol
        self.max_rel_err = 0.0
        self.worst: tuple[str, tuple, float] | None = None
        self.checked = 0
        self.failures: list[tuple[str, tuple, float, float, float]] = []

    @property
    def passed(self) -> bool:
        return self.max_rel_err < self.tol

    def note(self, name: str, coord: tuple, analytic: float, numeric: float) -> None:
        rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-8)
        self.checked += 1
        if rel > self.max_rel_err:
            self.max_rel_err = rel
            self.worst = (name, coord, rel)
        if rel >= self.tol:
            self.failures.append((name, coord, analytic, numeric, rel))

    def __repr__(self):
        return (
            f"GradCheckReport(checked={self.checked}, max_rel_err={self.max_rel_err:.3g}, "
            f"passed={self.passed})"
        )


def grad_check(
    f,
    params,
    h: float = 1e-5,
    tol: float = 1e-4,
    rng: np.random.Generator | None = None,
    total_coords: int = 200,
) -> GradCheckReport:
    """Compare analytic gradients of ``f()`` against central differences.

    ``params`` is a list of (name, Tensor) pairs; every tensor gets at
    least one sampled coordinate and the remaining budget is spread
    proportionally to tensor size.  ``f`` must be deterministic (dropout
    disabled).
    """
    params = list(params)
    rng = rng if rng is not None else np.random.default_rng(0)

    with Tape() as tape:
        loss = f()
    tape.backward(loss)
    analytic = {
        name: (t.grad.copy() if t.grad is not None else np.zeros_like(t.data))
        for name, t in params
    }
    for _, t in params:
        t.zero_grad()

    total_size = sum(t.size for _, t in params)
    report = GradCheckReport(tol)
    for name, t in params:
        budget = max(1, round(total_coords * t.size / max(total_size, 1)))
        budget = min(budget, t.size)
        flat_ids = rng.choice(t.size, size=budget, replace=False)
        flat = t.data.reshape(-1)
        for fid in flat_ids:
            orig = flat[fid]
            flat[fid] = orig + h
            up = float(f().data)
            flat[fid] = orig - h
            down = float(f().data)
            flat[fid] = orig
            numeric = (up - down) / (2.0 * h)
            coord = np.unravel_index(fid, t.shape) if t.ndim else ()
            report.note(name, coord, float(analytic[name].reshape(-1)[fid]), numeric)
    return report
