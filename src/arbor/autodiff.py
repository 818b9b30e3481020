"""Reverse-mode automatic differentiation over dense numpy tensors.

Minimal tape-based engine: operations record backward closures onto the
active :class:`Tape`; :func:`backward` replays the tape in reverse and
accumulates gradients additively.  With no tape active, operations run as
plain numpy, which is what inference uses.

Each op has one forward and one backward path, with no branch per rank.
``matmul`` takes a 1-d left operand as a one-row matrix and a 1-d right
operand as a one-column matrix, as ``np.matmul`` does.  Broadcasting is
deliberately restricted: ``add``, ``sub`` and ``mul`` take equal shapes or
a python scalar or 0-d tensor on either side, and ``add`` a bias vector
over the last axis of a matrix or a stack of matrices; everything else is
a shape error.  One rule sums a broadcast operand's gradient back to its
shape: a 0-d operand sums every entry, a bias vector the leading axes.
The one pairwise broadcast is its own op, ``pairwise_add`` (every row of
one matrix plus every row of another).

The fused ops ``affine``, ``lstm_cell`` and ``embed_one`` each take one
tape record with a hand-written backward, which for ``affine`` and
``lstm_cell`` works on rows, a vector being one row.  A fused forward
evaluates the same numpy expressions in the same order as the composed ops
it replaces, so its outputs are bit-identical to theirs; only the order in
which gradients are summed may differ.  Backward passes compute a product
whose inner axis has length 1 (an outer product) as a broadcast multiply:
numpy runs such a product in its own loop, several times slower, to the
same values (only the sign of a zero can differ).
"""

from __future__ import annotations

from itertools import accumulate
from operator import itemgetter

import numpy as np


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

    def __neg__(self):
        return mul(self, -1.0)


class Tape:
    """Ordered record of operations; backward replays it exactly once."""

    def __init__(self):
        self.records: list = []
        self.consumed = False

    def __enter__(self):
        _TAPES.append(self)
        return self

    def __exit__(self, *exc):
        _TAPES.pop()
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


# tapes entered and not yet exited, innermost last
_TAPES: list[Tape] = []


def _active_tape() -> Tape | None:
    return _TAPES[-1] if _TAPES else None


def recording() -> bool:
    """Whether a tape is active, so that operations record gradients."""
    return bool(_TAPES)


def backward(loss: Tensor) -> None:
    """Run backward on the innermost active tape."""
    tape = _active_tape()
    if tape is None:
        raise TapeError("no active tape; wrap the forward pass in `with Tape() as t:`")
    tape.backward(loss)


def _apply(out_data: np.ndarray, pairs) -> Tensor:
    """Build the output tensor and record backward closures (none when no
    tape is active).

    ``pairs`` is a sequence of ``(input, grad_fn)`` where ``grad_fn`` maps
    the output gradient to the input's gradient contribution.
    """
    if not _TAPES:
        return Tensor(out_data)
    inputs = [(t, fn) for t, fn in pairs if t.requires_grad]
    out = Tensor(out_data, requires_grad=bool(inputs))
    if inputs:

        def record():
            g = out.grad
            if g is None:
                return
            for t, fn in inputs:
                t._accum(fn(g))

        _TAPES[-1].records.append(record)
    return out


def constant(x) -> Tensor:
    return Tensor(x, requires_grad=False)


# ---------------------------------------------------------------------------
# Elementwise and shape ops


def _sum_to(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back to its operand's ``shape``: a 0-d
    operand sums every entry, a bias vector sums over the leading axes."""
    if g.shape == shape:
        return g
    return g.reshape(-1, shape[0]).sum(axis=0) if shape else g.sum()


def _mm(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``x @ y``; with an inner axis of length 1, a broadcast multiply."""
    return x * y if x.shape[-1] == 1 else np.matmul(x, y)


def _weight_grad(g: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``g.T @ x`` over rows, a vector being one row: the gradient of ``w``
    in ``x @ w.T``."""
    return _mm(g.reshape(-1, g.shape[-1]).T, x.reshape(-1, x.shape[-1]))


def _identity(g):
    return g


def _elementwise(op: str, fwd, a: Tensor, b, grad_a, grad_b, bias: bool = False) -> Tensor:
    """``fwd(a, b)`` entrywise for a tensor ``a`` and a tensor or python
    scalar ``b``, under the restricted broadcasting.  ``grad_a`` and
    ``grad_b`` map the output gradient to one of the output's shape, which
    ``_sum_to`` reduces for a broadcast operand."""
    if not isinstance(b, Tensor):
        out, pairs = fwd(a.data, b), [(a, grad_a)]
    elif (a.shape == b.shape or not a.ndim or not b.ndim
          or bias and a.ndim >= 2 and b.ndim == 1 and a.shape[-1] == b.shape[0]):
        out, pairs = fwd(a.data, b.data), [(a, grad_a), (b, grad_b)]
    else:
        raise ShapeError(f"{op}: incompatible shapes {a.shape} and {b.shape}")
    if not _TAPES:
        return Tensor(out)
    return _apply(out, [
        (t, fn if t.shape == out.shape else lambda g, fn=fn, s=t.shape: _sum_to(fn(g), s))
        for t, fn in pairs
    ])


def add(a: Tensor, b) -> Tensor:
    return _elementwise("add", np.add, a, b, _identity, _identity, bias=True)


def sub(a: Tensor, b) -> Tensor:
    return _elementwise("sub", np.subtract, a, b, _identity, np.negative)


def mul(a: Tensor, b) -> Tensor:
    return _elementwise("mul", np.multiply, a, b,
                        lambda g: g * (b.data if isinstance(b, Tensor) else b),
                        lambda g: g * a.data)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix products, and stacks of them.

    A 1-d left operand is a one-row matrix and a 1-d right operand a
    one-column matrix, and the product drops that axis, as ``np.matmul``
    does.  With a 3-d operand the product is taken for each index of its
    leading axis; a 2-d operand is shared by every one.  Each entry of the
    stack is computed by the same BLAS call as the 2-d product of that
    entry alone, so it is bit-equal to it.
    """
    sa, sb = a.shape, b.shape
    na, nb = len(sa), len(sb)
    if not (0 < na < 4 and 0 < nb < 4 and abs(na - nb) < 2):
        raise ShapeError(f"matmul: unsupported ranks {sa} @ {sb}")
    if sa[-1] != sb[-min(nb, 2)] or na == nb == 3 and sa[0] != sb[0]:
        raise ShapeError(f"matmul: {sa} @ {sb}")
    am = sa if na > 1 else (1,) + sa
    bm = sb if nb > 1 else sb + (1,)
    gm = (am[:-2] or bm[:-2]) + (am[-2], bm[-1])
    out = np.matmul(a.data, b.data)
    if not _TAPES:
        return Tensor(out)

    # a shared 2-d operand sums its gradient over the stack; a 1-d one
    # drops its unit axis
    def grad_a(g):
        d = _mm(g.reshape(gm), b.data.reshape(bm).swapaxes(-1, -2))
        return d.sum(axis=0) if d.ndim > na > 1 else d.reshape(sa)

    def grad_b(g):
        d = _mm(a.data.reshape(am).swapaxes(-1, -2), g.reshape(gm))
        return d.sum(axis=0) if d.ndim > nb > 1 else d.reshape(sb)

    return _apply(out, [(a, grad_a), (b, grad_b)])


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``w @ x + b`` for a vector ``x``, ``x @ w.T + b`` for a matrix of rows.

    One op in place of matmul + add (+ transpose).  The rows form multiplies
    by a C-ordered copy of ``w.T``, as ``matmul(x, transpose(w))`` did: BLAS
    takes another kernel for a transposed view and rounds differently.  The
    backward works on rows, a vector being one row.
    """
    if (w.ndim != 2 or b.shape != (w.shape[0],) or x.ndim not in (1, 2)
            or x.shape[-1] != w.shape[1]):
        raise ShapeError(f"affine: x {x.shape}, w {w.shape}, b {b.shape}")
    out = w.data @ x.data + b.data if x.ndim == 1 else x.data @ w.data.T.copy() + b.data
    return _apply(out, [
        (x, lambda g: g @ w.data),
        (w, lambda g: _weight_grad(g, x.data)),
        (b, lambda g: _sum_to(g, b.shape)),
    ])


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = list(tensors)
    if not tensors:
        raise ShapeError("concat of no tensors")
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    offsets = list(accumulate((t.shape[axis] for t in tensors), initial=0))
    lead = (slice(None),) * (axis % out_data.ndim)
    return _apply(out_data, [(t, itemgetter(lead + (slice(lo, hi),)))
                             for t, lo, hi in zip(tensors, offsets, offsets[1:])])


def stack_rows(tensors) -> Tensor:
    """Stack equal-shape tensors along a new leading axis: vectors into a
    matrix, one per row, or matrices into a 3-d stack."""
    tensors = list(tensors)
    if not tensors:
        raise ShapeError("stack_rows of no tensors")
    out_data = np.stack([t.data for t in tensors], axis=0)
    return _apply(out_data, [(t, itemgetter(k)) for k, t in enumerate(tensors)])


def _index(x: Tensor, index) -> Tensor:
    """``x.data[index]``, whose gradient is scattered back into a zero
    tensor of ``x``'s shape."""

    def fn(g):
        full = np.zeros_like(x.data)
        full[index] = g
        return full

    return _apply(x.data[index], [(x, fn)])


def narrow(x: Tensor, axis: int, start: int, stop: int) -> Tensor:
    return _index(x, (slice(None),) * (axis % x.ndim) + (slice(start, stop),))


def element(x: Tensor, i: int) -> Tensor:
    """Pick one entry of a 1-d tensor as a scalar."""
    if x.ndim != 1:
        raise ShapeError(f"element expects a vector, got shape {x.shape}")
    return _index(x, i)


def reshape(x: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    return _apply(x.data.reshape(shape), [(x, lambda g: g.reshape(x.shape))])


def transpose(x: Tensor) -> Tensor:
    """Swap the last two axes of a matrix or of a stack of matrices (a
    C-ordered copy)."""
    if x.ndim not in (2, 3):
        raise ShapeError(f"transpose expects a matrix or a stack of them, got shape {x.shape}")
    return _apply(x.data.swapaxes(-1, -2).copy(), [(x, lambda g: g.swapaxes(-1, -2).copy())])


def repeat_rows(v: Tensor, n: int) -> Tensor:
    """Tile a vector into n identical rows."""
    if v.ndim != 1:
        raise ShapeError(f"repeat_rows expects a vector, got shape {v.shape}")
    out = np.broadcast_to(v.data, (n, v.shape[0])).copy()
    return _apply(out, [(v, lambda g: g.sum(axis=0))])


def sum_all(x: Tensor) -> Tensor:
    return _apply(x.data.sum(), [(x, lambda g: np.full_like(x.data, g))])


def sum_axis(x: Tensor, axis: int) -> Tensor:
    def fn(g):
        return np.broadcast_to(np.expand_dims(g, axis), x.shape).copy()

    return _apply(x.data.sum(axis=axis), [(x, fn)])


def amax(x: Tensor, axis: int = 0) -> Tensor:
    """Max-reduce along an axis; gradient flows to the first maximum."""
    idx = np.expand_dims(x.data.argmax(axis=axis), axis)
    out = x.data.max(axis=axis)

    def fn(g):
        full = np.zeros_like(x.data)
        np.put_along_axis(full, idx, np.expand_dims(g, axis), axis)
        return full

    return _apply(out, [(x, fn)])


def pick(x: Tensor, cols) -> Tensor:
    """Entry ``cols[r]`` of each row ``r`` of a matrix, as a vector."""
    if x.ndim != 2 or len(cols) != x.shape[0]:
        raise ShapeError(f"pick: {len(cols)} columns for a matrix of shape {x.shape}")
    return _index(x, (np.arange(x.shape[0]), np.asarray(cols, dtype=np.intp)))


def pairwise_add(a: Tensor, b: Tensor) -> Tensor:
    """``out[i, j] = a[i] + b[j]`` for rows ``a`` (m, d) and ``b`` (n, d),
    giving (m, n, d)."""
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ShapeError(f"pairwise_add: incompatible shapes {a.shape} and {b.shape}")
    out = a.data[:, None, :] + b.data[None, :, :]
    return _apply(out, [(a, lambda g: g.sum(axis=1)), (b, lambda g: g.sum(axis=0))])


def unstack_rows(x: Tensor) -> list[Tensor]:
    """The rows of a matrix as vectors, under one tape record (the inverse
    of ``stack_rows``); a row that gets no gradient counts as zero."""
    if x.ndim != 2:
        raise ShapeError(f"unstack_rows expects a matrix, got shape {x.shape}")
    tape = _active_tape()
    if tape is None or not x.requires_grad:
        return [Tensor(row) for row in x.data]
    rows = [Tensor(row, requires_grad=True) for row in x.data]

    def record():
        if all(r.grad is None for r in rows):
            return
        x._accum(np.stack([np.zeros(x.shape[1]) if r.grad is None else r.grad
                           for r in rows]))

    tape.records.append(record)
    return rows


def _select(op: str, pick, take_first, a: Tensor, b: Tensor) -> Tensor:
    """``pick(a, b)`` entrywise; the gradient goes to ``a`` where
    ``take_first(a, b)`` holds and to ``b`` elsewhere."""
    if a.shape != b.shape:
        raise ShapeError(f"{op}: incompatible shapes {a.shape} and {b.shape}")
    take_a = take_first(a.data, b.data)
    return _apply(pick(a.data, b.data),
                  [(a, lambda g: g * take_a), (b, lambda g: g * ~take_a)])


def maximum(a: Tensor, b: Tensor) -> Tensor:
    # ties go to the first argument
    return _select("maximum", np.maximum, np.greater_equal, a, b)


def minimum(a: Tensor, b: Tensor) -> Tensor:
    return _select("minimum", np.minimum, np.less_equal, a, b)


# ---------------------------------------------------------------------------
# Nonlinearities and normalizations


def log(x: Tensor) -> Tensor:
    return _apply(np.log(x.data), [(x, lambda g: g / x.data)])


def exp(x: Tensor) -> Tensor:
    out = np.exp(x.data)
    return _apply(out, [(x, lambda g: g * out)])


def tanh(x: Tensor) -> Tensor:
    out = np.tanh(x.data)
    return _apply(out, [(x, lambda g: g * (1.0 - out * out))])


def sigmoid(x: Tensor) -> Tensor:
    out = 1.0 / (1.0 + np.exp(-x.data))
    return _apply(out, [(x, lambda g: g * out * (1.0 - out))])


def elu(x: Tensor) -> Tensor:
    """elu(x) = x for x > 0, exp(x) - 1 otherwise."""
    out = np.where(x.data > 0, x.data, np.expm1(x.data))
    return _apply(out, [(x, lambda g: g * np.where(x.data > 0, 1.0, out + 1.0))])


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def fn(g):
        return (g - (g * out).sum(axis=axis, keepdims=True)) * out

    return _apply(out, [(x, fn)])


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out = shifted - lse
    soft = np.exp(out)

    def fn(g):
        return g - soft * g.sum(axis=axis, keepdims=True)

    return _apply(out, [(x, fn)])


# ---------------------------------------------------------------------------
# Fused layers


def _mv(w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``w @ x`` for a vector ``x``, or for each row of a matrix ``x``.

    Each row is its own BLAS call, the one the vector product makes, so a
    row of the result is bit-equal to the product of that row alone; one
    gemm over all rows would round differently.
    """
    return np.matmul(w, x[..., None])[..., 0]


def lstm_cell(x: Tensor, h: Tensor, c: Tensor, w_ih: Tensor, w_hh: Tensor,
              b: Tensor, state_rows=None) -> tuple[Tensor, Tensor]:
    """One LSTM step (gate order i, f, g, o); returns ``(h, c)``.

    ``x``, ``h`` and ``c`` are vectors, or matrices whose rows are
    independent cells; each row of the rows form is bit-equal to the
    vector form on that row.  With ``state_rows`` (rows form only), input
    row ``e`` continues state row ``state_rows[e]`` of ``h`` and ``c``, so
    several steps can continue one state whose ``w_hh @ h`` is computed
    once.  A single tape record with a hand-written backward, which works
    on rows, a vector being one row.  A missing gradient on either output
    counts as zero.
    """
    hid = h.shape[-1]
    lead = x.shape[:-1] if state_rows is None else h.shape[:1]
    if (x.ndim not in (1, 2) or h.shape != lead + (hid,) or c.shape != lead + (hid,)
            or w_ih.shape != (4 * hid, x.shape[-1]) or w_hh.shape != (4 * hid, hid)
            or b.shape != (4 * hid,)
            or (state_rows is not None and (x.ndim != 2 or len(state_rows) != x.shape[0]))):
        raise ShapeError(
            f"lstm_cell: x {x.shape}, h {h.shape}, c {c.shape}, "
            f"w_ih {w_ih.shape}, w_hh {w_hh.shape}, b {b.shape}"
        )
    hh, c_prev = _mv(w_hh.data, h.data), c.data
    if state_rows is not None:
        hh, c_prev = hh[state_rows], c_prev[state_rows]
    gates = _mv(w_ih.data, x.data) + hh + b.data
    i = 1.0 / (1.0 + np.exp(-gates[..., 0:hid]))
    f = 1.0 / (1.0 + np.exp(-gates[..., hid : 2 * hid]))
    g = np.tanh(gates[..., 2 * hid : 3 * hid])
    o = 1.0 / (1.0 + np.exp(-gates[..., 3 * hid : 4 * hid]))
    c_data = f * c_prev + i * g
    tanh_c = np.tanh(c_data)

    tape = _active_tape()
    if tape is None:
        return Tensor(o * tanh_c), Tensor(c_data)
    needs = any(t.requires_grad for t in (x, h, c, w_ih, w_hh, b))
    h_out = Tensor(o * tanh_c, requires_grad=needs)
    c_out = Tensor(c_data, requires_grad=needs)
    if needs:

        def to_states(g_rows):
            """Sum the rows' gradients into the state rows they continue."""
            if state_rows is None:
                return g_rows
            out = np.zeros((h.shape[0], g_rows.shape[1]))
            np.add.at(out, state_rows, g_rows)
            return out

        def record():
            gh, gc = h_out.grad, c_out.grad
            if gh is None and gc is None:
                return
            if gh is None:
                dc, d_o = gc, np.zeros_like(c_data)
            else:
                dc = gh * o * (1.0 - tanh_c * tanh_c)
                if gc is not None:
                    dc = gc + dc
                d_o = gh * tanh_c * o * (1.0 - o)
            d_gates = np.concatenate([
                dc * g * i * (1.0 - i),
                dc * c_prev * f * (1.0 - f),
                dc * i * (1.0 - g * g),
                d_o,
            ], axis=-1)
            if x.requires_grad:
                x._accum(d_gates @ w_ih.data)
            if h.requires_grad:
                h._accum(to_states(d_gates @ w_hh.data))
            if c.requires_grad:
                c._accum(to_states(dc * f))
            if w_ih.requires_grad:
                w_ih._accum(_weight_grad(d_gates, x.data))
            if w_hh.requires_grad:
                w_hh._accum(_weight_grad(to_states(d_gates), h.data))
            if b.requires_grad:
                b._accum(_sum_to(d_gates, b.shape))

        tape.records.append(record)
    return h_out, c_out


# ---------------------------------------------------------------------------
# Lookup and regularization


def _gather(table: Tensor, rows, data: np.ndarray) -> Tensor:
    """Output ``data`` (table rows) whose backward adds its gradient into
    ``rows`` of the table gradient, so no full-table array is made per
    lookup; repeated rows accumulate."""
    tape = _active_tape()
    if tape is None or not table.requires_grad:
        return Tensor(data)
    out = Tensor(data, requires_grad=True)

    def record():
        if out.grad is None:
            return
        if table.grad is None:
            table.grad = np.zeros_like(table.data)
        np.add.at(table.grad, rows, out.grad)

    tape.records.append(record)
    return out


def embedding_gather(table: Tensor, ids) -> Tensor:
    """Select rows of an embedding table, or of any matrix; gradients
    scatter-add back, so a repeated id accumulates."""
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
    return _apply(x.data * mask, [(x, lambda g: g * mask)])


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
