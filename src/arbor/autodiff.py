"""Reverse-mode automatic differentiation over dense numpy tensors.

Minimal tape-based engine: operations record backward closures onto the
active :class:`Tape`; ``Tape.backward`` replays it in reverse and
accumulates gradients additively.  With no tape active, operations run as
plain numpy, which is what inference uses.

Each op has one forward and one backward path, with no branch per rank.
``matmul`` takes a 1-d left operand as a one-row matrix and a 1-d right
operand as a one-column matrix, as ``np.matmul`` does.  Broadcasting is
deliberately restricted: ``add`` and ``mul`` take equal shapes, a
python scalar or 0-d tensor on either side, or a column ``(..., 1)``
against a tensor of the same leading shape, and ``add`` a bias vector over
the last axis of a matrix or a stack of matrices; everything else is a
shape error.  One rule sums a broadcast operand's gradient back to its
shape: a 0-d operand sums every entry, a column its last axis, a bias
vector the leading axes.
The one pairwise broadcast is its own op, ``pairwise_add`` (every row of
one matrix plus every row of another, for each matrix of a stack).

The fused ops ``affine``, ``affine_max`` and ``lstm_layer`` each take
one tape record with a hand-written backward; ``affine``'s works on rows,
a vector being one row.  ``lstm_layer`` is the one LSTM op with a
backward; the decode step ``lstm_step`` runs forward only.  A fused
forward evaluates the same numpy expressions in the same order as the
composed ops it replaces, so its outputs are bit-identical to theirs;
only the order in which gradients are summed may differ.  Backward
passes compute a product whose inner axis has length 1 (an outer product)
as a broadcast multiply: numpy runs such a product in its own loop,
several times slower, to the same values (only the sign of a zero can
differ).
"""

from __future__ import annotations

import ctypes
from functools import cache
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
    operand sums every entry, a column its last axis, a bias vector the
    leading axes."""
    if g.shape == shape:
        return g
    if not shape:
        return g.sum()
    if len(shape) == g.ndim:
        return g.sum(axis=-1, keepdims=True)
    return g.reshape(-1, shape[0]).sum(axis=0)


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
          or a.ndim == b.ndim >= 2 and a.shape[:-1] == b.shape[:-1]
          and 1 in (a.shape[-1], b.shape[-1])
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


def affine(x: Tensor, w: Tensor, b: Tensor | None, per_row: bool = False,
           w_t: np.ndarray | None = None) -> Tensor:
    """``w @ x + b`` for a vector ``x``, ``x @ w.T + b`` for a matrix of rows
    or a stack of such matrices; with ``b`` None, no bias is added.

    One op in place of matmul + add (+ transpose).  The rows form multiplies
    each matrix by a C-ordered copy of ``w.T``, as ``matmul(x, transpose(w))``
    did: BLAS takes another kernel for a transposed view and rounds
    differently.  A caller that multiplies by an unchanged weight many
    times makes that copy once and passes it as ``w_t``; it must hold
    ``w``'s current values.  With ``per_row`` every row is instead its own
    product (``_mv``), bit-equal to the vector form on that row; the one
    gemm over all rows is not.  The backward works on rows, a vector being
    one row.
    """
    if (w.ndim != 2 or b is not None and b.shape != (w.shape[0],) or x.ndim not in (1, 2, 3)
            or x.shape[-1] != w.shape[1] or w_t is not None and w_t.shape != w.shape[::-1]):
        raise ShapeError(f"affine: x {x.shape}, w {w.shape}, b {None if b is None else b.shape}"
                         + ("" if w_t is None else f", w_t {w_t.shape}"))
    if x.ndim == 1 or per_row:
        out = _mv(w.data, x.data)
    else:
        out = x.data @ (w.data.T.copy() if w_t is None else w_t)
    grads = [(x, lambda g: g @ w.data), (w, lambda g: _weight_grad(g, x.data))]
    if b is None:
        return _apply(out, grads)
    return _apply(out + b.data, grads + [(b, lambda g: _sum_to(g, b.shape))])


def affine_max(x: Tensor, w: Tensor, b: Tensor, lengths) -> Tensor:
    """For consecutive segments of ``lengths[k]`` rows of the matrix ``x``,
    the column-wise max of ``affine`` over each segment, ``(len(lengths),
    w.shape[0])``.

    Each segment is its own product, so row ``k`` is bit-equal to the
    column-wise max of ``affine(segment k, w, b)``: a row of one product
    over all segments would round differently (a one-row product is a
    vector-matrix call, and BLAS picks kernels by size).  The gradient goes
    to the first maximum of each column; the backward forms the gradients
    of ``x``, ``w`` and ``b`` by one product or sum each.
    """
    bounds = list(accumulate(lengths, initial=0))
    if (x.ndim != 2 or w.ndim != 2 or b.shape != (w.shape[0],) or x.shape[1] != w.shape[1]
            or len(bounds) < 2 or min(lengths) < 1 or bounds[-1] != x.shape[0]):
        raise ShapeError(f"affine_max: x {x.shape}, w {w.shape}, b {b.shape}, "
                         f"segment lengths {list(lengths)}")
    w_t = w.data.T.copy()
    conv = [x.data[lo:hi] @ w_t + b.data for lo, hi in zip(bounds, bounds[1:])]
    first = np.array([c.argmax(axis=0) + lo for c, lo in zip(conv, bounds)])

    def grad_conv(g):
        """The gradient of the stacked segment products."""
        full = np.zeros((x.shape[0], w.shape[0]))
        full[first, np.arange(w.shape[0])] = g
        return full

    return _apply(np.array([c.max(axis=0) for c in conv]), [
        (x, lambda g: grad_conv(g) @ w.data),
        (w, lambda g: _weight_grad(grad_conv(g), x.data)),
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
    out_data = np.array([t.data for t in tensors])  # np.stack, at a fraction of its cost
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
    """``x[i]`` along the leading axis: an entry of a vector as a scalar, a
    row of a matrix, or a matrix of a stack."""
    if not x.ndim:
        raise ShapeError("element of a scalar")
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


def sum_all(x: Tensor) -> Tensor:
    return _apply(x.data.sum(), [(x, lambda g: np.full_like(x.data, g))])


def sum_axis(x: Tensor, axis: int) -> Tensor:
    def fn(g):
        return np.broadcast_to(np.expand_dims(g, axis), x.shape).copy()

    return _apply(x.data.sum(axis=axis), [(x, fn)])


def pick(x: Tensor, cols) -> Tensor:
    """Entry ``cols[r]`` of each row ``r`` of a matrix, as a vector; for a
    stack of matrices ``(b, m, k)`` and ``cols`` of shape ``(b, m)``, entry
    ``cols[s, r]`` of row ``r`` of matrix ``s``, as a ``(b, m)`` matrix."""
    cols = np.asarray(cols, dtype=np.intp)
    if x.ndim not in (2, 3) or cols.shape != x.shape[:-1]:
        raise ShapeError(f"pick: columns of shape {cols.shape} for a tensor of shape {x.shape}")
    return _index(x, np.indices(cols.shape, sparse=True) + (cols,))


def pairwise_add(a: Tensor, b: Tensor) -> Tensor:
    """``out[i, j] = a[i] + b[j]`` for rows ``a`` (m, d) and ``b`` (n, d),
    giving (m, n, d); for stacks ``(s, m, d)`` and ``(s, n, d)``, the same
    for each matrix of the stack, giving (s, m, n, d)."""
    if (a.ndim not in (2, 3) or b.ndim != a.ndim or a.shape[:-2] != b.shape[:-2]
            or a.shape[-1] != b.shape[-1]):
        raise ShapeError(f"pairwise_add: incompatible shapes {a.shape} and {b.shape}")
    out = a.data[..., :, None, :] + b.data[..., None, :, :]
    return _apply(out, [(a, lambda g: g.sum(axis=-2)), (b, lambda g: g.sum(axis=-3))])


def _select(op: str, pick, take_first, a: Tensor, b: Tensor) -> Tensor:
    """``pick(a, b)`` entrywise; the gradient goes to ``a`` where
    ``take_first(a, b)`` holds and to ``b`` elsewhere."""
    if a.shape != b.shape:
        raise ShapeError(f"{op}: incompatible shapes {a.shape} and {b.shape}")
    take_a = take_first(a.data, b.data)
    return _apply(pick(a.data, b.data),
                  [(a, lambda g: g * take_a), (b, lambda g: g * ~take_a)])


def minimum(a: Tensor, b: Tensor) -> Tensor:
    return _select("minimum", np.minimum, np.less_equal, a, b)


# ---------------------------------------------------------------------------
# Nonlinearities and normalizations


def log(x: Tensor) -> Tensor:
    return _apply(np.log(x.data), [(x, lambda g: g / x.data)])


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


# _mv streams a weight of at least _BLOCK_MIN entries in blocks of about
# _BLOCK entries (512 KB, a multiple of 4 rows); a block stays in L2 while
# every row reads it
_BLOCK_MIN, _BLOCK = 1 << 20, 1 << 16


@cache
def _openblas_threads():
    """OpenBLAS's ``get_num_threads`` in the library that numpy loaded, or
    None where it cannot be found (another BLAS, or no ``/proc/self/maps``
    to find the library by)."""
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
        for path in paths:
            lib = ctypes.CDLL(path)  # the loaded library, not a second copy
            for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                         "openblas_get_num_threads64_", "openblas_get_num_threads"):
                if hasattr(lib, name):
                    get = getattr(lib, name)
                    get.argtypes, get.restype = [], ctypes.c_int
                    return get
    except OSError:
        pass
    return None


def _one_blas_thread() -> bool:
    """Whether numpy's BLAS is an OpenBLAS running on one thread now."""
    get = _openblas_threads()
    return get is not None and get() == 1


def _mv(w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``w @ x`` for a vector ``x``, or for each row of a matrix or a stack
    ``x``.

    Each row is its own BLAS call, the one the vector product makes, so a
    row of the result is bit-equal to the product of that row alone; one
    gemm over all rows would round differently.  One row is always that
    one call.  With two rows or more, a weight of at least ``_BLOCK_MIN``
    entries whose row count is a multiple of 4 is read in blocks of rows
    when BLAS is OpenBLAS on one thread, each block's product for every
    row before the next block (cache blocking, Goto & van de Geijn, ACM
    TOMS 2008), so the weight streams from memory once rather than once
    per row.

    A block holds a multiple of 4 rows, and OpenBLAS's gemv kernels take
    rows in groups of 4, so on one thread every output of a block was
    bit-equal to the one call's in every probe (a property of the kernels,
    not a guarantee of BLAS).  With several threads OpenBLAS splits one
    call's rows between them, and the rows next to a split that is not a
    multiple of 4 round differently in the one call than in a block; so
    there, and with any other BLAS, every row is the one call.  The thread
    count is read on every blocked-size call, as it can change while the
    program runs.
    """
    m, d = w.shape
    if x.size < 2 * d or w.size < _BLOCK_MIN or m % 4 or not _one_blas_thread():
        return np.matmul(w, x[..., None])[..., 0]
    rows = max(4, _BLOCK // d // 4 * 4)
    out = np.empty(x.shape[:-1] + (m,))
    for s in range(0, m, rows):
        out[..., s:s + rows] = np.matmul(w[s:s + rows], x[..., None])[..., 0]
    return out


def _lstm_gates(gates: np.ndarray, c_prev: np.ndarray, hid: int):
    """The gates ``(i, f, g, o)`` of the pre-activations ``gates``, the new
    cell state and its tanh."""
    i = 1.0 / (1.0 + np.exp(-gates[..., 0:hid]))
    f = 1.0 / (1.0 + np.exp(-gates[..., hid : 2 * hid]))
    g = np.tanh(gates[..., 2 * hid : 3 * hid])
    o = 1.0 / (1.0 + np.exp(-gates[..., 3 * hid : 4 * hid]))
    c = f * c_prev + i * g
    return i, f, g, o, c, np.tanh(c)


def lstm_step(x: Tensor, h: Tensor, c: Tensor, w_ih: Tensor, w_hh: Tensor, b: Tensor,
              state_rows, input_rows=None) -> tuple[Tensor, Tensor]:
    """One decode step of an LSTM over rows; returns ``(h, c)``.  Row ``e``
    continues row ``state_rows[e]`` of ``h`` and ``c`` and reads row
    ``input_rows[e]`` of ``x`` (row ``e`` by default), so rows sharing a
    state or an input share its product.  Each row is bit-equal to itself
    alone and to the ``lstm_layer`` step from the same state and input.
    Forward only: under a tape it raises ``TapeError``."""
    if _TAPES:
        raise TapeError("lstm_step records no gradient; run the recurrence with lstm_layer")
    hid, rows = h.shape[-1], len(state_rows)
    if (x.ndim != 2 or h.ndim != 2 or c.shape != h.shape or b.shape != (4 * hid,)
            or w_ih.shape != (4 * hid, x.shape[1]) or w_hh.shape != (4 * hid, hid)
            or len(x.data if input_rows is None else input_rows) != rows):
        raise ShapeError(f"lstm_step: x {x.shape}, h {h.shape}, c {c.shape}, w_ih {w_ih.shape}, "
                         f"w_hh {w_hh.shape}, b {b.shape}, {rows} state rows")
    xp = _mv(w_ih.data, x.data)
    if input_rows is not None:
        xp = xp[input_rows]
    _, _, _, o, c_new, tanh_c = _lstm_gates(xp + _mv(w_hh.data, h.data)[state_rows] + b.data,
                                            c.data[state_rows], hid)
    return Tensor(o * tanh_c), Tensor(c_new)


def lstm_layer(x: Tensor, h0: Tensor, c0: Tensor, w_ih: Tensor, w_hh: Tensor, b: Tensor,
               reverse: bool = False, lengths=None) -> Tensor:
    """An LSTM run over the T rows of ``x`` from the state ``(h0, c0)``;
    returns the T ``h`` rows in input order.  With ``reverse`` the rows are
    read last to first, so row ``t`` is the state after reading ``x[t:]``.

    B sequences run as rows: ``x`` is ``(B, T, d)``, ``h0`` and ``c0`` are
    ``(B, H)``, and sequence ``b`` holds the first ``lengths[b]`` rows of
    ``x[b]`` (all T by default); the output is ``(B, T, H)``.  A padded
    step carries its sequence's state unchanged, so a forward run's padded
    rows repeat the last state, a reverse run starts each sequence at its
    own last row (its padded rows hold ``h0``), and padded rows of ``x`` get
    a zero gradient.  A single ``(T, d)`` sequence with state vectors is the
    one-sequence case, with the sequence axis dropped.

    Each sequence's rows are bit-identical to composed LSTM steps over that
    sequence alone, and to chained ``lstm_step`` calls: the input rows are
    projected by ``_mv``, whose per-row products are the vector form's, as
    is ``w_hh @ h`` for each sequence's state, and each step evaluates
    ``_lstm_gates`` on ``xp + w_hh @ h + b``; one sequence runs on exactly
    the vector form's arrays.  A single tape record: the backward runs
    the recurrence over gate-derivative factors precomputed as (T, B, H)
    arrays, one ``d_gates @ w_hh`` over the B sequences per step, then
    forms the gradient of ``x``, ``w_ih``, ``w_hh`` and ``b`` by one
    product or sum each.
    """
    hid = h0.shape[-1]
    lead = x.shape[:-2]
    n_seq = lead[0] if lead else 1
    n_steps = x.shape[-2] if x.ndim > 1 else 0
    lens = [n_steps] * n_seq if lengths is None else list(lengths)
    if (x.ndim not in (2, 3) or not n_seq or not n_steps or h0.shape != lead + (hid,)
            or c0.shape != h0.shape or w_ih.shape != (4 * hid, x.shape[-1])
            or w_hh.shape != (4 * hid, hid) or b.shape != (4 * hid,)
            or (lengths is not None and not lead) or len(lens) != n_seq
            or min(lens) < 0 or max(lens) > n_steps):
        raise ShapeError(
            f"lstm_layer: x {x.shape}, h0 {h0.shape}, c0 {c0.shape}, "
            f"w_ih {w_ih.shape}, w_hh {w_hh.shape}, b {b.shape}, lengths {lengths}"
        )
    # arrays run step-major, (T, ..., ·), in reading order; ``order`` maps
    # them to input order and back.  ``valid[t, s]``: step t is a row of
    # sequence s
    order = slice(None, None, -1) if reverse else slice(None)
    valid = None
    if min(lens) < n_steps:
        valid = (np.arange(n_steps)[:, None] < np.array(lens))[order]
    xs = x.data.swapaxes(0, -2)[order]
    h, c, steps, hs = h0.data, c0.data, [], []
    for t, xp in enumerate(_mv(w_ih.data, xs)):
        i, f, g, o, c_new, tanh_c = _lstm_gates(xp + _mv(w_hh.data, h) + b.data, c, hid)
        steps.append((i, f, g, o, c, tanh_c))
        h_new = o * tanh_c
        if valid is not None:  # a padded step carries the state
            keep = valid[t][:, None]
            h_new, c_new = np.where(keep, h_new, h), np.where(keep, c_new, c)
        h, c = h_new, c_new
        hs.append(h)
    hs = np.array(hs)

    inputs = (x, h0, c0, w_ih, w_hh, b)
    tape = _active_tape()
    out_data = np.ascontiguousarray(hs[order].swapaxes(0, -2))
    if tape is None or not any(t.requires_grad for t in inputs):
        return Tensor(out_data)
    out = Tensor(out_data, requires_grad=True)
    i, f, g, o, c_prev, tanh_c = map(np.array, zip(*steps))
    h_prev = np.concatenate([h0.data[None], hs[:-1]])

    def record():
        if out.grad is None:
            return
        gh_rows = out.grad.swapaxes(0, -2)[order]
        dc_dh = o * (1.0 - tanh_c * tanh_c)
        do_dh = tanh_c * o * (1.0 - o)
        difg_dc = np.stack([g * i * (1.0 - i), c_prev * f * (1.0 - f), i * (1.0 - g * g)],
                           axis=-2)
        f_back = f
        if valid is not None:
            # a padded step passes both gradients through and forms no gate
            # gradient
            pad = ~valid[:, :, None]
            dc_dh, do_dh = np.where(pad, 0.0, dc_dh), np.where(pad, 0.0, do_dh)
            difg_dc = np.where(pad[:, :, None], 0.0, difg_dc)
            f_back = np.where(pad, 1.0, f)
        d_gates = np.empty((n_steps,) + lead + (4, hid))
        dh = dc = np.zeros(h0.shape)
        for t in range(n_steps - 1, -1, -1):
            gh = gh_rows[t] + dh
            dc = gh * dc_dh[t] + dc
            np.multiply(difg_dc[t], dc[..., None, :], out=d_gates[t, ..., :3, :])
            np.multiply(gh, do_dh[t], out=d_gates[t, ..., 3, :])
            dh = d_gates[t].reshape(lead + (4 * hid,)) @ w_hh.data
            if valid is not None:
                dh = np.where(valid[t][:, None], dh, gh)
            dc = dc * f_back[t]
        d_gates = d_gates.reshape((n_steps,) + lead + (4 * hid,))
        if x.requires_grad:
            # one product per sequence, over its steps in reading order
            dx = np.ascontiguousarray(d_gates.swapaxes(0, -2)) @ w_ih.data
            x._accum(dx[..., order, :])
        if h0.requires_grad:
            h0._accum(dh)
        if c0.requires_grad:
            c0._accum(dc)
        if w_ih.requires_grad:
            w_ih._accum(_weight_grad(d_gates, xs))
        if w_hh.requires_grad:
            w_hh._accum(_weight_grad(d_gates, h_prev))
        if b.requires_grad:
            b._accum(_sum_to(d_gates, b.shape))

    tape.records.append(record)
    return out


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
    """Select rows of an embedding table, or of any matrix or stack of
    matrices; gradients scatter-add back, so a repeated id accumulates."""
    idx = np.asarray(ids, dtype=np.intp)
    if idx.ndim != 1:
        raise ShapeError(f"embedding_gather expects a flat id list, got shape {idx.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= table.shape[0]):
        raise IndexError(f"embedding id out of range [0, {table.shape[0]})")
    return _gather(table, idx, table.data[idx])


def dropout_mask(shape, rate: float, rng: np.random.Generator) -> np.ndarray:
    """An inverted-dropout mask: each entry 1/keep with probability keep,
    else 0, drawn by one ``rng.random(shape)``."""
    keep = 1.0 - rate
    return (rng.random(shape) < keep) / keep
