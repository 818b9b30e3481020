import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arbor import autodiff as ad
from arbor.autodiff import ShapeError, Tape, TapeError, Tensor

from conftest import (backward, check_op, composed_lstm_cell, dropout, exp, grad_check,
                      maximum, repeat_rows, sigmoid, sub, tanh)
from test_model import amax


def t(data, grad=True):
    return Tensor(np.asarray(data, dtype=float), requires_grad=grad)


class TestForwardValues:
    def test_softmax_symmetry(self):
        out = ad.softmax(t([0.0, 0.0]))
        assert np.allclose(out.data, [0.5, 0.5])

    def test_elu_definition(self):
        out = ad.elu(t([-1e9, 2.0, 0.0, -0.5]))
        assert out.data[0] == pytest.approx(-1.0)
        assert out.data[1] == 2.0
        assert out.data[2] == 0.0
        assert out.data[3] == pytest.approx(np.expm1(-0.5))

    def test_softmax_is_distribution(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            x = t(rng.standard_normal(int(rng.integers(1, 9))) * 10)
            y = ad.softmax(x).data
            assert (y >= 0).all()
            assert abs(y.sum() - 1.0) < 1e-9

    def test_log_softmax_matches_log_of_softmax(self):
        x = t(np.random.default_rng(1).standard_normal(7))
        assert np.allclose(ad.log_softmax(x).data, np.log(ad.softmax(x).data))

    def test_bias_add_broadcast(self):
        out = ad.add(t(np.ones((2, 3))), t([1.0, 2.0, 3.0]))
        assert np.allclose(out.data, [[2, 3, 4], [2, 3, 4]])

    def test_shape_mismatch_reports_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2,\).*\(3,\)"):
            ad.add(t([1.0, 2.0]), t([1.0, 2.0, 3.0]))

    def test_matmul_shapes(self):
        a, b = t(np.ones((2, 3))), t(np.ones((3, 4)))
        assert ad.matmul(a, b).shape == (2, 4)
        assert ad.matmul(a, t(np.ones(3))).shape == (2,)
        assert ad.matmul(t(np.ones(2)), a).shape == (3,)
        assert ad.matmul(t(np.ones(3)), t(np.ones(3))).shape == ()
        with pytest.raises(ShapeError):
            ad.matmul(a, t(np.ones((2, 2))))

    def test_dropout_inverted_scaling(self):
        rng = np.random.default_rng(0)
        x = t(np.ones(10000))
        out = dropout(x, 0.25, train=True, rng=rng)
        kept = out.data[out.data > 0]
        assert np.allclose(kept, 1 / 0.75)
        assert abs(len(kept) / 10000 - 0.75) < 0.02
        # eval mode is the identity
        assert dropout(x, 0.25, train=False) is x

    def test_embedding_gather_bounds(self):
        table = t(np.arange(12.0).reshape(4, 3))
        with pytest.raises(IndexError):
            ad.embedding_gather(table, [4])


class TestBackward:
    def test_sum_softmax_grad_is_zero(self):
        x = t([0.3, -1.0, 2.0])
        with Tape() as tape:
            loss = ad.sum_all(ad.softmax(x))
        tape.backward(loss)
        assert np.allclose(x.grad, 0.0)

    def test_unused_tensor_gets_no_grad(self):
        x, y = t([1.0, 2.0]), t([3.0, 4.0])
        with Tape() as tape:
            loss = ad.sum_all(ad.mul(x, x))
        tape.backward(loss)
        assert y.grad is None

    def test_gradients_accumulate_over_shared_use(self):
        x = t([1.0, 2.0])
        with Tape() as tape:
            loss = ad.add(ad.sum_all(x), ad.sum_all(x))
        tape.backward(loss)
        assert np.allclose(x.grad, [2.0, 2.0])

    def test_non_scalar_loss_rejected(self):
        x = t([1.0, 2.0])
        with Tape() as tape:
            y = ad.mul(x, 2.0)
            with pytest.raises(ShapeError, match="scalar"):
                tape.backward(y)

    def test_double_backward_rejected(self):
        x = t([1.0])
        with Tape() as tape:
            loss = ad.sum_all(x)
        tape.backward(loss)
        with pytest.raises(TapeError, match="consumed"):
            tape.backward(loss)

    def test_no_tape_means_no_recording(self):
        x = t([1.0, 2.0])
        y = ad.mul(x, x)
        assert not y.requires_grad

    def test_backward_without_tape_rejected(self):
        with pytest.raises(TapeError, match="no active tape"):
            backward(ad.sum_all(t([1.0])))

    def test_nested_tape_records_on_innermost(self):
        x = t([1.0, 2.0])
        with Tape() as outer:
            a = ad.sum_all(ad.mul(x, 3.0))
            with Tape() as inner:
                b = ad.sum_all(ad.mul(x, x))
                backward(b)  # the innermost tape
            assert inner.consumed and not outer.consumed
            assert np.allclose(x.grad, [2.0, 4.0])
            c = ad.mul(a, 1.0)  # the outer tape is active again
        outer.backward(c)
        assert np.allclose(x.grad, [5.0, 7.0])
        assert not ad.mul(x, x).requires_grad  # no tape left active

    def test_matmul_grad_outer_structure(self):
        rng = np.random.default_rng(0)
        w = t(rng.standard_normal((3, 4)))
        x = t(rng.standard_normal(4), grad=False)
        with Tape() as tape:
            loss = ad.sum_all(ad.matmul(w, x))
        tape.backward(loss)
        assert np.allclose(w.grad, np.broadcast_to(x.data, (3, 4)))


PRIMITIVES = {
    "add": lambda a, b: ad.add(a, b),
    "sub": sub,
    "mul": lambda a, b: ad.mul(a, b),
    "maximum": maximum,
    "minimum": lambda a, b: ad.minimum(a, b),
}


class TestPrimitiveGradients:
    @pytest.mark.parametrize("name", sorted(PRIMITIVES))
    def test_binary_elementwise(self, name):
        rng = np.random.default_rng(sum(ord(c) for c in name))
        for trial in range(20):
            shape = tuple(rng.integers(1, 5, size=int(rng.integers(1, 3))))
            a, b = t(rng.standard_normal(shape)), t(rng.standard_normal(shape))
            op = PRIMITIVES[name]
            check_op(lambda: ad.sum_all(op(a, b)), [("a", a), ("b", b)], coords=8,
                     seed=trial)

    @pytest.mark.parametrize("unary", ["log", "exp", "tanh", "sigmoid", "elu",
                                       "softmax", "log_softmax"])
    def test_unary(self, unary):
        rng = np.random.default_rng(sum(ord(c) for c in unary))
        op = {"exp": exp, "tanh": tanh, "sigmoid": sigmoid}.get(unary) or getattr(ad, unary)
        for trial in range(20):
            x = rng.standard_normal(int(rng.integers(1, 7)))
            if unary == "log":
                x = np.abs(x) + 0.5
            xt = t(x)
            weights = ad.constant(rng.standard_normal(x.shape))
            check_op(lambda: ad.sum_all(ad.mul(op(xt), weights)), [("x", xt)],
                     coords=8, seed=trial)

    def test_matmul_all_rank_combos(self):
        rng = np.random.default_rng(42)
        cases = [((3, 4), (4, 2)), ((3, 4), (4,)), ((3,), (3, 5)), ((4,), (4,))]
        for sa, sb in cases:
            a, b = t(rng.standard_normal(sa)), t(rng.standard_normal(sb))
            check_op(lambda: ad.sum_all(ad.matmul(a, b)) if ad.matmul(a, b).ndim
                     else ad.matmul(a, b), [("a", a), ("b", b)], coords=16)

    def test_concat_narrow_reshape_stack(self):
        rng = np.random.default_rng(7)
        a, b = t(rng.standard_normal((2, 3))), t(rng.standard_normal((2, 2)))
        v = t(rng.standard_normal(4))

        def build():
            cat = ad.concat([a, b], axis=1)  # (2, 5)
            sl = ad.narrow(cat, 1, 1, 4)  # (2, 3)
            flat = ad.reshape(sl, (6,))
            stacked = ad.stack_rows([flat, flat])  # (2, 6)
            return ad.add(ad.sum_all(stacked), ad.element(v, 2))

        check_op(build, [("a", a), ("b", b), ("v", v)], coords=24)

    def test_repeat_rows_of_a_matrix(self):
        m = t(np.random.default_rng(10).standard_normal((2, 3)))
        tiled = repeat_rows(m, 4)
        assert tiled.shape == (2, 4, 3)
        assert np.array_equal(tiled.data[1, 2], m.data[1])
        weights = ad.constant(np.random.default_rng(11).standard_normal((2, 4, 3)))
        check_op(lambda: ad.sum_all(ad.mul(repeat_rows(m, 4), weights)), [("m", m)],
                 coords=6)

    @pytest.mark.parametrize("name", ["add", "sub", "mul"])
    def test_column_broadcast(self, name):
        rng = np.random.default_rng(sum(map(ord, name)) + 1)
        op = {"add": ad.add, "sub": sub, "mul": ad.mul}[name]
        ref = {"add": np.add, "sub": np.subtract, "mul": np.multiply}[name]
        for sa, sb in [((3, 1), (3, 4)), ((3, 4), (3, 1)), ((2, 3, 1), (2, 3, 5))]:
            a, b = t(rng.standard_normal(sa)), t(rng.standard_normal(sb))
            assert np.array_equal(op(a, b).data, ref(a.data, b.data))
            weights = ad.constant(rng.standard_normal(np.broadcast_shapes(sa, sb)))
            check_op(lambda: ad.sum_all(ad.mul(op(a, b), weights)), [("a", a), ("b", b)],
                     coords=12)
        with pytest.raises(ShapeError):
            op(t(np.ones((3, 1))), t(np.ones((2, 4))))

    def test_pick_and_pairwise_add(self):
        rng = np.random.default_rng(13)
        x, a, b = t(rng.standard_normal((3, 4))), t(rng.standard_normal((2, 5))), \
            t(rng.standard_normal((3, 5)))
        picked = ad.pick(x, [3, 0, 3])
        assert picked.data.tolist() == [x.data[0, 3], x.data[1, 0], x.data[2, 3]]
        pairs = ad.pairwise_add(a, b)
        assert pairs.shape == (2, 3, 5)
        assert np.array_equal(pairs.data[1, 2], a.data[1] + b.data[2])

        def build():
            return ad.add(ad.sum_all(tanh(ad.pick(x, [1, 2, 0]))),
                          ad.sum_all(tanh(ad.pairwise_add(a, b))))

        check_op(build, [("x", x), ("a", a), ("b", b)], coords=40)
        with pytest.raises(ShapeError):
            ad.pick(x, [0, 1])
        with pytest.raises(ShapeError):
            ad.pairwise_add(a, t(np.ones((3, 4))))

    def test_embedding_gather_scatter_adds(self):
        table = t(np.random.default_rng(3).standard_normal((5, 2)))
        with Tape() as tape:
            rows = ad.embedding_gather(table, [1, 1, 4])
            loss = ad.sum_all(rows)
        tape.backward(loss)
        expected = np.zeros((5, 2))
        expected[1] = 2.0
        expected[4] = 1.0
        assert np.allclose(table.grad, expected)

    def test_sum_axis_and_transpose(self):
        rng = np.random.default_rng(11)
        x = t(rng.standard_normal((3, 4)))
        check_op(lambda: ad.sum_all(ad.mul(ad.sum_axis(x, 0), ad.sum_axis(x, 0))),
                 [("x", x)], coords=12)
        check_op(lambda: ad.sum_all(ad.matmul(ad.transpose(x), x)), [("x", x)], coords=12)

    def test_stacked_matmul_transpose_and_bias_add(self):
        # a 3-d operand is a stack of products, each bit-equal to its 2-d one
        rng = np.random.default_rng(12)
        cases = [((2, 3, 4), (4, 5)), ((3, 4), (2, 4, 5)), ((2, 3, 4), (2, 4, 1)),
                 ((2, 1, 4), (4, 1))]
        for sa, sb in cases:
            a, b = t(rng.standard_normal(sa)), t(rng.standard_normal(sb))
            out = ad.matmul(a, b)
            for k in range(out.shape[0]):
                one = ad.matmul(Tensor(a.data[k] if a.ndim == 3 else a.data),
                                Tensor(b.data[k] if b.ndim == 3 else b.data))
                assert np.array_equal(out.data[k], one.data)
            check_op(lambda: ad.sum_all(ad.matmul(a, b)), [("a", a), ("b", b)], coords=20)
        x, v = t(rng.standard_normal((2, 3, 4))), t(rng.standard_normal(3))
        weights = ad.constant(rng.standard_normal((2, 4, 3)))
        check_op(lambda: ad.sum_all(ad.mul(ad.add(ad.transpose(x), v), weights)),
                 [("x", x), ("v", v)], coords=20)
        with pytest.raises(ShapeError, match="matmul"):
            ad.matmul(t(np.ones((2, 3, 4))), t(np.ones((3, 4, 5))))

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_random_composites_match_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        n, m = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        w = t(rng.standard_normal((m, n)))
        x = t(rng.standard_normal(n))
        b = t(rng.standard_normal(m))

        def build():
            h = ad.elu(ad.add(ad.matmul(w, x), b))
            p = ad.softmax(h)
            return ad.add(ad.sum_all(ad.mul(p, tanh(h))),
                          ad.sum_all(ad.minimum(h, exp(h))))

        report = grad_check(build, [("w", w), ("x", x), ("b", b)],
                            rng=rng, total_coords=12, tol=1e-5)
        assert report.passed, report.worst


class TestGradCheckReport:
    def test_detects_wrong_gradient(self):
        x = t([1.0, 2.0, 3.0])

        calls = {"n": 0}

        def build():
            # deliberately inconsistent objective: value changes between
            # analytic and numeric passes
            calls["n"] += 1
            scale = 1.0 if calls["n"] == 1 else 1.5
            return ad.sum_all(ad.mul(x, scale))

        report = grad_check(build, [("x", x)], total_coords=3, tol=1e-4)
        assert not report.passed
        assert report.failures

    def test_ignores_gradients_left_by_an_earlier_backward(self):
        x, w = t([0.5, -1.0, 2.0]), t([[1.0, 2.0, -1.0], [0.5, 0.0, 3.0]])

        def build():
            return ad.sum_all(tanh(ad.matmul(w, x)))

        with Tape() as tape:
            loss = build()
        tape.backward(loss)
        assert x.grad is not None and w.grad is not None
        report = grad_check(build, [("x", x), ("w", w)], total_coords=9, tol=1e-6)
        assert report.passed, report.worst


class TestFusedOps:
    @pytest.mark.parametrize("x_shape", [(4,), (1, 4), (5, 4)])
    def test_affine_gradients(self, x_shape):
        rng = np.random.default_rng(len(x_shape) + x_shape[0])
        x, w, b = t(rng.standard_normal(x_shape)), t(rng.standard_normal((3, 4))), \
            t(rng.standard_normal(3))
        weights = ad.constant(rng.standard_normal(x_shape[:-1] + (3,)))
        check_op(lambda: ad.sum_all(ad.mul(ad.affine(x, w, b), weights)),
                 [("x", x), ("w", w), ("b", b)], coords=30)

    def test_affine_per_row_and_stacked_forms_equal_their_parts(self):
        # per_row: each row bit-equal to the vector form; a stack: each
        # matrix bit-equal to the matrix alone
        rng = np.random.default_rng(21)
        for m, k in [(1, 6), (13, 6), (400, 128)]:
            w, b = t(rng.standard_normal((m, k))), t(rng.standard_normal(m))
            rows, stack = t(rng.standard_normal((5, k))), t(rng.standard_normal((3, 4, k)))
            per_row = ad.affine(rows, w, b, per_row=True).data
            for r in range(5):
                assert np.array_equal(per_row[r], ad.affine(t(rows.data[r]), w, b).data)
            stacked = ad.affine(stack, w, b).data
            for s in range(3):
                assert np.array_equal(stacked[s], ad.affine(t(stack.data[s]), w, b).data)
        w, b = t(rng.standard_normal((3, 4))), t(rng.standard_normal(3))
        x, stack = t(rng.standard_normal((2, 4))), t(rng.standard_normal((2, 3, 4)))
        for build in (lambda: ad.affine(x, w, b, per_row=True), lambda: ad.affine(stack, w, b)):
            weights = ad.constant(rng.standard_normal(build().shape))
            check_op(lambda: ad.sum_all(ad.mul(build(), weights)),
                     [("x", x), ("stack", stack), ("w", w), ("b", b)], coords=40)

    def test_affine_rejects_mismatched_shapes(self):
        with pytest.raises(ShapeError, match="affine"):
            ad.affine(t(np.ones(3)), t(np.ones((2, 4))), t(np.ones(2)))
        with pytest.raises(ShapeError, match="affine"):
            ad.affine(t(np.ones(4)), t(np.ones((2, 4))), t(np.ones(3)))

    SEGMENTS = [[1], [3], [1, 1], [2, 1, 4], [5, 1, 1, 3]]

    @pytest.mark.parametrize("lengths", SEGMENTS)
    def test_affine_max_is_amax_of_each_segment(self, lengths):
        # bit-equal forward, gradients to rounding, and finite differences
        rng = np.random.default_rng(sum(lengths))
        for n_in, n_out in [(6, 4), (1, 3), (96, 100)]:
            x, w, b = (t(rng.standard_normal(s)) for s in ((sum(lengths), n_in), (n_out, n_in),
                                                           (n_out,)))
            bounds = np.cumsum([0] + lengths)

            def composed():
                return ad.stack_rows([amax(ad.affine(ad.narrow(x, 0, lo, hi), w, b), axis=0)
                                      for lo, hi in zip(bounds, bounds[1:])])

            up = rng.standard_normal((len(lengths), n_out))
            got, got_grads = run_op(lambda: ad.affine_max(x, w, b, lengths), [x, w, b], [up])
            want, want_grads = run_op(composed, [x, w, b], [up])
            assert_bits(got, want)
            for g, wg in zip(got_grads, want_grads):
                assert np.abs(g - wg).max() <= 1e-12 * np.abs(wg).max()
            if n_in < 10:
                for v in (x, w, b):
                    v.zero_grad()
                weights = ad.constant(up)
                check_op(lambda: ad.sum_all(ad.mul(ad.affine_max(x, w, b, lengths), weights)),
                         [("x", x), ("w", w), ("b", b)], coords=40)

    def test_affine_max_rejects_mismatched_shapes(self):
        x, w, b = t(np.ones((4, 3))), t(np.ones((2, 3))), t(np.ones(2))
        for bad in [(x, w, b, [1, 2]), (x, w, b, [4, 0]), (x, w, b, []),
                    (x, t(np.ones((2, 4))), b, [4]), (x, w, t(np.ones(3)), [4])]:
            with pytest.raises(ShapeError, match="affine_max"):
                ad.affine_max(*bad)

    def test_lookups_accumulate_repeated_rows(self):
        table = t(np.random.default_rng(6).standard_normal((5, 2)))
        with Tape() as tape:
            loss = ad.add(ad.sum_all(ad.embedding_gather(table, [3])),
                          ad.sum_all(ad.mul(ad.embedding_gather(table, [3]), 2.0)))
            loss = ad.add(loss, ad.sum_all(ad.embedding_gather(table, [0])))
            loss = ad.add(loss, ad.sum_all(ad.embedding_gather(table, [3, 4, 3])))
        tape.backward(loss)
        expected = np.zeros((5, 2))
        expected[3] = 5.0
        expected[0] = 1.0
        expected[4] = 1.0
        assert np.array_equal(table.grad, expected)

    @pytest.mark.parametrize("bad", [4, 100, -1, -4])
    def test_one_id_gather_rejects_out_of_range_ids(self, bad):
        table = t(np.arange(12.0).reshape(4, 3))
        with pytest.raises(IndexError):
            ad.embedding_gather(table, [bad])

    def test_one_id_gather_returns_a_copy_of_the_row(self):
        table = t(np.arange(12.0).reshape(4, 3))
        row = ad.embedding_gather(table, [2])
        table.data[2] = 0.0
        assert row.data.tolist() == [[6.0, 7.0, 8.0]]

    def test_first_gradient_is_stored_as_a_copy(self):
        x = t([1.0, 2.0])
        with Tape() as tape:
            # replayed in reverse: x's first gradient is y's own array, and
            # sum_all(x) adds to x's gradient afterwards
            sum_x = ad.sum_all(x)
            y = ad.add(x, 0.0)
            loss = ad.add(sum_x, ad.sum_all(y))
        tape.backward(loss)
        assert np.array_equal(x.grad, [2.0, 2.0])
        assert np.array_equal(y.grad, [1.0, 1.0])


# ---------------------------------------------------------------------------
# Bit-equality with the per-rank and per-broadcast branch forms that the one
# path per op replaced.  Each reference below is that branch's expression:
# the forward value and every gradient, given the output gradient ``g``.


def ref_matmul(a, b, g):
    if a.ndim == 2 and b.ndim == 2:
        return a @ b, g @ b.T, a.T @ g
    if a.ndim == 2 and b.ndim == 1:
        return a @ b, np.outer(g, b), a.T @ g
    if a.ndim == 1 and b.ndim == 2:
        return a @ b, b @ g, np.outer(a, g)
    if a.ndim == 1 and b.ndim == 1:
        return a @ b, g * b, g * a
    da = np.matmul(g, np.swapaxes(b, -1, -2))
    db = np.matmul(np.swapaxes(a, -1, -2), g)
    return (np.matmul(a, b), da.sum(axis=0) if a.ndim == 2 else da,
            db.sum(axis=0) if b.ndim == 2 else db)


def ref_add(a, b, g):
    if not isinstance(b, np.ndarray):
        return a + b, g, None
    if a.shape == b.shape:
        return a + b, g, g
    if a.ndim == 0:
        return a + b, g.sum(), g
    if b.ndim == 0:
        return a + b, g, g.sum()
    return a + b, g, g.reshape(-1, b.shape[0]).sum(axis=0)


def ref_sub(a, b, g):
    if not isinstance(b, np.ndarray):
        return a - b, g, None
    return (a - b, g.sum() if a.ndim == 0 and b.ndim != 0 else g,
            -g.sum() if b.ndim == 0 and a.ndim != 0 else -g)


def ref_mul(a, b, g):
    if not isinstance(b, np.ndarray):
        return a * b, g * b, None
    if a.shape == b.shape:
        return a * b, g * b, g * a
    if a.ndim == 0:
        return a * b, (g * b).sum(), g * a
    return a * b, g * b, (g * a).sum()


def ref_affine(x, w, b, g):
    if x.ndim == 1:
        return w @ x + b, w.T @ g, np.outer(g, x), g
    return x @ w.T.copy() + b, g @ w, g.T @ x, g.sum(axis=0)


def run_op(build, inputs, upstream):
    """The output of ``build()`` and each input's gradient, with
    ``upstream`` (one array per output) as the output gradients."""
    for x in inputs:
        x.zero_grad()
    with Tape() as tape:
        outs = build()
        outs = outs if isinstance(outs, tuple) else (outs,)
        loss = None
        for out, up in zip(outs, upstream):
            if up is None:
                continue
            term = ad.mul(out, ad.constant(up))
            term = ad.sum_all(term) if term.ndim else term
            loss = term if loss is None else ad.add(loss, term)
    tape.backward(loss)
    return [o.data for o in outs], [x.grad for x in inputs]


def assert_bits(got, want):
    assert len(got) == len(want)
    for gv, wv in zip(got, want):
        assert gv is not None and np.shape(gv) == np.shape(wv)
        assert np.array_equal(gv, wv)


class TestBitEquality:
    """Each op's one path computes the forward value and every gradient of
    the branch forms it replaced, bit for bit."""

    MATMUL_SHAPES = [
        ((5,), (5,)), ((1,), (1,)),
        ((5,), (5, 3)), ((5,), (5, 1)), ((1,), (1, 4)),
        ((3, 5), (5,)), ((1, 5), (5,)), ((3, 1), (1,)),
        ((3, 5), (5, 4)), ((1, 5), (5, 4)), ((3, 1), (1, 4)), ((3, 5), (5, 1)),
        ((2, 3, 5), (5, 4)), ((2, 3, 5), (5, 1)), ((2, 3, 1), (1, 4)),
        ((3, 5), (2, 5, 4)), ((1, 5), (2, 5, 4)), ((3, 5), (2, 5, 1)),
        ((2, 3, 5), (2, 5, 4)), ((4, 1, 5), (4, 5, 1)), ((2, 3, 1), (2, 1, 4)),
        ((8, 16, 32), (32, 7)), ((16, 32), (8, 32, 1)),
    ]

    @pytest.mark.parametrize("sa, sb", MATMUL_SHAPES)
    def test_matmul(self, sa, sb):
        rng = np.random.default_rng(len(sa) * 10 + len(sb))
        for _ in range(5):
            a, b = t(rng.standard_normal(sa)), t(rng.standard_normal(sb))
            up = rng.standard_normal(np.matmul(a.data, b.data).shape)
            out, ga, gb = ref_matmul(a.data, b.data, up)
            got_out, got_grads = run_op(lambda: ad.matmul(a, b), [a, b], [up])
            assert_bits(got_out + got_grads, [out, ga, gb])

    ELEMENTWISE_SHAPES = [
        ((), ()), ((4,), (4,)), ((3, 4), (3, 4)), ((2, 3, 4), (2, 3, 4)),
        ((), (4,)), ((), (3, 4)), ((), (9, 17)), ((4,), ()), ((3, 4), ()), ((9, 17), ()),
        ((2, 3, 4), ()), ((), (2, 3, 4)),
    ]
    BIAS_SHAPES = [((3, 4), (4,)), ((17, 9), (9,)), ((2, 3, 4), (4,)), ((6, 11, 5), (5,))]

    @pytest.mark.parametrize("name", ["add", "sub", "mul"])
    def test_add_sub_mul(self, name):
        op = {"add": ad.add, "sub": sub, "mul": ad.mul}[name]
        ref = {"add": ref_add, "sub": ref_sub, "mul": ref_mul}[name]
        rng = np.random.default_rng(sum(map(ord, name)))
        shapes = self.ELEMENTWISE_SHAPES + (self.BIAS_SHAPES if name == "add" else [])
        for sa, sb in shapes:
            for _ in range(3):
                a, b = t(rng.standard_normal(sa)), t(rng.standard_normal(sb))
                up = rng.standard_normal(np.broadcast_shapes(sa, sb))
                out, ga, gb = ref(a.data, b.data, up)
                got_out, got_grads = run_op(lambda: op(a, b), [a, b], [up])
                assert_bits(got_out + got_grads, [out, ga, gb])
        for sa in [(), (4,), (3, 4), (2, 3, 4)]:
            a, scalar = t(rng.standard_normal(sa)), float(rng.standard_normal())
            up = rng.standard_normal(sa)
            out, ga, _ = ref(a.data, scalar, up)
            got_out, got_grads = run_op(lambda: op(a, scalar), [a], [up])
            assert_bits(got_out + got_grads, [out, ga])

    @pytest.mark.parametrize("x_shape", [(6,), (1, 6), (5, 6), (9, 1), (1,)])
    def test_affine(self, x_shape):
        rng = np.random.default_rng(x_shape[0])
        for m in (1, 4, 13):
            x, w, b = (t(rng.standard_normal(s)) for s in (x_shape, (m, x_shape[-1]), (m,)))
            up = rng.standard_normal(x_shape[:-1] + (m,))
            out, gx, gw, gb = ref_affine(x.data, w.data, b.data, up)
            got_out, got_grads = run_op(lambda: ad.affine(x, w, b), [x, w, b], [up])
            assert_bits(got_out + got_grads, [out, gx, gw, gb])

    def test_narrow_and_element(self):
        rng = np.random.default_rng(3)
        for shape, axis, start, stop in [((7,), 0, 2, 5), ((4, 6), 0, 1, 3), ((4, 6), 1, 2, 6),
                                         ((4, 6), -1, 0, 1), ((2, 3, 5), 2, 1, 4)]:
            x = t(rng.standard_normal(shape))
            index = [slice(None)] * x.ndim
            index[axis] = slice(start, stop)
            up = rng.standard_normal(x.data[tuple(index)].shape)
            want = np.zeros(shape)
            want[tuple(index)] = up
            got_out, got_grads = run_op(lambda: ad.narrow(x, axis, start, stop), [x], [up])
            assert_bits(got_out + got_grads, [x.data[tuple(index)], want])
        v = t(rng.standard_normal(6))
        for i in (0, 4, -1):
            up = rng.standard_normal(())
            want = np.zeros(6)
            want[i] = up
            got_out, got_grads = run_op(lambda: ad.element(v, i), [v], [up])
            assert_bits(got_out + got_grads, [v.data[i], want])

    @pytest.mark.parametrize("name", ["maximum", "minimum"])
    def test_maximum_minimum_with_ties(self, name):
        rng = np.random.default_rng(11)
        op, pick, take = {"maximum": (maximum, np.maximum, np.greater_equal),
                          "minimum": (ad.minimum, np.minimum, np.less_equal)}[name]
        for shape in [(), (9,), (4, 5)]:
            a = t(rng.integers(-2, 3, size=shape).astype(float))
            b = t(rng.integers(-2, 3, size=shape).astype(float))  # many ties
            up = rng.standard_normal(shape)
            take_a = take(a.data, b.data)
            got_out, got_grads = run_op(lambda: op(a, b), [a, b], [up])
            assert_bits(got_out + got_grads,
                        [pick(a.data, b.data), up * take_a, up * ~take_a])


def composed_lstm_layer(x, h0, c0, w_ih, w_hh, b, reverse=False):
    """``lstm_layer`` as one ``composed_lstm_cell`` step per row of ``x``,
    with the rows as vectors; the ``h`` rows in input order."""
    state, outs = (h0, c0), {}
    for k in reversed(range(x.shape[0])) if reverse else range(x.shape[0]):
        row = ad.reshape(ad.narrow(x, 0, k, k + 1), (x.shape[1],))
        state = composed_lstm_cell(row, *state, w_ih, w_hh, b)
        outs[k] = state[0]
    return ad.stack_rows([outs[k] for k in range(x.shape[0])])


def chained_steps(x, h0, c0, w_ih, w_hh, b, lengths, reverse=False):
    """``lstm_layer``'s rows over the padded sequences ``x`` (B, T, d) by
    one ``lstm_step`` per step, as decoding runs it: each sequence still
    running continues its own state row and reads its own next input row.
    Padded rows stay zero."""
    n_seq, n_steps, _ = x.shape
    flat = Tensor(x.data.reshape(n_seq * n_steps, -1))
    h, c = h0.data.copy(), c0.data.copy()
    out = np.zeros((n_seq, n_steps, h.shape[1]))
    for k in range(max(lengths)):
        live = [s for s in range(n_seq) if k < lengths[s]]
        rows = [lengths[s] - 1 - k if reverse else k for s in live]
        h_new, c_new = ad.lstm_step(flat, Tensor(h), Tensor(c), w_ih, w_hh, b, live,
                                    [s * n_steps + r for s, r in zip(live, rows)])
        h[live], c[live] = h_new.data, c_new.data
        out[live, rows] = h_new.data
    return out


class TestLstmLayer:
    """``lstm_layer`` against composed LSTM steps, and against the decode
    step ``lstm_step``."""

    @staticmethod
    def inputs(rng, n_rows, n_in, hid):
        # small weights keep the gates off saturation, where central
        # differences lose their digits
        return [t(rng.standard_normal((n_rows, n_in))), t(rng.standard_normal(hid)),
                t(rng.standard_normal(hid)), t(0.5 * rng.standard_normal((4 * hid, n_in))),
                t(0.5 * rng.standard_normal((4 * hid, hid))), t(rng.standard_normal(4 * hid))]

    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("n_rows", [1, 6])
    def test_forward_bit_equal_to_cell_steps(self, n_rows, reverse):
        rng = np.random.default_rng(n_rows + 10 * reverse)
        for n_in, hid in [(5, 3), (1, 4), (12, 8)]:
            inputs = self.inputs(rng, n_rows, n_in, hid)
            got = ad.lstm_layer(*inputs, reverse=reverse)
            want = composed_lstm_layer(*inputs, reverse=reverse)
            assert_bits([got.data], [want.data])
            with Tape():  # the recording path computes the same forward
                assert_bits([ad.lstm_layer(*inputs, reverse=reverse).data], [want.data])

    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("n_rows", [1, 6])
    def test_forward_bit_equal_to_chained_steps(self, n_rows, reverse):
        # decoding and training run the same LSTM
        rng = np.random.default_rng(51 + n_rows + reverse)
        for n_in, hid in [(5, 3), (1, 4), (12, 8)]:
            x, h0, c0, w_ih, w_hh, b = self.inputs(rng, n_rows, n_in, hid)
            got = chained_steps(t(x.data[None]), t(h0.data[None]), t(c0.data[None]),
                                w_ih, w_hh, b, [n_rows], reverse)
            assert_bits([got[0]], [ad.lstm_layer(x, h0, c0, w_ih, w_hh, b, reverse).data])

    @pytest.mark.parametrize("reverse", [False, True])
    def test_gradients(self, reverse):
        rng = np.random.default_rng(21 + reverse)
        for trial, (n_rows, n_in, hid) in enumerate([(1, 3, 2), (6, 4, 5), (4, 1, 3)]):
            inputs = self.inputs(rng, n_rows, n_in, hid)
            weights = ad.constant(rng.standard_normal((n_rows, hid)))
            params = list(zip(["x", "h0", "c0", "w_ih", "w_hh", "b"], inputs))
            check_op(lambda: ad.sum_all(ad.mul(ad.lstm_layer(*inputs, reverse=reverse), weights)),
                     params, coords=80, seed=trial)

    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("n_rows", [1, 6])
    def test_gradients_match_cell_steps(self, n_rows, reverse):
        rng = np.random.default_rng(31 + n_rows + reverse)
        for n_in, hid in [(5, 3), (12, 8)]:
            inputs = self.inputs(rng, n_rows, n_in, hid)
            up = rng.standard_normal((n_rows, hid))
            _, got = run_op(lambda: ad.lstm_layer(*inputs, reverse=reverse), inputs, [up])
            _, want = run_op(lambda: composed_lstm_layer(*inputs, reverse=reverse),
                             inputs, [up])
            for g, w in zip(got, want):
                assert np.abs(g - w).max() <= 1e-12 * np.abs(w).max()

    LENGTHS = (1, 3, 6)

    def batch(self, rng, n_in, hid):
        """Three padded sequences of ``LENGTHS`` rows, each with its own
        state, and the padded rows of ``x`` filled with noise."""
        n_seq, n_steps = len(self.LENGTHS), max(self.LENGTHS)
        x, _, _, w_ih, w_hh, b = self.inputs(rng, n_seq * n_steps, n_in, hid)
        x = t(x.data.reshape(n_seq, n_steps, n_in))
        h0, c0 = t(rng.standard_normal((n_seq, hid))), t(rng.standard_normal((n_seq, hid)))
        return [x, h0, c0, w_ih, w_hh, b]

    @pytest.mark.parametrize("reverse", [False, True])
    def test_batch_rows_bit_equal_to_each_sequence_alone(self, reverse):
        rng = np.random.default_rng(41 + reverse)
        for n_in, hid in [(5, 3), (12, 8)]:
            x, h0, c0, w_ih, w_hh, b = self.batch(rng, n_in, hid)
            with Tape():
                got = ad.lstm_layer(x, h0, c0, w_ih, w_hh, b, reverse, self.LENGTHS)
            for s, n in enumerate(self.LENGTHS):
                alone = ad.lstm_layer(t(x.data[s, :n]), t(h0.data[s]), t(c0.data[s]),
                                      w_ih, w_hh, b, reverse)
                assert_bits([got.data[s, :n]], [alone.data])
                # a padded step carries the state: forward, the last one;
                # reversed, the initial one, so each sequence starts at its
                # own last row
                carried = h0.data[s] if reverse else alone.data[-1]
                assert_bits([got.data[s, n:]], [np.broadcast_to(carried, got.data[s, n:].shape)])

    @pytest.mark.parametrize("reverse", [False, True])
    def test_batch_rows_bit_equal_to_chained_steps(self, reverse):
        rng = np.random.default_rng(47 + reverse)
        for n_in, hid in [(5, 3), (12, 8)]:
            inputs = self.batch(rng, n_in, hid)
            got = ad.lstm_layer(*inputs, reverse, self.LENGTHS).data
            want = chained_steps(*inputs, self.LENGTHS, reverse)
            for s, n in enumerate(self.LENGTHS):
                assert_bits([got[s, :n]], [want[s, :n]])

    @pytest.mark.parametrize("reverse", [False, True])
    def test_batch_padded_rows_pass_no_gradient(self, reverse):
        rng = np.random.default_rng(43 + reverse)
        inputs = self.batch(rng, 4, 5)
        up = rng.standard_normal(inputs[0].shape[:-1] + (5,))
        out, grads = run_op(lambda: ad.lstm_layer(*inputs, reverse, self.LENGTHS), inputs, [up])
        x = inputs[0]
        for s, n in enumerate(self.LENGTHS):
            assert not grads[0][s, n:].any()
        # the padded rows of x do not reach the output or any gradient
        x.data[0, 1:] = x.data[1, 3:] = 5.0
        again, grads_again = run_op(lambda: ad.lstm_layer(*inputs, reverse, self.LENGTHS),
                                    inputs, [up])
        assert_bits(again + grads_again, out + grads)

    @pytest.mark.parametrize("reverse", [False, True])
    def test_batch_gradients(self, reverse):
        rng = np.random.default_rng(45 + reverse)
        inputs = self.batch(rng, 3, 4)
        weights = ad.constant(rng.standard_normal(inputs[0].shape[:-1] + (4,)))
        params = list(zip(["x", "h0", "c0", "w_ih", "w_hh", "b"], inputs))
        check_op(lambda: ad.sum_all(ad.mul(ad.lstm_layer(*inputs, reverse, self.LENGTHS),
                                           weights)),
                 params, coords=120, seed=int(reverse))

    def test_rejects_mismatched_shapes(self):
        x, h, c = t(np.ones((4, 3))), t(np.ones(2)), t(np.ones(2))
        w_ih, w_hh, b = t(np.ones((8, 3))), t(np.ones((8, 2))), t(np.ones(8))
        for bad in [(t(np.ones(3)), h, c, w_ih, w_hh, b),  # a vector, not rows
                    (t(np.ones((0, 3))), h, c, w_ih, w_hh, b),  # no rows
                    (x, h, t(np.ones(3)), w_ih, w_hh, b),
                    (x, h, c, t(np.ones((8, 2))), w_hh, b),
                    (x, h, c, w_ih, w_hh, t(np.ones(6)))]:
            with pytest.raises(ShapeError, match="lstm_layer"):
                ad.lstm_layer(*bad)
        xb, hb = t(np.ones((2, 4, 3))), t(np.ones((2, 2)))
        for lengths in [(4,), (1, 5), (-1, 2)]:  # one per sequence, within 0..T
            with pytest.raises(ShapeError, match="lstm_layer"):
                ad.lstm_layer(xb, hb, hb, w_ih, w_hh, b, lengths=lengths)
        with pytest.raises(ShapeError, match="lstm_layer"):  # lengths only for a batch
            ad.lstm_layer(x, h, c, w_ih, w_hh, b, lengths=(4,))


class TestLstmStep:
    """The forward-only decode step over rows."""

    @staticmethod
    def weights(rng, n_in, hid):
        return [t(0.5 * rng.standard_normal((4 * hid, n_in))),
                t(0.5 * rng.standard_normal((4 * hid, hid))), t(rng.standard_normal(4 * hid))]

    def test_rows_bit_equal_to_each_row_alone(self):
        rng = np.random.default_rng(4)
        for rows, n_in, hid in [(1, 3, 2), (4, 5, 3), (7, 1, 4)]:
            x, h, c = (t(rng.standard_normal((rows, d))) for d in (n_in, hid, hid))
            weights = self.weights(rng, n_in, hid)
            h_rows, c_rows = ad.lstm_step(x, h, c, *weights, np.arange(rows))
            for r in range(rows):
                one = ad.lstm_step(t(x.data[r:r + 1]), t(h.data[r:r + 1]), t(c.data[r:r + 1]),
                                   *weights, [0])
                assert_bits([h_rows.data[r], c_rows.data[r]], [one[0].data[0], one[1].data[0]])

    def test_shared_state_rows_equal_them_repeated(self):
        # several rows continue one state row
        rng = np.random.default_rng(5)
        n_in, hid, state_rows = 3, 4, np.array([0, 0, 2, 1, 2, 2])
        x = t(rng.standard_normal((len(state_rows), n_in)))
        h, c = (t(rng.standard_normal((3, hid))) for _ in range(2))
        weights = self.weights(rng, n_in, hid)
        shared = ad.lstm_step(x, h, c, *weights, state_rows)
        repeated = ad.lstm_step(x, t(h.data[state_rows]), t(c.data[state_rows]), *weights,
                                np.arange(len(state_rows)))
        assert_bits([v.data for v in shared], [v.data for v in repeated])
        with pytest.raises(ShapeError, match="lstm_step"):  # one state row per input row
            ad.lstm_step(x, h, c, *weights, state_rows[:-1])

    def test_shared_input_rows_equal_them_repeated(self):
        # several rows read one input row, and continue shared state rows
        rng = np.random.default_rng(6)
        n_in, hid = 3, 4
        input_rows, state_rows = np.array([1, 0, 1, 1, 2, 0]), np.array([0, 1, 1, 0, 1, 1])
        x = t(rng.standard_normal((3, n_in)))
        h, c = (t(rng.standard_normal((2, hid))) for _ in range(2))
        weights = self.weights(rng, n_in, hid)
        shared = ad.lstm_step(x, h, c, *weights, state_rows, input_rows)
        repeated = ad.lstm_step(t(x.data[input_rows]), t(h.data[state_rows]),
                                t(c.data[state_rows]), *weights, np.arange(len(state_rows)))
        assert_bits([v.data for v in shared], [v.data for v in repeated])
        with pytest.raises(ShapeError, match="lstm_step"):  # one state row per output row
            ad.lstm_step(x, h, c, *weights, state_rows[:-1], input_rows)
        with pytest.raises(ShapeError, match="lstm_step"):  # one state row per input row
            ad.lstm_step(x, h, c, *weights, state_rows)

    def test_rejects_mismatched_shapes(self):
        x, h, c = t(np.ones((1, 3))), t(np.ones((1, 2))), t(np.ones((1, 2)))
        w_ih, w_hh, b = t(np.ones((8, 3))), t(np.ones((8, 2))), t(np.ones(8))
        for bad in [(t(np.ones(3)), h, c, w_ih, w_hh, b),  # rows only
                    (x, t(np.ones(2)), t(np.ones(2)), w_ih, w_hh, b),
                    (x, h, t(np.ones((1, 3))), w_ih, w_hh, b),
                    (x, h, c, t(np.ones((8, 2))), w_hh, b),
                    (x, h, c, w_ih, w_hh, t(np.ones(6)))]:
            with pytest.raises(ShapeError, match="lstm_step"):
                ad.lstm_step(*bad, [0])

    def test_refuses_an_active_tape(self):
        # a recorded step would silently drop its gradient
        x, h, c = t(np.ones((1, 3))), t(np.ones((1, 2))), t(np.ones((1, 2)))
        with Tape(), pytest.raises(TapeError, match="lstm_step"):
            ad.lstm_step(x, h, c, t(np.ones((8, 3))), t(np.ones((8, 2))), t(np.ones(8)), [0])


class TestBlockedMv:
    """``_mv`` reads a weight of at least ``_BLOCK_MIN`` entries, whose row
    count is a multiple of 4, in row blocks when it has two rows or more
    and BLAS is OpenBLAS on one thread; every row stays bit-equal to that
    row alone and to the one call, on any thread count."""

    @staticmethod
    def count_matmuls(monkeypatch) -> list:
        calls, real = [], np.matmul

        def matmul(a, b, *args, **kwargs):
            calls.append(a.shape)
            return real(a, b, *args, **kwargs)

        monkeypatch.setattr(ad.np, "matmul", matmul)
        return calls

    @pytest.mark.parametrize("lead", [(2,), (5,), (16,), (2, 3)])
    def test_rows_read_the_weight_in_blocks(self, lead, monkeypatch):
        rng = np.random.default_rng(41)
        w = rng.standard_normal((1028, 1024))  # 17 blocks of 64 rows, the last of 4
        x = rng.standard_normal(lead + (1024,))
        assert w.size >= ad._BLOCK_MIN
        monkeypatch.setattr(ad, "_one_blas_thread", lambda: True)
        calls = self.count_matmuls(monkeypatch)
        got = ad._mv(w, x)
        assert calls == [(64, 1024)] * 16 + [(4, 1024)]
        monkeypatch.undo()
        for r in np.ndindex(lead):  # each row: its own call on each block
            assert_bits([got[r]], [np.concatenate([np.matmul(w[s:s + 64], x[r])
                                                   for s in range(0, 1028, 64)])])

    def test_several_blas_threads_take_the_one_call(self, monkeypatch):
        rng = np.random.default_rng(43)
        w, x = rng.standard_normal((1028, 1024)), rng.standard_normal((16, 1024))
        monkeypatch.setattr(ad, "_one_blas_thread", lambda: False)
        calls = self.count_matmuls(monkeypatch)
        got = ad._mv(w, x)
        assert calls == [(1028, 1024)]
        monkeypatch.undo()
        assert_bits([got], [np.matmul(w, x[..., None])[..., 0]])

    @pytest.mark.parametrize("lead", [(2,), (5,), (16,)])
    def test_each_row_bit_equal_to_it_alone(self, lead):
        # in-process, on whatever thread count BLAS runs here
        rng = np.random.default_rng(44)
        w = rng.standard_normal((1028, 1024))
        x = rng.standard_normal(lead + (1024,))
        got = ad._mv(w, x)
        for r in np.ndindex(lead):
            assert_bits([got[r]], [ad._mv(w, x[r])])

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_each_row_bit_equal_to_it_alone_on_a_set_thread_count(self, threads):
        # a child process whose OpenBLAS runs on a set number of threads:
        # with one, the rows are blocked (as the benchmark runs); with two,
        # OpenBLAS splits the 1028 rows at 514, and a block would round
        # rows 512 and 513 differently from the one call
        code = textwrap.dedent("""
            import numpy as np
            from arbor import autodiff as ad
            rng = np.random.default_rng(41)
            w = rng.standard_normal((1028, 1024))
            for lead in [(2,), (5,), (16,), (2, 3)]:
                x = rng.standard_normal(lead + (1024,))
                got = ad._mv(w, x)
                assert np.array_equal(got, np.matmul(w, x[..., None])[..., 0]), lead
                for r in np.ndindex(lead):
                    assert np.array_equal(got[r], ad._mv(w, x[r])), (lead, r)
                    assert np.array_equal(got[r], np.matmul(w, x[r])), (lead, r)
            print("rows bit-equal", ad._one_blas_thread())
        """)
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([str(Path(ad.__file__).parent.parent),
                                               os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        words = proc.stdout.split()
        assert words[:2] == ["rows", "bit-equal"], proc.stdout
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
        if threads == "1" and "openblas" in blas:
            assert words[2] == "True"  # the blocked path ran

    @pytest.mark.parametrize("shape, rows", [
        ((1028, 1024), 1),   # one row
        ((1027, 1024), 16),  # a row count that is not a multiple of 4
        ((256, 256), 16),    # the largest criterion-08 weight
    ])
    def test_plain_call(self, shape, rows, monkeypatch):
        rng = np.random.default_rng(42)
        w, x = rng.standard_normal(shape), rng.standard_normal((rows, shape[1]))
        monkeypatch.setattr(ad, "_one_blas_thread", lambda: True)
        calls = self.count_matmuls(monkeypatch)
        got = ad._mv(w, x)
        assert calls == [shape]
        monkeypatch.undo()
        assert_bits([got], [np.matmul(w, x[..., None])[..., 0]])
