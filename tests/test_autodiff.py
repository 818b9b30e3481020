import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arbor import autodiff as ad
from arbor.autodiff import ShapeError, Tape, TapeError, Tensor


def t(data, grad=True):
    return Tensor(np.asarray(data, dtype=float), requires_grad=grad)


def check_op(build, params, tol=1e-6, seed=0, coords=40):
    report = ad.grad_check(build, params, rng=np.random.default_rng(seed),
                           total_coords=coords, tol=tol)
    assert report.passed, report.worst
    return report


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
        out = ad.dropout(x, 0.25, train=True, rng=rng)
        kept = out.data[out.data > 0]
        assert np.allclose(kept, 1 / 0.75)
        assert abs(len(kept) / 10000 - 0.75) < 0.02
        # eval mode is the identity
        assert ad.dropout(x, 0.25, train=False) is x

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
            ad.backward(ad.sum_all(t([1.0])))

    def test_nested_tape_records_on_innermost(self):
        x = t([1.0, 2.0])
        with Tape() as outer:
            a = ad.sum_all(ad.mul(x, 3.0))
            with Tape() as inner:
                b = ad.sum_all(ad.mul(x, x))
                ad.backward(b)  # the innermost tape
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
    "sub": lambda a, b: ad.sub(a, b),
    "mul": lambda a, b: ad.mul(a, b),
    "maximum": lambda a, b: ad.maximum(a, b),
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
        op = getattr(ad, unary)
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

    def test_amax_and_repeat_rows(self):
        rng = np.random.default_rng(9)
        x = t(rng.standard_normal((4, 3)))
        v = t(rng.standard_normal(5))

        def build():
            pooled = ad.amax(x, axis=0)  # (3,)
            tiled = ad.repeat_rows(v, 3)  # (3, 5)
            return ad.add(ad.sum_all(pooled), ad.sum_all(tiled))

        check_op(build, [("x", x), ("v", v)], coords=27)

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
            return ad.add(ad.sum_all(ad.mul(p, ad.tanh(h))),
                          ad.sum_all(ad.minimum(h, ad.exp(h))))

        report = ad.grad_check(build, [("w", w), ("x", x), ("b", b)],
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

        report = ad.grad_check(build, [("x", x)], total_coords=3, tol=1e-4)
        assert not report.passed
        assert report.failures


class TestFusedOps:
    @pytest.mark.parametrize("reach", ["h", "c", "both"])
    def test_lstm_cell_gradients(self, reach):
        rng = np.random.default_rng({"h": 1, "c": 2, "both": 3}[reach])
        for trial, (n_in, hid) in enumerate([(3, 2), (4, 5), (1, 3)]):
            x, h, c = t(rng.standard_normal(n_in)), t(rng.standard_normal(hid)), \
                t(rng.standard_normal(hid))
            # small weights keep the gates off saturation, where central
            # differences lose their digits
            w_ih = t(0.5 * rng.standard_normal((4 * hid, n_in)))
            w_hh = t(0.5 * rng.standard_normal((4 * hid, hid)))
            b = t(rng.standard_normal(4 * hid))
            wh = ad.constant(rng.standard_normal(hid))
            wc = ad.constant(rng.standard_normal(hid))

            def build():
                h_new, c_new = ad.lstm_cell(x, h, c, w_ih, w_hh, b)
                if reach == "h":
                    return ad.matmul(h_new, wh)
                if reach == "c":
                    return ad.matmul(c_new, wc)
                return ad.add(ad.matmul(h_new, wh), ad.matmul(c_new, wc))

            params = [("x", x), ("h", h), ("c", c), ("w_ih", w_ih), ("w_hh", w_hh), ("b", b)]
            check_op(build, params, coords=60, seed=trial)

    def test_lstm_cell_rows(self):
        # each row is bit-equal to the vector form; the rows form's gradients
        # match finite differences
        rng = np.random.default_rng(4)
        for trial, (rows, n_in, hid) in enumerate([(1, 3, 2), (4, 5, 3), (7, 1, 4)]):
            x, h, c = (t(rng.standard_normal((rows, d))) for d in (n_in, hid, hid))
            w_ih = t(0.5 * rng.standard_normal((4 * hid, n_in)))
            w_hh = t(0.5 * rng.standard_normal((4 * hid, hid)))
            b = t(rng.standard_normal(4 * hid))
            h_rows, c_rows = ad.lstm_cell(x, h, c, w_ih, w_hh, b)
            for r in range(rows):
                h1, c1 = ad.lstm_cell(Tensor(x.data[r]), Tensor(h.data[r]), Tensor(c.data[r]),
                                      w_ih, w_hh, b)
                assert np.array_equal(h_rows.data[r], h1.data)
                assert np.array_equal(c_rows.data[r], c1.data)
            wh, wc = (ad.constant(rng.standard_normal((rows, hid))) for _ in range(2))

            def build():
                h_new, c_new = ad.lstm_cell(x, h, c, w_ih, w_hh, b)
                return ad.sum_all(ad.add(ad.mul(h_new, wh), ad.mul(c_new, wc)))

            params = [("x", x), ("h", h), ("c", c), ("w_ih", w_ih), ("w_hh", w_hh), ("b", b)]
            check_op(build, params, coords=60, seed=trial)

    def test_lstm_cell_state_rows(self):
        # rows continuing shared states equal the rows form on the states
        # repeated per row; gradients sum into the shared states
        rng = np.random.default_rng(5)
        n_in, hid, state_rows = 3, 4, np.array([0, 0, 2, 1, 2, 2])
        x = t(rng.standard_normal((len(state_rows), n_in)))
        h, c = (t(rng.standard_normal((3, hid))) for _ in range(2))
        w_ih = t(0.5 * rng.standard_normal((4 * hid, n_in)))
        w_hh = t(0.5 * rng.standard_normal((4 * hid, hid)))
        b = t(rng.standard_normal(4 * hid))
        shared = ad.lstm_cell(x, h, c, w_ih, w_hh, b, state_rows)
        repeated = ad.lstm_cell(x, Tensor(h.data[state_rows]), Tensor(c.data[state_rows]),
                                w_ih, w_hh, b)
        for got, want in zip(shared, repeated):
            assert np.array_equal(got.data, want.data)
        wh, wc = (ad.constant(rng.standard_normal((len(state_rows), hid))) for _ in range(2))

        def build():
            h_new, c_new = ad.lstm_cell(x, h, c, w_ih, w_hh, b, state_rows)
            return ad.sum_all(ad.add(ad.mul(h_new, wh), ad.mul(c_new, wc)))

        params = [("x", x), ("h", h), ("c", c), ("w_ih", w_ih), ("w_hh", w_hh), ("b", b)]
        check_op(build, params, coords=60, seed=5)
        with pytest.raises(ShapeError, match="lstm_cell"):  # one state row per input row
            ad.lstm_cell(x, h, c, w_ih, w_hh, b, state_rows[:-1])

    def test_lstm_cell_rejects_mismatched_shapes(self):
        x, h, c = t(np.ones(3)), t(np.ones(2)), t(np.ones(2))
        with pytest.raises(ShapeError, match="lstm_cell"):
            ad.lstm_cell(x, h, c, t(np.ones((8, 2))), t(np.ones((8, 2))), t(np.ones(8)))

    @pytest.mark.parametrize("x_shape", [(4,), (1, 4), (5, 4)])
    def test_affine_gradients(self, x_shape):
        rng = np.random.default_rng(len(x_shape) + x_shape[0])
        x, w, b = t(rng.standard_normal(x_shape)), t(rng.standard_normal((3, 4))), \
            t(rng.standard_normal(3))
        weights = ad.constant(rng.standard_normal(x_shape[:-1] + (3,)))
        check_op(lambda: ad.sum_all(ad.mul(ad.affine(x, w, b), weights)),
                 [("x", x), ("w", w), ("b", b)], coords=30)

    def test_affine_rejects_mismatched_shapes(self):
        with pytest.raises(ShapeError, match="affine"):
            ad.affine(t(np.ones(3)), t(np.ones((2, 4))), t(np.ones(2)))
        with pytest.raises(ShapeError, match="affine"):
            ad.affine(t(np.ones(4)), t(np.ones((2, 4))), t(np.ones(3)))

    def test_embed_one_gradients(self):
        rng = np.random.default_rng(5)
        table = t(rng.standard_normal((6, 3)))
        weights = ad.constant(rng.standard_normal(3))
        check_op(lambda: ad.matmul(ad.tanh(ad.embed_one(table, 4)), weights),
                 [("table", table)], coords=18)

    def test_lookups_accumulate_repeated_rows(self):
        table = t(np.random.default_rng(6).standard_normal((5, 2)))
        with Tape() as tape:
            loss = ad.add(ad.sum_all(ad.embed_one(table, 3)),
                          ad.sum_all(ad.mul(ad.embed_one(table, 3), 2.0)))
            loss = ad.add(loss, ad.sum_all(ad.embed_one(table, 0)))
            loss = ad.add(loss, ad.sum_all(ad.embedding_gather(table, [3, 4, 3])))
        tape.backward(loss)
        expected = np.zeros((5, 2))
        expected[3] = 5.0
        expected[0] = 1.0
        expected[4] = 1.0
        assert np.array_equal(table.grad, expected)

    @pytest.mark.parametrize("bad", [4, 100, -1, -4])
    def test_embed_one_rejects_out_of_range_ids(self, bad):
        table = t(np.arange(12.0).reshape(4, 3))
        with pytest.raises(IndexError):
            ad.embed_one(table, bad)

    def test_embed_one_returns_a_copy_of_the_row(self):
        table = t(np.arange(12.0).reshape(4, 3))
        row = ad.embed_one(table, 2)
        table.data[2] = 0.0
        assert row.data.tolist() == [6.0, 7.0, 8.0]

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


def ref_lstm_cell(x, h, c, w_ih, w_hh, b, gh, gc, state_rows=None):
    """Forward ``(h, c)`` and the gradients of x, h, c, w_ih, w_hh, b."""
    hid = h.shape[-1]
    rows = x.ndim == 2
    hh, c_prev = np.matmul(w_hh, h[..., None])[..., 0], c
    if state_rows is not None:
        hh, c_prev = hh[state_rows], c_prev[state_rows]
    gates = np.matmul(w_ih, x[..., None])[..., 0] + hh + b
    i = 1.0 / (1.0 + np.exp(-gates[..., 0:hid]))
    f = 1.0 / (1.0 + np.exp(-gates[..., hid:2 * hid]))
    gg = np.tanh(gates[..., 2 * hid:3 * hid])
    o = 1.0 / (1.0 + np.exp(-gates[..., 3 * hid:4 * hid]))
    c_data = f * c_prev + i * gg
    tanh_c = np.tanh(c_data)

    def to_states(g_rows):
        if state_rows is None:
            return g_rows
        out = np.zeros((h.shape[0], g_rows.shape[1]))
        np.add.at(out, state_rows, g_rows)
        return out

    if gh is None:
        dc, d_o = gc, np.zeros_like(c_data)
    else:
        dc = gh * o * (1.0 - tanh_c * tanh_c)
        if gc is not None:
            dc = gc + dc
        d_o = gh * tanh_c * o * (1.0 - o)
    d_gates = np.concatenate([dc * gg * i * (1.0 - i), dc * c_prev * f * (1.0 - f),
                              dc * i * (1.0 - gg * gg), d_o], axis=-1)
    grads = [
        d_gates @ w_ih if rows else w_ih.T @ d_gates,
        to_states(d_gates @ w_hh) if rows else w_hh.T @ d_gates,
        to_states(dc * f),
        d_gates.T @ x if rows else np.outer(d_gates, x),
        to_states(d_gates).T @ h if rows else np.outer(d_gates, h),
        d_gates.sum(axis=0) if rows else d_gates,
    ]
    return (o * tanh_c, c_data), grads


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
        op, ref = getattr(ad, name), {"add": ref_add, "sub": ref_sub, "mul": ref_mul}[name]
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

    @pytest.mark.parametrize("reach", ["h", "c", "both"])
    @pytest.mark.parametrize("form", ["vector", "one_row", "rows", "state_rows"])
    def test_lstm_cell(self, form, reach):
        rng = np.random.default_rng(7)
        for n_in, hid in [(5, 3), (1, 4), (12, 8)]:
            n_rows = {"vector": None, "one_row": 1, "rows": 6, "state_rows": 7}[form]
            state_rows = np.array([0, 2, 2, 1, 0, 2, 2]) if form == "state_rows" else None
            lead = () if n_rows is None else (n_rows,)
            state_lead = (3,) if form == "state_rows" else lead
            x = t(rng.standard_normal(lead + (n_in,)))
            h, c = (t(rng.standard_normal(state_lead + (hid,))) for _ in range(2))
            w_ih = t(0.5 * rng.standard_normal((4 * hid, n_in)))
            w_hh = t(0.5 * rng.standard_normal((4 * hid, hid)))
            b = t(rng.standard_normal(4 * hid))
            gh = rng.standard_normal(lead + (hid,)) if reach in ("h", "both") else None
            gc = rng.standard_normal(lead + (hid,)) if reach in ("c", "both") else None
            inputs = [x, h, c, w_ih, w_hh, b]
            outs, grads = ref_lstm_cell(*(v.data for v in inputs), gh, gc, state_rows)
            got_outs, got_grads = run_op(lambda: ad.lstm_cell(*inputs, state_rows),
                                         inputs, [gh, gc])
            assert_bits(got_outs + got_grads, list(outs) + grads)

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
        pick, take = {"maximum": (np.maximum, np.greater_equal),
                      "minimum": (np.minimum, np.less_equal)}[name]
        for shape in [(), (9,), (4, 5)]:
            a = t(rng.integers(-2, 3, size=shape).astype(float))
            b = t(rng.integers(-2, 3, size=shape).astype(float))  # many ties
            up = rng.standard_normal(shape)
            take_a = take(a.data, b.data)
            got_out, got_grads = run_op(lambda: getattr(ad, name)(a, b), [a, b], [up])
            assert_bits(got_out + got_grads,
                        [pick(a.data, b.data), up * take_a, up * ~take_a])
