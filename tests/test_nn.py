import numpy as np
import pytest

from arbor import autodiff as ad
from arbor import nn

from conftest import concatenated_scores, grad_check, repeat_rows
from test_model import amax


def const(x):
    return ad.constant(np.asarray(x, dtype=float))


def word_features(cnn, char_ids):
    """One word's pooled character features: row 0 of ``cnn.rows``."""
    return ad.element(cnn.rows([char_ids]), 0)


class TestScorers:
    def test_ffn_identity(self):
        lin = nn.Linear(np.random.default_rng(0), 3, 3)
        lin.w.data[:] = np.eye(3)
        lin.b.data[:] = 0
        x = const([1.0, -2.0, 3.0])
        assert np.allclose(lin(x).data, x.data)

    def test_ffn_matrix_rows_match_vector_calls(self):
        rng = np.random.default_rng(1)
        lin = nn.Linear(rng, 4, 3)
        rows = rng.standard_normal((5, 4))
        batched = lin(const(rows)).data
        for i in range(5):
            assert np.allclose(batched[i], lin(const(rows[i])).data)

    def test_mlp_is_elu_of_ffn(self):
        rng = np.random.default_rng(2)
        mlp = nn.Mlp(rng, 3, 2)
        x = const([0.5, -1.0, 2.0])
        raw = mlp.lin(x).data
        assert np.allclose(mlp(x).data, np.where(raw > 0, raw, np.expm1(raw)))

    def test_biaffine_zero_params_zero_scores(self):
        rng = np.random.default_rng(3)
        bi = nn.Biaffine(rng, 3, 3)
        bi.u.data[:] = 0
        bi.w.data[:] = 0
        bi.b.data = np.zeros(())
        scores = bi(const([1.0, 2.0, 3.0]), const(np.random.randn(4, 3)))
        assert np.allclose(scores.data, 0.0)

    def test_biaffine_formula_by_hand(self):
        rng = np.random.default_rng(4)
        bi = nn.Biaffine(rng, 2, 3)
        x1 = np.array([0.5, -1.5])
        x2 = np.array([[1.0, 2.0, 3.0], [0.0, 1.0, 0.0]])
        expected = [
            x1 @ bi.u.data @ row + bi.w.data @ np.concatenate([x1, row]) + bi.b.data
            for row in x2
        ]
        assert np.allclose(bi(const(x1), const(x2)).data, expected)

    def test_biaffine_batch_equals_pairwise_loop(self):
        rng = np.random.default_rng(5)
        bi = nn.Biaffine(rng, 6, 6)
        x1 = const(rng.standard_normal(6))
        rows = rng.standard_normal((8, 6))
        batch = bi(x1, const(rows)).data
        loop = [bi(x1, const(r[None, :])).data[0] for r in rows]
        assert np.max(np.abs(batch - loop)) < 1e-10

    def test_bilinear_slices(self):
        rng = np.random.default_rng(6)
        bl = nn.Bilinear(rng, 3, 3, 2)
        bl.u.data[0] = np.eye(3)
        bl.u.data[1] = 0
        bl.b.data[:] = 0
        e1 = np.array([[1.0, 0.0, 0.0]])
        assert np.allclose(bl(const([e1]), const(e1)).data, [[[1.0, 0.0]]])

    def test_bilinear_formula_by_hand(self):
        rng = np.random.default_rng(7)
        bl = nn.Bilinear(rng, 4, 3, 5)
        x1, x2 = rng.standard_normal(4), rng.standard_normal(3)
        expected = [x1 @ bl.u.data[k] @ x2 + bl.b.data[k] for k in range(5)]
        assert np.allclose(bl(const([[x1]]), const([x2])).data, [[expected]])


def old_bilinear_scores(bl, x1, x2):
    """The vector form of the old ``Bilinear`` and, for rows, the batched
    form that ``Decoder.relation_dist_all`` once spelled out, for one query
    vector ``x2``."""
    flat = ad.reshape(bl.u, (bl.classes * bl.dim1, bl.dim2))
    t = ad.reshape(ad.matmul(flat, x2), (bl.classes, bl.dim1))
    if x1.ndim == 2:
        return ad.add(ad.matmul(x1, ad.transpose(t)), bl.b)
    return ad.add(ad.matmul(t, x1), bl.b)


class TestBilinearRows:
    def test_forms_equal_old_expressions(self):
        for seed in range(6):
            rng = np.random.default_rng(seed)
            d1, d2, k = (int(v) for v in rng.integers(1, 40, size=3))
            bl = nn.Bilinear(rng, d1, d2, k)
            bl.b.data = rng.standard_normal(k)
            tgt = const(rng.standard_normal(d2))
            for m in (None, 1, 2, int(rng.integers(3, 20))):
                # a source vector is a one-row matrix of the one-query stack
                x1 = const(rng.standard_normal(d1 if m is None else (m, d1)).reshape(-1, d1))
                scores = bl(ad.reshape(x1, (1,) + x1.shape), ad.reshape(tgt, (1, d2)))
                assert scores.shape == (1, x1.shape[0], k)
                assert np.array_equal(scores.data[0], old_bilinear_scores(bl, x1, tgt).data)

    def test_each_row_matches_vector_form(self):
        for seed in range(6):
            rng = np.random.default_rng(seed)
            d1, d2, k = (int(v) for v in rng.integers(1, 12, size=3))
            bl = nn.Bilinear(rng, d1, d2, k)
            bl.b.data = rng.standard_normal(k)
            tgt = const(rng.standard_normal((1, d2)))
            rows = rng.standard_normal((int(rng.integers(1, 9)), d1))
            batched = bl(const([rows]), tgt).data[0]
            for i, row in enumerate(rows):
                assert np.abs(batched[i] - bl(const([[row]]), tgt).data[0, 0]).max() <= 1e-12

    @pytest.mark.parametrize("x1_shape, x2_shape", [
        ((2, 3, 4), (5,)),  # 3-D x1
        ((6,), (5,)),  # wrong dim1, vector
        ((3, 6), (5,)),  # wrong dim1, rows
        ((4,), (6,)),  # wrong x2
        ((3, 4), (3, 5)),  # x2 given as rows
        ((4,), (5,)),  # vectors: one query is a one-row stack
        ((3, 4), (5,)),  # a matrix against a query vector
        ((2, 3, 4), (3, 5)),  # 2 source matrices for 3 queries
    ])
    def test_shape_errors(self, x1_shape, x2_shape):
        bl = nn.Bilinear(np.random.default_rng(0), 4, 5, 3)
        with pytest.raises(ad.ShapeError):
            bl(const(np.ones(x1_shape)), const(np.ones(x2_shape)))


class TestQueryRows:
    """Query-rows forms for a batch of independent queries: each row agrees
    with the one query alone to rounding, and gradients match finite
    differences."""

    def test_biaffine_and_bilinear_query_rows(self):
        for seed in range(6):
            rng = np.random.default_rng(seed)
            d1, d2, k, m, n = (int(v) for v in rng.integers(1, 12, size=5))
            bi = nn.Biaffine(rng, d1, d2)
            bl = nn.Bilinear(rng, d2, d1, k)
            bi.b.data, bl.b.data = np.asarray(rng.standard_normal()), rng.standard_normal(k)
            queries = rng.standard_normal((m, d1))
            cands = rng.standard_normal((m, n, d2))
            points = bi(const(queries), const(cands)).data
            types = bl(const(cands), const(queries)).data
            assert points.shape == (m, n) and types.shape == (m, n, k)
            for i in range(m):
                q, c = const(queries[i]), const(cands[i])
                assert np.abs(points[i] - bi(q, c).data).max() <= 1e-12
                one = bl(const(cands[i : i + 1]), const(queries[i : i + 1])).data[0]
                assert np.abs(types[i] - one).max() <= 1e-12

    def test_biaffine_query_rows_bit_equal_to_one_query(self):
        # each query against its own candidates takes the one query's
        # products: the biaffine, attention pairs, and the bilinear per row
        for seed in range(6):
            rng = np.random.default_rng(seed)
            d1, d2, m, n = (int(v) for v in rng.integers(1, 40, size=4))
            bi = nn.Biaffine(rng, d1, d2)
            bi.b.data = np.asarray(rng.standard_normal())
            queries = rng.standard_normal((m, d1))
            cands = rng.standard_normal((m, n, d2))
            points = bi(const(queries), const(cands)).data
            h, k = (int(v) for v in rng.integers(1, 40, size=2))
            att, bl = nn.AttentionScorer(rng, d1 + d2, h), nn.Bilinear(rng, d2, d1, k)
            att.mlp.lin.b.data, bl.b.data = rng.standard_normal(h), rng.standard_normal(k)
            scores = att.pairs(const(queries), const(cands)).data
            types = bl(const(cands), const(queries), per_row=True).data
            assert scores.shape == (m, n) and types.shape == (m, n, k)
            for b in range(m):
                q, c = const(queries[b]), const(cands[b])
                assert np.array_equal(points[b], bi(q, c).data)
                assert np.array_equal(scores[b], att.pairs(q, c).data)
                one = bl(const(cands[b : b + 1]), const(queries[b : b + 1]), per_row=True)
                assert np.array_equal(types[b], one.data[0])

    def test_query_rows_gradients(self):
        rng = np.random.default_rng(9)
        bi, bl = nn.Biaffine(rng, 3, 4), nn.Bilinear(rng, 4, 3, 2)
        queries = ad.Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        cands = ad.Tensor(rng.standard_normal((2, 5, 4)), requires_grad=True)
        w1, w2 = const(rng.standard_normal((2, 5))), const(rng.standard_normal((2, 5, 2)))

        def loss():
            return ad.add(ad.sum_all(ad.mul(bi(queries, cands), w1)),
                          ad.sum_all(ad.mul(bl(cands, queries), w2)))

        params = [("queries", queries), ("cands", cands),
                  *bi.parameters("bi.").items(), *bl.parameters("bl.").items()]
        report = grad_check(loss, params, rng=np.random.default_rng(0), total_coords=60,
                               tol=1e-6)
        assert report.passed, report.worst

    def test_shared_candidates_and_attention_pairs(self):
        # one matrix of queries against one shared matrix of candidates
        for seed in range(6):
            rng = np.random.default_rng(seed)
            d1, d2, m, n, h = (int(v) for v in rng.integers(1, 12, size=5))
            bi = nn.Biaffine(rng, d1, d2)
            bi.b.data = np.asarray(rng.standard_normal())
            att = nn.AttentionScorer(rng, d1 + d2, h)
            att.mlp.lin.b.data = rng.standard_normal(h)
            queries, cands = rng.standard_normal((m, d1)), rng.standard_normal((n, d2))
            points = bi(const(queries), const(cands)).data
            scores = att.pairs(const(queries), const(cands)).data
            assert points.shape == scores.shape == (m, n)
            for i in range(m):
                q = const(queries[i])
                assert np.abs(points[i] - bi(q, const(cands)).data).max() <= 1e-12
                rows = ad.concat([repeat_rows(q, n), const(cands)], axis=1)
                assert np.abs(scores[i] - concatenated_scores(att, rows).data).max() <= 1e-12

    def test_shared_candidates_and_attention_pairs_gradients(self):
        rng = np.random.default_rng(10)
        bi, att = nn.Biaffine(rng, 3, 4), nn.AttentionScorer(rng, 7, 5)
        queries = ad.Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        cands = ad.Tensor(rng.standard_normal((5, 4)), requires_grad=True)
        w1, w2 = const(rng.standard_normal((2, 5))), const(rng.standard_normal((2, 5)))

        def loss():
            return ad.add(ad.sum_all(ad.mul(bi(queries, cands), w1)),
                          ad.sum_all(ad.mul(att.pairs(queries, cands), w2)))

        params = [("queries", queries), ("cands", cands),
                  *bi.parameters("bi.").items(), *att.parameters("att.").items()]
        report = grad_check(loss, params, rng=np.random.default_rng(0), total_coords=60,
                               tol=1e-6)
        assert report.passed, report.worst

    def test_biaffine_rejects_mismatched_rows(self):
        bi = nn.Biaffine(np.random.default_rng(0), 3, 4)
        with pytest.raises(ad.ShapeError, match="biaffine"):
            bi(const(np.ones((2, 3))), const(np.ones((3, 5, 4))))


class TestLstm:
    def test_zero_params_zero_states(self):
        rng = np.random.default_rng(8)
        lstm = nn.BiLstm(rng, 3, 4, 1)
        for p in lstm.parameters().values():
            p.data[:] = 0
        outs = lstm.run(const(np.ones((3, 3))))
        for h in outs[-1].data:
            assert np.allclose(h, 0.0)  # o=sigmoid(0)=.5 but tanh(c)=0

    def test_forget_bias_initialized_to_one(self):
        cell = nn.LstmCell(np.random.default_rng(9), 2, 3)
        assert np.allclose(cell.b.data[3:6], 1.0)
        assert np.allclose(cell.b.data[:3], 0.0)

    def test_single_token_bilstm_directions_symmetric(self):
        # n=1: forward and backward see the same single input
        rng = np.random.default_rng(10)
        bil = nn.BiLstm(rng, 3, 4, 1)
        fwd = bil.fwd[0]
        bwd = bil.bwd[0]
        for pf, pb in zip(fwd.parameters().values(), bwd.parameters().values()):
            pb.data = pf.data.copy()
        (states,) = bil.run(const([[0.1, -0.2, 0.3]]))
        h = states.data[0]
        assert np.allclose(h[:4], h[4:])

    def test_reversing_input_swaps_directional_halves(self):
        rng = np.random.default_rng(11)
        bil = nn.BiLstm(rng, 3, 4, 1)
        xs = const(rng.standard_normal((5, 3)))
        forward_run = bil.run(xs)[-1].data
        swapped = nn.BiLstm(rng, 3, 4, 1)
        # swap direction parameters, then run on reversed input
        for pf, pb in zip(bil.fwd[0].parameters().values(),
                          swapped.bwd[0].parameters().values()):
            pb.data = pf.data.copy()
        for pb, pf in zip(bil.bwd[0].parameters().values(),
                          swapped.fwd[0].parameters().values()):
            pf.data = pb.data.copy()
        reversed_run = swapped.run(const(xs.data[::-1]))[-1].data
        h = 4
        for t in range(5):
            a = forward_run[t]
            b = reversed_run[4 - t]
            assert np.allclose(a[:h], b[h:])
            assert np.allclose(a[h:], b[:h])

    def test_empty_sequence_rejected(self):
        bil = nn.BiLstm(np.random.default_rng(0), 2, 2, 1)
        with pytest.raises(ValueError, match="empty"):
            bil.run(const(np.zeros((0, 2))))

    def test_two_layer_gradients(self):
        rng = np.random.default_rng(12)
        bil = nn.BiLstm(rng, 3, 3, 2)
        xs = const(rng.standard_normal((3, 3)))
        report = grad_check(
            lambda: ad.sum_all(bil.run(xs)[-1]),
            list(bil.parameters().items()), total_coords=80, rng=rng,
        )
        assert report.passed, report.worst


class TestCharCnn:
    def test_output_shape_fixed(self):
        cnn = nn.CharCnn(np.random.default_rng(13), 20, 5, 7)
        for word in ([], [1], [1, 2], list(range(1, 15))):
            assert word_features(cnn, word).shape == (7,)

    def test_zero_kernels_give_bias(self):
        cnn = nn.CharCnn(np.random.default_rng(14), 20, 5, 7)
        cnn.w.data[:] = 0
        cnn.b.data[:] = np.arange(7.0)
        assert np.allclose(word_features(cnn, [3]).data, np.arange(7.0))

    def test_hand_convolution_two_chars(self):
        rng = np.random.default_rng(15)
        cnn = nn.CharCnn(rng, 10, 4, 3)
        ids = [2, 5]
        e = cnn.emb.table.data
        pad = e[0]
        windows = np.stack([
            np.concatenate([pad, e[2], e[5]]),
            np.concatenate([e[2], e[5], pad]),
        ])
        expected = (windows @ cnn.w.data.T + cnn.b.data).max(axis=0)
        assert np.allclose(word_features(cnn, ids).data, expected)

    def test_interior_permutation_changes_output(self):
        cnn = nn.CharCnn(np.random.default_rng(16), 10, 4, 6)
        a = word_features(cnn, [1, 2, 3, 4]).data
        b = word_features(cnn, [1, 3, 2, 4]).data
        assert not np.allclose(a, b)

    def test_even_kernel_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            nn.CharCnn(np.random.default_rng(0), 10, 4, 6, kernel=2)

    def test_gradients(self):
        rng = np.random.default_rng(17)
        cnn = nn.CharCnn(rng, 12, 3, 4)
        report = grad_check(
            lambda: ad.sum_all(ad.mul(word_features(cnn, [1, 4, 2]), word_features(cnn, [5]))),
            list(cnn.parameters().items()), total_coords=60, rng=rng,
        )
        assert report.passed, report.worst


class TestModuleRegistry:
    def test_parameter_names_are_dotted_paths(self):
        rng = np.random.default_rng(18)
        mlp = nn.Mlp(rng, 2, 3)
        assert set(mlp.parameters()) == {"lin.w", "lin.b"}

    def test_xavier_bounds(self):
        rng = np.random.default_rng(19)
        w = nn.xavier_uniform(rng, (50, 30))
        bound = np.sqrt(6.0 / 80)
        assert np.abs(w).max() <= bound
        assert w.std() > 0


# Test-local copies of the composed bodies that the fused ops replaced.


def old_embedding_gather(table, ids):
    """The gather whose backward built a full-table gradient per lookup."""
    idx = np.asarray(ids, dtype=np.intp)

    def fn(g):
        full = np.zeros_like(table.data)
        np.add.at(full, idx, g)
        return full

    return ad._apply(table.data[idx], [(table, fn)])


def composed_linear(lin, x):
    if x.ndim == 1:
        return ad.add(ad.matmul(lin.w, x), lin.b)
    return ad.add(ad.matmul(x, ad.transpose(lin.w)), lin.b)


def composed_char_cnn(cnn, char_ids):
    pad = cnn.kernel // 2
    ids = [0] * pad + list(char_ids) + [0] * pad
    if len(char_ids) == 0:
        ids = [0] * cnn.kernel
    rows = old_embedding_gather(cnn.emb.table, ids)
    n_win = max(len(char_ids), 1)
    windows = ad.concat([ad.narrow(rows, 0, k, k + n_win) for k in range(cnn.kernel)], axis=1)
    conv = ad.add(ad.matmul(windows, ad.transpose(cnn.w)), cnn.b)
    return amax(conv, axis=0)


def var(rng, shape):
    return ad.Tensor(rng.standard_normal(shape), requires_grad=True)


def gradients(tensors, loss_fn):
    for x in tensors:
        x.zero_grad()
    with ad.Tape() as tape:
        loss = loss_fn()
    tape.backward(loss)
    grads = [None if x.grad is None else x.grad.copy() for x in tensors]
    for x in tensors:
        x.zero_grad()
    return grads


def assert_grads_close(fused, composed):
    for a, b in zip(fused, composed):
        assert (a is None) == (b is None)
        if a is not None:
            assert np.abs(a - b).max() <= 1e-10 * max(np.abs(b).max(), 1e-300)


class TestFusedMatchesComposed:
    """Fused forwards are bit-identical to the composed ops they replace;
    gradients agree to rounding."""

    @pytest.mark.parametrize("rows", [None, 1, 2, 7])
    def test_linear(self, rows):
        for seed in range(6):
            rng = np.random.default_rng(seed)
            n_in, n_out = int(rng.integers(1, 30)), int(rng.integers(1, 30))
            lin = nn.Linear(rng, n_in, n_out)
            lin.b.data = rng.standard_normal(n_out)
            x = var(rng, n_in if rows is None else (rows, n_in))
            assert np.array_equal(lin(x).data, composed_linear(lin, x).data)
            weights = const(rng.standard_normal(lin(x).shape))
            tensors = [x, lin.w, lin.b]
            assert_grads_close(
                gradients(tensors, lambda: ad.sum_all(ad.mul(lin(x), weights))),
                gradients(tensors, lambda: ad.sum_all(ad.mul(composed_linear(lin, x), weights))),
            )

    def test_char_cnn(self):
        for seed in range(6):
            rng = np.random.default_rng(seed)
            cnn = nn.CharCnn(rng, 12, int(rng.integers(1, 6)), int(rng.integers(1, 8)),
                             kernel=int(rng.choice([1, 3, 5])))
            cnn.b.data = rng.standard_normal(cnn.channels)
            for length in range(7):
                ids = [int(v) for v in rng.integers(0, 12, size=length)]
                assert np.array_equal(word_features(cnn, ids).data,
                                      composed_char_cnn(cnn, ids).data)
                weights = const(rng.standard_normal(cnn.channels))
                tensors = list(cnn.parameters().values())
                assert_grads_close(
                    gradients(tensors, lambda: ad.matmul(word_features(cnn, ids), weights)),
                    gradients(tensors, lambda: ad.matmul(composed_char_cnn(cnn, ids), weights)),
                )

    def test_char_cnn_rows(self):
        # each row of the batched form is bit-equal to its word alone
        rng = np.random.default_rng(7)
        cnn = nn.CharCnn(rng, 12, 4, 6, kernel=3)
        cnn.b.data = rng.standard_normal(cnn.channels)
        words = [[int(v) for v in rng.integers(0, 12, size=n)] for n in (0, 1, 4, 2, 6)]
        rows = cnn.rows(words).data
        for word, row in zip(words, rows):
            assert np.array_equal(row, word_features(cnn, word).data)
        weights = const(rng.standard_normal((len(words), cnn.channels)))
        tensors = list(cnn.parameters().values())
        assert_grads_close(
            gradients(tensors, lambda: ad.sum_all(ad.mul(cnn.rows(words), weights))),
            gradients(tensors, lambda: ad.sum_all(ad.mul(
                ad.stack_rows([word_features(cnn, w) for w in words]), weights))),
        )
