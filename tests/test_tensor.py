"""Tensor core: forward oracles, gradient checks, dropout statistics."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import erf

from emofuse import encoder
from emofuse import tensor as T
from emofuse.encoder import EncoderConfig, EncoderState
from emofuse.errors import InputError, NumericError, ShapeError, UsageError
from emofuse.tokens import CLS, TokenSequence

from conftest import assert_grads_match, sum_all


def triple_loop_matmul(a, b):
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for t in range(k):
                acc += a[i, t] * b[t, j]
            out[i, j] = acc
    return out


class TestMatmul:
    def test_identity(self):
        a = T.Tensor([[1.0, 2.0], [3.0, 4.0]])
        out = T.matmul(a, T.Tensor(np.eye(2)))
        assert np.array_equal(out.data, a.data)

    def test_known_product(self):
        a = T.Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = T.Tensor([[5.0, 6.0], [7.0, 8.0]])
        expected = triple_loop_matmul(a.data, b.data)
        assert np.array_equal(expected, np.array([[19.0, 22.0], [43.0, 50.0]]))
        assert np.array_equal(T.matmul(a, b).data, expected)

    def test_zero_case(self):
        out = T.matmul(T.Tensor(np.zeros((2, 3))), T.Tensor(np.ones((3, 4))))
        assert np.array_equal(out.data, np.zeros((2, 4)))

    def test_matches_triple_loop_small_dims(self, rng):
        # BLAS may reorder the accumulation, so agreement is to rounding only.
        for _ in range(300):
            m, k, n = rng.integers(1, 9, size=3)
            a = rng.standard_normal((m, k))
            b = rng.standard_normal((k, n))
            got = T.matmul(T.Tensor(a), T.Tensor(b)).data
            np.testing.assert_allclose(got, triple_loop_matmul(a, b), rtol=1e-12, atol=1e-12)

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError) as err:
            T.matmul(T.Tensor(np.zeros((2, 3))), T.Tensor(np.zeros((4, 5))))
        assert "(2, 3)" in str(err.value) and "(4, 5)" in str(err.value)

    def test_stacks_must_share_leading_dim(self):
        with pytest.raises(ShapeError) as err:
            T.matmul(T.Tensor(np.zeros((2, 3, 4))), T.Tensor(np.zeros((3, 4, 5))))
        assert "(2, 3, 4)" in str(err.value) and "(3, 4, 5)" in str(err.value)
        with pytest.raises(ShapeError):
            T.matmul(T.Tensor(np.zeros((2, 3, 4))), T.Tensor(np.zeros((4, 5))))

    def test_stack_is_matrix_by_matrix(self, rng):
        a = rng.standard_normal((3, 4, 5))
        b = rng.standard_normal((3, 5, 2))
        got = T.matmul(T.Tensor(a), T.Tensor(b)).data
        for i in range(3):
            np.testing.assert_allclose(got[i], triple_loop_matmul(a[i], b[i]), rtol=1e-12, atol=1e-12)


class TestSoftmax:
    def test_symmetry(self):
        out = T.softmax_rows(T.Tensor([[0.0, 0.0]]))
        assert np.allclose(out.data, [[0.5, 0.5]], atol=1e-15)

    def test_closed_form_exponentials(self):
        # Independent oracle: direct exponentials of the raw row.
        row = [math.log(1.0), math.log(3.0)]
        exps = [math.exp(v) for v in row]
        expected = [e / sum(exps) for e in exps]
        assert np.allclose(expected, [0.25, 0.75], atol=1e-12)
        got = T.softmax_rows(T.Tensor([row])).data[0]
        assert np.allclose(got, expected, atol=1e-12)

    def test_stability_no_overflow(self):
        out = T.softmax_rows(T.Tensor([[1000.0, 0.0]])).data[0]
        assert np.isfinite(out).all()
        assert out[0] > 1.0 - 1e-12 and out[1] < 1e-12

    def test_rows_sum_to_one(self, rng):
        for _ in range(50):
            m, n = rng.integers(1, 9, size=2)
            x = rng.standard_normal((m, n)) * rng.choice([1.0, 50.0, 500.0])
            out = T.softmax_rows(T.Tensor(x)).data
            assert np.all(out >= 0.0)
            assert np.allclose(out.sum(axis=1), 1.0, atol=1e-6)

    def test_nan_input_rejected(self):
        with pytest.raises(NumericError):
            T.softmax_rows(T.Tensor([[np.nan, 0.0]]))

    def test_pos_inf_input_rejected(self):
        with pytest.raises(NumericError):
            T.softmax_rows(T.Tensor([[0.0, np.inf, 1.0]]))
        with pytest.raises(NumericError):
            T.softmax_rows(T.Tensor(np.array([[[0.0, 1.0]], [[np.inf, 0.0]]])))

    def test_neg_inf_is_zero_weight(self):
        # A key-padding mask writes -inf scores; they must get weight 0.
        out = T.softmax_rows(T.Tensor([[0.0, -np.inf, 0.0]])).data
        assert np.array_equal(out, [[0.5, 0.0, 0.5]])

    def test_3d_is_softmax_of_each_matrix(self, rng):
        x = rng.standard_normal((3, 4, 5))
        got = T.softmax_rows(T.Tensor(x)).data
        for i in range(3):
            assert np.array_equal(got[i], T.softmax_rows(T.Tensor(x[i])).data)

    def test_1d_rejected(self):
        with pytest.raises(ShapeError):
            T.softmax_rows(T.Tensor([0.0, 1.0]))


class TestTranspose:
    def test_axes_permute(self, rng):
        x = rng.standard_normal((2, 3, 4))
        assert np.array_equal(T.transpose(T.Tensor(x), (1, 0, 2)).data, x.transpose(1, 0, 2))
        assert np.array_equal(T.transpose(T.Tensor(x[0])).data, x[0].T)

    def test_bad_axes_rejected(self):
        x = T.Tensor(np.zeros((2, 3, 4)))
        for axes in (None, (0, 1), (0, 1, 1), (0, 1, 3)):
            with pytest.raises(ShapeError):
                T.transpose(x, axes)


class TestLayerNorm:
    def test_hand_computed(self):
        # mean 2, population variance 2/3.
        x = T.Tensor([[1.0, 2.0, 3.0]])
        gain = T.Tensor(np.ones((1, 3)))
        bias = T.Tensor(np.zeros((1, 3)))
        out = T.layer_norm(x, gain, bias, eps=1e-12).data[0]
        expected = (np.array([1.0, 2.0, 3.0]) - 2.0) / math.sqrt(2.0 / 3.0)
        assert np.allclose(out, expected, atol=1e-6)
        assert abs(out[1]) < 1e-12

    def test_constant_row_goes_to_zero(self):
        x = T.Tensor([[4.2, 4.2, 4.2, 4.2]])
        out = T.layer_norm(x, T.Tensor(np.ones((1, 4))), T.Tensor(np.zeros((1, 4))))
        assert np.allclose(out.data, 0.0, atol=1e-12)

    def test_zero_gain_yields_bias(self, rng):
        x = T.Tensor(rng.standard_normal((3, 5)))
        bias = T.Tensor(rng.standard_normal((1, 5)))
        out = T.layer_norm(x, T.Tensor(np.zeros((1, 5))), bias)
        assert np.array_equal(out.data, np.broadcast_to(bias.data, (3, 5)))

    def test_normalizes_mean_and_variance(self, rng):
        x = T.Tensor(rng.standard_normal((4, 16)) * 7.0 + 3.0)
        out = T.layer_norm(x, T.Tensor(np.ones((1, 16))), T.Tensor(np.zeros((1, 16))), eps=1e-10)
        assert np.allclose(out.data.mean(axis=1), 0.0, atol=1e-9)
        assert np.allclose(out.data.var(axis=1), 1.0, atol=1e-6)

    def test_bad_eps(self):
        x = T.Tensor([[1.0, 2.0]])
        g = T.Tensor(np.ones((1, 2)))
        b = T.Tensor(np.zeros((1, 2)))
        with pytest.raises(InputError):
            T.layer_norm(x, g, b, eps=0.0)


class TestGelu:
    def test_zero(self):
        assert T.gelu(T.Tensor([0.0])).data[0] == 0.0

    def test_large_positive_asymptote(self):
        x = np.array([8.0, 12.0])
        out = T.gelu(T.Tensor(x)).data
        assert np.allclose(out, x, atol=1e-10)

    def test_phi_of_one_from_quadrature_oracle(self):
        # Independent normal-CDF oracle: integrate the standard normal pdf.
        pdf = lambda t: math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)
        phi1 = 0.5 + quad(pdf, 0.0, 1.0)[0]
        assert abs(phi1 - 0.8413447460685429) < 1e-12
        assert abs(T.gelu(T.Tensor([1.0])).data[0] - phi1) < 1e-10


def ulps_apart(a, b):
    """Units in the last place between same-signed float64 arrays."""
    return np.abs(a.view(np.int64) - b.view(np.int64))


class TestErf:
    """``tensor._erf``, GELU's erf, against scipy's as an independent oracle."""

    def test_bitwise_scipy_for_abs_t_at_most_one(self):
        t = np.linspace(-1.0, 1.0, 2_000_001)
        assert T._erf(t).tobytes() == erf(t).tobytes()

    def test_within_one_ulp_of_scipy_to_nine(self, rng):
        t = np.concatenate([np.linspace(-9.0, 9.0, 2_000_001), 3.0 * rng.standard_normal(10_000),
                            [np.nextafter(1.0, 2.0), -np.nextafter(1.0, 2.0)]])
        assert ulps_apart(T._erf(t), erf(t)).max() <= 1

    def test_special_values(self):
        big = np.concatenate([np.linspace(6.0, 40.0, 1001), [1e300, np.finfo(float).max, np.inf]])
        with np.errstate(all="raise"):
            got = T._erf(np.concatenate([[0.0, -0.0, np.nan], big, -big]))
        assert got[0] == 0.0 and not np.signbit(got[0])
        assert got[1] == 0.0 and np.signbit(got[1])
        assert np.isnan(got[2])
        assert np.all(got[3:3 + big.size] == 1.0) and np.all(got[3 + big.size:] == -1.0)

    def test_nan_beside_tail_values(self):
        t = np.array([np.nan, 3.0, -1e308, 0.5, -2.0])
        got, want = T._erf(t), erf(t)
        assert np.isnan(got[0]) and ulps_apart(got[1:], want[1:]).max() <= 1

    def test_in_place_gives_the_out_of_place_bytes(self, rng):
        t = 3.0 * rng.standard_normal((4, 7, 16))
        t[0, 0, :4] = (np.nan, np.inf, -0.0, -1e308)
        t_bytes = t.tobytes()
        want = T._erf(t)
        assert t.tobytes() == t_bytes
        out = np.empty_like(t)
        assert T._erf(t, out=out) is out and out.tobytes() == want.tobytes()
        assert T._erf(t, out=t) is t and t.tobytes() == want.tobytes()


class TestBackward:
    def test_sum_gives_ones(self):
        x = T.Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        T.backward(sum_all(x))
        assert np.array_equal(x.grad, np.ones((2, 3)))

    def test_sum_of_squares(self):
        x = T.Tensor([[1.0, 2.0]], requires_grad=True)
        T.backward(sum_all(T.mul(x, x)))
        assert np.allclose(x.grad, [[2.0, 4.0]], atol=1e-12)

    def test_non_scalar_rejected(self):
        x = T.Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(UsageError):
            T.backward(x + x)

    def test_grads_accumulate_across_calls(self):
        x = T.Tensor([[3.0]], requires_grad=True)
        T.backward(sum_all(T.mul(x, x)))
        first = x.grad.copy()
        T.backward(sum_all(T.mul(x, x)))
        assert np.array_equal(x.grad, 2.0 * first)

    def test_shared_subexpression(self):
        x = T.Tensor([[2.0]], requires_grad=True)
        y = T.mul(x, x)
        T.backward(sum_all(y + y))
        assert np.allclose(x.grad, [[8.0]], atol=1e-12)

    def test_composite_attention_block_gradient(self, rng):
        # Single-head scaled dot-product attention built from primitives.
        q = T.Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        k = T.Tensor(rng.standard_normal((5, 4)), requires_grad=True)
        v = T.Tensor(rng.standard_normal((5, 4)), requires_grad=True)

        def loss():
            scores = T.scale(T.matmul(q, T.transpose(k)), 1.0 / 2.0)
            ctx = T.matmul(T.softmax_rows(scores), v)
            return sum_all(T.mul(ctx, ctx))

        assert_grads_match(loss, [q, k, v])


class TestFusedOps:
    """linear and split/merge_heads compute their unfused compositions bit for bit."""

    def _grads(self, build, leaves):
        T.zero_grads(leaves)
        out = build()
        T.backward(sum_all(T.mul(out, out)))
        return out.data, [leaf.grad for leaf in leaves]

    @pytest.mark.parametrize("bias_shape", [(1, 7), (7,)])
    def test_linear_is_matmul_plus_bias_bitwise(self, rng, bias_shape):
        x = T.Tensor(rng.standard_normal((5, 9)), requires_grad=True)
        w = T.Tensor(rng.standard_normal((9, 7)), requires_grad=True)
        b = T.Tensor(rng.standard_normal(bias_shape), requires_grad=True)
        fused, fused_grads = self._grads(lambda: T.linear(x, w, b), [x, w, b])
        plain, plain_grads = self._grads(lambda: T.matmul(x, w) + b, [x, w, b])
        assert np.array_equal(fused, plain)
        assert all(np.array_equal(f, p) for f, p in zip(fused_grads, plain_grads))

    def test_head_split_and_merge_are_reshape_transpose_bitwise(self, rng):
        x = T.Tensor(rng.standard_normal((6, 12)), requires_grad=True)
        w = T.Tensor(rng.standard_normal((3, 4, 4)))
        fused, fused_grads = self._grads(
            lambda: T.merge_heads(T.matmul(T.split_heads(x, 3), w)), [x])
        plain, plain_grads = self._grads(
            lambda: T.reshape(T.transpose(T.matmul(
                T.transpose(T.reshape(x, (6, 3, 4)), (1, 0, 2)), w), (1, 0, 2)), (6, 12)), [x])
        assert np.array_equal(fused, plain)
        assert np.array_equal(fused_grads[0], plain_grads[0])
        assert np.array_equal(T.merge_heads(T.split_heads(x, 4)).data, x.data)

    def test_shape_errors(self):
        x, w = T.Tensor(np.zeros((2, 3))), T.Tensor(np.zeros((3, 4)))
        for bad_w, bad_b in ((np.zeros((2, 4)), np.zeros((1, 4))),
                             (np.zeros((3, 4)), np.zeros((1, 3))),
                             (np.zeros((3, 4)), np.zeros((2, 4)))):
            with pytest.raises(ShapeError):
                T.linear(x, T.Tensor(bad_w), T.Tensor(bad_b))
        for heads in (0, 2):
            with pytest.raises(ShapeError):
                T.split_heads(x, heads)
        with pytest.raises(ShapeError):
            T.merge_heads(w)


class TestStackedOps:
    """Each row of a stacked call is bitwise the op's 2-D call on that row."""

    @pytest.mark.parametrize("bsz, rows, d, n", [(1, 1, 4, 3), (3, 7, 160, 640),
                                                  (5, 52, 128, 512), (4, 9, 640, 160)])
    def test_rows_match_2d_calls(self, rng, bsz, rows, d, n):
        x = rng.standard_normal((bsz, rows, d))
        w, b = T.Tensor(rng.standard_normal((d, n))), T.Tensor(rng.standard_normal((1, n)))
        g, beta = T.Tensor(rng.standard_normal((1, d))), T.Tensor(rng.standard_normal((1, d)))
        other = rng.standard_normal((bsz, 2, d // 2, rows))
        stacked = [T.linear(T.Tensor(x), w, b), T.layer_norm(T.Tensor(x), g, beta),
                   T.split_heads(T.Tensor(x), 2),
                   T.merge_heads(T.split_heads(T.Tensor(x), 2)),
                   T.matmul(T.split_heads(T.Tensor(x), 2), T.Tensor(other))]
        for i in range(bsz):
            row = T.Tensor(x[i])
            single = [T.linear(row, w, b), T.layer_norm(row, g, beta), T.split_heads(row, 2),
                      T.merge_heads(T.split_heads(row, 2)),
                      T.matmul(T.split_heads(row, 2), T.Tensor(other[i]))]
            for many, one in zip(stacked, single):
                assert np.array_equal(many.data[i], one.data)
        ids = rng.integers(0, d, size=(bsz, rows))
        table = T.Tensor(rng.standard_normal((d, 3)))
        gathered = T.gather_rows(table, ids).data
        assert all(np.array_equal(gathered[i], T.gather_rows(table, ids[i]).data)
                   for i in range(bsz))

    def test_shape_errors(self):
        with pytest.raises(ShapeError):
            T.gather_rows(T.Tensor(np.zeros((3, 2))), np.zeros((1, 1, 1), dtype=int))
        with pytest.raises(ShapeError):
            T.linear(T.Tensor(np.zeros((2, 3, 4))), T.Tensor(np.zeros((3, 4))),
                     T.Tensor(np.zeros((1, 4))))
        with pytest.raises(ShapeError):
            T.layer_norm(T.Tensor(np.zeros(4)), T.Tensor(np.ones((1, 4))),
                         T.Tensor(np.zeros((1, 4))))


class TestNoGrad:
    def test_records_nothing_and_keeps_values(self, rng):
        x = T.Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        w = T.Tensor(rng.standard_normal((4, 4)), requires_grad=True)
        b = T.Tensor(np.ones(4))
        recorded = T.softmax_rows(T.linear(x, w, b))
        with T.no_grad():
            bare = T.softmax_rows(T.linear(x, w, b))
        assert recorded.op is not None and recorded.requires_grad
        assert bare.op is None and not bare.requires_grad
        assert np.array_equal(bare.data, recorded.data)
        assert (x + x).op is not None

    def test_nesting_and_exceptions_restore_recording(self):
        x = T.Tensor([[1.0, 2.0]], requires_grad=True)
        with T.no_grad():
            with T.no_grad():
                assert (x + x).op is None
            assert (x + x).op is None
        assert (x + x).op is not None
        with pytest.raises(ShapeError):
            with T.no_grad():
                T.matmul(x, x)
        assert (x + x).op is not None


class TestGradientsMatchFiniteDifferences:
    """Every primitive against the central-difference oracle on random shapes <= 8x8."""

    def test_elementwise_and_broadcast(self, rng):
        for _ in range(5):
            m, n = rng.integers(1, 9, size=2)
            a = T.Tensor(rng.standard_normal((m, n)), requires_grad=True)
            b = T.Tensor(rng.standard_normal((m, n)), requires_grad=True)
            row = T.Tensor(rng.standard_normal((1, n)), requires_grad=True)
            assert_grads_match(lambda: sum_all(T.mul(a + b, a - b)), [a, b])
            assert_grads_match(lambda: sum_all(T.mul(a + row, a)), [a, row])
            assert_grads_match(lambda: sum_all(T.mul(T.neg(a), T.scale(b, 1.7))), [a, b])

    def test_matmul_transpose_reshape(self, rng):
        for _ in range(5):
            m, k, n = rng.integers(1, 9, size=3)
            a = T.Tensor(rng.standard_normal((m, k)), requires_grad=True)
            b = T.Tensor(rng.standard_normal((k, n)), requires_grad=True)
            assert_grads_match(lambda: sum_all(T.mul(T.matmul(a, b), T.matmul(a, b))), [a, b])
            assert_grads_match(
                lambda: sum_all(T.mul(T.transpose(a), T.transpose(a))), [a])
            assert_grads_match(
                lambda: sum_all(T.mul(T.reshape(a, (k * m, 1)), T.reshape(a, (k * m, 1)))), [a])
            c = T.Tensor(rng.standard_normal((1, n)), requires_grad=True)
            assert_grads_match(
                lambda: sum_all(T.mul(T.linear(a, b, c), T.linear(a, b, c))), [a, b, c])
        for _ in range(3):
            s, m, k, n = rng.integers(1, 5, size=4)
            a = T.Tensor(rng.standard_normal((s, m, k)), requires_grad=True)
            b = T.Tensor(rng.standard_normal((s, k, n)), requires_grad=True)
            w = T.Tensor(rng.standard_normal((m, s, n)))
            # A 3-D stack product, then a non-involutive axis permutation.
            assert_grads_match(
                lambda: sum_all(T.mul(T.transpose(T.matmul(a, b), (1, 0, 2)), w)), [a, b])
            assert_grads_match(
                lambda: sum_all(T.mul(T.transpose(a, (2, 0, 1)), T.transpose(a, (2, 0, 1)))), [a])
            # Head regrouping, each op against a fixed weight of its output shape.
            x = T.Tensor(rng.standard_normal((m, s * k)), requires_grad=True)
            wx = T.Tensor(rng.standard_normal((s, m, k)))
            wa = T.Tensor(rng.standard_normal((m, s * k)))
            assert_grads_match(lambda: sum_all(T.mul(T.split_heads(x, s), wx)), [x])
            assert_grads_match(lambda: sum_all(T.mul(T.merge_heads(a), wa)), [a])

    def test_batched_matmul_linear_and_heads(self, rng):
        """The widened ops with leading batch axes: a [B x ...] stack per call."""
        for _ in range(3):
            bsz, s, m, k = rng.integers(1, 4, size=4)
            x = T.Tensor(rng.standard_normal((bsz, m, s * k)), requires_grad=True)
            w = T.Tensor(rng.standard_normal((s * k, 3)), requires_grad=True)
            c = T.Tensor(rng.standard_normal((1, 3)), requires_grad=True)
            wy = T.Tensor(rng.standard_normal((bsz, m, 3)))
            assert_grads_match(lambda: sum_all(T.mul(T.linear(x, w, c), wy)), [x, w, c])
            heads = T.Tensor(rng.standard_normal((bsz, s, m, k)), requires_grad=True)
            wh = T.Tensor(rng.standard_normal((bsz, s, m, k)))
            wm = T.Tensor(rng.standard_normal((bsz, m, s * k)))
            assert_grads_match(lambda: sum_all(T.mul(T.split_heads(x, s), wh)), [x])
            assert_grads_match(lambda: sum_all(T.mul(T.merge_heads(heads), wm)), [heads])
            other = T.Tensor(rng.standard_normal((bsz, s, k, m)), requires_grad=True)
            wp = T.Tensor(rng.standard_normal((bsz, s, m, m)))
            assert_grads_match(lambda: sum_all(T.mul(T.matmul(heads, other), wp)),
                               [heads, other])

    def test_concat_slice_gather(self, rng):
        a = T.Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        b = T.Tensor(rng.standard_normal((4, 5)), requires_grad=True)
        idx = np.array([0, 2, 2, 3])

        def cat_loss():
            c = T.concat_cols([a, b])
            return sum_all(T.mul(c, c))

        def slice_loss():
            s = T.slice_cols(b, 1, 4)
            return sum_all(T.mul(s, s))

        def gather_loss():
            g = T.gather_rows(a, idx)
            return sum_all(T.mul(g, g))

        def gather_2d_loss():
            g = T.gather_rows(a, np.array([[0, 2], [3, 2], [1, 0]]))
            return sum_all(T.mul(g, g))

        assert_grads_match(cat_loss, [a, b])
        assert_grads_match(slice_loss, [b])
        assert_grads_match(gather_loss, [a])
        assert_grads_match(gather_2d_loss, [a])

    def test_softmax_layernorm_gelu(self, rng):
        x = T.Tensor(rng.standard_normal((4, 6)), requires_grad=True)
        gain = T.Tensor(rng.standard_normal((1, 6)), requires_grad=True)
        bias = T.Tensor(rng.standard_normal((1, 6)), requires_grad=True)
        w = T.Tensor(rng.standard_normal((6, 6)))

        x3 = T.Tensor(rng.standard_normal((3, 4, 5)), requires_grad=True)
        w3 = T.Tensor(rng.standard_normal((3, 4, 5)))
        g5 = T.Tensor(rng.standard_normal((1, 5)), requires_grad=True)
        b5 = T.Tensor(rng.standard_normal((1, 5)), requires_grad=True)

        def softmax_loss():
            y = T.softmax_rows(T.matmul(x, w))
            return sum_all(T.mul(y, y))

        def softmax_3d_loss():
            return sum_all(T.mul(T.softmax_rows(x3), w3))

        def ln_loss():
            y = T.layer_norm(x, gain, bias, eps=1e-5)
            return sum_all(T.mul(y, y))

        def ln_3d_loss():
            return sum_all(T.mul(T.layer_norm(x3, g5, b5), w3))

        def gelu_loss():
            return sum_all(T.mul(T.gelu(x), T.gelu(x)))

        assert_grads_match(softmax_loss, [x])
        assert_grads_match(softmax_3d_loss, [x3])
        assert_grads_match(ln_loss, [x, gain, bias])
        assert_grads_match(ln_3d_loss, [x3, g5, b5])
        assert_grads_match(gelu_loss, [x])

    def test_losses(self, rng):
        logits = T.Tensor(rng.standard_normal((5, 7)), requires_grad=True)
        targets = rng.integers(0, 7, size=5)
        pred = T.Tensor(rng.standard_normal((3, 2)) + 0.5, requires_grad=True)
        goal = rng.standard_normal((3, 2))

        assert_grads_match(lambda: T.cross_entropy_rows(logits, targets), [logits])
        assert_grads_match(lambda: T.l1_loss(pred, goal), [pred])


class TestDropout:
    def test_rate_zero_is_identity(self, rng):
        x = T.Tensor(rng.standard_normal((3, 3)), requires_grad=True)
        assert T.dropout(x, 0.0, rng, train_mode=True) is x

    def test_eval_mode_is_identity(self, rng):
        x = T.Tensor(rng.standard_normal((3, 3)))
        assert T.dropout(x, 0.5, rng, train_mode=False) is x

    def test_kept_fraction_within_three_sigma(self):
        rate = 0.3
        trials = 10_000
        rng = np.random.default_rng(7)
        x = T.Tensor(np.ones((1, trials)))
        out = T.dropout(x, rate, rng, train_mode=True)
        kept = int(np.count_nonzero(out.data))
        expect = trials * (1.0 - rate)
        sigma = math.sqrt(trials * rate * (1.0 - rate))
        assert abs(kept - expect) <= 3.0 * sigma

    def test_inverted_scaling(self):
        rng = np.random.default_rng(3)
        x = T.Tensor(np.ones((1, 1000)))
        out = T.dropout(x, 0.25, rng, train_mode=True).data
        surviving = out[out != 0.0]
        assert np.allclose(surviving, 1.0 / 0.75, atol=1e-12)

    def test_deterministic_given_seed(self):
        x = T.Tensor(np.ones((4, 4)))
        a = T.dropout(x, 0.5, np.random.default_rng(11), train_mode=True).data
        b = T.dropout(x, 0.5, np.random.default_rng(11), train_mode=True).data
        assert np.array_equal(a, b)

    def test_gradient_uses_same_mask(self):
        rng = np.random.default_rng(5)
        x = T.Tensor(np.ones((2, 8)), requires_grad=True)
        out = T.dropout(x, 0.5, rng, train_mode=True)
        T.backward(sum_all(out))
        assert np.array_equal((x.grad != 0.0), (out.data != 0.0))

    def test_missing_rng_rejected(self):
        with pytest.raises(UsageError):
            T.dropout(T.Tensor([[1.0]]), 0.5, None, train_mode=True)


class TestLeafHandOver:
    """backward hands each leaf its gradient once, as soon as its last consumer's VJP
    has run."""

    WIDTH, DEPTH = 256, 8

    def chain(self, rng):
        """A loss over ``DEPTH`` stacked ``WIDTH``-wide linear layers, their weights and
        biases, and each layer's output."""
        h = T.Tensor(rng.standard_normal((4, self.WIDTH)))
        ws, bs, outs = [], [], []
        for _ in range(self.DEPTH):
            ws.append(T.Tensor(rng.standard_normal((self.WIDTH, self.WIDTH)) / 16.0,
                               requires_grad=True))
            bs.append(T.Tensor(rng.standard_normal(self.WIDTH), requires_grad=True))
            h = T.linear(h, ws[-1], bs[-1])
            outs.append(h)
        return sum_all(T.mul(h, h)), ws, bs, outs

    def test_each_weight_is_handed_over_before_the_layer_below_runs(self, rng):
        loss, ws, bs, outs = self.chain(rng)
        events = []
        for i, out in enumerate(outs):
            vjp = out.op.vjp
            out.op.vjp = lambda g, i=i, vjp=vjp: (events.append(("vjp", i)), vjp(g))[1]
        names = {id(p): (kind, i) for kind, ps in (("w", ws), ("b", bs))
                 for i, p in enumerate(ps)}
        T.backward(loss, add_leaf=lambda leaf, g: events.append(names[id(leaf)]))
        assert sorted(e for e in events if e[0] != "vjp") == sorted(names.values())
        for i in range(1, self.DEPTH):
            assert events.index(("w", i)) < events.index(("vjp", i - 1))

    def test_backward_peak_stays_under_two_weight_gradients(self, rng):
        loss, ws, bs, _ = self.chain(rng)
        sums = {id(p): np.zeros_like(p.data) for p in ws + bs}

        def add(leaf, g):
            sums[id(leaf)] += g

        tracemalloc.start()
        try:
            T.backward(loss, add_leaf=add)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * ws[0].data.nbytes
        T.backward(loss)
        assert all(sums[id(p)].tobytes() == p.grad.tobytes() for p in ws + bs)

    def test_each_leaf_is_handed_over_once_the_tied_embedding_too(self):
        cfg = EncoderConfig(n_layers=2, d_model=16, n_heads=2, d_ff=32, vocab_size=11,
                            max_len=12, dropout_rate=0.1)
        state = EncoderState.init(cfg, np.random.default_rng(0))
        seq = TokenSequence("speech", (CLS, 5, 6, 7, 8, 9, 10, 5, 6, 7))
        corrupted, targets = encoder.mask_corrupt(seq, 0.3, np.random.default_rng(1),
                                                  cfg.vocab_size)
        loss = encoder.masked_lm_loss(state, corrupted, targets, train_mode=True,
                                      rng=np.random.default_rng(2))
        names = {id(p): name for name, p in state.params.items()}
        handed = []
        T.backward(loss, add_leaf=lambda leaf, g: handed.append((names[id(leaf)], g.copy())))
        order = [name for name, _ in handed]
        assert sorted(order) == sorted(state.params)
        # The tied embedding's last consumer is the embedding lookup, at the bottom.
        assert order.index("mlm_bias") < order.index("final_ln.g") < order.index("tok_emb")
        T.backward(loss)
        for name, g in handed:
            assert (0.0 + g).tobytes() == state.params[name].grad.tobytes()


def parent_linear(x, w, b):
    def vjp(g):
        rows = x.reshape(-1, w.shape[0])
        return g @ w.T, rows.T @ g.reshape(-1, w.shape[1]), T._unbroadcast(g, b.shape)

    return x @ w + b, vjp


def parent_layer_norm(x, gain, bias, eps=1e-5):
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv

    def vjp(g):
        dxhat = g * gain
        dx = inv * (dxhat - dxhat.mean(axis=-1, keepdims=True)
                    - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))
        return dx, T._unbroadcast(g * xhat, gain.shape), T._unbroadcast(g, bias.shape)

    return xhat * gain + bias, vjp


def parent_gelu(x):
    cdf = 0.5 * (1.0 + erf(x / math.sqrt(2.0)))

    def vjp(g):
        pdf = np.exp(-0.5 * x * x) * (1.0 / math.sqrt(2.0 * math.pi))
        return (g * (cdf + x * pdf),)

    return x * cdf, vjp


def parent_softmax_rows(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    y = e / e.sum(axis=-1, keepdims=True)
    return y, lambda g: (y * (g - (g * y).sum(axis=-1, keepdims=True)),)


def parent_dropout(x, rate, rng):
    mask = (rng.random(x.shape) >= rate) / (1.0 - rate)
    return x * mask, lambda g: (g * mask,)


class TestInPlaceOps:
    """The ops that compute in place give the bytes of their one-expression forms,
    forward and VJP, and a VJP changes neither its ``g`` nor what it captured."""

    @staticmethod
    def build(op, x, row_shape, rng):
        """The op on ``x`` (its bias, gain and bias rows of ``row_shape``, drawn from
        ``rng``), and the one-expression form's output and VJP."""
        if op == "linear":
            w = rng.standard_normal((x.shape[-1], 24))
            b = rng.standard_normal(row_shape[:-1] + (24,))
            return T.linear(T.Tensor(x, True), T.Tensor(w, True), T.Tensor(b, True)), \
                parent_linear(x, w, b)
        if op == "layer_norm":
            gain, bias = rng.standard_normal(row_shape), rng.standard_normal(row_shape)
            return T.layer_norm(T.Tensor(x, True), T.Tensor(gain, True), T.Tensor(bias, True)), \
                parent_layer_norm(x, gain, bias)
        if op == "dropout":
            seed = int(rng.integers(1 << 30))
            return T.dropout(T.Tensor(x, True), 0.3, np.random.default_rng(seed)), \
                parent_dropout(x, 0.3, np.random.default_rng(seed))
        fn = {"gelu": (T.gelu, parent_gelu), "softmax_rows": (T.softmax_rows, parent_softmax_rows)}
        return fn[op][0](T.Tensor(x, True)), fn[op][1](x)

    @pytest.mark.parametrize("op, row_shape", [
        ("linear", (16,)), ("linear", (1, 16)), ("layer_norm", (16,)), ("layer_norm", (1, 16)),
        ("gelu", None), ("softmax_rows", None), ("dropout", None)])
    @pytest.mark.parametrize("lead", [(), (3,), (2, 3)])
    def test_bytes_match_the_one_expression_forms(self, rng, op, lead, row_shape):
        x = 3.0 * rng.standard_normal((*lead, 5, 16))
        x_bytes = x.tobytes()
        got, (want, want_vjp) = self.build(op, x, row_shape, rng)
        assert x.tobytes() == x_bytes  # the parent form reads the same input
        g = rng.standard_normal(got.shape)
        g_bytes, out_bytes = g.tobytes(), got.data.tobytes()
        assert got.shape == want.shape and out_bytes == want.tobytes()
        first, second, expected = got.op.vjp(g), got.op.vjp(g), want_vjp(g)
        assert len(first) == len(expected)
        for a, b, c in zip(first, second, expected):
            assert a.shape == b.shape == c.shape
            assert a.tobytes() == b.tobytes() == c.tobytes()
        assert g.tobytes() == g_bytes and got.data.tobytes() == out_bytes
        assert x.tobytes() == x_bytes
