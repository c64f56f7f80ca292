import numpy as np
import pytest

from scivid import tensor as tn
from scivid.tensor import Tensor, backward, grad_check

from naive_ref import NETWORK_CONV3D

CONV3D_CASES = dict(NETWORK_CONV3D, base=((1, 2, 3, 4, 4), (2, 2, 3, 3, 3), (1, 1, 1), (1, 1, 1)))


def leaf(rng, *shape, name=None):
    return Tensor(rng.standard_normal(shape), requires_grad=True,
                  dtype=np.float64, name=name)


class TestBackwardBasics:
    def test_sum_grad_is_ones(self):
        x = Tensor(np.random.default_rng(0).standard_normal((3, 4)),
                   requires_grad=True, dtype=np.float64)
        backward(tn.tsum(x))
        assert np.array_equal(x.grad, np.ones((3, 4)))

    def test_sum_of_squares_grad(self):
        arr = np.random.default_rng(1).standard_normal((2, 5))
        x = Tensor(arr, requires_grad=True, dtype=np.float64)
        backward(tn.tsum(tn.mul(x, x)))
        assert np.allclose(x.grad, 2 * arr)

    def test_adjoint_accumulation(self):
        # y = x + x: a tensor consumed twice receives both contributions
        x = Tensor(np.ones((2, 2)), requires_grad=True, dtype=np.float64)
        backward(tn.tsum(tn.add(x, x)))
        assert np.allclose(x.grad, 2.0)

    def test_non_scalar_loss_errors(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(tn.ShapeError, match="scalar"):
            backward(tn.mul(x, x))

    def test_unused_leaf_stays_none(self):
        x = Tensor(np.ones(2), requires_grad=True, dtype=np.float64)
        y = Tensor(np.ones(2), requires_grad=True, dtype=np.float64)
        backward(tn.tsum(x))
        assert y.grad is None  # callers treat missing grads as zero


class TestGradCheckOperators:
    """Every operator's adjoint against central finite differences."""

    def test_elementwise(self):
        rng = np.random.default_rng(2)
        a, b = leaf(rng, 3, 4, name="a"), leaf(rng, 3, 4, name="b")
        b.data += 3.0  # keep divisor away from zero
        for op in (tn.add, tn.sub, tn.mul, tn.div):
            report = grad_check(lambda u, v, op=op: tn.tsum(tn.mul(op(u, v), op(u, v))),
                                [a, b])
            assert report.passed, f"{op.__name__}\n{report}"

    def test_broadcast_add(self):
        rng = np.random.default_rng(3)
        a, b = leaf(rng, 2, 3, 4), leaf(rng, 4)
        report = grad_check(lambda u, v: tn.tsum(tn.mul(tn.add(u, v), tn.add(u, v))), [a, b])
        assert report.passed, str(report)

    def test_leaky_relu_away_from_kink(self):
        rng = np.random.default_rng(4)
        x = leaf(rng, 4, 4)
        x.data[np.abs(x.data) < 0.05] += 0.1  # jitter off the nondifferentiable point
        report = grad_check(lambda u: tn.tsum(tn.leaky_relu(u)), [x], tol=1e-6)
        assert report.passed, str(report)

    def test_reshape_permute(self):
        rng = np.random.default_rng(5)
        x = leaf(rng, 2, 3, 4)
        report = grad_check(
            lambda u: tn.tsum(tn.mul(tn.permute(tn.reshape(u, 6, 4), 1, 0),
                                     tn.permute(tn.reshape(u, 6, 4), 1, 0))), [x])
        assert report.passed, str(report)

    def test_concat_split(self):
        rng = np.random.default_rng(6)
        a, b = leaf(rng, 2, 3), leaf(rng, 2, 5)

        def f(u, v):
            joined = tn.concat([u, v], axis=1)
            p1, p2 = tn.split(joined, [5, 3], axis=1)
            return tn.tsum(tn.mul(p1, p1)) + tn.tsum(tn.mul(p2, p2)) * 2.0

        report = grad_check(f, [a, b])
        assert report.passed, str(report)

    def test_matmul(self):
        rng = np.random.default_rng(7)
        a, b = leaf(rng, 2, 3, 4), leaf(rng, 2, 4, 5)
        report = grad_check(lambda u, v: tn.tsum(tn.mul(u @ v, u @ v)), [a, b])
        assert report.passed, str(report)

    def test_softmax(self):
        rng = np.random.default_rng(8)
        x = leaf(rng, 3, 5)
        weights = Tensor(rng.standard_normal((3, 5)))
        report = grad_check(lambda u: tn.tsum(tn.mul(tn.softmax_lastdim(u), weights)), [x])
        assert report.passed, str(report)

    def test_conv2d(self):
        rng = np.random.default_rng(9)
        x, w, b = leaf(rng, 2, 2, 5, 5), leaf(rng, 3, 2, 3, 3), leaf(rng, 3)
        report = grad_check(
            lambda u, v, c: tn.tsum(tn.mul(tn.conv2d(u, v, c, (2, 2), (1, 1)),
                                           tn.conv2d(u, v, c, (2, 2), (1, 1)))),
            [x, w, b])
        assert report.passed, str(report)

    def test_conv3d(self, monkeypatch):
        # each geometry with the default tile budget, then one frame per tile
        for tile_bytes in (tn._TILE_BYTES, 1):
            monkeypatch.setattr(tn, "_TILE_BYTES", tile_bytes)
            for case, (x_shape, w_shape, stride, padding) in CONV3D_CASES.items():
                rng = np.random.default_rng(10)
                x, w, b = leaf(rng, *x_shape), leaf(rng, *w_shape), leaf(rng, w_shape[0])
                report = grad_check(
                    lambda u, v, c: tn.tsum(tn.mul(tn.conv3d(u, v, c, stride, padding),
                                                   tn.conv3d(u, v, c, stride, padding))),
                    [x, w, b])
                assert report.passed, f"{case}, tile budget {tile_bytes}\n{report}"

    def test_pixel_shuffle(self):
        rng = np.random.default_rng(11)
        x = leaf(rng, 1, 4, 2, 3, 3)
        weights = Tensor(rng.standard_normal((1, 1, 2, 6, 6)))
        report = grad_check(
            lambda u: tn.tsum(tn.mul(tn.pixel_shuffle2d(u, 2), weights)), [x])
        assert report.passed, str(report)

    def test_mean_and_axis_sum(self):
        rng = np.random.default_rng(12)
        x = leaf(rng, 3, 4)
        report = grad_check(
            lambda u: tn.tsum(tn.mul(tn.tsum(u, axis=1), tn.tsum(u, axis=1))) + tn.tmean(u),
            [x])
        assert report.passed, str(report)


class TestGradCheckGraphs:
    def test_leaky_relu_piecewise_exact(self):
        x = Tensor(np.array([1.0, -2.0, 0.7, -0.3]), requires_grad=True,
                   dtype=np.float64)
        report = grad_check(lambda u: tn.tsum(tn.leaky_relu(u)), [x], tol=1e-6)
        assert report.passed and report.max_rel_error <= 1e-6

    def test_softmax_attention_micrograph(self):
        rng = np.random.default_rng(13)
        q, k, v = leaf(rng, 1, 3, 2), leaf(rng, 1, 3, 2), leaf(rng, 1, 3, 2)

        def f(qq, kk, vv):
            logits = tn.mul(qq @ tn.permute(kk, 0, 2, 1), 1.0 / np.sqrt(2.0))
            out = tn.softmax_lastdim(logits) @ vv
            return tn.tsum(tn.mul(out, out))

        report = grad_check(f, [q, k, v], tol=1e-4)
        assert report.passed, str(report)

    def test_conv3d_micrograph(self):
        rng = np.random.default_rng(14)
        x, w = leaf(rng, 1, 1, 3, 4, 4), leaf(rng, 2, 1, 3, 3, 3)

        def f(u, v):
            out = tn.leaky_relu(tn.conv3d(u, v, None, (1, 1, 1), (1, 1, 1)))
            return tn.tmean(tn.mul(out, out))

        report = grad_check(f, [x, w], tol=1e-4)
        assert report.passed, str(report)

    def test_nonfinite_forward_reported(self):
        x = Tensor(np.array([1.0, 0.0]), requires_grad=True, dtype=np.float64)
        report = grad_check(lambda u: tn.tsum(tn.div(Tensor(np.ones(2, dtype=np.float64)), u)),
                            [x])
        assert not report.passed
        assert "non-finite" in report.leaves[0].detail
