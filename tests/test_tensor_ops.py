import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scivid import tensor as tn
from scivid.tensor import Tensor

from naive_ref import NETWORK_CONV3D, conv2d_loops, conv3d_loops


def rand(rng, *shape):
    return rng.standard_normal(shape).astype(np.float64)


class TestElementwise:
    def test_arithmetic_matches_numpy(self):
        rng = np.random.default_rng(0)
        a, b = rand(rng, 3, 4), rand(rng, 3, 4) + 3.0
        assert np.allclose(tn.add(Tensor(a), Tensor(b)).data, a + b)
        assert np.allclose(tn.sub(Tensor(a), Tensor(b)).data, a - b)
        assert np.allclose(tn.mul(Tensor(a), Tensor(b)).data, a * b)
        assert np.allclose(tn.div(Tensor(a), Tensor(b)).data, a / b)

    def test_scalar_broadcast(self):
        a = Tensor(np.ones((2, 2)))
        assert np.allclose((a * 3.0).data, 3.0)
        assert np.allclose((1.0 - a).data, 0.0)
        assert np.allclose((a / 2.0).data, 0.5)

    def test_leaky_relu_values(self):
        x = Tensor(np.array([-2.0, -0.5, 0.0, 0.5, 2.0]))
        out = tn.leaky_relu(x)
        assert np.allclose(out.data, [-0.02, -0.005, 0.0, 0.5, 2.0])


class TestShapes:
    def test_reshape_roundtrip(self):
        x = Tensor(np.arange(24.0).reshape(2, 3, 4))
        y = tn.reshape(tn.reshape(x, 6, 4), 2, 3, 4)
        assert np.array_equal(y.data, x.data)

    def test_permute_matches_transpose(self):
        x = Tensor(np.arange(24.0).reshape(2, 3, 4))
        assert np.array_equal(tn.permute(x, 2, 0, 1).data, x.data.transpose(2, 0, 1))

    @given(axis=st.integers(0, 2), parts=st.integers(1, 4))
    @settings(deadline=None, max_examples=30)
    def test_concat_split_roundtrip(self, axis, parts):
        shape = [12, 12, 12]
        x = Tensor(np.random.default_rng(7).standard_normal(shape))
        pieces = tn.split(x, parts, axis=axis)
        back = tn.concat(pieces, axis=axis)
        assert np.array_equal(back.data, x.data)

    def test_split_uneven_sizes(self):
        x = Tensor(np.arange(10.0))
        parts = tn.split(x, [3, 7], axis=0)
        assert np.array_equal(parts[0].data, np.arange(3.0))
        assert np.array_equal(parts[1].data, np.arange(3.0, 10.0))

    def test_split_indivisible_errors(self):
        with pytest.raises(tn.ShapeError):
            tn.split(Tensor(np.zeros(10)), 3, axis=0)


class TestMatmulSoftmax:
    def test_matmul_batched(self):
        rng = np.random.default_rng(1)
        a, b = rand(rng, 5, 3, 4), rand(rng, 5, 4, 2)
        assert np.allclose(tn.matmul(Tensor(a), Tensor(b)).data, a @ b)

    def test_matmul_broadcast(self):
        rng = np.random.default_rng(2)
        a, b = rand(rng, 5, 3, 4), rand(rng, 4, 2)
        assert np.allclose((Tensor(a) @ Tensor(b)).data, a @ b)

    def test_matmul_shape_error(self):
        with pytest.raises(tn.ShapeError):
            tn.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))

    def test_softmax_equal_logits(self):
        out = tn.softmax_lastdim(Tensor(np.array([0.0, 0.0])))
        assert np.allclose(out.data, [0.5, 0.5])

    def test_softmax_closed_form(self):
        out = tn.softmax_lastdim(Tensor(np.array([0.0, np.log(3.0)])))
        assert np.allclose(out.data, [0.25, 0.75], atol=1e-12)

    @given(st.floats(-50, 50))
    @settings(deadline=None, max_examples=30)
    def test_softmax_shift_invariance(self, c):
        x = np.array([0.3, -1.2, 2.0, 0.0])
        base = tn.softmax_lastdim(Tensor(x)).data
        shifted = tn.softmax_lastdim(Tensor(x + c)).data
        assert np.allclose(base, shifted, atol=1e-7)

    def test_softmax_rows_sum_to_one(self):
        x = Tensor(np.random.default_rng(3).standard_normal((4, 5, 6)))
        out = tn.softmax_lastdim(x)
        assert np.all(out.data >= 0)
        assert np.allclose(out.data.sum(axis=-1), 1.0, atol=1e-6)


class TestConv2d:
    def test_ones_counting(self):
        x = Tensor(np.ones((1, 1, 3, 3)))
        w = Tensor(np.ones((1, 1, 3, 3)))
        b = Tensor(np.zeros(1))
        out = tn.conv2d(x, w, b, stride=(1, 1), padding=(1, 1)).data[0, 0]
        assert out[1, 1] == 9.0
        assert out[0, 0] == out[0, 2] == out[2, 0] == out[2, 2] == 4.0

    def test_identity_kernel(self):
        rng = np.random.default_rng(4)
        x = rand(rng, 2, 1, 5, 5)
        w = np.zeros((1, 1, 3, 3))
        w[0, 0, 1, 1] = 1.0
        out = tn.conv2d(Tensor(x), Tensor(w), None, padding=(1, 1))
        assert np.allclose(out.data, x)

    def test_matches_naive_loops(self):
        rng = np.random.default_rng(5)
        x = rand(rng, 2, 3, 5, 5)
        w = rand(rng, 4, 3, 3, 3)
        b = rand(rng, 4)
        out = tn.conv2d(Tensor(x), Tensor(w), Tensor(b), padding=(1, 1))
        ref = conv2d_loops(x, w, b, (1, 1), (1, 1))
        assert np.max(np.abs(out.data - ref)) <= 1e-6 * max(1.0, np.abs(ref).max())

    def test_channel_mismatch_error(self):
        with pytest.raises(tn.ShapeError, match="channel"):
            tn.conv2d(Tensor(np.zeros((1, 2, 4, 4))), Tensor(np.zeros((1, 3, 3, 3))))

    def test_nonintegral_output_error(self):
        with pytest.raises(tn.ShapeError, match="non-integral"):
            tn.conv2d(Tensor(np.zeros((1, 1, 4, 4))), Tensor(np.zeros((1, 1, 3, 3))),
                      stride=(2, 2), padding=(1, 1))


class TestConv3d:
    def test_scalar_kernel_scales(self):
        rng = np.random.default_rng(6)
        x = rand(rng, 2, 1, 3, 4, 5)
        w = np.full((1, 1, 1, 1, 1), 2.0)
        out = tn.conv3d(Tensor(x), Tensor(w), None)
        assert np.allclose(out.data, 2.0 * x)

    def test_padding_preserves_extents(self):
        x = Tensor(np.zeros((1, 1, 6, 10, 12)))
        w = Tensor(np.zeros((2, 1, 3, 7, 7)))
        out = tn.conv3d(x, w, None, padding=(1, 3, 3))
        assert out.shape == (1, 2, 6, 10, 12)

    def test_matches_naive_loops(self):
        rng = np.random.default_rng(7)
        x = rand(rng, 1, 2, 4, 6, 6)
        w = rand(rng, 3, 2, 3, 3, 3)
        b = rand(rng, 3)
        out = tn.conv3d(Tensor(x), Tensor(w), Tensor(b), padding=(1, 1, 1))
        ref = conv3d_loops(x, w, b, (1, 1, 1), (1, 1, 1))
        assert np.max(np.abs(out.data - ref)) <= 1e-6 * max(1.0, np.abs(ref).max())


class TestRandomizedAgainstLoops:
    """Forward operators agree with naive-loop references on >=100 random
    small shapes (float64, 1e-12 relative)."""

    def test_conv2d_random_cases(self):
        rng = np.random.default_rng(10)
        for _ in range(60):
            n, cin, cout = rng.integers(1, 3), rng.integers(1, 4), rng.integers(1, 4)
            kh, kw = rng.integers(1, 4), rng.integers(1, 4)
            sh, sw = rng.integers(1, 3), rng.integers(1, 3)
            ph, pw = rng.integers(0, 3), rng.integers(0, 3)
            h = int(kh + sh * rng.integers(1, 4) - 2 * ph)
            w = int(kw + sw * rng.integers(1, 4) - 2 * pw)
            if h < 1 or w < 1:
                continue
            x = rand(rng, n, cin, h, w)
            wt = rand(rng, cout, cin, kh, kw)
            b = rand(rng, cout)
            out = tn.conv2d(Tensor(x), Tensor(wt), Tensor(b),
                            stride=(sh, sw), padding=(ph, pw))
            ref = conv2d_loops(x, wt, b, (sh, sw), (ph, pw))
            scale = max(1.0, np.abs(ref).max())
            assert np.max(np.abs(out.data - ref)) <= 1e-12 * scale

    def test_conv3d_random_cases(self, monkeypatch):
        rng = np.random.default_rng(11)
        # the network's geometries with the default tile budget, then one frame per tile
        for tile_bytes in (tn._TILE_BYTES, 1):
            monkeypatch.setattr(tn, "_TILE_BYTES", tile_bytes)
            for x_shape, w_shape, stride, padding in NETWORK_CONV3D.values():
                x, wt, b = rand(rng, *x_shape), rand(rng, *w_shape), rand(rng, w_shape[0])
                out = tn.conv3d(Tensor(x), Tensor(wt), Tensor(b), stride=stride, padding=padding)
                ref = conv3d_loops(x, wt, b, stride, padding)
                assert np.max(np.abs(out.data - ref)) <= 1e-12 * max(1.0, np.abs(ref).max())
        monkeypatch.undo()
        for _ in range(40):
            cin, cout = rng.integers(1, 3), rng.integers(1, 3)
            kt, kh, kw = rng.integers(1, 4), rng.integers(1, 4), rng.integers(1, 4)
            stt, sh, sw = rng.integers(1, 3), rng.integers(1, 3), rng.integers(1, 3)
            pt, ph, pw = rng.integers(0, 2), rng.integers(0, 2), rng.integers(0, 2)
            t = int(kt + stt * rng.integers(1, 3) - 2 * pt)
            h = int(kh + sh * rng.integers(1, 3) - 2 * ph)
            w = int(kw + sw * rng.integers(1, 3) - 2 * pw)
            if min(t, h, w) < 1:
                continue
            x = rand(rng, 1, cin, t, h, w)
            wt = rand(rng, cout, cin, kt, kh, kw)
            b = rand(rng, cout)
            out = tn.conv3d(Tensor(x), Tensor(wt), Tensor(b),
                            stride=(stt, sh, sw), padding=(pt, ph, pw))
            ref = conv3d_loops(x, wt, b, (stt, sh, sw), (pt, ph, pw))
            scale = max(1.0, np.abs(ref).max())
            assert np.max(np.abs(out.data - ref)) <= 1e-12 * scale

    def test_matmul_random_cases(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            bsz, n, k, m = (int(v) for v in rng.integers(1, 5, size=4))
            a, b = rand(rng, bsz, n, k), rand(rng, bsz, k, m)
            ref = np.einsum("bnk,bkm->bnm", a, b)
            out = tn.matmul(Tensor(a), Tensor(b)).data
            assert np.max(np.abs(out - ref)) <= 1e-12 * max(1.0, np.abs(ref).max())


class TestPixelShuffle:
    def test_r1_identity(self):
        x = Tensor(np.random.default_rng(8).standard_normal((1, 3, 2, 4, 4)))
        assert np.array_equal(tn.pixel_shuffle2d(x, 1).data, x.data)

    def test_index_formula(self):
        x = Tensor(np.array([1.0, 2.0, 3.0, 4.0]).reshape(1, 4, 1, 1, 1))
        out = tn.pixel_shuffle2d(x, 2)
        assert out.shape == (1, 1, 1, 2, 2)
        assert np.array_equal(out.data[0, 0, 0], [[1.0, 2.0], [3.0, 4.0]])

    def test_roundtrip_bijection(self):
        x = Tensor(np.random.default_rng(9).standard_normal((2, 8, 3, 4, 5)))
        back = tn.pixel_unshuffle2d(tn.pixel_shuffle2d(x, 2), 2)
        assert np.array_equal(back.data, x.data)

    def test_indivisible_channels_error(self):
        with pytest.raises(tn.ShapeError):
            tn.pixel_shuffle2d(Tensor(np.zeros((1, 3, 1, 2, 2))), 2)


class TestReductions:
    def test_sum_and_mean(self):
        x = Tensor(np.arange(6.0).reshape(2, 3))
        assert tn.tsum(x).item() == 15.0
        assert tn.tmean(x).item() == 2.5
        assert np.array_equal(tn.tsum(x, axis=0).data, [3.0, 5.0, 7.0])


class TestFiniteness:
    def test_ops_preserve_finiteness(self):
        rng = np.random.default_rng(13)
        x = Tensor(rng.standard_normal((2, 3, 8, 8)))
        w = Tensor(rng.standard_normal((4, 3, 3, 3)) * 0.1)
        out = tn.leaky_relu(tn.conv2d(x, w, None, padding=(1, 1)))
        assert np.all(np.isfinite(out.data))
