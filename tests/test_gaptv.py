import numpy as np
import pytest

from scivid import forward_model as fm
from scivid import gaptv
from scivid.metrics import psnr
from scivid.training import make_synthetic_dataset
from naive_ref import gap_tv_plane, tv_denoise_frame


def scene(b=4, h=16, w=16, seed=0):
    vid = make_synthetic_dataset(1, b, h, w, seed=seed)[0]
    masks = fm.generate_masks(b, h, w, seed=seed + 1)
    return vid, masks, fm.encode(vid, masks)


class TestTvDenoise:
    def test_zero_weight_is_identity(self):
        x = np.random.default_rng(0).uniform(0, 1, (2, 1, 8, 8))
        out = gaptv.tv_denoise(x, 0.0)
        assert np.array_equal(out, x)
        assert out is not x

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            gaptv.tv_denoise(np.zeros((1, 1, 4, 4)), -0.1)

    def test_reduces_total_variation(self):
        rng = np.random.default_rng(1)
        clean = np.zeros((12, 12))
        clean[:, 6:] = 1.0
        noisy = clean + 0.2 * rng.standard_normal(clean.shape)

        def tv(u):
            return np.abs(np.diff(u, axis=0)).sum() + np.abs(np.diff(u, axis=1)).sum()

        out = gaptv.tv_denoise(noisy[None, None], 0.1)[0, 0]
        assert tv(out) < tv(noisy)

    def test_stronger_weight_smooths_more(self):
        rng = np.random.default_rng(2)
        noisy = rng.uniform(0, 1, (10, 10))

        def tv(u):
            return np.abs(np.diff(u, axis=0)).sum() + np.abs(np.diff(u, axis=1)).sum()

        mild = gaptv.tv_denoise(noisy[None, None], 0.02)[0, 0]
        strong = gaptv.tv_denoise(noisy[None, None], 0.2)[0, 0]
        assert tv(strong) < tv(mild) < tv(noisy)

    def test_constant_frame_is_fixed_point(self):
        x = np.full((1, 1, 8, 8), 0.4)
        out = gaptv.tv_denoise(x, 0.1)
        assert np.allclose(out, 0.4, atol=1e-12)

    def test_videocube_wrapper_roundtrip(self):
        vid = fm.VideoCube(np.random.default_rng(3).uniform(0, 1, (2, 1, 8, 8)))
        out = gaptv.tv_denoise(vid, 0.05)
        assert isinstance(out, fm.VideoCube)
        assert out.frames.shape == vid.frames.shape


def same_bits(a, b):
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.fixture(params=[1, 2], ids=["1worker", "2workers"])
def workers(request, monkeypatch):
    monkeypatch.setattr(gaptv, "_usable_cores", lambda: request.param)
    return request.param


def frames_per_block(monkeypatch, frame_shape, n):
    monkeypatch.setattr(gaptv, "_BLOCK_BYTES", n * frame_shape[0] * frame_shape[1] * 8)


class TestTvBlocksMatchPerFrameOracle:
    # every frame must come out bit for bit as the per-frame TV gives it;
    # in (4, 6, 8) a column is read at a 64-byte stride, where numpy 2.4's
    # ``negative`` with a strided ``out`` goes wrong
    @pytest.mark.parametrize("shape", [(5, 12, 12), (3, 7, 10), (4, 2, 9), (5, 9, 2),
                                       (4, 6, 8), (3, 2, 4), (2, 3, 8, 6), (1, 6, 6)])
    @pytest.mark.parametrize("per_block", [1, 2, 1000],
                             ids=["frame_blocks", "uneven_last_block", "one_block"])
    def test_tv_denoise_equals_oracle(self, workers, monkeypatch, shape, per_block):
        frames_per_block(monkeypatch, shape[-2:], per_block)
        x = np.random.default_rng(sum(shape)).uniform(0, 1, shape)
        out = gaptv.tv_denoise(x, 0.07, inner_iters=6)
        flat = x.reshape((-1,) + shape[-2:])
        ref = np.stack([tv_denoise_frame(f, 0.07, 6) for f in flat]).reshape(shape)
        assert same_bits(out, ref)

    def test_block_budget_below_one_frame_still_runs(self, workers, monkeypatch):
        monkeypatch.setattr(gaptv, "_BLOCK_BYTES", 1)
        x = np.random.default_rng(20).uniform(0, 1, (3, 5, 5))
        ref = np.stack([tv_denoise_frame(f, 0.1, 4) for f in x])
        assert same_bits(gaptv.tv_denoise(x, 0.1, inner_iters=4), ref)

    def test_more_workers_than_frames(self, monkeypatch):
        monkeypatch.setattr(gaptv, "_usable_cores", lambda: 8)
        x = np.random.default_rng(21).uniform(0, 1, (3, 6, 6))
        ref = np.stack([tv_denoise_frame(f, 0.1, 4) for f in x])
        assert same_bits(gaptv.tv_denoise(x, 0.1, inner_iters=4), ref)

    def test_input_not_mutated(self, workers):
        x = np.random.default_rng(22).uniform(0, 1, (4, 1, 8, 8))
        before = x.copy()
        vid = fm.VideoCube(x.copy())
        out = gaptv.tv_denoise(x, 0.1)
        out_vid = gaptv.tv_denoise(vid, 0.1)
        assert same_bits(x, before) and same_bits(vid.frames, before)
        assert not np.shares_memory(out, x)
        assert not np.shares_memory(out_vid.frames, vid.frames)
        assert same_bits(out, out_vid.frames)

    @pytest.mark.parametrize("h,w", [(16, 16), (12, 10)])
    def test_gray_reconstruct_equals_oracle(self, workers, monkeypatch, h, w):
        frames_per_block(monkeypatch, (h, w), 3)
        vid, masks, meas = scene(b=5, h=h, w=w, seed=23)
        out = gaptv.gap_tv_reconstruct(meas, masks, iters=4, tv_weight=0.05, tv_inner=5)
        ref = gap_tv_plane(meas.y, masks, 4, 0.05, 5, gaptv.gap_projection)
        assert same_bits(out.frames[:, 0], ref)

    def test_bayer_reconstruct_equals_oracle(self, workers, monkeypatch):
        frames_per_block(monkeypatch, (6, 8), 3)
        gray = make_synthetic_dataset(1, 5, 12, 16, seed=24)[0].frames[:, 0]
        vid = fm.VideoCube(np.stack([0.9 * gray, 0.7 * gray, 0.5 * gray], axis=1))
        masks = fm.generate_masks(5, 12, 16, seed=25)
        meas = fm.encode(vid, masks)
        out = gaptv.gap_tv_reconstruct(meas, masks, iters=4, tv_weight=0.05, tv_inner=5)
        assert out.frames.shape == (5, 1, 12, 16)
        for ro, co in fm.BAYER_OFFSETS.values():
            sub_masks = fm.MaskSet(masks.masks[:, ro::2, co::2])
            ref = gap_tv_plane(meas.y[ro::2, co::2], sub_masks, 4, 0.05, 5,
                               gaptv.gap_projection)
            assert same_bits(out.frames[:, 0, ro::2, co::2], ref)


class TestGapProjection:
    def test_residual_zero_after_one_step(self):
        vid, masks, meas = scene(seed=4)
        x0 = np.zeros_like(vid.frames[:, 0])
        x1 = gaptv.gap_projection(x0, meas.y, masks)
        resid = meas.y - (masks.masks * x1).sum(axis=0)
        covered = masks.masks.sum(axis=0) > 0
        assert np.allclose(resid[covered], 0.0, atol=1e-10)

    def test_idempotent(self):
        vid, masks, meas = scene(seed=5)
        x1 = gaptv.gap_projection(np.zeros_like(vid.frames[:, 0]), meas.y, masks)
        x2 = gaptv.gap_projection(x1, meas.y, masks)
        assert np.allclose(x1, x2, atol=1e-10)

    def test_truth_is_fixed_point(self):
        vid, masks, meas = scene(seed=6)
        x = gaptv.gap_projection(vid.frames[:, 0].copy(), meas.y, masks)
        assert np.allclose(x, vid.frames[:, 0], atol=1e-10)


class TestGapTvReconstruct:
    def test_output_shape_gray(self):
        vid, masks, meas = scene(seed=7)
        out = gaptv.gap_tv_reconstruct(meas, masks, iters=3)
        assert isinstance(out, fm.VideoCube)
        assert out.frames.shape == vid.frames.shape

    def test_more_iterations_improve_fidelity(self):
        vid, masks, meas = scene(b=4, h=32, w=32, seed=8)
        few = gaptv.gap_tv_reconstruct(meas, masks, iters=2, tv_weight=0.02)
        many = gaptv.gap_tv_reconstruct(meas, masks, iters=40, tv_weight=0.02)
        assert psnr(many, vid)[1] > psnr(few, vid)[1]

    def test_mask_count_mismatch(self):
        vid, masks, meas = scene(seed=9)
        bad = fm.generate_masks(3, 16, 16, seed=0)
        with pytest.raises(ValueError, match="mask count"):
            gaptv.gap_tv_reconstruct(meas, bad)

    @pytest.mark.parametrize("shape", [(4, 1, 16), (4, 16, 1), (4, 8, 16)])
    def test_mask_extent_mismatch(self, shape):
        vid, masks, meas = scene(seed=9)
        with pytest.raises(ValueError, match="extents"):
            gaptv.gap_tv_reconstruct(meas, fm.MaskSet(np.ones(shape)))

    def test_deterministic(self):
        vid, masks, meas = scene(seed=10)
        a = gaptv.gap_tv_reconstruct(meas, masks, iters=5)
        b = gaptv.gap_tv_reconstruct(meas, masks, iters=5)
        assert np.array_equal(a.frames, b.frames)

    def test_bayer_reconstructs_mosaic_domain(self):
        gray = make_synthetic_dataset(1, 4, 16, 16, seed=11)[0].frames[:, 0]
        rgb = np.stack([0.9 * gray, 0.7 * gray, 0.5 * gray], axis=1)
        vid = fm.VideoCube(rgb)
        masks = fm.generate_masks(4, 16, 16, seed=12)
        meas = fm.encode(vid, masks)
        out = gaptv.gap_tv_reconstruct(meas, masks, iters=10, tv_weight=0.01)
        assert out.frames.shape == (4, 1, 16, 16)
        mosaic = fm.mosaic_rggb(vid.frames)
        # closer to the true mosaic than an all-gray guess
        base = np.full_like(mosaic, 0.5)
        err = np.mean((out.frames[:, 0] - mosaic) ** 2)
        assert err < np.mean((base - mosaic) ** 2)
