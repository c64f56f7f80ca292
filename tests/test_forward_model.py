import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scivid import forward_model as fm
from naive_ref import estimation_scalar


def small_scene(b=4, h=8, w=8, seed=0, color=False):
    rng = np.random.default_rng(seed)
    c = 3 if color else 1
    frames = rng.uniform(0, 1, size=(b, c, h, w))
    return fm.VideoCube(frames)


class TestMasks:
    def test_shape_and_binary_values(self):
        masks = fm.generate_masks(8, 16, 16, seed=3)
        assert masks.masks.shape == (8, 16, 16)
        assert set(np.unique(masks.masks)) <= {0.0, 1.0}

    def test_seed_reproducibility(self):
        a = fm.generate_masks(4, 8, 8, seed=11)
        b = fm.generate_masks(4, 8, 8, seed=11)
        c = fm.generate_masks(4, 8, 8, seed=12)
        assert np.array_equal(a.masks, b.masks)
        assert not np.array_equal(a.masks, c.masks)

    def test_density_near_half(self):
        masks = fm.generate_masks(8, 64, 64, seed=0)
        assert abs(masks.masks.mean() - 0.5) < 0.02

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_rejected(self, bad):
        m = np.zeros((2, 4, 4))
        m[1, 2, 3] = bad
        with pytest.raises(ValueError, match="finite"):
            fm.MaskSet(m)
        with pytest.raises(ValueError, match="finite"):
            fm.MaskSet(np.full((2, 4, 4), bad))


class TestEncode:
    def test_matches_dense_sensing_matrix(self):
        # y = H x with H assembled from per-frame diagonal blocks
        vid = small_scene(b=4, h=6, w=6, seed=1)
        masks = fm.generate_masks(4, 6, 6, seed=2)
        meas = fm.encode(vid, masks)
        sense = fm.build_sensing_oracle(masks)
        y_dense = sense @ fm.vectorize_cube(vid)
        assert np.allclose(meas.y.reshape(-1), y_dense, atol=1e-12)

    def test_single_frame_passthrough(self):
        vid = small_scene(b=1, h=5, w=5, seed=3)
        masks = fm.MaskSet(np.ones((1, 5, 5)))
        meas = fm.encode(vid, masks)
        assert np.allclose(meas.y, vid.frames[0, 0])

    def test_oracle_pixel_cap(self):
        masks = fm.MaskSet(np.ones((2, 80, 80)))
        with pytest.raises(ValueError, match="pixels"):
            fm.build_sensing_oracle(masks)

    def test_noise_changes_measurement_deterministically(self):
        vid = small_scene(seed=4)
        masks = fm.generate_masks(4, 8, 8, seed=5)
        clean = fm.encode(vid, masks)
        n1 = fm.encode(vid, masks, noise_sigma=0.01, rng=np.random.default_rng(9))
        n2 = fm.encode(vid, masks, noise_sigma=0.01, rng=np.random.default_rng(9))
        assert not np.allclose(clean.y, n1.y)
        assert np.array_equal(n1.y, n2.y)
        assert np.std(n1.y - clean.y) == pytest.approx(0.01, rel=0.3)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), b=st.integers(2, 6))
    def test_linearity_property(self, seed, b):
        rng = np.random.default_rng(seed)
        masks = fm.generate_masks(b, 8, 8, seed=seed + 1)
        f1 = rng.uniform(0, 1, (b, 1, 8, 8))
        f2 = rng.uniform(0, 1, (b, 1, 8, 8))
        alpha = rng.uniform(0.1, 2.0)
        lhs = fm.encode(fm.VideoCube(f1 * alpha + f2), masks).y
        rhs = alpha * fm.encode(fm.VideoCube(f1), masks).y + fm.encode(fm.VideoCube(f2), masks).y
        assert np.allclose(lhs, rhs, atol=1e-10)


class TestBayer:
    def test_mosaic_pattern_layout(self):
        frames = np.zeros((1, 3, 4, 4))
        frames[0, 0] = 1.0   # red plane
        frames[0, 1] = 2.0   # green plane
        frames[0, 2] = 3.0   # blue plane
        mosaic = fm.mosaic_rggb(frames)
        assert mosaic[0, 0, 0] == 1.0
        assert mosaic[0, 0, 1] == 2.0
        assert mosaic[0, 1, 0] == 2.0
        assert mosaic[0, 1, 1] == 3.0

    def test_split_merge_roundtrip(self):
        rng = np.random.default_rng(6)
        plane = rng.uniform(0, 1, (6, 6))
        meas = fm.Measurement(plane, b=2)
        masks = fm.generate_masks(2, 6, 6, seed=7)
        subs = fm.bayer_split(meas, masks)
        assert set(subs) == {"r", "g1", "g2", "b"}
        for key, (ro, co) in fm.BAYER_OFFSETS.items():
            sub_y, sub_m = subs[key]
            assert sub_y.y.shape == (3, 3)
            assert np.array_equal(sub_y.y, plane[ro::2, co::2])
            assert np.array_equal(sub_m.masks, masks.masks[:, ro::2, co::2])
        merged = fm.bayer_merge({k: subs[k][0].y for k in subs})
        assert np.array_equal(merged, plane)

    def test_bayer_encode_equals_per_channel_sub_measurements(self):
        vid = small_scene(b=4, h=8, w=8, seed=7, color=True)
        masks = fm.generate_masks(4, 8, 8, seed=8)
        meas = fm.encode(vid, masks)
        assert meas.color_mode == "bayer_rggb"
        mosaic = fm.mosaic_rggb(vid.frames)
        expect = (mosaic * masks.masks).sum(axis=0)
        assert np.allclose(meas.y, expect, atol=1e-12)


class TestEstimationInit:
    def test_matches_scalar_reference(self):
        vid = small_scene(b=4, h=8, w=8, seed=9)
        masks = fm.generate_masks(4, 8, 8, seed=10)
        meas = fm.encode(vid, masks)
        est = fm.estimation_init(meas, masks, dtype=np.float64)
        ref = estimation_scalar(meas.y, masks.masks)
        assert est.data.shape == (4, 1, 8, 8)
        assert np.allclose(est.data[:, 0], ref, atol=1e-12)

    def test_zero_coverage_guard(self):
        masks = fm.MaskSet(np.zeros((3, 4, 4)))
        meas = fm.Measurement(np.ones((4, 4)), b=3)
        est = fm.estimation_init(meas, masks, dtype=np.float64)
        assert np.all(np.isfinite(est.data))
        # masks are zero everywhere, so the output is the replicated 1/eps mean
        assert np.allclose(est.data, 1.0 / fm.ZERO_SUM_GUARD)

    def test_guard_applies_only_where_sum_is_zero(self):
        m = np.zeros((2, 2, 2))
        m[0, 0, 0] = 1.0  # one covered pixel, rest uncovered
        meas = fm.Measurement(np.full((2, 2), 0.5), b=2)
        est = fm.estimation_init(meas, fm.MaskSet(m), dtype=np.float64)
        assert est.data[0, 0, 0, 0] == pytest.approx(1.0)   # ybar*mask + ybar = 0.5+0.5
        assert est.data[1, 0, 0, 0] == pytest.approx(0.5)   # ybar only
        assert np.all(np.isfinite(est.data))

    def test_bayer_init_shape(self):
        vid = small_scene(b=4, h=8, w=8, seed=11, color=True)
        masks = fm.generate_masks(4, 8, 8, seed=12)
        meas = fm.encode(vid, masks)
        est = fm.estimation_init(meas, masks)
        assert est.data.shape == (4, 4, 4, 4)

    def test_default_dtype_float32(self):
        vid = small_scene(seed=13)
        masks = fm.generate_masks(4, 8, 8, seed=14)
        est = fm.estimation_init(fm.encode(vid, masks), masks)
        assert est.data.dtype == np.float32


class TestMeasurementMaskAgreement:
    def test_matching_pair_passes(self):
        masks = fm.generate_masks(4, 8, 6, seed=15)
        fm.check_measurement_masks(fm.encode(small_scene(b=4, h=8, w=6), masks), masks)

    def test_frame_count_mismatch(self):
        meas = fm.encode(small_scene(b=8, h=8, w=8, seed=16), fm.generate_masks(8, 8, 8))
        masks = fm.generate_masks(4, 8, 8, seed=17)
        with pytest.raises(ValueError, match="mask count 4 != measurement B 8"):
            fm.check_measurement_masks(meas, masks)
        with pytest.raises(ValueError, match="mask count"):
            fm.estimation_init(meas, masks)

    @pytest.mark.parametrize("shape", [(8, 1, 8), (8, 8, 1), (8, 4, 8), (8, 8, 16)])
    def test_extent_mismatch(self, shape):
        meas = fm.encode(small_scene(b=8, h=8, w=8, seed=18), fm.generate_masks(8, 8, 8))
        masks = fm.MaskSet(np.ones(shape))
        with pytest.raises(ValueError, match="extents"):
            fm.check_measurement_masks(meas, masks)
        with pytest.raises(ValueError, match="extents"):
            fm.estimation_init(meas, masks)

    def test_bayer_extent_mismatch(self):
        vid = small_scene(b=4, h=8, w=8, seed=19, color=True)
        meas = fm.encode(vid, fm.generate_masks(4, 8, 8))
        with pytest.raises(ValueError, match="extents"):
            fm.estimation_init(meas, fm.generate_masks(4, 8, 4))
