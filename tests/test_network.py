import tracemalloc

import numpy as np
import pytest

from scivid import forward_model as fm
from scivid import network as net
from scivid import tensor as tn
from scivid.tensor import Tensor
from naive_ref import pad_top_left_concat, scb_frame_loops

MICRO = net.NetworkConfig(channels=8, blocks=1, split=2, heads=1)


def micro_params(seed=0, config=MICRO):
    return net.build_network(config, seed=seed, dtype=np.float64)


def random_features(t=3, c=8, h=4, w=4, seed=0):
    rng = np.random.default_rng(seed)
    return Tensor(rng.standard_normal((t, c, h, w)))


class TestConfig:
    def test_variant_table(self):
        assert net.VARIANTS == {"T": (64, 8), "S": (128, 8), "B": (256, 8), "L": (256, 12)}
        cfg = net.NetworkConfig.variant("S")
        assert (cfg.channels, cfg.blocks, cfg.split, cfg.heads) == (128, 8, 4, 4)

    def test_variant_color_channels(self):
        cfg = net.NetworkConfig.variant("T", color=True)
        assert (cfg.in_channels, cfg.out_channels) == (4, 3)

    def test_unknown_variant(self):
        with pytest.raises(ValueError, match="variant"):
            net.NetworkConfig.variant("XL")

    def test_validation_rejects_bad_widths(self):
        with pytest.raises(ValueError, match="divisible by split"):
            net.NetworkConfig(channels=10, split=4).validate()
        with pytest.raises(ValueError, match="heads"):
            net.NetworkConfig(channels=8, split=2, heads=3).validate()


class TestBuild:
    def test_seed_determinism(self):
        a = net.build_network(MICRO, seed=5)
        b = net.build_network(MICRO, seed=5)
        c = net.build_network(MICRO, seed=6)
        assert a.names() == b.names() == c.names()
        for name in a.names():
            assert np.array_equal(a[name].data, b[name].data)
        assert any(not np.array_equal(a[n].data, c[n].data) for n in a.names())

    def test_attention_projections_have_no_bias(self):
        params = micro_params()
        for name in params.names():
            if ".tsab." in name:
                assert name.endswith(".w")

    def test_no_normalization_layers(self):
        params = micro_params()
        assert set(params.layer_kinds()) == {"conv2d", "conv3d", "linear"}


class TestStem:
    def test_spatial_halving_temporal_preserved(self):
        params = micro_params()
        x = random_features(t=4, c=1, h=10, w=6)
        out = net.feature_extract(x, params, MICRO)
        assert out.shape == (4, 8, 5, 3)

    def test_odd_extent_rejected(self):
        params = micro_params()
        with pytest.raises(tn.ShapeError, match="even"):
            net.feature_extract(random_features(t=2, c=1, h=5, w=6), params, MICRO)

    def test_channel_mismatch_rejected(self):
        params = micro_params()
        with pytest.raises(tn.ShapeError, match="channels"):
            net.feature_extract(random_features(t=2, c=3, h=6, w=6), params, MICRO)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_top_left_pad_matches_concat(self, dtype):
        x = random_features(t=3, c=2, h=4, w=6, seed=7).data.astype(dtype)
        out = net._pad_top_left(Tensor(x)).data
        assert out.dtype == dtype
        assert np.array_equal(out, pad_top_left_concat(x))

    def test_top_left_pad_grad_check(self):
        x = random_features(t=2, c=2, h=3, w=4, seed=8)
        x.requires_grad = True
        weights = Tensor(np.random.default_rng(9).standard_normal((2, 2, 4, 5)))
        report = tn.grad_check(lambda u: tn.tsum(tn.mul(net._pad_top_left(u), weights)), [x])
        assert report.passed, str(report)


class TestBranches:
    def test_spatial_branch_matches_frame_loops(self):
        params = micro_params()
        x = random_features(t=3, c=4, h=5, w=5, seed=1)
        got = net.scb_forward(x, params, "block0.part0.cf.scb")
        ref = scb_frame_loops(x.data,
                              params["block0.part0.cf.scb.conv1.w"].data,
                              params["block0.part0.cf.scb.conv1.b"].data,
                              params["block0.part0.cf.scb.conv2.w"].data,
                              params["block0.part0.cf.scb.conv2.b"].data)
        assert np.allclose(got.data, ref, atol=1e-10)

    def test_spatial_branch_is_frame_local(self):
        # a per-frame branch must not leak information across time
        params = micro_params()
        x = random_features(t=3, c=4, h=5, w=5, seed=2)
        base = net.scb_forward(x, params, "block0.part0.cf.scb").data
        bumped = x.data.copy()
        bumped[1] += 1.0
        out = net.scb_forward(Tensor(bumped), params, "block0.part0.cf.scb").data
        assert np.allclose(out[0], base[0]) and np.allclose(out[2], base[2])
        assert not np.allclose(out[1], base[1])

    def test_temporal_branch_is_position_local(self):
        params = micro_params()
        x = random_features(t=4, c=4, h=3, w=3, seed=3)
        base = net.tsab_forward(x, params, "block0.part0.cf.tsab", heads=1).data
        bumped = x.data.copy()
        bumped[:, :, 1, 2] += 1.0
        out = net.tsab_forward(Tensor(bumped), params, "block0.part0.cf.tsab", heads=1).data
        mask = np.ones((3, 3), dtype=bool)
        mask[1, 2] = False
        assert np.allclose(out[:, :, mask], base[:, :, mask])
        assert not np.allclose(out[:, :, 1, 2], base[:, :, 1, 2])

    def test_temporal_branch_frame_permutation_equivariance(self):
        # no positional encoding inside the attention itself
        params = micro_params()
        x = random_features(t=4, c=4, h=2, w=2, seed=4)
        perm = [2, 0, 3, 1]
        base = net.tsab_forward(x, params, "block0.part0.cf.tsab", heads=1).data
        out = net.tsab_forward(Tensor(x.data[perm]), params,
                               "block0.part0.cf.tsab", heads=1).data
        assert np.allclose(out, base[perm], atol=1e-12)

    def test_multihead_differs_from_single_head(self):
        cfg = net.NetworkConfig(channels=8, blocks=1, split=2, heads=2)
        params = net.build_network(cfg, seed=0, dtype=np.float64)
        x = random_features(t=3, c=4, h=2, w=2, seed=5)
        two = net.tsab_forward(x, params, "block0.part0.cf.tsab", heads=2).data
        one = net.tsab_forward(x, params, "block0.part0.cf.tsab", heads=1).data
        assert two.shape == one.shape == (3, 2, 2, 2)
        assert not np.allclose(two, one)

    def test_branch_widths_concat_to_input_width(self):
        params = micro_params()
        x = random_features(t=3, c=4, h=4, w=4, seed=6)
        out = net.cformer_forward(x, params, "block0.part0.cf", heads=1)
        assert out.shape == x.shape

    def test_zeroed_temporal_path_is_purely_spatial(self):
        # kill the attention weights and the temporal taps of the FFN conv;
        # what remains must treat every frame independently
        params = micro_params()
        for name in params.names():
            if ".tsab." in name:
                params[name].data[:] = 0.0
        w = params["block0.part0.cf.ffn.conv2.w"]
        w.data[:, :, 0] = 0.0
        w.data[:, :, 2] = 0.0
        x = random_features(t=3, c=4, h=4, w=4, seed=7)
        base = net.cformer_forward(x, params, "block0.part0.cf", heads=1).data
        bumped = x.data.copy()
        bumped[1] += 0.5
        out = net.cformer_forward(Tensor(bumped), params, "block0.part0.cf", heads=1).data
        assert np.allclose(out[0], base[0], atol=1e-12)
        assert np.allclose(out[2], base[2], atol=1e-12)

    def test_ffn_is_residual(self):
        params = micro_params()
        for name in ("block0.part0.cf.ffn.conv2", "block0.part0.cf.ffn.conv1"):
            params[name + ".w"].data[:] = 0.0
            params[name + ".b"].data[:] = 0.0
        x = random_features(t=2, c=4, h=3, w=3, seed=8)
        out = net.ffn_forward(x, params, "block0.part0.cf.ffn")
        assert np.array_equal(out.data, x.data)


class TestBlocksAndHead:
    def test_block_preserves_shape_and_is_residual(self):
        params = micro_params()
        x = random_features(t=3, c=8, h=4, w=4, seed=9)
        out = net.resdnet_block_forward(x, params, "block0", MICRO)
        assert out.shape == x.shape
        zeroed = micro_params()
        for name in zeroed.names():
            zeroed[name].data[:] = 0.0
        passthrough = net.resdnet_block_forward(x, zeroed, "block0", MICRO)
        assert np.array_equal(passthrough.data, x.data)

    def test_head_doubles_spatial_extent(self):
        params = micro_params()
        feats = random_features(t=3, c=8, h=4, w=4, seed=10)
        out = net.reconstruct_head(feats, params, MICRO)
        assert out.shape == (3, 1, 8, 8)

    def test_gray_end_to_end_shapes(self):
        masks = fm.generate_masks(4, 8, 8, seed=0)
        vid = fm.VideoCube(np.random.default_rng(1).uniform(0, 1, (4, 1, 8, 8)))
        meas = fm.encode(vid, masks)
        params = net.build_network(MICRO, seed=0)
        out = net.network_forward(meas, masks, params, MICRO)
        assert out.frames.shape == (4, 1, 8, 8)
        assert np.all(np.isfinite(out.frames))

    def test_color_end_to_end_shapes(self):
        cfg = net.NetworkConfig(channels=8, blocks=1, split=2, heads=1,
                                in_channels=4, out_channels=3)
        masks = fm.generate_masks(4, 8, 8, seed=2)
        vid = fm.VideoCube(np.random.default_rng(3).uniform(0, 1, (4, 3, 8, 8)))
        meas = fm.encode(vid, masks)
        params = net.build_network(cfg, seed=0)
        out = net.network_forward(meas, masks, params, cfg)
        assert out.frames.shape == (4, 3, 8, 8)

    def test_one_parameter_set_serves_any_compression_ratio(self):
        params = net.build_network(MICRO, seed=0)
        for b in (2, 4, 6):
            masks = fm.generate_masks(b, 8, 8, seed=b)
            vid = fm.VideoCube(np.random.default_rng(b).uniform(0, 1, (b, 1, 8, 8)))
            out = net.network_forward(fm.encode(vid, masks), masks, params, MICRO)
            assert out.frames.shape == (b, 1, 8, 8)

    def test_forward_is_deterministic(self):
        masks = fm.generate_masks(4, 8, 8, seed=5)
        vid = fm.VideoCube(np.random.default_rng(6).uniform(0, 1, (4, 1, 8, 8)))
        meas = fm.encode(vid, masks)
        params = net.build_network(MICRO, seed=1)
        a = net.network_forward(meas, masks, params, MICRO)
        b = net.network_forward(meas, masks, params, MICRO)
        assert np.array_equal(a.frames, b.frames)


class TestMemory:
    def test_variant_t_peak_stays_near_the_largest_activation(self):
        # tracemalloc counts numpy's buffers whatever the BLAS thread count.
        # The largest activation is stem.conv2's output; conv columns come
        # in cache-sized tiles and no conv input is copied padded, so the
        # peak stays under 3 of it (about 2: that output and its leaky-ReLU).
        config = net.NetworkConfig.variant("T")
        b, size = 8, 64
        params = net.build_network(config, seed=0)
        masks = fm.generate_masks(b, size, size, seed=3)
        video = fm.VideoCube(np.random.default_rng(4).uniform(0, 1, (b, 1, size, size)))
        meas = fm.encode(video, masks)
        largest = 2 * config.channels * b * size * size * np.dtype(np.float32).itemsize
        tracemalloc.start()
        try:
            net.network_forward(meas, masks, params, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * largest, f"peak {peak / 1e6:.1f} MB, largest activation {largest / 1e6:.1f} MB"
