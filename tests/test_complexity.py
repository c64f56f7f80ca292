import numpy as np
import pytest

from scivid import complexity as cx
from scivid import network as net
from scivid import tensor as tn
from scivid.tensor import Tensor

from naive_ref import NETWORK_CONV3D

MICRO = net.NetworkConfig(channels=8, blocks=1, split=2, heads=1)


class TestFormulaTable:
    # frozen evaluations at h=w=128, t=8, c=64, k=3
    CASES = {
        "SCB": 2_415_919_104,
        "TSAB": 301_989_888,
        "SCB3D": 7_247_757_312,
        "G-MSA": 1_100_048_498_688,
        "TS-MSA": 138_579_804_160,
    }

    def test_frozen_values(self):
        for comp, expect in self.CASES.items():
            assert cx.flops_analytic(comp, 128, 128, 8, 64) == expect

    def test_component_ordering(self):
        # the factorized pair undercuts both the 3-D conv and global attention
        vals = {c: cx.flops_analytic(c, 128, 128, 8, 64) for c in self.CASES}
        assert vals["TSAB"] < vals["SCB"] < vals["SCB3D"]
        assert vals["SCB"] + vals["TSAB"] < vals["TS-MSA"] < vals["G-MSA"]

    def test_attention_quadratic_in_time(self):
        lin = cx.flops_analytic("TSAB", 32, 32, 8, 64)
        dbl = cx.flops_analytic("TSAB", 32, 32, 16, 64)
        hw, c = 32 * 32, 64
        assert dbl - 2 * lin == 0.5 * hw * c * (16 ** 2 - 2 * 8 ** 2)

    def test_unknown_component(self):
        with pytest.raises(ValueError, match="component"):
            cx.flops_analytic("MLP", 8, 8, 2, 4)


class TestParamCount:
    def test_closed_form_matches_builder_enumeration(self):
        for cfg in (MICRO,
                    net.NetworkConfig.variant("T"),
                    net.NetworkConfig(channels=8, blocks=2, split=2, heads=1,
                                      in_channels=4, out_channels=3)):
            total, layers = cx.param_count(cfg)
            store = net.build_network(cfg, seed=0)
            assert total == store.total_params()
            by_layer = {}
            for name, t in store.items():
                layer = name.rsplit(".", 1)[0]
                by_layer[layer] = by_layer.get(layer, 0) + t.size
            assert layers == by_layer

    def test_variant_totals_frozen(self):
        totals = {v: cx.param_count(net.NetworkConfig.variant(v))[0] for v in "TSBL"}
        assert totals == {"T": 704_161, "S": 2_800_961, "B": 11_172_481, "L": 13_979_009}
        assert totals["T"] < totals["S"] < totals["B"] < totals["L"]


class TestNetworkFlops:
    def test_reference_point_frozen(self):
        total, parts = cx.network_flops(net.NetworkConfig.variant("T"), 8, 256, 256)
        assert total == 143_621_357_568
        assert parts == {"stem": 89_439_338_496,
                         "blocks": 46_439_333_888,
                         "head": 7_742_685_184}

    def test_monotone_across_variants(self):
        totals = [cx.network_flops(net.NetworkConfig.variant(v), 8, 256, 256)[0]
                  for v in "TSBL"]
        assert totals == sorted(totals)

    def test_linear_in_spatial_area(self):
        cfg = net.NetworkConfig.variant("T")
        base = cx.network_flops(cfg, 8, 64, 64)[0]
        assert cx.network_flops(cfg, 8, 64, 128)[0] == 2 * base
        assert cx.network_flops(cfg, 8, 128, 128)[0] == 4 * base


def measured(counter, *labels):
    return sum(counter.total(lbl) for lbl in labels)


class TestMeasuredAgainstAnalytic:
    """The instrumented engine's mechanical multiply counts must reproduce
    the closed-form accounting exactly."""

    def test_spatial_branch_convs(self):
        params = net.build_network(MICRO, seed=0, dtype=np.float64)
        t, c, h, w = 3, 4, 6, 6
        x = Tensor(np.random.default_rng(0).standard_normal((t, c, h, w)))
        with tn.count_multiplies() as counter:
            net.scb_forward(x, params, "block0.part0.cf.scb")
        half = c // 2
        expect = h * w * t * (c * half * 9 + half * half * 9)
        assert counter.total("conv2d") == expect
        # dominant single conv matches the published-per-layer term
        assert counter.largest("conv2d") == h * w * t * 9 * c * half

    @pytest.mark.parametrize("op, x_shape, w_shape, stride, padding", [
        (tn.conv2d, (3, 4, 6, 6), (2, 4, 3, 3), (1, 1), (1, 1)),
        (tn.conv2d, (2, 2, 5, 5), (3, 2, 3, 3), (2, 2), (1, 1)),
        (tn.conv2d, (2, 3, 4, 4), (2, 3, 1, 1), (1, 1), (0, 0)),
    ] + [(tn.conv3d,) + geometry for geometry in NETWORK_CONV3D.values()])
    def test_conv_backward_records_no_multiplies(self, op, x_shape, w_shape, stride, padding):
        rng = np.random.default_rng(4)
        x = Tensor(rng.standard_normal(x_shape), requires_grad=True)
        w = Tensor(rng.standard_normal(w_shape), requires_grad=True)
        b = Tensor(rng.standard_normal(w_shape[0]), requires_grad=True)
        with tn.count_multiplies() as counter:
            out = op(x, w, b, stride, padding)
            tn.backward(tn.tsum(out))
        n, cout = out.shape[:2]
        expect = n * cout * int(np.prod(out.shape[2:])) * int(np.prod(w_shape[1:]))
        assert counter.events == [(op.__name__, expect)]
        assert x.grad is not None and w.grad is not None and b.grad is not None

    def test_temporal_branch_matmuls(self):
        params = net.build_network(MICRO, seed=0, dtype=np.float64)
        t, c, h, w = 4, 4, 5, 5
        x = Tensor(np.random.default_rng(1).standard_normal((t, c, h, w)))
        with tn.count_multiplies() as counter:
            net.tsab_forward(x, params, "block0.part0.cf.tsab", heads=1)
        half = c // 2
        qkv = 3 * h * w * t * c * half
        attn = 2 * h * w * t * t * half
        proj = h * w * t * half * half
        assert counter.total("matmul") == qkv + attn + proj

    def test_full_forward_matches_closed_form(self):
        from scivid import forward_model as fm
        cfg = net.NetworkConfig(channels=8, blocks=2, split=2, heads=2)
        params = net.build_network(cfg, seed=0)
        b, h, w = 4, 8, 8
        masks = fm.generate_masks(b, h, w, seed=0)
        vid = fm.VideoCube(np.random.default_rng(2).uniform(0, 1, (b, 1, h, w)))
        meas = fm.encode(vid, masks)
        analytic, _ = cx.network_flops(cfg, b, h, w)
        with tn.count_multiplies() as counter:
            net.network_forward(meas, masks, params, cfg)
        got = measured(counter, "conv2d", "conv3d", "matmul")
        assert got == analytic

    def test_measured_scales_linearly_with_area(self):
        from scivid import forward_model as fm
        cfg = MICRO
        params = net.build_network(cfg, seed=0)

        def run(h, w):
            masks = fm.generate_masks(2, h, w, seed=0)
            vid = fm.VideoCube(np.random.default_rng(3).uniform(0, 1, (2, 1, h, w)))
            with tn.count_multiplies() as counter:
                net.network_forward(fm.encode(vid, masks), masks, params, cfg)
            return measured(counter, "conv2d", "conv3d", "matmul")

        assert run(8, 16) == 2 * run(8, 8)
