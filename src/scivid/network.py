"""Reconstruction network: dense residual blocks with space-time factorized
convolution/attention hybrids, between a strided 3-D conv stem and a
pixel-shuffle reconstruction head.

Internally frame stacks are [T, c, H, W]; 3-D convolutions view them as a
single batch item [1, c, T, H, W].  The temporal extent T is free at
inference time, so one parameter set serves any compression ratio.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as tn
from .tensor import Tensor
from .forward_model import Measurement, MaskSet, VideoCube, estimation_init

VARIANTS = {
    "T": (64, 8),
    "S": (128, 8),
    "B": (256, 8),
    "L": (256, 12),
}

# Channel schedules for the stem and head.  Widths were sized so that the
# total parameter and multiply budgets track the published variant targets;
# the kernel sizes and the stride-2 final stem conv are fixed.
STEM_KERNELS = ((3, 7, 7), (3, 3, 3), (3, 3, 3))


def stem_channels(config):
    c = config.channels
    return (config.in_channels, c // 2, 2 * c, c)


def head_channels(config):
    c = config.channels
    out_raw = 1 if config.out_channels == 1 else 12
    return (c // 4, c // 2, c // 4, out_raw)


@dataclass
class NetworkConfig:
    channels: int = 64
    blocks: int = 8
    split: int = 4
    heads: int = 4
    in_channels: int = 1
    out_channels: int = 1
    train_b: int = 8  # compression ratio used for training; inference accepts any

    @classmethod
    def variant(cls, name, color=False, **overrides):
        if name not in VARIANTS:
            raise ValueError(f"unknown variant {name!r}, expected one of {sorted(VARIANTS)}")
        channels, blocks = VARIANTS[name]
        kwargs = dict(channels=channels, blocks=blocks)
        if color:
            kwargs.update(in_channels=4, out_channels=3)
        kwargs.update(overrides)
        return cls(**kwargs)

    def validate(self):
        c, s, n = self.channels, self.split, self.heads
        if c % s != 0:
            raise ValueError(f"channels {c} not divisible by split {s}")
        if (c // s) % 2 != 0:
            raise ValueError(f"per-part width {c}/{s} must be even")
        if ((c // s) // 2) % n != 0:
            raise ValueError(f"projection width {(c // s) // 2} not divisible by {n} heads")
        if c % 4 != 0:
            raise ValueError(f"channels {c} not divisible by 4 (pixel-shuffle r=2)")
        if self.in_channels not in (1, 4):
            raise ValueError("in_channels must be 1 (gray) or 4 (Bayer)")
        if self.out_channels not in (1, 3):
            raise ValueError("out_channels must be 1 (gray) or 3 (color)")
        return self

    @property
    def part_channels(self):
        return self.channels // self.split


class ParamStore:
    """Named, ordered collection of learnable tensors plus a layer manifest."""

    def __init__(self):
        self._tensors = {}
        self.layers = []  # (layer name, kind) in construction order

    def add(self, name, tensor):
        if name in self._tensors:
            raise ValueError(f"duplicate parameter name {name!r}")
        tensor.name = name
        self._tensors[name] = tensor
        return tensor

    def add_layer(self, name, kind):
        self.layers.append((name, kind))

    def __getitem__(self, name):
        return self._tensors[name]

    def __contains__(self, name):
        return name in self._tensors

    def __len__(self):
        return len(self._tensors)

    def names(self):
        return list(self._tensors)

    def items(self):
        return self._tensors.items()

    def tensors(self):
        return list(self._tensors.values())

    def total_params(self):
        return sum(t.size for t in self._tensors.values())

    def layer_kinds(self):
        return sorted({kind for _, kind in self.layers})

    def state_arrays(self):
        return {name: t.data for name, t in self._tensors.items()}

    def load_arrays(self, arrays):
        from .container import FormatError  # not at import: `import scivid` skips container
        extra = sorted(set(arrays) - set(self._tensors))
        if extra:
            raise FormatError(f"checkpoint has unknown parameter(s) {extra}")
        for name, t in self._tensors.items():
            if name not in arrays:
                raise FormatError(f"checkpoint missing parameter {name!r}")
            if tuple(arrays[name].shape) != t.shape:
                raise FormatError(
                    f"shape mismatch for {name!r}: {arrays[name].shape} vs {t.shape}")
            t.data = np.ascontiguousarray(arrays[name], dtype=t.data.dtype)

    def astype(self, dtype):
        clone = ParamStore()
        clone.layers = list(self.layers)
        for name, t in self._tensors.items():
            clone.add(name, Tensor(t.data.astype(dtype), requires_grad=t.requires_grad))
        return clone


def _kaiming_uniform(rng, shape, fan_in, dtype):
    bound = math.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


class _Builder:
    def __init__(self, seed, dtype):
        self.rng = np.random.Generator(np.random.PCG64(seed))
        self.dtype = dtype
        self.store = ParamStore()

    def conv(self, name, cin, cout, kernel, kind):
        k = kernel if isinstance(kernel, tuple) else (kernel,)
        fan_in = cin * int(np.prod(k))
        w = _kaiming_uniform(self.rng, (cout, cin) + k, fan_in, self.dtype)
        self.store.add(name + ".w", Tensor(w, requires_grad=True))
        self.store.add(name + ".b", Tensor(np.zeros(cout, dtype=self.dtype), requires_grad=True))
        self.store.add_layer(name, kind)

    def conv2d(self, name, cin, cout, k):
        self.conv(name, cin, cout, (k, k), "conv2d")

    def conv3d(self, name, cin, cout, k):
        kernel = k if isinstance(k, tuple) else (k, k, k)
        self.conv(name, cin, cout, kernel, "conv3d")

    def linear(self, name, cin, cout):
        w = _kaiming_uniform(self.rng, (cin, cout), cin, self.dtype)
        self.store.add(name + ".w", Tensor(w, requires_grad=True))
        self.store.add_layer(name, "linear")


def _build_cformer(bld, prefix, c):
    half = c // 2
    bld.conv2d(prefix + ".scb.conv1", c, half, 3)
    bld.conv2d(prefix + ".scb.conv2", half, half, 3)
    bld.linear(prefix + ".tsab.wq", c, half)
    bld.linear(prefix + ".tsab.wk", c, half)
    bld.linear(prefix + ".tsab.wv", c, half)
    bld.linear(prefix + ".tsab.wp", half, half)
    bld.conv3d(prefix + ".ffn.conv2", c, c, 3)
    bld.conv3d(prefix + ".ffn.conv1", c, c, 1)


def build_network(config, seed=0, dtype=np.float32):
    """Create the full parameter set; bit-identical for a fixed seed."""
    config.validate()
    bld = _Builder(seed, dtype)
    ch = stem_channels(config)
    for i, kernel in enumerate(STEM_KERNELS, start=1):
        bld.conv3d(f"stem.conv{i}", ch[i - 1], ch[i], kernel)
    part = config.part_channels
    for n in range(config.blocks):
        for i in range(config.split):
            prefix = f"block{n}.part{i}"
            if i > 0:
                bld.conv3d(prefix + ".reduce", (i + 1) * part, part, 1)
            _build_cformer(bld, prefix + ".cf", part)
        bld.conv3d(f"block{n}.fuse", config.channels, config.channels, 1)
    hc = head_channels(config)
    bld.conv3d("head.conv1", hc[0], hc[1], 3)
    bld.conv3d("head.conv2", hc[1], hc[2], 1)
    bld.conv3d("head.conv3", hc[2], hc[3], 3)
    return bld.store


# -- layout helpers ---------------------------------------------------------

def _frames_to_volume(x):
    """[T, c, H, W] -> [1, c, T, H, W]"""
    return tn.reshape(tn.permute(x, 1, 0, 2, 3), (1,) + tuple(x.shape[1:2]) + (x.shape[0],) + tuple(x.shape[2:]))


def _volume_to_frames(x):
    """[1, c, T, H, W] -> [T, c, H, W]"""
    return tn.permute(tn.reshape(x, tuple(x.shape[1:])), 1, 0, 2, 3)


def _conv3d_frames(x, params, name, stride=(1, 1, 1), padding=None):
    w = params[name + ".w"]
    if padding is None:
        padding = tuple(k // 2 for k in w.shape[2:])
    vol = _frames_to_volume(x)
    out = tn.conv3d(vol, w, params[name + ".b"], stride=stride, padding=padding)
    return _volume_to_frames(out)


# -- forward passes -----------------------------------------------------------

def _pad_top_left(x):
    """Zero-pad one row and one column at the leading spatial edges so a
    stride-2 3x3 conv with no symmetric padding halves even extents exactly."""
    return tn.pad(x, ((0, 0), (0, 0), (1, 0), (1, 0)))


def feature_extract(x_e, params, config):
    """Stem: three 3-D convs, each followed by leaky-ReLU; the last conv
    halves the spatial extents with stride (1, 2, 2)."""
    t, cin, h, w = x_e.shape
    if cin != config.in_channels:
        raise tn.ShapeError(f"stem expects {config.in_channels} input channels, got {cin}")
    if h % 2 or w % 2:
        raise tn.ShapeError(f"stem needs even spatial extents, got {h}x{w}")
    x = _conv3d_frames(x_e, params, "stem.conv1")
    x = tn.leaky_relu(x)
    x = _conv3d_frames(x, params, "stem.conv2")
    x = tn.leaky_relu(x)
    x = _pad_top_left(x)  # rebinding frees the unpadded activation under no_grad
    x = _conv3d_frames(x, params, "stem.conv3", stride=(1, 2, 2), padding=(1, 0, 0))
    return tn.leaky_relu(x)


def scb_forward(x, params, prefix):
    """Spatial branch: two 3x3 2-D convs applied to each frame independently."""
    t, c, h, w = x.shape
    if c % 2:
        raise tn.ShapeError(f"spatial branch needs an even channel extent, got {c}")
    out = tn.conv2d(x, params[prefix + ".conv1.w"], params[prefix + ".conv1.b"],
                    stride=(1, 1), padding=(1, 1))
    out = tn.leaky_relu(out)
    out = tn.conv2d(out, params[prefix + ".conv2.w"], params[prefix + ".conv2.b"],
                    stride=(1, 1), padding=(1, 1))
    return out


def tsab_forward(x, params, prefix, heads):
    """Temporal branch: multi-head attention across frames, independently at
    each spatial position, with half-width Q/K/V projections."""
    t, c, h, w = x.shape
    half = c // 2
    if half % heads:
        raise tn.ShapeError(f"projection width {half} not divisible by {heads} heads")
    d = half // heads
    xt = tn.reshape(tn.permute(x, 2, 3, 0, 1), (h * w, t, c))
    q = tn.matmul(xt, params[prefix + ".wq.w"])
    k = tn.matmul(xt, params[prefix + ".wk.w"])
    v = tn.matmul(xt, params[prefix + ".wv.w"])
    outs = []
    q_heads = tn.split(q, heads, axis=2)
    k_heads = tn.split(k, heads, axis=2)
    v_heads = tn.split(v, heads, axis=2)
    scale = 1.0 / math.sqrt(d)
    for qj, kj, vj in zip(q_heads, k_heads, v_heads):
        logits = tn.mul(tn.matmul(qj, tn.permute(kj, 0, 2, 1)), scale)
        attn = tn.softmax_lastdim(logits)
        outs.append(tn.matmul(attn, vj))
    merged = tn.concat(outs, axis=2) if heads > 1 else outs[0]
    proj = tn.matmul(merged, params[prefix + ".wp.w"])
    return tn.permute(tn.reshape(proj, (h, w, t, half)), 2, 3, 0, 1)


def ffn_forward(x, params, prefix):
    """Residual feed-forward: 3x3x3 conv (zero padding doubles as the
    positional signal), leaky-ReLU, 1x1x1 conv."""
    inner = _conv3d_frames(x, params, prefix + ".conv2")
    inner = tn.leaky_relu(inner)
    inner = _conv3d_frames(inner, params, prefix + ".conv1")
    return tn.add(x, inner)


def cformer_forward(x, params, prefix, heads):
    """Parallel spatial/temporal branches, channel concat, then FFN.
    No normalization layers anywhere."""
    spatial = scb_forward(x, params, prefix + ".scb")
    temporal = tsab_forward(x, params, prefix + ".tsab", heads)
    merged = tn.concat([spatial, temporal], axis=1)
    return ffn_forward(merged, params, prefix + ".ffn")


def resdnet_block_forward(x, params, prefix, config):
    """Channel split into S parts with hierarchical dense connections and a
    residual 1x1x1 fusion."""
    t, c, h, w = x.shape
    if c % config.split:
        raise tn.ShapeError(f"channels {c} not divisible by split {config.split}")
    parts = tn.split(x, config.split, axis=1)
    outputs = []
    for i, part in enumerate(parts):
        if i == 0:
            inp = part
        else:
            stacked = tn.concat(outputs + [part], axis=1)
            inp = _conv3d_frames(stacked, params, f"{prefix}.part{i}.reduce")
        outputs.append(cformer_forward(inp, params, f"{prefix}.part{i}.cf", config.heads))
    fused = _conv3d_frames(tn.concat(outputs, axis=1), params, f"{prefix}.fuse")
    return tn.add(fused, x)


def reconstruct_head(features, params, config):
    """Pixel-shuffle upsampling followed by three 3-D convs.  The color path
    emits 12 raw channels and shuffles once more to RGB at full Bayer
    resolution."""
    if config.channels % 4:
        raise tn.ShapeError(f"channels {config.channels} not divisible by 4")
    vol = _frames_to_volume(features)
    x = _volume_to_frames(tn.pixel_shuffle2d(vol, 2))
    x = _conv3d_frames(x, params, "head.conv1")
    x = tn.leaky_relu(x)
    x = _conv3d_frames(x, params, "head.conv2")
    x = tn.leaky_relu(x)
    x = _conv3d_frames(x, params, "head.conv3")
    if config.out_channels == 3:
        x = _volume_to_frames(tn.pixel_shuffle2d(_frames_to_volume(x), 2))
    return x


def network_forward_tensor(y, masks, params, config, dtype=np.float32):
    """Full forward pass returning the reconstruction as a Tensor
    [B, out_channels, H, W] (kept in the graph for training)."""
    x_e = estimation_init(y, masks, dtype=dtype)
    feats = feature_extract(x_e, params, config)
    for n in range(config.blocks):
        feats = resdnet_block_forward(feats, params, f"block{n}", config)
    return reconstruct_head(feats, params, config)


def network_forward(y, masks, params, config):
    """Inference entry point: reconstruct a VideoCube from one measurement."""
    with tn.no_grad():
        out = network_forward_tensor(y, masks, params, config)
    return VideoCube(frames=out.data.astype(np.float64))
