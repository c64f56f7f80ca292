"""Optical encoder simulator for video snapshot compressive imaging.

A B-frame scene is modulated per frame by a mask and summed across time
into a single 2-D measurement.  A dense sensing-matrix construction is
provided as a test oracle for small instances, together with the Bayer
RGGB color split and the closed-form estimation-module preprocessing used
to initialize reconstruction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .tensor import Tensor

ORACLE_PIXEL_CAP = 4096
ZERO_SUM_GUARD = 1e-6

# RGGB layout: (row offset, col offset) of each color plane in a 2x2 tile.
BAYER_OFFSETS = {"r": (0, 0), "g1": (0, 1), "g2": (1, 0), "b": (1, 1)}


@dataclass
class MaskSet:
    """Per-frame modulation masks, values in [0, 1]."""

    masks: np.ndarray  # [B, H, W]
    seed: int = 0

    def __post_init__(self):
        self.masks = np.asarray(self.masks, dtype=np.float64)
        if self.masks.ndim != 3:
            raise ValueError(f"masks must be [B, H, W], got shape {self.masks.shape}")
        # NaN fails both comparisons, as a bound outside [0, 1] fails one
        if not (self.masks.min() >= 0 and self.masks.max() <= 1):
            raise ValueError("mask values must be finite and lie in [0, 1]")

    @property
    def b(self):
        return self.masks.shape[0]

    @property
    def frame_shape(self):
        return self.masks.shape[1:]


@dataclass
class Measurement:
    """Single compressed snapshot plus acquisition metadata."""

    y: np.ndarray  # [H, W]
    b: int
    color_mode: str = "gray"  # "gray" | "bayer_rggb"
    noise_sigma: float = 0.0

    def __post_init__(self):
        self.y = np.asarray(self.y, dtype=np.float64)
        if self.y.ndim != 2:
            raise ValueError(f"measurement must be 2-D, got shape {self.y.shape}")
        if not np.all(np.isfinite(self.y)):
            raise ValueError("measurement contains non-finite values")
        if self.b < 1:
            raise ValueError("compression ratio must be >= 1")
        if self.color_mode not in ("gray", "bayer_rggb"):
            raise ValueError(f"unknown color mode {self.color_mode!r}")


@dataclass
class VideoCube:
    """B-frame video, layout [frames, channels, H, W], nominal range [0, 1]."""

    frames: np.ndarray  # [B, C, H, W]

    def __post_init__(self):
        self.frames = np.asarray(self.frames, dtype=np.float64)
        if self.frames.ndim != 4:
            raise ValueError(f"frames must be [B, C, H, W], got shape {self.frames.shape}")
        if self.frames.shape[1] not in (1, 3):
            raise ValueError(f"channel extent must be 1 or 3, got {self.frames.shape[1]}")

    @property
    def b(self):
        return self.frames.shape[0]

    @property
    def channels(self):
        return self.frames.shape[1]

    @property
    def spatial(self):
        return self.frames.shape[2:]


def check_measurement_masks(y, masks):
    """Raise ValueError unless ``masks`` has the measurement's B and [H, W]."""
    if masks.b != y.b:
        raise ValueError(f"mask count {masks.b} != measurement B {y.b}")
    if masks.frame_shape != y.y.shape:
        raise ValueError(
            f"mask extents {masks.frame_shape} != measurement extents {y.y.shape}")


def generate_masks(b, h, w, density=0.5, seed=0):
    """Draw i.i.d. Bernoulli(density) binary masks, deterministic per seed."""
    if not 0 < density <= 1:
        raise ValueError("density must lie in (0, 1]")
    rng = np.random.Generator(np.random.PCG64(seed))
    masks = (rng.random((b, h, w)) < density).astype(np.float64)
    return MaskSet(masks=masks, seed=seed)


def mosaic_rggb(frames):
    """Collapse RGB frames [B, 3, H, W] to the scalar Bayer plane [B, H, W]."""
    b, c, h, w = frames.shape
    if c != 3:
        raise ValueError(f"mosaic expects 3 channels, got {c}")
    if h % 2 or w % 2:
        raise ValueError(f"Bayer mosaic needs even extents, got {h}x{w}")
    out = np.empty((b, h, w), dtype=np.float64)
    out[:, 0::2, 0::2] = frames[:, 0, 0::2, 0::2]  # R
    out[:, 0::2, 1::2] = frames[:, 1, 0::2, 1::2]  # G1
    out[:, 1::2, 0::2] = frames[:, 1, 1::2, 0::2]  # G2
    out[:, 1::2, 1::2] = frames[:, 2, 1::2, 1::2]  # B
    return out


def encode(video, masks, noise_sigma=0.0, rng=None):
    """Form the snapshot measurement: sum of mask-modulated frames plus noise."""
    if video.b != masks.b:
        raise ValueError(f"frame count {video.b} != mask count {masks.b}")
    if video.spatial != masks.frame_shape:
        raise ValueError(
            f"video spatial extents {video.spatial} != mask extents {masks.frame_shape}")
    if video.channels == 1:
        planes = video.frames[:, 0]
        color_mode = "gray"
    else:
        planes = mosaic_rggb(video.frames)
        color_mode = "bayer_rggb"
    y = np.sum(planes * masks.masks, axis=0)
    if noise_sigma > 0:
        if rng is None:
            rng = np.random.Generator(np.random.PCG64(masks.seed))
        y = y + rng.normal(0.0, noise_sigma, size=y.shape)
    return Measurement(y=y, b=masks.b, color_mode=color_mode, noise_sigma=noise_sigma)


def build_sensing_oracle(masks):
    """Dense sensing matrix [HW, HW*B] of diagonal blocks, for small instances.

    Row r has one nonzero per mask frame covering pixel r; applying it to
    the stacked vectorized frames reproduces the noiseless encoder.
    """
    b, h, w = masks.masks.shape
    n = h * w
    if n > ORACLE_PIXEL_CAP:
        raise ValueError(f"oracle restricted to <= {ORACLE_PIXEL_CAP} pixels, got {n}")
    mat = np.zeros((n, n * b), dtype=np.float64)
    idx = np.arange(n)
    for m in range(b):
        mat[idx, m * n + idx] = masks.masks[m].reshape(-1)
    return mat


def vectorize_cube(video):
    """Stack vec(X_1)..vec(X_B) for comparison against the dense oracle."""
    if video.channels != 1:
        raise ValueError("vectorized form is defined for grayscale cubes")
    return video.frames[:, 0].reshape(-1)


def bayer_split(y, masks):
    """Extract the four RGGB sub-measurements and matching sub-mask sets."""
    h, w = y.y.shape
    if h % 2 or w % 2:
        raise ValueError(f"Bayer split needs even extents, got {h}x{w}")
    if masks.frame_shape != (h, w):
        raise ValueError("mask extents do not match the measurement")
    subs = {}
    for key, (ro, co) in BAYER_OFFSETS.items():
        sub_y = Measurement(y=y.y[ro::2, co::2], b=y.b, color_mode="gray",
                            noise_sigma=y.noise_sigma)
        sub_m = MaskSet(masks=masks.masks[:, ro::2, co::2], seed=masks.seed)
        subs[key] = (sub_y, sub_m)
    return subs


def bayer_merge(subs):
    """Interleave four [H/2, W/2] planes back into the full mosaic."""
    hh, hw = subs["r"].shape
    out = np.empty((hh * 2, hw * 2), dtype=np.float64)
    for key, (ro, co) in BAYER_OFFSETS.items():
        out[ro::2, co::2] = subs[key]
    return out


def _estimate_plane(y_plane, mask_frames):
    mask_sum = mask_frames.sum(axis=0)
    denom = np.where(mask_sum == 0.0, ZERO_SUM_GUARD, mask_sum)
    y_bar = y_plane / denom
    return y_bar[None] * mask_frames + y_bar[None]  # [B, H, W]


def estimation_init(y, masks, dtype=np.float32):
    """Closed-form coarse video estimate from measurement and masks.

    Grayscale: returns Tensor [B, 1, H, W].  Bayer: the four sub-measurement
    pairs are each processed independently and stacked as 4 channels at
    half resolution, Tensor [B, 4, H/2, W/2].
    """
    check_measurement_masks(y, masks)
    if y.color_mode == "gray":
        est = _estimate_plane(y.y, masks.masks)[:, None]
    else:
        subs = bayer_split(y, masks)
        planes = []
        for key in ("r", "g1", "g2", "b"):
            sub_y, sub_m = subs[key]
            planes.append(_estimate_plane(sub_y.y, sub_m.masks))
        est = np.stack(planes, axis=1)  # [B, 4, H/2, W/2]
    return Tensor(est.astype(dtype))
