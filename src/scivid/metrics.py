"""Reconstruction quality metrics: PSNR and single-scale SSIM.

Inputs are clamped to [0, 1] before comparison; a zero-MSE pair reports
the 100 dB cap used in result tables.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

PSNR_CAP = 100.0
SSIM_K1 = 0.01
SSIM_K2 = 0.03
SSIM_WINDOW = 11
SSIM_SIGMA = 1.5


def _frames(x):
    arr = np.asarray(getattr(x, "frames", x), dtype=np.float64)
    if arr.ndim == 2:
        arr = arr[None, None]
    elif arr.ndim == 3:
        arr = arr[:, None]
    if arr.ndim != 4:
        raise ValueError(f"expected frames of rank 2-4, got shape {arr.shape}")
    return np.clip(arr, 0.0, 1.0)


def psnr(a, b, peak=1.0):
    """Per-frame and mean PSNR in dB; identical frames report the cap."""
    fa, fb = _frames(a), _frames(b)
    if fa.shape != fb.shape:
        raise ValueError(f"shape mismatch: {fa.shape} vs {fb.shape}")
    per_frame = []
    for m in range(fa.shape[0]):
        mse = np.mean((fa[m] - fb[m]) ** 2)
        if mse == 0.0:
            per_frame.append(PSNR_CAP)
        else:
            per_frame.append(min(10.0 * np.log10(peak * peak / mse), PSNR_CAP))
    return per_frame, float(np.mean(per_frame))


def _gaussian_1d(size, sigma):
    half = (size - 1) / 2.0
    g = np.exp(-((np.arange(size) - half) ** 2) / (2.0 * sigma ** 2))
    return g / g.sum()


def gaussian_window(size=SSIM_WINDOW, sigma=SSIM_SIGMA):
    g = _gaussian_1d(size, sigma)
    return np.outer(g, g)


def _filter(x, g):
    """Valid-mode Gaussian filter of the trailing two axes: the 2-D window
    is separable, so it runs as one 1-D pass along W, then one along H."""
    x = sliding_window_view(x, g.size, axis=-1) @ g
    return sliding_window_view(x, g.size, axis=-2) @ g


def ssim(a, b, peak=1.0, window=SSIM_WINDOW, sigma=SSIM_SIGMA,
         k1=SSIM_K1, k2=SSIM_K2):
    """Per-frame and mean single-scale SSIM with a Gaussian window.

    Color frames average the per-channel values.  Frames smaller than the
    window are an error; pass a smaller odd ``window`` for tiny fixtures.
    """
    fa, fb = _frames(a), _frames(b)
    if fa.shape != fb.shape:
        raise ValueError(f"shape mismatch: {fa.shape} vs {fb.shape}")
    h, w = fa.shape[2:]
    if h < window or w < window:
        raise ValueError(f"frames {h}x{w} smaller than SSIM window {window}")
    g = _gaussian_1d(window, sigma)
    c1 = (k1 * peak) ** 2
    c2 = (k2 * peak) ** 2
    mu_a, mu_b = _filter(fa, g), _filter(fb, g)
    var_a = _filter(fa * fa, g) - mu_a ** 2
    var_b = _filter(fb * fb, g) - mu_b ** 2
    cov = _filter(fa * fb, g) - mu_a * mu_b
    num = (2 * mu_a * mu_b + c1) * (2 * cov + c2)
    den = (mu_a ** 2 + mu_b ** 2 + c1) * (var_a + var_b + c2)
    per_frame = [float(v) for v in (num / den).mean(axis=(2, 3)).mean(axis=1)]
    return per_frame, float(np.mean(per_frame))


def format_metric_table(rows, header):
    """Aligned-text table: rows of (label, value...) under a header tuple."""
    cols = [header] + [tuple(str(v) for v in row) for row in rows]
    widths = [max(len(row[i]) for row in cols) for i in range(len(header))]
    lines = []
    for row in cols:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)
