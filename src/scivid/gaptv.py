"""Model-based reconstruction baseline: generalized alternating projection
with total-variation denoising.

The measurement-consistency projection exploits the diagonal structure of
the sensing operator's Gram matrix (per-pixel sums of squared masks), so
it reduces to an elementwise division.

TV denoising is Chambolle's (2004) anisotropic dual projection, run on
every frame of a [..., H, W] stack in one call.  The frames are cut into
one contiguous share per usable core; each share runs on a module thread
pool (numpy releases the interpreter lock in its ufuncs) and is walked in
blocks of at most ``_BLOCK_BYTES``, always at least one frame, so that a
block and its scratch stay in a core's cache.  The scratch of every share
is allocated by the calling thread (freed buffers then go back to the
main malloc arena, not to one arena per worker thread) and reused by each
inner iteration, which allocates nothing.  Each frame goes through the
same elementwise operations in the same order as a per-frame TV, so the
result is bit-identical to denoising the frames one at a time.
"""

from __future__ import annotations

import os
import threading

import numpy as np

from .forward_model import (VideoCube, ZERO_SUM_GUARD, bayer_merge, bayer_split,
                            check_measurement_masks)

TV_INNER_ITERS = 20

_BLOCK_BYTES = 512 * 1024
_pool = None
_pool_lock = threading.Lock()


def _usable_cores():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _thread_pool():
    global _pool
    # imported on first use: concurrent.futures also imports logging, which
    # would lengthen every ``import scivid`` by a few milliseconds
    from concurrent.futures import ThreadPoolExecutor
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(max_workers=max(1, _usable_cores() - 1),
                                       thread_name_prefix="scivid-tv")
        return _pool


def _div_into(d, p1, p2, tmp):
    """d <- div(p1, p2) over the [n, H, W] block; ``tmp`` is overwritten.

    The differences run over the flattened block, so each is one contiguous
    pass.  Where a difference crosses into the previous row (p2) or frame
    (p1), the element it subtracts lies in p2's last column or p1's last
    row, which stay +0, and x - (+0) is exactly x.
    """
    w = d.shape[-1]
    df, p1f, p2f, tf = (a.reshape(-1) for a in (d, p1, p2, tmp))
    df[:w] = p1f[:w]
    np.subtract(p1f[w:], p1f[:-w], out=df[w:])
    np.multiply(p1[:, -2], -1.0, out=d[:, -1])
    tf[0] = p2f[0]
    np.subtract(p2f[1:], p2f[:-1], out=tf[1:])
    np.multiply(p2[:, :, -2], -1.0, out=tmp[:, :, -1])
    d += tmp


def _tv_block(f, weight, inner_iters, p1, p2, d, g):
    """Denoise the [n, H, W] block ``f`` in place; p1, p2, d, g are scratch
    of its shape.

    Projected gradient descent on the dual problem
    min_{|p|<=1} ||w div p - f||^2, then f <- f - w div p.  The gradient's
    last row (x) and last column (y) are 0, so p1's last row and p2's last
    column stay +0.
    """
    w = f.shape[-1]
    df, gf = d.reshape(-1), g.reshape(-1)
    step = 1.0 / (8.0 * weight)
    p1.fill(0.0)
    p2.fill(0.0)
    for _ in range(inner_iters):
        _div_into(d, p1, p2, g)
        d *= weight
        np.subtract(f, d, out=d)  # d is now u
        np.subtract(df[w:], df[:-w], out=gf[:-w])
        g[:, -1] = 0.0
        g *= step
        p1 -= g
        np.clip(p1, -1.0, 1.0, out=p1)
        np.subtract(df[1:], df[:-1], out=gf[:-1])
        g[:, :, -1] = 0.0
        g *= step
        p2 -= g
        np.clip(p2, -1.0, 1.0, out=p2)
    _div_into(d, p1, p2, g)
    d *= weight
    np.subtract(f, d, out=f)


def _tv_share(frames, scratch, weight, inner_iters):
    n = scratch.shape[1]
    for lo in range(0, len(frames), n):
        block = frames[lo:lo + n]
        _tv_block(block, weight, inner_iters, *scratch[:, :len(block)])


def _tv_inplace(x, weight, inner_iters):
    """TV-denoise every [H, W] frame of the C-contiguous float64 ``x`` in place."""
    if x.size == 0:
        return
    frames = x.reshape((-1,) + x.shape[-2:])
    n, h, w = frames.shape
    per_block = max(1, _BLOCK_BYTES // (h * w * frames.itemsize))
    k = min(_usable_cores(), n)
    cuts = [i * n // k for i in range(k + 1)]
    shares = [frames[lo:hi] for lo, hi in zip(cuts[:-1], cuts[1:])]
    jobs = [(s, np.empty((4, min(per_block, len(s)), h, w))) for s in shares]
    futures = [_thread_pool().submit(_tv_share, s, scratch, weight, inner_iters)
               for s, scratch in jobs[1:]]
    try:
        _tv_share(*jobs[0], weight, inner_iters)
    finally:  # no worker may still write into x once this returns
        for fut in futures:
            fut.exception()
    for fut in futures:
        fut.result()


def tv_denoise(x, weight, inner_iters=TV_INNER_ITERS):
    """Per-frame anisotropic TV denoising; weight 0 returns the input."""
    if weight < 0:
        raise ValueError("TV weight must be nonnegative")
    frames = np.array(getattr(x, "frames", x), dtype=np.float64, order="C")
    if weight > 0 and inner_iters > 0:
        _tv_inplace(frames, weight, inner_iters)
    return VideoCube(frames=frames) if hasattr(x, "frames") else frames


def gap_projection(x, y_plane, masks):
    """One measurement-consistency step: x <- x + M * (y - sum(M x)) / sum(M^2)."""
    phi = masks.masks
    phi_sq_sum = (phi * phi).sum(axis=0)
    denom = np.where(phi_sq_sum == 0.0, ZERO_SUM_GUARD, phi_sq_sum)
    residual = y_plane - (phi * x).sum(axis=0)
    return x + phi * (residual / denom)[None]


def _reconstruct_planes(planes, iters, tv_weight, tv_inner):
    """GAP-TV on a list of (measurement plane, masks) pairs of one shape.

    Each outer iteration projects every plane onto its measurement, then
    denoises all frames of all planes in one TV call.  Returns [P, B, h, w].
    """
    x = np.empty((len(planes),) + planes[0][1].masks.shape)
    for p, (y_plane, masks) in enumerate(planes):
        phi_sum = masks.masks.sum(axis=0)
        denom = np.where(phi_sum == 0.0, ZERO_SUM_GUARD, phi_sum)
        x[p] = masks.masks * (y_plane / denom)[None]  # normalized backprojection start
    for _ in range(iters):
        for p, (y_plane, masks) in enumerate(planes):
            x[p] = gap_projection(x[p], y_plane, masks)
        if tv_weight > 0:
            _tv_inplace(x, tv_weight, tv_inner)
    return x


def gap_tv_reconstruct(y, masks, iters=50, tv_weight=0.05, tv_inner=TV_INNER_ITERS):
    """Alternate exact measurement projection with TV denoising.

    Grayscale measurements return a [B, 1, H, W] cube.  Bayer measurements
    are reconstructed per color sub-plane and reassembled into the mosaic
    domain as a [B, 1, H, W] cube (no demosaicing).
    """
    check_measurement_masks(y, masks)
    if y.color_mode == "gray":
        x = _reconstruct_planes([(y.y, masks)], iters, tv_weight, tv_inner)[0]
        return VideoCube(frames=x[:, None])
    subs = bayer_split(y, masks)
    recon = dict(zip(subs, _reconstruct_planes(
        [(sub_y.y, sub_m) for sub_y, sub_m in subs.values()], iters, tv_weight, tv_inner)))
    frames = np.stack([bayer_merge({k: recon[k][m] for k in recon}) for m in range(y.b)])
    return VideoCube(frames=frames[:, None])
