"""Independent reference implementations used as test oracles.

Everything here is deliberately written as plain nested loops or direct
scalar formulas, sharing no code with the library paths it checks.  The
autograd oracles at the end are the exception: they run the library's own
adjoints, but keep the whole tape (``backward_keep_tape``) or add full-size
buffers (``split_full_buffers``), so tests can compare the bits.
"""

import math

import numpy as np

from scivid import tensor as tn

# The conv3d geometries of the network, at test sizes:
# name -> (input shape, weight shape, stride, padding).
NETWORK_CONV3D = {
    "stem.conv3": ((1, 2, 3, 5, 5), (2, 2, 3, 3, 3), (1, 2, 2), (1, 0, 0)),
    "stem.conv1": ((1, 1, 3, 4, 5), (2, 1, 3, 7, 7), (1, 1, 1), (1, 3, 3)),
    "1x1x1": ((1, 3, 2, 3, 3), (2, 3, 1, 1, 1), (1, 1, 1), (0, 0, 0)),
    "batch2": ((2, 2, 3, 3, 3), (2, 2, 3, 3, 3), (1, 1, 1), (1, 1, 1)),
}


def conv2d_loops(x, w, b, stride, padding):
    n, cin, h, wd = x.shape
    cout, _, kh, kw = w.shape
    sh, sw = stride
    ph, pw = padding
    ho = (h + 2 * ph - kh) // sh + 1
    wo = (wd + 2 * pw - kw) // sw + 1
    xp = np.zeros((n, cin, h + 2 * ph, wd + 2 * pw), dtype=np.float64)
    xp[:, :, ph:ph + h, pw:pw + wd] = x
    out = np.zeros((n, cout, ho, wo), dtype=np.float64)
    for ni in range(n):
        for co in range(cout):
            for i in range(ho):
                for j in range(wo):
                    acc = 0.0
                    for ci in range(cin):
                        for a in range(kh):
                            for bb in range(kw):
                                acc += xp[ni, ci, i * sh + a, j * sw + bb] * w[co, ci, a, bb]
                    out[ni, co, i, j] = acc + (b[co] if b is not None else 0.0)
    return out


def conv3d_loops(x, w, b, stride, padding):
    n, cin, t, h, wd = x.shape
    cout, _, kt, kh, kw = w.shape
    st, sh, sw = stride
    pt, ph, pw = padding
    to = (t + 2 * pt - kt) // st + 1
    ho = (h + 2 * ph - kh) // sh + 1
    wo = (wd + 2 * pw - kw) // sw + 1
    xp = np.zeros((n, cin, t + 2 * pt, h + 2 * ph, wd + 2 * pw), dtype=np.float64)
    xp[:, :, pt:pt + t, ph:ph + h, pw:pw + wd] = x
    out = np.zeros((n, cout, to, ho, wo), dtype=np.float64)
    for ni in range(n):
        for co in range(cout):
            for u in range(to):
                for i in range(ho):
                    for j in range(wo):
                        acc = 0.0
                        for ci in range(cin):
                            for a in range(kt):
                                for bb in range(kh):
                                    for cc in range(kw):
                                        acc += (xp[ni, ci, u * st + a, i * sh + bb, j * sw + cc]
                                                * w[co, ci, a, bb, cc])
                        out[ni, co, u, i, j] = acc + (b[co] if b is not None else 0.0)
    return out


def pad_top_left_concat(x):
    """[T, c, H, W] -> [T, c, H+1, W+1]: a zero row, then a zero column,
    concatenated at the leading spatial edges."""
    t, c, h, w = x.shape
    x = np.concatenate([np.zeros((t, c, 1, w), dtype=x.dtype), x], axis=2)
    return np.concatenate([np.zeros((t, c, h + 1, 1), dtype=x.dtype), x], axis=3)


def estimation_scalar(y, masks):
    """Per-pixel scalar evaluation of the coarse-estimate formula."""
    b, h, w = masks.shape
    out = np.zeros((b, h, w), dtype=np.float64)
    for i in range(h):
        for j in range(w):
            s = 0.0
            for m in range(b):
                s += masks[m, i, j]
            denom = s if s != 0.0 else 1e-6
            ybar = y[i, j] / denom
            for m in range(b):
                out[m, i, j] = ybar * masks[m, i, j] + ybar
    return out


def psnr_scalar(a, b, peak=1.0, cap=100.0):
    a = np.clip(np.asarray(a, dtype=np.float64), 0, 1)
    b = np.clip(np.asarray(b, dtype=np.float64), 0, 1)
    total = 0.0
    count = 0
    for va, vb in zip(a.reshape(-1), b.reshape(-1)):
        total += (va - vb) ** 2
        count += 1
    mse = total / count
    if mse == 0.0:
        return cap
    return min(10.0 * math.log10(peak * peak / mse), cap)


def ssim_scalar(a, b, window=11, sigma=1.5, k1=0.01, k2=0.03, peak=1.0):
    """Direct per-window SSIM with Gaussian weights, scalar accumulation."""
    a = np.clip(np.asarray(a, dtype=np.float64), 0, 1)
    b = np.clip(np.asarray(b, dtype=np.float64), 0, 1)
    h, w = a.shape
    half = (window - 1) / 2.0
    kern = np.empty((window, window))
    for i in range(window):
        for j in range(window):
            kern[i, j] = math.exp(-((i - half) ** 2 + (j - half) ** 2) / (2 * sigma ** 2))
    kern /= kern.sum()
    c1 = (k1 * peak) ** 2
    c2 = (k2 * peak) ** 2
    vals = []
    for i in range(h - window + 1):
        for j in range(w - window + 1):
            mu_a = mu_b = ea = eb = eab = 0.0
            for u in range(window):
                for v in range(window):
                    wa = a[i + u, j + v]
                    wb = b[i + u, j + v]
                    kk = kern[u, v]
                    mu_a += kk * wa
                    mu_b += kk * wb
                    ea += kk * wa * wa
                    eb += kk * wb * wb
                    eab += kk * wa * wb
            var_a = ea - mu_a ** 2
            var_b = eb - mu_b ** 2
            cov = eab - mu_a * mu_b
            num = (2 * mu_a * mu_b + c1) * (2 * cov + c2)
            den = (mu_a ** 2 + mu_b ** 2 + c1) * (var_a + var_b + c2)
            vals.append(num / den)
    return float(np.mean(vals))


def scb_frame_loops(x, w1, b1, w2, b2, slope=0.01):
    """Per-frame two-conv spatial branch with an elementwise leaky ReLU."""
    frames = []
    for t in range(x.shape[0]):
        mid = conv2d_loops(x[t:t + 1], w1, b1, (1, 1), (1, 1))
        mid = np.where(mid > 0, mid, slope * mid)
        frames.append(conv2d_loops(mid, w2, b2, (1, 1), (1, 1))[0])
    return np.stack(frames)


def grad2d(u):
    """Forward differences of one [H, W] frame, zero in the last row/column."""
    gx = np.zeros_like(u)
    gy = np.zeros_like(u)
    gx[:-1, :] = u[1:, :] - u[:-1, :]
    gy[:, :-1] = u[:, 1:] - u[:, :-1]
    return gx, gy


def div2d(p1, p2):
    """Discrete divergence, the negative adjoint of ``grad2d``."""
    d = np.zeros_like(p1)
    d[0, :] = p1[0, :]
    d[1:-1, :] = p1[1:-1, :] - p1[:-2, :]
    d[-1, :] = -p1[-2, :]
    d2 = np.zeros_like(p2)
    d2[:, 0] = p2[:, 0]
    d2[:, 1:-1] = p2[:, 1:-1] - p2[:, :-2]
    d2[:, -1] = -p2[:, -2]
    return d + d2


def tv_denoise_frame(f, weight, inner_iters):
    """Anisotropic dual TV of one frame (Chambolle 2004): projected gradient
    descent on min_{|p|<=1} ||w div p - f||^2, then u = f - w div p."""
    p1 = np.zeros_like(f)
    p2 = np.zeros_like(f)
    step = 1.0 / (8.0 * weight)
    for _ in range(inner_iters):
        u = f - weight * div2d(p1, p2)
        gx, gy = grad2d(u)
        p1 = np.clip(p1 - step * gx, -1.0, 1.0)
        p2 = np.clip(p2 - step * gy, -1.0, 1.0)
    return f - weight * div2d(p1, p2)


def gap_tv_plane(y_plane, masks, iters, tv_weight, tv_inner, projection):
    """GAP-TV on one measurement plane, one frame of TV at a time.

    ``projection(x, y_plane, masks)`` is the library's measurement step,
    which the tests check separately against the projection property.
    """
    phi = masks.masks
    phi_sum = phi.sum(axis=0)
    denom = np.where(phi_sum == 0.0, 1e-6, phi_sum)
    x = phi * (y_plane / denom)[None]
    for _ in range(iters):
        x = projection(x, y_plane, masks)
        if tv_weight > 0:
            x = np.stack([tv_denoise_frame(fr, tv_weight, tv_inner) for fr in x])
    return x


def bits(a):
    """The raw bits of a float array, so -0 and +0 (and NaN payloads) differ."""
    return a.view(np.dtype(f"u{a.itemsize}"))


def backward_keep_tape(loss):
    """Reverse-mode pass that keeps the whole tape: every node's ``grad``,
    adjoint and parent links stay alive after the pass (the library's
    ``tn.backward`` consumes them).  Same adjoints in the same order."""
    order = tn._topo_order(loss)
    for node in order:
        node.grad = None
    loss.grad = np.ones_like(loss.data)
    for node in reversed(order):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)


def split_full_buffers(x, parts, axis=0):
    """``tn.split`` whose adjoint adds a full-size zero buffer, holding the
    piece's gradient in its slice, into ``x.grad``."""
    x = tn._as_tensor(x)
    sizes = [x.shape[axis] // parts] * parts if isinstance(parts, int) else list(parts)
    outs = []
    offset = 0
    for size in sizes:
        lo, hi = offset, offset + size
        offset = hi
        idx = [slice(None)] * x.ndim
        idx[axis] = slice(lo, hi)

        def backward_fn(g, idx=tuple(idx)):
            full = np.zeros_like(x.data)
            full[idx] = g
            tn._accumulate(x, full)

        outs.append(tn._make(x.data[tuple(idx)], (x,), backward_fn))
    return outs
