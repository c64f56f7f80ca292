"""Independent reference implementations used as test oracles.

Everything here is deliberately written as plain nested loops or direct
scalar formulas, sharing no code with the library paths it checks.
"""

import math

import numpy as np

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
