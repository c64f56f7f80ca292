"""Correctness checks of the benchmark, computed apart from ``scivid``.

Each check raises ``CheckFailed`` with a reason, or returns quietly.  They
take plain arrays so that the self-test can hand them corrupted outputs.
The point references follow the loop definitions in ``tests/naive_ref.py``:
direct float64 dot products over each sampled output's input window.
"""

from __future__ import annotations

import math
import os
import re

import numpy as np

# A float32 dot product of K terms is off by at most about K * eps times the
# sum of the terms' magnitudes; blocked BLAS sums stay far below that (the
# worst seen over variant-T convs, K up to 3456, was 2e-7).
CONV_RTOL = 1e-4
PSNR_CAP = 100.0


class CheckFailed(AssertionError):
    """An output of the program disagrees with the benchmark's reference."""


def require(condition, reason):
    if not condition:
        raise CheckFailed(reason)


# -- quality ----------------------------------------------------------------

def psnr_db(pred, truth, cap=PSNR_CAP):
    """Mean over frames (axis 0) of PSNR in dB, both clipped to [0, 1]."""
    a = np.clip(np.asarray(pred, dtype=np.float64), 0.0, 1.0)
    b = np.clip(np.asarray(truth, dtype=np.float64), 0.0, 1.0)
    require(a.shape == b.shape, f"PSNR shape mismatch {a.shape} vs {b.shape}")
    mse = ((a - b) ** 2).reshape(a.shape[0], -1).mean(axis=1)
    with np.errstate(divide="ignore"):
        per_frame = np.where(mse == 0.0, cap, np.minimum(10.0 * np.log10(1.0 / mse), cap))
    return float(per_frame.mean())


def check_psnr_agrees(own_db, program_db, tol=1e-9):
    require(abs(own_db - program_db) <= tol,
            f"metrics.psnr {program_db!r} dB differs from reference {own_db!r} dB")


def check_gain(recon_db, init_db, min_gain_db=5.0):
    require(recon_db - init_db >= min_gain_db,
            f"GAP-TV {recon_db:.3f} dB is not {min_gain_db} dB above the "
            f"initial estimate {init_db:.3f} dB")


def check_projection(y_plane, masks, projected, rtol=1e-9):
    """GAP's projection must make sum_m M_m x_m equal the measurement."""
    resimulated = np.einsum("bhw,bhw->hw", masks, projected)
    err = np.abs(resimulated - y_plane)
    require(np.all(err <= rtol * (1.0 + np.abs(y_plane))),
            f"projection misses the measurement by up to {err.max():.3e}")


# -- network outputs ------------------------------------------------------------

def check_video(frames, shape):
    frames = np.asarray(frames)
    require(frames.shape == tuple(shape), f"output shape {frames.shape} != {tuple(shape)}")
    require(bool(np.all(np.isfinite(frames))), "output has non-finite values")


def check_multiplies(counted, expected):
    require(counted == expected,
            f"executed conv/matmul multiplies {counted} != network_flops {expected}")


def check_loss_trend(losses, last):
    """Training loss stays finite and falls below the first step's loss."""
    require(all(math.isfinite(v) for v in losses), "non-finite training loss")
    if len(losses) > last:
        tail = float(np.mean(losses[-last:]))
        require(tail < losses[0],
                f"mean of the last {last} losses {tail:.4g} is not below "
                f"the first step's loss {losses[0]:.4g}")


def check_directional(analytic, finite_diff, rtol=1e-5):
    """Reverse-mode directional derivative vs a central finite difference."""
    scale = max(abs(analytic), abs(finite_diff), 1e-12)
    require(abs(analytic - finite_diff) <= rtol * scale,
            f"directional derivative {analytic:.10e} from backward disagrees "
            f"with finite difference {finite_diff:.10e}")


def _window(x, starts, kernel):
    """Zero-padded input window x[:, s:s+k, ...] for one output position."""
    cin = x.shape[0]
    win = np.zeros((cin,) + tuple(kernel))
    src, dst = [slice(None)], [slice(None)]
    for s, k, extent in zip(starts, kernel, x.shape[1:]):
        lo, hi = max(s, 0), min(s + k, extent)
        if lo >= hi:
            return win
        src.append(slice(lo, hi))
        dst.append(slice(lo - s, hi - s))
    win[tuple(dst)] = x[tuple(src)]
    return win


def check_conv_points(x, w, b, out, stride, padding, points):
    """Recompute ``out`` at ``points`` [(n, co, *spatial)] in float64.

    Covers conv2d ([N, C, H, W]) and conv3d ([N, C, T, H, W]) alike.
    """
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    kernel = w.shape[2:]
    for point in points:
        n, co, pos = point[0], point[1], point[2:]
        starts = [p * s - pad for p, s, pad in zip(pos, stride, padding)]
        terms = _window(x[n], starts, kernel) * w[co]
        ref = terms.sum() + (float(b[co]) if b is not None else 0.0)
        got = float(out[(n, co) + tuple(pos)])
        tol = CONV_RTOL * (np.abs(terms).sum() + abs(ref)) + 1e-30
        require(abs(got - ref) <= tol,
                f"conv output at {tuple(point)} is {got:.7g}, reference {ref:.7g}")


def conv_points(rng, out_shape, per_frame_axis):
    """One sampled output position per index of ``per_frame_axis``."""
    points = []
    for f in range(out_shape[per_frame_axis]):
        point = [int(rng.integers(0, e)) for e in out_shape]
        point[per_frame_axis] = f
        points.append(tuple(point))
    return points


def _gamma(k):
    """Twice the worst-case relative error of a float32 sum of k products."""
    return 2.0 * k * 2.0 ** -24


def attention_reference(x_tc, wq, wk, wv, wp, heads):
    """Temporal attention at one pixel: x [T, c] -> [T, c/2], in float64.

    Returns the reference and a first-order bound on a float32 evaluation's
    error: each product's worst-case rounding carried through the logits,
    the softmax (a logit error of at most e moves each weight by a factor
    within exp(+-2e)) and both value products.  Where activations are so
    large that the logits are ill-conditioned, the bound grows to the size
    of the values and that pixel no longer constrains the output.
    """
    x = np.asarray(x_tc, dtype=np.float64)
    t, c = x.shape
    ax = np.abs(x)
    q, k, v = x @ wq, x @ wk, x @ wv
    dq, dk, dv = (_gamma(c) * (ax @ np.abs(w)) for w in (wq, wk, wv))
    d = q.shape[1] // heads
    scale = 1.0 / math.sqrt(d)
    outs, errs = [], []
    for h in range(heads):
        sl = slice(h * d, (h + 1) * d)
        qh, kh, vh = q[:, sl], k[:, sl], v[:, sl]
        logits = qh @ kh.T * scale
        dlogits = scale * (dq[:, sl] @ np.abs(kh).T + np.abs(qh) @ dk[:, sl].T
                           + _gamma(d + 1) * (np.abs(qh) @ np.abs(kh).T))
        attn = np.exp(logits - logits.max(axis=1, keepdims=True))
        attn /= attn.sum(axis=1, keepdims=True)
        spread = np.minimum(2.0 * dlogits.max(axis=1, keepdims=True), 50.0)
        dattn = np.minimum(attn * (np.expm1(spread) + _gamma(t + 4)), 1.0)
        outs.append(attn @ vh)
        errs.append(dattn @ np.abs(vh) + attn @ dv[:, sl] + _gamma(t) * (attn @ np.abs(vh)))
    merged, dmerged = np.concatenate(outs, axis=1), np.concatenate(errs, axis=1)
    bound = dmerged @ np.abs(wp) + _gamma(merged.shape[1]) * (np.abs(merged) @ np.abs(wp))
    return merged @ wp, bound


def check_attention_points(x, weights, heads, out, pixels):
    """TSAB output [T, c/2, H, W] at each (i, j) in ``pixels``, all frames."""
    wq, wk, wv, wp = (np.asarray(a, dtype=np.float64) for a in weights)
    for i, j in pixels:
        ref, bound = attention_reference(x[:, :, i, j], wq, wk, wv, wp, heads)
        err = np.abs(np.asarray(out[:, :, i, j], dtype=np.float64) - ref)
        require(bool(np.all(err <= 2.0 * bound + 1e-30)),
                f"attention output at pixel ({i}, {j}) differs from reference "
                f"by up to {err.max():.3e} (float32 bound {bound.max():.3e})")


# -- files written by the CLI ------------------------------------------------------

_EVAL_MEAN = re.compile(r"^mean\s+(\S+)\s+(\S+)\s*$", re.MULTILINE)


def eval_mean_psnr(text):
    """Mean PSNR from the table ``scivid eval`` prints."""
    match = _EVAL_MEAN.search(text)
    require(match is not None, "no 'mean' row in eval output")
    return float(match.group(1))


def check_printed_psnr(printed_db, own_db, decimals=4):
    require(abs(printed_db - own_db) <= 0.5 * 10.0 ** -decimals + 1e-9,
            f"eval printed {printed_db} dB, reference PSNR is {own_db:.6f} dB")


def check_exit_codes(codes):
    require(all(code == 0 for code in codes.values()),
            f"non-zero exit codes: { {k: c for k, c in codes.items() if c != 0} }")


def check_same_bits(got, expected, what):
    got, expected = np.asarray(got), np.asarray(expected)
    require(got.dtype == expected.dtype and got.shape == expected.shape
            and got.tobytes() == expected.tobytes(),
            f"{what} differs from the in-process result")


def check_exported_frames(directory, frames_shape):
    """One P5 (gray) or P6 (color) file per frame, sized like the video."""
    b, c, h, w = frames_shape
    names = sorted(os.listdir(directory))
    require(len(names) == b, f"{len(names)} exported frames, expected {b}")
    magic = b"P5" if c == 1 else b"P6"
    header = magic + f"\n{w} {h}\n255\n".encode("ascii")
    for name in names:
        with open(os.path.join(directory, name), "rb") as fh:
            data = fh.read()
        require(data.startswith(header), f"{name}: header {data[:16]!r} != {header!r}")
        require(len(data) == len(header) + h * w * (1 if c == 1 else 3),
                f"{name}: payload of {len(data) - len(header)} bytes")
