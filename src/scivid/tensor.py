"""Dense tensor engine with reverse-mode automatic differentiation.

Values live in numpy arrays (float32 by default, float64 for gradient
checking). Recording is implicit: every operator links its output back to
its inputs, and ``backward`` replays adjoints in reverse topological
order.  Tensors that take part in a recorded graph must not be mutated in
place afterwards.

``backward`` consumes the graph it runs: as soon as an op output's adjoint
has run, that output drops its gradient, its adjoint and its links to its
inputs, so each activation is freed once the last adjoint that reads it has
run.  Leaves (tensors made directly, such as parameters) keep their
``grad``.  A graph can be differentiated once; a second ``backward`` through
any of its op outputs raises ``RuntimeError``.

Convolution has one kernel: ``conv2d`` is ``conv3d`` with T = kt = 1.  The
forward builds im2col columns one tile at a time and runs one GEMM per
tile, writing straight into the output.  A forward tile is one batch item
and as many whole output frames as fit the cache-sized ``_COL_BYTES``
budget, or a block of output rows of one frame when a single frame's
columns exceed it.  Columns are read straight from the unpadded input: each
kernel tap copies the slice clipped to the valid range, and only the strips
that fall in the padding are zeroed, so no padded copy of the input is
made.  A 1x1x1 stride-1 conv uses the input itself as its columns, a plain
channel matmul.  Backward uses blocks of whole frames under the larger
``_TILE_BYTES`` budget (the weight gradient's rounding depends on them),
rebuilds each tile's columns for the weight gradient instead of keeping
them on the graph, and scatter-adds ``W^T @ G`` straight into the unpadded
input gradient (col2im).  At the network's shapes (output widths that are
multiples of 16) a GEMM column's result does not depend on the other
columns of its tile, so outputs are the same bits whatever the forward
budget.
"""

from __future__ import annotations

import contextlib
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

DEFAULT_DTYPE = np.float32
LEAKY_SLOPE = 0.01

# Byte budget of one forward tile's im2col columns: cache-sized, so that a
# conv's working memory stays small at any input size.
_COL_BYTES = 8 << 20
# Byte budget of one backward tile's columns.  The weight gradient sums over
# these tiles, so they set its rounding.
_TILE_BYTES = 64 << 20

_grad_enabled = True
_active_counter = None


class ShapeError(ValueError):
    """Raised when operator input extents are inconsistent."""


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the block (inference mode)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class MultiplyCounter:
    """Mechanical multiply counter, attributed per executed operation."""

    def __init__(self):
        self.events = []

    def add(self, label, count):
        self.events.append((label, int(count)))

    def total(self, prefix=None):
        return sum(n for lbl, n in self.events
                   if prefix is None or lbl.startswith(prefix))

    def largest(self, prefix=None):
        matching = [n for lbl, n in self.events
                    if prefix is None or lbl.startswith(prefix)]
        return max(matching) if matching else 0


@contextlib.contextmanager
def count_multiplies():
    global _active_counter
    prev = _active_counter
    counter = MultiplyCounter()
    _active_counter = counter
    try:
        yield counter
    finally:
        _active_counter = prev


def _count(label, n):
    if _active_counter is not None:
        _active_counter.add(label, n)


class Tensor:
    """N-dimensional array with an optional gradient record."""

    __slots__ = ("data", "grad", "requires_grad", "name", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, dtype=None, name=None):
        if isinstance(data, Tensor):
            data = data.data
        arr = np.asarray(data, dtype=dtype if dtype is not None else None)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(dtype if dtype is not None else DEFAULT_DTYPE)
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self.name = name
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self):
        return float(self.data.reshape(()))

    def numpy(self):
        return self.data

    def astype(self, dtype):
        t = Tensor(self.data.astype(dtype), requires_grad=self.requires_grad,
                   name=self.name)
        return t

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"

    # -- arithmetic sugar ------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def reshape(self, *shape):
        return reshape(self, *shape)

    def permute(self, *axes):
        return permute(self, *axes)

    def sum(self, axis=None):
        return tsum(self, axis=axis)

    def mean(self, axis=None):
        return tmean(self, axis=axis)


def _as_tensor(x, like=None):
    if isinstance(x, Tensor):
        return x
    dtype = like.data.dtype if like is not None else DEFAULT_DTYPE
    return Tensor(np.asarray(x, dtype=dtype))


def _make(data, parents, backward_fn):
    """Build an op output, recording parents when autograd is active."""
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward_fn
    return out


def _unbroadcast(grad, shape):
    """Reduce ``grad`` back to ``shape`` after numpy broadcasting."""
    shape = tuple(shape)
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _accumulate(t, g, at=None):
    """Add ``g`` into ``t.grad``, or into the region ``t.grad[at]``."""
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    grad = t.grad if at is None else t.grad[at]
    grad += g.astype(t.data.dtype, copy=False)


# -- elementwise ---------------------------------------------------------

def add(a, b):
    a, b = _as_tensor(a, b if isinstance(b, Tensor) else None), _as_tensor(b, a if isinstance(a, Tensor) else None)
    data = a.data + b.data

    def backward_fn(g):
        _accumulate(a, _unbroadcast(g, a.shape))
        _accumulate(b, _unbroadcast(g, b.shape))

    return _make(data, (a, b), backward_fn)


def sub(a, b):
    a, b = _as_tensor(a, b if isinstance(b, Tensor) else None), _as_tensor(b, a if isinstance(a, Tensor) else None)
    data = a.data - b.data

    def backward_fn(g):
        _accumulate(a, _unbroadcast(g, a.shape))
        _accumulate(b, _unbroadcast(-g, b.shape))

    return _make(data, (a, b), backward_fn)


def mul(a, b):
    a, b = _as_tensor(a, b if isinstance(b, Tensor) else None), _as_tensor(b, a if isinstance(a, Tensor) else None)
    data = a.data * b.data
    _count("mul", data.size)

    def backward_fn(g):
        _accumulate(a, _unbroadcast(g * b.data, a.shape))
        _accumulate(b, _unbroadcast(g * a.data, b.shape))

    return _make(data, (a, b), backward_fn)


def div(a, b):
    a, b = _as_tensor(a, b if isinstance(b, Tensor) else None), _as_tensor(b, a if isinstance(a, Tensor) else None)
    data = a.data / b.data
    _count("div", data.size)

    def backward_fn(g):
        _accumulate(a, _unbroadcast(g / b.data, a.shape))
        _accumulate(b, _unbroadcast(-g * a.data / (b.data * b.data), b.shape))

    return _make(data, (a, b), backward_fn)


def leaky_relu(x, slope=LEAKY_SLOPE):
    """``max(x, slope * x)``, for 0 <= slope <= 1, in one buffer.

    No mask is kept: backward rebuilds ``x > 0`` from the input, which graph
    tensors never change.
    """
    x = _as_tensor(x)
    data = np.multiply(x.data, slope)
    np.maximum(data, x.data, out=data)

    def backward_fn(g):
        _accumulate(x, np.where(x.data > 0, g, slope * g))

    return _make(data, (x,), backward_fn)


# -- shape manipulation ---------------------------------------------------

def reshape(x, *shape):
    x = _as_tensor(x)
    if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
        shape = tuple(shape[0])
    old = x.shape
    data = x.data.reshape(shape)

    def backward_fn(g):
        _accumulate(x, g.reshape(old))

    return _make(data, (x,), backward_fn)


def permute(x, *axes):
    x = _as_tensor(x)
    if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
        axes = tuple(axes[0])
    inverse = np.argsort(axes)
    data = x.data.transpose(axes)

    def backward_fn(g):
        _accumulate(x, g.transpose(inverse))

    return _make(data, (x,), backward_fn)


def concat(tensors, axis=0):
    tensors = [_as_tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward_fn(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(lo, hi)
            _accumulate(t, g[tuple(idx)])

    return _make(data, tuple(tensors), backward_fn)


def pad(x, widths):
    """Zero-pad by ``widths``, one (before, after) pair per axis, in one copy."""
    x = _as_tensor(x)
    inner = tuple(slice(lo, lo + e) for (lo, _), e in zip(widths, x.shape))
    data = np.zeros(tuple(lo + e + hi for (lo, hi), e in zip(widths, x.shape)),
                    dtype=x.data.dtype)
    data[inner] = x.data

    def backward_fn(g):
        _accumulate(x, g[inner])

    return _make(data, (x,), backward_fn)


def split(x, parts, axis=0):
    """Split along ``axis`` into equal parts (int) or given sizes (list)."""
    x = _as_tensor(x)
    extent = x.shape[axis]
    if isinstance(parts, int):
        if extent % parts != 0:
            raise ShapeError(f"axis extent {extent} not divisible into {parts} parts")
        sizes = [extent // parts] * parts
    else:
        sizes = list(parts)
        if sum(sizes) != extent:
            raise ShapeError(f"split sizes {sizes} do not sum to extent {extent}")
    outs = []
    offset = 0
    for size in sizes:
        idx = [slice(None)] * x.ndim
        idx[axis] = slice(offset, offset + size)
        idx = tuple(idx)
        offset += size

        def backward_fn(g, idx=idx):
            _accumulate(x, g, at=idx)

        outs.append(_make(x.data[idx], (x,), backward_fn))  # a view: graph tensors are never mutated
    return outs


# -- reductions -----------------------------------------------------------

def tsum(x, axis=None):
    x = _as_tensor(x)
    data = x.data.sum(axis=axis)

    def backward_fn(g):
        if axis is None:
            _accumulate(x, np.broadcast_to(g, x.shape).copy())
        else:
            g_exp = np.expand_dims(g, axis)
            _accumulate(x, np.broadcast_to(g_exp, x.shape).copy())

    return _make(data, (x,), backward_fn)


def tmean(x, axis=None):
    x = _as_tensor(x)
    count = x.size if axis is None else x.shape[axis]
    return mul(tsum(x, axis=axis), 1.0 / count)


# canonical alias; the t-prefixed name avoids shadowing the builtin
mean = tmean


# -- linear algebra -------------------------------------------------------

def matmul(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError("matmul requires tensors with at least 2 dimensions")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner extents differ: {a.shape} vs {b.shape}")
    data = np.matmul(a.data, b.data)
    n, k, m = a.shape[-2], a.shape[-1], b.shape[-1]
    batch = int(np.prod(data.shape[:-2], dtype=np.int64)) if data.ndim > 2 else 1
    _count("matmul", batch * n * k * m)

    def backward_fn(g):
        _accumulate(a, _unbroadcast(np.matmul(g, np.swapaxes(b.data, -1, -2)), a.shape))
        _accumulate(b, _unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g), b.shape))

    return _make(data, (a, b), backward_fn)


def softmax_lastdim(x):
    """Numerically stabilized softmax over the trailing axis."""
    x = _as_tensor(x)
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    data = exp / exp.sum(axis=-1, keepdims=True)
    _count("softmax.div", data.size)

    def backward_fn(g):
        dot = (g * data).sum(axis=-1, keepdims=True)
        _accumulate(x, data * (g - dot))

    return _make(data, (x,), backward_fn)


# -- convolution ----------------------------------------------------------

def _conv_check(in_extent, k, pad, stride, axis_name):
    span = in_extent + 2 * pad - k
    if span < 0:
        raise ShapeError(
            f"kernel extent {k} exceeds padded input extent {in_extent + 2 * pad} on axis {axis_name}")
    if span % stride != 0:
        raise ShapeError(
            f"non-integral output extent on axis {axis_name}: "
            f"({in_extent} + 2*{pad} - {k}) not divisible by stride {stride}")
    return span // stride + 1


def _axis_clips(k, stride, pad, extent, a0, a1):
    """Per kernel offset on one axis, for the output range [a0, a1): the
    slice of the unpadded input it reads (None if it reads only padding),
    the positions it fills, and the strips where its input is padding."""
    clips = []
    for i in range(k):
        lo = min(max(a0, -((i - pad) // stride)), a1)
        hi = max(lo, min(a1, (extent - 1 + pad - i) // stride + 1))
        start = lo * stride + i - pad
        src = slice(start, start + (hi - lo - 1) * stride + 1, stride) if hi > lo else None
        strips = [s for s in (slice(0, lo - a0), slice(hi - a0, a1 - a0)) if s.stop > s.start]
        clips.append((src, slice(lo - a0, hi - a0), strips))
    return clips


def _plans(kernel, stride, padding, in_ext, out_ext, blocks):
    """How to build the columns of each output block (t0, t1, r0, r1).

    A plan is the block, the column strips to zero and the (column, input)
    index pairs to copy, one pair per kernel tap that reads real input.
    Each axis range is clipped once, however many blocks share it.
    """
    memo = {}

    def clips(axis, a0, a1):
        if (axis, a0, a1) not in memo:
            memo[axis, a0, a1] = _axis_clips(kernel[axis], stride[axis], padding[axis],
                                             in_ext[axis], a0, a1)
        return memo[axis, a0, a1]

    plans = []
    for t0, t1, r0, r1 in blocks:
        per_axis = (clips(0, t0, t1), clips(1, r0, r1), clips(2, 0, out_ext[2]))
        strips = []
        for axis, axis_clips in enumerate(per_axis):
            for i, (_, _, pads) in enumerate(axis_clips):
                for strip in pads:
                    idx = [slice(None)] * 7
                    idx[1 + axis], idx[4 + axis] = i, strip
                    strips.append(tuple(idx))
        copies = [((slice(None), i, j, k, dt, dh, dw), (slice(None), st, sh, sw))
                  for (i, (st, dt, _)), (j, (sh, dh, _)), (k, (sw, dw, _))
                  in itertools.product(*(enumerate(c) for c in per_axis))
                  if st is not None and sh is not None and sw is not None]
        plans.append(((t0, t1, r0, r1), strips, copies))
    return plans


def _even(extent, step):
    """A step at most ``step`` that cuts ``extent`` into as few blocks as
    ``step`` does, of nearly equal size: a small last block would make a
    GEMM small enough for the BLAS to round it another way."""
    return -(-extent // -(-extent // step))


def _blocks(to, ho, t_step, r_step):
    """Output blocks (t0, t1, r0, r1) of ``t_step`` frames by ``r_step`` rows."""
    return [(t0, min(t0 + t_step, to), r0, min(r0 + r_step, ho))
            for t0 in range(0, to, t_step) for r0 in range(0, ho, r_step)]


def _im2col(x, item, plan, kernel, wo):
    """Columns [cin*kt*kh*kw, frames*rows*wo] of one tile, read straight from
    the unpadded input [N, Cin, T, H, W]; rows in weight order."""
    (t0, t1, r0, r1), strips, copies = plan
    cols = np.empty((x.shape[1],) + kernel + (t1 - t0, r1 - r0, wo), dtype=x.dtype)
    for idx in strips:
        cols[idx] = 0
    xi = x[item]
    for dst, src in copies:
        cols[dst] = xi[src]
    return cols.reshape(-1, (t1 - t0) * (r1 - r0) * wo)


def _col2im(gx, dcols, item, plan, kernel, wo):
    """Scatter-add one tile's column gradients into the unpadded input
    gradient; entries that fall in the padding are dropped."""
    (t0, t1, r0, r1), _, copies = plan
    dcols = dcols.reshape((gx.shape[1],) + kernel + (t1 - t0, r1 - r0, wo))
    gi = gx[item]
    for dst, src in copies:
        gi[src] += dcols[dst]


def _conv(label, x, w, b, stride, padding):
    """Cross-correlation body shared by :func:`conv2d` and :func:`conv3d`.

    Both run as a 3-D conv over [N, Cin, T, H, W] (conv2d with T = kt = 1):
    each tile's im2col columns feed one GEMM forward and two in backward.
    """
    x, w = _as_tensor(x), _as_tensor(w)
    nd = 5 if label == "conv3d" else 4
    if x.ndim != nd or w.ndim != nd:
        raise ShapeError(f"{label} expects {nd}-D input and weight, got {x.shape} and {w.shape}")
    n, cin = x.shape[:2]
    cout, cin_w = w.shape[:2]
    if cin != cin_w:
        raise ShapeError(f"{label} channel mismatch: input has {cin}, weight expects {cin_w}")
    if b is not None:
        b = _as_tensor(b)
        if b.shape != (cout,):
            raise ShapeError(f"{label} bias shape {b.shape} != ({cout},)")
    lift = (1,) * (5 - nd)
    in_ext = lift + x.shape[2:]
    kernel = lift + w.shape[2:]
    stride = lift + tuple(stride)
    padding = (0,) * (5 - nd) + tuple(padding)
    out_ext = tuple(_conv_check(e, k, p, s, a) for e, k, p, s, a
                    in zip(in_ext, kernel, padding, stride, "THW"))
    to, ho, wo = out_ext
    xv = x.data.reshape((n, cin) + in_ext)
    w2 = w.data.reshape(cout, -1)
    _count(label, n * cout * to * ho * wo * w2.shape[1])
    dtype = np.result_type(xv, w2)
    # a 1x1x1 stride-1 conv is a channel matmul: the input is its own columns
    channel_matmul = kernel == (1, 1, 1) and stride == (1, 1, 1) and not any(padding)

    def tiles(blocks):
        plans = _plans(kernel, stride, padding, in_ext, out_ext, blocks)
        return [(item, plan) for item in range(n) for plan in plans]

    def columns(item, plan):
        if channel_matmul:
            t0, t1, r0, r1 = plan[0]
            return xv[item, :, t0:t1, r0:r1].reshape(cin, -1)  # no copy if contiguous
        return _im2col(xv, item, plan, kernel, wo)

    # forward tiles: whole frames under the cache-sized _COL_BYTES budget, or
    # blocks of output rows when one frame's columns exceed it
    row_bytes = w2.shape[1] * wo * xv.dtype.itemsize
    if ho * row_bytes <= _COL_BYTES:
        blocks = _blocks(to, ho, _even(to, _COL_BYTES // (ho * row_bytes)), ho)
    else:
        blocks = _blocks(to, ho, 1, _even(ho, max(1, _COL_BYTES // row_bytes)))
    out = np.empty((n, cout) + out_ext, dtype=dtype)
    out_cols = out.reshape(n, cout, -1)  # a block's outputs are one column range
    for item, plan in tiles(blocks):
        t0, t1, r0, r1 = plan[0]
        np.matmul(w2, columns(item, plan),
                  out=out_cols[item, :, (t0 * ho + r0) * wo:((t1 - 1) * ho + r1) * wo])
    if b is not None:
        out += b.data.reshape(cout, 1, 1, 1)
    parents = (x, w) if b is None else (x, w, b)

    def backward_fn(g):
        g = g.reshape(out.shape)
        if b is not None and b.requires_grad:
            _accumulate(b, g.sum(axis=(0, 2, 3, 4)))
        gw = np.zeros_like(w2) if w.requires_grad else None
        gx = np.zeros(xv.shape, dtype=dtype) if x.requires_grad else None
        # backward tiles: blocks of frames under _TILE_BYTES, as the weight
        # gradient's rounding depends on them
        step = max(1, _TILE_BYTES // (w2.shape[1] * ho * wo * dtype.itemsize))
        for item, plan in tiles(_blocks(to, ho, step, ho)):
            t0, t1 = plan[0][:2]
            gt = g[item, :, t0:t1].reshape(cout, -1)
            if gw is not None:
                gw += gt @ columns(item, plan).T
            if gx is not None:
                _col2im(gx, w2.T @ gt, item, plan, kernel, wo)
        if gw is not None:
            _accumulate(w, gw.reshape(w.shape))
        if gx is not None:
            _accumulate(x, gx.reshape(x.shape))

    return _make(out.reshape((n, cout) + out_ext[5 - nd:]), parents, backward_fn)


def conv2d(x, w, b=None, stride=(1, 1), padding=(0, 0)):
    """2-D cross-correlation over [N, Cin, H, W] with zero padding."""
    return _conv("conv2d", x, w, b, stride, padding)


def conv3d(x, w, b=None, stride=(1, 1, 1), padding=(0, 0, 0)):
    """3-D cross-correlation over [N, Cin, T, H, W] with zero padding."""
    return _conv("conv3d", x, w, b, stride, padding)


# -- pixel shuffle --------------------------------------------------------

def pixel_shuffle2d(x, r):
    """Rearrange [N, C*r*r, T, H, W] -> [N, C, T, r*H, r*W].

    Output (n, c, t, r*h+a, r*w+b) equals input (n, c*r*r + a*r + b, t, h, w).
    """
    x = _as_tensor(x)
    if x.ndim != 5:
        raise ShapeError(f"pixel_shuffle2d expects a 5-D tensor, got {x.shape}")
    n, crr, t, h, wd = x.shape
    if crr % (r * r) != 0:
        raise ShapeError(f"channel extent {crr} not divisible by r*r={r * r}")
    c = crr // (r * r)
    data = (x.data.reshape(n, c, r, r, t, h, wd)
            .transpose(0, 1, 4, 5, 2, 6, 3)
            .reshape(n, c, t, h * r, wd * r))

    def backward_fn(g):
        gx = (g.reshape(n, c, t, h, r, wd, r)
              .transpose(0, 1, 4, 6, 2, 3, 5)
              .reshape(n, crr, t, h, wd))
        _accumulate(x, gx)

    return _make(data, (x,), backward_fn)


def pixel_unshuffle2d(x, r):
    """Inverse of :func:`pixel_shuffle2d`."""
    x = _as_tensor(x)
    if x.ndim != 5:
        raise ShapeError(f"pixel_unshuffle2d expects a 5-D tensor, got {x.shape}")
    n, c, t, hr, wr = x.shape
    if hr % r != 0 or wr % r != 0:
        raise ShapeError(f"spatial extents ({hr},{wr}) not divisible by r={r}")
    h, wd = hr // r, wr // r
    data = (x.data.reshape(n, c, t, h, r, wd, r)
            .transpose(0, 1, 4, 6, 2, 3, 5)
            .reshape(n, c * r * r, t, h, wd))

    def backward_fn(g):
        gx = (g.reshape(n, c, r, r, t, h, wd)
              .transpose(0, 1, 4, 5, 2, 6, 3)
              .reshape(n, c, t, hr, wr))
        _accumulate(x, gx)

    return _make(data, (x,), backward_fn)


# -- backward pass --------------------------------------------------------

def _topo_order(root):
    """Reverse-topological visit order of the recorded op graph."""
    order, visited = [], set()
    stack = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in visited:
                stack.append((parent, False))
    return order


def _consumed(g=None):
    """The adjoint of an op output whose graph ``backward`` has consumed."""
    raise RuntimeError("backward already ran through this graph and freed it; "
                       "build the graph again to differentiate it again")


def backward(loss):
    """Populate ``grad`` on every requires_grad leaf reachable from ``loss``.

    Consumes the graph: each op output drops its ``grad``, adjoint and
    parent links as soon as its adjoint has run.
    """
    if loss.size != 1:
        raise ShapeError(f"backward expects a scalar loss, got shape {loss.shape}")
    order = _topo_order(loss)
    if any(node._backward is _consumed for node in order):
        _consumed()  # before any grad is touched
    for node in order:
        node.grad = None
    loss.grad = np.ones_like(loss.data)
    while order:
        node = order.pop()
        if node._backward is None:
            continue  # a leaf keeps its grad
        if node.grad is not None:
            node._backward(node.grad)
        node.grad, node._backward, node._parents = None, _consumed, ()


# -- gradient checking ----------------------------------------------------

@dataclass
class LeafReport:
    name: str
    max_rel_error: float
    passed: bool
    detail: str = ""


@dataclass
class GradCheckReport:
    leaves: list = field(default_factory=list)

    @property
    def passed(self):
        return all(entry.passed for entry in self.leaves)

    @property
    def max_rel_error(self):
        return max((entry.max_rel_error for entry in self.leaves), default=0.0)

    def __str__(self):
        lines = [f"{'PASS' if e.passed else 'FAIL'} {e.name}: "
                 f"max rel err {e.max_rel_error:.3e} {e.detail}" for e in self.leaves]
        return "\n".join(lines)


def grad_check(f, leaves, eps=1e-5, tol=1e-4):
    """Compare reverse-mode gradients of ``f(*leaves)`` with central differences.

    Leaves must be float64 tensors with requires_grad set.  Relative error
    per leaf is max |g_ad - g_fd| / max(|g_ad|, |g_fd|, 1e-8).
    """
    for leaf in leaves:
        if leaf.data.dtype != np.float64:
            raise ValueError(f"grad_check requires float64 leaves, got {leaf.data.dtype}")
        if not leaf.requires_grad:
            raise ValueError("grad_check leaves must have requires_grad set")

    out = f(*leaves)
    if not np.all(np.isfinite(out.data)):
        report = GradCheckReport()
        report.leaves.append(LeafReport("<output>", math.inf, False, "non-finite forward value"))
        return report
    backward(out)
    analytic = [np.zeros_like(leaf.data) if leaf.grad is None else leaf.grad.copy()
                for leaf in leaves]

    report = GradCheckReport()
    for idx, leaf in enumerate(leaves):
        name = leaf.name or f"leaf{idx}"
        g_ad = analytic[idx]
        worst, detail, ok = 0.0, "", True
        flat = leaf.data.reshape(-1)
        for pos in range(flat.size):
            orig = flat[pos]
            flat[pos] = orig + eps
            hi = f(*leaves).item()
            flat[pos] = orig - eps
            lo = f(*leaves).item()
            flat[pos] = orig
            if not (math.isfinite(hi) and math.isfinite(lo)):
                ok = False
                detail = f"non-finite intermediate at {name}[{pos}]"
                worst = math.inf
                break
            g_fd = (hi - lo) / (2 * eps)
            g_a = g_ad.reshape(-1)[pos]
            rel = abs(g_a - g_fd) / max(abs(g_a), abs(g_fd), 1e-8)
            if rel > worst:
                worst = rel
                detail = f"at flat index {pos}: ad={g_a:.6e} fd={g_fd:.6e}"
        report.leaves.append(LeafReport(name, worst, ok and worst <= tol, detail))
    return report
