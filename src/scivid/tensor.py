"""Dense tensor engine with reverse-mode automatic differentiation.

Values live in numpy arrays (float32 by default, float64 for gradient
checking). Recording is implicit: every operator links its output back to
its inputs, and ``backward`` replays adjoints in reverse topological
order.  Tensors that take part in a recorded graph must not be mutated in
place afterwards.

Convolution has one kernel: ``conv2d`` is ``conv3d`` with T = kt = 1.  The
forward builds im2col columns one tile at a time (one batch item and a
block of output frames, under the ``_TILE_BYTES`` budget) and runs one
GEMM per tile; a 1x1x1 stride-1 conv uses the input itself as its columns,
a plain channel matmul.  Backward rebuilds each tile's columns for the
weight gradient instead of keeping them on the graph, and scatter-adds
``W^T @ G`` back into the input gradient (col2im).
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field

import numpy as np

DEFAULT_DTYPE = np.float32
LEAKY_SLOPE = 0.01

# Byte budget of one tile's im2col columns: bounds a conv's working memory
# at any input size.
_TILE_BYTES = 64 << 20

_grad_enabled = True
_active_counter = None


class ShapeError(ValueError):
    """Raised when operator input extents are inconsistent."""


def set_default_dtype(dtype):
    global DEFAULT_DTYPE
    dtype = np.dtype(dtype)
    if dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise ValueError(f"unsupported default dtype {dtype}")
    DEFAULT_DTYPE = dtype.type


def get_default_dtype():
    return DEFAULT_DTYPE


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


def _accumulate(t, g):
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += g.astype(t.data.dtype, copy=False)


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
    x = _as_tensor(x)
    mask = x.data > 0
    data = np.where(mask, x.data, slope * x.data)

    def backward_fn(g):
        _accumulate(x, np.where(mask, g, slope * g))

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
        lo, hi = offset, offset + size
        offset = hi
        idx = [slice(None)] * x.ndim
        idx[axis] = slice(lo, hi)
        piece = x.data[tuple(idx)]

        def backward_fn(g, lo=lo, hi=hi):
            full = np.zeros_like(x.data)
            idx2 = [slice(None)] * x.ndim
            idx2[axis] = slice(lo, hi)
            full[tuple(idx2)] = g
            _accumulate(x, full)

        outs.append(_make(piece.copy(), (x,), backward_fn))
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


def _taps(kernel, stride, t0, t1, ho, wo):
    """Each kernel tap (i, j, k) with the slices of the padded input that it
    reads for output frames t0:t1."""
    st, sh, sw = stride
    for i, j, k in np.ndindex(*kernel):
        yield (i, j, k), (slice(i + st * t0, i + st * (t1 - 1) + 1, st),
                          slice(j, j + sh * (ho - 1) + 1, sh),
                          slice(k, k + sw * (wo - 1) + 1, sw))


def _im2col(xp, item, t0, t1, kernel, stride, ho, wo):
    """Columns [cin*kt*kh*kw, (t1-t0)*ho*wo] of one tile; rows in weight order."""
    cin = xp.shape[1]
    if kernel == (1, 1, 1) and stride == (1, 1, 1):
        return xp[item, :, t0:t1].reshape(cin, -1)  # a channel matmul: no copy
    cols = np.empty((cin,) + kernel + (t1 - t0, ho, wo), dtype=xp.dtype)
    for tap, win in _taps(kernel, stride, t0, t1, ho, wo):
        cols[(slice(None),) + tap] = xp[(item, slice(None)) + win]
    return cols.reshape(-1, (t1 - t0) * ho * wo)


def _col2im(gxp, dcols, item, t0, t1, kernel, stride, ho, wo):
    """Scatter-add one tile's column gradients into the padded input gradient."""
    dcols = dcols.reshape((gxp.shape[1],) + kernel + (t1 - t0, ho, wo))
    for tap, win in _taps(kernel, stride, t0, t1, ho, wo):
        gxp[(item, slice(None)) + win] += dcols[(slice(None),) + tap]


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
    xp = x.data.reshape((n, cin) + in_ext)
    if any(padding):
        xp = np.pad(xp, ((0, 0), (0, 0)) + tuple((p, p) for p in padding))
    w2 = w.data.reshape(cout, -1)
    _count(label, n * cout * to * ho * wo * w2.shape[1])
    dtype = np.result_type(xp, w2)
    # tiles: one batch item and a block of output frames whose columns fit
    step = max(1, _TILE_BYTES // (w2.shape[1] * ho * wo * dtype.itemsize))
    tiles = [(i, t0, min(t0 + step, to)) for i in range(n) for t0 in range(0, to, step)]
    out = np.empty((n, cout) + out_ext, dtype=dtype)
    for item, t0, t1 in tiles:
        cols = _im2col(xp, item, t0, t1, kernel, stride, ho, wo)
        out[item, :, t0:t1] = (w2 @ cols).reshape(cout, t1 - t0, ho, wo)
    if b is not None:
        out += b.data.reshape(cout, 1, 1, 1)
    parents = (x, w) if b is None else (x, w, b)

    def backward_fn(g):
        g = g.reshape(out.shape)
        if b is not None and b.requires_grad:
            _accumulate(b, g.sum(axis=(0, 2, 3, 4)))
        gw = np.zeros_like(w2) if w.requires_grad else None
        gxp = np.zeros(xp.shape, dtype=dtype) if x.requires_grad else None
        for item, t0, t1 in tiles:
            gt = g[item, :, t0:t1].reshape(cout, -1)
            if gw is not None:
                gw += gt @ _im2col(xp, item, t0, t1, kernel, stride, ho, wo).T
            if gxp is not None:
                _col2im(gxp, w2.T @ gt, item, t0, t1, kernel, stride, ho, wo)
        if gw is not None:
            _accumulate(w, gw.reshape(w.shape))
        if gxp is not None:
            crop = tuple(slice(p, p + e) for e, p in zip(in_ext, padding))
            _accumulate(x, gxp[(Ellipsis,) + crop].reshape(x.shape))

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


def backward(loss):
    """Populate ``grad`` on every requires_grad tensor reachable from ``loss``."""
    if loss.size != 1:
        raise ShapeError(f"backward expects a scalar loss, got shape {loss.shape}")
    order = _topo_order(loss)
    for node in order:
        node.grad = None
    loss.grad = np.ones_like(loss.data)
    for node in reversed(order):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)


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
