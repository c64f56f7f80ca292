"""Spans around the public functions of ``scivid``, for the traced runs.

The tracer patches module attributes that the program looks up at call
time (``tensor.conv3d``, ``network.tsab_forward``, ``cli.gap_tv_reconstruct``
and so on), and the backward function each patched tensor op attaches to
its output.  Every call made while tracing is on becomes a span: name,
layer, call site, start, end and parent.  Spans are kept in memory and
folded into per-layer metrics after each timed operation.

A span's self time is its duration minus the durations of its nearest
descendant spans of the same layer.  So ``network.scb_s`` keeps the conv
time of the spatial branch, while ``tensor.conv2d.fwd_s`` counts the
conv alone.  Time spent in the benchmark's own checks inside a span
(``Tracer.paused``) is taken out of every open span.
"""

from __future__ import annotations

import contextlib
import inspect
import os
import time
from collections import defaultdict

clock = time.perf_counter

# tensor-core function -> op family of the per-layer metrics
TENSOR_FAMILIES = {
    "conv3d": "conv3d", "conv2d": "conv2d",
    "matmul": "matmul", "softmax_lastdim": "softmax",
    "permute": "layout", "reshape": "layout", "concat": "layout", "split": "layout",
    "pixel_shuffle2d": "layout", "pixel_unshuffle2d": "layout",
    "add": "elementwise", "sub": "elementwise", "mul": "elementwise",
    "div": "elementwise", "leaky_relu": "elementwise",
    "tsum": "elementwise", "tmean": "elementwise",
}

# (module, function) -> span name, for every other traced function
NAMED_SPANS = {
    ("tensor", "backward"): "tensor.backward",
    ("network", "network_forward_tensor"): "network.forward",
    ("network", "feature_extract"): "network.stem",
    ("network", "scb_forward"): "network.scb",
    ("network", "tsab_forward"): "network.tsab",
    ("network", "ffn_forward"): "network.ffn",
    ("network", "resdnet_block_forward"): "network.block",
    ("network", "reconstruct_head"): "network.head",
    ("training", "mse_loss"): "training.loss",
    ("training", "augment"): "training.augment",
    ("training", "adam_step"): "training.adam_step",
    ("forward_model", "encode"): "forward_model.encode",
    ("forward_model", "estimation_init"): "forward_model.estimation_init",
    ("forward_model", "mosaic_rggb"): "forward_model.bayer",
    ("forward_model", "bayer_split"): "forward_model.bayer",
    ("forward_model", "bayer_merge"): "forward_model.bayer",
    ("gaptv", "gap_tv_reconstruct"): "gaptv.reconstruct",
    ("gaptv", "gap_projection"): "gaptv.projection",
    ("metrics", "psnr"): "metrics.psnr",
    ("metrics", "ssim"): "metrics.ssim",
    ("container", "write_tensor"): "container.write",
    ("container", "write_bundle"): "container.write",
    ("container", "write_measurement"): "container.write",
    ("container", "write_checkpoint"): "container.write",
    ("container", "write_pgm"): "container.write",
    ("container", "write_ppm"): "container.write",
    ("container", "export_frames"): "container.write",
    ("container", "read_tensor"): "container.read",
    ("container", "read_bundle"): "container.read",
    ("container", "read_measurement"): "container.read",
    ("container", "read_checkpoint"): "container.read",
    ("cli", "cmd_encode"): "cli.encode",
    ("cli", "cmd_reconstruct"): "cli.reconstruct",  # suffixed with --method
    ("cli", "cmd_eval"): "cli.eval",
}

# container functions that touch one file, given as their first argument
CONTAINER_FILE_IO = {"write_tensor", "write_bundle", "write_pgm", "write_ppm",
                     "read_tensor", "read_bundle"}

# every per-layer metric with its unit; the traced run reports all of them
PER_LAYER = {
    "tensor.conv3d.fwd_s": "s", "tensor.conv3d.bwd_s": "s",
    "tensor.conv3d.calls": "count", "tensor.conv3d.gmac_per_s": "GMAC/s",
    "tensor.conv2d.fwd_s": "s", "tensor.conv2d.bwd_s": "s",
    "tensor.conv2d.gmac_per_s": "GMAC/s",
    "tensor.matmul.fwd_s": "s", "tensor.matmul.bwd_s": "s", "tensor.matmul.calls": "count",
    "tensor.softmax.fwd_s": "s", "tensor.softmax.bwd_s": "s", "tensor.softmax.calls": "count",
    "tensor.layout.fwd_s": "s", "tensor.layout.bwd_s": "s", "tensor.permute.calls": "count",
    "tensor.elementwise.fwd_s": "s", "tensor.elementwise.bwd_s": "s",
    "tensor.backward.graph_s": "s",
    "tensor.multiplies": "count", "tensor.out_bytes": "B",
    "network.stem_s": "s", "network.scb_s": "s", "network.tsab_s": "s",
    "network.ffn_s": "s", "network.block_s": "s", "network.head_s": "s",
    "network.gmac_per_s": "GMAC/s",
    "training.forward_s": "s", "training.backward_s": "s",
    "training.adam_step_s": "s", "training.data_s": "s",
    "forward_model.encode_s": "s", "forward_model.estimation_init_s": "s",
    "forward_model.bayer_s": "s",
    "gaptv.projection_s": "s", "gaptv.tv_s": "s", "gaptv.projection.calls": "count",
    "metrics.psnr_s": "s", "metrics.ssim_s": "s",
    "container.write_s": "s", "container.read_s": "s", "container.bytes": "B",
    "cli.encode_s": "s", "cli.reconstruct_gaptv_s": "s",
    "cli.reconstruct_net_s": "s", "cli.eval_s": "s",
    "trace.overhead_pct": "%",
    "machine.sgemm_gmac_per_s": "GMAC/s",
}

# span name -> per-layer metric that takes the span's self time
_SELF_TIME_METRIC = {
    "tensor.backward": "tensor.backward.graph_s",
    "network.stem": "network.stem_s", "network.scb": "network.scb_s",
    "network.tsab": "network.tsab_s", "network.ffn": "network.ffn_s",
    "network.block": "network.block_s", "network.head": "network.head_s",
    "forward_model.encode": "forward_model.encode_s",
    "forward_model.estimation_init": "forward_model.estimation_init_s",
    "forward_model.bayer": "forward_model.bayer_s",
    "gaptv.projection": "gaptv.projection_s", "gaptv.reconstruct": "gaptv.tv_s",
    "metrics.psnr": "metrics.psnr_s", "metrics.ssim": "metrics.ssim_s",
    "container.write": "container.write_s", "container.read": "container.read_s",
    "cli.encode": "cli.encode_s", "cli.reconstruct_gaptv": "cli.reconstruct_gaptv_s",
    "cli.reconstruct_net": "cli.reconstruct_net_s", "cli.eval": "cli.eval_s",
    "training.adam_step": "training.adam_step_s",
}


class Span:
    __slots__ = ("ident", "name", "layer", "site", "family", "start", "end",
                 "parent", "paused_at_start", "same_layer_children", "duration",
                 "self_time")

    def __init__(self, ident, name, site, family, start, parent, paused):
        self.ident = ident
        self.name = name
        self.layer = name.split(".", 1)[0]
        self.site = site
        self.family = family
        self.start = start
        self.end = None
        self.parent = parent
        self.paused_at_start = paused
        self.same_layer_children = 0.0
        self.duration = 0.0
        self.self_time = 0.0


class Tracer:
    """Open and closed spans of the current operation, plus counters."""

    def __init__(self):
        self.enabled = False
        self.spans = []
        self.stack = []
        self.paused_s = 0.0
        self.out_bytes = 0
        self.io_bytes = 0
        self.failures = []
        self.verifier = None  # callable(span name, bound arguments, output)
        self._next_id = 0

    def open(self, name, site, family=None):
        parent = self.stack[-1].ident if self.stack else None
        span = Span(self._next_id, name, site, family, clock(), parent, self.paused_s)
        self._next_id += 1
        self.stack.append(span)
        return span

    def close(self, span):
        span.end = clock()
        self.stack.pop()
        span.duration = (span.end - span.start) - (self.paused_s - span.paused_at_start)
        span.self_time = span.duration - span.same_layer_children
        for ancestor in reversed(self.stack):
            if ancestor.layer == span.layer:
                ancestor.same_layer_children += span.duration
                break
        self.spans.append(span)

    def inside(self, layer):
        return any(s.layer == layer for s in self.stack)

    @contextlib.contextmanager
    def paused(self):
        """Time inside this block is removed from every open span."""
        t0 = clock()
        try:
            yield
        finally:
            self.paused_s += clock() - t0

    def take(self):
        """Return and forget the spans and counters of the operation just run."""
        spans, out_bytes, io_bytes = self.spans, self.out_bytes, self.io_bytes
        self.spans, self.out_bytes, self.io_bytes = [], 0, 0
        return spans, out_bytes, io_bytes


def _wrap_backward(tracer, out, name, family):
    fn = out._backward
    if fn is None or getattr(fn, "_traced", False):
        return

    def traced_backward(g):
        if not tracer.enabled:
            return fn(g)
        span = tracer.open(name + ".bwd", "tensor", family)
        try:
            return fn(g)
        finally:
            tracer.close(span)

    traced_backward._traced = True
    out._backward = traced_backward


def _make_wrapper(tracer, fn, name, site, family, tensor_cls, file_io):
    signature = inspect.signature(fn)

    def traced(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        span_name = name
        if name == "cli.reconstruct":
            span_name = f"cli.reconstruct_{args[0].method}"
        outermost_op = family is not None and not tracer.inside("tensor")
        span = tracer.open(span_name, site, family)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        with tracer.paused():
            outs = out if isinstance(out, list) else [out]
            if family is not None:
                for o in outs:
                    if isinstance(o, tensor_cls):
                        _wrap_backward(tracer, o, name, family)
                        if outermost_op:
                            tracer.out_bytes += o.data.nbytes
            if file_io:
                tracer.io_bytes += os.path.getsize(args[0])
            if tracer.verifier is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                tracer.verifier(name, bound.arguments, out)
        return out

    traced._traced = True
    return traced


def install(tracer, package, modules):
    """Patch every attribute of ``modules`` bound to a traced function.

    ``modules`` maps short names ("tensor", "cli", ...) to the imported
    submodules of ``package``.  Returns a function that undoes the patches.
    """
    targets = {}
    for fname, family in TENSOR_FAMILIES.items():
        targets[id(getattr(modules["tensor"], fname))] = (
            getattr(modules["tensor"], fname), f"tensor.{fname}", family, False)
    for (mod, fname), span_name in NAMED_SPANS.items():
        fn = getattr(modules[mod], fname)
        file_io = mod == "container" and fname in CONTAINER_FILE_IO
        targets[id(fn)] = (fn, span_name, None, file_io)
    tensor_cls = modules["tensor"].Tensor
    undo = []
    for module in [package] + list(modules.values()):
        for attr, value in list(vars(module).items()):
            target = targets.get(id(value))
            if target is None or target[0] is not value:
                continue
            fn, span_name, family, file_io = target
            wrapper = _make_wrapper(tracer, fn, span_name, module.__name__, family,
                                    tensor_cls, file_io)
            setattr(module, attr, wrapper)
            undo.append((module, attr, value))

    def uninstall():
        for module, attr, value in reversed(undo):
            setattr(module, attr, value)

    return uninstall


def layer_metrics(spans, out_bytes, io_bytes, mult_events):
    """Fold one operation's spans and multiply-counter events into metrics."""
    m = defaultdict(float)
    forward_s = 0.0
    for s in spans:
        if s.family is not None:
            direction = "bwd" if s.name.endswith(".bwd") else "fwd"
            m[f"tensor.{s.family}.{direction}_s"] += s.self_time
            if direction == "fwd":
                if s.family in ("conv3d", "matmul", "softmax"):
                    m[f"tensor.{s.family}.calls"] += 1
                if s.name == "tensor.permute":
                    m["tensor.permute.calls"] += 1
            continue
        metric = _SELF_TIME_METRIC.get(s.name)
        if metric is not None:
            m[metric] += s.self_time
        if s.name == "tensor.backward":
            m["training.backward_s"] += s.duration
        elif s.name == "network.forward":
            forward_s += s.duration
            if s.site.endswith("training"):
                m["training.forward_s"] += s.duration
        elif s.name == "training.loss":
            m["training.forward_s"] += s.duration
        elif s.name == "training.augment" or (
                s.name == "forward_model.encode" and s.site.endswith("training")):
            m["training.data_s"] += s.duration
        elif s.name == "gaptv.projection":
            m["gaptv.projection.calls"] += 1
    mults = defaultdict(int)
    for label, count in mult_events:
        mults[label] += count
    m["tensor.multiplies"] = float(sum(mults.values()))
    m["tensor.out_bytes"] = float(out_bytes)
    m["container.bytes"] = float(io_bytes)
    for fam in ("conv3d", "conv2d"):
        t = m[f"tensor.{fam}.fwd_s"]
        m[f"tensor.{fam}.gmac_per_s"] = mults[fam] / t / 1e9 if t > 0 else 0.0
    network_mults = mults["conv2d"] + mults["conv3d"] + mults["matmul"]
    m["network.gmac_per_s"] = network_mults / forward_s / 1e9 if forward_s > 0 else 0.0
    return m
