"""The benchmark's four workloads and the loop that times them.

Each workload builds its inputs from the seed, then runs whole rounds of
one operation until the run's seconds have passed:

- ``train-c16``: optimizer steps of ``training.train`` (a round is an epoch);
- ``infer-t128``: one variant-T ``network.network_forward``;
- ``gaptv-256``: one ``gaptv.gap_tv_reconstruct``;
- ``cli-bayer128``: the five ``cli.main`` commands of the Bayer path.

In a traced run, round 0 runs without spans (it pays the first-call
costs), then rounds alternate between traced and untraced, so that the
tracing overhead is measured in the same process.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import math
import os
import resource
import shutil
import statistics
import sys
from dataclasses import dataclass, field

import numpy as np

import checks
import tracer as tracing

clock = tracing.clock

MODULES = ("tensor", "forward_model", "network", "training", "gaptv",
           "metrics", "complexity", "container", "cli")

SETUP_REPEATS = 9

# Network parameters come from one fixed seed, like a checkpoint shipped
# with the program; --seed varies videos, masks and augmentation.
PARAM_SEED = 0

# Shapes of the benchmark runs, and the tiny ones the self-test uses.
FULL = {
    "train-c16": dict(net=dict(channels=16, blocks=1, split=2, heads=2),
                      b=8, size=64, count=8, batch=2, lr=(3e-3, 1e-3)),
    "infer-t128": dict(net=dict(channels=64, blocks=8, split=4, heads=4),
                       b=8, size=128),
    "gaptv-256": dict(b=8, size=256, iters=50, tv_weight=0.05, tv_inner=20),
    "cli-bayer128": dict(net=dict(channels=64, blocks=8, split=4, heads=4),
                         b=8, size=128),
}
TINY = {
    "train-c16": dict(net=dict(channels=8, blocks=1, split=2, heads=1),
                      b=4, size=16, count=4, batch=2, lr=(3e-3, 1e-3)),
    "infer-t128": dict(net=dict(channels=8, blocks=1, split=2, heads=1),
                       b=4, size=16),
    "gaptv-256": dict(b=8, size=64, iters=50, tv_weight=0.05, tv_inner=20),
    "cli-bayer128": dict(net=dict(channels=8, blocks=1, split=2, heads=1),
                         b=8, size=32),
}


def import_scivid():
    """Import the package afresh, so that set-up time includes the import."""
    for name in [n for n in sys.modules if n == "scivid" or n.startswith("scivid.")]:
        del sys.modules[name]
    package = importlib.import_module("scivid")
    return package, {name: importlib.import_module(f"scivid.{name}") for name in MODULES}


def sub_seeds(seed, count=6):
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def synthetic_video(training, b, size, channels, seed):
    """[b, channels, size, size]: one synthetic moving-shape cube per channel."""
    cubes = training.make_synthetic_dataset(channels, b, size, size, seed=seed)
    return np.concatenate([c.frames for c in cubes], axis=1)


def conv_multiplies(events):
    return sum(n for label, n in events if label in ("conv2d", "conv3d", "matmul"))


@dataclass
class OpRecord:
    round: int
    duration: float
    traced: bool
    error: str | None = None
    layers: dict = field(default_factory=dict)


class PointVerifier:
    """Recomputes sampled outputs of every conv and attention call in float64."""

    def __init__(self, tracer, seed):
        self.tracer = tracer
        self.rng = np.random.default_rng(seed)

    def __call__(self, name, args, out):
        try:
            if name in ("tensor.conv2d", "tensor.conv3d"):
                out_data = out.data
                frame_axis = 2 if name == "tensor.conv3d" else 0
                b = args["b"]
                checks.check_conv_points(
                    getattr(args["x"], "data", args["x"]), getattr(args["w"], "data", args["w"]),
                    None if b is None else getattr(b, "data", b), out_data,
                    args["stride"], args["padding"],
                    checks.conv_points(self.rng, out_data.shape, frame_axis))
            elif name == "network.tsab":
                x, params, prefix = args["x"].data, args["params"], args["prefix"]
                h, w = x.shape[2:]
                pixels = [(int(self.rng.integers(h)), int(self.rng.integers(w))) for _ in range(2)]
                weights = [params[f"{prefix}.{k}.w"].data for k in ("wq", "wk", "wv", "wp")]
                checks.check_attention_points(x, weights, args["heads"], out.data, pixels)
        except checks.CheckFailed as exc:
            self.tracer.failures.append(f"{name}: {exc}")


class Workload:
    """Set-up, one timed operation, and the checks of its output."""

    def __init__(self, spec):
        self.spec = spec

    def setup(self, mods, seed, workdir):
        raise NotImplementedError

    def prepare(self, state):
        """Untimed work after set-up that the checks need."""

    def op(self, state):
        raise NotImplementedError

    def check_op(self, state, out, events):
        """Raise CheckFailed if the operation's output is wrong."""
        raise NotImplementedError

    def check_run(self, state):
        """Checks of properties that do not depend on one operation."""

    def rounds(self, state, tracer, seconds, trace):
        records = []
        start = clock()
        index = 0
        while True:
            records.append(self._one_op(state, tracer, index, trace and index % 2 == 1))
            index += 1
            if clock() - start >= seconds and (not trace or index >= 2):
                return records

    def _one_op(self, state, tracer, index, traced):
        tensor = state["mods"]["tensor"]
        with tensor.count_multiplies() as counter:
            paused0 = tracer.paused_s
            tracer.enabled = traced
            t0 = clock()
            try:
                out, error = self.op(state), None
            except Exception as exc:  # a failed operation is counted, not fatal
                out, error = None, f"{type(exc).__name__}: {exc}"
            finally:
                tracer.enabled = False
            duration = clock() - t0 - (tracer.paused_s - paused0)
        record = OpRecord(index, duration, traced, error)
        spans, out_bytes, io_bytes = tracer.take()
        failures, tracer.failures = tracer.failures, []
        if error is None:
            try:
                checks.require(not failures, "; ".join(failures[:3]))
                self.check_op(state, out, counter.events)
            except checks.CheckFailed as exc:
                record.error = str(exc)
        if traced:
            record.layers = tracing.layer_metrics(spans, out_bytes, io_bytes, counter.events)
        return record


class _RunOver(Exception):
    """Raised from the epoch callback to end ``training.train`` after a round."""


class TrainC16(Workload):
    """Steps of ``training.train`` on the A6/A7 network, augmentation on."""

    def setup(self, mods, seed, workdir):
        s = sub_seeds(seed)
        spec = self.spec
        net_config = mods["network"].NetworkConfig(train_b=spec["b"], **spec["net"])
        size = spec["size"]
        dataset = mods["training"].make_synthetic_dataset(spec["count"], spec["b"], size, size,
                                                         seed=s[0])
        masks = mods["forward_model"].generate_masks(spec["b"], size, size, density=0.5,
                                                     seed=s[1])
        params = mods["network"].build_network(net_config, seed=PARAM_SEED)
        config = mods["training"].TrainConfig(
            lr_initial=spec["lr"][0], lr_final=spec["lr"][1], epochs_phase1=10_000,
            epochs_phase2=0, batch=spec["batch"], crop=size, count=spec["count"],
            b=spec["b"], seed=s[3])
        flops = mods["complexity"].network_flops(net_config, spec["b"], size, size)[0]
        return dict(mods=mods, net_config=net_config, dataset=dataset, masks=masks,
                    params=params, config=config, flops=flops, seeds=s, losses=[])

    def rounds(self, state, tracer, seconds, trace):
        mods = state["mods"]
        training = mods["training"]
        steps_per_round = math.ceil(self.spec["count"] / self.spec["batch"])
        records, sample_losses, losses = [], [], state["losses"]
        clock_state = {"round": 0, "t0": 0.0, "paused0": 0.0, "events": 0}
        adam_step, mse_loss = training.adam_step, training.mse_loss

        def timed_loss(pred, truth):
            loss = mse_loss(pred, truth)
            sample_losses.append(loss.item())
            return loss

        def timed_adam_step(*args, **kwargs):
            adam_step(*args, **kwargs)
            duration = clock() - clock_state["t0"] - (tracer.paused_s - clock_state["paused0"])
            traced = tracer.enabled
            tracer.enabled = False
            events = counter.events[clock_state["events"]:]
            clock_state["events"] = len(counter.events)
            record = OpRecord(clock_state["round"], duration, traced)
            spans, out_bytes, io_bytes = tracer.take()
            failures, tracer.failures = tracer.failures, []
            step_loss = float(np.mean(sample_losses))
            try:
                checks.require(not failures, "; ".join(failures[:3]))
                checks.require(math.isfinite(step_loss), f"non-finite loss {step_loss}")
                checks.check_multiplies(conv_multiplies(events),
                                        len(sample_losses) * state["flops"])
            except checks.CheckFailed as exc:
                record.error = str(exc)
            losses.append(step_loss)
            sample_losses.clear()
            if traced:
                record.layers = tracing.layer_metrics(spans, out_bytes, io_bytes, events)
            records.append(record)
            tracer.enabled = traced
            clock_state["paused0"] = tracer.paused_s
            clock_state["t0"] = clock()

        def end_of_round(epoch, lr, mean_loss):
            clock_state["round"] += 1
            n = clock_state["round"]
            tracer.enabled = False
            if clock() - start >= seconds and (not trace or n >= 2):
                raise _RunOver
            tracer.enabled = trace and n % 2 == 1
            clock_state["paused0"] = tracer.paused_s
            clock_state["t0"] = clock()

        training.adam_step, training.mse_loss = timed_adam_step, timed_loss
        try:
            with mods["tensor"].count_multiplies() as counter:
                start = clock()
                clock_state["t0"] = start
                try:
                    training.train(state["config"], state["net_config"],
                                   dataset=state["dataset"], params=state["params"],
                                   masks=state["masks"], progress=end_of_round)
                except _RunOver:
                    pass
                except Exception as exc:  # the step in flight failed
                    records.append(OpRecord(clock_state["round"], clock() - clock_state["t0"],
                                            tracer.enabled, f"{type(exc).__name__}: {exc}"))
                finally:
                    tracer.enabled = False
        finally:
            training.adam_step, training.mse_loss = adam_step, mse_loss
        state["steps_per_round"] = steps_per_round
        return records

    def check_run(self, state):
        checks.check_loss_trend(state["losses"], state["steps_per_round"])
        analytic, finite_diff = self.directional_derivatives(state)
        checks.check_directional(analytic, finite_diff)

    @staticmethod
    def directional_derivatives(state, eps=1e-6, corrupt=None):
        """d/de loss(theta + e*d) at e=0, from backward and from float64 FD.

        The loss is the mean MSE over the first batch of the dataset, on a
        float64 copy of the parameters as training left them.  (At
        initialization every bias is 0, so a conv over an all-zero window of
        a clipped-black region sits exactly on a leaky-ReLU kink, where a
        central difference averages the two slopes.)  ``corrupt`` may alter
        the gradients before they are used (the self-test does).
        """
        mods = state["mods"]
        tn, network, training = mods["tensor"], mods["network"], mods["training"]
        fm = mods["forward_model"]
        config, masks = state["net_config"], state["masks"]
        params = network.build_network(config, dtype=np.float64)
        params.load_arrays(state["params"].state_arrays())
        batch = state["dataset"][:state["config"].batch]
        measurements = [fm.encode(cube, masks) for cube in batch]

        def loss():
            total = 0.0
            for cube, y in zip(batch, measurements):
                pred = network.network_forward_tensor(y, masks, params, config, dtype=np.float64)
                total = tn.add(total, training.mse_loss(pred, cube))
            return tn.mul(total, 1.0 / len(batch))

        tn.backward(loss())
        grads = {name: p.grad.copy() for name, p in params.items()}
        if corrupt is not None:
            corrupt(grads)
        rng = np.random.default_rng(state["seeds"][4])
        direction = {name: rng.standard_normal(p.shape) for name, p in params.items()}
        norm = math.sqrt(sum(float((d * d).sum()) for d in direction.values()))
        analytic = sum(float((grads[n] * d).sum()) for n, d in direction.items()) / norm
        base = {name: p.data.copy() for name, p in params.items()}
        values = []
        with tn.no_grad():
            for sign in (1.0, -1.0):
                for name, p in params.items():
                    p.data = base[name] + (sign * eps / norm) * direction[name]
                values.append(loss().item())
        return analytic, (values[0] - values[1]) / (2.0 * eps)


class InferT128(Workload):
    """Variant-T inference on one gray measurement."""

    def setup(self, mods, seed, workdir):
        s = sub_seeds(seed)
        spec = self.spec
        config = mods["network"].NetworkConfig(**spec["net"])
        params = mods["network"].build_network(config, seed=PARAM_SEED)
        frames = synthetic_video(mods["training"], spec["b"], spec["size"], 1, s[1])
        video = mods["forward_model"].VideoCube(frames=frames)
        masks = mods["forward_model"].generate_masks(spec["b"], spec["size"], spec["size"],
                                                     density=0.5, seed=s[2])
        y = mods["forward_model"].encode(video, masks)
        flops = mods["complexity"].network_flops(config, spec["b"], spec["size"], spec["size"])[0]
        return dict(mods=mods, config=config, params=params, video=video, masks=masks, y=y,
                    flops=flops)

    def op(self, state):
        return state["mods"]["network"].network_forward(state["y"], state["masks"],
                                                        state["params"], state["config"])

    def check_op(self, state, out, events):
        checks.check_video(out.frames, state["video"].frames.shape)
        checks.check_multiplies(conv_multiplies(events), state["flops"])


class GapTV256(Workload):
    """GAP-TV on a gray 8x256x256 video; never enters the tensor core."""

    def setup(self, mods, seed, workdir):
        s = sub_seeds(seed)
        spec = self.spec
        frames = synthetic_video(mods["training"], spec["b"], spec["size"], 1, s[0])
        video = mods["forward_model"].VideoCube(frames=frames)
        masks = mods["forward_model"].generate_masks(spec["b"], spec["size"], spec["size"],
                                                     density=0.5, seed=s[1])
        y = mods["forward_model"].encode(video, masks)
        return dict(mods=mods, video=video, masks=masks, y=y, seeds=s)

    def prepare(self, state):
        x_e = state["mods"]["forward_model"].estimation_init(state["y"], state["masks"])
        state["init_db"] = checks.psnr_db(x_e.data, state["video"].frames)

    def op(self, state):
        spec = self.spec
        return state["mods"]["gaptv"].gap_tv_reconstruct(
            state["y"], state["masks"], iters=spec["iters"], tv_weight=spec["tv_weight"],
            tv_inner=spec["tv_inner"])

    def check_op(self, state, out, events):
        truth = state["video"].frames
        checks.check_video(out.frames, truth.shape)
        own = checks.psnr_db(out.frames, truth)
        checks.check_psnr_agrees(own, state["mods"]["metrics"].psnr(out, state["video"])[1])
        checks.check_gain(own, state["init_db"])

    def check_run(self, state):
        rng = np.random.default_rng(state["seeds"][2])
        masks = state["masks"].masks
        x = rng.uniform(0.0, 1.0, masks.shape)
        projected = state["mods"]["gaptv"].gap_projection(x, state["y"].y, state["masks"])
        checks.check_projection(state["y"].y, masks, projected)


def rggb_mosaic(frames):
    """[B, 3, H, W] -> [B, 1, H, W] RGGB mosaic, written out independently."""
    out = np.empty((frames.shape[0], 1) + frames.shape[2:])
    out[:, 0, 0::2, 0::2] = frames[:, 0, 0::2, 0::2]
    out[:, 0, 0::2, 1::2] = frames[:, 1, 0::2, 1::2]
    out[:, 0, 1::2, 0::2] = frames[:, 1, 1::2, 0::2]
    out[:, 0, 1::2, 1::2] = frames[:, 2, 1::2, 1::2]
    return out


class CliBayer128(Workload):
    """``encode``, two ``reconstruct`` and two ``eval`` commands, in-process."""

    def setup(self, mods, seed, workdir):
        s = sub_seeds(seed)
        spec = self.spec
        container, network = mods["container"], mods["network"]
        frames = synthetic_video(mods["training"], spec["b"], spec["size"], 3, s[0])
        paths = {k: os.path.join(workdir, v) for k, v in dict(
            video="video.tenb", mosaic="truth_mosaic.tenb", ckpt="net.ckpt",
            masks="masks.tenb", meas="meas.bundle", gaptv="recon_gaptv.tenb",
            net="recon_net.tenb", frames="frames").items()}
        container.write_tensor(paths["video"], frames)
        container.write_tensor(paths["mosaic"], rggb_mosaic(frames))
        config = network.NetworkConfig(in_channels=4, out_channels=3, **spec["net"])
        container.write_checkpoint(paths["ckpt"], network.build_network(config, seed=PARAM_SEED),
                                   config)
        mask_seed = s[2] % 2**31
        gen = f"{spec['b']},0.5,{mask_seed}"
        p = paths
        commands = [
            ["encode", "--video", p["video"], "--color", "bayer", "--gen-masks", gen,
             "--save-masks", p["masks"], "--out", p["meas"]],
            ["reconstruct", "--measurement", p["meas"], "--masks", p["masks"],
             "--method", "gaptv", "--export-ppm", p["frames"], "--out", p["gaptv"]],
            ["reconstruct", "--measurement", p["meas"], "--masks", p["masks"],
             "--method", "net", "--checkpoint", p["ckpt"], "--out", p["net"]],
            ["eval", "--pred", p["gaptv"], "--truth", p["mosaic"]],
            ["eval", "--pred", p["net"], "--truth", p["video"]],
        ]
        return dict(mods=mods, frames=frames, paths=paths, commands=commands,
                    mask_seed=mask_seed)

    def prepare(self, state):
        fm = state["mods"]["forward_model"]
        spec = self.spec
        masks = fm.generate_masks(spec["b"], spec["size"], spec["size"], density=0.5,
                                  seed=state["mask_seed"])
        state["expected_masks"] = masks.masks
        state["expected_y"] = fm.encode(fm.VideoCube(frames=state["frames"]), masks).y
        state["mosaic"] = rggb_mosaic(state["frames"])

    def op(self, state):
        main = state["mods"]["cli"].main
        codes, texts = {}, {}
        for i, argv in enumerate(state["commands"]):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                codes[i] = main(argv)
            texts[i] = buf.getvalue()
        return codes, texts

    def check_op(self, state, out, events):
        codes, texts = out
        container, paths = state["mods"]["container"], state["paths"]
        try:
            checks.check_exit_codes(codes)
            measurement = container.read_measurement(paths["meas"])
            checks.check_same_bits(measurement.y, state["expected_y"], "measurement bundle")
            checks.require(measurement.color_mode == "bayer_rggb" and measurement.b == self.spec["b"],
                           f"bundle says {measurement.color_mode}, B={measurement.b}")
            checks.check_same_bits(container.read_tensor(paths["masks"]),
                                   state["expected_masks"], "saved masks")
            gaptv_frames = container.read_tensor(paths["gaptv"])
            checks.check_printed_psnr(checks.eval_mean_psnr(texts[3]),
                                      checks.psnr_db(gaptv_frames, state["mosaic"]))
            checks.check_printed_psnr(checks.eval_mean_psnr(texts[4]),
                                      checks.psnr_db(container.read_tensor(paths["net"]),
                                                     state["frames"]))
            checks.check_exported_frames(paths["frames"], gaptv_frames.shape)
        finally:
            shutil.rmtree(paths["frames"], ignore_errors=True)


WORKLOADS = {"train-c16": TrainC16, "infer-t128": InferT128,
             "gaptv-256": GapTV256, "cli-bayer128": CliBayer128}


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(name, seed, seconds, trace, workdir, shapes=FULL, setup_repeats=SETUP_REPEATS):
    """Set up, time and check one workload; returns the result fields."""
    workload = WORKLOADS[name](shapes[name])
    setup_times = []
    for _ in range(setup_repeats):
        t0 = clock()
        package, mods = import_scivid()
        state = workload.setup(mods, seed, workdir)
        setup_times.append(clock() - t0)
    workload.prepare(state)
    tracer = tracing.Tracer()
    uninstall = lambda: None  # noqa: E731
    if trace:
        uninstall = tracing.install(tracer, package, mods)
        tracer.verifier = PointVerifier(tracer, seed)
    try:
        records = workload.rounds(state, tracer, seconds, trace)
    finally:
        uninstall()
    peak = peak_rss_mb()
    run_errors = []
    try:
        workload.check_run(state)
    except checks.CheckFailed as exc:
        run_errors.append(str(exc))
    timed = [r for r in records if r.error is None] or records
    end_to_end = {
        "setup_s": statistics.median(setup_times),
        "op_s": statistics.median(r.duration for r in timed if not r.traced),
        "peak_rss_mb": peak,
    }
    return dict(records=records, run_errors=run_errors, end_to_end=end_to_end,
                per_layer=per_layer(records) if trace else None)


def per_layer(records):
    """Median over traced operations of each per-layer metric, plus overhead."""
    traced = [r for r in records if r.traced and r.error is None] or \
        [r for r in records if r.traced]
    values = {}
    for metric in tracing.PER_LAYER:
        samples = [r.layers.get(metric, 0.0) for r in traced]
        values[metric] = statistics.median(samples) if samples else 0.0
    plain = [r.duration for r in records if not r.traced and r.round > 0] or \
        [r.duration for r in records if not r.traced]
    with_spans = [r.duration for r in traced]
    if plain and with_spans:
        values["trace.overhead_pct"] = 100.0 * (statistics.median(with_spans)
                                               / statistics.median(plain) - 1.0)
    return values
