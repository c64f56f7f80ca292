"""Command-line surface: encode, reconstruct, train, eval, complexity.

Exit codes: 0 success, 2 usage/format error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

import numpy as np

from . import container
from .container import FormatError
from .complexity import flops_analytic, network_flops, param_count
from .forward_model import (MaskSet, Measurement, VideoCube, encode,
                            estimation_init, generate_masks)
from .gaptv import gap_tv_reconstruct
from .metrics import format_metric_table, psnr, ssim
from .network import NetworkConfig, build_network, network_forward
from .training import TrainConfig, TrainingDivergence, save_history_csv, train

EXIT_USAGE = 2
EXIT_NUMERICAL = 3


class UsageError(ValueError):
    pass


def _load_masks(path):
    arr = container.read_tensor(path)
    if arr.ndim != 3:
        raise UsageError(f"mask container must be 3-D [B, H, W], got shape {arr.shape}")
    return MaskSet(masks=arr.astype(np.float64))


def _load_video(path):
    arr = container.read_tensor(path)
    if arr.ndim != 4:
        raise UsageError(f"video container must be 4-D [B, C, H, W], got shape {arr.shape}")
    return VideoCube(frames=arr.astype(np.float64))


def _parse_gen_masks(spec, h, w):
    try:
        b_s, density_s, seed_s = spec.split(",")
        b, density, seed = int(b_s), float(density_s), int(seed_s)
    except ValueError as exc:
        raise UsageError(f"--gen-masks expects B,density,seed, got {spec!r}") from exc
    return generate_masks(b, h, w, density=density, seed=seed)


def cmd_encode(args):
    video = _load_video(args.video)
    if args.color == "gray" and video.channels != 1:
        raise UsageError("gray encoding expects a 1-channel video")
    if args.color == "bayer" and video.channels != 3:
        raise UsageError("bayer encoding expects a 3-channel video")
    if args.masks:
        masks = _load_masks(args.masks)
    elif args.gen_masks:
        masks = _parse_gen_masks(args.gen_masks, *video.spatial)
    else:
        raise UsageError("provide --masks PATH or --gen-masks B,density,seed")
    rng = np.random.Generator(np.random.PCG64(args.noise_seed))
    y = encode(video, masks, noise_sigma=args.noise, rng=rng)
    container.write_measurement(args.out, y)
    if args.save_masks:
        container.write_tensor(args.save_masks, masks.masks.astype(np.float64))
    print(f"measurement {y.y.shape[0]}x{y.y.shape[1]} B={y.b} "
          f"color={y.color_mode} sigma={y.noise_sigma}")
    return 0


def cmd_reconstruct(args):
    y = container.read_measurement(args.measurement)
    masks = _load_masks(args.masks)
    if args.method == "net":
        if not args.checkpoint:
            raise UsageError("--method net requires --checkpoint")
        config, arrays = container.read_checkpoint(args.checkpoint)
        if args.variant:
            expected = NetworkConfig.variant(args.variant,
                                             color=config.in_channels == 4)
            if (expected.channels, expected.blocks) != (config.channels, config.blocks):
                raise UsageError(
                    f"checkpoint is C={config.channels}/N={config.blocks}, "
                    f"not variant {args.variant}")
        params = build_network(config, seed=0)
        params.load_arrays(arrays)
        cube = network_forward(y, masks, params, config)
    elif args.method == "gaptv":
        cube = gap_tv_reconstruct(y, masks, iters=args.iters, tv_weight=args.tv_weight)
    else:  # init
        x_e = estimation_init(y, masks)
        frames = x_e.data.astype(np.float64)
        if frames.shape[1] == 4:  # Bayer sub-planes are not a displayable video
            raise UsageError("init reconstruction of Bayer data is not supported")
        cube = VideoCube(frames=frames)
    if not np.all(np.isfinite(cube.frames)):
        raise TrainingDivergence("reconstruction contains non-finite values")
    container.write_tensor(args.out, cube.frames.astype(np.float64))
    if args.export_ppm:
        paths = container.export_frames(args.export_ppm, cube)
        print(f"exported {len(paths)} frames to {args.export_ppm}")
    print(f"reconstruction {tuple(cube.frames.shape)} written to {args.out}")
    return 0


def _parse_bool(text):
    return text.lower() in ("1", "true", "yes")


# every TrainConfig field, parsed by the type of its default, plus the
# network keys
_TRAIN_KEYS = {f.name: _parse_bool if isinstance(f.default, bool) else type(f.default)
               for f in dataclasses.fields(TrainConfig)}
_TRAIN_KEYS.update(variant=str, color=_parse_bool,
                   channels=int, blocks=int, split=int, heads=int)


def cmd_train(args):
    raw = container.parse_kv(args.config)
    values = {}
    for key, value in raw.items():
        if key not in _TRAIN_KEYS:
            raise UsageError(f"unknown training config key {key!r}")
        values[key] = _TRAIN_KEYS[key](value)
    variant = values.pop("variant", "T")
    color = values.pop("color", False)
    overrides = {k: values.pop(k) for k in ("channels", "blocks", "split", "heads")
                 if k in values}
    net_config = NetworkConfig.variant(variant, color=color, **overrides)
    train_config = TrainConfig(**values)
    net_config.train_b = train_config.b

    def progress(epoch, lr, loss):
        print(f"epoch {epoch}: lr={lr:g} mean loss={loss:.6g}")

    params, history = train(train_config, net_config, progress=progress)
    container.write_checkpoint(args.out_checkpoint, params, net_config)
    if args.loss_csv:
        save_history_csv(args.loss_csv, history)
    print(f"checkpoint written to {args.out_checkpoint} "
          f"({params.total_params()} parameters, {len(history)} steps)")
    return 0


def cmd_eval(args):
    pred = _load_video(args.pred)
    truth = _load_video(args.truth)
    frames_psnr, mean_psnr = psnr(pred, truth)
    rows = []
    try:
        frames_ssim, mean_ssim = ssim(pred, truth, window=args.ssim_window)
    except ValueError:
        frames_ssim, mean_ssim = ["n/a"] * len(frames_psnr), "n/a"
    for m, (p, s) in enumerate(zip(frames_psnr, frames_ssim)):
        rows.append((f"frame {m}", f"{p:.4f}",
                     s if isinstance(s, str) else f"{s:.6f}"))
    rows.append(("mean", f"{mean_psnr:.4f}",
                 mean_ssim if isinstance(mean_ssim, str) else f"{mean_ssim:.6f}"))
    print(format_metric_table(rows, ("", "PSNR(dB)", "SSIM")))
    return 0


def cmd_complexity(args):
    try:
        t, h, w = (int(v) for v in args.shape.split(","))
    except ValueError as exc:
        raise UsageError(f"--shape expects T,H,W, got {args.shape!r}") from exc
    config = NetworkConfig.variant(args.variant)
    total_params, _ = param_count(config)
    total_flops, parts = network_flops(config, t, h, w)
    print(f"variant {args.variant}: C={config.channels} N={config.blocks} "
          f"S={config.split} heads={config.heads}")
    print(f"parameters: {total_params} ({total_params / 1e6:.3f} M)")
    print(f"network multiplies at {t}x{h}x{w}: {total_flops / 1e9:.2f} G")
    for name, value in parts.items():
        print(f"  {name}: {value / 1e9:.2f} G")
    c = config.part_channels
    hh, hw = h // 2, w // 2
    print("block component formulas (per CFormer, half resolution):")
    for comp in ("SCB", "TSAB", "SCB3D", "G-MSA", "TS-MSA"):
        value = flops_analytic(comp, hh, hw, t, c, k=3, heads=config.heads)
        print(f"  {comp}: {value / 1e9:.4f} G")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="scivid",
        description="Video snapshot compressive imaging: simulate, reconstruct, train.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("encode", help="form a snapshot measurement from a video")
    p.add_argument("--video", required=True)
    p.add_argument("--masks")
    p.add_argument("--gen-masks", metavar="B,DENSITY,SEED")
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--noise-seed", type=int, default=0)
    p.add_argument("--color", choices=("gray", "bayer"), default="gray")
    p.add_argument("--save-masks")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("reconstruct", help="reconstruct a video from a measurement")
    p.add_argument("--measurement", required=True)
    p.add_argument("--masks", required=True)
    p.add_argument("--method", choices=("net", "gaptv", "init"), default="net")
    p.add_argument("--checkpoint")
    p.add_argument("--variant", choices=("T", "S", "B", "L"))
    p.add_argument("--iters", type=int, default=50)
    p.add_argument("--tv-weight", type=float, default=0.05)
    p.add_argument("--export-ppm", metavar="DIR")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("train", help="train a network on synthetic data")
    p.add_argument("--config", required=True)
    p.add_argument("--out-checkpoint", required=True)
    p.add_argument("--loss-csv")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="PSNR/SSIM between two video containers")
    p.add_argument("--pred", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--ssim-window", type=int, default=11)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("complexity", help="analytic multiply and parameter report")
    p.add_argument("--variant", choices=("T", "S", "B", "L"), required=True)
    p.add_argument("--shape", default="8,256,256", metavar="T,H,W")
    p.set_defaults(func=cmd_complexity)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, FormatError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (TrainingDivergence, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
