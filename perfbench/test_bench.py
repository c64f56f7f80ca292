"""Self-test of the benchmark at tiny shapes.

Every workload runs once, traced, on two seeds and must pass all of its
checks.  Then each check is handed a deliberately corrupted output and
must reject it, so that none of them passes vacuously.

    python3 -m pytest perfbench/test_bench.py -q
"""

import functools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

Rejected = pytest.raises(checks.CheckFailed)


def run_tiny(name, seed, tmp_path):
    return workloads.run(name, seed, 0.0, True, str(tmp_path), shapes=workloads.TINY,
                         setup_repeats=1)


def setup_tiny(name, seed, tmp_path):
    workload = workloads.WORKLOADS[name](workloads.TINY[name])
    _, mods = workloads.import_scivid()
    state = workload.setup(mods, seed, str(tmp_path))
    workload.prepare(state)
    return workload, state


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_passes_its_checks(name, seed, tmp_path):
    result = run_tiny(name, seed, tmp_path)
    assert result["run_errors"] == []
    assert [r.error for r in result["records"]] == [None] * len(result["records"])
    assert any(r.traced for r in result["records"])
    for metric, value in result["end_to_end"].items():
        assert math.isfinite(value) and value > 0, metric
    assert set(result["per_layer"]) <= set(tracing.PER_LAYER)


def test_benchmark_json_names_every_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    import run
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_traced_network_run_attributes_time_to_layers(tmp_path):
    layers = run_tiny("train-c16", 0, tmp_path)["per_layer"]
    for metric in ("tensor.conv3d.fwd_s", "tensor.conv3d.bwd_s", "tensor.backward.graph_s",
                   "network.tsab_s", "training.forward_s", "training.backward_s",
                   "training.adam_step_s", "training.data_s"):
        assert layers[metric] > 0, metric
    assert layers["gaptv.tv_s"] == 0 and layers["cli.eval_s"] == 0


# -- each check rejects a corrupted output ------------------------------------------

def test_psnr_checks_reject_corruption():
    rng = np.random.default_rng(0)
    truth = rng.uniform(0, 1, (4, 1, 8, 8))
    good = np.clip(truth + 0.01 * rng.standard_normal(truth.shape), 0, 1)
    own = checks.psnr_db(good, truth)
    checks.check_psnr_agrees(own, own)
    with Rejected:
        checks.check_psnr_agrees(own, own + 1e-6)
    checks.check_gain(own, own - 6.0)
    with Rejected:
        checks.check_gain(own, own - 4.0)
    checks.check_printed_psnr(round(own, 4), own)
    with Rejected:
        checks.check_printed_psnr(round(own, 4) + 1e-3, own)


def test_gaptv_checks_reject_corruption(tmp_path):
    workload, state = setup_tiny("gaptv-256", 0, tmp_path)
    out = workload.op(state)
    workload.check_op(state, out, [])
    few_iters = state["mods"]["gaptv"].gap_tv_reconstruct(state["y"], state["masks"], iters=1)
    with Rejected:
        workload.check_op(state, few_iters, [])
    with Rejected:
        checks.check_video(np.full_like(out.frames, np.nan), out.frames.shape)
    masks, y = state["masks"], state["y"]
    x = np.random.default_rng(1).uniform(0, 1, masks.masks.shape)
    projected = state["mods"]["gaptv"].gap_projection(x, y.y, masks)
    checks.check_projection(y.y, masks.masks, projected)
    projected[2, 5, 7] += 1e-3
    with Rejected:
        checks.check_projection(y.y, masks.masks, projected)


def test_infer_checks_reject_corruption(tmp_path):
    workload, state = setup_tiny("infer-t128", 0, tmp_path)
    tensor = state["mods"]["tensor"]
    with tensor.count_multiplies() as counter:
        out = workload.op(state)
    workload.check_op(state, out, counter.events)
    with Rejected:
        workload.check_op(state, out, counter.events + [("conv3d", 1)])
    bad = out.frames.copy()
    bad[0, 0, 0, 0] = np.inf
    with Rejected:
        workload.check_op(state, type(out)(frames=bad), counter.events)


def test_conv_and_attention_references_reject_a_zeroed_frame():
    rng = np.random.default_rng(0)
    mods = workloads.import_scivid()[1]
    tn, network = mods["tensor"], mods["network"]
    x = rng.standard_normal((1, 6, 4, 9, 9)).astype(np.float32)
    w = rng.standard_normal((5, 6, 3, 3, 3)).astype(np.float32)
    b = rng.standard_normal(5).astype(np.float32)
    out = tn.conv3d(x, w, b, stride=(1, 2, 2), padding=(1, 1, 1)).data
    points = checks.conv_points(rng, out.shape, 2)
    checks.check_conv_points(x, w, b, out, (1, 2, 2), (1, 1, 1), points)
    out[:, :, 2] = 0.0
    with Rejected:
        checks.check_conv_points(x, w, b, out, (1, 2, 2), (1, 1, 1), points)

    x2 = rng.standard_normal((4, 6, 7, 7)).astype(np.float32)
    w2 = rng.standard_normal((3, 6, 3, 3)).astype(np.float32)
    out2 = tn.conv2d(x2, w2, None, padding=(1, 1)).data
    points2 = checks.conv_points(rng, out2.shape, 0)
    checks.check_conv_points(x2, w2, None, out2, (1, 1), (1, 1), points2)
    out2[1] = 0.0
    with Rejected:
        checks.check_conv_points(x2, w2, None, out2, (1, 1), (1, 1), points2)

    config = network.NetworkConfig(channels=16, blocks=1, split=2, heads=2)
    params = network.build_network(config, seed=0)
    frames = tn.Tensor(rng.standard_normal((5, 8, 6, 6)).astype(np.float32))
    att = network.tsab_forward(frames, params, "block0.part0.cf.tsab", 2).data
    weights = [params[f"block0.part0.cf.tsab.{k}.w"].data for k in ("wq", "wk", "wv", "wp")]
    checks.check_attention_points(frames.data, weights, 2, att, [(1, 4)])
    att[3] = 0.0
    with Rejected:
        checks.check_attention_points(frames.data, weights, 2, att, [(1, 4)])


def test_traced_run_counts_a_wrong_conv_as_a_failed_operation(tmp_path, monkeypatch):
    real_import = workloads.import_scivid

    def import_with_wrong_conv():
        package, mods = real_import()
        conv3d = mods["tensor"].conv3d

        @functools.wraps(conv3d)
        def off_by_a_bit(*args, **kwargs):
            out = conv3d(*args, **kwargs)
            out.data[:, :, -1] *= 1.01  # the last frame of every conv is 1% off
            return out

        monkeypatch.setattr(mods["tensor"], "conv3d", off_by_a_bit)
        return package, mods

    monkeypatch.setattr(workloads, "import_scivid", import_with_wrong_conv)
    records = run_tiny("infer-t128", 0, tmp_path)["records"]
    assert [r.error is None for r in records] == [True, False]
    assert "conv output" in records[1].error


def test_training_checks_reject_corruption(tmp_path):
    workload, state = setup_tiny("train-c16", 0, tmp_path)
    workload.rounds(state, tracing.Tracer(), 0.0, False)
    analytic, finite_diff = workload.directional_derivatives(state)
    checks.check_directional(analytic, finite_diff)

    def scale_largest_entry(grads):
        name = max(grads, key=lambda n: np.abs(grads[n]).max())
        flat = grads[name].reshape(-1)
        flat[np.abs(flat).argmax()] *= 1.5

    analytic, finite_diff = workload.directional_derivatives(state,
                                                             corrupt=scale_largest_entry)
    with Rejected:
        checks.check_directional(analytic, finite_diff)
    checks.check_loss_trend([0.2, 0.3, 0.1, 0.05], last=2)
    with Rejected:
        checks.check_loss_trend([0.2, 0.1, 0.3, 0.25], last=2)
    with Rejected:
        checks.check_loss_trend([0.2, float("nan")], last=2)


def test_cli_checks_reject_corruption(tmp_path):
    workload, state = setup_tiny("cli-bayer128", 0, tmp_path)
    codes, texts = workload.op(state)
    workload.check_op(state, (codes, texts), [])
    with Rejected:
        checks.check_exit_codes({**codes, 2: 3})
    printed = checks.eval_mean_psnr(texts[4])
    wrong = texts[4].replace(f"{printed:.4f}", f"{printed + 0.01:.4f}")
    with Rejected:  # eval's printed mean no longer matches the files
        workload.check_op(state, (codes, {**texts, 4: wrong}), [])
    y = state["expected_y"]
    flipped = y.copy()
    flipped.view(np.uint64)[3, 4] ^= 1
    with Rejected:
        checks.check_same_bits(flipped, y, "measurement bundle")

    workload.op(state)
    frames_dir = state["paths"]["frames"]
    os.remove(os.path.join(frames_dir, sorted(os.listdir(frames_dir))[0]))
    shape = (workload.spec["b"], 1, workload.spec["size"], workload.spec["size"])
    with Rejected:
        checks.check_exported_frames(frames_dir, shape)
    with Rejected:
        checks.check_exported_frames(frames_dir, (shape[0] - 1, 3) + shape[2:])


def test_run_py_refuses_a_tree_without_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in HERE.iterdir():
        if path.is_file():
            (bench / path.name).write_bytes(path.read_bytes())
    proc = subprocess.run([sys.executable, str(bench / "run.py"), "--workload", "gaptv-256",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, timeout=60, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
