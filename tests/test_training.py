import gc
import math
import tracemalloc

import numpy as np
import pytest

from scivid import forward_model as fm
from scivid import tensor as tn
from scivid import training as tr
from scivid.network import NetworkConfig, build_network, network_forward_tensor
from scivid.tensor import Tensor
from naive_ref import backward_keep_tape, bits, split_full_buffers

MICRO = NetworkConfig(channels=8, blocks=1, split=2, heads=1)
# the network of the training benchmark
C16 = NetworkConfig(channels=16, blocks=1, split=2, heads=2, train_b=8)


def tiny_train_config(**overrides):
    kwargs = dict(lr_initial=1e-3, lr_final=1e-4, epochs_phase1=1, epochs_phase2=1,
                  batch=2, crop=8, count=2, b=2, seed=0)
    kwargs.update(overrides)
    return tr.TrainConfig(**kwargs)


class TestSyntheticData:
    def test_shapes_range_and_count(self):
        cubes = tr.make_synthetic_dataset(3, 4, 16, 16, seed=0)
        assert len(cubes) == 3
        for cube in cubes:
            assert cube.frames.shape == (4, 1, 16, 16)
            assert cube.frames.min() >= 0.0 and cube.frames.max() <= 1.0

    def test_determinism(self):
        a = tr.make_synthetic_dataset(2, 4, 16, 16, seed=7)
        b = tr.make_synthetic_dataset(2, 4, 16, 16, seed=7)
        c = tr.make_synthetic_dataset(2, 4, 16, 16, seed=8)
        for ca, cb in zip(a, b):
            assert np.array_equal(ca.frames, cb.frames)
        assert not np.array_equal(a[0].frames, c[0].frames)

    def test_frames_actually_move(self):
        cube = tr.make_synthetic_dataset(1, 8, 32, 32, seed=1)[0]
        diffs = [np.abs(cube.frames[m + 1] - cube.frames[m]).max() for m in range(7)]
        assert max(diffs) > 0.0

    def test_bounded_motion(self):
        # a shape edge moves at most 3 px per frame, so shifting a frame by 4 px
        # can never align it better than the recorded 1-frame difference allows
        cube = tr.make_synthetic_dataset(1, 4, 48, 48, seed=2)[0]
        a, b = cube.frames[0, 0], cube.frames[1, 0]
        raw = np.mean(np.abs(a - b))
        assert raw < np.mean(np.abs(a)) + np.mean(np.abs(b))  # frames overlap


class TestAugment:
    def test_output_size_and_range(self):
        cube = tr.make_synthetic_dataset(1, 4, 24, 24, seed=3)[0]
        cfg = tiny_train_config(crop=16)
        rng = np.random.default_rng(0)
        out = tr.augment(cube, cfg, rng)
        assert out.frames.shape == (4, 1, 16, 16)
        assert out.frames.min() >= 0.0 and out.frames.max() <= 1.0

    def test_disabled_augmentation_is_center_crop(self):
        cube = tr.make_synthetic_dataset(1, 2, 20, 20, seed=4)[0]
        cfg = tiny_train_config(crop=16, random_crop=False, random_scale=False,
                                random_flip=False)
        out = tr.augment(cube, cfg, np.random.default_rng(0))
        assert np.array_equal(out.frames, cube.frames[:, :, 2:18, 2:18])

    def test_sample_smaller_than_crop_rejected(self):
        cube = tr.make_synthetic_dataset(1, 2, 8, 8, seed=5)[0]
        cfg = tiny_train_config(crop=16, random_scale=False)
        with pytest.raises(ValueError, match="crop"):
            tr.augment(cube, cfg, np.random.default_rng(0))


class TestLossAndAdam:
    def test_mse_matches_numpy(self):
        rng = np.random.default_rng(6)
        pred = Tensor(rng.standard_normal((2, 1, 4, 4)), requires_grad=True)
        truth = rng.standard_normal((2, 1, 4, 4))
        loss = tr.mse_loss(pred, truth)
        assert loss.item() == pytest.approx(np.mean((pred.data - truth) ** 2))

    def test_mse_gradient(self):
        pred = Tensor(np.array([[[[1.0, 2.0]]]]), requires_grad=True, dtype=np.float64)
        truth = np.array([[[[0.0, 0.0]]]])
        tn.backward(tr.mse_loss(pred, truth))
        assert np.allclose(pred.grad, 2 * pred.data / pred.data.size)

    def test_mse_shape_mismatch(self):
        with pytest.raises(tn.ShapeError, match="mismatch"):
            tr.mse_loss(Tensor(np.zeros((1, 1, 2, 2))), np.zeros((1, 1, 2, 3)))

    def test_first_adam_step_is_signed_lr(self):
        params = build_network(MICRO, seed=0)
        name = params.names()[0]
        p = params[name]
        before = p.data.copy()
        for q in params.tensors():
            q.grad = np.zeros_like(q.data)
        p.grad = np.full_like(p.data, 0.5)
        tr.adam_step(params, tr.AdamState(), lr=1e-2)
        # bias correction makes the first update lr * g / (|g| + eps) ~ lr * sign(g)
        assert np.allclose(before - p.data, 1e-2, atol=1e-6)

    def test_nonfinite_gradient_names_parameter(self):
        params = build_network(MICRO, seed=0)
        name = params.names()[3]
        for q in params.tensors():
            q.grad = np.zeros_like(q.data)
        params[name].grad = np.full_like(params[name].data, np.nan)
        with pytest.raises(tr.TrainingDivergence, match=name.replace(".", r"\.")):
            tr.adam_step(params, tr.AdamState(), lr=1e-3)

    def test_grad_clip_bounds_update(self):
        params = build_network(MICRO, seed=0)
        for q in params.tensors():
            q.grad = np.full_like(q.data, 1e6)
        state = tr.AdamState()
        tr.adam_step(params, state, lr=1e-3, grad_clip=1.0)
        # clipped gradients keep the moments finite and small
        assert all(np.linalg.norm(g) <= 1.0 + 1e-9 for g in state.m.values())


class TestTrainLoop:
    def test_history_schedule_and_shape(self):
        cfg = tiny_train_config(epochs_phase1=2, epochs_phase2=1, count=3, batch=2)
        params, history = tr.train(cfg, MICRO)
        # 3 samples, batch 2 -> 2 steps per epoch, 3 epochs
        assert len(history) == 6
        assert [row["step"] for row in history] == list(range(1, 7))
        assert all(row["lr"] == cfg.lr_initial for row in history if row["epoch"] < 2)
        assert all(row["lr"] == cfg.lr_final for row in history if row["epoch"] == 2)
        assert all(math.isfinite(row["loss"]) for row in history)

    def test_determinism_across_runs(self):
        cfg = tiny_train_config()
        _, h1 = tr.train(cfg, MICRO)
        _, h2 = tr.train(cfg, MICRO)
        assert h1 == h2

    def test_masks_stay_fixed(self):
        cfg = tiny_train_config()
        masks = fm.generate_masks(cfg.b, cfg.crop, cfg.crop, seed=99)
        snapshot = masks.masks.copy()
        tr.train(cfg, MICRO, masks=masks)
        assert np.array_equal(masks.masks, snapshot)

    def test_loss_decreases_when_overfitting(self):
        cfg = tiny_train_config(lr_initial=3e-3, lr_final=1e-3,
                                epochs_phase1=20, epochs_phase2=5,
                                count=1, batch=1, random_crop=False,
                                random_scale=False, random_flip=False)
        _, history = tr.train(cfg, MICRO)
        assert history[-1]["loss"] < history[0]["loss"]

    def test_divergence_raises(self):
        cfg = tiny_train_config()
        params = build_network(MICRO, seed=0)
        params.tensors()[0].data[:] = np.nan
        with pytest.raises(tr.TrainingDivergence):
            tr.train(cfg, MICRO, params=params)

    def test_history_csv_format(self, tmp_path):
        cfg = tiny_train_config()
        _, history = tr.train(cfg, MICRO)
        path = tmp_path / "loss.csv"
        tr.save_history_csv(path, history)
        lines = path.read_text().splitlines()
        assert lines[0] == "step,epoch,lr,loss"
        assert len(lines) == len(history) + 1
        first = lines[1].split(",")
        assert first[0] == "1" and float(first[3]) == pytest.approx(history[0]["loss"])


def sample(size, seed=3):
    cube = tr.make_synthetic_dataset(1, 8, size, size, seed=seed)[0]
    masks = fm.generate_masks(8, size, size, density=0.5, seed=seed + 1)
    return cube, masks, fm.encode(cube, masks)


def keep_tape(monkeypatch):
    """Switch autograd to the oracle form: the whole tape kept to the end
    of backward, and full-size zero buffers in split's adjoint."""
    monkeypatch.setattr(tn, "backward", backward_keep_tape)
    monkeypatch.setattr(tn, "split", split_full_buffers)


class TestConsumedTape:
    """``tn.backward`` frees the tape as it goes and changes no bit."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("config, size", [(C16, 64), (NetworkConfig.variant("T"), 32)],
                             ids=["c16-64", "T-32"])
    def test_leaf_gradients_bit_equal_keep_tape(self, monkeypatch, config, size, dtype):
        cube, masks, y = sample(size)

        def grads():
            params = build_network(config, seed=0, dtype=dtype)
            pred = network_forward_tensor(y, masks, params, config, dtype=dtype)
            tn.backward(tr.mse_loss(pred, cube))
            return {name: p.grad for name, p in params.items()}

        new = grads()
        keep_tape(monkeypatch)
        old = grads()
        assert list(new) == list(old)
        for name in new:
            assert new[name].dtype == dtype
            assert np.array_equal(bits(new[name]), bits(old[name])), name

    def test_train_steps_bit_equal_keep_tape(self, monkeypatch):
        cfg = tr.TrainConfig(lr_initial=1e-3, epochs_phase1=1, epochs_phase2=0,
                             batch=2, crop=32, count=6, b=8, seed=5)
        params, history = tr.train(cfg, C16)
        keep_tape(monkeypatch)
        old_params, old_history = tr.train(cfg, C16)
        assert len(history) == 3 and history == old_history
        for name, p in params.items():
            assert np.array_equal(bits(p.data), bits(old_params[name].data)), name

    @staticmethod
    def traced_sample(size=64):
        """(memory held at the end of the forward, peak during backward,
        memory held after backward while ``loss`` is still referenced),
        in bytes above the start, for one C=16 training sample."""
        params = build_network(C16, seed=0)
        cube, masks, y = sample(size)
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            pred = network_forward_tensor(y, masks, params, C16)
            loss = tr.mse_loss(pred, cube)
            held_forward = tracemalloc.get_traced_memory()[0] - base
            tn.backward(loss)
            held_after, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert loss.item() > 0  # loss (and pred) are still referenced here
        return held_forward, peak - base, held_after - base

    def test_memory_held_after_backward_is_small(self):
        # Only the leaf gradients (about 0.15 MB) and the output values of
        # pred and loss stay: 0.35 MiB at 8x64^2, where the forward holds
        # 29 MiB.  Keeping the tape held 99.6 MiB.
        held_forward, _, held_after = self.traced_sample()
        assert held_after < 1 << 20, f"{held_after / 2**20:.2f} MiB held after backward"

    def test_sample_peak_under_twice_the_forward(self):
        # Each activation is freed once its last consumer's adjoint has run:
        # the peak is 1.6x the forward's memory at 8x64^2 (4.1x with the
        # whole tape kept).
        held_forward, peak, _ = self.traced_sample()
        assert peak < 2 * held_forward, f"peak {peak / held_forward:.2f}x the forward"
