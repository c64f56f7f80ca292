import numpy as np
import pytest

from scivid import cli, container
from scivid import forward_model as fm
from scivid.network import NetworkConfig, build_network
from scivid.training import make_synthetic_dataset


@pytest.fixture
def scene_files(tmp_path):
    vid = make_synthetic_dataset(1, 4, 16, 16, seed=0)[0]
    video_path = tmp_path / "video.tenb"
    container.write_tensor(video_path, vid.frames.astype(np.float64))
    return tmp_path, vid, video_path


def run(argv):
    return cli.main([str(a) for a in argv])


class TestEncode:
    def test_encode_with_generated_masks(self, scene_files, capsys):
        tmp, vid, video_path = scene_files
        out = tmp / "meas.bundle"
        masks_out = tmp / "masks.tenb"
        code = run(["encode", "--video", video_path, "--gen-masks", "4,0.5,7",
                    "--save-masks", masks_out, "--out", out])
        assert code == 0
        assert "B=4" in capsys.readouterr().out
        meas = container.read_measurement(out)
        masks = fm.MaskSet(container.read_tensor(masks_out))
        expect = fm.encode(vid, fm.generate_masks(4, 16, 16, density=0.5, seed=7))
        assert np.array_equal(meas.y, expect.y)
        assert masks.masks.shape == (4, 16, 16)

    def test_encode_requires_mask_source(self, scene_files, capsys):
        tmp, _, video_path = scene_files
        code = run(["encode", "--video", video_path, "--out", tmp / "m"])
        assert code == cli.EXIT_USAGE
        assert "error:" in capsys.readouterr().err

    def test_missing_video_file(self, tmp_path, capsys):
        code = run(["encode", "--video", tmp_path / "nope.tenb",
                    "--gen-masks", "4,0.5,0", "--out", tmp_path / "m"])
        assert code == cli.EXIT_USAGE

    def test_bad_gen_masks_spec(self, scene_files):
        tmp, _, video_path = scene_files
        code = run(["encode", "--video", video_path, "--gen-masks", "4;0.5;0",
                    "--out", tmp / "m"])
        assert code == cli.EXIT_USAGE


@pytest.fixture
def measurement_files(scene_files):
    tmp, vid, video_path = scene_files
    masks = fm.generate_masks(4, 16, 16, seed=7)
    meas = fm.encode(vid, masks)
    meas_path = tmp / "meas.bundle"
    masks_path = tmp / "masks.tenb"
    container.write_measurement(meas_path, meas)
    container.write_tensor(masks_path, masks.masks.astype(np.float64))
    return tmp, vid, meas_path, masks_path


class TestReconstruct:
    def test_gaptv_method(self, measurement_files, capsys):
        tmp, vid, meas_path, masks_path = measurement_files
        out = tmp / "recon.tenb"
        code = run(["reconstruct", "--measurement", meas_path, "--masks", masks_path,
                    "--method", "gaptv", "--iters", 10, "--out", out])
        assert code == 0
        recon = container.read_tensor(out)
        assert recon.shape == (4, 1, 16, 16)
        assert np.all(np.isfinite(recon))

    def test_init_method(self, measurement_files):
        tmp, vid, meas_path, masks_path = measurement_files
        out = tmp / "init.tenb"
        assert run(["reconstruct", "--measurement", meas_path, "--masks", masks_path,
                    "--method", "init", "--out", out]) == 0
        assert container.read_tensor(out).shape == (4, 1, 16, 16)

    def test_net_method_with_checkpoint(self, measurement_files):
        tmp, vid, meas_path, masks_path = measurement_files
        config = NetworkConfig(channels=8, blocks=1, split=2, heads=1)
        params = build_network(config, seed=0)
        ckpt = tmp / "net.ckpt"
        container.write_checkpoint(ckpt, params, config)
        out = tmp / "net_recon.tenb"
        code = run(["reconstruct", "--measurement", meas_path, "--masks", masks_path,
                    "--method", "net", "--checkpoint", ckpt, "--out", out,
                    "--export-ppm", tmp / "frames"])
        assert code == 0
        assert container.read_tensor(out).shape == (4, 1, 16, 16)
        assert len(list((tmp / "frames").iterdir())) == 4

    def test_net_without_checkpoint_is_usage_error(self, measurement_files):
        tmp, _, meas_path, masks_path = measurement_files
        assert run(["reconstruct", "--measurement", meas_path, "--masks", masks_path,
                    "--method", "net", "--out", tmp / "r"]) == cli.EXIT_USAGE

    def test_variant_mismatch_detected(self, measurement_files):
        tmp, _, meas_path, masks_path = measurement_files
        config = NetworkConfig(channels=8, blocks=1, split=2, heads=1)
        ckpt = tmp / "net.ckpt"
        container.write_checkpoint(ckpt, build_network(config, seed=0), config)
        assert run(["reconstruct", "--measurement", meas_path, "--masks", masks_path,
                    "--method", "net", "--checkpoint", ckpt, "--variant", "T",
                    "--out", tmp / "r"]) == cli.EXIT_USAGE


class TestTrainEval:
    def test_train_then_reconstruct_and_eval(self, tmp_path, capsys):
        cfg_path = tmp_path / "train.cfg"
        cfg_path.write_text(
            "channels = 8\nblocks = 1\nsplit = 2\nheads = 1\n"
            "crop = 8\nb = 2\ncount = 2\nbatch = 2\nseed = 0\n"
            "epochs_phase1 = 1\nepochs_phase2 = 1\n"
            "lr_initial = 1e-3\nlr_final = 1e-4\n"
            "random_scale = no\n")
        ckpt = tmp_path / "out.ckpt"
        csv = tmp_path / "loss.csv"
        code = run(["train", "--config", cfg_path, "--out-checkpoint", ckpt,
                    "--loss-csv", csv])
        assert code == 0
        assert "checkpoint written" in capsys.readouterr().out
        assert csv.read_text().splitlines()[0] == "step,epoch,lr,loss"
        config, arrays = container.read_checkpoint(ckpt)
        assert (config.channels, config.blocks) == (8, 1)

        vid = make_synthetic_dataset(1, 2, 8, 8, seed=5)[0]
        truth_path = tmp_path / "truth.tenb"
        container.write_tensor(truth_path, vid.frames.astype(np.float64))
        masks = fm.generate_masks(2, 8, 8, seed=6)
        masks_path = tmp_path / "masks.tenb"
        container.write_tensor(masks_path, masks.masks.astype(np.float64))
        meas_path = tmp_path / "meas.bundle"
        container.write_measurement(meas_path, fm.encode(vid, masks))
        recon_path = tmp_path / "recon.tenb"
        assert run(["reconstruct", "--measurement", meas_path, "--masks", masks_path,
                    "--method", "net", "--checkpoint", ckpt, "--out", recon_path]) == 0

        assert run(["eval", "--pred", recon_path, "--truth", truth_path,
                    "--ssim-window", 7]) == 0
        table = capsys.readouterr().out
        assert "PSNR(dB)" in table and "mean" in table

    def test_unknown_config_key(self, tmp_path):
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text("momentum = 0.9\n")
        assert run(["train", "--config", cfg_path,
                    "--out-checkpoint", tmp_path / "c"]) == cli.EXIT_USAGE

    def test_eval_ssim_fallback_for_small_frames(self, tmp_path, capsys):
        vid = make_synthetic_dataset(1, 2, 8, 8, seed=1)[0]
        p = tmp_path / "a.tenb"
        container.write_tensor(p, vid.frames.astype(np.float64))
        assert run(["eval", "--pred", p, "--truth", p]) == 0
        assert "n/a" in capsys.readouterr().out

    @pytest.mark.parametrize("cut", [4, 10])
    def test_eval_truncated_header_is_format_error(self, tmp_path, capsys, cut):
        good = tmp_path / "a.tenb"
        container.write_tensor(good, np.zeros((2, 1, 8, 8)))
        bad = tmp_path / "cut.tenb"
        bad.write_bytes(good.read_bytes()[:cut])
        assert run(["eval", "--pred", bad, "--truth", good]) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert "truncated" in err and "Traceback" not in err


class TestComplexity:
    def test_report_contents(self, capsys):
        assert run(["complexity", "--variant", "T", "--shape", "8,256,256"]) == 0
        out = capsys.readouterr().out
        assert "parameters: 704161 (0.704 M)" in out
        assert "143.62 G" in out
        for comp in ("SCB", "TSAB", "SCB3D", "G-MSA", "TS-MSA"):
            assert comp in out

    def test_bad_shape(self, capsys):
        assert run(["complexity", "--variant", "T", "--shape", "8x256x256"]) == cli.EXIT_USAGE
