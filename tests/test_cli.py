"""CLI dispatch: exit codes, file emission, seeded reproducibility."""

import json
import os

import numpy as np
import pytest

from augseg import daug
from augseg.cli import dispatch
from augseg.netpbm import read_ppm, write_pgm


@pytest.fixture()
def dataset(tmp_path):
    root = tmp_path / "data"
    code = dispatch(["synth", "--count", "4", "--test-count", "3",
                     "--seed", "11", "--out", str(root)])
    assert code == 0
    return root


class TestDispatch:
    def test_no_subcommand(self, capsys):
        assert dispatch([]) == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_subcommand(self, capsys):
        assert dispatch(["frobnicate"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_flag_rejected(self, capsys):
        assert dispatch(["selftest", "--bogus"]) == 1

    def test_help_available_for_each_subcommand(self):
        for cmd in ("synth", "train", "eval", "ablate", "dwt", "wt-aug",
                    "metrics", "featviz", "selftest"):
            with pytest.raises(SystemExit) as exc:
                dispatch([cmd, "--help"])
            assert exc.value.code == 0

    def test_selftest_passes(self, capsys):
        assert dispatch(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "ok" in out and "FAIL" not in out


class TestSynthCommand:
    def test_emits_files_and_manifest(self, dataset):
        manifest = json.loads((dataset / "manifest.json").read_text())
        assert len(manifest["samples"]) == 7
        splits = {e["split"] for e in manifest["samples"]}
        assert splits == {"train", "test"}
        first = manifest["samples"][0]
        assert (dataset / first["image"]).exists()
        assert (dataset / first["mask"]).exists()

    def test_seed_reproducible(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        dispatch(["synth", "--count", "2", "--seed", "5", "--out", str(a)])
        dispatch(["synth", "--count", "2", "--seed", "5", "--out", str(b)])
        for name in sorted(os.listdir(a)):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("AUGSEG_SEED", "5")
        a = tmp_path / "a"
        dispatch(["synth", "--count", "1", "--out", str(a)])
        b = tmp_path / "b"
        dispatch(["synth", "--count", "1", "--seed", "5", "--out", str(b)])
        img = [n for n in os.listdir(a) if n.endswith(".pgm")][0]
        assert (a / img).read_bytes() == (b / img).read_bytes()


class TestWaveletCommands:
    def test_dwt_writes_four_subbands(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        arr = rng.normal(size=(1, 2, 8, 8)).astype(np.float32)
        infile = tmp_path / "f.daug"
        daug.write_tensor(infile, arr)
        prefix = str(tmp_path / "s")
        assert dispatch(["dwt", "--in", str(infile),
                         "--out-prefix", prefix]) == 0
        for band in ("LL", "LH", "HL", "HH"):
            assert os.path.exists(f"{prefix}_{band}.daug")
        ll = daug.read_tensor(f"{prefix}_LL.daug")
        assert ll.shape == (1, 2, 4, 4)

    def test_wt_aug_identity_when_keeping_all(self, tmp_path):
        rng = np.random.default_rng(1)
        arr = rng.normal(size=(1, 1, 6, 6)).astype(np.float32)
        infile = tmp_path / "f.daug"
        outfile = tmp_path / "g.daug"
        daug.write_tensor(infile, arr)
        assert dispatch(["wt-aug", "--in", str(infile), "--out", str(outfile),
                         "--seed", "3", "--keep-prob", "1,1,1,1"]) == 0
        np.testing.assert_array_equal(daug.read_tensor(outfile), arr)

    def test_wt_aug_seed_reproducible(self, tmp_path):
        rng = np.random.default_rng(2)
        arr = rng.normal(size=(1, 1, 8, 8)).astype(np.float32)
        infile = tmp_path / "f.daug"
        daug.write_tensor(infile, arr)
        outs = []
        for name in ("a.daug", "b.daug"):
            out = tmp_path / name
            dispatch(["wt-aug", "--in", str(infile), "--out", str(out),
                      "--seed", "7"])
            outs.append(daug.read_tensor(out))
        np.testing.assert_array_equal(outs[0], outs[1])

    def test_missing_input_is_exit_1(self, tmp_path, capsys):
        code = dispatch(["dwt", "--in", str(tmp_path / "nope.daug"),
                         "--out-prefix", str(tmp_path / "s")])
        assert code == 1
        assert "augseg:" in capsys.readouterr().err

    def test_corrupt_daug_is_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.daug"
        bad.write_bytes(b"DAUG\x01\x00\x00\x00\x01")
        code = dispatch(["dwt", "--in", str(bad),
                         "--out-prefix", str(tmp_path / "s")])
        assert code == 1


class TestMetricsCommand:
    def test_reports_scores(self, tmp_path, capsys):
        pred = np.zeros((8, 8), dtype=np.uint8)
        gt = np.zeros((8, 8), dtype=np.uint8)
        pred[2:5, 2:5] = 1
        gt[2:5, 2:5] = 1
        write_pgm(tmp_path / "pred.pgm", pred)
        write_pgm(tmp_path / "gt.pgm", gt)
        out_csv = tmp_path / "m.csv"
        code = dispatch(["metrics", "--pred", str(tmp_path / "pred.pgm"),
                         "--gt", str(tmp_path / "gt.pgm"),
                         "--classes", "2", "--out", str(out_csv)])
        assert code == 0
        assert "dice 1.0000" in capsys.readouterr().out
        assert out_csv.exists()


class TestFeatvizCommand:
    def test_writes_ppm(self, tmp_path):
        rng = np.random.default_rng(3)
        arr = rng.normal(size=(1, 8, 12, 12)).astype(np.float32)
        infile = tmp_path / "f.daug"
        daug.write_tensor(infile, arr)
        out = tmp_path / "viz.ppm"
        assert dispatch(["featviz", "--in", str(infile), "--out", str(out),
                         "--seed", "0"]) == 0
        img = read_ppm(out)
        assert img.shape == (12, 12, 3)

    def test_constant_map_is_flat_gray(self, tmp_path):
        arr = np.full((1, 4, 6, 6), 3.0, dtype=np.float32)
        infile = tmp_path / "f.daug"
        daug.write_tensor(infile, arr)
        out = tmp_path / "viz.ppm"
        assert dispatch(["featviz", "--in", str(infile), "--out", str(out)]) == 0
        assert (read_ppm(out) == 128).all()

    def test_too_few_channels_is_exit_1(self, tmp_path):
        arr = np.zeros((1, 2, 4, 4), dtype=np.float32)
        infile = tmp_path / "f.daug"
        daug.write_tensor(infile, arr)
        code = dispatch(["featviz", "--in", str(infile),
                         "--out", str(tmp_path / "v.ppm")])
        assert code == 1


class TestTrainEvalCommands:
    def test_train_then_eval(self, dataset, tmp_path, capsys):
        run_dir = tmp_path / "run"
        code = dispatch(["train", "--data", str(dataset), "--out",
                         str(run_dir), "--epochs", "2", "--shots", "1",
                         "--seed", "0", "--arm", "feature_wavelet"])
        assert code == 0
        assert (run_dir / "train_log.csv").exists()
        csv_out = tmp_path / "eval.csv"
        code = dispatch(["eval", "--checkpoint", str(run_dir / "checkpoint"),
                         "--data", str(dataset), "--out", str(csv_out)])
        assert code == 0
        assert "mean dice" in capsys.readouterr().out
        assert csv_out.exists()

    def test_eval_checkpoint_missing_tensor_is_exit_1(self, dataset, tmp_path,
                                                      capsys):
        run_dir = tmp_path / "run"
        assert dispatch(["train", "--data", str(dataset), "--out",
                         str(run_dir), "--epochs", "1", "--shots", "1",
                         "--seed", "0"]) == 0
        missing = run_dir / "checkpoint" / "head.out.bias.daug"
        missing.unlink()
        code = dispatch(["eval", "--checkpoint", str(run_dir / "checkpoint"),
                         "--data", str(dataset)])
        assert code == 1
        assert "head.out.bias.daug" in capsys.readouterr().err

    def test_eval_non_finite_stage_feature_is_exit_1(self, dataset, tmp_path,
                                                     capsys):
        from augseg.model import EncoderSpec, Network, NetworkConfig, \
            save_checkpoint
        template = str(tmp_path / "feat_stage{stage}.daug")
        spec = EncoderSpec(kind="file", path_template=template)
        for i, (c, s) in enumerate(zip(spec.channels, spec.strides), start=1):
            arr = np.zeros((1, c, 64 // s, 64 // s), dtype=np.float32)
            if i == 2:
                arr[0, 0, 1, 1] = np.nan
            daug.write_tensor(template.format(stage=i), arr)
        ckpt = tmp_path / "ckpt"
        save_checkpoint(ckpt, Network(NetworkConfig(encoder=spec)), epoch=0,
                        seed=0)
        code = dispatch(["eval", "--checkpoint", str(ckpt),
                         "--data", str(dataset)])
        assert code == 1
        assert "non-finite" in capsys.readouterr().err

    def test_config_file_round(self, dataset, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "train": {"epochs": 1, "shots": 1, "augmentation": "none"},
            "network": {"num_classes": 3, "image_size": 64},
        }))
        code = dispatch(["train", "--data", str(dataset),
                         "--out", str(tmp_path / "r"), "--config",
                         str(cfg_path), "--seed", "1"])
        assert code == 0

    def test_bad_config_is_exit_1(self, dataset, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        code = dispatch(["train", "--data", str(dataset),
                         "--out", str(tmp_path / "r"), "--config", str(bad)])
        assert code == 1

    def test_unknown_config_key_is_exit_1(self, dataset, tmp_path, capsys):
        for blob, words in (({"train": {"epochz": 1}}, ("epochz", "train")),
                            ({"network": {"heads": 2}}, ("heads", "network")),
                            ({"trian": {}}, ("trian",)),
                            ({"train": [1]}, ("train",))):
            cfg_path = tmp_path / "cfg.json"
            cfg_path.write_text(json.dumps(blob))
            code = dispatch(["train", "--data", str(dataset),
                             "--out", str(tmp_path / "r"), "--config",
                             str(cfg_path)])
            assert code == 1, blob
            err = capsys.readouterr().err
            assert "internal error" not in err
            assert all(w in err for w in words), err

    def test_unknown_nested_config_key_is_exit_1(self, dataset, tmp_path,
                                                 capsys):
        for blob, words in (
                ({"network": {"encoder": {"chanels": [4, 6, 8, 10]}}},
                 ("chanels", "network.encoder")),
                ({"network": {"encoder": [4, 6, 8, 10]}},
                 ("network.encoder", "object")),
                ({"network": {"wt_aug": [{"sed": 1}] + [{}] * 3}},
                 ("sed", "network.wt_aug[0]")),
                ({"network": {"wt_aug": [{}, {}, 5, {}]}},
                 ("network.wt_aug[2]", "object")),
                ({"network": {"wt_aug": {"seed": 1}}},
                 ("network.wt_aug", "list"))):
            cfg_path = tmp_path / "cfg.json"
            cfg_path.write_text(json.dumps(blob))
            code = dispatch(["train", "--data", str(dataset),
                             "--out", str(tmp_path / "r"), "--config",
                             str(cfg_path)])
            assert code == 1, blob
            err = capsys.readouterr().err
            assert "internal error" not in err
            assert all(w in err for w in words), err

    def test_nested_config_sections_reach_network(self, dataset, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"network": {
            "head_count": 2,
            "encoder": {"channels": [4, 6, 8, 10], "seed": 2},
            "wt_aug": [{"keep_prob": [1, 1, 1, 1], "seed": 3}] * 4}}))
        run_dir = tmp_path / "run"
        assert dispatch(["train", "--data", str(dataset), "--out",
                         str(run_dir), "--config", str(cfg_path),
                         "--epochs", "1", "--shots", "1"]) == 0
        config = json.loads(
            (run_dir / "checkpoint" / "checkpoint.json").read_text())["config"]
        assert config["encoder"]["channels"] == [4, 6, 8, 10]
        assert config["wt_aug"][3]["seed"] == 3

    @pytest.mark.parametrize("flag,value", [
        ("--batch-size", "-1"), ("--batch-size", "0"), ("--epochs", "0"),
        ("--epochs", "-2"), ("--shots", "0"), ("--shots", "-1")])
    def test_train_count_below_one_is_exit_1(self, dataset, tmp_path, capsys,
                                             flag, value):
        run_dir = tmp_path / "run"
        args = {"--epochs": "1", "--shots": "1", "--batch-size": "1",
                flag: value}
        code = dispatch(["train", "--data", str(dataset), "--out",
                         str(run_dir)] + [x for kv in args.items() for x in kv])
        assert code == 1
        err = capsys.readouterr().err
        name = flag[2:].replace("-", "_")
        assert f"{name} must be at least 1, got {value}" in err, err
        assert not run_dir.exists()

    def test_head_count_not_dividing_fusion_width_is_exit_1(
            self, dataset, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"network": {"head_count": 5}}))
        code = dispatch(["train", "--data", str(dataset),
                         "--out", str(tmp_path / "r"), "--config",
                         str(cfg_path), "--epochs", "1", "--shots", "1"])
        assert code == 1
        assert "head_count 5" in capsys.readouterr().err

    def test_no_cg_fuse_flag_reaches_network_config(self, dataset, tmp_path):
        run_dir = tmp_path / "run"
        assert dispatch(["train", "--data", str(dataset), "--out",
                         str(run_dir), "--epochs", "1", "--shots", "1",
                         "--no-cg-fuse"]) == 0
        manifest = json.loads(
            (run_dir / "checkpoint" / "checkpoint.json").read_text())
        assert manifest["config"]["use_cg_fuse"] is False

    def test_eval_non_finite_checkpoint_tensor_is_exit_1(self, dataset,
                                                         tmp_path, capsys):
        run_dir = tmp_path / "run"
        assert dispatch(["train", "--data", str(dataset), "--out",
                         str(run_dir), "--epochs", "1", "--shots", "1",
                         "--seed", "0"]) == 0
        path = run_dir / "checkpoint" / "fusion.level3.w_q.daug"
        arr = daug.read_tensor(path)
        arr.reshape(-1)[0] = np.nan
        daug.write_tensor(path, arr)
        code = dispatch(["eval", "--checkpoint", str(run_dir / "checkpoint"),
                         "--data", str(dataset)])
        assert code == 1
        err = capsys.readouterr().err
        assert "fusion.level3.w_q" in err and "non-finite" in err

    def test_ablate_degenerate_single_seed(self, dataset, tmp_path, capsys):
        code = dispatch(["ablate", "--data", str(dataset), "--out",
                         str(tmp_path / "abl"), "--mode", "table8",
                         "--seeds", "0", "--epochs", "1", "--shots", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "wilcoxon" in out
        assert (tmp_path / "abl" / "ablation.csv").exists()
