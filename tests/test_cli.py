"""CLI dispatch: exit codes, file emission, seeded reproducibility."""

import json
import os
import warnings

import numpy as np
import pytest

from augseg import daug
from augseg.cli import dispatch
from augseg.netpbm import read_pgm, read_ppm, write_pgm


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

    @pytest.mark.parametrize("flag,value,words", [
        ("--count", "-1", ("--count", "-1")),
        ("--test-count", "-3", ("--test-count", "-3")),
        ("--size", "0", ("image_size", "20")),
        ("--size", "19", ("image_size", "20")),
        ("--classes", "1", ("num_classes", "[2, 256]")),
        ("--classes", "300", ("num_classes", "[2, 256]"))])
    def test_what_it_cannot_generate_is_exit_1(self, tmp_path, capsys, flag,
                                               value, words):
        out = tmp_path / "data"
        args = {"--count": "2", "--test-count": "1", "--seed": "0",
                flag: value}
        code = dispatch(["synth", "--out", str(out)]
                        + [x for kv in args.items() for x in kv])
        assert code == 1
        captured = capsys.readouterr()
        assert "internal error" not in captured.err
        assert all(w in captured.err for w in words), captured.err
        assert not out.exists() and "wrote" not in captured.out

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


class TestHaarCommandRange:
    """dwt and wt-aug sum up to four inputs per output in float32, so
    they take |x| <= max/4 and reject more before writing anything."""

    @pytest.mark.parametrize("cmd", ["dwt", "wt-aug"])
    @pytest.mark.parametrize("value", [3e38, 8.6e37])
    def test_beyond_a_quarter_of_max_is_exit_1(self, tmp_path, capsys, cmd,
                                               value):
        infile = tmp_path / "f.daug"
        daug.write_tensor(infile, np.full((1, 2, 4, 4), value, np.float32))
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        assert dispatch(_command(cmd, infile, out_dir / "o")) == 1
        err = capsys.readouterr().err
        assert "internal error" not in err
        assert str(infile) in err and "finite" in err, err
        assert not any(out_dir.iterdir())

    @pytest.mark.parametrize("cmd", ["dwt", "wt-aug"])
    def test_a_quarter_of_max_is_finite(self, tmp_path, cmd):
        quarter = np.finfo(np.float32).max / 4
        infile = tmp_path / "f.daug"
        daug.write_tensor(infile, np.full((1, 2, 5, 4), quarter, np.float32))
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert dispatch(_command(cmd, infile, out_dir / "o")) == 0
        outs = sorted(out_dir.iterdir())
        assert len(outs) == (4 if cmd == "dwt" else 1)
        for out in outs:
            assert np.isfinite(daug.read_tensor(out)).all(), out


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

    @pytest.mark.parametrize("classes", ["1", "0", "-1"])
    def test_fewer_than_two_classes_is_exit_1(self, tmp_path, capsys,
                                              classes):
        mask = np.zeros((8, 8), dtype=np.uint8)
        write_pgm(tmp_path / "m.pgm", mask)
        out_csv = tmp_path / "m.csv"
        code = dispatch(["metrics", "--pred", str(tmp_path / "m.pgm"),
                         "--gt", str(tmp_path / "m.pgm"), "--classes",
                         classes, "--out", str(out_csv)])
        assert code == 1
        captured = capsys.readouterr()
        assert "--classes must be at least 2" in captured.err, captured.err
        assert "dice" not in captured.out and not out_csv.exists()


class TestFeatvizCommand:
    def test_writes_ppm(self, tmp_path):
        rng = np.random.default_rng(3)
        arr = rng.normal(size=(1, 8, 12, 12)).astype(np.float32)
        infile = tmp_path / "f.daug"
        daug.write_tensor(infile, arr)
        out = tmp_path / "viz.ppm"
        assert dispatch(["featviz", "--in", str(infile), "--out", str(out)]) == 0
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


def _check_config_exit_1(dataset, tmp_path, capsys, blob, words):
    """``train --config`` with ``blob`` exits 1 before training, and its
    message holds every one of ``words``."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(blob))
    run_dir = tmp_path / "run"
    code = dispatch(["train", "--data", str(dataset), "--out", str(run_dir),
                     "--config", str(cfg_path), "--epochs", "1",
                     "--shots", "1"])
    assert code == 1, blob
    err = capsys.readouterr().err
    assert "internal error" not in err
    assert all(w in err for w in words), err
    assert not run_dir.exists()


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
                # masks are drawn from the training run's generator
                ({"network": {"wt_aug": [{"seed": -1}] + [{}] * 3}},
                 ("'seed'", "network.wt_aug[0]")),
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

    def test_config_field_of_wrong_type_is_exit_1(self, dataset, tmp_path,
                                                  capsys):
        for blob, words in (
                ({"train": {"epochs": 1.5}}, ("train.epochs", "integer")),
                ({"train": {"learning_rate": "0.1"}},
                 ("train.learning_rate", "number")),
                ({"network": {"head_count": 2.0}},
                 ("network.head_count", "integer")),
                ({"train": {"shots": True}}, ("train.shots", "integer")),
                ({"network": {"encoder": {"seed": "1"}}},
                 ("network.encoder.seed", "integer")),
                ({"network": {"wt_aug": [{"channel_shared": 1}] + [{}] * 3}},
                 ("network.wt_aug[0].channel_shared", "boolean"))):
            cfg_path = tmp_path / "cfg.json"
            cfg_path.write_text(json.dumps(blob))
            code = dispatch(["train", "--data", str(dataset),
                             "--out", str(tmp_path / "r"), "--config",
                             str(cfg_path)])
            assert code == 1, blob
            err = capsys.readouterr().err
            assert "internal error" not in err
            assert all(w in err for w in words), err

    @pytest.mark.parametrize("blob,words", [
        ({"train": {"eps": 0}}, ("eps", "positive")),
        ({"train": {"eps": float("inf")}}, ("eps", "finite")),
        ({"train": {"betas": [1.5, 0.999]}}, ("betas", "[0, 1)")),
        ({"train": {"betas": ["a", 0.9]}}, ("betas", "two numbers")),
        ({"train": {"betas": [0.9]}}, ("betas", "two numbers")),
        ({"network": {"wt_aug": [{"keep_prob": ["x", 1, 1, 1]}] + [{}] * 3}},
         ("keep_prob", "'x'"))])
    def test_bad_adam_or_keep_prob_entries_are_exit_1(self, dataset, tmp_path,
                                                      capsys, blob, words):
        _check_config_exit_1(dataset, tmp_path, capsys, blob, words)

    @pytest.mark.parametrize("blob,words", [
        ({"decoder_channels": value}, ("decoder_channels", "3 integers"))
        for value in ([8], [8, 8, 8, 8], [0, 8, 8], ["a", 8, 8],
                      [48.0, 32, 24])] + [
        ({"encoder": {"channels": value}}, ("encoder.channels", "4 integers"))
        for value in (["a", 1, 2, 3], [0, 6, 8, 10], [24, 32, 48, 64.5])] + [
        ({"encoder": {"strides": value}}, ("encoder.strides",))
        # the last two divide evenly, but the decoder cannot upsample them
        for value in ([0, 0, 0, 0], [4, 6, 16, 32], [3, 8, 16, 32],
                      [4, 4, 16, 32], [1, 2, 4, 8])] + [
        # 0 and -32 divide by the deepest stride but size no image; 48 does
        # not divide
        ({"image_size": value}, ("image_size", "positive multiple",
                                 "stride 32", f"got {value}"))
        for value in (0, -32, 48)] + [
        # 0 would drop the attention path, -1 fail in the allocator
        ({"ff_mult": value}, ("ff_mult", "integer >= 1"))
        for value in (0, -1)] + [
        # options of the image-blind feature-file encoder, now gone
        ({"encoder": {key: value}}, (repr(key), "network.encoder"))
        for key, value in (("in_channels", 3), ("kind", "toy"),
                           ("path_template", "f{stage}.daug"))])
    def test_bad_encoder_or_decoder_field_is_exit_1(self, dataset, tmp_path,
                                                    capsys, blob, words):
        _check_config_exit_1(dataset, tmp_path, capsys, {"network": blob},
                             words)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0"])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_learning_rate_not_positive_finite_is_exit_1(
            self, dataset, tmp_path, capsys, source, value):
        run_dir = tmp_path / "run"
        args = ["train", "--data", str(dataset), "--out", str(run_dir),
                "--epochs", "1", "--shots", "1"]
        if source == "flag":
            args.append(f"--lr={value}")
        else:
            cfg_path = tmp_path / "cfg.json"
            cfg_path.write_text(json.dumps(
                {"train": {"learning_rate": float(value)}}))
            args += ["--config", str(cfg_path)]
        assert dispatch(args) == 1
        err = capsys.readouterr().err
        assert "internal error" not in err
        assert "learning rate must be a positive finite number" in err, err
        assert not run_dir.exists()

    def test_int_accepted_for_float_config_field(self, dataset, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"train": {"learning_rate": 1,
                                                  "eps": 1}}))
        assert dispatch(["train", "--data", str(dataset), "--out",
                         str(tmp_path / "run"), "--config", str(cfg_path),
                         "--epochs", "1", "--shots", "1"]) == 0

    def test_nested_config_sections_reach_network(self, dataset, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"network": {
            "head_count": 2,
            "encoder": {"channels": [4, 6, 8, 10], "seed": 2},
            "wt_aug": [{"keep_prob": [1, 1, 1, 1]}] * 4}}))
        run_dir = tmp_path / "run"
        assert dispatch(["train", "--data", str(dataset), "--out",
                         str(run_dir), "--config", str(cfg_path),
                         "--epochs", "1", "--shots", "1"]) == 0
        config = json.loads(
            (run_dir / "checkpoint" / "checkpoint.json").read_text())["config"]
        assert config["encoder"]["channels"] == [4, 6, 8, 10]
        assert config["wt_aug"][3] == {"keep_prob": [1, 1, 1, 1],
                                       "channel_shared": True}

    @pytest.mark.parametrize("strengths,words", [
        ({"foo": 1}, ("unknown corruption_strengths key", "'foo'")),
        ({"length_range": [9, 3]}, ("length_range", "low <= high")),
        ({"length_range": [0, 3]}, ("length_range", "integers >= 1")),
        ({"length_range": [2.5, 3]}, ("length_range", "integers >= 1")),
        ({"kinds": []}, ("kinds", "non-empty")),
        ({"kinds": ["blur"]}, ("kinds", "'blur'")),
        ({"factor_range": [0.5]}, ("factor_range", "two")),
        ({"factor_range": [-0.5, 1]}, ("factor_range", ">= 0")),
        ({"scale_range": [0, 10]}, ("scale_range", "> 0")),
        ({"length_range": [3, 256]}, ("length_range", "<= 255")),
        ({"scale_range": [1e300, 1e300]}, ("scale_range", "<= 1000000")),
        ({"drop_range": [0.5, 1.5]}, ("drop_range", "[0, 1]"))])
    @pytest.mark.parametrize("arm", ["feature_spatial", "image_level"])
    def test_bad_corruption_strengths_are_exit_1(self, dataset, tmp_path,
                                                 capsys, arm, strengths,
                                                 words):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(
            {"train": {"corruption_strengths": strengths}}))
        run_dir = tmp_path / "run"
        code = dispatch(["train", "--data", str(dataset), "--out",
                         str(run_dir), "--config", str(cfg_path), "--arm",
                         arm, "--epochs", "1", "--shots", "1"])
        assert code == 1, strengths
        err = capsys.readouterr().err
        assert "internal error" not in err
        assert all(w in err for w in words), err
        assert not run_dir.exists()

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

    @pytest.mark.parametrize("edit,words", [
        (lambda m: {k: v for k, v in m.items() if k != "config"},
         ("missing key 'config'",)),
        (lambda m: {k: v for k, v in m.items() if k != "parameters"},
         ("missing key 'parameters'",)),
        (lambda m: m | {"config": m["config"] | {"heads": 2}},
         ("unknown key 'heads'", "section 'config'")),
        # a manifest written before the wt_aug seed was dropped
        (lambda m: m | {"config": m["config"] | {"wt_aug": [
            w | {"seed": 0} for w in m["config"]["wt_aug"]]}},
         ("unknown key 'seed'", "config.wt_aug[0]")),
        (lambda m: m | {"config": m["config"] | {"num_classes": "3"}},
         ("config.num_classes", "integer", '"3"')),
        # a manifest written while the feature-file encoder existed
        (lambda m: m | {"config": m["config"] | {"encoder": m["config"][
            "encoder"] | {"kind": "toy"}}},
         ("unknown key 'kind'", "config.encoder")),
        # a manifest written while the ccu skip could take augmented features
        (lambda m: m | {"config": m["config"] | {"ccu_skip_augmented": False}},
         ("unknown key 'ccu_skip_augmented'", "section 'config'")),
        # a manifest written while checkpoints carried the Adam moments
        (lambda m: m | {"optimizer": {"step": 1}},
         ("unknown key 'optimizer'", "the manifest")),
        (lambda m: m | {"config": m["config"] | {"decoder_channels": [8]}},
         ("decoder_channels", "3 integers")),
        (lambda m: m | {"config": m["config"] | {"ff_mult": 0}},
         ("ff_mult", "integer >= 1"))] + [
        (lambda m, v=value: m | {"config": m["config"] | {"image_size": v}},
         ("image_size", "positive multiple", f"got {value}"))
        for value in (0, -32)])
    def test_eval_bad_checkpoint_manifest_is_exit_1(self, dataset, tmp_path,
                                                    capsys, edit, words):
        from augseg.model import Network, NetworkConfig, save_checkpoint
        ckpt = tmp_path / "ckpt"
        save_checkpoint(ckpt, Network(NetworkConfig()), epoch=0, seed=0)
        path = ckpt / "checkpoint.json"
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
        code = dispatch(["eval", "--checkpoint", str(ckpt),
                         "--data", str(dataset)])
        assert code == 1
        err = capsys.readouterr().err
        assert "internal error" not in err
        assert all(w in err for w in words), err

    def test_ablate_degenerate_single_seed(self, dataset, tmp_path, capsys):
        code = dispatch(["ablate", "--data", str(dataset), "--out",
                         str(tmp_path / "abl"), "--mode", "table8",
                         "--seeds", "0", "--epochs", "1", "--shots", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "wilcoxon" in out
        assert (tmp_path / "abl" / "ablation.csv").exists()


def _command(cmd, infile, out):
    """argv for one of the three tensor-reading commands."""
    flag = "--out-prefix" if cmd == "dwt" else "--out"
    return [cmd, "--in", str(infile), flag, str(out)]


class TestTensorInputValues:
    """dwt, wt-aug and featviz reject values they cannot carry, before
    anything is written."""

    @pytest.mark.parametrize("cmd", ["dwt", "wt-aug", "featviz"])
    @pytest.mark.parametrize("value,dtype", [(np.nan, np.float32),
                                             (1e300, np.float64)])
    def test_rejected_with_the_file_named(self, tmp_path, capsys, cmd, value,
                                          dtype):
        arr = np.ones((1, 4, 6, 6), dtype=dtype)
        arr[0, 1, 2, 3] = value
        infile = tmp_path / "f.daug"
        daug.write_tensor(infile, arr)
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        assert dispatch(_command(cmd, infile, out_dir / "o")) == 1
        err = capsys.readouterr().err
        assert "internal error" not in err
        assert str(infile) in err and "finite" in err, err
        assert not any(out_dir.iterdir())


class TestNegativeSeedsAndK:
    """A seed below 0 or featviz --k below 1 is exit 1 where it enters."""

    @staticmethod
    def feature_file(tmp_path):
        infile = tmp_path / "f.daug"
        daug.write_tensor(infile, np.random.default_rng(0).normal(
            size=(1, 4, 6, 6)).astype(np.float32))
        return infile

    def check(self, capsys, argv, words, out):
        assert dispatch(argv) == 1, argv
        err = capsys.readouterr().err
        assert "internal error" not in err
        assert all(w in err for w in words), err
        assert not out.exists()

    def test_synth(self, tmp_path, capsys):
        out = tmp_path / "data"
        self.check(capsys, ["synth", "--count", "1", "--seed", "-1",
                            "--out", str(out)], ("--seed", "-1"), out)

    def test_synth_env_seed(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("AUGSEG_SEED", "-2")
        out = tmp_path / "data"
        self.check(capsys, ["synth", "--count", "1", "--out", str(out)],
                   ("AUGSEG_SEED", "-2"), out)

    def test_train(self, dataset, tmp_path, capsys):
        out = tmp_path / "run"
        self.check(capsys, ["train", "--data", str(dataset), "--out",
                            str(out), "--epochs", "1", "--seed", "-1"],
                   ("--seed", "-1"), out)

    @pytest.mark.parametrize("blob,name", [
        ({"network": {"param_seed": -1}}, "param_seed"),
        ({"network": {"encoder": {"seed": -1}}}, "encoder seed")])
    def test_config_seed(self, dataset, tmp_path, capsys, blob, name):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(blob))
        out = tmp_path / "run"
        self.check(capsys, ["train", "--data", str(dataset), "--out",
                            str(out), "--epochs", "1", "--config",
                            str(cfg_path)], (name, "-1"), out)

    def test_ablate(self, dataset, tmp_path, capsys):
        out = tmp_path / "abl"
        self.check(capsys, ["ablate", "--data", str(dataset), "--out",
                            str(out), "--seeds", "0,-1", "--epochs", "1"],
                   ("--seeds", "-1"), out)

    def test_wt_aug(self, tmp_path, capsys):
        out = tmp_path / "g.daug"
        self.check(capsys, ["wt-aug", "--in", str(self.feature_file(tmp_path)),
                            "--out", str(out), "--seed", "-1"],
                   ("--seed", "-1"), out)

    def test_featviz_seed(self, tmp_path, capsys):
        # featviz's PCA draws nothing, so it takes no seed
        out = tmp_path / "v.ppm"
        self.check(capsys, ["featviz", "--in",
                            str(self.feature_file(tmp_path)), "--out",
                            str(out), "--seed", "0"],
                   ("unrecognized arguments", "--seed"), out)

    @pytest.mark.parametrize("k", ["-1", "0"])
    def test_featviz_k(self, tmp_path, capsys, k):
        out = tmp_path / "v.ppm"
        self.check(capsys, ["featviz", "--in",
                            str(self.feature_file(tmp_path)), "--out",
                            str(out), "--k", k], ("--k", k), out)


def _edit_manifest(dataset, edit):
    path = dataset / "manifest.json"
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))


def _drop(key, index=0):
    """A manifest edit that removes ``key`` from samples[index]."""
    def edit(m):
        m["samples"][index].pop(key)
        return m
    return edit


class TestDatasetManifest:
    """A dataset manifest of the wrong shape is exit 1 naming the entry
    and the key, before anything is trained or evaluated."""

    @pytest.mark.parametrize("edit,words", [
        (_drop("image"), ("samples[0]", "'image'")),
        (_drop("split", 2), ("samples[2]", "'split'")),
        (_drop("id"), ("samples[0]", "'id'")),
        (_drop("mask", 6), ("samples[6]", "'mask'")),
        (lambda m: m | {"samples": m["samples"][:3] + [
            m["samples"][3] | {"id": 3}] + m["samples"][4:]},
         ("samples[3]", "'id'")),
        (lambda m: m | {"samples": m["samples"][:1] + ["train_1.pgm"]},
         ("samples[1]", "object")),
        (lambda m: m | {"samples": 3}, ("samples", "list")),
        (lambda m: m | {"num_classes": "3"}, ("num_classes", "integer", '"3"')),
        (lambda m: m | {"image_size": 64.0}, ("image_size", "integer")),
        (lambda m: m | {"num_classes": True}, ("num_classes", "integer"))])
    @pytest.mark.parametrize("cmd", ["train", "eval"])
    def test_bad_manifest_is_exit_1(self, dataset, tmp_path, capsys, cmd, edit,
                                    words):
        ckpt = tmp_path / "ckpt"
        if cmd == "eval":
            from augseg.model import Network, NetworkConfig, save_checkpoint
            save_checkpoint(ckpt, Network(NetworkConfig()), epoch=0, seed=0)
        _edit_manifest(dataset, edit)
        out = tmp_path / "out"
        argv = (["train", "--data", str(dataset), "--out", str(out),
                 "--epochs", "1", "--shots", "1"] if cmd == "train" else
                ["eval", "--checkpoint", str(ckpt), "--data", str(dataset),
                 "--out", str(out)])
        assert dispatch(argv) == 1
        err = capsys.readouterr().err
        assert "internal error" not in err
        assert all(w in err for w in words), err
        assert not out.exists()


# each bad form of a JSON input file, as bytes made from its good bytes
_BAD_JSON = {
    "missing": None,
    "empty": lambda good: b"",
    # a Latin-1 "café" in front of the good content
    "not_utf8": lambda good: b'{"note": "caf\xe9", ' + good[1:],
    "truncated": lambda good: good[:len(good) // 2],
    "list": lambda good: b"[" + good + b"]",
}


class TestJsonInputs:
    """Every JSON input, in every bad form, is exit 1 in one line that
    names the file, before anything is written."""

    @pytest.mark.parametrize("form", list(_BAD_JSON))
    @pytest.mark.parametrize("what,cmd", [
        ("config file", "train"), ("manifest", "train"),
        ("manifest", "eval"), ("checkpoint manifest", "eval")])
    def test_bad_file_is_exit_1(self, dataset, tmp_path, capsys, what, cmd,
                                form):
        from augseg.model import Network, NetworkConfig, save_checkpoint
        out = tmp_path / "out"
        if cmd == "train":
            config = tmp_path / "cfg.json"
            config.write_text(json.dumps({"train": {"epochs": 1}}))
            argv = ["train", "--data", str(dataset), "--out", str(out),
                    "--config", str(config), "--shots", "1"]
        else:
            ckpt = tmp_path / "ckpt"
            save_checkpoint(ckpt, Network(NetworkConfig()), epoch=0, seed=0)
            argv = ["eval", "--checkpoint", str(ckpt), "--data", str(dataset),
                    "--out", str(out)]
        path = {"config file": tmp_path / "cfg.json",
                "manifest": dataset / "manifest.json",
                "checkpoint manifest": tmp_path / "ckpt" / "checkpoint.json",
                }[what]
        if form == "missing":
            path.unlink()
        else:
            path.write_bytes(_BAD_JSON[form](path.read_bytes()))
        assert dispatch(argv) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and str(path) in err, err
        assert {"missing": f"augseg: {what} not found: {path}",
                "list": "must be a JSON object"}.get(
                    form, f"augseg: {path}: invalid JSON") in err, err
        assert not out.exists()


class TestSampleSizes:
    """A sample whose image is not the manifest's square, whose mask has
    another shape than its image, or whose mask holds a label of no
    class in the manifest is exit 1 naming the file."""

    @pytest.mark.parametrize("key", ["image", "mask"])
    @pytest.mark.parametrize("cmd,split", [("train", "train"),
                                           ("eval", "test")])
    def test_wrong_size_is_exit_1(self, dataset, tmp_path, capsys, cmd, split,
                                  key):
        manifest = json.loads((dataset / "manifest.json").read_text())
        entry = next(e for e in manifest["samples"] if e["split"] == split)
        write_pgm(dataset / entry[key], np.zeros((32, 32), dtype=np.uint8))
        out = tmp_path / "out"
        if cmd == "train":
            argv = ["train", "--data", str(dataset), "--out", str(out),
                    "--epochs", "1", "--shots", "4"]
        else:
            from augseg.model import Network, NetworkConfig, save_checkpoint
            ckpt = tmp_path / "ckpt"
            save_checkpoint(ckpt, Network(NetworkConfig()), epoch=0, seed=0)
            argv = ["eval", "--checkpoint", str(ckpt), "--data", str(dataset),
                    "--out", str(out)]
        assert dispatch(argv) == 1
        err = capsys.readouterr().err
        assert "internal error" not in err
        assert str(dataset / entry[key]) in err and "32x32" in err, err
        if key == "mask":
            assert str(dataset / entry["image"]) in err, err
        assert not out.exists()

    @pytest.mark.parametrize("label", [3, 9])
    @pytest.mark.parametrize("cmd,split", [("train", "train"),
                                           ("eval", "test")])
    def test_mask_label_out_of_range_is_exit_1(self, dataset, tmp_path,
                                                capsys, cmd, split, label):
        manifest = json.loads((dataset / "manifest.json").read_text())
        for entry in manifest["samples"]:
            if entry["split"] == split:
                mask = read_pgm(dataset / entry["mask"])
                mask[5, 7] = label
                write_pgm(dataset / entry["mask"], mask)
        out = tmp_path / "out"
        if cmd == "train":
            argv = ["train", "--data", str(dataset), "--out", str(out),
                    "--epochs", "1", "--shots", "4"]
        else:
            from augseg.model import Network, NetworkConfig, save_checkpoint
            ckpt = tmp_path / "ckpt"
            save_checkpoint(ckpt, Network(NetworkConfig()), epoch=0, seed=0)
            argv = ["eval", "--checkpoint", str(ckpt), "--data", str(dataset),
                    "--out", str(out)]
        assert dispatch(argv) == 1
        err = capsys.readouterr().err
        assert "internal error" not in err
        assert f"label {label}" in err and "3 classes" in err, err
        assert any(str(dataset / e["mask"]) in err
                   for e in manifest["samples"]), err
        assert not out.exists()

    @pytest.mark.parametrize("cmd", ["train", "eval"])
    def test_dataset_size_other_than_the_network_is_exit_1(
            self, tmp_path, capsys, monkeypatch, cmd):
        """A dataset of another ``image_size`` than the network's fails
        on its manifest, before any sample is read."""
        from augseg import trainer
        data = tmp_path / "data"
        assert dispatch(["synth", "--count", "2", "--test-count", "2",
                         "--size", "32", "--seed", "1",
                         "--out", str(data)]) == 0
        reads = []
        monkeypatch.setattr(trainer, "load_sample",
                            lambda *a, **kw: reads.append(a))
        out = tmp_path / "out"
        if cmd == "train":
            argv = ["train", "--data", str(data), "--out", str(out),
                    "--epochs", "1", "--shots", "1"]
        else:
            from augseg.model import Network, NetworkConfig, save_checkpoint
            ckpt = tmp_path / "ckpt"
            save_checkpoint(ckpt, Network(NetworkConfig()), epoch=0, seed=0)
            argv = ["eval", "--checkpoint", str(ckpt), "--data", str(data),
                    "--out", str(out)]
        assert dispatch(argv) == 1
        err = capsys.readouterr().err
        assert "internal error" not in err
        assert str(data / "manifest.json") in err, err
        assert "image_size 32" in err and "64" in err, err
        assert reads == [] and not out.exists()

    def test_feature_wavelet_with_a_1x1_stage_is_exit_1(self, tmp_path, capsys,
                                                        monkeypatch):
        """At image_size 32 the deepest stage is 1x1, too small for the
        Haar step of WT-Aug: arm feature_wavelet fails before any sample
        is read, and arm none still trains."""
        from augseg import trainer
        data = tmp_path / "data"
        assert dispatch(["synth", "--count", "2", "--test-count", "1",
                         "--size", "32", "--seed", "1",
                         "--out", str(data)]) == 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"network": {"image_size": 32}}))
        reads, load = [], trainer.load_sample
        monkeypatch.setattr(trainer, "load_sample",
                            lambda *a, **kw: reads.append(a) or load(*a, **kw))

        def argv(arm, out):
            return ["train", "--data", str(data), "--out", str(out),
                    "--config", str(cfg), "--arm", arm, "--epochs", "1",
                    "--shots", "1"]

        out = tmp_path / "wavelet"
        assert dispatch(argv("feature_wavelet", out)) == 1
        err = capsys.readouterr().err
        assert "internal error" not in err
        assert "image_size 32" in err and "stage 4" in err, err
        assert "1x1" in err, err
        assert reads == [] and not out.exists()
        assert dispatch(argv("none", tmp_path / "none")) == 0
        assert reads


class TestPathErrors:
    """A path that cannot be read or written is exit 1, in one line that
    names it."""

    @staticmethod
    def check(capsys, argv, path):
        assert dispatch(argv) == 1, argv
        err = capsys.readouterr().err
        assert "internal error" not in err
        assert len(err.splitlines()) == 1 and str(path) in err, err

    def test_manifest_naming_a_missing_pgm(self, dataset, tmp_path, capsys):
        manifest = json.loads((dataset / "manifest.json").read_text())
        missing = dataset / next(e["image"] for e in manifest["samples"]
                                 if e["split"] == "train")
        missing.unlink()
        self.check(capsys, ["train", "--data", str(dataset), "--out",
                            str(tmp_path / "run"), "--epochs", "1",
                            "--shots", "4"], missing)

    def _mask(self, tmp_path):
        mask = tmp_path / "m.pgm"
        write_pgm(mask, np.zeros((8, 8), dtype=np.uint8))
        return mask

    def test_metrics_pred_is_a_directory(self, tmp_path, capsys):
        self.check(capsys, ["metrics", "--pred", str(tmp_path), "--gt",
                            str(self._mask(tmp_path))], tmp_path)

    def test_metrics_out_in_a_missing_directory(self, tmp_path, capsys):
        mask = self._mask(tmp_path)
        out = tmp_path / "nodir" / "x.csv"
        self.check(capsys, ["metrics", "--pred", str(mask), "--gt", str(mask),
                            "--out", str(out)], out)

    def test_eval_out_in_a_missing_directory(self, dataset, tmp_path, capsys):
        from augseg.model import Network, NetworkConfig, save_checkpoint
        ckpt = tmp_path / "ckpt"
        save_checkpoint(ckpt, Network(NetworkConfig()), epoch=0, seed=0)
        out = tmp_path / "nodir" / "x.csv"
        self.check(capsys, ["eval", "--checkpoint", str(ckpt), "--data",
                            str(dataset), "--out", str(out)], out)


class TestExit1Messages:
    """Arguments, files and runs each command rejects: exit 1 and a message
    that says what is wrong."""

    @staticmethod
    def check(capsys, argv, message):
        assert dispatch(argv) == 1, argv
        err = capsys.readouterr().err
        assert "internal error" not in err
        assert f"augseg: {message}" in err, err

    def test_non_integer_env_seed(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("AUGSEG_SEED", "abc")
        self.check(capsys, ["synth", "--count", "1",
                            "--out", str(tmp_path / "d")],
                   "AUGSEG_SEED must be an integer, got 'abc'")

    @pytest.mark.parametrize("seeds,message", [
        ("0,x", "--seeds must be comma-separated integers: 0,x"),
        ("", "need at least one seed"),
        ("0,0", "seeds repeat [0]"),
        ("2,1,2", "seeds repeat [2]")])
    def test_ablate_seeds(self, dataset, tmp_path, capsys, seeds, message):
        self.check(capsys, ["ablate", "--data", str(dataset), "--out",
                            str(tmp_path / "abl"), "--seeds", seeds,
                            "--epochs", "1", "--shots", "1"], message)

    @pytest.mark.parametrize("keep,message", [
        ("1,x,1,1", "--keep-prob must be comma-separated floats: 1,x,1,1"),
        ("1,1,1", "--keep-prob needs exactly four values")])
    def test_wt_aug_keep_prob(self, tmp_path, capsys, keep, message):
        infile = tmp_path / "f.daug"
        daug.write_tensor(infile, np.zeros((1, 1, 4, 4), np.float32))
        self.check(capsys, ["wt-aug", "--in", str(infile), "--out",
                            str(tmp_path / "g.daug"), "--keep-prob", keep],
                   message)

    def test_metrics_missing_gt(self, tmp_path, capsys):
        pred, missing = tmp_path / "pred.pgm", tmp_path / "missing.pgm"
        write_pgm(pred, np.zeros((8, 8), dtype=np.uint8))
        self.check(capsys, ["metrics", "--pred", str(pred), "--gt",
                            str(missing)],
                   f"ground-truth mask not found: {missing}")

    def test_featviz_batch_of_two(self, tmp_path, capsys):
        infile = tmp_path / "f.daug"
        daug.write_tensor(infile, np.zeros((2, 4, 4, 4), np.float32))
        self.check(capsys, ["featviz", "--in", str(infile), "--out",
                            str(tmp_path / "v.ppm")],
                   "featviz expects a single [1,C,H,W] feature map")

    def test_featviz_map_without_pixels(self, tmp_path, capsys):
        infile = tmp_path / "f.daug"
        daug.write_tensor(infile, np.zeros((1, 3, 0, 4), np.float32))
        self.check(capsys, ["featviz", "--in", str(infile), "--out",
                            str(tmp_path / "v.ppm")],
                   "feature map has no pixels: 0x4")

    def test_dwt_rank_3(self, tmp_path, capsys):
        infile = tmp_path / "f.daug"
        daug.write_tensor(infile, np.zeros((4, 4, 4), np.float32))
        self.check(capsys, ["dwt", "--in", str(infile), "--out-prefix",
                            str(tmp_path / "s")],
                   f"{infile}: expected a rank-4 tensor, got rank 3")

    def test_eval_unknown_split(self, dataset, tmp_path, capsys):
        run_dir = tmp_path / "run"
        assert dispatch(["train", "--data", str(dataset), "--out",
                         str(run_dir), "--epochs", "1", "--shots", "1"]) == 0
        self.check(capsys, ["eval", "--checkpoint",
                            str(run_dir / "checkpoint"), "--data",
                            str(dataset), "--split", "nosuch"],
                   "no samples in split 'nosuch'")

    # the diverging run overflows in numpy, which warns before the loss
    # turns NaN
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_train_diverging_learning_rate(self, dataset, tmp_path, capsys):
        self.check(capsys, ["train", "--data", str(dataset), "--out",
                            str(tmp_path / "run"), "--lr", "1e30",
                            "--epochs", "30"],
                   "non-finite loss nan at epoch 1, batch 0")


class TestExit2:
    """A broken internal invariant and an unexpected exception are exit 2."""

    def test_failing_selftest_check(self, capsys, monkeypatch):
        from augseg import selftest

        def broken():
            raise AssertionError("broken on purpose")

        monkeypatch.setattr(selftest, "_checks", lambda: [("broken", broken)])
        assert dispatch(["selftest"]) == 2
        captured = capsys.readouterr()
        assert "FAIL broken: broken on purpose" in captured.out
        assert "augseg: invariant violation: 1 selftest check(s) failed" \
            in captured.err, captured.err

    def test_unexpected_exception_is_an_internal_error(self, tmp_path, capsys,
                                                       monkeypatch):
        from augseg import cli

        def boom(*args, **kwargs):
            raise ZeroDivisionError("boom")

        monkeypatch.delenv("AUGSEG_DEBUG", raising=False)
        monkeypatch.setattr(cli, "feature_pca", boom)
        infile = tmp_path / "f.daug"
        daug.write_tensor(infile, np.ones((1, 4, 4, 4), np.float32))
        argv = ["featviz", "--in", str(infile), "--out", str(tmp_path / "v.ppm")]
        assert dispatch(argv) == 2
        err = capsys.readouterr().err
        assert "augseg: internal error: ZeroDivisionError: boom" in err, err
        # AUGSEG_DEBUG lets the exception and its traceback through
        monkeypatch.setenv("AUGSEG_DEBUG", "1")
        with pytest.raises(ZeroDivisionError, match="boom"):
            dispatch(argv)
        assert capsys.readouterr().err == ""
