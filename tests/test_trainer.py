"""Adam updates, the training loop, evaluation, and the ablation harness."""

import os

import numpy as np
import pytest

from augseg import fusion, trainer
from augseg.autodiff import Tensor
from augseg.errors import ContractError
from augseg.metrics import mean_foreground_dice
from augseg.model import EncoderSpec, Network, NetworkConfig, load_checkpoint
from augseg.synth import load_manifest, load_sample, write_dataset
from augseg.trainer import (
    ARMS,
    AdamState,
    ArmSpec,
    TrainConfig,
    ablation_run,
    adam_step,
    evaluate,
    few_shot_subset,
    table6_arms,
    table8_arms,
    _subset_dice,
    train,
)
from augseg.wavelet import WtAugConfig
from test_fusion import composed_attention


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    write_dataset(root, train_seeds=range(8), test_seeds=range(500, 506))
    return str(root)


def tiny_net_config(**kw):
    defaults = dict(encoder=EncoderSpec(channels=(4, 6, 8, 10), seed=3),
                    head_count=2, param_seed=5)
    defaults.update(kw)
    return NetworkConfig(**defaults)


class TestAdamStep:
    def setup_method(self):
        self.cfg = TrainConfig(learning_rate=1e-4)

    def test_zero_gradient_leaves_params_unchanged(self):
        p = Tensor(np.array([1.0, 2.0], dtype=np.float32), requires_grad=True)
        params = {"p": p}
        state = AdamState.for_params(params)
        adam_step(params, {"p": np.zeros(2, dtype=np.float32)}, state, self.cfg)
        np.testing.assert_array_equal(p.numpy(), [1.0, 2.0])

    def test_first_step_is_learning_rate_sized(self):
        # bias correction: m_hat = v_hat = g on step 1, so delta = -lr
        p = Tensor(np.array([0.0], dtype=np.float64), requires_grad=True)
        params = {"p": p}
        state = AdamState.for_params(params)
        adam_step(params, {"p": np.array([1.0])}, state, self.cfg)
        assert p.numpy()[0] == pytest.approx(-1e-4, rel=1e-4)

    def test_first_step_magnitude_independent_of_gradient_scale(self):
        deltas = []
        for g in (10.0, 0.1):
            p = Tensor(np.array([0.0], dtype=np.float64), requires_grad=True)
            state = AdamState.for_params({"p": p})
            adam_step({"p": p}, {"p": np.array([g])}, state, self.cfg)
            deltas.append(-p.numpy()[0])
        assert abs(deltas[0] - deltas[1]) / deltas[0] < 0.01

    def test_missing_gradient_rejected(self):
        p = Tensor(np.zeros(2, dtype=np.float32), requires_grad=True)
        state = AdamState.for_params({"p": p})
        with pytest.raises(ContractError):
            adam_step({"p": p}, {}, state, self.cfg)

    def test_step_counter_advances(self):
        p = Tensor(np.zeros(1, dtype=np.float64), requires_grad=True)
        state = AdamState.for_params({"p": p})
        for _ in range(3):
            adam_step({"p": p}, {"p": np.ones(1)}, state, self.cfg)
        assert state.step == 3


class TestFewShotSubset:
    def test_deterministic_and_sized(self):
        entries = [{"id": f"s{i}"} for i in range(10)]
        a = few_shot_subset(entries, 3, seed=1)
        b = few_shot_subset(entries, 3, seed=1)
        assert a == b and len(a) == 3

    def test_shots_exceeding_split_rejected(self):
        with pytest.raises(ContractError):
            few_shot_subset([{"id": "x"}], 2, seed=0)


class TestTrain:
    def test_two_runs_identical(self, dataset):
        cfg = TrainConfig(epochs=3, shots=2, seed=4,
                          augmentation="feature_wavelet")
        _, log_a, ids_a = train(cfg, tiny_net_config(), dataset)
        _, log_b, ids_b = train(cfg, tiny_net_config(), dataset)
        assert log_a == log_b
        assert ids_a == ids_b

    @pytest.mark.parametrize("arm", ARMS)
    def test_arm_replays_with_and_without_encoder_cache(self, dataset, arm,
                                                        monkeypatch):
        cfg = TrainConfig(epochs=3, shots=3, seed=6, augmentation=arm)
        _, cached, _ = train(cfg, tiny_net_config(), dataset)
        _, again, _ = train(cfg, tiny_net_config(), dataset)
        # dropping the cached stages makes every forward re-encode its batch
        forward = Network.forward
        monkeypatch.setattr(
            Network, "forward",
            lambda self, image, stages=None, **kw: forward(self, image, **kw))
        _, uncached, _ = train(cfg, tiny_net_config(), dataset)
        assert cached == again == uncached

    def test_batched_monitor_matches_per_sample_loop(self, dataset):
        net, _, _ = train(TrainConfig(epochs=2, shots=3, seed=7),
                          tiny_net_config(), dataset)
        manifest = load_manifest(os.path.join(dataset, "manifest.json"))
        data = [load_sample(dataset, e) for e in manifest["samples"][:3]]
        stages = [net.encode(Tensor(image[None])) for image, _ in data]
        scores = []
        for image, mask in data:
            logits = net.forward(Tensor(image[None]), mode="eval")
            pred = np.argmax(logits.numpy()[0], axis=0).astype(np.uint8)
            scores.append(mean_foreground_dice(pred, mask, 3))
        assert _subset_dice(net, data, stages, 3) == float(np.mean(scores))

    def test_encoder_frozen_through_training(self, dataset):
        cfg = TrainConfig(epochs=2, shots=2, seed=0, augmentation="none")
        reference = tiny_net_config()
        before = {k: v.numpy().copy()
                  for k, v in Network_params_snapshot(reference).items()}
        net, _, _ = train(cfg, reference, dataset)
        for name, tensor in net.parameters().items():
            if name.startswith("encoder."):
                np.testing.assert_array_equal(tensor.numpy(), before[name])

    def test_keep_prob_one_wavelet_equals_none_exactly(self, dataset):
        base = tiny_net_config(
            wt_aug=WtAugConfig(keep_prob=(1.0, 1.0, 1.0, 1.0)))
        cfg_wav = TrainConfig(epochs=3, shots=2, seed=2,
                              augmentation="feature_wavelet")
        cfg_none = TrainConfig(epochs=3, shots=2, seed=2, augmentation="none")
        _, log_wav, _ = train(cfg_wav, base, dataset)
        _, log_none, _ = train(cfg_none, base, dataset)
        assert log_wav == log_none

    @pytest.mark.parametrize("arm", ["image_level", "feature_spatial"])
    def test_other_arms_run(self, dataset, arm):
        cfg = TrainConfig(epochs=2, shots=2, seed=1, augmentation=arm)
        _, log_rows, _ = train(cfg, tiny_net_config(), dataset)
        assert len(log_rows) == 2
        assert all(np.isfinite(row[1]) for row in log_rows)

    def test_checkpoint_and_log_written(self, dataset, tmp_path):
        out = tmp_path / "run"
        cfg = TrainConfig(epochs=2, shots=1, seed=3, augmentation="none")
        net, log_rows, chosen = train(cfg, tiny_net_config(), dataset, str(out))
        assert (out / "train_log.csv").exists()
        loaded, manifest = load_checkpoint(out / "checkpoint")
        assert manifest["extra"]["few_shot_ids"] == chosen
        image = Tensor(np.random.default_rng(0).random((1, 1, 64, 64))
                       .astype(np.float32))
        np.testing.assert_array_equal(loaded.forward(image).numpy(),
                                      net.forward(image).numpy())

    def test_fused_attention_trains_like_composed_chain(self, dataset,
                                                        monkeypatch):
        # the one-op attention must reproduce the primitive-op chain to the
        # last bit through Adam, which op-level comparisons cannot show:
        # a dK of equal values in another memory layout sends the w_k
        # weight-gradient matmul down another BLAS path
        cfg = TrainConfig(epochs=3, shots=2, seed=8, learning_rate=3e-3,
                          augmentation="feature_wavelet")
        net_cfg = NetworkConfig(param_seed=8)
        fused_net, fused_log, _ = train(cfg, net_cfg, dataset)
        monkeypatch.setattr(fusion, "cross_attention", composed_attention)
        chain_net, chain_log, _ = train(cfg, net_cfg, dataset)
        assert fused_log == chain_log
        chain_params = chain_net.parameters()
        for name, tensor in fused_net.parameters().items():
            assert tensor.numpy().tobytes() == \
                chain_params[name].numpy().tobytes(), name

    def test_cg_fuse_off_skips_fusion_params(self, dataset):
        cfg = TrainConfig(epochs=2, shots=1, seed=5, augmentation="none")
        net, log_rows, _ = train(cfg, tiny_net_config(use_cg_fuse=False),
                                 dataset)
        assert not net.config.use_cg_fuse
        # fusion tensors still exist but stayed at their init values
        w_o = net.fusion[3].w_o.numpy()
        np.testing.assert_array_equal(w_o, np.zeros_like(w_o))


def Network_params_snapshot(cfg):
    from augseg.model import Network
    return {k: v for k, v in Network(cfg).parameters().items()
            if k.startswith("encoder.")}


class TestEvaluate:
    def test_deterministic_and_consistent(self, dataset, tmp_path):
        cfg = TrainConfig(epochs=2, shots=2, seed=6, augmentation="none")
        net, _, _ = train(cfg, tiny_net_config(), dataset)
        recs_a, summary_a = evaluate(net, dataset, split="test")
        recs_b, summary_b = evaluate(net, dataset, split="test")
        assert summary_a == summary_b
        assert len(recs_a) == 6
        want = float(np.mean([r.mean_dice for r in recs_a]))
        assert summary_a["mean_dice"] == pytest.approx(want)

    def test_csv_emission(self, dataset, tmp_path):
        cfg = TrainConfig(epochs=1, shots=1, seed=7, augmentation="none")
        net, _, _ = train(cfg, tiny_net_config(), dataset)
        out = tmp_path / "metrics.csv"
        evaluate(net, dataset, split="test", csv_path=str(out))
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "sample_id,class,dice,hd95"
        assert len(lines) == 1 + 6 * 2


class TestAblationRun:
    def test_single_arm_degenerate(self, dataset, tmp_path):
        cfg = TrainConfig(epochs=1, shots=1)
        results, tests = ablation_run([ArmSpec("none", "none")], [0],
                                      cfg, tiny_net_config(), dataset,
                                      str(tmp_path))
        assert list(results) == ["none"]
        assert tests == {}
        assert (tmp_path / "ablation.csv").exists()

    def test_identical_arms_give_degenerate_wilcoxon(self, dataset):
        cfg = TrainConfig(epochs=1, shots=1)
        arms = [ArmSpec("a", "none"), ArmSpec("b", "none")]
        results, tests = ablation_run(arms, [0], cfg, tiny_net_config(),
                                      dataset)
        t = tests["a_vs_b"]
        assert t.p_value == 1.0
        assert t.method == "degenerate"

    def test_four_arm_harness_emits_all_rows_and_tests(self, dataset, tmp_path):
        cfg = TrainConfig(epochs=1, shots=1)
        results, tests = ablation_run(table6_arms(), [0, 1], cfg,
                                      tiny_net_config(), dataset,
                                      str(tmp_path))
        assert len(results) == 4
        assert len(tests) == 6
        rows = (tmp_path / "ablation.csv").read_text().strip().splitlines()
        assert len(rows) == 5
        assert (tmp_path / "wilcoxon.json").exists()

    def test_arm_sets_fusion_switch_on_network_config(self, dataset,
                                                      monkeypatch):
        seen = []
        real_train = trainer.train

        def spy(train_cfg, net_cfg, data_dir, out_dir=None):
            seen.append(net_cfg.use_cg_fuse)
            return real_train(train_cfg, net_cfg, data_dir, out_dir)

        monkeypatch.setattr(trainer, "train", spy)
        ablation_run(table8_arms(), [0], TrainConfig(epochs=1, shots=1),
                     tiny_net_config(), dataset)
        assert seen == [True, True, False, False]

    def test_table8_arms_toggle_fusion(self):
        arms = table8_arms()
        assert [a.use_cg_fuse for a in arms] == [True, True, False, False]
        assert [a.augmentation for a in arms] == [
            "feature_wavelet", "none", "feature_wavelet", "none"]
