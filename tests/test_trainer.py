"""Adam updates, the training loop, evaluation, and the ablation harness."""

import gc
import inspect
import json
import math
import os
import re
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest

from augseg import fusion, synth, trainer
from augseg.autodiff import GradTape, Tensor, use_tape
from augseg.errors import ContractError, InputError
from augseg.metrics import mean_foreground_dice
from augseg.model import EncoderSpec, Network, NetworkConfig, load_checkpoint
from augseg.synth import (SynthConfig, load_manifest, load_sample,
                          random_corruption, write_dataset)
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
    _class_argmax,
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


@dataclass
class ReferenceAdamState:
    """Per-tensor moments, as ``AdamState`` kept them before the flat store."""
    params: dict
    m: dict
    v: dict
    step: int = 0

    @classmethod
    def for_params(cls, params):
        return cls(params=dict(params),
                   m={k: np.zeros_like(p.numpy()) for k, p in params.items()},
                   v={k: np.zeros_like(p.numpy()) for k, p in params.items()})


def reference_adam_step(state, cfg):
    """The per-tensor Adam update that the flat store replaced; it takes
    each parameter's ``grad`` and resets it to ``None``."""
    missing = [k for k, p in state.params.items() if p.grad is None]
    if missing:
        raise ContractError(f"missing gradients for {missing}")
    state.step += 1
    t = state.step
    b1, b2 = cfg.betas
    for name, p in state.params.items():
        g, p.grad = p.grad, None
        state.m[name] = b1 * state.m[name] + (1 - b1) * g
        state.v[name] = b2 * state.v[name] + (1 - b2) * (g * g)
        m_hat = state.m[name] / (1 - b1 ** t)
        v_hat = state.v[name] / (1 - b2 ** t)
        p.assign(p.numpy() - cfg.learning_rate * m_hat /
                 (np.sqrt(v_hat) + cfg.eps))


def spy_forward_modes(monkeypatch):
    """The ``mode`` of every later ``Network.forward`` call, in order."""
    modes = []
    forward = Network.forward

    def spy(self, image, mode="eval", **kw):
        modes.append(mode)
        return forward(self, image, mode=mode, **kw)

    monkeypatch.setattr(Network, "forward", spy)
    return modes


def flat_rows(per_tensor):
    """Per-tensor arrays joined in dict order, as one store row."""
    return np.concatenate([a.reshape(-1) for a in per_tensor.values()])


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and \
        a.tobytes() == b.tobytes()


class TestAdamStep:
    def setup_method(self):
        self.cfg = TrainConfig(learning_rate=1e-4)

    def step(self, params, grads, state, ref):
        """``adam_step`` on ``grads`` accumulated into the store as
        backward would, checked bit for bit against the per-tensor
        reference run on copies (``ref`` = reference params and state)."""
        ref_params, ref_state = ref
        for name, g in grads.items():
            params[name].grad += g
            ref_params[name].grad = g
        reference_adam_step(ref_state, self.cfg)
        adam_step(state, self.cfg)
        assert state.step == ref_state.step
        for name, p in params.items():
            assert same_bits(p.numpy(), ref_params[name].numpy()), name
        assert same_bits(state.store[1], flat_rows(ref_state.m))
        assert same_bits(state.store[2], flat_rows(ref_state.v))
        assert not state.store[3].any()

    @staticmethod
    def pair(params):
        """A reference copy of ``params`` and its state, then the flat
        store over ``params`` itself."""
        ref_params = {k: Tensor(p.numpy().copy(), requires_grad=True)
                      for k, p in params.items()}
        ref = (ref_params, ReferenceAdamState.for_params(ref_params))
        return AdamState.for_params(params), ref

    def test_zero_gradient_leaves_params_unchanged(self):
        p = Tensor(np.array([1.0, 2.0], dtype=np.float32), requires_grad=True)
        params = {"p": p}
        state, ref = self.pair(params)
        self.step(params, {"p": np.zeros(2, dtype=np.float32)}, state, ref)
        np.testing.assert_array_equal(p.numpy(), [1.0, 2.0])

    def test_first_step_is_learning_rate_sized(self):
        # bias correction: m_hat = v_hat = g on step 1, so delta = -lr
        p = Tensor(np.array([0.0], dtype=np.float64), requires_grad=True)
        params = {"p": p}
        state, ref = self.pair(params)
        self.step(params, {"p": np.array([1.0])}, state, ref)
        assert p.numpy()[0] == pytest.approx(-1e-4, rel=1e-4)

    def test_first_step_magnitude_independent_of_gradient_scale(self):
        deltas = []
        for g in (10.0, 0.1):
            p = Tensor(np.array([0.0], dtype=np.float64), requires_grad=True)
            state, ref = self.pair({"p": p})
            self.step({"p": p}, {"p": np.array([g])}, state, ref)
            deltas.append(-p.numpy()[0])
        assert abs(deltas[0] - deltas[1]) / deltas[0] < 0.01

    def test_step_counter_advances(self):
        p = Tensor(np.zeros(1, dtype=np.float64), requires_grad=True)
        state, ref = self.pair({"p": p})
        for _ in range(3):
            self.step({"p": p}, {"p": np.ones(1)}, state, ref)
        assert state.step == 3

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_many_tensors_many_steps_match_per_tensor_update(self, dtype):
        rng = np.random.default_rng(11)
        shapes = {"w": (3, 2, 3, 3), "b": (3,), "s": (1,), "q": (5, 7)}
        # small and zero starting values, as the network's biases and
        # zero-initialised output projection have, so that the update's
        # low bits reach the parameters
        params = {k: Tensor((rng.normal(size=s) * 1e-3 * (k != "b"))
                            .astype(dtype), requires_grad=True)
                  for k, s in shapes.items()}
        state, ref = self.pair(params)
        self.cfg = TrainConfig(learning_rate=3e-3, betas=(0.8, 0.99), eps=1e-6)
        for _ in range(6):
            grads = {k: (rng.normal(size=s) * 10.0 ** rng.integers(-6, 3))
                     .astype(dtype) for k, s in shapes.items()}
            self.step(params, grads, state, ref)

    def test_store_holds_params_and_grads_as_views(self):
        params = {"a": Tensor(np.ones((2, 3), np.float32), requires_grad=True),
                  "b": Tensor(np.full(4, 2.0, np.float32), requires_grad=True)}
        params["b"].grad = np.ones(4, np.float32)
        state = AdamState.for_params(params)
        assert state.store.shape == (5, 10)
        np.testing.assert_array_equal(state.store[0], [1] * 6 + [2] * 4)
        assert not state.store[1:4].any()
        for k, p in params.items():
            assert p.numpy() is state.params[k]
            assert p.grad is state.grads[k]
            for row, views in ((0, state.params), (3, state.grads)):
                assert np.shares_memory(views[k], state.store[row])
                assert views[k].shape == p.shape

    def test_two_backwards_accumulate_into_one_step(self):
        x = np.array([1.0, -2.0, 0.5])
        p = Tensor(x.copy(), requires_grad=True)
        state = AdamState.for_params({"p": p})
        with use_tape(GradTape()) as tape:
            loss = (p * p).sum()
            tape.backward(loss)
            tape.backward(loss)
        np.testing.assert_array_equal(state.store[3], 4 * x)
        assert p.grad is state.grads["p"]
        adam_step(state, self.cfg)
        assert state.step == 1 and not state.store[3].any()

    def test_mixed_dtypes_rejected(self):
        params = {"a": Tensor(np.zeros(2, np.float32), requires_grad=True),
                  "b": Tensor(np.zeros(2, np.float64), requires_grad=True)}
        with pytest.raises(ContractError, match="one dtype"):
            AdamState.for_params(params)

    def test_recording_tape_rejected_before_any_update(self):
        p = Tensor(np.ones(2, np.float32), requires_grad=True)
        state = AdamState.for_params({"p": p})
        p.grad += 1
        before = state.store.copy()
        with use_tape(GradTape()):
            with pytest.raises(ContractError, match="tape is recording"):
                adam_step(state, self.cfg)
        assert state.step == 0 and same_bits(state.store, before)
        np.testing.assert_array_equal(p.numpy(), [1.0, 1.0])

    @staticmethod
    def rejected_with_store_untouched(state, rebind):
        state.store[3] = 1
        before = state.store.copy()
        rebind()
        with pytest.raises(ContractError, match=r"\['q'\]"):
            adam_step(state, TrainConfig())
        assert state.step == 0 and same_bits(state.store, before)

    def test_rebound_parameter_rejected_not_dropped(self):
        # after a rebind the store no longer holds the parameter, so an
        # update there would never reach the tensor
        p = Tensor(np.ones(2, np.float32), requires_grad=True)
        q = Tensor(np.ones(3, np.float32), requires_grad=True)
        state = AdamState.for_params({"p": p, "q": q})
        self.rejected_with_store_untouched(
            state, lambda: q.assign(np.zeros(3, np.float32)))

    @pytest.mark.parametrize("grad", [None, np.ones(3, np.float32)])
    def test_rebound_gradient_rejected_not_dropped(self, grad):
        # backward would accumulate into the new array, which the store's
        # gradient row never sees
        p = Tensor(np.ones(2, np.float32), requires_grad=True)
        q = Tensor(np.ones(3, np.float32), requires_grad=True)
        state = AdamState.for_params({"p": p, "q": q})
        self.rejected_with_store_untouched(
            state, lambda: setattr(q, "grad", grad))


class TestFlatAdamTraining:
    @pytest.mark.parametrize("use_cg_fuse", [True, False])
    @pytest.mark.parametrize("arm", ARMS)
    def test_seeded_run_matches_per_tensor_adam(self, dataset, arm,
                                                use_cg_fuse, monkeypatch):
        cfg = TrainConfig(epochs=3, shots=3, seed=9, learning_rate=3e-3,
                          augmentation=arm)
        net_cfg = tiny_net_config(use_cg_fuse=use_cg_fuse)

        def run(state_cls, step):
            states = []

            def spy(state, cfg):
                states.append(state)
                return step(state, cfg)

            monkeypatch.setattr(trainer, "AdamState", state_cls)
            monkeypatch.setattr(trainer, "adam_step", spy)
            net, log, _ = train(cfg, net_cfg, dataset)
            return net, log, states[-1]

        flat_net, flat_log, flat_state = run(AdamState, adam_step)
        ref_net, ref_log, ref_state = run(ReferenceAdamState,
                                          reference_adam_step)
        assert flat_log == ref_log
        assert flat_state.step == ref_state.step == 6
        ref_params = ref_net.parameters()
        for name, tensor in flat_net.parameters().items():
            assert same_bits(tensor.numpy(), ref_params[name].numpy()), name
        assert list(flat_state.params) == list(ref_state.m)
        assert same_bits(flat_state.store[1], flat_rows(ref_state.m))
        assert same_bits(flat_state.store[2], flat_rows(ref_state.v))

    def test_adam_step_called_once_per_step_after_backward(self, dataset,
                                                          monkeypatch):
        calls = []
        step = trainer.adam_step

        def spy(state, cfg):
            calls.append(bool(state.store[3].any()))
            return step(state, cfg)

        monkeypatch.setattr(trainer, "adam_step", spy)
        train(TrainConfig(epochs=2, shots=3, batch_size=2), tiny_net_config(),
              dataset)
        assert calls == [True] * 4

    def test_gradient_row_holds_the_step_gradients_then_zeros(
            self, dataset, monkeypatch):
        # one step: the flat store's gradient row against the per-tensor
        # gradients backward allocates for the reference optimizer
        cfg = TrainConfig(epochs=1, shots=2, seed=4, learning_rate=3e-3,
                          augmentation="feature_wavelet")
        rows, per_tensor = [], []

        def flat_spy(state, cfg):
            rows.append(state.store[3].copy())
            adam_step(state, cfg)
            rows.append(state.store[3].copy())

        def reference_spy(state, cfg):
            per_tensor.append(np.concatenate(
                [p.grad.reshape(-1) for p in state.params.values()]))
            reference_adam_step(state, cfg)

        monkeypatch.setattr(trainer, "adam_step", flat_spy)
        train(cfg, tiny_net_config(), dataset)
        monkeypatch.setattr(trainer, "AdamState", ReferenceAdamState)
        monkeypatch.setattr(trainer, "adam_step", reference_spy)
        train(cfg, tiny_net_config(), dataset)
        assert len(rows) == 2 and len(per_tensor) == 1
        assert same_bits(rows[0], per_tensor[0]) and rows[0].any()
        assert not rows[1].any()


class TestAdamConfig:
    @pytest.mark.parametrize("kwargs", [
        {"eps": 0}, {"eps": -1e-8}, {"eps": float("nan")},
        {"eps": float("inf")}, {"eps": "1e-8"}, {"eps": True},
        {"betas": (1.0, 0.999)}, {"betas": (0.9, -0.1)},
        {"betas": (0.9, float("nan"))}, {"betas": (0.9,)},
        {"betas": (0.9, 0.99, 0.999)}, {"betas": ("a", 0.9)},
        {"betas": (True, 0.9)}, {"betas": 0.9},
        {"learning_rate": 0}, {"learning_rate": -1e-4},
        {"learning_rate": float("nan")}, {"learning_rate": float("inf")},
        {"learning_rate": float("-inf")}, {"learning_rate": "1e-4"},
        {"learning_rate": True}])
    def test_rejected(self, kwargs):
        with pytest.raises(ContractError):
            TrainConfig(**kwargs)

    @pytest.mark.parametrize("strengths", [
        {"foo": 1}, {"length_range": [9, 3]}, {"length_range": [0, 2]},
        {"length_range": [1.0, 2]}, {"length_range": [True, 2]},
        {"kinds": []}, {"kinds": "brightness"}, {"kinds": ["blur"]},
        {"factor_range": [0.5]}, {"factor_range": [0.5, 1.0, 2.0]},
        {"factor_range": [-0.1, 1]}, {"factor_range": [0, math.inf]},
        {"factor_range": [math.nan, 1]}, {"scale_range": [0, 10]},
        {"scale_range": ["1", 10]}, {"drop_range": [0.2, 1.1]},
        {"drop_range": [-0.1, 0.2]}, {"drop_range": [0.3, 0.2]}, None])
    def test_corruption_strengths_rejected(self, strengths):
        with pytest.raises(ContractError, match="corruption_strengths"):
            TrainConfig(corruption_strengths=strengths)

    def test_corruption_strengths_accepted_at_the_domain_edges(self):
        strengths = {"length_range": [1, 1], "factor_range": (0, 0),
                     "scale_range": [1e-3, 5], "drop_range": [0, 1],
                     "kinds": ["poisson", "brightness"]}
        TrainConfig(corruption_strengths=strengths)
        rng = np.random.default_rng(0)
        for _ in range(20):
            random_corruption(rng, **strengths)

    def test_corruption_strength_keys_are_random_corruptions(self):
        keywords = [name for name, p in
                    inspect.signature(random_corruption).parameters.items()
                    if p.kind is p.KEYWORD_ONLY]
        for key in keywords:
            TrainConfig(corruption_strengths={
                key: inspect.signature(random_corruption)
                .parameters[key].default})

    @pytest.mark.parametrize("name", ["batch_size", "epochs", "shots"])
    @pytest.mark.parametrize("value", [2.5, 1.0, True, "2", None])
    def test_counts_must_be_integers(self, name, value):
        with pytest.raises(ContractError, match=re.escape(
                f"{name} must be an integer, got {value!r}")):
            TrainConfig(**{name: value})

    def test_numpy_integer_counts_accepted(self):
        cfg = TrainConfig(batch_size=np.int64(3), epochs=np.int32(1),
                          shots=np.uint8(2))
        assert (cfg.batch_size, cfg.epochs, cfg.shots) == (3, 1, 2)

    def test_betas_list_of_numpy_floats_becomes_a_tuple(self):
        cfg = TrainConfig(betas=[0, np.float32(0.5)], eps=1)
        assert cfg.betas == (0, 0.5) and isinstance(cfg.betas, tuple)


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
        data = [load_sample(dataset, e, manifest)
                for e in manifest["samples"][:3]]
        images, masks = (np.stack(a) for a in zip(*data))
        stages = net.encode(Tensor(images))
        scores = []
        for image, mask in data:
            logits = net.forward(Tensor(image[None]), mode="eval")
            pred = np.argmax(logits.numpy()[0], axis=0).astype(np.uint8)
            scores.append(mean_foreground_dice(pred, mask, 3))
        assert _subset_dice(net, images, masks, stages, 3) == \
            float(np.mean(scores))

    @pytest.mark.parametrize("arm", ["none", "feature_wavelet"])
    def test_monitor_off_trains_the_same_and_measures_only_the_last_epoch(
            self, dataset, arm, monkeypatch):
        # batch 4 holds the whole 3-shot subset: arm none back-fills then
        for batch in (2, 4):
            cfg = TrainConfig(epochs=3, shots=3, batch_size=batch, seed=2,
                              augmentation=arm)
            on_net, on_rows, _ = train(cfg, tiny_net_config(), dataset)
            with monkeypatch.context() as patch:
                modes = spy_forward_modes(patch)
                off_net, off_rows, _ = train(cfg, tiny_net_config(), dataset,
                                             monitor=False)
            assert modes.count("eval") == 1 and modes[-1] == "eval"
            assert off_rows[-1] == on_rows[-1]
            assert [r[:2] for r in off_rows] == [r[:2] for r in on_rows]
            assert all(math.isnan(r[2]) and math.isnan(r[3])
                       for r in off_rows[:-1])
            on_params = on_net.parameters()
            for name, tensor in off_net.parameters().items():
                assert same_bits(tensor.numpy(),
                                 on_params[name].numpy()), name

    @pytest.mark.parametrize("arm,shots,batch", [
        *[(arm, 2, 2) for arm in ARMS],
        ("none", 3, 4), ("none", 3, 2), ("feature_wavelet", 3, 2)])
    def test_one_eval_forward_per_training_the_last(
            self, dataset, monkeypatch, arm, shots, batch):
        """Every arm and batch layout runs one train forward per step and
        one eval forward per ``train`` call, after the last step."""
        modes = spy_forward_modes(monkeypatch)
        train(TrainConfig(epochs=4, shots=shots, batch_size=batch, seed=1,
                          augmentation=arm), tiny_net_config(), dataset)
        assert modes.count("train") == 4 * math.ceil(shots / batch)
        assert modes.count("eval") == 1 and modes[-1] == "eval"

    @pytest.mark.parametrize("arm,shots,batch", [
        ("none", 2, 2), ("none", 3, 4), ("none", 4, 2),
        ("feature_wavelet", 2, 2)])
    def test_log_rows_are_prefixes_of_longer_runs(self, dataset, arm, shots,
                                                  batch):
        """Row e of a run is the final row of the same run cut to e+1
        epochs, bit for bit, except that the longer run's ``train_dice``
        may be NaN; it is never NaN for ``none`` with one batch."""
        def rows(epochs):
            cfg = TrainConfig(epochs=epochs, shots=shots, batch_size=batch,
                              seed=5, learning_rate=3e-3, augmentation=arm)
            return [tuple(v.hex() if isinstance(v, float) else v for v in r)
                    for r in train(cfg, tiny_net_config(), dataset)[1]]

        full = rows(4)
        backfilled = arm == "none" and shots <= batch
        for e in range(4):
            cut = rows(e + 1)[-1]
            assert (cut[:2], cut[3]) == (full[e][:2], full[e][3])
            if backfilled or e == 3:
                assert cut[2] == full[e][2]
            else:
                assert full[e][2] == math.nan.hex()

    @pytest.mark.parametrize("arm", ["none", "feature_wavelet"])
    @pytest.mark.parametrize("shots,batch", [(2, 2), (4, 2), (3, 2)])
    def test_step_dice_reads_the_logits_the_loss_saw(
            self, dataset, monkeypatch, arm, shots, batch):
        """``step_dice`` is the mean, in subset order, of each sample's
        foreground Dice from the logits ``combined_loss`` received."""
        seen = []
        loss = trainer.combined_loss

        def spy(logits, labels):
            seen.append((logits.numpy().copy(), labels.copy()))
            return loss(logits, labels)

        monkeypatch.setattr(trainer, "combined_loss", spy)
        cfg = TrainConfig(epochs=3, shots=shots, batch_size=batch, seed=3,
                          learning_rate=3e-3, augmentation=arm)
        _, rows, _ = train(cfg, tiny_net_config(), dataset)
        steps = iter(seen)
        for epoch, row in enumerate(rows):
            order = trainer._rng(cfg.seed, epoch, 0).permutation(shots)
            dice = np.empty(shots)
            for start in range(0, shots, batch):
                logits, labels = next(steps)
                dice[order[start:start + batch]] = [
                    mean_foreground_dice(
                        np.argmax(l, axis=0).astype(np.uint8), m, 3)
                    for l, m in zip(logits, labels)]
            assert row[3] == float(np.mean(dice))
        assert next(steps, None) is None

    @pytest.mark.parametrize("shots,batch", [(2, 2), (3, 4)])
    def test_none_one_batch_train_dice_is_the_next_step_dice(
            self, dataset, shots, batch):
        """Arm ``none`` with one batch per epoch: row e's ``train_dice``
        is row e+1's ``step_dice``, and both equal the eval forward of
        the run cut to e+1 epochs, bit for bit."""
        def rows(epochs):
            cfg = TrainConfig(epochs=epochs, shots=shots, batch_size=batch,
                              seed=5, learning_rate=3e-3)
            return train(cfg, tiny_net_config(), dataset)[1]

        full = rows(4)
        for e in range(3):
            assert full[e][2].hex() == full[e + 1][3].hex()
            assert rows(e + 1)[-1][2].hex() == full[e + 1][3].hex()

    def test_train_log_csv_columns(self, dataset, tmp_path):
        cfg = TrainConfig(epochs=3, shots=2, seed=3,
                          augmentation="feature_wavelet")
        for monitor in (True, False):
            out = tmp_path / f"run_{monitor}"
            _, rows, _ = train(cfg, tiny_net_config(), dataset, str(out),
                               monitor=monitor)
            lines = (out / "train_log.csv").read_text().splitlines()
            assert lines[0] == "epoch,loss,train_dice,step_dice"
            assert lines[1:] == [
                f"{e},{loss:.6f},{dice:.6f},{step:.6f}"
                for e, loss, dice, step in rows]
            cells = [line.split(",") for line in lines[1:]]
            assert [c[2] for c in cells[:-1]] == ["nan", "nan"]
            assert all(c[3] == "nan" for c in cells[:-1]) != monitor
            assert "nan" not in cells[-1]

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
        # the two arms train alike; only arm none back-fills train_dice
        base = tiny_net_config(
            wt_aug=(WtAugConfig(keep_prob=(1.0, 1.0, 1.0, 1.0)),) * 4)
        cfg_wav = TrainConfig(epochs=3, shots=2, seed=2,
                              augmentation="feature_wavelet")
        cfg_none = TrainConfig(epochs=3, shots=2, seed=2, augmentation="none")
        net_wav, log_wav, _ = train(cfg_wav, base, dataset)
        net_none, log_none, _ = train(cfg_none, base, dataset)
        assert [(e, loss, step) for e, loss, _, step in log_wav] == \
            [(e, loss, step) for e, loss, _, step in log_none]
        assert log_wav[-1] == log_none[-1]
        none_params = net_none.parameters()
        for name, tensor in net_wav.parameters().items():
            assert same_bits(tensor.numpy(), none_params[name].numpy()), name

    @pytest.mark.parametrize("arm", ["image_level", "feature_spatial"])
    def test_other_arms_run(self, dataset, arm):
        cfg = TrainConfig(epochs=2, shots=2, seed=1, augmentation=arm)
        _, log_rows, _ = train(cfg, tiny_net_config(), dataset)
        assert len(log_rows) == 2
        assert all(np.isfinite(row[1]) for row in log_rows)

    def test_image_level_corrupts_through_the_synth_module(self, dataset,
                                                          monkeypatch):
        """Training looks ``corrupt`` up on ``augseg.synth`` at each call,
        so a wrapper set there, as perfbench's tracer sets one, sees every
        image of every epoch."""
        images = []
        corrupt = synth.corrupt

        def counting(image, spec):
            images.append(image.shape)
            return corrupt(image, spec)

        monkeypatch.setattr(synth, "corrupt", counting)
        train(TrainConfig(epochs=3, shots=3, batch_size=2, seed=2,
                          augmentation="image_level"),
              tiny_net_config(), dataset)
        assert images == [(1, 64, 64)] * 9

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

    def test_checkpoint_holds_only_what_a_reload_reads(self, dataset,
                                                       tmp_path):
        out = tmp_path / "run"
        cfg = TrainConfig(epochs=1, shots=1, seed=3, augmentation="none")
        net, _, _ = train(cfg, tiny_net_config(), dataset, str(out))
        files = sorted(p.name for p in (out / "checkpoint").iterdir())
        assert files == sorted([f"{n}.daug" for n in net.parameters()]
                               + ["checkpoint.json"])
        manifest = json.loads((out / "checkpoint" / "checkpoint.json")
                              .read_text())
        assert sorted(manifest) == ["config", "epoch", "extra", "format",
                                    "parameters", "seed"]

    def test_fused_attention_trains_like_composed_chain(self, dataset,
                                                        monkeypatch):
        # the one-op attention evaluates in another order than the
        # primitive-op chain, so float32 results differ in the low bits;
        # through three epochs of Adam they must stay that close
        cfg = TrainConfig(epochs=3, shots=2, seed=8, learning_rate=3e-3,
                          augmentation="feature_wavelet")
        net_cfg = NetworkConfig(param_seed=8)
        fused_net, fused_log, _ = train(cfg, net_cfg, dataset)
        monkeypatch.setattr(fusion, "cross_attention", composed_attention)
        chain_net, chain_log, _ = train(cfg, net_cfg, dataset)
        assert len(fused_log) == len(chain_log) == 3
        for row, chain_row in zip(fused_log, chain_log):
            assert row[0] == chain_row[0]
            np.testing.assert_allclose(row[1:], chain_row[1:], rtol=0,
                                       atol=1e-5)
        chain_params = chain_net.parameters()
        for name, tensor in fused_net.parameters().items():
            np.testing.assert_allclose(tensor.numpy(),
                                       chain_params[name].numpy(), rtol=0,
                                       atol=1e-4, err_msg=name)

    def test_default_network_step_records_at_most_55_tape_nodes(
            self, dataset, monkeypatch):
        # the token norm, the attention and the loss are one node each, and
        # each ccu conv reads its two inputs without a concat node; a
        # feature_wavelet step records 55, 58 with the concats, and 95
        # when the norm and the loss were chains of primitive ops
        sizes = []
        backward = trainer.GradTape.backward

        def counting(tape, loss):
            sizes.append(len(tape))
            return backward(tape, loss)

        monkeypatch.setattr(trainer.GradTape, "backward", counting)
        train(TrainConfig(epochs=1, shots=2, batch_size=2,
                          augmentation="feature_wavelet"),
              NetworkConfig(), dataset)
        assert len(sizes) == 1 and sizes[0] <= 55, sizes

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


def _logit_cases():
    rng = np.random.default_rng(77)
    for n, c in ((1, 2), (2, 3), (1, 5)):
        normal = rng.normal(size=(n, c, 16, 16))
        yield normal.astype(np.float32)
        yield normal
        # ties: few distinct values, so most pixels tie between classes
        yield rng.integers(0, 3, size=(n, c, 16, 16)).astype(np.float32)
        specials = np.array([np.inf, -np.inf, 0.0, 1.0], np.float32)
        yield specials[rng.integers(0, 4, size=(n, c, 16, 16))]
        for class_ in range(c):
            nan = normal.astype(np.float32)
            nan[:, class_, :4] = np.nan        # one class NaN
            nan[:, :, 8] = np.nan              # every class NaN
            nan[:, -1, 12] = -np.inf
            nan[:, class_, 12:] = np.nan       # NaN next to -inf
            yield nan


class TestClassArgmax:
    @pytest.mark.parametrize("logits", list(_logit_cases()))
    def test_equals_numpy_argmax(self, logits):
        got = _class_argmax(logits)
        assert got.dtype == np.uint8
        np.testing.assert_array_equal(got, np.argmax(logits, axis=1))

    def test_does_not_write_the_logits(self):
        logits = np.random.default_rng(78).normal(size=(2, 3, 8, 8))
        before = logits.copy()
        _class_argmax(logits)
        np.testing.assert_array_equal(logits, before)


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

    def test_class_count_must_match_the_network(self, dataset, tmp_path):
        # a class the network cannot predict, absent from the few test
        # masks, would score Dice 1
        four = tmp_path / "four"
        write_dataset(four, train_seeds=range(2), test_seeds=range(500, 502),
                      config=SynthConfig(num_classes=4))
        net = Network(tiny_net_config())
        with pytest.raises(InputError,
                           match="dataset has 4 classes, network expects 3"):
            evaluate(net, str(four), split="test")

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
        written = json.loads((tmp_path / "wilcoxon.json").read_text())
        assert written == {k: {"n": t.n, "W": t.statistic, "p": t.p_value,
                               "method": t.method} for k, t in tests.items()}

    def test_arm_sets_fusion_switch_on_network_config(self, dataset,
                                                      monkeypatch):
        seen = []
        real_train = trainer.train

        def spy(train_cfg, net_cfg, data_dir, out_dir=None, **kw):
            seen.append(net_cfg.use_cg_fuse)
            return real_train(train_cfg, net_cfg, data_dir, out_dir, **kw)

        monkeypatch.setattr(trainer, "train", spy)
        ablation_run(table8_arms(), [0], TrainConfig(epochs=1, shots=1),
                     tiny_net_config(), dataset)
        assert seen == [True, True, False, False]

    @pytest.mark.parametrize("arms", [table6_arms, table8_arms])
    def test_outputs_match_monitored_per_tensor_adam_run(
            self, dataset, tmp_path, monkeypatch, arms):
        # the harness skips the train-Dice monitor and steps the flat
        # store; neither may change a byte of what it writes
        cfg = TrainConfig(epochs=2, shots=2, learning_rate=3e-3)
        ablation_run(arms(), [0, 1], cfg, tiny_net_config(), dataset,
                     str(tmp_path / "flat"))
        real_train = trainer.train
        monitored = []

        def monitored_train(*args, monitor, **kw):
            monitored.append(monitor)
            return real_train(*args, monitor=True, **kw)

        monkeypatch.setattr(trainer, "train", monitored_train)
        monkeypatch.setattr(trainer, "AdamState", ReferenceAdamState)
        monkeypatch.setattr(trainer, "adam_step", reference_adam_step)
        ablation_run(arms(), [0, 1], cfg, tiny_net_config(), dataset,
                     str(tmp_path / "reference"))
        assert monitored == [False] * 8
        for name in ("ablation.csv", "wilcoxon.json"):
            assert (tmp_path / "flat" / name).read_bytes() == \
                (tmp_path / "reference" / name).read_bytes(), name

    def test_table8_arms_toggle_fusion(self):
        arms = table8_arms()
        assert [a.use_cg_fuse for a in arms] == [True, True, False, False]
        assert [a.augmentation for a in arms] == [
            "feature_wavelet", "none", "feature_wavelet", "none"]


class TestLongLivedUse:
    def test_repeated_train_and_evaluate_hold_traced_memory_flat(
            self, dataset):
        """Rounds of training every arm and evaluating, in one process,
        keep no memory past the first round: the tape is cleared on exit
        and the caches are bounded.  Each network with its optimizer
        store traces about 150 kB, so keeping even one per round would
        exceed the slack."""
        def one_round():
            for arm in ARMS:
                net, _, _ = train(TrainConfig(epochs=2, shots=2, seed=1,
                                              augmentation=arm),
                                  tiny_net_config(), dataset)
                evaluate(net, dataset)

        tracemalloc.start()
        try:
            traced = []
            for _ in range(4):
                one_round()
                gc.collect()
                traced.append(tracemalloc.get_traced_memory()[0])
        finally:
            tracemalloc.stop()
        assert traced[-1] - traced[0] < 64 * 1024, traced
