"""Encoder/decoder assembly, forward contracts, checkpoint round-trips."""

import json
import os
import tracemalloc
from dataclasses import asdict, fields

import numpy as np
import pytest

from augseg import daug
from augseg.autodiff import GradTape, Tensor, use_tape
from augseg.errors import ContractError, InputError, NumericDomainError
from augseg.losses import combined_loss
from augseg.model import (
    CcuParams,
    EncoderSpec,
    HeadParams,
    Network,
    NetworkConfig,
    ccu,
    load_checkpoint,
    save_checkpoint,
    seg_head,
)
from augseg.wavelet import WtAugConfig, wt_aug


def small_config(**kw):
    defaults = dict(
        encoder=EncoderSpec(channels=(4, 6, 8, 10), seed=1),
        num_classes=3,
        image_size=64,
        head_count=2,
        param_seed=7,
    )
    defaults.update(kw)
    return NetworkConfig(**defaults)


def wavelet_aug(net, rng):
    """The trainer's ``feature_wavelet`` augmentation: each stage masked
    with its own ``wt_aug`` config, the masks drawn from ``rng``."""
    return lambda f, i: wt_aug(f, net.config.wt_aug[i], rng)


class TestEncoderSpec:
    def test_stage_count_enforced(self):
        with pytest.raises(ContractError):
            EncoderSpec(channels=(4, 8, 16))

    def test_strides_monotone(self):
        with pytest.raises(ContractError):
            EncoderSpec(strides=(4, 16, 8, 32))

    @pytest.mark.parametrize("kw", [
        dict(channels=(4, True, 8, 10)), dict(strides=(4, 8, 16)),
        dict(strides=(4, 8, 16, 24)), dict(strides=(2, 4, 4, 8))])
    def test_entries_checked(self, kw):
        with pytest.raises(ContractError, match="encoder"):
            EncoderSpec(**kw)

    @pytest.mark.parametrize("ff_mult", [0, -1, True, 2.0])
    def test_ff_mult_must_be_a_positive_integer(self, ff_mult):
        with pytest.raises(ContractError, match="ff_mult"):
            small_config(ff_mult=ff_mult)

    def test_ff_mult_one_builds(self):
        net = Network(small_config(ff_mult=1))
        logits = net.forward(Tensor(np.zeros((1, 1, 64, 64), np.float32)))
        assert logits.shape == (1, 3, 64, 64)

    @pytest.mark.parametrize("strides", [(2, 4, 8, 16), (4, 8, 16, 64)])
    def test_every_accepted_stride_layout_decodes(self, strides):
        net = Network(small_config(
            encoder=EncoderSpec(channels=(4, 6, 8, 10), strides=strides)))
        logits = net.forward(Tensor(np.zeros((1, 1, 64, 64), np.float32)))
        assert logits.shape == (1, 3, 64, 64)


class TestEncode:
    def test_stride_arithmetic(self):
        net = Network(small_config())
        image = Tensor(np.zeros((1, 1, 64, 64), dtype=np.float32))
        stages = net.encode(image)
        assert [s.shape for s in stages] == [
            (1, 4, 16, 16), (1, 6, 8, 8), (1, 8, 4, 4), (1, 10, 2, 2)]

    def test_frozen_determinism(self):
        net = Network(small_config())
        rng = np.random.default_rng(0)
        image = Tensor(rng.random((1, 1, 64, 64)).astype(np.float32))
        a = net.encode(image)
        b = net.encode(image)
        for sa, sb in zip(a, b):
            np.testing.assert_array_equal(sa.numpy(), sb.numpy())

    @pytest.mark.parametrize("kind", ["toy", "default"])
    def test_stacked_batch_equals_stacked_per_sample(self, kind):
        # the trainer's encoder cache relies on this being bit-exact
        net = Network(small_config() if kind == "toy" else NetworkConfig())
        images = np.random.default_rng(3).random((3, 1, 64, 64)) \
            .astype(np.float32)
        batch = net.encode(Tensor(images))
        single = [net.encode(Tensor(images[i:i + 1])) for i in range(3)]
        for s, got in enumerate(batch):
            want = np.concatenate([stages[s].numpy() for stages in single])
            assert np.array_equal(got.numpy(), want)

    def test_non_finite_image_rejected(self):
        net = Network(small_config())
        image = np.random.default_rng(4).random((1, 1, 64, 64)) \
            .astype(np.float32)
        image[0, 0, 5, 7] = np.nan
        with pytest.raises(NumericDomainError, match="non-finite"):
            net.forward(Tensor(image), mode="eval")
        image[0, 0, 5, 7] = np.inf
        with pytest.raises(NumericDomainError, match="non-finite"):
            net.encode(Tensor(image))

    def test_only_grayscale_input(self):
        net = Network(small_config())
        with pytest.raises(ContractError, match="input channels 3"):
            net.encode(Tensor(np.zeros((1, 3, 64, 64), np.float32)))

    def test_same_seed_same_features(self):
        image = Tensor(np.random.default_rng(1).random((1, 1, 64, 64))
                       .astype(np.float32))
        f_a = Network(small_config()).encode(image)
        f_b = Network(small_config()).encode(image)
        for sa, sb in zip(f_a, f_b):
            np.testing.assert_array_equal(sa.numpy(), sb.numpy())


class TestCcu:
    def make_params(self, c_in, c_out, rng):
        return CcuParams(
            conv_w=Tensor(rng.normal(size=(c_out, c_in, 3, 3))
                          .astype(np.float32) * 0.1, requires_grad=True),
            conv_b=Tensor.zeros((c_out,), requires_grad=True),
            up_w=Tensor(rng.normal(size=(c_out, c_out, 2, 2))
                        .astype(np.float32) * 0.1, requires_grad=True),
            up_b=Tensor.zeros((c_out,), requires_grad=True),
        )

    def test_output_doubles_spatial(self):
        rng = np.random.default_rng(3)
        for h, w in [(4, 4), (3, 5), (8, 2)]:
            fused = Tensor(rng.normal(size=(1, 5, h, w)).astype(np.float32))
            skip = Tensor(rng.normal(size=(1, 3, h, w)).astype(np.float32))
            out = ccu(fused, skip, self.make_params(8, 6, rng))
            assert out.shape == (1, 6, 2 * h, 2 * w)

    def test_spatial_mismatch_rejected(self):
        rng = np.random.default_rng(4)
        fused = Tensor(np.zeros((1, 2, 4, 4), dtype=np.float32))
        skip = Tensor(np.zeros((1, 2, 8, 8), dtype=np.float32))
        with pytest.raises(ContractError):
            ccu(fused, skip, self.make_params(4, 4, rng))

    def test_gradient_reaches_both_inputs(self):
        rng = np.random.default_rng(5)
        fused = Tensor(rng.normal(size=(1, 2, 4, 4)).astype(np.float32),
                       requires_grad=True)
        skip = Tensor(rng.normal(size=(1, 2, 4, 4)).astype(np.float32),
                      requires_grad=True)
        params = self.make_params(4, 3, rng)
        with use_tape(GradTape()) as tape:
            out = ccu(fused, skip, params)
            tape.backward(out, np.ones(out.shape, np.float32))
        assert fused.grad is not None and np.abs(fused.grad).sum() > 0
        assert skip.grad is not None and np.abs(skip.grad).sum() > 0


class TestSegHead:
    def make_params(self, c, k, rng):
        return HeadParams(
            conv_w=Tensor(rng.normal(size=(c, c, 3, 3)).astype(np.float32) * 0.2,
                          requires_grad=True),
            conv_b=Tensor.zeros((c,), requires_grad=True),
            out_w=Tensor(rng.normal(size=(k, c, 1, 1)).astype(np.float32),
                         requires_grad=True),
            out_b=Tensor.zeros((k,), requires_grad=True),
        )

    def test_output_shape(self):
        rng = np.random.default_rng(6)
        feat = Tensor(rng.normal(size=(2, 4, 16, 16)).astype(np.float32))
        out = seg_head(feat, self.make_params(4, 3, rng), (64, 64))
        assert out.shape == (2, 3, 64, 64)

    def test_constant_features_give_constant_logits(self):
        rng = np.random.default_rng(7)
        feat = Tensor(np.full((1, 4, 8, 8), 0.7, np.float32))
        out = seg_head(feat, self.make_params(4, 2, rng), (16, 16)).numpy()
        # interior is translation invariant; borders see zero padding
        interior = out[:, :, 3:-3, 3:-3]
        for k in range(2):
            vals = interior[0, k]
            assert np.max(np.abs(vals - vals[0, 0])) < 1e-5

    def test_logits_finite(self):
        rng = np.random.default_rng(8)
        feat = Tensor(rng.normal(size=(1, 4, 8, 8)).astype(np.float32) * 10)
        out = seg_head(feat, self.make_params(4, 3, rng), (32, 32))
        assert np.all(np.isfinite(out.numpy()))


class TestForward:
    def test_eval_bit_deterministic(self):
        net = Network(small_config())
        image = Tensor(np.random.default_rng(9).random((1, 1, 64, 64))
                       .astype(np.float32))
        a = net.forward(image, mode="eval").numpy()
        b = net.forward(image, mode="eval").numpy()
        np.testing.assert_array_equal(a, b)
        assert a.shape == (1, 3, 64, 64)

    def test_train_reproducible_with_seed(self):
        net = Network(small_config())
        image = Tensor(np.random.default_rng(10).random((1, 1, 64, 64))
                       .astype(np.float32))
        a = net.forward(image, mode="train", feature_aug=wavelet_aug(
            net, np.random.default_rng(123))).numpy()
        b = net.forward(image, mode="train", feature_aug=wavelet_aug(
            net, np.random.default_rng(123))).numpy()
        np.testing.assert_array_equal(a, b)
        # the masks did act: keep_prob 0.8 drops sub-band coefficients
        assert not np.array_equal(a, net.forward(image, mode="eval").numpy())

    def test_feature_aug_maps_stage_arrays(self):
        # the stage maps are frozen features, so the augmentation sees
        # and returns plain arrays, one call per stage in order
        net = Network(small_config())
        image = Tensor(np.random.default_rng(16).random((1, 1, 64, 64))
                       .astype(np.float32))
        seen = []

        def record(f, i):
            seen.append((type(f), i))
            return f

        net.forward(image, mode="train", feature_aug=record)
        assert seen == [(np.ndarray, i) for i in range(4)]

    def test_train_without_a_feature_aug_equals_eval(self):
        net = Network(small_config())
        image = Tensor(np.random.default_rng(15).random((2, 1, 64, 64))
                       .astype(np.float32))
        np.testing.assert_array_equal(
            net.forward(image, mode="train").numpy(),
            net.forward(image, mode="eval").numpy())

    def test_keep_prob_one_matches_eval(self):
        cfg = small_config(wt_aug=(WtAugConfig(keep_prob=(1, 1, 1, 1)),) * 4)
        net = Network(cfg)
        image = Tensor(np.random.default_rng(11).random((1, 1, 64, 64))
                       .astype(np.float32))
        train_logits = net.forward(image, mode="train", feature_aug=wavelet_aug(
            net, np.random.default_rng(0))).numpy()
        eval_logits = net.forward(image, mode="eval").numpy()
        assert np.max(np.abs(train_logits - eval_logits)) < 1e-5

    def test_cg_fuse_toggle_changes_output(self):
        image = Tensor(np.random.default_rng(12).random((1, 1, 64, 64))
                       .astype(np.float32))
        on = Network(small_config()).forward(image).numpy()
        off = Network(small_config(use_cg_fuse=False)).forward(image).numpy()
        assert on.shape == off.shape
        # zero-init w_o means fusion starts as identity plus feed-forward
        # of zero, so outputs agree at init
        np.testing.assert_allclose(on, off, atol=1e-6)

    def test_encoder_gets_zero_gradient(self):
        net = Network(small_config())
        image = Tensor(np.random.default_rng(13).random((1, 1, 64, 64))
                       .astype(np.float32))
        labels = np.random.default_rng(14).integers(0, 3, size=(1, 64, 64))
        with use_tape(GradTape()) as tape:
            aug = wavelet_aug(net, np.random.default_rng(1))
            loss = combined_loss(net.forward(image, mode="train",
                                             feature_aug=aug), labels)
            tape.backward(loss)
        for name, p in net.parameters().items():
            if name.startswith("encoder."):
                assert not p.requires_grad
                assert p.grad is None
        grads = [p.grad for n, p in net.trainable_parameters().items()]
        assert any(g is not None and np.abs(g).sum() > 0 for g in grads)

    def test_cg_fuse_off_leaves_fusion_out_of_the_trainables(self):
        on = Network(small_config()).trainable_parameters()
        off = Network(small_config(use_cg_fuse=False)).trainable_parameters()
        assert any(name.startswith("fusion.") for name in on)
        # the same names in the same order, fusion blocks left out
        assert list(off) == [n for n in on if not n.startswith("fusion.")]
        assert all(p.requires_grad for p in off.values())

    def test_eval_forwards_outside_a_tape_keep_nothing(self):
        # Outside ``use_tape`` an eval forward is plain numpy: nothing
        # holds its activations, and parameters stay assignable.
        net = Network(NetworkConfig())
        image = Tensor(np.random.default_rng(18).random((1, 1, 64, 64))
                       .astype(np.float32))
        net.forward(image, mode="eval")
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(50):
                logits = net.forward(image, mode="eval")
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert not logits.requires_grad
        assert grown < 5 * 2**20
        net.head.out_b.assign(np.ones(net.head.out_b.shape))
        np.testing.assert_array_equal(net.head.out_b.numpy(), 1.0)

    @pytest.mark.parametrize("size", [0, -32, -64, 48, 64.0, True])
    def test_image_size_must_be_a_positive_multiple_of_the_deepest_stride(
            self, size):
        with pytest.raises(ContractError, match="image_size"):
            NetworkConfig(image_size=size)

    def test_wrong_image_size_rejected(self):
        net = Network(small_config())
        with pytest.raises(ContractError):
            net.forward(Tensor(np.zeros((1, 1, 32, 32), dtype=np.float32)))


class TestCheckpoint:
    def test_save_load_bit_exact_forward(self, tmp_path):
        net = Network(small_config())
        image = Tensor(np.random.default_rng(15).random((1, 1, 64, 64))
                       .astype(np.float32))
        # perturb a trainable weight so we are not just reloading init
        next(iter(net.trainable_parameters().values())).assign(
            np.random.default_rng(16).normal(
                size=next(iter(net.trainable_parameters().values())).shape)
            .astype(np.float32))
        want = net.forward(image, mode="eval").numpy()
        save_checkpoint(tmp_path / "ckpt", net, epoch=5, seed=99)
        loaded, manifest = load_checkpoint(tmp_path / "ckpt")
        assert manifest["epoch"] == 5 and manifest["seed"] == 99
        got = loaded.forward(image, mode="eval").numpy()
        np.testing.assert_array_equal(got, want)

    def test_interrupted_overwrite_keeps_old_checkpoint(self, tmp_path,
                                                        monkeypatch):
        net = Network(small_config())
        image = Tensor(np.random.default_rng(19).random((1, 1, 64, 64))
                       .astype(np.float32))
        save_checkpoint(tmp_path / "ckpt", net, epoch=1, seed=3)
        want = load_checkpoint(tmp_path / "ckpt")[0].forward(image).numpy()

        changed = Network(small_config(param_seed=8))
        write_tensor, written = daug.write_tensor, []

        def failing_write(path, arr):
            # every tensor but the last one reaches the disk
            if len(written) == len(changed.parameters()) - 1:
                raise OSError("disk full")
            written.append(path)
            write_tensor(path, arr)

        monkeypatch.setattr(daug, "write_tensor", failing_write)
        with pytest.raises(OSError):
            save_checkpoint(tmp_path / "ckpt", changed, epoch=2, seed=4)
        loaded, manifest = load_checkpoint(tmp_path / "ckpt")
        assert manifest["epoch"] == 1 and manifest["seed"] == 3
        np.testing.assert_array_equal(loaded.forward(image).numpy(), want)
        assert os.listdir(tmp_path) == ["ckpt"]

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(InputError):
            load_checkpoint(tmp_path)

    def test_config_json_roundtrip(self):
        cfg = small_config(use_cg_fuse=False, wt_aug=tuple(
            WtAugConfig(keep_prob=(0.9, 0.8, 0.7, p), channel_shared=p > 0.4)
            for p in (0.6, 0.5, 0.4, 0.3)))
        # what a checkpoint manifest stores and load_checkpoint rebuilds
        back = NetworkConfig(**json.loads(json.dumps(asdict(cfg))))
        assert back == cfg
        assert len(fields(NetworkConfig)) == 9
