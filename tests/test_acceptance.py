"""Acceptance suite: one test per criterion, each printing a PASS line.

Criteria 1-7 and 10 are here; the module runs in about 8 s.
Criteria 8 and 9, the seeded trend experiments (augmentation arms and
module toggles), are not implemented yet, so no test here runs them.
"""

import hashlib
import time

import numpy as np
import pytest

from augseg.autodiff import (
    Tensor,
    bilinear_resize,
    conv2d,
    conv_transpose2d,
    finite_diff_check,
    gelu,
    matmul,
    relu,
)
from augseg import daug
from augseg.fusion import _add_tokens, _norm_tokens, cg_fuse, cross_attention
from augseg.losses import combined_loss
from augseg.metrics import dice_score, hd95, wilcoxon_signed_rank
from augseg.model import EncoderSpec, Network, NetworkConfig, load_checkpoint
from augseg.netpbm import read_pgm, write_pgm, write_ppm, read_ppm
from augseg.synth import write_dataset
from augseg.trainer import TrainConfig, train
from augseg.wavelet import WtAugConfig, haar_dwt2, haar_idwt2, wt_aug
from augseg.errors import FormatError

from test_autodiff import (add, concat, getitem, mul, reshape, softmax,
                           transpose, tsum)
from test_fusion import drawn_params
from test_metrics import oracle_hd95, oracle_wilcoxon_p
from test_wavelet import reference_haar_dwt2, reference_haar_idwt2


def report(criterion, detail=""):
    print(f"\nACCEPTANCE {criterion}: PASS {detail}")


# ----------------------------------------------------------------------
# 1. wavelet round-trip
# ----------------------------------------------------------------------
def test_criterion_1_wavelet_roundtrip():
    rng = np.random.default_rng(10)
    start = time.time()
    worst32 = worst64 = 0.0
    for i in range(1000):
        n = int(rng.integers(1, 3))
        c = int(rng.integers(1, 9))
        h = int(rng.integers(2, 17))
        w = int(rng.integers(2, 17))
        f32 = rng.normal(size=(n, c, h, w)).astype(np.float32)
        err32 = float(np.max(np.abs(haar_idwt2(haar_dwt2(f32), (h, w)) - f32)))
        worst32 = max(worst32, err32)
        if i % 10 == 0:
            f64 = rng.normal(size=(n, c, h, w)).astype(np.float64)
            err64 = float(np.max(np.abs(
                haar_idwt2(haar_dwt2(f64), (h, w)) - f64)))
            worst64 = max(worst64, err64)
    elapsed = time.time() - start
    assert worst32 < 1e-5, f"float32 round-trip error {worst32}"
    assert worst64 < 1e-10, f"float64 round-trip error {worst64}"
    assert elapsed < 10.0, f"round-trip sweep took {elapsed:.1f}s"
    report(1, f"(max err f32 {worst32:.2e}, f64 {worst64:.2e}, {elapsed:.1f}s)")


# ----------------------------------------------------------------------
# 2. WT-Aug identity and LL-only block means
# ----------------------------------------------------------------------
def test_criterion_2_wt_aug_identity():
    rng = np.random.default_rng(20)
    mask_rng = np.random.default_rng(1)
    keep_all = WtAugConfig(keep_prob=(1, 1, 1, 1))
    for _ in range(100):
        shape = (int(rng.integers(1, 3)), int(rng.integers(1, 5)),
                 int(rng.integers(2, 13)), int(rng.integers(2, 13)))
        f = rng.normal(size=shape).astype(np.float32)
        out = wt_aug(f, keep_all, mask_rng)
        assert np.max(np.abs(out - f)) < 1e-5
    ll_only = WtAugConfig(keep_prob=(1, 0, 0, 0))
    for _ in range(20):
        h = int(rng.integers(1, 7)) * 2
        w = int(rng.integers(1, 7)) * 2
        f = rng.normal(size=(1, 2, h, w)).astype(np.float32)
        out = wt_aug(f, ll_only, mask_rng)
        blocks = f.reshape(1, 2, h // 2, 2, w // 2, 2)
        means = blocks.mean(axis=(3, 5), keepdims=True)
        want = np.broadcast_to(means, blocks.shape).reshape(f.shape)
        assert np.max(np.abs(out - want)) < 1e-5
    report(2)


# ----------------------------------------------------------------------
# 3. gradient suite
# ----------------------------------------------------------------------
def test_criterion_3_gradient_suite():
    start = time.time()
    rng = np.random.default_rng(30)

    def t(shape, scale=1.0, offset=0.0):
        return Tensor(rng.normal(size=shape) * scale + offset)

    w31 = t((3, 4))
    w33 = t((1, 2, 4, 4))
    w_conv = t((2, 2, 3, 3), 0.5)
    w_convt = t((2, 3, 2, 2), 0.5)
    w_convt_out = t((1, 3, 6, 6))
    w_small = t((5,))
    w_sum = t((4,))
    w_norm = t((2, 6, 5))
    w_shape = t((4, 4))
    w_wave = t((1, 2, 5, 5))
    w_bilin = t((1, 2, 6, 7))
    x_aff = t((2, 3))
    w_aff = t((2, 4))
    w_res = t((2, 3, 2, 3))
    # each check's cotangent is the .data of one of the tensors above
    checks = {
        "add": lambda: finite_diff_check(lambda x: add(x, w31), t((3, 4)),
                                         w31.data),
        "mul": lambda: finite_diff_check(lambda x: tsum(mul(mul(x, w31), x)),
                                         t((3, 4))),
        "matmul": lambda: finite_diff_check(
            lambda x: tsum(mul(matmul(x, w31), matmul(x, w31))), t((2, 3))),
        "conv2d": lambda: finite_diff_check(
            lambda x: conv2d(x, w_conv, padding=1), t((1, 2, 4, 4)), w33.data),
        "conv_transpose2d": lambda: finite_diff_check(
            lambda x: conv_transpose2d(x, w_convt), t((1, 2, 3, 3)),
            w_convt_out.data),
        "softmax": lambda: finite_diff_check(
            lambda x: softmax(x, -1), t((3, 4)), w31.data),
        "relu": lambda: finite_diff_check(relu, t((5,), 1.0, 0.3),
                                          w_small.data),
        "gelu": lambda: finite_diff_check(gelu, t((5,)), w_small.data),
        "token norm": lambda: finite_diff_check(
            _norm_tokens, t((2, 5, 2, 3)), w_norm.data),
        "reshape/transpose/concat/slice": lambda: finite_diff_check(
            lambda x: getitem(concat([transpose(reshape(x, (2, 6)), (1, 0)),
                                      transpose(reshape(x, (2, 6)), (1, 0))],
                                     axis=1), np.s_[1:5, :]),
            t((12,)), w_shape.data),
        "bilinear_resize": lambda: finite_diff_check(
            lambda x: bilinear_resize(x, (6, 7)), t((1, 2, 3, 4)),
            w_bilin.data),
        "sum": lambda: finite_diff_check(lambda x: tsum(x, axis=0), t((3, 4)),
                                         w_sum.data),
        "wavelet": lambda: finite_diff_check(
            lambda x: reference_haar_idwt2(reference_haar_dwt2(x), (5, 5)),
            t((1, 2, 5, 5)), w_wave.data),
        "matmul + bias": lambda: finite_diff_check(
            lambda b: matmul(x_aff, w31, b), t((4,)), w_aff.data),
        "token residual": lambda: finite_diff_check(
            lambda x: _add_tokens(w_res, x), t((2, 6, 3)), w_res.data),
    }
    failures = {}
    for name, check in checks.items():
        err = check()
        if err >= 1e-4:
            failures[name] = err
    assert not failures, f"gradient failures: {failures}"

    # end-to-end cg_fuse
    params = drawn_params(4, 5, seed=31, head_count=2, dtype=np.float64)
    enc = t((1, 5, 2, 3))
    w_out = t((1, 4, 2, 3))
    err = finite_diff_check(lambda d: cg_fuse(d, enc, params),
                            t((1, 4, 2, 3)), w_out.data)
    assert err < 1e-4, f"cg_fuse end-to-end gradient err {err}"

    # end-to-end combined loss
    labels = rng.integers(0, 3, size=(1, 4, 4))
    err = finite_diff_check(lambda x: combined_loss(x, labels),
                            t((1, 3, 4, 4)))
    assert err < 1e-4, f"combined_loss gradient err {err}"
    elapsed = time.time() - start
    assert elapsed < 60.0, f"gradient suite took {elapsed:.1f}s"
    report(3, f"({len(checks) + 2} paths, {elapsed:.1f}s)")


# ----------------------------------------------------------------------
# 4. attention contracts
# ----------------------------------------------------------------------
def test_criterion_4_attention_contracts():
    rng = np.random.default_rng(40)
    # with V = I, cross_attention returns its softmax rows
    eye = Tensor(np.eye(8)[None])
    for _ in range(30):
        q = Tensor(rng.normal(size=(1, 3, 8)) * rng.uniform(0.2, 200))
        k = Tensor(rng.normal(size=(1, 8, 8)))
        y = cross_attention(q, k, eye, head_count=1).numpy()
        assert np.all(y >= 0)
        assert np.max(np.abs(y.sum(axis=-1) - 1.0)) < 1e-6

    q = Tensor(rng.normal(size=(2, 6, 4)))
    kv = Tensor(rng.normal(size=(2, 1, 4)))
    out = cross_attention(q, kv, kv, head_count=2).numpy()
    assert np.array_equal(out, np.repeat(kv.numpy(), 6, axis=1)), \
        "single-key attention must return V exactly"

    dec = Tensor(rng.normal(size=(1, 4, 3, 3)).astype(np.float64))
    enc = rng.normal(size=(1, 6, 3, 3))
    params = drawn_params(4, 6, seed=41, head_count=2, dtype=np.float64)
    base = cg_fuse(dec, Tensor(enc), params).numpy()
    perm = rng.permutation(9)
    enc_p = enc.reshape(1, 6, 9)[:, :, perm].reshape(1, 6, 3, 3)
    diff = np.max(np.abs(cg_fuse(dec, Tensor(enc_p), params).numpy() - base))
    assert diff < 1e-5, f"K/V permutation changed output by {diff}"

    worked = cross_attention(Tensor(np.array([[[1.0]]])),
                             Tensor(np.array([[[1.0], [-1.0]]])),
                             Tensor(np.array([[[1.0], [0.0]]])),
                             head_count=1).numpy()
    assert abs(worked[0, 0, 0] - 0.88080) < 1e-4
    report(4, f"(worked example {worked[0, 0, 0]:.5f})")


# ----------------------------------------------------------------------
# 5. metric oracles
# ----------------------------------------------------------------------
def test_criterion_5_metric_oracles():
    rng = np.random.default_rng(50)
    for _ in range(500):
        p_frac = rng.uniform(0.05, 0.6)
        g_frac = rng.uniform(0.05, 0.6)
        pred = (rng.random((12, 12)) < p_frac).astype(np.uint8)
        gt = (rng.random((12, 12)) < g_frac).astype(np.uint8)
        inter = int(((pred == 1) & (gt == 1)).sum())
        tot = int((pred == 1).sum() + (gt == 1).sum())
        want_dice = 1.0 if tot == 0 else 2 * inter / tot
        assert dice_score(pred, gt, 1) == want_dice
        assert hd95(pred, gt, 1) == oracle_hd95(pred, gt, 1)

    cases = 0
    for n in range(1, 13):
        for _ in range(3):
            d = np.round(rng.normal(size=n) * 4, 1)
            res = wilcoxon_signed_rank(d)
            if res.method == "degenerate":
                continue
            assert res.p_value == pytest.approx(oracle_wilcoxon_p(d),
                                                abs=1e-12)
            cases += 1
    res = wilcoxon_signed_rank([0.3, 0.9, 1.7, 2.1, 5.0])
    assert res.p_value == pytest.approx(0.0625)
    report(5, f"(500 mask pairs, {cases} wilcoxon cases)")


# ----------------------------------------------------------------------
# 6. frozen encoder + checkpoint reproducibility
# ----------------------------------------------------------------------
def test_criterion_6_frozen_encoder_and_checkpoint(tmp_path):
    data_dir = tmp_path / "data"
    write_dataset(data_dir, train_seeds=range(4), test_seeds=range(900, 903))
    net_cfg = NetworkConfig(encoder=EncoderSpec(channels=(4, 6, 8, 10), seed=2),
                            head_count=2, param_seed=3)
    before = {
        name: hashlib.sha256(t.numpy().tobytes()).hexdigest()
        for name, t in Network(net_cfg).parameters().items()
        if name.startswith("encoder.")
    }
    cfg = TrainConfig(epochs=3, shots=2, seed=1, augmentation="feature_wavelet")
    net, _, _ = train(cfg, net_cfg, str(data_dir), str(tmp_path / "run"))
    after = {name: hashlib.sha256(t.numpy().tobytes()).hexdigest()
             for name, t in net.parameters().items()
             if name.startswith("encoder.")}
    assert before == after, "encoder parameter checksums changed"

    image = Tensor(np.random.default_rng(60).random((1, 1, 64, 64))
                   .astype(np.float32))
    want = net.forward(image, mode="eval").numpy()
    reloaded, _ = load_checkpoint(tmp_path / "run" / "checkpoint")
    got = reloaded.forward(image, mode="eval").numpy()
    assert np.array_equal(got, want), "reloaded forward is not bit-identical"
    report(6)


# ----------------------------------------------------------------------
# 7. overfit smoke
# ----------------------------------------------------------------------
def test_criterion_7_overfit_smoke(tmp_path):
    start = time.time()
    data_dir = tmp_path / "data"
    write_dataset(data_dir, train_seeds=[3], test_seeds=[901])
    cfg = TrainConfig(epochs=200, shots=1, seed=0, augmentation="none")
    net, log_rows, _ = train(cfg, NetworkConfig(), str(data_dir))
    final_dice = log_rows[-1][2]
    losses = [row[1] for row in log_rows]
    decreases = sum(1 for i in range(1, 21) if losses[i] < losses[i - 1])
    elapsed = time.time() - start
    assert final_dice >= 0.95, f"train dice {final_dice:.4f} < 0.95"
    assert decreases >= 18, f"loss decreased in only {decreases}/20 early epochs"
    assert elapsed < 300.0, f"overfit run took {elapsed:.0f}s"
    report(7, f"(dice {final_dice:.4f}, {decreases}/20 decreasing, "
              f"{elapsed:.0f}s)")


# ----------------------------------------------------------------------
# 10. format round-trips and diagnostics
# ----------------------------------------------------------------------
def test_criterion_10_format_roundtrips(tmp_path):
    rng = np.random.default_rng(100)
    for dtype in (np.float32, np.float64, np.uint8):
        if dtype == np.uint8:
            arr = rng.integers(0, 256, size=(2, 5, 5), dtype=np.uint8)
        else:
            arr = rng.normal(size=(2, 3, 5)).astype(dtype)
        path = tmp_path / f"t_{np.dtype(dtype).name}.daug"
        daug.write_tensor(path, arr)
        assert daug.read_tensor(path).tobytes() == arr.tobytes()

    img = rng.integers(0, 256, size=(9, 7), dtype=np.uint8)
    write_pgm(tmp_path / "x.pgm", img)
    assert np.array_equal(read_pgm(tmp_path / "x.pgm"), img)
    rgb = rng.integers(0, 256, size=(4, 6, 3), dtype=np.uint8)
    write_ppm(tmp_path / "x.ppm", rgb)
    assert np.array_equal(read_ppm(tmp_path / "x.ppm"), rgb)

    # truncations and corruptions diagnose, never crash
    daug_path = tmp_path / "trunc.daug"
    daug.write_tensor(daug_path, np.zeros(16, dtype=np.float32))
    for cut in (0, 3, 9, 20, 40):
        daug_path.write_bytes(daug_path.read_bytes()[:cut])
        with pytest.raises(FormatError):
            daug.read_tensor(daug_path)
        daug.write_tensor(daug_path, np.zeros(16, dtype=np.float32))
    pgm_path = tmp_path / "trunc.pgm"
    write_pgm(pgm_path, img)
    for cut in (1, 5, 20):
        pgm_path.write_bytes(pgm_path.read_bytes()[:cut])
        with pytest.raises(FormatError):
            read_pgm(pgm_path)
        write_pgm(pgm_path, img)
    garbage = tmp_path / "garbage.daug"
    garbage.write_bytes(rng.integers(0, 256, size=64, dtype=np.uint8).tobytes())
    with pytest.raises(FormatError):
        daug.read_tensor(garbage)
    report(10)
