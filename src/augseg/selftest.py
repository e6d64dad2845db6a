"""Built-in invariant battery behind ``augseg selftest``.

A quick sweep over the load-bearing contracts (reconstruction, gradient
agreement, metric identities, file round-trips).  Prints one line per
check; returns the number of failures.
"""

from __future__ import annotations

import os
import tempfile

import numpy as np

from . import daug
from .autodiff import (
    GradTape,
    Tensor,
    bilinear_resize,
    conv2d,
    conv_transpose2d,
    finite_diff_check,
    use_tape,
)
from .fusion import FusionParams, cg_fuse, cross_attention
from .losses import combined_loss
from .metrics import dice_score, hd95, wilcoxon_signed_rank
from .netpbm import read_pgm, write_pgm
from .pca import feature_pca
from .wavelet import WtAugConfig, haar_dwt2, haar_idwt2, wt_aug


def _checks():
    rng = np.random.default_rng(0)

    def wavelet_roundtrip():
        for shape in [(1, 2, 8, 8), (2, 3, 7, 5), (1, 1, 6, 9)]:
            f = rng.normal(size=shape).astype(np.float32)
            err = np.max(np.abs(haar_idwt2(haar_dwt2(f), shape[2:]) - f))
            assert err < 1e-5, f"roundtrip error {err} on {shape}"

    def wavelet_parseval():
        f = rng.normal(size=(1, 3, 8, 8)).astype(np.float64)
        got = sum(float((b ** 2).sum()) for b in haar_dwt2(f))
        want = float((f ** 2).sum())
        assert abs(got - want) / want < 1e-10

    def wt_aug_identity():
        f = Tensor(rng.normal(size=(1, 2, 6, 6)).astype(np.float32))
        out = wt_aug(f, WtAugConfig(keep_prob=(1, 1, 1, 1)), rng)
        assert np.array_equal(out.numpy(), f.numpy())

    def gradient_conv():
        k = Tensor(rng.normal(size=(2, 1, 3, 3)))
        err = finite_diff_check(
            lambda x: (conv2d(x, k, padding=1) * 1.5).sum(),
            Tensor(rng.normal(size=(1, 1, 5, 5))))
        assert err < 1e-4, f"conv gradient err {err}"

    def gradient_conv_weights():
        # the weight gradients sum over the batch, so the batch is 2
        x = Tensor(rng.normal(size=(2, 3, 5, 6)))
        for op, shape in ((conv2d, (4, 3, 3, 3)),
                          (conv_transpose2d, (3, 4, 3, 3))):
            for s, p in ((1, 0), (2, 1)):
                k = Tensor(rng.normal(size=shape))
                w = Tensor(rng.normal(size=op(x, k, stride=s,
                                              padding=p).shape))
                err = finite_diff_check(
                    lambda kk: (op(x, kk, stride=s, padding=p) * w).sum(), k)
                assert err < 1e-4, \
                    f"{op.__name__} weight gradient err {err} (s={s}, p={p})"

    def adjoint_conv_transpose():
        # <convT(x, W), y> == <x, conv2d(y, W)>: the two share one kernel
        for k, s, p in [(2, 2, 0), (3, 2, 1), (2, 3, 0), (4, 2, 2)]:
            w = rng.normal(size=(3, 2, k, k))
            x = rng.normal(size=(2, 3, 4, 5))
            out = conv_transpose2d(Tensor(x), Tensor(w), stride=s,
                                   padding=p).numpy()
            y = rng.normal(size=out.shape)
            lhs = np.sum(out * y)
            rhs = np.sum(x * conv2d(Tensor(y), Tensor(w), stride=s,
                                    padding=p).numpy())
            assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(lhs)), \
                f"k={k} s={s} p={p}: {lhs} != {rhs}"

    def adjoint_bilinear():
        # <resize(x), y> == <x, resize^T(y)>, the adjoint read off the tape
        for shape, out_hw in [((1, 2, 4, 5), (9, 7)), ((2, 1, 9, 8), (4, 3))]:
            x = Tensor(rng.normal(size=shape), requires_grad=True)
            y = rng.normal(size=shape[:2] + out_hw)
            with use_tape(GradTape()) as tape:
                out = bilinear_resize(x, out_hw)
                tape.backward((out * Tensor(y)).sum())
            lhs = np.sum(out.numpy() * y)
            rhs = np.sum(x.numpy() * x.grad)
            assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(lhs)), \
                f"{shape}->{out_hw}: {lhs} != {rhs}"

    def gradient_fusion():
        params = FusionParams.create(4, 4, np.random.default_rng(1),
                                     head_count=2, zero_out_proj=False,
                                     dtype=np.float64)
        dec = Tensor(rng.normal(size=(1, 4, 2, 2)).astype(np.float64))
        enc = Tensor(rng.normal(size=(1, 4, 2, 2)).astype(np.float64))
        w = Tensor(rng.normal(size=(1, 4, 2, 2)).astype(np.float64))
        err = finite_diff_check(
            lambda d: (cg_fuse(d, enc, params) * w).sum(), dec)
        assert err < 1e-4, f"fusion gradient err {err} (decoder input)"
        # keys and values come from the encoder input, so this reaches dK, dV
        err = finite_diff_check(
            lambda e: (cg_fuse(dec, e, params) * w).sum(), enc)
        assert err < 1e-4, f"fusion gradient err {err} (encoder input)"

    def gradient_loss():
        labels = rng.integers(0, 3, size=(1, 4, 4))
        err = finite_diff_check(lambda x: combined_loss(x, labels),
                                Tensor(rng.normal(size=(1, 3, 4, 4))))
        assert err < 1e-4, f"loss gradient err {err}"

    def softmax_contract():
        # with V = I the attention output is its softmax rows
        eye = Tensor(np.eye(9)[None])
        for scale in (0.2, 2.0, 20.0, 200.0):
            q = Tensor(rng.normal(size=(1, 5, 9)) * scale)
            k = Tensor(rng.normal(size=(1, 9, 9)))
            y = cross_attention(q, k, eye, head_count=1).numpy()
            assert np.all(y >= 0)
            assert np.max(np.abs(y.sum(axis=-1) - 1.0)) < 1e-6, scale

    def attention_single_key():
        q = Tensor(rng.normal(size=(1, 4, 4)))
        kv = Tensor(rng.normal(size=(1, 1, 4)))
        out = cross_attention(q, kv, kv, head_count=2).numpy()
        assert np.array_equal(out, np.repeat(kv.numpy(), 4, axis=1))

    def metric_identities():
        m = (rng.random((12, 12)) < 0.4).astype(np.uint8)
        assert dice_score(m, m, 1) == 1.0
        assert hd95(m, m, 1) == 0.0

    def wilcoxon_exact_case():
        res = wilcoxon_signed_rank([1.0, 2.0, 3.0, 4.0, 5.0])
        assert res.statistic == 0.0 and abs(res.p_value - 0.0625) < 1e-12

    def file_roundtrips():
        with tempfile.TemporaryDirectory() as tmp:
            arr = rng.normal(size=(2, 3, 4)).astype(np.float32)
            path = os.path.join(tmp, "t.daug")
            daug.write_tensor(path, arr)
            assert daug.read_tensor(path).tobytes() == arr.tobytes()
            img = rng.integers(0, 256, size=(9, 11), dtype=np.uint8)
            ppath = os.path.join(tmp, "t.pgm")
            write_pgm(ppath, img)
            assert np.array_equal(read_pgm(ppath), img)

    def pca_orthogonal():
        fm = rng.normal(size=(8, 10, 10))
        _, _, comps = feature_pca(fm, k=3)
        gram = comps @ comps.T
        assert np.max(np.abs(gram - np.eye(3))) < 1e-6

    return [
        ("wavelet round-trip", wavelet_roundtrip),
        ("wavelet energy preservation", wavelet_parseval),
        ("wavelet-mask identity", wt_aug_identity),
        ("conv2d gradient", gradient_conv),
        ("conv weight gradients", gradient_conv_weights),
        ("conv2d / conv_transpose2d adjoint pair", adjoint_conv_transpose),
        ("bilinear resize adjoint pair", adjoint_bilinear),
        ("fusion gradient", gradient_fusion),
        ("combined-loss gradient", gradient_loss),
        ("softmax probability rows", softmax_contract),
        ("single-key attention", attention_single_key),
        ("metric identities", metric_identities),
        ("wilcoxon exact case", wilcoxon_exact_case),
        ("file round-trips", file_roundtrips),
        ("pca component orthogonality", pca_orthogonal),
    ]


def run_selftest() -> int:
    failures = 0
    for name, check in _checks():
        try:
            check()
        except Exception as exc:
            failures += 1
            print(f"FAIL {name}: {exc}")
        else:
            print(f"ok   {name}")
    return failures
