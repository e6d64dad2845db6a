"""Cross-attention fusion: deep decoder features query augmented encoder
features.

The model width D equals the decoder width, and per head of width
``d_k = D / head_count`` the attention is
``Softmax(Q K^T / sqrt(d_k)) V``; heads are concatenated, projected, fed
through a small feed-forward block, and added residually to the original
decoder features.  Tokens are normalized (zero mean / unit variance over
the channel axis, per token) before the Q/K/V projections; the norm is
one tape op that reads the [N,C,H,W] map and returns [N,H*W,C] tokens.

The output projection starts at zero so an untrained block is exactly the
residual identity.

The attention is one tape op that owns a single score block
``P [N, h, T_q, T_k]``.  It fills and normalizes ``P`` one sample's
``[h, T_q, T_k]`` slab at a time, in place, and its backward reuses one
slab-sized buffer, so either pass peaks at about the size of ``P``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import (Tensor, _record, gelu, matmul, reshape, softmax_array,
                       softmax_vjp, transpose)
from .errors import ContractError, DimensionError

_NORM_EPS = 1e-5


@dataclass
class FusionParams:
    """Projection and feed-forward weights for one fusion block."""

    head_count: int
    w_q: Tensor   # [C_dec, D]
    w_k: Tensor   # [C_enc, D]
    w_v: Tensor   # [C_enc, D]
    w_o: Tensor   # [D, C_dec]
    ff_w1: Tensor  # [C_dec, ff_mult * C_dec]
    ff_b1: Tensor
    ff_w2: Tensor  # [ff_mult * C_dec, C_dec]
    ff_b2: Tensor

    @classmethod
    def create(cls, c_dec, c_enc, rng, head_count=4, ff_mult=4,
               zero_out_proj=True, dtype=np.float32):
        """Seeded initialization; ``zero_out_proj`` gives the identity start.

        The model width D equals the decoder width ``c_dec``, which
        ``head_count`` must divide.
        """
        if head_count < 1 or c_dec % head_count:
            raise ContractError(
                f"fusion width {c_dec} not divisible by head_count "
                f"{head_count}")
        hidden = ff_mult * c_dec

        def init(fan_in, shape):
            return Tensor((rng.normal(size=shape) / np.sqrt(fan_in))
                          .astype(dtype), requires_grad=True)

        w_o = (Tensor.zeros((c_dec, c_dec), dtype=dtype, requires_grad=True)
               if zero_out_proj else init(c_dec, (c_dec, c_dec)))
        return cls(
            head_count=head_count,
            w_q=init(c_dec, (c_dec, c_dec)),
            w_k=init(c_enc, (c_enc, c_dec)),
            w_v=init(c_enc, (c_enc, c_dec)),
            w_o=w_o,
            ff_w1=init(c_dec, (c_dec, hidden)),
            ff_b1=Tensor.zeros((hidden,), dtype=dtype, requires_grad=True),
            ff_w2=init(hidden, (hidden, c_dec)),
            ff_b2=Tensor.zeros((c_dec,), dtype=dtype, requires_grad=True),
        )

    def named_tensors(self):
        return {"w_q": self.w_q, "w_k": self.w_k, "w_v": self.w_v,
                "w_o": self.w_o, "ff_w1": self.ff_w1, "ff_b1": self.ff_b1,
                "ff_w2": self.ff_w2, "ff_b2": self.ff_b2}


def _norm_tokens(feat: Tensor) -> Tensor:
    """[N,C,H,W] map -> [N,H*W,C] tokens, zero-mean and unit-variance over
    the channels of each token.

    One recorded op.  With ``x̂ = (t - mean(t)) / σ`` and
    ``σ = sqrt(var(t) + eps)`` per token ``t``, the adjoint of ``g`` is
    ``(g - mean(g) - x̂ mean(g x̂)) / σ`` (Ba et al. 2016).  The forward
    makes the same numpy calls, on the same token view, as the chain of
    primitive ops that the tests keep as its reference, so in float32 the
    two agree bit for bit.
    """
    n, c, h, w = feat.shape
    t = feat.data.reshape(n, c, h * w).transpose(0, 2, 1)
    inv_c = t.dtype.type(1.0 / c)
    centered = t - t.sum(axis=-1, keepdims=True) * inv_c
    var = (centered * centered).sum(axis=-1, keepdims=True) * inv_c
    sigma = np.sqrt(var + t.dtype.type(_NORM_EPS))
    xhat = centered / sigma

    def back(g):
        dt = (g - g.sum(axis=-1, keepdims=True) * inv_c
              - xhat * ((g * xhat).sum(axis=-1, keepdims=True) * inv_c))
        dt /= sigma
        return (dt.transpose(0, 2, 1).reshape(feat.shape),)

    return _record(Tensor(xhat), (feat,), back)


def cross_attention(q: Tensor, k: Tensor, v: Tensor, head_count: int) -> Tensor:
    """Multi-head scaled dot-product attention over token sequences.

    q: [N, T_q, D]; k, v: [N, T_k, D]; returns [N, T_q, D].  One recorded
    op.  Per head, with ``S = Q K^T s``, ``s = 1/sqrt(d_k)`` and
    ``P = softmax(S)`` over the keys, the output is ``P V``; the adjoint
    of an output gradient ``G`` is ``dV = P^T G``,
    ``dS = P * (G V^T - rowsum(P * G V^T)) s``, ``dQ = dS K`` and
    ``dK = (Q^T dS)^T``.  Both passes loop over the batch and compute each
    sample's slab in place with the shared ``softmax_array`` and
    ``softmax_vjp`` kernels.
    """
    if q.ndim != 3 or k.ndim != 3 or v.ndim != 3:
        raise DimensionError("cross_attention expects rank-3 token tensors")
    n, t_q, d = q.shape
    if k.shape[0] != n or v.shape[0] != n:
        raise DimensionError("batch extents differ")
    if k.shape[2] != d or v.shape[2] != d:
        raise DimensionError("model dims differ between Q/K/V")
    if k.shape[1] != v.shape[1]:
        raise DimensionError("K and V token counts differ")
    if k.shape[1] < 1:
        raise ContractError("need at least one key token")
    if head_count < 1 or d % head_count:
        raise ContractError(f"model dim {d} not divisible by {head_count} heads")
    t_k = k.shape[1]
    d_k = d // head_count

    def split_heads(x, t):          # [N,T,D] -> [N,h,T,d_k]
        return x.reshape(n, t, head_count, d_k).transpose(0, 2, 1, 3)

    def merge_heads(x, t):          # [N,h,T,d_k] -> [N,T,D]
        return x.transpose(0, 2, 1, 3).reshape(n, t, d)

    qh = split_heads(q.data, t_q)
    kh = split_heads(k.data, t_k)
    vh = split_heads(v.data, t_k)
    p = np.empty((n, head_count, t_q, t_k), np.result_type(qh, kh))
    o = np.empty((n, head_count, t_q, d_k), np.result_type(p, vh))
    s = p.dtype.type(1.0 / np.sqrt(d_k))
    for b in range(n):              # one sample's [h,T_q,T_k] slab at a time
        np.matmul(qh[b], kh[b].swapaxes(-1, -2), out=p[b])
        p[b] *= s
        softmax_array(p[b])
        np.matmul(p[b], vh[b], out=o[b])

    def back(g):
        gh = split_heads(g, t_q)
        ds = np.empty((head_count, t_q, t_k), np.result_type(gh, vh, p))
        dq = np.empty((n, head_count, t_q, d_k), np.result_type(ds, kh))
        dkt = np.empty((n, head_count, d_k, t_k), np.result_type(qh, ds))
        dv = np.empty((n, head_count, t_k, d_k), np.result_type(p, gh))
        for b in range(n):
            np.matmul(gh[b], vh[b].swapaxes(-1, -2), out=ds)
            softmax_vjp(p[b], ds)
            ds *= s
            np.matmul(ds, kh[b], out=dq[b])
            np.matmul(qh[b].swapaxes(-1, -2), ds, out=dkt[b])
            np.matmul(p[b].swapaxes(-1, -2), gh[b], out=dv[b])
        # dK is a strided view, as the composed chain returns it: a
        # contiguous copy sends the w_k weight-gradient matmul down another
        # BLAS path and changes its low bits
        return (merge_heads(dq, t_q),
                merge_heads(dkt.swapaxes(-1, -2), t_k),
                merge_heads(dv, t_k))

    return _record(Tensor(merge_heads(o, t_q)), (q, k, v), back)


def cg_fuse(decoder_feat: Tensor, aug_enc_feat: Tensor,
            params: FusionParams) -> Tensor:
    """Fuse decoder features with (augmented) encoder features.

    decoder_feat [N,C_dec,H,W] supplies the queries; aug_enc_feat
    [N,C_enc,H,W] supplies keys and values.  Both must share spatial
    extents (the caller resamples first).  ``_norm_tokens`` reads each map
    as a normalized [N, H*W, C] token sequence in row-major spatial order.
    The residual adds the feed-forward output, laid back out as
    [N,C_dec,H,W], to the original decoder features, so the output shape
    equals the decoder input shape.
    """
    if decoder_feat.ndim != 4 or aug_enc_feat.ndim != 4:
        raise ContractError("cg_fuse expects rank-4 feature maps")
    if decoder_feat.shape[2:] != aug_enc_feat.shape[2:]:
        raise ContractError(
            f"spatial extents differ: {decoder_feat.shape[2:]} vs "
            f"{aug_enc_feat.shape[2:]}")
    if decoder_feat.shape[0] != aug_enc_feat.shape[0]:
        raise ContractError("batch extents differ")
    dec_n, enc_n = _norm_tokens(decoder_feat), _norm_tokens(aug_enc_feat)
    q = matmul(dec_n, params.w_q)
    k = matmul(enc_n, params.w_k)
    v = matmul(enc_n, params.w_v)
    attn = cross_attention(q, k, v, params.head_count)
    proj = matmul(attn, params.w_o)
    hidden = gelu(matmul(proj, params.ff_w1) + params.ff_b1)
    ff = matmul(hidden, params.ff_w2) + params.ff_b2
    return decoder_feat + reshape(transpose(ff, (0, 2, 1)),
                                  decoder_feat.shape)
