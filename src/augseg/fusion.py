"""Cross-attention fusion: deep decoder features query augmented encoder
features.

The model width D equals the decoder width, and per head of width
``d_k = D / head_count`` the attention is
``Softmax(Q K^T / sqrt(d_k)) V``; heads are concatenated, projected, fed
through a small feed-forward block, and added residually to the original
decoder features.  Tokens are normalized (zero mean / unit variance over
the channel axis, per token) before the Q/K/V projections; the norm is
one tape op that reads the [N,C,H,W] map and returns [N,H*W,C] tokens;
its layout mirror ``_add_tokens`` adds the feed-forward tokens back as
one op, and each feed-forward affine map is one biased ``matmul``.

The output projection starts at zero so an untrained block is exactly the
residual identity.

The attention is one tape op in the FlashAttention-2 algebra (Dao 2023),
held key-major.  It owns a single block ``E^T [N, h, T_k, T_q]`` of
unnormalised exponentials and fills it one sample's ``[h, T_k, T_q]``
slab at a time, in place; the softmax max and row sums reduce over the
slab's outer axis.  The backward takes the softmax adjoint's row term
from the small ``[T_q, d_k]`` side and reuses one slab-sized buffer, so
either pass peaks at about the size of ``E^T``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, _record, gelu, matmul
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
    def create(cls, c_dec, c_enc, rng, head_count=4, ff_mult=4):
        """Seeded float32 initialization with the identity start: the
        output projection ``w_o`` and both biases are zero.

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
                          .astype(np.float32), requires_grad=True)

        return cls(
            head_count=head_count,
            w_q=init(c_dec, (c_dec, c_dec)),
            w_k=init(c_enc, (c_enc, c_dec)),
            w_v=init(c_enc, (c_enc, c_dec)),
            w_o=Tensor.zeros((c_dec, c_dec), requires_grad=True),
            ff_w1=init(c_dec, (c_dec, hidden)),
            ff_b1=Tensor.zeros((hidden,), requires_grad=True),
            ff_w2=init(hidden, (hidden, c_dec)),
            ff_b2=Tensor.zeros((c_dec,), requires_grad=True),
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


def _add_tokens(feat: Tensor, tokens: Tensor) -> Tensor:
    """[N,C,H,W] map plus [N,H*W,C] tokens laid out as [N,C,H,W].

    One recorded op, the layout mirror of ``_norm_tokens``: the tokens'
    adjoint is ``g`` read back as [N,H*W,C].
    """
    n, c, h, w = feat.shape
    out = feat.data + tokens.data.transpose(0, 2, 1).reshape(feat.shape)
    return _record(Tensor(out), (feat, tokens), lambda g: (
        g, g.reshape(n, c, h * w).transpose(0, 2, 1)))


def cross_attention(q: Tensor, k: Tensor, v: Tensor, head_count: int) -> Tensor:
    """Multi-head scaled dot-product attention over token sequences.

    q: [N, T_q, D]; k, v: [N, T_k, D]; returns [N, T_q, D].  One recorded
    op in the FlashAttention-2 algebra (Dao 2023), held key-major.  Per
    head, with the scale ``s = 1/sqrt(d_k)`` folded into the queries, the
    forward fills ``E^T = exp(K (sQ)^T - max)`` as ``[T_k, T_q]``, where
    the max and the row sums ``z`` of ``E`` reduce over the outer axis,
    and returns ``O = (E V) / z``.  The adjoint of an output gradient
    ``G``, with ``G' = G / z`` and ``D' = rowsum(G' * O)`` taken on the
    small ``[T_q, d_k]`` side, is ``dS^T = E^T * (V G'^T - D')``,
    ``dQ = s dS K``, ``dK = dS^T (sQ)`` and ``dV = E^T G'``.  Both passes
    loop over the batch; the forward keeps ``E^T`` for the backward,
    which reuses one slab-sized buffer.
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

    dtype = np.result_type(q.data, k.data, v.data)
    s = dtype.type(1.0 / np.sqrt(d_k))
    sq = split_heads(q.data, t_q) * s
    kh = split_heads(k.data, t_k)
    vh = split_heads(v.data, t_k)
    et = np.empty((n, head_count, t_k, t_q), dtype)
    z = np.empty((n, head_count, t_q, 1), dtype)
    o = np.empty((n, head_count, t_q, d_k), dtype)
    for b in range(n):              # one sample's [h,T_k,T_q] slab at a time
        np.matmul(kh[b], sq[b].swapaxes(-1, -2), out=et[b])
        et[b] -= et[b].max(axis=1, keepdims=True)
        np.exp(et[b], out=et[b])
        et[b].sum(axis=1, out=z[b, :, :, 0])
        np.matmul(et[b].swapaxes(-1, -2), vh[b], out=o[b])
    o /= z

    def back(g):
        gz = split_heads(g, t_q) / z                        # G'
        dz = (gz * o).sum(axis=-1)[:, :, None, :]           # D', [N,h,1,T_q]
        ds = np.empty((head_count, t_k, t_q), np.result_type(gz, et))
        dq = np.empty((n, head_count, t_q, d_k), ds.dtype)
        dk = np.empty((n, head_count, t_k, d_k), ds.dtype)
        dv = np.empty((n, head_count, t_k, d_k), ds.dtype)
        for b in range(n):
            np.matmul(vh[b], gz[b].swapaxes(-1, -2), out=ds)
            ds -= dz[b]
            ds *= et[b]
            np.matmul(ds.swapaxes(-1, -2), kh[b], out=dq[b])
            np.matmul(ds, sq[b], out=dk[b])
            np.matmul(et[b], gz[b], out=dv[b])
        dq *= s
        return (merge_heads(dq, t_q), merge_heads(dk, t_k),
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
    hidden = gelu(matmul(proj, params.ff_w1, params.ff_b1))
    ff = matmul(hidden, params.ff_w2, params.ff_b2)
    return _add_tokens(decoder_feat, ff)
