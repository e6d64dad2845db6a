"""Cross-attention fusion: deep decoder features query augmented encoder
features.

Per head of width ``d_k = model_dim / head_count`` the attention is
``Softmax(Q K^T / sqrt(d_k)) V``; heads are concatenated, projected, fed
through a small feed-forward block, and added residually to the original
decoder features.  Tokens are normalized (zero mean / unit variance over
the channel axis, per token) before the Q/K/V projections.

The output projection starts at zero so an untrained block is exactly the
residual identity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, gelu, matmul, reshape, softmax, sqrt, transpose
from .errors import ContractError, DimensionError

_NORM_EPS = 1e-5


@dataclass
class TokenMap:
    """Spatial map flattened to a [N, H*W, C] token sequence."""

    tokens: Tensor
    spatial: tuple  # (H, W)


@dataclass
class FusionParams:
    """Projection and feed-forward weights for one fusion block."""

    model_dim: int
    head_count: int
    w_q: Tensor   # [C_dec, D]
    w_k: Tensor   # [C_enc, D]
    w_v: Tensor   # [C_enc, D]
    w_o: Tensor   # [D, C_dec]
    ff_w1: Tensor  # [C_dec, ff_mult * C_dec]
    ff_b1: Tensor
    ff_w2: Tensor  # [ff_mult * C_dec, C_dec]
    ff_b2: Tensor

    def __post_init__(self):
        if self.model_dim % self.head_count != 0:
            raise ContractError(
                f"model_dim {self.model_dim} not divisible by "
                f"head_count {self.head_count}")
        for name in ("w_q", "w_k", "w_v", "w_o", "ff_w1", "ff_b1",
                     "ff_w2", "ff_b2"):
            if not np.all(np.isfinite(getattr(self, name).numpy())):
                raise ContractError(f"non-finite values in {name}")

    @property
    def d_k(self) -> int:
        return self.model_dim // self.head_count

    @classmethod
    def create(cls, c_dec, c_enc, rng, head_count=4, ff_mult=4,
               zero_out_proj=True, dtype=np.float32):
        """Seeded initialization; ``zero_out_proj`` gives the identity start.

        The model width equals the decoder width ``c_dec``.
        """
        d = c_dec
        hidden = ff_mult * c_dec

        def init(fan_in, shape):
            return Tensor((rng.normal(size=shape) / np.sqrt(fan_in))
                          .astype(dtype), requires_grad=True)

        w_o = (Tensor.zeros((d, c_dec), dtype=dtype, requires_grad=True)
               if zero_out_proj else init(d, (d, c_dec)))
        return cls(
            model_dim=d,
            head_count=head_count,
            w_q=init(c_dec, (c_dec, d)),
            w_k=init(c_enc, (c_enc, d)),
            w_v=init(c_enc, (c_enc, d)),
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


def flatten_tokens(f: Tensor) -> TokenMap:
    """[N,C,H,W] -> tokens [N, H*W, C] in row-major spatial order."""
    if f.ndim != 4:
        raise ContractError(f"flatten_tokens expects rank 4, got {f.ndim}")
    n, c, h, w = f.shape
    tokens = transpose(reshape(f, (n, c, h * w)), (0, 2, 1))
    return TokenMap(tokens=tokens, spatial=(h, w))


def unflatten(tm: TokenMap) -> Tensor:
    """Inverse of :func:`flatten_tokens`."""
    n, t, c = tm.tokens.shape
    h, w = tm.spatial
    if t != h * w:
        raise ContractError(
            f"token count {t} does not match spatial {h}x{w}")
    return reshape(transpose(tm.tokens, (0, 2, 1)), (n, c, h, w))


def _norm_tokens(tokens: Tensor) -> Tensor:
    """Zero-mean, unit-variance over the channel axis, per token."""
    mu = tokens.mean(axis=-1, keepdims=True)
    centered = tokens - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    return centered / sqrt(var + _NORM_EPS)


def cross_attention(q: Tensor, k: Tensor, v: Tensor, head_count: int) -> Tensor:
    """Multi-head scaled dot-product attention over token sequences.

    q: [N, T_q, D]; k, v: [N, T_k, D]; returns [N, T_q, D].
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
    if d % head_count != 0:
        raise ContractError(f"model dim {d} not divisible by {head_count} heads")
    t_k = k.shape[1]
    d_k = d // head_count

    def split_heads(x, t):
        return transpose(reshape(x, (n, t, head_count, d_k)), (0, 2, 1, 3))

    qh = split_heads(q, t_q)                       # [N,h,T_q,d_k]
    kh = split_heads(k, t_k)
    vh = split_heads(v, t_k)
    logits = matmul(qh, transpose(kh, (0, 1, 3, 2))) * (1.0 / np.sqrt(d_k))
    attn = softmax(logits, axis=-1)
    out = matmul(attn, vh)                         # [N,h,T_q,d_k]
    return reshape(transpose(out, (0, 2, 1, 3)), (n, t_q, d))


def cg_fuse(decoder_feat: Tensor, aug_enc_feat: Tensor,
            params: FusionParams) -> Tensor:
    """Fuse decoder features with (augmented) encoder features.

    decoder_feat [N,C_dec,H,W] supplies the queries; aug_enc_feat
    [N,C_enc,H,W] supplies keys and values.  Both must share spatial
    extents (the caller resamples first).  The residual adds the
    original decoder features, so the output shape equals the decoder
    input shape.
    """
    if decoder_feat.shape[2:] != aug_enc_feat.shape[2:]:
        raise ContractError(
            f"spatial extents differ: {decoder_feat.shape[2:]} vs "
            f"{aug_enc_feat.shape[2:]}")
    if decoder_feat.shape[0] != aug_enc_feat.shape[0]:
        raise ContractError("batch extents differ")
    dec_tm = flatten_tokens(decoder_feat)
    enc_tm = flatten_tokens(aug_enc_feat)
    dec_n = _norm_tokens(dec_tm.tokens)
    enc_n = _norm_tokens(enc_tm.tokens)
    q = matmul(dec_n, params.w_q)
    k = matmul(enc_n, params.w_k)
    v = matmul(enc_n, params.w_v)
    attn = cross_attention(q, k, v, params.head_count)
    proj = matmul(attn, params.w_o)
    hidden = gelu(matmul(proj, params.ff_w1) + params.ff_b1)
    ff = matmul(hidden, params.ff_w2) + params.ff_b2
    fused = dec_tm.tokens + ff
    return unflatten(TokenMap(tokens=fused, spatial=dec_tm.spatial))
