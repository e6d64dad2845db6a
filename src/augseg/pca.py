"""Principal components of feature maps.

Each spatial location of a [1,C,H,W] map is treated as a C-vector; the
top-k eigenvectors of the mean-centered C x C covariance come from one
symmetric eigendecomposition, so the components depend on the map
alone.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError


def feature_pca(feature_map: np.ndarray, k: int = 3):
    """Project per-location feature vectors onto their top-k components.

    feature_map: [1,C,H,W] or [C,H,W] with C >= k.  Returns
    (scores [H,W,k], eigenvalues [k], components [k,C]).  A zero-variance
    map yields all-zero scores and eigenvalues.
    """
    fm = np.asarray(feature_map, dtype=np.float64)
    if fm.ndim == 4:
        if fm.shape[0] != 1:
            raise ContractError("feature_pca expects a single map")
        fm = fm[0]
    if fm.ndim != 3:
        raise ContractError("feature map must be [1,C,H,W] or [C,H,W]")
    c, h, w = fm.shape
    if c < k:
        raise ContractError(f"need at least k={k} channels, got {c}")
    if h * w == 0:
        raise ContractError(f"feature map has no pixels: {h}x{w}")
    x = fm.reshape(c, h * w).T                  # [P, C] location vectors
    x = x - x.mean(axis=0, keepdims=True)
    cov = (x.T @ x) / max(x.shape[0] - 1, 1)
    vals, vecs = np.linalg.eigh(cov)             # ascending eigenvalues
    eigvals = vals[::-1][:k]
    comps = vecs[:, ::-1][:, :k].T
    # deterministic sign: each component's largest-magnitude entry is positive
    pivots = comps[np.arange(k), np.argmax(np.abs(comps), axis=1)]
    comps = np.where(pivots[:, None] < 0, -comps, comps)
    scores = x @ comps.T                         # [P, k]
    return scores.reshape(h, w, k), eigvals, comps


def pca_to_image(scores: np.ndarray, eigvals: np.ndarray) -> np.ndarray:
    """Min-max normalize each component to [0, 255]; flat gray if degenerate."""
    h, w, k = scores.shape
    out = np.full((h, w, k), 128, dtype=np.uint8)
    for i in range(k):
        comp = scores[:, :, i]
        span = comp.max() - comp.min()
        if eigvals[i] <= 1e-12 or span <= 1e-12:
            continue
        out[:, :, i] = np.round((comp - comp.min()) / span * 255).astype(np.uint8)
    return out
