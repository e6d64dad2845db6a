"""Feature-map PCA against a dense eigendecomposition oracle."""

import numpy as np
import pytest

from augseg.errors import ContractError
from augseg.pca import feature_pca, pca_to_image


class TestFeaturePca:
    def test_rank_one_map(self):
        rng = np.random.default_rng(0)
        direction = rng.normal(size=8)
        weights = rng.normal(size=(6, 6))
        fm = direction[:, None, None] * weights[None, :, :]
        scores, eigvals, comps = feature_pca(fm, k=3)
        total = eigvals.sum()
        assert eigvals[0] / total > 0.999
        assert eigvals[1] < 1e-9 * eigvals[0] + 1e-12
        # first component aligns with the generating direction
        cos = abs(np.dot(comps[0], direction / np.linalg.norm(direction)))
        assert cos > 0.999

    def test_constant_map_degenerates(self):
        fm = np.full((4, 5, 5), 2.5)
        scores, eigvals, _ = feature_pca(fm, k=3)
        assert np.allclose(eigvals, 0.0, atol=1e-18)
        image = pca_to_image(scores, eigvals)
        assert (image == 128).all()

    def test_matches_dense_eigensolver(self):
        rng = np.random.default_rng(1)
        for trial in range(5):
            fm = rng.normal(size=(8, 10, 12))
            _, eigvals, comps = feature_pca(fm, k=3)
            x = fm.reshape(8, -1).T
            x = x - x.mean(axis=0)
            cov = x.T @ x / (x.shape[0] - 1)
            dense_vals, dense_vecs = np.linalg.eigh(cov)
            order = np.argsort(dense_vals)[::-1]
            for i in range(3):
                want_vec = dense_vecs[:, order[i]]
                cos = abs(np.dot(comps[i], want_vec))
                assert cos > 0.999, f"component {i} misaligned: {cos}"
                assert eigvals[i] == pytest.approx(dense_vals[order[i]],
                                                   rel=1e-6, abs=1e-9)

    def test_components_orthogonal(self):
        rng = np.random.default_rng(2)
        fm = rng.normal(size=(10, 8, 8))
        _, _, comps = feature_pca(fm, k=3)
        gram = comps @ comps.T
        assert np.max(np.abs(gram - np.eye(3))) < 1e-6

    def test_near_degenerate_eigenvalues(self):
        # a gap of 2.5e-4 in the spectrum: the components still come out
        # along the generating axes, with the exact eigenvalues
        rng = np.random.default_rng(5)
        z = rng.normal(size=(400, 6))
        z, _ = np.linalg.qr(z - z.mean(axis=0))  # centred, orthonormal columns
        lams = np.array([4.0, 2.0005, 2.0, 1.0, 0.5, 0.1])
        axes, _ = np.linalg.qr(rng.normal(size=(6, 6)))
        x = z * np.sqrt(lams * 399) @ axes.T    # covariance axes diag(lams) axes^T
        fm = x.T.reshape(6, 20, 20)
        _, eigvals, comps = feature_pca(fm, k=3)
        np.testing.assert_allclose(eigvals, lams[:3], rtol=1e-9)
        for i in range(3):
            assert abs(np.dot(comps[i], axes[:, i])) > 1 - 1e-9, i

    def test_sign_rule(self):
        fm = np.random.default_rng(6).normal(size=(9, 8, 8))
        _, _, comps = feature_pca(fm, k=4)
        pivots = comps[np.arange(4), np.argmax(np.abs(comps), axis=1)]
        assert np.all(pivots > 0)

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        fm = rng.normal(size=(6, 7, 7))
        a = feature_pca(fm, k=2)
        b = feature_pca(fm.copy(), k=2)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_too_few_channels(self):
        with pytest.raises(ContractError):
            feature_pca(np.zeros((2, 4, 4)), k=3)

    @pytest.mark.parametrize("hw", [(0, 4), (4, 0), (0, 0)])
    def test_map_without_pixels(self, hw):
        with pytest.raises(ContractError,
                           match=f"no pixels: {hw[0]}x{hw[1]}"):
            feature_pca(np.zeros((1, 3) + hw), k=3)


class TestPcaToImage:
    def test_normalizes_to_full_range(self):
        rng = np.random.default_rng(4)
        fm = rng.normal(size=(8, 9, 9))
        scores, eigvals, _ = feature_pca(fm, k=3)
        image = pca_to_image(scores, eigvals)
        assert image.dtype == np.uint8
        for i in range(3):
            assert image[:, :, i].min() == 0
            assert image[:, :, i].max() == 255
