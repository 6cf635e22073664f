import numpy as np
import pytest

from dquant import qr, svd
from dquant.errors import NonFiniteInput


def rand(shape, seed=0):
    return np.random.default_rng(seed).standard_normal(shape).astype(np.float32)


class TestSvd:
    def test_identity(self):
        res = svd(np.eye(3, dtype=np.float32))
        np.testing.assert_allclose(res.singular_values, [1, 1, 1], atol=1e-6)

    def test_diagonal(self):
        res = svd(np.diag([3.0, 2.0, 1.0]).astype(np.float32))
        np.testing.assert_allclose(res.singular_values, [3, 2, 1], atol=1e-6)

    @pytest.mark.parametrize("shape", [(32, 16), (16, 32), (128, 128), (512, 512)])
    def test_reconstruction_orthonormality(self, shape):
        m = rand(shape, seed=shape[0])
        u, s, vt = svd(m)
        rec = (u.astype(np.float64) * s) @ vt.astype(np.float64)
        assert np.linalg.norm(m - rec) / np.linalg.norm(m) < 1e-5
        r = len(s)
        assert np.abs(u.T.astype(np.float64) @ u - np.eye(r)).max() < 1e-5
        assert np.abs(vt.astype(np.float64) @ vt.T - np.eye(r)).max() < 1e-5
        assert np.all(np.diff(s) <= 1e-6)

    def test_nonfinite_rejected(self):
        m = rand((3, 3))
        m[0, 0] = np.nan
        with pytest.raises(NonFiniteInput):
            svd(m)


class TestQr:
    def test_identity(self):
        res = qr(np.eye(3, dtype=np.float32))
        np.testing.assert_allclose(np.abs(res.q), np.eye(3), atol=1e-6)
        np.testing.assert_allclose(np.abs(res.rmat), np.eye(3), atol=1e-6)

    def test_tall_column(self):
        res = qr(np.array([[0.0], [1.0]], dtype=np.float32))
        np.testing.assert_allclose(np.abs(res.q), [[0], [1]], atol=1e-6)
        np.testing.assert_allclose(np.abs(res.rmat), [[1]], atol=1e-6)

    @pytest.mark.parametrize("n", [64, 512])
    def test_reconstruction(self, n):
        m = rand((n, n), seed=n)
        res = qr(m)
        rec = res.q.astype(np.float64) @ res.rmat.astype(np.float64)
        assert np.linalg.norm(m - rec) / np.linalg.norm(m) < 1e-5
        r = res.q.shape[1]
        assert np.abs(res.q.T.astype(np.float64) @ res.q - np.eye(r)).max() < 1e-5
