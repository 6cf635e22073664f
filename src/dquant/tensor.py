"""Thin SVD and QR of dense float32 matrices.

Inputs are plain float32 numpy arrays. Factorizations run in float64;
results are stored back as float32.
"""

from typing import NamedTuple

import numpy as np

from .errors import NoConvergence, NonFiniteInput, ShapeMismatch


class SvdResult(NamedTuple):
    u: np.ndarray
    singular_values: np.ndarray
    vt: np.ndarray


class QrResult(NamedTuple):
    q: np.ndarray
    rmat: np.ndarray


def _require_2d(m, op):
    if np.ndim(m) != 2:
        raise ShapeMismatch(f"{op} expects a 2-D tensor, got shape {np.shape(m)}")


def _require_finite(m, op):
    if m.size and not np.all(np.isfinite(m)):
        raise NonFiniteInput(f"{op} requires finite entries")


def svd(m: np.ndarray) -> SvdResult:
    """Thin SVD with nonincreasing singular values.

    Reconstruction u @ diag(s) @ vt matches the input within 1e-5
    relative Frobenius for well-scaled inputs.
    """
    _require_2d(m, "svd")
    _require_finite(m, "svd")
    try:
        u, s, vt = np.linalg.svd(np.asarray(m, dtype=np.float64), full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"svd did not converge: {exc}") from exc
    return SvdResult(
        u.astype(np.float32), s.astype(np.float32), vt.astype(np.float32)
    )


def qr(m: np.ndarray) -> QrResult:
    """Thin Householder QR; q has orthonormal columns."""
    _require_2d(m, "qr")
    _require_finite(m, "qr")
    q, r = np.linalg.qr(np.asarray(m, dtype=np.float64), mode="reduced")
    return QrResult(q.astype(np.float32), r.astype(np.float32))
