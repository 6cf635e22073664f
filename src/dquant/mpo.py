"""Exact tensor-train factorization of matrices into chains of 4-D cores.

A matrix W of shape (prod(i_factors), prod(j_factors)) is reshaped to
[i1..in, j1..jn], permuted to the interleaved order [i1, j1, i2, j2, ...],
and split left to right at full rank. Each unfolding is split through the
eigendecomposition of its smaller Gram matrix (Halko et al., arXiv
0909.4061): with a the unfolding, or its transpose when it is tall, and u
the orthonormal eigenvectors of a @ a.T, proj = u.T @ a and s_k = |proj_k|,
sorted in descending order. Each s_k is divided evenly between the two
sides of its split (u*sqrt(s) stays in the current core, proj/sqrt(s) is
carried forward), so no single core holds the full dynamic range of the
input. Bond dimensions follow

    d_k = min(prod_{l<=k} i_l*j_l, prod_{l>k} i_l*j_l)

and the factorization is exact up to float32 round-off.

The split works in place on one float64 carry, a copy of the interleaved
input that decompose owns: _split consumes the unfolding it is handed.
When a is a row-major wide unfolding (every first split), proj is written
over it in column blocks of about SPLIT_BLOCK values, since each column
of proj depends only on the same column of a, so no second full-size
array is made. The last split divides proj by sqrt(s) straight into a
float32 array, so that core is cast once, as the float64 quotient is
rounded; the other cores are cast when the chain is built.

MpoChain is the one chain type: decompose returns float32 cores, and
compress.deco_quantize packs all but the first. Its constructor is the
only check of a chain's shape, for every caller, the DQZ1 reader included.

No SVD fallback is needed for rank-deficient or ill-conditioned input:
eigh returns an orthonormal u even for a singular Gram matrix, so
u @ u.T @ a = a to round-off whatever the rank. Because s is measured on
the projected rows rather than taken from the eigenvalues, the split stays
balanced, and a direction with s_k = 0 gives zero rows on both sides (the
zero matrix gives zero cores). The Gram matrix is float64, so float32
input can neither overflow nor underflow it. It is also the one finiteness
check: every entry of the first unfolding adds its square to a diagonal
entry, so a NaN or infinite entry anywhere, or float64 input too large to
square, makes it non-finite, and _split raises NonFiniteInput. Small s_k
are accurate only to about sqrt(eps) * s_1 in absolute terms, which does
not affect the product.
"""

from dataclasses import dataclass, field
from math import prod

import numpy as np

from .errors import BondMismatch, NonFiniteInput, ShapeMismatch, UnsupportedBits
from .quantize import QuantizedTensor, _check_dtype, _check_size

FACTOR_CAP = 8
SPLIT_BLOCK = 1 << 19  # float64 values per column block of a split's projection


@dataclass(frozen=True)
class ShapePlan:
    """How each matrix dimension splits across the chain."""

    i_factors: tuple
    j_factors: tuple

    def __post_init__(self):
        for name in ("i_factors", "j_factors"):
            factors = tuple(_check_size(f, "factors") for f in getattr(self, name))
            object.__setattr__(self, name, factors)
        if len(self.i_factors) != len(self.j_factors):
            raise ShapeMismatch("factor lists must have equal length")
        if len(self.i_factors) < 2:
            raise ShapeMismatch("a plan needs at least two positions")

    @property
    def n(self) -> int:
        return len(self.i_factors)

    @property
    def rows(self) -> int:
        return prod(self.i_factors)

    @property
    def cols(self) -> int:
        return prod(self.j_factors)

    def bond_dims(self) -> tuple:
        """Expected bond dimensions d_1..d_{n-1} for a full-rank split."""
        ij = [a * b for a, b in zip(self.i_factors, self.j_factors)]
        total = prod(ij)
        dims = []
        left = 1
        for k in range(self.n - 1):
            left *= ij[k]
            dims.append(min(left, total // left))
        return tuple(dims)


def _largest_divisor_le(x: int) -> int:
    """The largest divisor of x >= 1 that is at most FACTOR_CAP."""
    return next(d for d in range(min(FACTOR_CAP, x), 0, -1) if x % d == 0)


def plan_shapes(rows: int, cols: int, n: int = 2) -> ShapePlan:
    """Split each dimension into n factors, small ones first.

    Each position before the last peels off the largest divisor <= 8 of
    what remains; the residual lands in the final position, so the last
    core carries the dominant share of the parameters. Prime dimensions
    peel 1 (or themselves when <= 8); nothing is ever padded.
    """
    rows, cols = _check_size(rows, "rows"), _check_size(cols, "cols")
    n = _check_size(n, "chain length n", 2)

    def peel(size):
        factors = []
        rem = size
        for _ in range(n - 1):
            d = _largest_divisor_le(rem)
            factors.append(d)
            rem //= d
        factors.append(rem)
        return tuple(factors)

    return ShapePlan(peel(rows), peel(cols))


@dataclass(frozen=True)
class MpoChain:
    """Ordered 4-D cores [d_{k-1}, i_k, j_k, d_k] with d_0 = d_n = 1.

    Each core is a float32 array or a packed QuantizedTensor. The
    constructor checks the shape (at least two 4-axis cores, outer bonds 1,
    adjacent bonds equal) and reads `plan` off the cores once. It reads
    `bits` off them too: a chain holds one width, that of its packed cores
    (None when none is packed), and packed cores of two widths raise
    UnsupportedBits.
    """

    local_tensors: tuple
    bits: int = field(init=False)
    plan: ShapePlan = field(init=False)

    def __post_init__(self):
        cores = tuple(
            t if isinstance(t, QuantizedTensor) else np.asarray(t, dtype=np.float32)
            for t in self.local_tensors
        )
        object.__setattr__(self, "local_tensors", cores)
        if len(cores) < 2:
            raise BondMismatch(f"a chain needs at least two cores, got {len(cores)}")
        for k, t in enumerate(cores):
            if len(t.shape) != 4:
                raise BondMismatch(f"core {k} has shape {t.shape}, expected 4 axes")
        if cores[0].shape[0] != 1 or cores[-1].shape[3] != 1:
            raise BondMismatch("outer bond dimensions must be 1")
        for a, b in zip(cores, cores[1:]):
            if a.shape[3] != b.shape[0]:
                raise BondMismatch(
                    f"adjacent bonds disagree: {a.shape[3]} vs {b.shape[0]}"
                )
        plan = ShapePlan(
            tuple(t.shape[1] for t in cores), tuple(t.shape[2] for t in cores)
        )
        object.__setattr__(self, "plan", plan)
        widths = {t.bits for t in cores if isinstance(t, QuantizedTensor)}
        if len(widths) > 1:
            raise UnsupportedBits(f"packed cores differ in width: {sorted(widths)}")
        object.__setattr__(self, "bits", widths.pop() if widths else None)

    @property
    def n(self) -> int:
        return len(self.local_tensors)

    @property
    def rows(self) -> int:
        return self.plan.rows

    @property
    def cols(self) -> int:
        return self.plan.cols

    @property
    def bond_dims(self) -> tuple:
        return tuple(t.shape[3] for t in self.local_tensors[:-1])

    @property
    def quantized_locals(self) -> tuple:
        return tuple(t for t in self.local_tensors if isinstance(t, QuantizedTensor))

    @property
    def fp_locals(self) -> tuple:
        return tuple(
            t for t in self.local_tensors if not isinstance(t, QuantizedTensor)
        )


def _interleave(t, i_factors, j_factors):
    n = len(i_factors)
    t = t.reshape(tuple(i_factors) + tuple(j_factors))
    order = []
    for k in range(n):
        order += [k, n + k]
    return np.transpose(t, order)


def _split(mat: np.ndarray, dtype=np.float64):
    """(left, right) with mat = left @ right, sqrt(s_k) on each side of bond k.

    The Gram route of the module docstring; a bond with s_k = 0 is zero on
    both sides. Raises NonFiniteInput, before eigh runs, when the Gram
    matrix is not finite. Consumes mat, a writable float64 array. When a is
    C-contiguous, proj is written over it in column blocks; otherwise it is
    a fresh product, as it must stay row-major for s to sum in the same
    order. proj / sqrt(s) is written as `dtype`, rounded once from float64.
    """
    tall = mat.shape[0] > mat.shape[1]
    a = mat.T if tall else mat
    with np.errstate(over="ignore", invalid="ignore"):  # raised as NonFiniteInput
        gram = a @ a.T
    if not np.isfinite(gram).all():
        raise NonFiniteInput("decompose requires entries whose squares sum finitely")
    u = np.linalg.eigh(gram)[1][:, ::-1]  # largest eigenvalue first
    if a.flags.c_contiguous:
        # blocks start on multiples of 64 columns and the last takes the
        # rest, so each column meets the same BLAS kernel as in one product
        cols = a.shape[1]
        width = max(64, SPLIT_BLOCK // max(1, len(a)) // 64 * 64)
        blocks = max(1, cols // width)
        for k in range(blocks):
            cs = slice(k * width, cols if k == blocks - 1 else (k + 1) * width)
            a[:, cs] = u.T @ a[:, cs]
        proj = a
    else:
        proj = u.T @ a
    s = np.sqrt(np.einsum("ij,ij->i", proj, proj))
    order = np.argsort(-s, kind="stable")
    # eigh's order, reversed, is already s's up to round-off: copy only if not
    if (order != np.arange(len(s))).any():
        u, proj, s = u[:, order], proj[order], s[order]
    root = np.sqrt(s)
    left = u * root
    div = np.where(root > 0, root, 1.0)[:, None]
    out = proj if dtype == proj.dtype else np.empty(proj.shape, dtype)
    np.divide(proj, div, out=out, casting="same_kind")
    return (out.T, left.T) if tall else (left, out)


def decompose(m: np.ndarray, plan: ShapePlan) -> MpoChain:
    """Full-rank tensor-train split of a matrix under the given plan.

    Each unfolding is split through the eigendecomposition of its smaller
    Gram matrix, with no SVD and no fallback (see the module docstring for
    why none is needed). Raises NonFiniteInput on a NaN or infinite entry,
    or on float64 entries so large that the Gram matrix overflows.
    """
    m = _check_dtype(m, "matrix")
    if m.ndim != 2 or m.shape != (plan.rows, plan.cols):
        raise ShapeMismatch(
            f"matrix shape {m.shape} does not match plan "
            f"({plan.rows}, {plan.cols})"
        )
    n = plan.n
    # a fresh copy even for float64 input, since _split consumes the carry
    carry = _interleave(m, plan.i_factors, plan.j_factors).astype(np.float64, order="C")
    cores = []
    d_prev = 1
    for k in range(n - 1):
        ik, jk = plan.i_factors[k], plan.j_factors[k]
        mat = carry.reshape(d_prev * ik * jk, -1)
        # the last split's proj / sqrt(s) is a core (the last one, or the
        # one at k when the unfolding is tall): write it as float32
        left, carry = _split(mat, np.float32 if k == n - 2 else np.float64)
        d_next = left.shape[1]
        cores.append(left.reshape(d_prev, ik, jk, d_next))
        d_prev = d_next
    cores.append(carry.reshape(d_prev, plan.i_factors[-1], plan.j_factors[-1], 1))
    return MpoChain(tuple(cores))  # casts the float64 cores to float32


def reconstruct(chain: MpoChain) -> np.ndarray:
    """Contract the chain back to its matrix (float64 accumulation).

    Packed cores are decoded here, to their exact QuantizedTensor.values().
    The product is cast to float32 once, as it is copied out of core order.
    """
    cores = [
        t.values() if isinstance(t, QuantizedTensor) else np.asarray(t, np.float64)
        for t in chain.local_tensors
    ]
    cur = cores[0].reshape(-1, cores[0].shape[3])
    for t in cores[1:]:
        cur = (cur @ t.reshape(t.shape[0], -1)).reshape(-1, t.shape[3])
    plan = chain.plan
    out = np.empty((plan.rows, plan.cols), dtype=np.float32)
    view = _interleave(out, plan.i_factors, plan.j_factors)
    view[...] = cur.reshape(view.shape)
    return out


def split_large_small(chain: MpoChain):
    """Return (large, small) cores of a length-2 chain; ties pick the last."""
    if chain.n != 2:
        raise ShapeMismatch("large/small split is defined for chains of length 2")
    first, last = chain.local_tensors
    if first.size > last.size:
        return first, last
    return last, first
