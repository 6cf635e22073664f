"""Outlier statistics, synthetic activations, and the error-comparison sweeps.

The error metric everywhere is the Frobenius norm of the reconstruction
residual (plus its value relative to the input norm). Sweeps report one
record per (matrix, method, bit width); ordering claims are made on suite
medians only. Every deco-tl-only arm packs the chain factorize returns
through compress._pack_chain, the rule deco_quantize ships, so a sweep
measures what the library stores; deco-both packs every core of that chain.
"""

import csv
from dataclasses import dataclass
from numbers import Real

import numpy as np

from . import mpo
from .compress import _pack_chain, deco_dequantize, factorize
from .errors import EmptyInput, NonFiniteInput, ShapeMismatch
from .quantize import _check_dtype, _check_size, dequantize, quantize_rtn

# Synthetic-activation structure: a correlated base built from sign
# patterns on dyadic grids with Gaussian coefficients, each column then
# normalized to unit RMS. Fine-grained patterns repeat across coarse
# blocks, which gives the base the multiscale self-similarity of real
# activation matrices (and makes it compressible by block-structured
# factorizations, unlike iid noise).
SYNTH_TERMS = 14
SYNTH_DECAY = 0.8
SYNTH_NOISE = 0.08

METHOD_MATRIX_RTN = "matrix-rtn"
METHOD_TL_ONLY = "deco-tl-only"
METHOD_BOTH = "deco-both"
METHOD_SVD = "svd-quant"
METHOD_QR = "qr-quant"

OUTLIERS_CSV_COLUMNS = ("tensor_label", "q1", "q3", "iqr", "outlier_count", "total")
ERRORS_CSV_COLUMNS = (
    "method",
    "bits",
    "n",
    "seed",
    "frobenius_error",
    "relative_error",
    "param_overhead",
)


@dataclass(frozen=True)
class OutlierStats:
    q1: float
    q3: float
    iqr: float
    lower_fence: float
    upper_fence: float
    outlier_count: int
    total_count: int


@dataclass(frozen=True)
class ErrorRecord:
    method: str
    bits: int
    n: int
    seed: int
    frobenius_error: float
    relative_error: float
    param_overhead: float


def iqr_stats(values) -> OutlierStats:
    """Quartiles by linear interpolation at p*(n-1), fences at 1.5*IQR."""
    v = np.asarray(_check_dtype(values, "values"), dtype=np.float64).ravel()
    if v.size == 0:
        raise EmptyInput("iqr_stats needs at least one value")
    if not np.isfinite(v).all():
        raise NonFiniteInput("iqr_stats requires finite values")
    s = np.sort(v)
    n = s.size

    def quantile(p):
        pos = p * (n - 1)
        lo = int(np.floor(pos))
        hi = min(lo + 1, n - 1)
        return float(s[lo] + (s[hi] - s[lo]) * (pos - lo))

    q1, q3 = quantile(0.25), quantile(0.75)
    iqr = q3 - q1
    lower, upper = q1 - 1.5 * iqr, q3 + 1.5 * iqr
    count = int(np.count_nonzero((v < lower) | (v > upper)))
    return OutlierStats(q1, q3, iqr, lower, upper, count, n)


def _sign_pattern(idx: int, n: int) -> np.ndarray:
    """+-1 Walsh pattern (-1)^popcount(t & idx) for t < n; idx is 0 or a power of 2."""
    return 1.0 - 2.0 * ((np.arange(n) & idx) > 0)


def _pattern_pairs(rows: int, cols: int, count: int):
    """Diagonal enumeration of (row-pattern, col-pattern) index pairs."""
    mr = 1 << max(1, (rows - 1).bit_length())
    mc = 1 << max(1, (cols - 1).bit_length())
    r_idx = [0] + [mr >> (i + 1) for i in range(mr.bit_length() - 1)]
    c_idx = [0] + [mc >> (i + 1) for i in range(mc.bit_length() - 1)]
    pairs = []
    for s in range(1, len(r_idx) + len(c_idx)):
        for a in range(s + 1):
            b = s - a
            if a < len(r_idx) and b < len(c_idx):
                pairs.append((r_idx[a], c_idx[b]))
            if len(pairs) == count:
                return pairs
    return pairs


def synth_activations(
    rows: int,
    cols: int,
    outlier_cols: int = 8,
    outlier_scale: float = 20.0,
    seed: int = 0,
) -> np.ndarray:
    """Synthetic activation matrix: correlated base + channel outliers.

    The base is a multiscale sign-pattern expansion with Gaussian
    coefficients plus a small iid component, with every column (channel)
    normalized to unit RMS within the draw. Its entries are Gaussian
    across seeds, but the marginal of a single draw is not Gaussian: a
    few coarse patterns dominate it. `outlier_cols` randomly chosen
    columns are then scaled by `outlier_scale`, so they stand out by
    exactly that factor, mimicking the channel-concentrated outliers of
    transformer activations. Deterministic for a fixed seed.
    """
    rows, cols = _check_size(rows, "rows"), _check_size(cols, "cols")
    _check_size(seed, "seed", 0)
    if _check_size(outlier_cols, "outlier_cols", 0) > cols:
        raise ShapeMismatch("outlier_cols cannot exceed cols")
    if not (isinstance(outlier_scale, Real) and 1 <= outlier_scale < np.inf):  # NaN too
        raise ShapeMismatch(f"outlier_scale must be finite and >= 1, got {outlier_scale!r}")
    rng = np.random.default_rng(seed)
    pairs = _pattern_pairs(rows, cols, SYNTH_TERMS)
    weights = SYNTH_DECAY ** np.arange(len(pairs))
    weights *= np.sqrt((1.0 - SYNTH_NOISE**2) / np.sum(weights * weights))
    base = SYNTH_NOISE * rng.standard_normal((rows, cols))
    for (ri, ci), w in zip(pairs, weights):
        coeff = rng.standard_normal()
        base += (w * coeff) * np.outer(_sign_pattern(ri, rows), _sign_pattern(ci, cols))
    base /= np.sqrt(np.mean(base * base, axis=0))
    idx = rng.choice(cols, size=outlier_cols, replace=False)
    base[:, idx] *= outlier_scale
    return base.astype(np.float32)


def default_suite(seeds=range(20)):
    """The reference outlier suite used by every sweep, 20 seeds by default.

    One 512 x 512 synth_activations matrix per seed, with 8 outlier
    columns scaled by 20.
    """
    return [synth_activations(512, 512, 8, 20.0, seed=s) for s in seeds]


def migration_report(m: np.ndarray):
    """IQR stats for the float32 matrix and both cores of its factorize(m, 2) chain.

    Returns (matrix_stats, large_stats, small_stats). On outlier-heavy
    inputs the large core's IQR collapses far below the matrix IQR while
    the small core keeps the wide values.
    """
    large, small = mpo.split_large_small(factorize(m, 2))
    return iqr_stats(np.asarray(m, dtype=np.float32)), iqr_stats(large), iqr_stats(small)


def _frob(x) -> float:
    return float(np.linalg.norm(np.asarray(x, dtype=np.float64)))


def _errors(original, reconstructed):
    err = _frob(np.asarray(original, np.float64) - np.asarray(reconstructed, np.float64))
    norm = _frob(original)
    return err, err / norm if norm else 0.0


def _chain_overhead(chain: mpo.MpoChain) -> float:
    stored = sum(t.size for t in chain.local_tensors)
    return stored / (chain.rows * chain.cols)


def _tl_only(m, chain: mpo.MpoChain, bits: int, seed: int) -> ErrorRecord:
    """The deco-tl-only record of m's chain, packed as deco_quantize packs it."""
    err, rel = _errors(m, deco_dequantize(_pack_chain(chain, bits)))
    return ErrorRecord(
        METHOD_TL_ONLY, bits, chain.n, seed, err, rel, _chain_overhead(chain)
    )


def strategy_sweep(suite, bits_list=(2, 4, 8)):
    """Matrix RTN vs quantizing both cores vs the large core only.

    One record per (seed, method, bits); n is fixed at 2. Both core arms
    use the chain deco_quantize packs (its plan and gauge); the "large core
    only" arm is deco_quantize's packing (first core kept at full precision).
    """
    records = []
    for seed, m in enumerate(suite):
        chain = factorize(m, 2)
        overhead = _chain_overhead(chain)
        for bits in bits_list:
            err, rel = _errors(m, dequantize(quantize_rtn(m, bits)))
            records.append(ErrorRecord(METHOD_MATRIX_RTN, bits, 2, seed, err, rel, 1.0))
            records.append(_tl_only(m, chain, bits, seed))
            both = mpo.MpoChain(tuple(quantize_rtn(t, bits) for t in chain.local_tensors))
            err, rel = _errors(m, deco_dequantize(both))
            records.append(ErrorRecord(METHOD_BOTH, bits, 2, seed, err, rel, overhead))
    return sorted(records, key=lambda r: (r.seed, r.method, r.bits))


def length_sweep(suite, n_list=(2, 3, 4), bits=4):
    """Compression error of deco_quantize as the chain length grows."""
    records = []
    for seed, m in enumerate(suite):
        for n in n_list:
            records.append(_tl_only(m, factorize(m, n), bits, seed))
    return sorted(records, key=lambda r: (r.seed, r.n, r.bits))


def _quantize_larger(m, a, b, bits):
    """a @ b with the larger factor quantized (b on a tie) and the overhead."""
    if a.size > b.size:
        a = dequantize(quantize_rtn(a.astype(np.float32), bits)).astype(np.float64)
    else:
        b = dequantize(quantize_rtn(b.astype(np.float32), bits)).astype(np.float64)
    return a @ b, (a.size + b.size) / m.size


def decomposition_comparison(suite, bits=4):
    """Chain vs SVD vs QR under the same rule: quantize the larger factor.

    The SVD baseline is the Gram split's balanced pair, W = (U*sqrt(S)) @
    (sqrt(S)*Vt) from mpo._split in float64, so both factors carry
    comparable scale; QR uses numpy's reduced W = Q @ R. Parameter
    overhead is total stored values over the original count. The chain is
    the one deco_quantize packs.
    """
    records = []
    for seed, m in enumerate(suite):
        records.append(_tl_only(m, factorize(m, 2), bits, seed))
        # float64 in: a float32 Gram matrix loses the small singular values;
        # _split consumes its input, and QR still needs m64
        m64 = np.asarray(m, dtype=np.float64)
        for method, (a, b) in (
            (METHOD_SVD, mpo._split(m64.copy())),
            (METHOD_QR, np.linalg.qr(m64, mode="reduced")),
        ):
            rec, overhead = _quantize_larger(m, a, b, bits)
            err, rel = _errors(m, rec)
            records.append(ErrorRecord(method, bits, 2, seed, err, rel, overhead))
    return sorted(records, key=lambda r: (r.seed, r.method, r.bits))


def median_by(records, key=lambda r: (r.method, r.bits)):
    """Median frobenius_error grouped by an arbitrary record key."""
    groups = {}
    for r in records:
        groups.setdefault(key(r), []).append(r.frobenius_error)
    return {k: float(np.median(v)) for k, v in sorted(groups.items())}


def write_outliers_csv(rows, path):
    """rows: iterable of (label, OutlierStats)."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(OUTLIERS_CSV_COLUMNS)
        writer.writerows(
            (label, st.q1, st.q3, st.iqr, st.outlier_count, st.total_count)
            for label, st in rows
        )


def write_errors_csv(records, path):
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(ERRORS_CSV_COLUMNS)
        writer.writerows([getattr(r, c) for c in ERRORS_CSV_COLUMNS] for r in records)
