"""Decompose-then-quantize compression of matrices.

A matrix is tensor-train factorized, every core but the first is quantized
to B-bit integers, and the first, the small core that absorbs the wide
values, stays at full precision. The result is an mpo.MpoChain whose packed
cores are QuantizedTensors (QuantizedMpo names the same class). Two rules
make that split work:

* Plan: starting from mpo.plan_shapes, the larger first-position factor
  steps down through the divisors of its planned value (rows first on a
  tie), the residual moving to the last position, until the first core
  holds at most max(1, rows*cols/64) values.
* Gauge: before packing, right to left, each left-bond slice of a packed
  core is divided by its max |value| and the matching bond column of the
  core to its left multiplied by it. The product is unchanged, the scale
  ends in the first core, and every bond row of a packed core spans the
  code range under the core's one scale.

Reads rebuild the matrix (deco_dequantize) or stream the packed cores
through fused_matmul / fused_matmul_t, which never make a dequantized core.
A packed core is read as count / (rows*cols) stacked (rows, cols) matrices
in payload order. A tile is as many whole rows of one matrix as fit in
TILE_ELEMENTS values or, when a row is wider, a TILE_ELEMENTS-wide piece of
one row. No tile crosses from one matrix to the next, so a tile is one
contiguous range of the payload, gathered by one unpack_range. The sweeps
multiply a run at a time: consecutive whole-row tiles of one matrix, up to
64 rows and 8 * TILE_ELEMENTS values; a tile of 64 rows or more, or a piece
of a row, is a run of its own. The cap weighs the fixed cost of each GEMM
call, which dominates products of a few rows, against runs that spill L2.

Every gather decodes through one table, the core's value_table() of code *
scale in float64, so no code array is made and no scaling pass runs; the
rebuild decodes through the same table. The slab order's table is that one
times a power of two, cast once to float32.

fused_matmul has two orders for x (p rows) @ W, W = C0 (1, i0, j0, d) C1
(d, i1, j1, 1):

* Sweep (any chain): left to right in float64, x meets each core in turn,
  a packed one run by run; the packed GEMM does p * |W| * d / i0 mult-adds.
* Slab (n = 2, C1 packed): C1 is read as its d stacked (i1, j1) matrices.
  At each tile position, matrix k's tile is gathered into row k of a (d,
  tile) slab; C0 @ slab is that block of W, and x times the block adds into
  y. That is |W| * (d + p) mult-adds in larger GEMMs.

The slab is taken when it does fewer mult-adds, p * d > i0 * (d + p): at
i0 = 8, d = 64 from p = 10 on, so p = 1 always sweeps. A slab step holds
the slab, made once per call, a block of W and the block's product with x,
each d * TILE_ELEMENTS values at full rank (d = i0 * j0).

The slab order multiplies in float32, as a dequantizing kernel works at its
own precision, and sgemm does its mult-adds in about half dgemm's time.
Its three operands, x, C0 and the slab's table (value_table() of C1), are
each scaled by the power of two above its own max |value|, exactly in
float64, then cast to float32 once. So each value rounds once and no cast
overflows, even where x, W or code * scale lie past float32's range, and a
block entry is at most d, an entry of y at most rows * d (up to rounding).
The scaling is undone once, in float64, before y's cast. The sweeps stay
float64, so their tiles hold code * scale exactly.

fused_matmul_t has two orders for x (p rows) @ W.T:

* Sweep (any chain): right to left, x meets the packed C1 first, run by
  run, then C0: p * j0 * d * i1 * (j1 + i0) mult-adds for n = 2.
* Full precision first (n = 2, C1 packed): z[k, j1, (p, i0)] = sum_j0 x *
  C0, then each run of C1, read as its d stacked (i1, j1) bond slices, adds
  run @ z[k] into one (i1, p * i0) accumulator: p * i0 * d * j1 * (i1 + j0)
  mult-adds.

Full precision first is taken when it does no more mult-adds, i0 * j1 *
(i1 + j0) <= j0 * i1 * (j1 + i0), and a bond slice (i1 * j1 values) fills
at least a tile. A smaller slice makes several products per tile where the
sweep makes one, and at these sizes the cost per product decides. Both
orders gather each of C1's values once.

The probes behind the run cap, the float32 slab and the slice condition are
recorded in CHANGES.md, in the entries that introduced each of them.
"""

from dataclasses import dataclass
from functools import lru_cache
from math import frexp, isqrt, prod

import numpy as np

from . import mpo
from .errors import ShapeMismatch
from .quantize import QuantizedTensor, _check_bits, _check_dtype, quantize_rtn
from .quantize import unpack_range

TILE_ELEMENTS = 64 * 64
FP_CORE_SHARE = 64  # the first core holds at most 1/64 of the matrix's values


class WorkingSetMeter:
    """Counts the elements of each tile gather inside fused multiplies.

    peak_elements is the largest single gather (at most TILE_ELEMENTS);
    total_unpacked is the sum over gathers.
    """

    def __init__(self):
        self.peak_elements = 0
        self.total_unpacked = 0

    def record(self, n_elements: int):
        self.total_unpacked += n_elements
        if n_elements > self.peak_elements:
            self.peak_elements = n_elements


QuantizedMpo = mpo.MpoChain  # the name the package has exported for a packed chain


@dataclass(frozen=True)
class CompressionReport:
    """Stored-size accounting against a 16-bit uncompressed baseline."""

    ratio: float
    bytes_original: int
    bytes_compressed: int


def _plan(rows: int, cols: int, n: int) -> mpo.ShapePlan:
    """plan_shapes with the first factors lowered by the module's plan rule."""
    plan = mpo.plan_shapes(rows, cols, n)
    i_f, j_f = list(plan.i_factors), list(plan.j_factors)
    i0, j0 = i_f[0], j_f[0]
    limit = max(1, rows * cols / FP_CORE_SHARE)
    # the first core holds ij * min(ij, rows * cols / ij) values: 1 at ij = 1
    while (ij := i_f[0] * j_f[0]) * min(ij, rows * cols // ij) > limit:
        f, planned = (i_f, i0) if i_f[0] >= j_f[0] else (j_f, j0)
        lower = next(d for d in range(f[0] - 1, 0, -1) if planned % d == 0)
        f[-1] = f[-1] * f[0] // lower
        f[0] = lower
    return mpo.ShapePlan(tuple(i_f), tuple(j_f))


def _regauge(cores):
    """The module's gauge rule, in place: packed left-bond slices to max |value| 1."""
    for k in range(len(cores) - 1, 0, -1):
        core = cores[k]
        amax = np.maximum(core.max(axis=(1, 2, 3)), -core.min(axis=(1, 2, 3)))
        amax[amax == 0] = 1
        core /= amax[:, None, None, None]
        cores[k - 1] *= amax


def factorize(m: np.ndarray, n: int = 2) -> mpo.MpoChain:
    """The planned and regauged chain that deco_quantize packs (float32)."""
    with np.errstate(over="ignore"):  # mpo's Gram check refuses what overflows
        m = np.asarray(_check_dtype(m, "matrix"), dtype=np.float32)
    if m.ndim != 2:
        raise ShapeMismatch(f"expected a matrix, got shape {m.shape}")
    chain = mpo.decompose(m, _plan(m.shape[0], m.shape[1], n))
    _regauge(list(chain.local_tensors))
    return chain


def _pack_chain(chain: mpo.MpoChain, bits: int) -> mpo.MpoChain:
    """The packing rule: every core but the first quantized to `bits`."""
    first, *rest = chain.local_tensors
    return mpo.MpoChain((first, *(quantize_rtn(t, bits) for t in rest)))


def deco_quantize(m: np.ndarray, bits: int, n: int = 2) -> mpo.MpoChain:
    """Factorize (the module's plan and gauge), then pack by _pack_chain's rule.

    Every left-bond slice of a packed core reaches +-qmax unless it is all
    zero.
    """
    bits = _check_bits(bits)
    return _pack_chain(factorize(m, n), bits)


def deco_dequantize(q: mpo.MpoChain) -> np.ndarray:
    """Recover the full-precision matrix (reference path, materializes)."""
    return mpo.reconstruct(q)


@lru_cache(maxsize=64)
def _grid(rows: int, cols: int, stack: int, runs: bool, tile: int):
    """The blocks of `stack` stacked (rows, cols) matrices, and a tile's values.

    A block is one of the module's tiles or, with `runs`, one of its runs,
    for tiles of `tile` values (the walks pass TILE_ELEMENTS; a run's cap is
    isqrt(tile) rows). Blocks are listed in payload order as (rs, cs, start,
    h, w): rs indexes the stacked rows, and the block is the contiguous
    range of h * w values at `start`. The first block is the largest. A
    tuple, made once per geometry and shared by every walk of it.
    """
    height, width = max(1, tile // cols), min(cols, tile)
    size = height * width
    if runs and width == cols:
        cap = min(isqrt(tile), 8 * tile // cols)
        height *= max(1, cap // height)
    pieces = [slice(c0, min(cols, c0 + width)) for c0 in range(0, cols, width)]
    row_blocks = [
        slice(r0, min(top + rows, r0 + height))
        for top in range(0, stack * rows, rows)
        for r0 in range(top, top + rows, height)
    ]
    blocks = tuple(
        (rs, cs, rs.start * cols + cs.start, rs.stop - rs.start, cs.stop - cs.start)
        for rs in row_blocks
        for cs in pieces
    )
    return blocks, size


def _tiles(qt: QuantizedTensor, rows: int, cols: int, meter):
    """Yield (row slice, column slice, float64 run) over a packed core's runs.

    The core is read as count / (rows * cols) stacked (rows, cols) matrices
    (one for a sweep). Each tile of a run is one unpack_range through
    value_table() into its place in one buffer made per walk, so a run is
    valid only until the next is drawn.
    """
    table = qt.value_table()
    blocks, size = _grid(rows, cols, qt.count // (rows * cols), True, TILE_ELEMENTS)
    *_, h, w = blocks[0]  # the largest run
    buf = np.empty(h * w, dtype=np.float64)
    for rs, cs, start, h, w in blocks:
        n = h * w
        # a one-tile run skips the tile loop and its Python cost per tile
        if n <= size:
            run = unpack_range(qt.payload, start, n, qt.bits, table, buf[:n])
            if meter is not None:
                meter.record(n)
        else:
            for off in range(0, n, size):
                count = min(size, n - off)
                tile = buf[off : off + count]
                unpack_range(qt.payload, start + off, count, qt.bits, table, tile)
                if meter is not None:
                    meter.record(count)
            run = buf[:n]
        yield rs, cs, run.reshape(h, w)


def _slabs(qt: QuantizedTensor, rows: int, cols: int, table: np.ndarray, meter):
    """Yield (row slice, column slice, (d, h * w) slab) at each tile of the slab order.

    The packed core is read as d = count / (rows * cols) stacked (rows,
    cols) matrices that share one matrix's tiles. Row k of the one slab,
    made per walk in table.dtype, holds matrix k's tile, gathered by one
    unpack_range through `table` (256 rows in CODE_TABLES lane order), so a
    slab is valid only until the next is drawn.
    """
    size = rows * cols
    slab = np.empty((qt.count // size, TILE_ELEMENTS), dtype=table.dtype)
    blocks, _ = _grid(rows, cols, 1, False, TILE_ELEMENTS)
    for rs, cs, start, h, w in blocks:
        count = h * w
        for k, row in enumerate(slab):
            unpack_range(qt.payload, k * size + start, count, qt.bits, table, row[:count])
            if meter is not None:
                meter.record(count)
        yield rs, cs, slab[:, :count]


def _exponent(amax: float) -> int:
    """The e with amax < 2**e (0 for 0): 2**-e takes amax below 1, exactly."""
    return max(frexp(amax)[1], -1022)  # -1022: 2.0**-e stays finite


def _unit32(a: np.ndarray):
    """(a * 2**-e in float32, e) for e = _exponent(max |a|): the slab scaling.

    max |a| is max(a.max(), -a.min()) read as floats, so no integer wraps
    and no |a| is made; the product is exact in float64, cast once.
    """
    e = _exponent(max(float(a.max(initial=0)), -float(a.min(initial=0))))
    return np.multiply(a, 2.0**-e, dtype=np.float64).astype(np.float32), e


def _slab_matmul(x: np.ndarray, q: mpo.MpoChain, meter) -> np.ndarray:
    """x @ W for a chain [C0, C1] with C1 packed: the module's slab order.

    Both GEMMs and y are float32, under the module's power-of-two scaling.
    """
    first, last = q.local_tensors
    _, i0, j0, d = first.shape
    _, i1, j1, _ = last.shape
    p = x.shape[0]
    xv, ex = _unit32(x)
    xv = xv.reshape(p, i0, i1)
    # rows in (j0, i0) order, so C0 @ slab is j0 stacked (i0 * h, w) blocks
    c0, ec = _unit32(first.reshape(i0, j0, d).transpose(1, 0, 2))
    c0 = c0.reshape(j0 * i0, d)
    table, es = _unit32(last.value_table())
    # y in the (j0, p, j1) order of the products, so each adds in place
    y = np.zeros((j0, p, j1), dtype=np.float32)
    for rs, cs, slab in _slabs(last, i1, j1, table, meter):
        h, w = rs.stop - rs.start, cs.stop - cs.start
        w_slab = (c0 @ slab).reshape(j0, i0 * h, w)
        acc = y[:, :, cs]  # y[:, :, cs] += would copy the slice back
        acc += np.matmul(xv[:, :, rs].reshape(p, i0 * h), w_slab)
    y = np.ldexp(y.transpose(1, 0, 2), ex + ec + es, dtype=np.float64)
    return y.astype(np.float32, order="C").reshape(p, q.cols)


def fused_matmul(x: np.ndarray, q: mpo.MpoChain, meter: WorkingSetMeter = None):
    """x @ W for the compressed matrix W, streaming the packed cores.

    Takes the sweep or the slab order by the module's mult-add rule. Either
    matches x @ deco_dequantize(q) within 1e-4 relative Frobenius, and each
    gather is one tile, within TILE_ELEMENTS values.
    """
    x = _check_dtype(x, "operand")
    if x.ndim != 2 or x.shape[1] != q.rows:
        raise ShapeMismatch(f"operand shape {x.shape} does not match rows {q.rows}")
    p = x.shape[0]
    i_f, j_f = q.plan.i_factors, q.plan.j_factors
    n = q.plan.n
    first, last = q.local_tensors[0], q.local_tensors[-1]
    if n == 2 and isinstance(first, np.ndarray) and isinstance(last, QuantizedTensor):
        d = first.shape[3]  # the slab rule
        if p * d > i_f[0] * (d + p):
            return _slab_matmul(x, q, meter)
    # state: (p, i_k..i_n, J_acc, d_{k-1}) flattened views
    cur = np.asarray(x, dtype=np.float64).reshape((p,) + tuple(i_f) + (1, 1))
    j_acc = 1
    for k, core in enumerate(q.local_tensors):
        d, ik, jk, d_next = core.shape
        i_rest = prod(i_f[k + 1 :], start=1)
        # (p, ik, i_rest, j_acc, d) -> (p, i_rest, j_acc, d, ik)
        cur = cur.reshape(p, ik, i_rest, j_acc, d)
        cur = np.ascontiguousarray(np.transpose(cur, (0, 2, 3, 4, 1)))
        a = cur.reshape(p * i_rest * j_acc, d * ik)
        if isinstance(core, QuantizedTensor):
            out = np.zeros((a.shape[0], jk * d_next), dtype=np.float64)
            for rs, cs, run in _tiles(core, d * ik, jk * d_next, meter):
                acc = out[:, cs]  # out[:, cs] += would copy the slice back
                acc += a[:, rs] @ run
        else:
            out = a @ np.asarray(core, dtype=np.float64).reshape(d * ik, jk * d_next)
        j_acc *= jk
        cur = out.reshape(p, i_rest, j_acc, d_next)
    return cur.reshape(p, q.cols).astype(np.float32, order="C")


def _fp_first_matmul_t(x: np.ndarray, q: mpo.MpoChain, meter) -> np.ndarray:
    """x @ W.T for a chain [C0, C1] with C1 packed: the full-precision-first order.

    C1 is walked as its d stacked (i1, j1) bond slices, so each run lies in
    one slice C1[k] and adds run @ z[k] into its rows of the accumulator.
    """
    first, last = q.local_tensors
    _, i0, j0, d = first.shape
    _, i1, j1, _ = last.shape
    p = x.shape[0]
    xv = np.asarray(x, dtype=np.float64).reshape(p, j0, j1).transpose(2, 0, 1)
    c0 = np.asarray(first, dtype=np.float64).reshape(i0, j0, d).transpose(1, 2, 0)
    # (j1 * p, j0) @ (j0, d * i0) -> (j1, p, d, i0) -> z[k, j1, (p, i0)]
    z = (xv.reshape(j1 * p, j0) @ c0.reshape(j0, d * i0)).reshape(j1, p, d, i0)
    z = np.ascontiguousarray(z.transpose(2, 0, 1, 3)).reshape(d, j1, p * i0)
    acc = np.zeros((i1, p * i0), dtype=np.float64)
    for rs, cs, run in _tiles(last, i1, j1, meter):
        k, a = divmod(rs.start, i1)
        part = acc[a : a + len(run)]
        part += run @ z[k, cs]
    y = acc.reshape(i1, p, i0).transpose(1, 2, 0)
    return y.reshape(p, q.rows).astype(np.float32, order="C")


def fused_matmul_t(x: np.ndarray, q: mpo.MpoChain, meter: WorkingSetMeter = None):
    """x @ W.T, streaming the packed cores, as attention reads need (q @ K.T).

    Takes the full-precision-first order where the module's rule picks it,
    else the right-to-left sweep. Same contract as fused_matmul.
    """
    x = _check_dtype(x, "operand")
    if x.ndim != 2 or x.shape[1] != q.cols:
        raise ShapeMismatch(f"operand shape {x.shape} does not match cols {q.cols}")
    p = x.shape[0]
    i_f, j_f = q.plan.i_factors, q.plan.j_factors
    n = q.plan.n
    first, last = q.local_tensors[0], q.local_tensors[-1]
    if n == 2 and isinstance(first, np.ndarray) and isinstance(last, QuantizedTensor):
        (i0, i1), (j0, j1) = i_f, j_f  # the full-precision-first rule
        if i0 * j1 * (i1 + j0) <= j0 * i1 * (j1 + i0) and i1 * j1 >= TILE_ELEMENTS:
            return _fp_first_matmul_t(x, q, meter)
    # state: (j_1..j_k, d_k, I_acc, p); contract cores from the right
    cur = np.ascontiguousarray(np.asarray(x, dtype=np.float64).T).reshape(
        tuple(j_f) + (1, 1, p)
    )
    i_acc = 1
    for k in range(n - 1, -1, -1):
        core = q.local_tensors[k]
        d_prev, ik, jk, d_k = core.shape
        j_lead = prod(j_f[:k], start=1)
        # (j_lead, jk, d_k, i_acc, p) -> (jk, d_k, j_lead, i_acc, p)
        cur = cur.reshape(j_lead, jk, d_k, i_acc, p)
        cur = np.ascontiguousarray(np.transpose(cur, (1, 2, 0, 3, 4)))
        b = cur.reshape(jk * d_k, j_lead * i_acc * p)
        if isinstance(core, QuantizedTensor):
            out = np.zeros((d_prev * ik, b.shape[1]), dtype=np.float64)
            for rs, cs, run in _tiles(core, d_prev * ik, jk * d_k, meter):
                acc = out[rs]
                acc += run @ b[cs]
        else:
            out = np.asarray(core, dtype=np.float64).reshape(d_prev * ik, jk * d_k) @ b
        # (d_prev, ik, j_lead, i_acc, p) -> (j_lead, d_prev, ik, i_acc, p)
        out = out.reshape(d_prev, ik, j_lead, i_acc, p)
        out = np.ascontiguousarray(np.transpose(out, (2, 0, 1, 3, 4)))
        i_acc *= ik
        cur = out.reshape(j_lead, d_prev, i_acc, p)
    return cur.reshape(q.rows, p).T.astype(np.float32, order="C")


def compression_report(q: mpo.MpoChain) -> CompressionReport:
    """Bit-weighted size of the stored cores over the 16-bit original."""
    n_fp = sum(t.size for t in q.fp_locals)
    n_scales = len(q.quantized_locals)
    packed_bits = sum(t.count * t.bits for t in q.quantized_locals)
    numerator_bits = packed_bits + n_fp * 16 + n_scales * 16
    original_bits = q.rows * q.cols * 16
    bytes_compressed = (
        sum(len(t.payload) for t in q.quantized_locals) + 2 * n_scales + 2 * n_fp
    )
    return CompressionReport(
        ratio=numerator_bits / original_bits,
        bytes_original=q.rows * q.cols * 2,
        bytes_compressed=bytes_compressed,
    )
