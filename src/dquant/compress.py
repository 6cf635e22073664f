"""Decompose-then-quantize compression of matrices.

A matrix is tensor-train factorized, every core except the first (the
small one, which absorbs the wide values) is quantized to B-bit integers,
and the first core stays at full precision. The result is an mpo.MpoChain
whose packed cores are QuantizedTensors and whose bits is their width
(QuantizedMpo names the same class). Two rules make that split work:

* Plan: the first core is kept small. Starting from mpo.plan_shapes, the
  larger first-position factor steps down through the divisors of its
  planned value (rows first on a tie), the residual moving to the last
  position, until the first core holds at most max(1, rows*cols/64)
  values.
* Gauge: before packing, the chain is swept right to left; each
  left-bond slice of a packed core is divided by its max |value| and the
  matching bond column of the core to its left multiplied by it. The
  product is unchanged, the scale ends in the full-precision first core,
  and every bond row of a packed core spans the full code range under the
  core's single scale.

Reads either rebuild the matrix (deco_dequantize) or stream through the
packed payloads tile-by-tile (fused_matmul / fused_matmul_t) without ever
materializing a dequantized core. A packed core is read as count / (rows *
cols) stacked (rows, cols) matrices, one after another in the payload (one
matrix for a sweep); a tile is as many whole rows of one matrix as fit in
TILE_ELEMENTS (64*64) values, or, when one row is wider than that, a
TILE_ELEMENTS-wide piece of one row. No tile crosses from one matrix to the
next. Either way a tile is one contiguous range of the payload, gathered by
one unpack_range of at most TILE_ELEMENTS values; WorkingSetMeter counts the
elements of each such gather.

A tile is dequantized by one gather: unpack_range looks each payload byte
up in the core's value_table() (code * scale in float64, built once per
walk), so no code array is made and no per-tile scaling pass runs. The
rebuild decodes through the same table (see the quantize docstring), so
deco_dequantize is made from exactly the values the sweeps multiply; the
slab order multiplies them cast to float32, dequantize's values f32(code *
scale), each times one power of two. A walk gathers its tiles into one
buffer (a slab walk, one slab) made per walk. The grid of a walk's tiles
and runs is built once per geometry and tile size and shared.

A sweep multiplies a run of tiles at a time. Where a tile is fewer than
isqrt(TILE_ELEMENTS) = 64 whole rows, the walk gathers consecutive tiles
of one matrix, each still one unpack_range, into its buffer until the run
would pass 64 rows or 8 * TILE_ELEMENTS values, or the matrix ends, and
the sweep makes one GEMM per run. At 2048^2, p = 1, that is 256 GEMMs of
(8 x 64) @ (64 x 256) where one per tile made 1024 of (8 x 16) @ (16 x
256), and the fixed cost of those calls was about half of the product's
time. Larger runs spill L2: in a probe of the packed core's loop at
4096^2 (BLAS at one thread) 64-row runs took 30 ms, square runs 41 ms and
one GEMM per tile 43 ms; on rows of 4096 values, 8-row runs were as fast
as 16 to 64 rows. A tile of 64 or more rows, or a piece of a row wider
than a tile, is a run of its own. So each gather is one tile, and a
sweep's walk buffer holds one run: at most 64 rows and 8 * TILE_ELEMENTS
values, or one tile. A run's product is a fresh array: at these sizes (8
x 256 at 2048^2, p = 1) np.matmul into one product buffer made per call
was about 7% slower per call, its out= handling costing more than the
allocation it saves.

fused_matmul has two contraction orders for x (p rows) @ W:

* Sweep (any chain): left to right, x meets each core in turn, the packed
  ones run by run. For W = C0 (1, i0, j0, d) C1 (d, i1, j1, 1) the packed
  GEMM takes p * j0 operand rows through C1, p * |W| * d / i0 mult-adds.
* Slab (n = 2, C1 packed, C0 full precision): C1 is read as its d stacked
  (i1, j1) matrices, which share the tile geometry above. One walk over
  it gathers, at each position, matrix k's tile straight into row k of a
  (d, tile) slab, one unpack_range per matrix; C0 @ slab is the block of W
  at those rows and columns, and x times that block is added into the
  output. That is |W| * (d + p) mult-adds in larger GEMMs.

The sweep is taken unless the slab does fewer mult-adds, p * d > i0 * (d +
p): at i0 = 8, d = 64 (2048^2 and 4096^2) from p = 10 on, so p = 1 always
sweeps. A slab step holds the float64 slab and its float32 copy, both made
once per call, and its block of W and that block's product with x, both
made at each step: d * TILE_ELEMENTS values each for the slab and the block
at full rank (d = i0 * j0), 1/16 of W at 2048^2, 1/64 at 4096^2, all of W
only when W is that small (512^2).

The slab order multiplies in float32, as a dequantizing kernel does at its
own precision: its two GEMMs, C0 @ slab and x @ block, do |W| * (d + p)
mult-adds, and sgemm runs about twice as fast as dgemm (1024^2, one BLAS
thread, AVX-512 x86_64: 100-153 against 53-65 GF/s). Each operand is first
scaled by an exact power of two that takes it below 1 in magnitude, x by
max |x|, C0 by max |C0| and the slab by qmax * scale, which bounds |code *
scale|, then cast: the cast rounds each value once and cannot overflow, and
no block or product can, though x, W or code * scale lie past float32's
range (3.4e38). y accumulates in float32; the scaling is undone once, in
float64, before its cast to the float32 product. The error against the
float64 product is 2e-7 to 4e-7 at 256x128 to 2400x128 (contract 1e-4), and
2048^2, p = 64 takes 16-18 ms where the float64 slab took 25-28. The sweeps
stay float64. Where they pay, at p = 1, a float32 sweep probed 10-20%
faster at 4096^2 and mixed at 2048^2, for an error ten times the float64
one and tiles that no longer hold code * scale.

fused_matmul_t has two contraction orders for x (p rows) @ W.T:

* Sweep (any chain): right to left, x meets the packed C1 first, run by
  run, then C0: p * j0 * d * i1 * (j1 + i0) mult-adds for n = 2, through
  a (d * i1, j0 * p) intermediate (1 MB at 2048x128, p = 1).
* Full precision first (n = 2, C1 packed, C0 full precision): x meets C0
  first, z[k, j1, (p, i0)] = sum_j0 x * C0 (d * j1 * p * i0 values, 8K at
  2048x128, p = 1), then C1's runs, read as its d stacked (i1, j1) bond
  slices, add into one (i1, p * i0) accumulator, run @ z[k] for a run of
  slice C1[k]. That is p * i0 * d * j1 * (i1 + j0) mult-adds.

Full precision first is taken when it does no more mult-adds, i0 * j1 *
(i1 + j0) <= j0 * i1 * (j1 + i0), and a bond slice (i1 * j1 values) fills
at least a tile. A smaller slice makes several products per tile where the
sweep makes one, and at these sizes the per-product cost decides: in a
per-call probe (BLAS at one thread, p = 1) C0 first was 10-30% slower than
the sweep at 256x64, 512x64, 256x128, 512x128 and 256^2, whose slices are
1/4 to 1/2 of a tile, and 9-39% faster at 1024x128, 2048x64, 2048x128 and
4096x128, whose slices are a tile or more; 1024x64 (half-tile slices,
12% faster C0 first) is the one probed shape the rule leaves to the
sweep. So tall chains with large slices (2048x128, 2048^2) take it; small
segments and wide chains (128x2048) sweep. Both gather each of C1's values
once.
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
    total_unpacked is the sum over gathers. The slab path gathers d tiles
    into one slab, each recorded on its own.
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
    """plan_shapes with the first factors lowered until the first core is small."""
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
    """Scale each packed core's left-bond slices to max |value| 1, in place.

    Right to left, so each factor moves on until it ends in the first core.
    """
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
    """Factorize, then pack the chain by _pack_chain's rule.

    The plan and gauge follow the module rules: the full-precision first
    core holds at most max(1, rows*cols/64) values, and every left-bond
    slice of a packed core reaches +-qmax unless it is all zero.
    """
    bits = _check_bits(bits)
    return _pack_chain(factorize(m, n), bits)


def deco_dequantize(q: mpo.MpoChain) -> np.ndarray:
    """Recover the full-precision matrix (reference path, materializes)."""
    return mpo.reconstruct(q)


@lru_cache(maxsize=64)
def _grid(rows: int, cols: int, stack: int, runs: bool, tile: int):
    """The blocks of `stack` stacked (rows, cols) matrices, and a tile's values.

    A tile is whole rows of one matrix while a row fits in `tile` values
    (the walks pass TILE_ELEMENTS), else a `tile`-wide piece of one row. A
    block is one tile or, with `runs`, a run: as many consecutive whole-row
    tiles as fit in isqrt(tile) rows (64) and 8 * tile values, at least
    one, cut short at a matrix's end. Blocks are listed in payload order
    as (rs, cs, start, h, w): rs indexes the stacked rows, no block crosses
    from one matrix to the next, and the block is the contiguous range of
    h * w values at `start`. The first block is the largest. A tuple, made
    once per geometry and shared by every walk of it.
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
    (one for a sweep), in the runs of _grid. Each tile of a run is one
    unpack_range through the core's table of code * scale, gathered into
    its place in one buffer made per walk, so a run is valid only until the
    next is drawn.
    """
    table = qt.value_table()
    blocks, size = _grid(rows, cols, qt.count // (rows * cols), True, TILE_ELEMENTS)
    *_, h, w = blocks[0]  # the largest run
    buf = np.empty(h * w, dtype=np.float64)
    for rs, cs, start, h, w in blocks:
        n = h * w
        # a one-tile run skips the tile loop, whose Python cost of about
        # 0.5 us a tile made the 64-tile walks of 512^2 and 2048x128 5-7% slower
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


def _slabs(qt: QuantizedTensor, rows: int, cols: int, meter):
    """Yield (row slice, column slice, (d, h * w) slab) over d stacked (rows, cols) M.

    The packed core is read as d = count / (rows * cols) row-major matrices,
    one after another, that share the _grid of one matrix. At each of its
    tiles, row k of one slab, made per walk, gets matrix k's tile by one
    unpack_range through the core's table, so a slab is valid only until
    the next is drawn.
    """
    table = qt.value_table()
    size = rows * cols
    slab = np.empty((qt.count // size, TILE_ELEMENTS), dtype=np.float64)
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


def _slab_matmul(x: np.ndarray, q: mpo.MpoChain, meter) -> np.ndarray:
    """x @ W for a chain [C0, C1] with C1 packed, one slab of W at a time.

    The slab order of the module docstring: _slabs walks C1 as its d
    stacked (i1, j1) matrices, and at each position C0 @ slab is a fresh
    block of W, whose product with x's matching columns adds into y. Both
    GEMMs and y are float32: x, C0 and each float64 slab are cast after
    their scaling by a power of two that takes them below 1 in magnitude,
    and the scaling is undone once, in float64, before the last cast.
    """
    first, last = q.local_tensors
    _, i0, j0, d = first.shape
    _, i1, j1, _ = last.shape
    p = x.shape[0]
    if x.dtype.kind != "f":
        x = x.astype(np.float64)
    ex = _exponent(float(np.abs(x).max(initial=0)))
    xv = np.multiply(x, 2.0**-ex, dtype=np.float64).astype(np.float32)
    xv = xv.reshape(p, i0, i1)
    # rows in (j0, i0) order, so C0 @ slab is j0 stacked (i0 * h, w) blocks
    c0 = np.ascontiguousarray(first.reshape(i0, j0, d).transpose(1, 0, 2))
    ec = _exponent(float(np.abs(c0).max(initial=0)))
    c0 = np.ldexp(c0.reshape(j0 * i0, d), -ec)
    # |code * scale| <= qmax * scale < 2**(exponent of scale + bits - 1)
    es = _exponent(last.scale) + last.bits - 1
    slab32 = np.empty((d, TILE_ELEMENTS), dtype=np.float32)
    # y in the (j0, p, j1) order of the products, so each adds in place
    y = np.zeros((j0, p, j1), dtype=np.float32)
    for rs, cs, slab in _slabs(last, i1, j1, meter):
        h, w = rs.stop - rs.start, cs.stop - cs.start
        s32 = np.multiply(slab, 2.0**-es, out=slab32[:, : h * w])
        w_slab = (c0 @ s32).reshape(j0, i0 * h, w)
        acc = y[:, :, cs]  # y[:, :, cs] += would copy the slice back
        acc += np.matmul(xv[:, :, rs].reshape(p, i0 * h), w_slab)
    y = np.ldexp(y.transpose(1, 0, 2), ex + ec + es, dtype=np.float64)
    return y.astype(np.float32, order="C").reshape(p, q.cols)


def fused_matmul(x: np.ndarray, q: mpo.MpoChain, meter: WorkingSetMeter = None):
    """x @ W for the compressed matrix W, streaming the packed cores.

    Takes the contraction order with fewer mult-adds (module docstring):
    the sweep, left to right in float64 with the full-precision first core
    applied directly and each packed core through one GEMM per run of
    tiles, or, for a two-core chain once p * d > i0 * (d + p), the slab
    rebuild of W, whose GEMMs run in float32 on operands scaled by powers
    of two. Either matches x @ deco_dequantize(q) within 1e-4 relative
    Frobenius, and each gather stays within TILE_ELEMENTS values.
    """
    x = _check_dtype(x, "operand")
    if x.ndim != 2 or x.shape[1] != q.rows:
        raise ShapeMismatch(f"operand shape {x.shape} does not match rows {q.rows}")
    p = x.shape[0]
    i_f, j_f = q.plan.i_factors, q.plan.j_factors
    n = q.plan.n
    first, last = q.local_tensors[0], q.local_tensors[-1]
    if n == 2 and isinstance(first, np.ndarray) and isinstance(last, QuantizedTensor):
        d = first.shape[3]  # slab |W| * (d + p) vs sweep p * |W| * d / i0 mult-adds
        if p * d > i_f[0] * (d + p):
            return _slab_matmul(x, q, meter)
    # state: (p, i_k..i_n, J_acc, d_{k-1}) flattened views
    cur = np.asarray(x, dtype=np.float64).reshape((p,) + tuple(i_f) + (1, 1))
    j_acc = 1
    d = 1
    for k in range(n):
        ik, jk = i_f[k], j_f[k]
        i_rest = prod(i_f[k + 1 :], start=1)
        # (p, ik, i_rest, j_acc, d) -> (p, i_rest, j_acc, d, ik)
        cur = cur.reshape(p, ik, i_rest, j_acc, d)
        cur = np.ascontiguousarray(np.transpose(cur, (0, 2, 3, 4, 1)))
        a = cur.reshape(p * i_rest * j_acc, d * ik)
        core = q.local_tensors[k]
        d_next = core.shape[3]
        if isinstance(core, QuantizedTensor):
            out = np.zeros((a.shape[0], jk * d_next), dtype=np.float64)
            for rs, cs, run in _tiles(core, d * ik, jk * d_next, meter):
                acc = out[:, cs]  # out[:, cs] += would copy the slice back
                acc += a[:, rs] @ run
        else:
            out = a @ np.asarray(core, dtype=np.float64).reshape(d * ik, jk * d_next)
        j_acc *= jk
        d = d_next
        cur = out.reshape(p, i_rest, j_acc, d)
    return cur.reshape(p, q.cols).astype(np.float32, order="C")


def _fp_first_matmul_t(x: np.ndarray, q: mpo.MpoChain, meter) -> np.ndarray:
    """x @ W.T for a chain [C0, C1] with C1 packed, C0 contracted first.

    The full-precision-first order of the module docstring: z[k] = (j1, p *
    i0) is x's contraction with C0 at bond index k. C1 is walked as its d
    stacked (i1, j1) bond slices, so each run lies in one slice C1[k] and
    adds run @ z[k] into its rows of the (i1, p * i0) accumulator.
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
    """x @ W.T, streaming the packed cores.

    Needed by attention reads (q_row @ K.T). For a two-core chain with C1
    packed, C0 first when it does no more mult-adds and a bond slice of C1
    fills a tile (module docstring), else the right-to-left sweep. Same
    working-set contract as fused_matmul: each gather is one tile, and the
    walk's buffer holds one run of at most 64 rows and 8 * TILE_ELEMENTS
    values (or one tile).
    """
    x = _check_dtype(x, "operand")
    if x.ndim != 2 or x.shape[1] != q.cols:
        raise ShapeMismatch(f"operand shape {x.shape} does not match cols {q.cols}")
    p = x.shape[0]
    i_f, j_f = q.plan.i_factors, q.plan.j_factors
    n = q.plan.n
    first, last = q.local_tensors[0], q.local_tensors[-1]
    if n == 2 and isinstance(first, np.ndarray) and isinstance(last, QuantizedTensor):
        (i0, i1), (j0, j1) = i_f, j_f  # mult-adds over p * d, then slice vs tile
        if i0 * j1 * (i1 + j0) <= j0 * i1 * (j1 + i0) and i1 * j1 >= TILE_ELEMENTS:
            return _fp_first_matmul_t(x, q, meter)
    # state: (j_1..j_k, d_k, I_acc, p); contract cores from the right
    cur = np.ascontiguousarray(np.asarray(x, dtype=np.float64).T).reshape(
        tuple(j_f) + (1, 1, p)
    )
    i_acc = 1
    for k in range(n - 1, -1, -1):
        ik, jk = i_f[k], j_f[k]
        d_prev = 1 if k == 0 else q.local_tensors[k - 1].shape[3]
        d_k = q.local_tensors[k].shape[3]
        j_lead = prod(j_f[:k], start=1)
        # (j_lead, jk, d_k, i_acc, p) -> (jk, d_k, j_lead, i_acc, p)
        cur = cur.reshape(j_lead, jk, d_k, i_acc, p)
        cur = np.ascontiguousarray(np.transpose(cur, (1, 2, 0, 3, 4)))
        b = cur.reshape(jk * d_k, j_lead * i_acc * p)
        core = q.local_tensors[k]
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
