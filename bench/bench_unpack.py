"""Stage-level timings of the fused read path: tile unpack and fused GEMMs.

Run by explicit path from the root of a checkout (the name does not match
test_*.py, so the tier-1 suite does not collect it):

    OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 python -m pytest bench/bench_unpack.py

Cases, at fixed seeds: one 4096-code unpack_range tile (the default int8
codes) at 2, 4 and 8 bits; fused_matmul on a compressed 2048^2 matrix
(b4, n=2, 8 outlier columns x20, as in the gemv-2048 workload at seed 7)
at p=1 and p=64, and on the 512^2 guard matrix of the compress-4096 and
kv-decode workloads at p=64; the two orders of x @ W below the slab rule's
crossover, fused_matmul (which sweeps there) and _slab_matmul, at p=6-9 on
512^2 and 2048^2; and, on a 2048x128 b4 segment, fused_matmul_t at p=1 (the
attention_scores read of the kv-decode workload) and deco_dequantize (its
read_values rebuild).

Shape, bits, p and the min and median wall time of each case are merged
into BENCH_unpack.json at the checkout root (or $BENCH_OUT) under the label
$BENCH_LABEL (default "current"), so runs of two checkouts can share a file,
each run one more pass of each case (see benchlib for alternating passes).
"""

import benchlib  # first: it pins BLAS to one thread before numpy loads
import numpy as np
import pytest

from dquant import compress, quantize

TILE_ROUNDS, TILE_ITERATIONS = 50, 100  # a tile takes microseconds
GEMM_ROUNDS = 20
BITS = 4
N = 2
BENCH = benchlib.BenchFile("unpack")


@pytest.fixture(scope="module", autouse=True)
def bench_file():
    yield
    BENCH.write()


@pytest.fixture(scope="module")
def w2048():
    return compress.deco_quantize(benchlib.weight_matrix(2048, 2048), BITS, N)


@pytest.mark.parametrize("bits", quantize.SUPPORTED_BITS)
def test_unpack_range_tile(benchmark, bits):
    count = compress.TILE_ELEMENTS
    qmax = 2 ** (bits - 1) - 1
    codes = np.random.default_rng([7, bits]).integers(-qmax, qmax + 1, 64 * count)
    payload = quantize.pack(codes, bits)
    start = 17 * count  # a tile in the middle of a longer payload
    tile = benchmark.pedantic(
        quantize.unpack_range,
        args=(payload, start, count, bits),
        rounds=TILE_ROUNDS,
        iterations=TILE_ITERATIONS,
        warmup_rounds=1,
    )
    np.testing.assert_array_equal(tile, codes[start : start + count])
    BENCH.record(
        benchmark, "quantize.unpack_range", (count,), bits=bits, n=None, p=None
    )


@pytest.fixture(scope="module")
def w512():
    return compress.deco_quantize(benchlib.weight_matrix(512, 512), BITS, N)


@pytest.mark.parametrize("p", [1, 64])
def test_fused_matmul(benchmark, w2048, p):
    x = np.random.default_rng([7, p]).standard_normal((p, 2048), dtype=np.float32)
    y = benchmark.pedantic(
        compress.fused_matmul, args=(x, w2048), rounds=GEMM_ROUNDS, warmup_rounds=1
    )
    assert y.shape == (p, 2048)
    BENCH.record(benchmark, "compress.fused_matmul", (2048, 2048), bits=BITS, n=N, p=p)


def test_fused_matmul_guard(benchmark, w512):
    x = np.random.default_rng([7, 64]).standard_normal((64, 512), dtype=np.float32)
    y = benchmark.pedantic(
        compress.fused_matmul, args=(x, w512), rounds=GEMM_ROUNDS, warmup_rounds=1
    )
    assert y.shape == (64, 512)
    BENCH.record(benchmark, "compress.fused_matmul", (512, 512), bits=BITS, n=N, p=64)


@pytest.mark.parametrize("order", ["sweep", "slab"])
@pytest.mark.parametrize("p", [6, 7, 8, 9])
@pytest.mark.parametrize("size", [512, 2048])
def test_orders_below_the_slab_rule(benchmark, w512, w2048, size, p, order):
    # fused_matmul sweeps at p = 6-9; _slab_matmul times the slab order there
    w = {512: w512, 2048: w2048}[size]
    x = np.random.default_rng([7, p]).standard_normal((p, size), dtype=np.float32)
    product = compress.fused_matmul if order == "sweep" else compress._slab_matmul
    y = benchmark.pedantic(
        product, args=(x, w, None), rounds=GEMM_ROUNDS, warmup_rounds=1
    )
    assert y.shape == (p, size)
    case = "compress.fused_matmul" if order == "sweep" else "compress._slab_matmul"
    BENCH.record(benchmark, case, (size, size), bits=BITS, n=N, p=p)


@pytest.fixture(scope="module")
def segment():
    return compress.deco_quantize(benchlib.weight_matrix(2048, 128), BITS, N)


def test_fused_matmul_t_segment(benchmark, segment):
    q = np.random.default_rng([7, 1]).standard_normal((1, 128), dtype=np.float32)
    s = benchmark.pedantic(
        compress.fused_matmul_t, args=(q, segment), rounds=GEMM_ROUNDS, warmup_rounds=1
    )
    assert s.shape == (1, 2048)
    BENCH.record(benchmark, "compress.fused_matmul_t", (2048, 128), bits=BITS, n=N, p=1)


def test_deco_dequantize_segment(benchmark, segment):
    m = benchmark.pedantic(
        compress.deco_dequantize, args=(segment,), rounds=GEMM_ROUNDS, warmup_rounds=1
    )
    assert m.shape == (2048, 128)
    BENCH.record(
        benchmark, "compress.deco_dequantize", (2048, 128), bits=BITS, n=N, p=None
    )
