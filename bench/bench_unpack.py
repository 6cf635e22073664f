"""Stage-level timings of the fused read path: tile unpack and fused GEMMs.

Run by explicit path from the root of a checkout (the name does not match
test_*.py, so the tier-1 suite does not collect it):

    OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 python -m pytest bench/bench_unpack.py

Cases, at fixed seeds: one 4096-code unpack_range tile (the default int8
codes) at 2, 4 and 8 bits; fused_matmul on a compressed 2048^2 matrix
(b4, n=2, 8 outlier columns x20, as in the gemv-2048 workload at seed 7)
at p=1 and p=64; and fused_matmul_t at p=1 on a 2048x128 b4 segment, the
attention_scores read of the kv-decode workload.

Shape, bits, p and the min and median wall time of each case are merged
into BENCH_unpack.json at the checkout root (or $BENCH_OUT) under the label
$BENCH_LABEL (default "current"), so runs of two checkouts can share a file.
"""

import json
import os
import platform
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from dquant import compress, quantize  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
TILE_ROUNDS, TILE_ITERATIONS = 50, 100  # a tile takes microseconds
GEMM_ROUNDS = 20
BITS = 4
N = 2
RESULTS = []


def weight_matrix(rows, cols, seed=7, outlier_cols=8, outlier_scale=20.0):
    rng = np.random.default_rng([seed, 0])
    m = rng.standard_normal((rows, cols), dtype=np.float32)
    m[:, rng.choice(cols, size=outlier_cols, replace=False)] *= outlier_scale
    return m


def record(benchmark, case, shape, bits, n=None, p=None):
    if benchmark.disabled:
        return
    stats = benchmark.stats.stats
    RESULTS.append(
        {
            "case": case,
            "shape": list(shape),
            "bits": bits,
            "n": n,
            "p": p,
            "rounds": stats.rounds,
            "min_s": stats.min,
            "median_s": stats.median,
        }
    )


@pytest.fixture(scope="module", autouse=True)
def bench_file():
    yield
    if not RESULTS:
        return
    out = Path(os.environ.get("BENCH_OUT", ROOT / "BENCH_unpack.json"))
    doc = json.loads(out.read_text()) if out.exists() else {}
    doc.setdefault("topic", "unpack")
    doc.setdefault("harness", "bench/bench_unpack.py")
    doc.setdefault("runs", {})[os.environ.get("BENCH_LABEL", "current")] = {
        "machine": f"{platform.machine()}, {os.cpu_count()} cpus",
        "numpy": np.__version__,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "cases": RESULTS,
    }
    out.write_text(json.dumps(doc, indent=2) + "\n")


@pytest.fixture(scope="module")
def w2048():
    return compress.deco_quantize(weight_matrix(2048, 2048), BITS, N)


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
    record(benchmark, "quantize.unpack_range", (count,), bits)


@pytest.mark.parametrize("p", [1, 64])
def test_fused_matmul(benchmark, w2048, p):
    x = np.random.default_rng([7, p]).standard_normal((p, 2048), dtype=np.float32)
    y = benchmark.pedantic(
        compress.fused_matmul, args=(x, w2048), rounds=GEMM_ROUNDS, warmup_rounds=1
    )
    assert y.shape == (p, 2048)
    record(benchmark, "compress.fused_matmul", (2048, 2048), BITS, N, p)


def test_fused_matmul_t_segment(benchmark):
    seg = compress.deco_quantize(weight_matrix(2048, 128), BITS, N)
    q = np.random.default_rng([7, 1]).standard_normal((1, 128), dtype=np.float32)
    s = benchmark.pedantic(
        compress.fused_matmul_t, args=(q, seg), rounds=GEMM_ROUNDS, warmup_rounds=1
    )
    assert s.shape == (1, 2048)
    record(benchmark, "compress.fused_matmul_t", (2048, 128), BITS, N, 1)
