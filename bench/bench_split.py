"""Stage-level timings of the compress path: split, quantize, end to end.

Run by explicit path from the root of a checkout (the name does not match
test_*.py, so the tier-1 suite does not collect it):

    OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 python -m pytest bench/bench_split.py

Cases, at fixed seeds: mpo.decompose at 2048^2 and 4096^2 (n=2, plan_shapes),
quantize_rtn on the 64x512x512 packed core of the 4096^2 chain (b4), and
`dquant quantize` through cli.main on a 4096^2 DQT1 matrix (b4, n=2) with
8 outlier columns x20, as in the compress-4096 workload at seed 7.

Shape, bits, n and the min and median wall time of each case are merged
into BENCH_split.json at the checkout root (or $BENCH_OUT) under the label
$BENCH_LABEL (default "current"), so runs of two checkouts can share a file,
each run one more pass of each case (see benchlib for alternating passes).
"""

import io
from contextlib import redirect_stdout

import benchlib  # first: it pins BLAS to one thread before numpy loads
import pytest

from dquant import cli, compress, formats, mpo, quantize

ROUNDS = 5  # timed rounds per case, after one warm-up round
BITS = 4
N = 2
BENCH = benchlib.BenchFile("split")


@pytest.fixture(scope="module", autouse=True)
def bench_file():
    yield
    BENCH.write()


@pytest.fixture(scope="module")
def m4096():
    return benchlib.weight_matrix(4096, 4096)


def run(benchmark, fn):
    return benchmark.pedantic(fn, rounds=ROUNDS, iterations=1, warmup_rounds=1)


@pytest.mark.parametrize("side", [2048, 4096])
def test_decompose(benchmark, side, m4096):
    m = m4096 if side == 4096 else benchlib.weight_matrix(side, side)
    plan = mpo.plan_shapes(side, side, N)
    chain = run(benchmark, lambda: mpo.decompose(m, plan))
    assert chain.bond_dims == plan.bond_dims()
    BENCH.record(benchmark, "mpo.decompose", m.shape, bits=None, n=N)


def test_quantize_rtn_core(benchmark, m4096):
    core = compress.factorize(m4096, N).local_tensors[1]
    assert core.shape == (64, 512, 512, 1)
    q = run(benchmark, lambda: quantize.quantize_rtn(core, BITS))
    assert q.count == core.size
    BENCH.record(benchmark, "quantize.quantize_rtn", core.shape, bits=BITS, n=N)


def test_cli_quantize(benchmark, m4096, tmp_path):
    src, out = tmp_path / "in.dqt", tmp_path / "out.dqz"
    formats.write_tensor(src, m4096)
    argv = ["quantize", "--input", str(src), "--bits", str(BITS), "--n", str(N),
            "--out", str(out)]

    def quantize_file():
        with redirect_stdout(io.StringIO()):
            return cli.main(argv)

    assert run(benchmark, quantize_file) == 0
    BENCH.record(benchmark, "cli.main quantize", m4096.shape, bits=BITS, n=N)
