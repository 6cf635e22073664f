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
$BENCH_LABEL (default "current"), so runs of two checkouts can share a file.
"""

import io
import json
import os
import platform
from contextlib import redirect_stdout
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from dquant import cli, compress, formats, mpo, quantize  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
ROUNDS = 5  # timed rounds per case, after one warm-up round
BITS = 4
N = 2
RESULTS = []


def weight_matrix(side, seed=7, outlier_cols=8, outlier_scale=20.0):
    rng = np.random.default_rng([seed, 0])
    m = rng.standard_normal((side, side), dtype=np.float32)
    m[:, rng.choice(side, size=outlier_cols, replace=False)] *= outlier_scale
    return m


def record(benchmark, case, shape, bits=None):
    if benchmark.disabled:
        return
    stats = benchmark.stats.stats
    RESULTS.append(
        {
            "case": case,
            "shape": list(shape),
            "bits": bits,
            "n": N,
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
    out = Path(os.environ.get("BENCH_OUT", ROOT / "BENCH_split.json"))
    doc = json.loads(out.read_text()) if out.exists() else {}
    doc.setdefault("topic", "split")
    doc.setdefault("harness", "bench/bench_split.py")
    doc.setdefault("runs", {})[os.environ.get("BENCH_LABEL", "current")] = {
        "machine": f"{platform.machine()}, {os.cpu_count()} cpus",
        "numpy": np.__version__,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "cases": RESULTS,
    }
    out.write_text(json.dumps(doc, indent=2) + "\n")


@pytest.fixture(scope="module")
def m4096():
    return weight_matrix(4096)


def run(benchmark, fn):
    return benchmark.pedantic(fn, rounds=ROUNDS, iterations=1, warmup_rounds=1)


@pytest.mark.parametrize("side", [2048, 4096])
def test_decompose(benchmark, side, m4096):
    m = m4096 if side == 4096 else weight_matrix(side)
    plan = mpo.plan_shapes(side, side, N)
    chain = run(benchmark, lambda: mpo.decompose(m, plan))
    assert chain.bond_dims == plan.bond_dims()
    record(benchmark, "mpo.decompose", m.shape)


def test_quantize_rtn_core(benchmark, m4096):
    core = compress.factorize(m4096, N).local_tensors[1]
    assert core.shape == (64, 512, 512, 1)
    q = run(benchmark, lambda: quantize.quantize_rtn(core, BITS))
    assert q.count == core.size
    record(benchmark, "quantize.quantize_rtn", core.shape, BITS)


def test_cli_quantize(benchmark, m4096, tmp_path):
    src, out = tmp_path / "in.dqt", tmp_path / "out.dqz"
    formats.write_tensor(src, m4096)
    argv = ["quantize", "--input", str(src), "--bits", str(BITS), "--n", str(N),
            "--out", str(out)]

    def quantize_file():
        with redirect_stdout(io.StringIO()):
            return cli.main(argv)

    assert run(benchmark, quantize_file) == 0
    record(benchmark, "cli.main quantize", m4096.shape, BITS)
