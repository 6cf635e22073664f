"""Print one "case sha256" line per output, to check that a change is byte-identical.

Run from the root of a checkout, once per checkout, and diff the outputs:

    PYTHONPATH=src python bench/digests.py > after.txt
    PYTHONPATH=<other checkout>/src python bench/digests.py > before.txt

Cases, at fixed seeds, 185 lines:

* the DQZ1 file of deco_quantize at 512^2, 2048x128, 2400x128, 256x128,
  120x72 (n = 3) and 7x301, at 2, 4 and 8 bits (18 lines);
* for each of those chains, fused_matmul and fused_matmul_t at p = 1, 3 and
  64, the rebuild (mpo.reconstruct), and the int8 codes() of every packed
  core (144 lines);
* fused_matmul at p = 64, the slab order, on the 512^2 b4 chain with int64,
  bool, float16 and float64 (x 1e30) operands, and on two chains of a 512^2
  b4 packed core given scale 1e40 and 1e-42 and a first core scaled by 1e-30
  and 1e30 (6 lines); each output must be finite, with no warning raised;
* the kv-sim trace CSVs of a b4 --audit run, a b4 --audit run with
  --prompt-len 0 and a --bits 16 run (3 lines);
* the analyze-outliers CSV of a 512^2 matrix, and the dquant bench CSV of
  each experiment at --seeds 1 (4 lines);
* every attention_scores and read_values output of a b4 and a full-precision
  KvCache run, and the ledger at its end (6 lines);
* synth_activations at 1x1, 7x301, 100x37 and 129x65, with 0, 3, 0 and 8
  outlier columns (4 lines).

The name does not match test_*.py, so tier-1 collection skips it.
"""

import benchlib  # first: it pins BLAS to one thread before numpy loads
import contextlib
import hashlib
import io
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

from dquant import analysis, cli, compress, formats, kvcache, mpo

SHAPES = (
    (512, 512, 2), (2048, 128, 2), (2400, 128, 2), (256, 128, 2), (120, 72, 3),
    (7, 301, 2),
)
BITS = (2, 4, 8)
PRODUCT_ROWS = (1, 3, 64)
SYNTH_CASES = ((1, 1, 0), (7, 301, 3), (100, 37, 0), (129, 65, 8))


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.asarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def file_digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def chain_cases(tmp):
    for rows, cols, n in SHAPES:
        m = benchlib.weight_matrix(rows, cols, outlier_cols=min(8, cols))
        rng = np.random.default_rng([rows, cols])
        for bits in BITS:
            label = f"{rows}x{cols}.n{n}.b{bits}"
            chain = compress.deco_quantize(m, bits, n)
            path = tmp / "chain.dqz"
            formats.write_mpo(path, chain)
            yield f"dqz1.{label}", file_digest(path)
            yield f"reconstruct.{label}", digest(mpo.reconstruct(chain))
            yield f"codes.{label}", digest(*(t.codes() for t in chain.quantized_locals))
            for p in PRODUCT_ROWS:
                x = rng.standard_normal((p, rows)).astype(np.float32)
                xt = rng.standard_normal((p, cols)).astype(np.float32)
                y, yt = compress.fused_matmul(x, chain), compress.fused_matmul_t(xt, chain)
                yield f"fused_matmul.{label}.p{p}", digest(y)
                yield f"fused_matmul_t.{label}.p{p}", digest(yt)


def slab_cases():
    m = benchlib.weight_matrix(512, 512, outlier_cols=8)
    chain = compress.deco_quantize(m, 4)
    first, packed = chain.local_tensors
    rng = np.random.default_rng(512)
    x = rng.standard_normal((64, 512))
    cases = [
        ("int64", rng.integers(-1000, 1000, (64, 512)), chain),
        ("bool", x > 0, chain),
        ("float16", x.astype(np.float16), chain),
        ("float64e30", x * 1e30, chain),
    ]
    for scale, first_scale in ((1e40, 1e-30), (1e-42, 1e30)):
        odd = compress.QuantizedTensor(packed.shape, 4, scale, packed.payload)
        odd_chain = mpo.MpoChain((first * np.float32(first_scale), odd))
        cases.append((f"scale{scale:g}", x.astype(np.float32), odd_chain))
    for name, operand, q in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            y = compress.fused_matmul(operand, q)
        if not np.isfinite(y).all():
            raise SystemExit(f"fused_matmul.slab.{name}: an output is not finite")
        yield f"fused_matmul.slab.512x512.b4.{name}", digest(y)


def run_cli(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(list(argv))
    if code:
        raise SystemExit(f"dquant {' '.join(argv)} exited {code}")


def cli_cases(tmp):
    csv = str(tmp / "out.csv")
    kv_sim = ("kv-sim", "--layers", "2", "--dim", "32", "--gen-len", "50",
              "--chunk", "16", "--seed", "3", "--csv", csv)
    run_cli(*kv_sim, "--prompt-len", "40", "--bits", "4", "--audit")
    yield "kv-sim.b4.audit", file_digest(csv)
    run_cli(*kv_sim, "--prompt-len", "0", "--bits", "4", "--audit")
    yield "kv-sim.b4.audit.prompt0", file_digest(csv)
    run_cli(*kv_sim, "--prompt-len", "40", "--bits", "16")
    yield "kv-sim.b16", file_digest(csv)
    dqt = tmp / "m.dqt"
    formats.write_tensor(dqt, benchlib.weight_matrix(512, 512))
    run_cli("analyze-outliers", "--input", str(dqt), "--csv", csv)
    yield "analyze-outliers", file_digest(csv)
    for experiment in cli.EXPERIMENTS:
        run_cli("bench", "--experiment", experiment, "--seeds", "1", "--csv", csv)
        yield f"bench.{experiment}", file_digest(csv)


def cache_cases():
    layers, dim, steps = 2, 64, 37
    for bits in (4, None):
        cache = kvcache.KvCache(kvcache.CacheConfig(layers, dim, bits, chunk_len=16))
        rng = np.random.default_rng(11)
        for layer in range(layers):
            cache.prefill(layer, *rng.standard_normal((2, 40, dim)).astype(np.float32))
        scores, values = hashlib.sha256(), hashlib.sha256()
        for _ in range(steps):
            for layer in range(layers):
                k_row, v_row, q_row = rng.standard_normal((3, dim)).astype(np.float32)
                cache.append_token(layer, k_row, v_row)
                scores.update(digest(cache.attention_scores(layer, q_row)).encode())
                values.update(digest(cache.read_values(layer)).encode())
        led = cache.ledger()
        label = f"kvcache.b{bits or 16}"
        yield f"{label}.attention_scores", scores.hexdigest()
        yield f"{label}.read_values", values.hexdigest()
        yield f"{label}.ledger", digest(
            [led.bytes_fp16_equivalent, led.bytes_actual, led.bytes_moved_read]
        )


def synth_cases():
    for rows, cols, outlier_cols in SYNTH_CASES:
        m = analysis.synth_activations(rows, cols, outlier_cols, seed=rows)
        yield f"synth_activations.{rows}x{cols}.o{outlier_cols}", digest(m)


def main():
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        cases = (
            *chain_cases(tmp), *slab_cases(), *cli_cases(tmp), *cache_cases(),
            *synth_cases(),
        )
        for case, sha in cases:
            sys.stdout.write(f"{case} {sha}\n")


if __name__ == "__main__":
    main()
