"""Benchmark of dquant's compression, fused reads and compressed KV cache.

    python3 dqbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; dquant is imported from its ``src``.
Workloads, each named for the phase it runs at full size (see phases.py):

* ``compress-4096``: ``dquant quantize`` on a 4096x4096 matrix;
* ``gemv-2048``: ``fused_matmul`` on a compressed 2048x2048 matrix at p=1
  and p=64;
* ``kv-decode``: a 2-layer, dim-128 ``KvCache`` with 256-row chunks,
  prefilled with 2048 tokens and decoded for 256 steps per request.

With ``--trace 0`` the run sets up three times (``setup_s`` is the
median), then interleaves requests so that the named phase gets 80% of the
time and each other phase 10%, as a guard pass at small shapes, so every
end-to-end metric is measured on every workload. Latencies are reported
at p75 and at a fixed-percentile ``.tail``; phases.py says why.

With ``--trace 1`` only the named phase runs, a quarter of the time
untraced and the rest traced (spans.py); the run reports per-layer metrics
per request and the tracing overhead, and saves the spans under
``dqbench/out/``. The last line of stdout is the JSON result.
"""

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path
from statistics import median
from time import perf_counter

# One BLAS thread: the benchmark is one client on a shared 2-core machine,
# where a second BLAS thread mostly measures the other tenants' load. Set
# before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import spans  # noqa: E402

WORKLOADS = {"compress-4096": "compress", "gemv-2048": "gemv", "kv-decode": "kv"}
MAIN_SHARE = 0.8  # of --seconds, for the phase a workload is named for
SETUP_REPEATS = 3
UNTRACED_SHARE = 0.25  # of --seconds in a traced run, the overhead baseline

END_TO_END_UNITS = {
    "setup_s": "s",
    "ok_rate": "ratio",
    "compress_s.p75": "s",
    "weight_rel_error": "ratio",
    "weight_ratio": "ratio",
    "gemv_ms.p75": "ms",
    "gemv_ms.tail": "ms",
    "gemm64_ms.p75": "ms",
    "ttft_ms.p75": "ms",
    "itl_ms.p75": "ms",
    "itl_ms.tail": "ms",
    "decode_tok_s": "tok/s",
    "kv_bytes_read_per_tok": "B",
    "kv_mem_ratio": "ratio",
    "attn_rel_error": "ratio",
}


def _import_program():
    """Put the checkout's ``src`` first on the path; False if dquant is absent."""
    src = ROOT / "src"
    if not (src / "dquant" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(src))
    return True


def end_to_end(workload, seed, seconds, workdir, full=None, guard=None):
    """Untraced run: every end-to-end metric, as {name: value}."""
    import phases

    full, guard = full or phases.FULL, guard or phases.GUARD
    main = WORKLOADS[workload]
    setup_s = []
    for _ in range(SETUP_REPEATS):
        states = None  # release the previous set-up before making the next
        t0 = perf_counter()
        states = {
            name: cls(full if name == main else guard, seed, workdir)
            for name, cls in phases.PHASES.items()
        }
        setup_s.append(perf_counter() - t0)
    guard_share = (1 - MAIN_SHARE) / (len(states) - 1)
    shares = {
        state: MAIN_SHARE if name == main else guard_share for name, state in states.items()
    }
    results = phases.drive(shares, seconds, spans.NoTracer())
    metrics = {"setup_s": median(setup_s)}
    for r in results:
        metrics.update(r.metrics)
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    metrics["ok_rate"] = 1 - failed / attempted
    notes = [n for r in results for n in r.notes]
    notes.append(f"setup: seconds per set-up, the first one cold: {setup_s}")
    return metrics, attempted, failed, notes


def traced(workload, seed, seconds, workdir, span_path, full=None):
    """Traced run of the named phase: every per-layer metric, as {name: (value, unit)}."""
    import phases

    phase = phases.PHASES[WORKLOADS[workload]](full or phases.FULL, seed, workdir)
    (base,) = phases.drive(
        {phase: 1.0}, seconds * UNTRACED_SHARE, spans.NoTracer(), full_tails=False
    )
    tracer = spans.Tracer()
    tracer.install()
    try:
        (res,) = phases.drive(
            {phase: 1.0}, seconds * (1 - UNTRACED_SHARE), tracer, full_tails=False
        )
    finally:
        tracer.uninstall()
    tracer.save(span_path)

    layer = tracer.layer_stats()
    layer.update(res.layer)
    for name, unit in (("kvcache.bytes_moved_read", "B/req"), ("kvcache.segments", "count")):
        layer.setdefault(name, (0.0, unit))
    layer["split.decompose_share"] = (tracer.share(["mpo.decompose"], "bench.compress"), "ratio")
    for tag in ("gemv", "gemm64"):
        layer[f"split.unpack_share.{tag}"] = (
            tracer.share(["quantize.unpack_range"], "compress.fused_matmul",
                         root=f"bench.{tag}", self_time=True),
            "ratio",
        )
    layer["split.kv_read_share"] = (
        tracer.share(["kvcache.KvCache.attention_scores", "kvcache.KvCache.read_values"],
                     "bench.step"),
        "ratio",
    )
    overhead = phases.typical(res.request_s, 1e3) - phases.typical(base.request_s, 1e3)
    layer["trace.overhead"] = (overhead, "ms/req")

    failed = res.failed + base.failed
    peak = layer.get("quantize.unpack_range.peak_elements", (0.0, ""))[0]
    tile_ok = peak <= phases.compress.TILE_ELEMENTS
    notes = [n for r in (base, res) for n in r.notes]
    notes.append(
        f"trace: {tracer.requests} traced requests, {len(tracer.start)} spans; "
        f"peak unpack_range {peak:.0f} elements (tile {phases.compress.TILE_ELEMENTS})"
    )
    notes += [f"split: {k} = {v:.3f}" for k, (v, _) in layer.items() if k.startswith("split.")]
    return layer, base.attempted + res.attempted, failed, tile_ok, notes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not _import_program():
        print(f"error: no dquant package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        workdir = Path(tmp)
        if args.trace:
            span_path = OUT / f"spans-{args.workload}.npz"
            layer, attempted, failed, tile_ok, notes = traced(
                args.workload, args.seed, args.seconds, workdir, span_path
            )
            metrics = {k: {"value": float(v), "unit": u} for k, (v, u) in layer.items()}
            correct = failed == 0 and tile_ok
        else:
            values, attempted, failed, notes = end_to_end(
                args.workload, args.seed, args.seconds, workdir
            )
            metrics = {
                k: {"value": float(v), "unit": END_TO_END_UNITS[k]} for k, v in values.items()
            }
            correct = failed == 0
    for note in notes:
        print(note)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
