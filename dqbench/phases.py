"""Seeded inputs, timed loops and output checks for the benchmark's phases.

There are three phases, one per user-facing operation of dquant:

* ``compress``: ``dquant quantize`` run in-process through ``cli.main``
  on a DQT1 file (``read_tensor`` -> ``deco_quantize`` -> ``write_mpo``);
* ``gemv``: ``fused_matmul(x, W)`` on a weight compressed in set-up, in
  cycles of ``gemv_per_cycle`` calls at p=1 and one call at p=64;
* ``kv``: a ``KvCache`` request: prefill a prompt, then decode steps that
  each call ``append_token``, ``attention_scores`` and ``read_values`` on
  every layer and compute softmax(scores)·V in the benchmark.

All inputs come from numpy generators seeded with the run's seed and are
made in set-up, which also warms each phase up with one untimed call. One
client runs a closed loop: the next operation starts when the previous one
has returned and its output has been checked. Only calls into dquant (and
the benchmark's own softmax·V) are inside the timed regions; the checks
are not.
"""

import hashlib
import io
import json
import sys
import traceback
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from math import ceil
from statistics import median
from time import perf_counter

import numpy as np

from dquant import cli, compress, formats, kvcache
from dquant.errors import DquantError
from spans import NoTracer

BITS = 4
N_CORES = 2

# weight matrices: iid Gaussian with a few channel-outlier columns
WEIGHT_OUTLIER_COLS = 8
WEIGHT_OUTLIER_SCALE = 20.0
# keys: random projections of Gaussian hidden states, a few outlier channels
KEY_OUTLIER_CHANNELS = 4
KEY_OUTLIER_SCALE = 8.0

# compress.py's contract for fused_matmul against x @ deco_dequantize(W)
FUSED_REL_TOL = 1e-4
# An attention output is a convex combination of value rows, so even with
# wrong weights it differs from the fp reference by at most about twice the
# largest value row. The check fails a step whose error exceeds the largest
# fp value row's norm: values that are wrong, not merely coarse. At 4 bits
# the seed stays below 0.6 of it, while the relative error has a heavy tail
# (median about 0.4, maxima near 3 when the reference output is short).
ATTN_ERR_BOUND = 1.0

# On a shared 2-core machine per-call times are bimodal: other tenants' load
# slows a share of calls by about 40%, and that share changes from run to
# run. Over ten runs of each workload, the spread between runs (interquartile
# range over median) of the run median reached 0.29 and of the run minimum
# 0.21, or 0.43 when a slow spell covered several runs; of the 75th
# percentile it stayed at or below 0.14. So latency is reported at p75 (the
# time three in four calls meet) and throughput at the request rate three in
# four requests reach. A tail is reported at a fixed percentile, and the
# loop runs until at least ten samples lie beyond it, so parent and change
# report the same statistic.
TYPICAL_PCT = 75
GEMV_TAIL_PCT = 95
ITL_TAIL_PCT = 95

VECTOR_POOL = 64  # distinct p=1 operands, used in turn
BATCH_POOL = 4  # distinct p=64 operands
REQUEST_POOL = 4  # distinct kv requests, used in turn
WARM_SIDE = 256  # side of the matrix the compress warm-up quantizes
WARM_STEPS = 8  # decode steps in the kv warm-up request


@dataclass(frozen=True)
class Shapes:
    compress_side: int
    gemv_side: int
    gemv_batch: int
    gemv_per_cycle: int
    kv_layers: int
    kv_dim: int
    kv_chunk: int
    kv_prompt: int
    kv_steps: int


# the phase a workload is named for
FULL = Shapes(
    compress_side=4096,
    gemv_side=2048,
    gemv_batch=64,
    gemv_per_cycle=8,
    kv_layers=2,
    kv_dim=128,
    kv_chunk=256,
    kv_prompt=2048,
    kv_steps=256,
)
# the other two phases of a workload, run as short guard passes
GUARD = Shapes(
    compress_side=512,
    gemv_side=512,
    gemv_batch=64,
    gemv_per_cycle=8,
    kv_layers=1,
    kv_dim=64,
    kv_chunk=256,
    kv_prompt=512,
    kv_steps=256,
)


@dataclass
class PhaseResult:
    attempted: int = 0
    failed: int = 0
    request_s: list = field(default_factory=list)  # timed work per request
    metrics: dict = field(default_factory=dict)  # end-to-end metric -> value
    layer: dict = field(default_factory=dict)  # per-layer metric -> (value, unit)
    notes: list = field(default_factory=list)  # sample counts, for the log


def min_samples(pct):
    """Smallest sample count that leaves ten samples beyond `pct`."""
    return ceil(10 / (1 - pct / 100) - 1e-9)


def distribution(samples, scale):
    """Sample count and percentiles, for the log."""
    q = np.percentile(samples, [0, 10, 25, 50, 75, 90, 95, 99]) * scale
    return f"n={len(samples)} min/p10/p25/p50/p75/p90/p95/p99 " + "/".join(
        f"{v:.4g}" for v in q
    )


def typical(samples, scale=1.0):
    return float(np.percentile(samples, TYPICAL_PCT)) * scale


def rel_error(got, ref):
    denom = float(np.linalg.norm(ref))
    return float(np.linalg.norm(np.asarray(got, dtype=np.float64) - ref)) / denom


def weight_matrix(rng, side):
    m = rng.standard_normal((side, side), dtype=np.float32)
    cols = rng.choice(side, size=min(WEIGHT_OUTLIER_COLS, side), replace=False)
    m[:, cols] *= WEIGHT_OUTLIER_SCALE
    return m


def _report_failure(what):
    print(f"failed: {what}", file=sys.stderr)
    traceback.print_exc()


def payload_digest(q):
    """Digest of every core: packed payloads with their scales, fp cores."""
    h = hashlib.sha256()
    for t in q.local_tensors:
        if isinstance(t, np.ndarray):
            h.update(repr(t.shape).encode())
            h.update(np.ascontiguousarray(t, dtype=np.float32).tobytes())
        else:
            h.update(repr((t.shape, t.bits, t.scale)).encode())
            h.update(t.payload)
    return h.hexdigest()


class CompressPhase:
    """``dquant quantize`` on one DQT1 matrix, in-process."""

    def __init__(self, shapes, seed, workdir):
        rng = np.random.default_rng([seed, 0])
        self.matrix = weight_matrix(rng, shapes.compress_side)
        self.source = workdir / "compress-in.dqt"
        self.out = workdir / "compress-out.dqz"
        formats.write_tensor(self.source, self.matrix)
        warm_in = workdir / "warm-in.dqt"
        formats.write_tensor(
            warm_in, weight_matrix(rng, min(WARM_SIDE, shapes.compress_side))
        )
        self._quantize(warm_in, workdir / "warm-out.dqz")
        self.reference = None  # digest of an in-memory deco_quantize, made once

    def start(self):
        self.res = PhaseResult()
        self.times, self.digests, self.ratios = [], [], []

    @staticmethod
    def _quantize(source, out):
        text = io.StringIO()
        with redirect_stdout(text):
            code = cli.main(
                ["quantize", "--input", str(source), "--bits", str(BITS),
                 "--n", str(N_CORES), "--out", str(out)]
            )
        return code, text.getvalue()

    def request(self, tracer):
        tracer.request()
        with tracer.span("bench.compress"):
            t0 = perf_counter()
            code, text = self._quantize(self.source, self.out)
            dt = perf_counter() - t0
        self.times.append(dt)
        self.res.attempted += 1
        self.res.request_s.append(dt)
        with tracer.paused():
            digest = None
            if code == 0:
                self.ratios.append(json.loads(text.splitlines()[-1])["ratio"])
                try:
                    digest = payload_digest(formats.read_mpo(self.out))
                except DquantError:
                    _report_failure("reading back the DQZ1 output")
            self.digests.append(digest)

    def done(self, full_tails):
        return bool(self.times)

    def result(self, tracer):
        res = self.res
        with tracer.paused():
            if self.reference is None:
                self.reference = payload_digest(
                    compress.deco_quantize(self.matrix, BITS, N_CORES)
                )
            res.failed += sum(d != self.reference for d in self.digests)
            if self.ratios:
                restored = compress.deco_dequantize(formats.read_mpo(self.out))
                res.metrics["weight_rel_error"] = rel_error(restored, self.matrix)
                res.metrics["weight_ratio"] = float(self.ratios[-1])
        res.metrics["compress_s.p75"] = typical(self.times)
        res.notes.append(
            f"compress s: {distribution(self.times, 1)}; {res.failed} failed"
        )
        return res


class GemvPhase:
    """``fused_matmul`` at p=1 (decode GEMV) and p=64 (batched GEMM)."""

    def __init__(self, shapes, seed, workdir):
        rng = np.random.default_rng([seed, 1])
        side = shapes.gemv_side
        self.weight = compress.deco_quantize(weight_matrix(rng, side), BITS, N_CORES)
        self.reference = compress.deco_dequantize(self.weight).astype(np.float64)
        self.vectors = rng.standard_normal((VECTOR_POOL, 1, side), dtype=np.float32)
        self.batches = rng.standard_normal(
            (BATCH_POOL, shapes.gemv_batch, side), dtype=np.float32
        )
        self.per_cycle = shapes.gemv_per_cycle
        compress.fused_matmul(self.vectors[0], self.weight)
        compress.fused_matmul(self.batches[0], self.weight)

    def start(self):
        self.res = PhaseResult()
        self.gemv, self.gemm = [], []

    def _call(self, x, span, tracer):
        with tracer.span(span):
            t0 = perf_counter()
            try:
                y = compress.fused_matmul(x, self.weight)
            except DquantError:
                _report_failure("fused_matmul")
                y = None
            dt = perf_counter() - t0
        self.res.attempted += 1
        if y is None or not (
            np.all(np.isfinite(y))
            and rel_error(y, x.astype(np.float64) @ self.reference) <= FUSED_REL_TOL
        ):
            self.res.failed += 1
        return dt

    def request(self, tracer):
        """One cycle: `per_cycle` calls at p=1, then one batched call."""
        tracer.request()
        cycle = 0.0
        for _ in range(self.per_cycle):
            x = self.vectors[len(self.gemv) % VECTOR_POOL]
            self.gemv.append(self._call(x, "bench.gemv", tracer))
            cycle += self.gemv[-1]
        x = self.batches[len(self.gemm) % BATCH_POOL]
        self.gemm.append(self._call(x, "bench.gemm64", tracer))
        self.res.request_s.append(cycle + self.gemm[-1])

    def done(self, full_tails):
        need = min_samples(GEMV_TAIL_PCT) if full_tails else 1
        return len(self.gemv) >= need

    def result(self, tracer):
        res, gemv, gemm = self.res, self.gemv, self.gemm
        res.metrics["gemv_ms.p75"] = typical(gemv, 1e3)
        res.metrics["gemv_ms.tail"] = float(np.percentile(gemv, GEMV_TAIL_PCT)) * 1e3
        res.metrics["gemm64_ms.p75"] = typical(gemm, 1e3)
        res.notes.append(
            f"gemv ms: {distribution(gemv, 1e3)} (tail = p{GEMV_TAIL_PCT}); "
            f"gemm{self.batches.shape[1]} ms: {distribution(gemm, 1e3)}; {res.failed} failed"
        )
        return res


def softmax_v(scores, values):
    """softmax(scores)·V for one query row, in float64."""
    s = np.asarray(scores, dtype=np.float64).reshape(-1)
    w = np.exp(s - s.max())
    return (w / w.sum()) @ np.asarray(values, dtype=np.float64)


class KvPhase:
    """Chunked ``KvCache`` requests: prefill, then decode steps."""

    def __init__(self, shapes, seed, workdir):
        rng = np.random.default_rng([seed, 2])
        self.shapes = shapes
        self.config = kvcache.CacheConfig(
            layers=shapes.kv_layers,
            dim=shapes.kv_dim,
            bits=BITS,
            chunk_len=shapes.kv_chunk,
            n=N_CORES,
        )
        self.inputs = [self._make_request(rng) for _ in range(REQUEST_POOL)]
        self._decode(self.inputs[0], min(WARM_STEPS, shapes.kv_steps), NoTracer())

    def start(self):
        self.res = PhaseResult()
        self.ttft, self.itl, self.errors, self.tok_s = [], [], [], []
        self.bytes_read, self.mem_ratio, self.segments = [], [], []

    def _make_request(self, rng):
        """Per layer: keys, values and queries for prompt and decode tokens."""
        s = self.shapes
        tokens, d = s.kv_prompt + s.kv_steps, s.kv_dim
        layers = []
        for _ in range(s.kv_layers):
            hidden = rng.standard_normal((tokens, d))
            w_k, w_v, w_q = rng.standard_normal((3, d, d)) / np.sqrt(d)
            keys = hidden @ w_k
            outliers = rng.choice(d, size=min(KEY_OUTLIER_CHANNELS, d), replace=False)
            keys[:, outliers] *= KEY_OUTLIER_SCALE
            layers.append(
                tuple(a.astype(np.float32) for a in (keys, hidden @ w_v, hidden @ w_q))
            )
        return layers

    def _decode(self, layers, steps, tracer, check=None):
        """Prefill and decode one request; `check(layers, t, outputs)` after each step."""
        prompt = self.shapes.kv_prompt
        cache = kvcache.KvCache(self.config)
        with tracer.span("bench.prefill"):
            t0 = perf_counter()
            for layer, (keys, values, _) in enumerate(layers):
                cache.prefill(layer, keys[:prompt], values[:prompt])
            prefill = perf_counter() - t0
        step_times = []
        for step in range(steps):
            t = prompt + step
            outs = []
            with tracer.span("bench.step"):
                t0 = perf_counter()
                try:
                    for layer, (keys, values, queries) in enumerate(layers):
                        cache.append_token(layer, keys[t], values[t])
                        scores = cache.attention_scores(layer, queries[t])
                        rows = cache.read_values(layer)
                        with tracer.span("bench.softmax_v"):
                            outs.append(softmax_v(scores, rows))
                except DquantError:
                    _report_failure(f"decode step {step}")
                step_times.append(perf_counter() - t0)
            if check is not None:
                check(layers, t, outs)
        return cache, prefill, step_times

    def _check(self, layers, t, outs):
        """Count the step failed unless every layer's output is close enough."""
        self.res.attempted += 1
        ok = len(outs) == len(layers)
        for (keys, values, queries), out in zip(layers, outs):
            k = keys[: t + 1].astype(np.float64)
            v = values[: t + 1].astype(np.float64)
            ref = softmax_v(k @ queries[t].astype(np.float64) / np.sqrt(self.shapes.kv_dim), v)
            finite = bool(np.all(np.isfinite(out)))
            self.errors.append(rel_error(out, ref) if finite else np.inf)
            largest_row = float(np.sqrt(np.max(np.sum(v * v, axis=1))))
            ok = ok and finite and (
                float(np.linalg.norm(out - ref)) <= ATTN_ERR_BOUND * largest_row
            )
        self.res.failed += not ok

    def request(self, tracer):
        tracer.request()
        layers = self.inputs[len(self.ttft) % REQUEST_POOL]
        cache, prefill, step_times = self._decode(
            layers, self.shapes.kv_steps, tracer, self._check
        )
        self.ttft.append(prefill + step_times[0])
        self.itl.extend(step_times[1:])
        self.tok_s.append(len(step_times) / sum(step_times))
        self.res.request_s.append(prefill + sum(step_times))
        ledger = cache.ledger()
        self.bytes_read.append(ledger.bytes_moved_read)
        self.mem_ratio.append(ledger.ratio)
        self.segments.append(sum(len(lc.key_segments) for lc in cache.layers))

    def done(self, full_tails):
        need = min_samples(ITL_TAIL_PCT) if full_tails else 1
        return bool(self.ttft) and len(self.itl) >= need

    def result(self, tracer):
        res, ttft, itl = self.res, self.ttft, self.itl
        res.metrics["ttft_ms.p75"] = typical(ttft, 1e3)
        res.metrics["itl_ms.p75"] = typical(itl, 1e3)
        res.metrics["itl_ms.tail"] = float(np.percentile(itl, ITL_TAIL_PCT)) * 1e3
        res.metrics["decode_tok_s"] = float(np.percentile(self.tok_s, 100 - TYPICAL_PCT))
        res.metrics["kv_bytes_read_per_tok"] = median(self.bytes_read) / self.shapes.kv_steps
        res.metrics["kv_mem_ratio"] = median(self.mem_ratio)
        res.metrics["attn_rel_error"] = median(self.errors)
        res.layer["kvcache.bytes_moved_read"] = (median(self.bytes_read), "B/req")
        res.layer["kvcache.segments"] = (median(self.segments), "count")
        res.notes.append(
            f"ttft ms: {distribution(ttft, 1e3)}; itl ms: {distribution(itl, 1e3)} "
            f"(tail = p{ITL_TAIL_PCT}); tok/s: {distribution(self.tok_s, 1)}; "
            f"{res.failed} failed steps"
        )
        return res


PHASES = {"compress": CompressPhase, "gemv": GemvPhase, "kv": KvPhase}


def drive(shares, seconds, tracer, full_tails=True):
    """Run requests of the given phases, interleaved, for `seconds`.

    `shares` maps each phase to its share of the time. The next request
    goes to the phase furthest below its share, so every phase samples the
    whole run rather than one window of it. After the deadline, phases
    still short of their minimum sample count keep running alone.
    """
    for phase in shares:
        phase.start()
    used = dict.fromkeys(shares, 0.0)
    deadline = perf_counter() + seconds
    while True:
        candidates = list(shares)
        if perf_counter() >= deadline:
            candidates = [p for p in shares if not p.done(full_tails)]
            if not candidates:
                break
        phase = min(candidates, key=lambda p: used[p] / shares[p])
        t0 = perf_counter()
        phase.request(tracer)
        used[phase] += perf_counter() - t0
    return [phase.result(tracer) for phase in shares]
