"""Span recording for the traced benchmark run.

Only the traced run installs the tracer. It replaces each traced dquant
function with a timing wrapper, by identity, in every ``dquant.*`` module
namespace: ``compress``, ``kvcache`` and ``cli`` import these names
directly, so patching the defining module alone would miss their calls.
``KvCache`` methods are patched on the class. The benchmark adds its own
``bench.*`` spans around each timed operation.

Each span keeps (name, parent, start, end, amount) in flat in-memory
arrays; they are written out once, when the run ends. A span's self time
is its duration minus the time covered by its child spans. A function that
no longer exists is skipped, and its metrics are reported as absent.
"""

import functools
import os
import sys
from array import array
from contextlib import contextmanager, nullcontext
from time import perf_counter

import numpy as np


def _result_size(args, result):
    return result.size


def _arg_size(args, result):
    return np.size(args[0])


def _file_bytes(args, result):
    return os.path.getsize(args[0])


def _packed_bytes(args, result):
    """Payload bytes plus float32 bytes of the full-precision cores."""
    q = args[1]
    payload = sum(len(t.payload) for t in q.quantized_locals)
    return payload + 4 * sum(t.size for t in q.fp_locals)


# (module, function, what the span's amount measures, amount metric, unit)
TRACED_FUNCTIONS = (
    ("mpo", "decompose", None, None, None),
    ("mpo", "reconstruct", None, None, None),
    ("quantize", "quantize_rtn", _arg_size, "elements", "elements/req"),
    ("quantize", "pack", _arg_size, "elements", "elements/req"),
    ("quantize", "unpack", _result_size, "elements", "elements/req"),
    ("quantize", "unpack_range", _result_size, "elements", "elements/req"),
    ("quantize", "dequantize", None, None, None),
    ("compress", "deco_quantize", None, None, None),
    ("compress", "deco_dequantize", None, None, None),
    ("compress", "fused_matmul", _packed_bytes, None, None),
    ("compress", "fused_matmul_t", _packed_bytes, None, None),
    ("formats", "read_tensor", _file_bytes, "bytes", "B/req"),
    ("formats", "write_mpo", _file_bytes, "bytes", "B/req"),
    ("formats", "read_mpo", _file_bytes, "bytes", "B/req"),
    ("cli", "main", None, None, None),
)
TRACED_METHODS = ("prefill", "append_token", "attention_scores", "read_values")
BENCH_FUNCTIONS = ("bench.softmax_v",)


def layer_names():
    """Every traced layer name, in report order."""
    names = [f"{m}.{f}" for m, f, *_ in TRACED_FUNCTIONS]
    names += [f"kvcache.KvCache.{m}" for m in TRACED_METHODS]
    return names + list(BENCH_FUNCTIONS)


class NoTracer:
    """Stand-in used by untraced runs: records nothing."""

    def request(self):
        pass

    def span(self, name):
        return nullcontext()

    def paused(self):
        return nullcontext()


class Tracer:
    """In-memory span recorder with identity patching of dquant functions."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.amount = array("d")
        self._stack = []
        self._restore = []
        self.recording = True
        self.requests = 0
        self.installed = set()

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id):
        i = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.amount.append(0.0)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def _close(self, i):
        self.end[i] = perf_counter()
        self._stack.pop()

    def request(self):
        """Mark the start of one request; per-layer stats are per request."""
        self.requests += 1

    @contextmanager
    def span(self, name):
        if not self.recording:
            yield
            return
        i = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(i)

    @contextmanager
    def paused(self):
        """Stop recording, for the benchmark's own output checks."""
        before, self.recording = self.recording, False
        try:
            yield
        finally:
            self.recording = before

    def _wrap(self, fn, name, measure):
        name_id = self._id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            i = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(i)
            if measure is not None:
                try:
                    self.amount[i] = measure(args, result)
                except (AttributeError, TypeError, IndexError, OSError):
                    self.amount[i] = np.nan
            return result

        return traced

    def install(self):
        """Patch every traced function that exists, in every dquant module."""
        modules = [
            m
            for key, m in list(sys.modules.items())
            if m is not None and (key == "dquant" or key.startswith("dquant."))
        ]
        for module, func, measure, *_ in TRACED_FUNCTIONS:
            original = getattr(sys.modules.get(f"dquant.{module}"), func, None)
            if original is None:
                continue
            wrapper = self._wrap(original, f"{module}.{func}", measure)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)
                        self._restore.append((m, attr, original))
            self.installed.add(f"{module}.{func}")
        cls = getattr(sys.modules.get("dquant.kvcache"), "KvCache", None)
        for method in TRACED_METHODS:
            original = getattr(cls, "__dict__", {}).get(method)
            if original is None:
                continue
            name = f"kvcache.KvCache.{method}"
            setattr(cls, method, self._wrap(original, name, None))
            self._restore.append((cls, method, original))
            self.installed.add(name)
        self.installed.update(BENCH_FUNCTIONS)

    def uninstall(self):
        """Restore the originals and freeze the recorded spans into arrays."""
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
        self.table = self._arrays()

    def _arrays(self):
        """Spans as numpy arrays, with self time and root-span index."""
        name = np.frombuffer(self.name, dtype=np.intc).astype(np.int64)
        parent = np.frombuffer(self.parent, dtype=np.intc).astype(np.int64)
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        duration = end - start
        child = parent >= 0
        covered = np.zeros(len(duration))
        np.add.at(covered, parent[child], duration[child])
        root = np.arange(len(duration))
        while True:
            up = parent[root]
            nxt = np.where(up >= 0, up, root)
            if np.array_equal(nxt, root):
                break
            root = nxt
        return {
            "name": name,
            "parent": parent,
            "start": start,
            "end": end,
            "duration": duration,
            "self": duration - covered,
            "root": root,
            "amount": np.frombuffer(self.amount, dtype=np.float64),
        }

    def _mask(self, *names):
        return np.isin(self.table["name"], [self._ids.get(n, -1) for n in names])

    def save(self, path):
        t = self.table
        np.savez_compressed(
            path,
            names=np.array(self.names),
            **{k: t[k] for k in ("name", "parent", "start", "end", "amount")},
        )

    def layer_stats(self):
        """Per-layer calls, self time and amounts, each per request."""
        t = self.table
        per = max(self.requests, 1)
        amount_stats = {f"{m}.{f}": (stat, unit) for m, f, _, stat, unit in TRACED_FUNCTIONS}
        out = {}
        for layer in layer_names():
            if layer not in self.installed:
                continue
            mask = self._mask(layer)
            out[f"{layer}.calls"] = (int(mask.sum()) / per, "calls/req")
            out[f"{layer}.self_ms"] = (float(t["self"][mask].sum()) * 1e3 / per, "ms/req")
            stat, unit = amount_stats.get(layer, (None, None))
            if stat is not None:
                out[f"{layer}.{stat}"] = (float(t["amount"][mask].sum()) / per, unit)
        if "quantize.unpack_range" in self.installed:
            tiles = t["amount"][self._mask("quantize.unpack_range")]
            peak = float(tiles.max()) if tiles.size else 0.0
            out["quantize.unpack_range.peak_elements"] = (peak, "elements")
        fused = [f for f in ("compress.fused_matmul", "compress.fused_matmul_t")
                 if f in self.installed]
        if fused:
            moved = float(t["amount"][self._mask(*fused)].sum())
            out["compress.packed_bytes_read"] = (moved / per, "B/req")
        return out

    def share(self, part, whole, root=None, self_time=False):
        """Time in spans named in `part` over time in spans named `whole`.

        With `root`, only spans under a root span of that name count; with
        `self_time`, `part` contributes its self time, else its duration.
        """
        t = self.table
        keep = np.ones(len(t["name"]), dtype=bool)
        if root is not None:
            keep = t["name"][t["root"]] == self._ids.get(root, -1)
        numerator = t["self" if self_time else "duration"][keep & self._mask(*part)].sum()
        denominator = t["duration"][keep & self._mask(whole)].sum()
        return float(numerator / denominator) if denominator > 0 else 0.0
