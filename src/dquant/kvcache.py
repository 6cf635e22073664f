"""Per-layer key/value cache with chunk-triggered compression.

Lifecycle: prefill stores each of K and V as one compressed segment;
decode appends full-precision rows to a tail buffer, and the moment the
tail reaches `chunk_len` rows it is compressed into a new immutable
segment and the tail resets. prefill takes keys of any row count T and
values of the keys' T; append_token takes one K and one V row, and
attention_scores one query row. All of them pass the one row rule (_rows),
and in both modes every row is checked before anything is written or
charged, so a refused call leaves the cache and its ledger as they were.

Every read is one walk (_read) over a side's segments and then its live
tail, charging the side's stored bytes (_stored_side) once; the ledger
counts by the same rule. attention_scores streams quantized segments
through the fused multiply, so it makes no full-precision copy of a
segment; read_keys and read_values rebuild each segment in full with
deco_dequantize.

In full-precision mode (bits=None) each segment is a float32 copy of its
rows, never a view of the tail buffer or of the caller's prefill arrays,
so every read is bit-exact.

All byte accounting is against a 16-bit baseline: full-precision values
(stored as float32 in memory) are counted at 2 bytes, packed payloads at
their true size, one 2-byte scale per quantized core.
"""

import csv
from dataclasses import dataclass, replace
from statistics import median

import numpy as np

from .compress import (
    compression_report,
    deco_dequantize,
    deco_quantize,
    fused_matmul_t,
)
from .errors import (
    AlreadyPrefilled,
    DimMismatch,
    InvariantViolated,
    LayerOutOfRange,
    NonFiniteInput,
    ShapeMismatch,
)
from .mpo import MpoChain
from .quantize import _check_bits, _check_dtype, _check_size

TRACE_COLUMNS = (
    "step",
    "tokens",
    "segments",
    "bytes_actual",
    "bytes_fp16_equivalent",
    "bytes_moved_read",
    "score_deviation",
)


@dataclass(frozen=True)
class CacheConfig:
    """Cache shape and settings, stored as Python ints.

    layers, dim and chunk_len (>= 1) and n (>= 2) pass quantize._check_size,
    and bits, unless None (full-precision mode), quantize._check_bits.
    """

    layers: int
    dim: int
    bits: int = None  # None = full-precision mode
    chunk_len: int = 1024
    n: int = 2

    def __post_init__(self):
        for name, least in (("layers", 1), ("dim", 1), ("chunk_len", 1), ("n", 2)):
            object.__setattr__(self, name, _check_size(getattr(self, name), name, least))
        if self.bits is not None:
            object.__setattr__(self, "bits", _check_bits(self.bits))


@dataclass(frozen=True)
class MemoryLedger:
    bytes_fp16_equivalent: int
    bytes_actual: int
    bytes_moved_read: int

    @property
    def ratio(self) -> float:
        if self.bytes_fp16_equivalent == 0:
            return 1.0
        return self.bytes_actual / self.bytes_fp16_equivalent


def _rows(x, dim, count=None) -> np.ndarray:
    """The one row rule: x as float32 (T, dim) rows, T = count if given.

    A single row may be (dim,) or (1, dim); any other shape is DimMismatch (a
    non-numeric kind UnsupportedDtype first), then NonFiniteInput unless every
    entry is finite in float32, float64 entries beyond its range included.
    """
    with np.errstate(over="ignore"):
        given = np.asarray(_check_dtype(x, "rows"), dtype=np.float32)
    rows = given[None] if given.ndim == 1 else given
    if rows.ndim != 2 or rows.shape[1] != dim or count is not None and len(rows) != count:
        want = f"{'T' if count is None else count} x {dim}"
        raise DimMismatch(f"rows must be {want}, got shape {given.shape}")
    if not np.isfinite(rows).all():
        raise NonFiniteInput("rows must be finite in float32")
    return rows


def _stored_side(lc, segment_bytes) -> int:
    """Stored bytes of a side: its sealed segments' bytes plus 2 B per tail value."""
    return sum(segment_bytes) + 2 * lc.tail_len * lc.config.dim


class LayerCache:
    """Single-writer store for one layer's keys and values."""

    def __init__(self, config: CacheConfig):
        self.config = config
        self.key_segments = []  # packed MpoChain (or ndarray in fp mode)
        self.value_segments = []
        self.key_segment_bytes = []  # stored bytes of each segment, counted once
        self.value_segment_bytes = []
        self._sealed = 0  # token rows held in the segments
        d = config.dim
        self.key_tail = np.zeros((config.chunk_len, d), dtype=np.float32)
        self.value_tail = np.zeros((config.chunk_len, d), dtype=np.float32)
        self.tail_len = 0

    @property
    def tokens(self) -> int:
        return self._sealed + self.tail_len

    def _seal(self, keys: np.ndarray, values: np.ndarray):
        """Seal K and V into a segment each, counting its bytes; a failure adds neither."""
        sealed = []
        for block in (keys, values):
            if self.config.bits is None:
                seg = np.array(block, dtype=np.float32, order="C")
                sealed.append((seg, 2 * seg.size))
            else:
                seg = deco_quantize(block, self.config.bits, self.config.n)
                sealed.append((seg, compression_report(seg).bytes_compressed))
        (k, k_bytes), (v, v_bytes) = sealed
        self.key_segments.append(k)
        self.value_segments.append(v)
        self.key_segment_bytes.append(k_bytes)
        self.value_segment_bytes.append(v_bytes)
        self._sealed += keys.shape[0]

    def prefill(self, keys: np.ndarray, values: np.ndarray):
        if self.tokens:
            raise AlreadyPrefilled("layer already holds tokens")
        keys = _rows(keys, self.config.dim)
        values = _rows(values, self.config.dim, len(keys))
        if len(keys):
            self._seal(keys, values)

    def append(self, k_row: np.ndarray, v_row: np.ndarray):
        k_row, v_row = (_rows(r, self.config.dim, 1) for r in (k_row, v_row))
        self.key_tail[self.tail_len] = k_row[0]
        self.value_tail[self.tail_len] = v_row[0]
        self.tail_len += 1
        if self.tail_len == self.config.chunk_len:
            self._seal(self.key_tail, self.value_tail)
            self.tail_len = 0

    def key_parts(self) -> list:
        """The key segments, then the live tail as one more dense part."""
        return self.key_segments + [self.key_tail[: self.tail_len]]

    def value_parts(self) -> list:
        """The value segments, then the live tail as one more dense part."""
        return self.value_segments + [self.value_tail[: self.tail_len]]


class KvCache:
    """All layers plus read-traffic accounting."""

    def __init__(self, config: CacheConfig):
        self.config = config
        self.layers = [LayerCache(config) for _ in range(config.layers)]
        self.bytes_moved_read = 0

    def _layer(self, layer: int) -> LayerCache:
        """The layer's cache; LayerOutOfRange unless an integer (the size rule's) in range."""
        try:
            return self.layers[_check_size(layer, "layer", 0)]
        except (ShapeMismatch, IndexError):
            want = f"an integer in 0..{self.config.layers - 1}"
            raise LayerOutOfRange(f"layer must be {want}, got {layer!r}") from None

    def prefill(self, layer: int, keys, values):
        self._layer(layer).prefill(keys, values)

    def append_token(self, layer: int, k_row, v_row):
        self._layer(layer).append(k_row, v_row)

    def _read(self, lc, parts, segment_bytes, packed, dense, axis=0) -> np.ndarray:
        """The one read walk: charge the side's stored bytes once, then join its
        parts along `axis`, each MpoChain read by `packed` and any other by `dense`."""
        self.bytes_moved_read += _stored_side(lc, segment_bytes)
        return np.concatenate(
            [packed(p) if isinstance(p, MpoChain) else dense(p) for p in parts], axis=axis
        )

    def read_keys(self, layer: int) -> np.ndarray:
        lc = self._layer(layer)
        return self._read(
            lc, lc.key_parts(), lc.key_segment_bytes, deco_dequantize, np.asarray
        )

    def read_values(self, layer: int) -> np.ndarray:
        lc = self._layer(layer)
        return self._read(
            lc, lc.value_parts(), lc.value_segment_bytes, deco_dequantize, np.asarray
        )

    def attention_scores(self, layer: int, q_row: np.ndarray) -> np.ndarray:
        """q @ K^T / sqrt(D), streaming quantized segments (1 x T)."""
        lc = self._layer(layer)
        q_row = _rows(q_row, self.config.dim, 1)
        q64 = q_row.astype(np.float64)
        scores = self._read(
            lc,
            lc.key_parts(),
            lc.key_segment_bytes,
            lambda p: fused_matmul_t(q_row, p),
            lambda p: (q64 @ p.astype(np.float64).T).astype(np.float32),
            axis=1,
        )
        return scores / np.float32(np.sqrt(self.config.dim))

    def ledger(self) -> MemoryLedger:
        fp16 = actual = 0
        for lc in self.layers:
            fp16 += 4 * lc.tokens * self.config.dim  # K and V at 2 B/value
            actual += _stored_side(lc, lc.key_segment_bytes)
            actual += _stored_side(lc, lc.value_segment_bytes)
        return MemoryLedger(fp16, actual, self.bytes_moved_read)


def _check_invariants(cache: KvCache, expected_tokens: int):
    """Raise InvariantViolated (also under python -O) if the cache lost count."""
    for lc in cache.layers:
        if lc.tokens != expected_tokens:
            raise InvariantViolated(
                f"token conservation violated: {lc.tokens} != {expected_tokens}"
            )
        if not 0 <= lc.tail_len < cache.config.chunk_len:
            raise InvariantViolated(
                f"tail length {lc.tail_len} outside [0, {cache.config.chunk_len})"
            )


def simulate_generation(
    config: CacheConfig,
    prompt_len: int,
    gen_len: int,
    seed: int = 0,
    audit: bool = False,
):
    """Drive a toy random-projection attention stack through the cache.

    Synthetic hidden states go through fixed random projections to make
    K/V/query rows; the cache is prefilled with the prompt and fed one
    token at a time. In audit mode an uncompressed shadow cache runs in
    parallel and the per-step relative attention-score deviation (median
    across layers) is recorded.

    Returns (final MemoryLedger, list of per-step trace dicts). Token
    conservation and the tail-length bound are checked every step.
    """
    prompt_len, gen_len = (_check_size(t, "lengths", 0) for t in (prompt_len, gen_len))
    _check_size(seed, "seed", 0)
    rng = np.random.default_rng(seed)
    d = config.dim
    w_k = rng.standard_normal((config.layers, d, d)) / np.sqrt(d)
    w_v = rng.standard_normal((config.layers, d, d)) / np.sqrt(d)
    w_q = rng.standard_normal((config.layers, d, d)) / np.sqrt(d)

    # the cache, then in audit mode its uncompressed shadow: fed the same rows
    caches = [KvCache(config)]
    if audit:
        caches.append(KvCache(replace(config, bits=None)))
    cache = caches[0]

    for layer in range(config.layers):
        h = rng.standard_normal((prompt_len, d))
        keys = (h @ w_k[layer]).astype(np.float32)
        values = (h @ w_v[layer]).astype(np.float32)
        for c in caches:
            c.prefill(layer, keys, values)
    _check_invariants(cache, prompt_len)

    def snapshot(step, tokens, deviation):
        led = cache.ledger()
        return {
            "step": step,
            "tokens": tokens,
            "segments": sum(len(lc.key_segments) for lc in cache.layers),
            "bytes_actual": led.bytes_actual,
            "bytes_fp16_equivalent": led.bytes_fp16_equivalent,
            "bytes_moved_read": led.bytes_moved_read,
            "score_deviation": deviation,
        }

    trace = [snapshot(0, prompt_len, None)]
    for step in range(1, gen_len + 1):
        deviations = []
        h = rng.standard_normal((1, d))
        for layer in range(config.layers):
            k_row = (h @ w_k[layer]).astype(np.float32)
            v_row = (h @ w_v[layer]).astype(np.float32)
            if audit and cache.layers[layer].tokens:
                q_row = (h @ w_q[layer]).astype(np.float32)
                got, ref = (c.attention_scores(layer, q_row) for c in caches)
                denom = float(np.linalg.norm(ref))
                dev = float(np.linalg.norm(got - ref)) / denom if denom else 0.0
                deviations.append(dev)
            for c in caches:
                c.append_token(layer, k_row, v_row)
        _check_invariants(cache, prompt_len + step)
        dev = median(deviations) if deviations else None
        trace.append(snapshot(step, prompt_len + step, dev))
    return cache.ledger(), trace


def write_trace_csv(trace, path):
    """Write the per-step trace using the stable column schema."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(TRACE_COLUMNS)
        writer.writerows([row[c] for c in TRACE_COLUMNS] for row in trace)
