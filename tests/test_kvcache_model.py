"""KvCache against a numpy model of the rows fed, one random call sequence at a time."""

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from dquant import CacheConfig, KvCache, deco_dequantize, deco_quantize
from dquant.errors import AlreadyPrefilled, NonFiniteInput

LAYERS = 2
SIDES = ("key", "value")


def rows(seed, count, dim):
    return np.random.default_rng(seed).standard_normal((count, dim)).astype(np.float32)


class KvCacheModel(RuleBasedStateMachine):
    """Each layer's segments and tail as plain arrays, and the read traffic so far.

    A segment is modelled by the rows a read must return for it (the rows
    themselves at full precision, else deco_dequantize(deco_quantize(rows)))
    and its stored bytes (2 per full-precision value, each payload's length,
    2 per scale).
    """

    @initialize(
        dim=st.integers(4, 16),
        chunk=st.integers(1, 6),
        n=st.integers(2, 3),
        bits=st.sampled_from([None, 2, 4, 8]),
    )
    def setup(self, dim, chunk, n, bits):
        self.cfg = CacheConfig(LAYERS, dim, bits, chunk, n)
        self.cache = KvCache(self.cfg)
        # per layer and side: sealed reads, their stored bytes, live tail rows
        self.segments = [{s: [] for s in SIDES} for _ in range(LAYERS)]
        self.segment_bytes = [{s: [] for s in SIDES} for _ in range(LAYERS)]
        self.tails = [{s: [] for s in SIDES} for _ in range(LAYERS)]
        self.moved = 0

    def tokens(self, layer):
        sealed = sum(len(seg) for seg in self.segments[layer]["key"])
        return sealed + len(self.tails[layer]["key"])

    def seal(self, layer, side, block):
        if self.cfg.bits is None:
            read, stored = block.copy(), 2 * block.size
        else:
            q = deco_quantize(block, self.cfg.bits, self.cfg.n)
            read = deco_dequantize(q)
            stored = sum(len(t.payload) + 2 for t in q.quantized_locals)
            stored += 2 * sum(t.size for t in q.fp_locals)
        self.segments[layer][side].append(read)
        self.segment_bytes[layer][side].append(stored)

    def stored(self, layer, side):
        tail_values = len(self.tails[layer][side]) * self.cfg.dim
        return sum(self.segment_bytes[layer][side]) + 2 * tail_values

    def expected_read(self, layer, side):
        tail = np.array(self.tails[layer][side], np.float32).reshape(-1, self.cfg.dim)
        return np.concatenate([*self.segments[layer][side], tail], axis=0)

    def snapshot(self):
        """Everything a refused call must leave as it was."""
        layers = [
            (lc.tail_len, lc.tokens, len(lc.key_segments), len(lc.value_segments),
             list(lc.key_segment_bytes), list(lc.value_segment_bytes),
             lc.key_tail.tobytes(), lc.value_tail.tobytes())
            for lc in self.cache.layers
        ]
        return layers, self.cache.bytes_moved_read

    @precondition(lambda self: any(self.tokens(layer) == 0 for layer in range(LAYERS)))
    @rule(count=st.integers(0, 8), seed=st.integers(0, 2**16))
    def prefill(self, count, seed):
        layer = next(layer for layer in range(LAYERS) if self.tokens(layer) == 0)
        keys, values = rows(seed, 2 * count, self.cfg.dim).reshape(2, count, self.cfg.dim)
        self.cache.prefill(layer, keys, values)
        if count:
            self.seal(layer, "key", keys)
            self.seal(layer, "value", values)

    @precondition(lambda self: any(self.tokens(layer) for layer in range(LAYERS)))
    @rule(count=st.integers(0, 4), seed=st.integers(0, 2**16))
    def second_prefill_is_refused(self, count, seed):
        layer = next(layer for layer in range(LAYERS) if self.tokens(layer))
        keys, values = rows(seed, 2 * count, self.cfg.dim).reshape(2, count, self.cfg.dim)
        before = self.snapshot()
        with pytest.raises(AlreadyPrefilled):
            self.cache.prefill(layer, keys, values)
        assert self.snapshot() == before

    @rule(layer=st.integers(0, LAYERS - 1), seed=st.integers(0, 2**16))
    def append(self, layer, seed):
        k_row, v_row = rows(seed, 2, self.cfg.dim)
        self.cache.append_token(layer, k_row, v_row)
        tails = self.tails[layer]
        tails["key"].append(k_row)
        tails["value"].append(v_row)
        if len(tails["key"]) == self.cfg.chunk_len:
            for side in SIDES:
                self.seal(layer, side, np.array(tails[side]))
                tails[side] = []

    @rule(
        layer=st.integers(0, LAYERS - 1),
        side=st.sampled_from(SIDES),
        at=st.integers(0, 15),
        bad=st.sampled_from([np.nan, np.inf, -np.inf]),
    )
    def nan_row_is_refused(self, layer, side, at, bad):
        k_row, v_row = rows(at, 2, self.cfg.dim)
        (k_row if side == "key" else v_row)[at % self.cfg.dim] = bad
        before = self.snapshot()
        with pytest.raises(NonFiniteInput):
            self.cache.append_token(layer, k_row, v_row)
        assert self.snapshot() == before

    @rule(layer=st.integers(0, LAYERS - 1), side=st.sampled_from(SIDES))
    def read(self, layer, side):
        got = getattr(self.cache, f"read_{side}s")(layer)
        self.moved += self.stored(layer, side)
        assert got.shape == (self.tokens(layer), self.cfg.dim)
        assert got.dtype == np.float32 and got.flags.c_contiguous
        # bit-exact: full-precision rows, and each packed segment as its rebuild
        assert got.tobytes() == self.expected_read(layer, side).tobytes()
        assert self.cache.bytes_moved_read == self.moved

    @rule(layer=st.integers(0, LAYERS - 1), seed=st.integers(0, 2**16))
    def attention_scores(self, layer, seed):
        q = rows(seed, 1, self.cfg.dim)[0]
        got = self.cache.attention_scores(layer, q)
        self.moved += self.stored(layer, "key")
        assert got.shape == (1, self.tokens(layer)) and got.dtype == np.float32
        keys = self.expected_read(layer, "key").astype(np.float64)
        want = q.astype(np.float64) @ keys.T / np.sqrt(self.cfg.dim)
        np.testing.assert_allclose(got[0], want, rtol=1e-4, atol=1e-4)
        assert self.cache.bytes_moved_read == self.moved

    @rule()
    def ledger(self):
        led = self.cache.ledger()
        fp16 = sum(4 * self.tokens(layer) * self.cfg.dim for layer in range(LAYERS))
        actual = sum(self.stored(layer, side) for layer in range(LAYERS) for side in SIDES)
        assert (led.bytes_fp16_equivalent, led.bytes_actual) == (fp16, actual)
        assert led.bytes_moved_read == self.moved

    @invariant()
    def counts_follow_the_model(self):
        for layer, lc in enumerate(self.cache.layers):
            assert lc.tokens == self.tokens(layer)
            assert lc.tail_len == len(self.tails[layer]["key"]) < self.cfg.chunk_len
            assert len(lc.key_segments) == len(self.segments[layer]["key"])
            assert len(lc.value_segments) == len(self.segments[layer]["value"])


KvCacheModel.TestCase.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None
)
TestKvCacheModel = KvCacheModel.TestCase
