import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import dquant
from dquant import (
    CacheConfig,
    KvCache,
    QuantizedMpo,
    compression_report,
    simulate_generation,
)
from dquant.errors import (
    AlreadyPrefilled,
    DimMismatch,
    InvariantViolated,
    LayerOutOfRange,
    NonFiniteInput,
    ShapeMismatch,
    UnsupportedBits,
)
from dquant.kvcache import TRACE_COLUMNS, _check_invariants, write_trace_csv


def kv(rows, dim, seed=0):
    rng = np.random.default_rng(seed)
    return (
        rng.standard_normal((rows, dim)).astype(np.float32),
        rng.standard_normal((rows, dim)).astype(np.float32),
    )


@pytest.mark.parametrize(
    "field,error",
    [({"chunk_len": 0}, ShapeMismatch), ({"bits": 3}, UnsupportedBits),
     ({"n": 1}, ShapeMismatch)],
)
def test_config_checks(field, error):
    with pytest.raises(error):
        CacheConfig(layers=1, dim=8, **field)


@pytest.mark.parametrize(
    "field,error",
    [({"chunk_len": 2.5}, ShapeMismatch), ({"layers": 2.0}, ShapeMismatch),
     ({"dim": 8.0}, ShapeMismatch), ({"n": 2.0}, ShapeMismatch),
     ({"bits": 4.0}, UnsupportedBits), ({"bits": "4"}, UnsupportedBits)],
)
def test_config_sizes_and_bits_must_be_integers(field, error):
    with pytest.raises(error):
        CacheConfig(**{"layers": 1, "dim": 8, **field})


def test_config_stores_numpy_integers_as_ints():
    cfg = CacheConfig(np.int64(2), np.int32(8), np.int8(4), np.int64(4), np.int16(2))
    assert cfg == CacheConfig(2, 8, 4, 4, 2)
    sizes = (cfg.layers, cfg.dim, cfg.bits, cfg.chunk_len, cfg.n)
    assert all(type(v) is int for v in sizes)
    cache = KvCache(cfg)
    for layer in range(2):
        cache.prefill(layer, *kv(6, 8, layer))
        for k_row, v_row in zip(*kv(5, 8, layer + 2)):
            cache.append_token(layer, k_row, v_row)
    assert cache.read_keys(1).shape == (11, 8)


class TestPrefill:
    def test_single_segment_and_ratio(self):
        cache = KvCache(CacheConfig(layers=2, dim=256, bits=4))
        k, v = kv(1024, 256)
        cache.prefill(0, k, v)
        cache.prefill(1, k, v)
        lc = cache.layers[0]
        assert len(lc.key_segments) == 1 and len(lc.value_segments) == 1
        assert lc.tail_len == 0
        assert 0.24 <= cache.ledger().ratio <= 0.30

    def test_empty_prompt(self):
        cache = KvCache(CacheConfig(layers=1, dim=16, bits=4))
        cache.prefill(0, np.zeros((0, 16), np.float32), np.zeros((0, 16), np.float32))
        assert cache.layers[0].tokens == 0
        assert not cache.layers[0].key_segments

    def test_full_precision_mode(self):
        cache = KvCache(CacheConfig(layers=1, dim=32, bits=None))
        k, v = kv(40, 32, 1)
        cache.prefill(0, k, v)
        np.testing.assert_array_equal(cache.read_keys(0), k)
        np.testing.assert_array_equal(cache.read_values(0), v)
        assert cache.ledger().ratio == 1.0

    def test_full_precision_prefill_is_a_copy(self):
        cache = KvCache(CacheConfig(layers=1, dim=16, bits=None))
        k, v = kv(12, 16, 2)
        cache.prefill(0, k, v)
        expected_k, expected_v = k.copy(), v.copy()
        k[:] = 0
        v[:] = 0
        np.testing.assert_array_equal(cache.read_keys(0), expected_k)
        np.testing.assert_array_equal(cache.read_values(0), expected_v)

    def test_already_prefilled(self):
        cache = KvCache(CacheConfig(layers=1, dim=8, bits=4))
        k, v = kv(4, 8)
        cache.prefill(0, k, v)
        with pytest.raises(AlreadyPrefilled):
            cache.prefill(0, k, v)

    def test_layer_out_of_range(self):
        cache = KvCache(CacheConfig(layers=1, dim=8, bits=4))
        with pytest.raises(LayerOutOfRange):
            cache.prefill(3, *kv(4, 8))

    def test_dim_mismatch(self):
        cache = KvCache(CacheConfig(layers=1, dim=8, bits=4))
        with pytest.raises(DimMismatch):
            cache.prefill(0, *kv(4, 6))

    def test_keys_and_values_of_different_shapes(self):
        cache = KvCache(CacheConfig(layers=1, dim=8, bits=4))
        keys, _ = kv(4, 8)
        _, values = kv(5, 8)
        with pytest.raises(DimMismatch):
            cache.prefill(0, keys, values)

    def test_empty_cache_ratio_is_one(self):
        ledger = KvCache(CacheConfig(layers=2, dim=8, bits=4)).ledger()
        assert ledger.bytes_fp16_equivalent == 0
        assert ledger.ratio == 1.0


class TestAppend:
    def test_trigger_law(self):
        cfg = CacheConfig(layers=1, dim=16, bits=4, chunk_len=32)
        cache = KvCache(cfg)
        rng = np.random.default_rng(0)
        for _ in range(32):
            cache.append_token(0, rng.standard_normal(16), rng.standard_normal(16))
        lc = cache.layers[0]
        assert len(lc.key_segments) == 1 and lc.tail_len == 0
        cache.append_token(0, rng.standard_normal(16), rng.standard_normal(16))
        assert len(lc.key_segments) == 1 and lc.tail_len == 1

    def test_token_conservation_and_tail_bound(self):
        cfg = CacheConfig(layers=1, dim=8, bits=8, chunk_len=16)
        cache = KvCache(cfg)
        rng = np.random.default_rng(1)
        cache.prefill(0, *kv(10, 8, 2))
        for step in range(100):
            cache.append_token(0, rng.standard_normal(8), rng.standard_normal(8))
            lc = cache.layers[0]
            assert lc.tokens == 10 + step + 1
            assert 0 <= lc.tail_len < cfg.chunk_len

    def test_ratio_after_four_chunks(self):
        cfg = CacheConfig(layers=1, dim=256, bits=4, chunk_len=1024)
        cache = KvCache(cfg)
        rng = np.random.default_rng(2)
        for _ in range(4 * 1024):
            cache.append_token(0, rng.standard_normal(256), rng.standard_normal(256))
        assert 0.24 <= cache.ledger().ratio <= 0.30

    def test_full_precision_segments_keep_their_rows(self):
        cache = KvCache(CacheConfig(layers=1, dim=8, bits=None, chunk_len=4))
        k, v = kv(10, 8, 3)
        for k_row, v_row in zip(k, v):
            cache.append_token(0, k_row, v_row)
        assert len(cache.layers[0].key_segments) == 2
        np.testing.assert_array_equal(cache.read_keys(0), k)
        np.testing.assert_array_equal(cache.read_values(0), v)

    def test_dim_mismatch(self):
        cache = KvCache(CacheConfig(layers=1, dim=8, bits=4))
        with pytest.raises(DimMismatch):
            cache.append_token(0, np.zeros(9, np.float32), np.zeros(8, np.float32))


class TestNonFiniteRows:
    @pytest.mark.parametrize("bits", [4, None])
    @pytest.mark.parametrize("before", [1, 3])  # mid-chunk, and the row that would seal
    @pytest.mark.parametrize("side", ["key", "value"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_refused_before_it_is_written(self, bits, before, side, bad):
        cache = KvCache(CacheConfig(layers=1, dim=8, bits=bits, chunk_len=4))
        cache.prefill(0, *kv(6, 8, 1))
        k, v = kv(before + 6, 8, 2)
        for k_row, v_row in zip(k[:before], v[:before]):
            cache.append_token(0, k_row, v_row)
        lc = cache.layers[0]
        tail_keys = lc.key_tail.copy()
        ledger = cache.ledger()
        k_bad, v_bad = k[before].copy(), v[before].copy()
        (k_bad if side == "key" else v_bad)[2] = bad
        with pytest.raises(NonFiniteInput):
            cache.append_token(0, k_bad, v_bad)
        assert lc.tokens == 6 + before and lc.tail_len == before
        np.testing.assert_array_equal(lc.key_tail, tail_keys)
        assert cache.ledger() == ledger
        _check_invariants(cache, 6 + before)
        # later finite rows seal and read finite
        for k_row, v_row in zip(k[before:], v[before:]):
            cache.append_token(0, k_row, v_row)
        _check_invariants(cache, 12 + before)
        assert len(lc.key_segments) == 1 + (before + 6) // 4
        assert np.isfinite(cache.attention_scores(0, k[0])).all()
        keys, values = cache.read_keys(0), cache.read_values(0)
        assert np.isfinite(keys).all() and np.isfinite(values).all()
        if bits is None:
            np.testing.assert_array_equal(keys[6:], k)

    def test_quantized_prefill_of_a_nan_prompt_changes_nothing(self):
        cache = KvCache(CacheConfig(layers=1, dim=8, bits=4, chunk_len=4))
        k, v = kv(6, 8, 3)
        v_bad = v.copy()
        v_bad[4, 1] = np.nan
        with pytest.raises(NonFiniteInput):
            cache.prefill(0, k, v_bad)
        lc = cache.layers[0]
        assert lc.tokens == 0 and not lc.key_segments and not lc.value_segments
        assert not lc.key_segment_bytes and not lc.value_segment_bytes
        cache.prefill(0, k, v)
        _check_invariants(cache, 6)


class TestRowRuleFiniteness:
    """_rows refuses any row not finite in float32, queries included."""

    @pytest.mark.parametrize("bits", [4, None])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e39])
    def test_non_finite_query_is_refused_and_charges_nothing(self, bits, bad):
        cache = KvCache(CacheConfig(layers=1, dim=8, bits=bits, chunk_len=4))
        cache.prefill(0, *kv(6, 8, 1))
        for k_row, v_row in zip(*kv(2, 8, 2)):
            cache.append_token(0, k_row, v_row)
        lc = cache.layers[0]
        q = kv(1, 8, 3)[0][0].astype(np.float64)
        want_scores = cache.attention_scores(0, q)
        ledger = cache.ledger()
        segments = (list(lc.key_segments), list(lc.value_segments))
        segment_bytes = (list(lc.key_segment_bytes), list(lc.value_segment_bytes))
        tails = (lc.key_tail.copy(), lc.value_tail.copy(), lc.tail_len)
        q_bad = q.copy()
        q_bad[5] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteInput):
                cache.attention_scores(0, q_bad)
        assert cache.ledger() == ledger  # bytes_moved_read included
        got = (lc.key_segments, lc.value_segments)
        assert all(a is b for s, t in zip(got, segments) for a, b in zip(s, t))
        assert [len(s) for s in got] == [len(s) for s in segments]
        assert (lc.key_segment_bytes, lc.value_segment_bytes) == segment_bytes
        np.testing.assert_array_equal(lc.key_tail, tails[0])
        np.testing.assert_array_equal(lc.value_tail, tails[1])
        assert lc.tail_len == tails[2]
        assert cache.attention_scores(0, q).tobytes() == want_scores.tobytes()

    @pytest.mark.parametrize("bits", [4, None])
    @pytest.mark.parametrize("side", ["key", "value"])
    def test_row_beyond_float32_range_is_refused_without_a_warning(self, bits, side):
        cache = KvCache(CacheConfig(layers=1, dim=8, bits=bits, chunk_len=4))
        k, v = (r.astype(np.float64) for r in kv(1, 8, 4))
        (k if side == "key" else v)[0, 3] = 1e39
        ledger = cache.ledger()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteInput):
                cache.append_token(0, k[0], v[0])
        assert cache.layers[0].tokens == 0 and cache.ledger() == ledger


class TestAccounting:
    @pytest.mark.parametrize("bits", [4, None])
    def test_tokens_and_ledger_follow_the_parts(self, bits):
        dim = 16
        cache = KvCache(CacheConfig(layers=2, dim=dim, bits=bits, chunk_len=8))
        rng = np.random.default_rng(12)

        def check():
            ledger = cache.ledger()
            actual = 0
            for lc in cache.layers:
                rows = sum(
                    seg.rows if isinstance(seg, QuantizedMpo) else seg.shape[0]
                    for seg in lc.key_segments
                )
                assert lc.tokens == rows + lc.tail_len
                actual += sum(lc.key_segment_bytes) + sum(lc.value_segment_bytes)
                actual += 4 * lc.tail_len * dim
            assert ledger.bytes_actual == actual
            tokens = sum(lc.tokens for lc in cache.layers)
            assert ledger.bytes_fp16_equivalent == 4 * tokens * dim

        check()
        for layer in range(2):
            cache.prefill(layer, *kv(11, dim, layer))
        check()
        for _ in range(29):  # three seals, then a tail of 5
            for layer in range(2):
                cache.append_token(layer, *rng.standard_normal((2, dim)))
            check()
        assert [len(lc.key_segments) for lc in cache.layers] == [4, 4]
        assert [lc.tail_len for lc in cache.layers] == [5, 5]


class TestReads:
    def test_read_after_prefill_b8(self):
        cache = KvCache(CacheConfig(layers=1, dim=128, bits=8))
        k, v = kv(512, 128, 3)
        cache.prefill(0, k, v)
        got = cache.read_keys(0)
        assert got.shape == k.shape
        assert np.linalg.norm(got - k) / np.linalg.norm(k) < 0.02

    def test_empty_layer(self):
        cache = KvCache(CacheConfig(layers=1, dim=64, bits=4))
        assert cache.read_keys(0).shape == (0, 64)
        assert cache.attention_scores(0, np.zeros(64, np.float32)).shape == (1, 0)

    def test_read_determinism(self):
        cache = KvCache(CacheConfig(layers=1, dim=64, bits=4, chunk_len=16))
        rng = np.random.default_rng(4)
        cache.prefill(0, *kv(40, 64, 5))
        for _ in range(20):
            cache.append_token(0, rng.standard_normal(64), rng.standard_normal(64))
        a, b = cache.read_keys(0), cache.read_keys(0)
        np.testing.assert_array_equal(a, b)

    def test_read_traffic_accumulates(self):
        cache = KvCache(CacheConfig(layers=1, dim=64, bits=4))
        cache.prefill(0, *kv(128, 64, 6))
        before = cache.ledger().bytes_moved_read
        cache.read_keys(0)
        after = cache.ledger().bytes_moved_read
        assert after > before

    @pytest.mark.parametrize("bits", [4, None])
    def test_segment_bytes_counted_once(self, bits, monkeypatch):
        calls = []

        def counting_report(seg):
            calls.append(seg)
            return compression_report(seg)

        monkeypatch.setattr(dquant.kvcache, "compression_report", counting_report)
        cache = KvCache(CacheConfig(layers=2, dim=32, bits=bits, chunk_len=16))
        rng = np.random.default_rng(8)
        expected = 0
        for layer in range(2):
            cache.prefill(layer, *kv(40, 32, layer))
        for step in range(37):
            for layer in range(2):
                k_row, v_row = rng.standard_normal((2, 32)).astype(np.float32)
                cache.append_token(layer, k_row, v_row)
                lc = cache.layers[layer]
                if step % 3 == 0:
                    cache.attention_scores(layer, k_row)
                elif step % 3 == 1:
                    cache.read_keys(layer)
                else:
                    cache.read_values(layer)
                parts = lc.value_parts() if step % 3 == 2 else lc.key_parts()
                expected += sum(
                    compression_report(p).bytes_compressed
                    if isinstance(p, QuantizedMpo)
                    else p.size * 2
                    for p in parts
                )
        assert cache.ledger().bytes_moved_read == expected
        sealed = 0
        for lc in cache.layers:
            assert len(lc.key_segment_bytes) == len(lc.key_segments) == 3
            for segs, counts in (
                (lc.key_segments, lc.key_segment_bytes),
                (lc.value_segments, lc.value_segment_bytes),
            ):
                for seg, count in zip(segs, counts):
                    if bits is None:
                        assert count == seg.size * 2
                    else:
                        assert count == compression_report(seg).bytes_compressed
                        sealed += 1
        # one count per quantized segment, at sealing; reads add none
        assert len(calls) == sealed


class TestAttentionScores:
    def test_full_precision_matches_direct(self):
        cache = KvCache(CacheConfig(layers=1, dim=32, bits=None, chunk_len=8))
        rng = np.random.default_rng(7)
        cache.prefill(0, *kv(20, 32, 8))
        for _ in range(5):
            cache.append_token(0, rng.standard_normal(32), rng.standard_normal(32))
        q = rng.standard_normal(32).astype(np.float32)
        keys = cache.read_keys(0)
        expected = (
            q[None].astype(np.float64) @ keys.astype(np.float64).T
        ) / np.sqrt(32)
        got = cache.attention_scores(0, q)
        np.testing.assert_allclose(got, expected.astype(np.float32), rtol=1e-6, atol=1e-6)

    def test_b8_close_to_uncompressed(self):
        rng = np.random.default_rng(9)
        k, v = kv(256, 128, 10)
        comp = KvCache(CacheConfig(layers=1, dim=128, bits=8))
        ref = KvCache(CacheConfig(layers=1, dim=128, bits=None))
        comp.prefill(0, k, v)
        ref.prefill(0, k, v)
        q = rng.standard_normal(128).astype(np.float32)
        got = comp.attention_scores(0, q)
        want = ref.attention_scores(0, q)
        assert np.linalg.norm(got - want) / np.linalg.norm(want) < 1e-2

    def test_single_token_dot_product(self):
        cache = KvCache(CacheConfig(layers=1, dim=16, bits=8, chunk_len=4))
        rng = np.random.default_rng(11)
        k_row = rng.standard_normal(16).astype(np.float32)
        cache.append_token(0, k_row, k_row)
        q = rng.standard_normal(16).astype(np.float32)
        got = cache.attention_scores(0, q)
        expected = float(q @ k_row) / np.sqrt(16)
        assert got.shape == (1, 1)
        assert got[0, 0] == pytest.approx(expected, rel=1e-5)

    def test_query_dim_mismatch(self):
        cache = KvCache(CacheConfig(layers=1, dim=8, bits=4))
        cache.prefill(0, *kv(4, 8))
        with pytest.raises(DimMismatch):
            cache.attention_scores(0, np.zeros(6, np.float32))


ROW_REFUSALS = {
    "append-2x64": lambda c: c.append_token(0, np.ones((2, 64)), np.ones((2, 64))),
    "append-key-column": lambda c: c.append_token(0, np.ones((128, 1)), np.ones(128)),
    "append-value-column": lambda c: c.append_token(0, np.ones(128), np.ones((128, 1))),
    "append-two-rows": lambda c: c.append_token(0, *kv(2, 128)),
    "scores-4x32": lambda c: c.attention_scores(0, np.ones((4, 32))),
    "scores-column": lambda c: c.attention_scores(0, np.ones((128, 1))),
}


class TestRowRule:
    """K, V and query input enters only as (T, dim) rows; one row also as (dim,)."""

    def filled(self, bits):
        cache = KvCache(CacheConfig(layers=1, dim=128, bits=bits, chunk_len=4))
        cache.prefill(0, *kv(6, 128, 1))
        for k_row, v_row in zip(*kv(5, 128, 2)):  # a second segment, then a tail of 1
            cache.append_token(0, k_row, v_row)
        return cache

    @pytest.mark.parametrize("bits", [4, None])
    @pytest.mark.parametrize("call", list(ROW_REFUSALS))
    def test_rows_of_another_shape_are_refused_and_change_nothing(self, bits, call):
        cache = self.filled(bits)
        lc = cache.layers[0]

        def state():
            return (lc.tokens, lc.tail_len, len(lc.key_segments),
                    len(lc.value_segments), cache.ledger())

        before = state()
        tails = lc.key_tail.copy(), lc.value_tail.copy()
        with pytest.raises(DimMismatch):
            ROW_REFUSALS[call](cache)
        assert state() == before == (11, 1, 2, 2, before[-1])
        np.testing.assert_array_equal(lc.key_tail, tails[0])
        np.testing.assert_array_equal(lc.value_tail, tails[1])

    @pytest.mark.parametrize("bits", [4, None])
    def test_a_row_as_dim_or_as_1_by_dim_is_the_same_row(self, bits):
        k, v = kv(9, 128, 3)
        q = kv(1, 128, 4)[0][0]
        outputs = []
        for shape in [(128,), (1, 128)]:
            cache = KvCache(CacheConfig(layers=1, dim=128, bits=bits, chunk_len=4))
            cache.prefill(0, k[:3], v[:3])
            for k_row, v_row in zip(k[3:], v[3:]):
                cache.append_token(0, k_row.reshape(shape), v_row.reshape(shape))
            assert cache.layers[0].tokens == 9
            scores = cache.attention_scores(0, q.reshape(shape))
            assert scores.shape == (1, 9) and scores.dtype == np.float32
            outputs.append((scores, cache.read_keys(0), cache.read_values(0)))
        for got, want in zip(*outputs):
            assert got.tobytes() == want.tobytes()

    def test_prefill_takes_one_row_as_dim_too(self):
        k, v = kv(1, 16, 5)
        caches = [KvCache(CacheConfig(layers=1, dim=16, bits=None)) for _ in range(2)]
        caches[0].prefill(0, k, v)
        caches[1].prefill(0, k[0], v[0])
        for cache in caches:
            np.testing.assert_array_equal(cache.read_keys(0), k)
            np.testing.assert_array_equal(cache.read_values(0), v)

    @pytest.mark.parametrize("keys,values", [((3, 16), (3, 8)), ((3, 16), (16,)),
                                             ((2, 2, 16), (2, 2, 16)), ((), ())])
    def test_prefill_refuses_other_shapes(self, keys, values):
        cache = KvCache(CacheConfig(layers=1, dim=16, bits=4))
        with pytest.raises(DimMismatch):
            cache.prefill(0, np.ones(keys), np.ones(values))
        assert cache.layers[0].tokens == 0 and not cache.layers[0].key_segments


class TestSimulate:
    def test_gen_zero_prefill_only(self):
        cfg = CacheConfig(layers=2, dim=32, bits=4, chunk_len=16)
        ledger, trace = simulate_generation(cfg, prompt_len=24, gen_len=0, seed=0)
        assert len(trace) == 1
        assert trace[0]["step"] == 0 and trace[0]["tokens"] == 24
        assert ledger.bytes_actual == trace[0]["bytes_actual"]

    def test_zero_length_prompt(self):
        # chunks of 8 seal at steps 8 and 16 in each of the two layers
        cfg = CacheConfig(layers=2, dim=32, bits=4, chunk_len=8)
        _, trace = simulate_generation(cfg, 0, 20, seed=5, audit=True)
        assert trace[0]["tokens"] == 0 and trace[0]["segments"] == 0
        assert trace[1]["score_deviation"] is None  # nothing cached to score
        assert all(r["score_deviation"] is not None for r in trace[2:])
        assert [r["tokens"] for r in trace] == list(range(21))
        assert [r["segments"] for r in trace] == [2 * (s // 8) for s in range(21)]

    def test_ratio_converges(self):
        cfg = CacheConfig(layers=1, dim=64, bits=4, chunk_len=64)
        ledger, _ = simulate_generation(cfg, prompt_len=64, gen_len=64 * 7, seed=1)
        assert 0.22 <= ledger.ratio <= 0.32

    def test_audit_deviation_small_at_b8(self):
        cfg = CacheConfig(layers=2, dim=64, bits=8, chunk_len=32)
        _, trace = simulate_generation(cfg, 64, 40, seed=2, audit=True)
        devs = [r["score_deviation"] for r in trace if r["score_deviation"] is not None]
        assert devs and float(np.median(devs)) < 1e-2

    def test_audit_deviation_small_after_many_chunks(self):
        # the full-precision shadow cache seals a segment every 16 steps
        cfg = CacheConfig(layers=1, dim=32, bits=8, chunk_len=16)
        _, trace = simulate_generation(cfg, 16, 100, seed=2, audit=True)
        devs = [r["score_deviation"] for r in trace if r["score_deviation"] is not None]
        assert float(np.median(devs)) < 1e-2

    def test_trace_deterministic(self, tmp_path):
        cfg = CacheConfig(layers=1, dim=32, bits=4, chunk_len=16)
        _, t1 = simulate_generation(cfg, 16, 20, seed=3, audit=True)
        _, t2 = simulate_generation(cfg, 16, 20, seed=3, audit=True)
        assert t1 == t2
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_trace_csv(t1, p1)
        write_trace_csv(t2, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_trace_csv_bytes(self, tmp_path):
        base = {c: i for i, c in enumerate(TRACE_COLUMNS)}
        devs = [None, 0.1 + 0.2, -0.0, float("nan"), float("inf"), 1e-300, 0.5]
        trace = [{**base, "step": i, "score_deviation": d} for i, d in enumerate(devs)]
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path)
        assert path.read_bytes() == (
            b"step,tokens,segments,bytes_actual,bytes_fp16_equivalent,"
            b"bytes_moved_read,score_deviation\r\n"
            b"0,1,2,3,4,5,\r\n"
            b"1,1,2,3,4,5,0.30000000000000004\r\n"
            b"2,1,2,3,4,5,-0.0\r\n"
            b"3,1,2,3,4,5,nan\r\n"
            b"4,1,2,3,4,5,inf\r\n"
            b"5,1,2,3,4,5,1e-300\r\n"
            b"6,1,2,3,4,5,0.5\r\n"
        )

    def test_trace_schema(self, tmp_path):
        cfg = CacheConfig(layers=1, dim=16, bits=4, chunk_len=8)
        _, trace = simulate_generation(cfg, 8, 4, seed=4)
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path)
        header = path.read_text().splitlines()[0]
        assert header == ",".join(TRACE_COLUMNS)


class TestInvariants:
    def test_wrong_token_count_raises(self):
        cache = KvCache(CacheConfig(layers=2, dim=8, bits=4, chunk_len=4))
        for layer in range(2):
            cache.prefill(layer, *kv(6, 8, layer))
        _check_invariants(cache, 6)
        with pytest.raises(InvariantViolated):
            _check_invariants(cache, 7)

    def test_tail_at_chunk_len_raises(self):
        cache = KvCache(CacheConfig(layers=1, dim=8, bits=None, chunk_len=4))
        cache.layers[0].tail_len = 4
        with pytest.raises(InvariantViolated):
            _check_invariants(cache, 4)

    def test_checked_under_python_o(self):
        script = (
            "import sys\n"
            "from dquant.errors import InvariantViolated\n"
            "from dquant.kvcache import CacheConfig, KvCache, _check_invariants\n"
            "cache = KvCache(CacheConfig(layers=1, dim=8, bits=None))\n"
            "try:\n"
            "    _check_invariants(cache, 1)\n"
            "except InvariantViolated:\n"
            "    sys.exit(0 if sys.flags.optimize else 5)\n"
            "sys.exit(1)\n"
        )
        src = os.path.dirname(os.path.dirname(dquant.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run(
            [sys.executable, "-O", "-c", script],
            env=env,
            capture_output=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr.decode()
