"""Decode reads: the transposed product's two orders, the runs of tiles the
sweeps multiply, the cache reads, and the typed checks on a layer index and
a packed core's scale."""

import numpy as np
import pytest

from dquant import CacheConfig, KvCache, QuantizedTensor, WorkingSetMeter
from dquant import compress, mpo
from dquant.compress import TILE_ELEMENTS, deco_dequantize, deco_quantize, fused_matmul
from dquant.compress import fused_matmul_t
from dquant.errors import CorruptPayload, LayerOutOfRange
from dquant.quantize import quantize_rtn


def rand(shape, seed=0):
    return np.random.default_rng(seed).standard_normal(shape).astype(np.float32)


def rel_err(ref, got):
    ref = np.asarray(ref, np.float64)
    return np.linalg.norm(ref - np.asarray(got, np.float64)) / np.linalg.norm(ref)


def spy_fp_first(monkeypatch):
    """Record the shape of every chain fused_matmul_t contracts C0 first."""
    calls = []
    fp_first = compress._fp_first_matmul_t

    def spy(x, q, meter):
        calls.append((q.rows, q.cols))
        return fp_first(x, q, meter)

    monkeypatch.setattr(compress, "_fp_first_matmul_t", spy)
    return calls


def check_transposed_product(q, p, seed):
    """fused_matmul_t against the float64 product, with its meter's contract."""
    x = rand((p, q.cols), seed)
    meter = WorkingSetMeter()
    got = fused_matmul_t(x, q, meter)
    ref = x.astype(np.float64) @ deco_dequantize(q).astype(np.float64).T
    assert got.dtype == np.float32 and got.shape == (p, q.rows)
    assert rel_err(ref, got) < 1e-5
    assert 0 < meter.peak_elements <= TILE_ELEMENTS
    assert meter.total_unpacked == sum(t.count for t in q.quantized_locals)


class TestTransposedProductOrder:
    @pytest.mark.parametrize(
        "shape,n,fp_first",
        [
            ((2048, 128), 2, True),  # tall: the kv-decode prefill segment
            ((1024, 128), 2, True),  # a bond slice (256 x 16) is exactly a tile
            ((256, 128), 2, False),  # the kv-decode chunk: half-tile slices
            ((1024, 64), 2, False),  # fewer mult-adds C0 first, half-tile slices
            ((512, 64), 2, False),  # the small kv's prefill segment
            ((256, 64), 2, False),  # the small kv's chunk: quarter-tile slices
            ((256, 256), 2, False),  # square, equal mult-adds, half-tile slices
            ((128, 2048), 2, False),  # wide
            ((120, 72), 3, False),  # n = 3 has only the sweep
        ],
    )
    @pytest.mark.parametrize("p", [1, 3])
    def test_order_follows_mult_adds_and_slice_size(self, monkeypatch, shape, n, fp_first, p):
        q = deco_quantize(rand(shape, 1), 4, n)
        calls = spy_fp_first(monkeypatch)
        check_transposed_product(q, p, 2)
        assert calls == ([shape] if fp_first else [])

    def test_bond_slices_end_in_partial_tiles(self, monkeypatch):
        # C1 read as its d = 3 stacked (i1, j1) = (300, 16) bond slices: each
        # is one 256-row tile and one 44-row partial tile
        c0 = rand((1, 2, 2, 3), 3)
        c1 = quantize_rtn(rand((3, 300, 16, 1), 4), 4)
        q = mpo.MpoChain((c0, c1))
        calls = spy_fp_first(monkeypatch)
        check_transposed_product(q, 3, 5)
        assert calls == [(600, 32)]

    def test_rows_wider_than_a_tile_are_split_into_pieces(self, monkeypatch):
        # C1 read as its (d * i1, j1) = (4, 4100) matrix: each row is two tiles
        c0 = rand((1, 1, 8, 2), 3)
        c1 = quantize_rtn(rand((2, 2, 4100, 1), 4), 2)
        q = mpo.MpoChain((c0, c1))
        calls = spy_fp_first(monkeypatch)
        check_transposed_product(q, 2, 5)
        assert calls == [(2, 8 * 4100)]


class GatherLog(WorkingSetMeter):
    """A meter that also keeps the size of every gather, in order."""

    def __init__(self):
        super().__init__()
        self.counts = []

    def record(self, n_elements):
        self.counts.append(n_elements)
        super().record(n_elements)


class TestRunWalk:
    """With TILE_ELEMENTS = 1024 a run is up to 32 rows. A 64-column tile is
    16 rows, so two make a run, and a 56-row bond slice ends in a 24-row run,
    a tile and an 8-row partial tile. The 120 x 72 (n = 3) sweeps read the
    middle core as one 40 x 216 matrix in 4-row tiles: a 32-row run, then an
    8-row run cut short at the matrix's end."""

    TILE = 1024

    def chains(self):
        c1 = quantize_rtn(rand((3, 56, 64, 1), 4), 4)
        yield mpo.MpoChain((rand((1, 2, 4, 3), 3), c1))
        yield deco_quantize(rand((120, 72), 6), 4, n=3)

    @pytest.mark.parametrize("bits", [2, 4, 8])
    def test_runs_gather_each_tile_once_inside_one_slice(self, monkeypatch, bits):
        monkeypatch.setattr(compress, "TILE_ELEMENTS", self.TILE)
        last = quantize_rtn(rand((3, 56, 64, 1), bits), bits)
        want = last.codes().reshape(168, 64).astype(np.float64) * np.float64(last.scale)
        meter = GatherLog()
        walk = compress._tiles(last, 56, 64, meter)
        blocks = [(rs, cs, block.copy()) for rs, cs, block in walk]
        assert [(rs.start % 56, rs.stop - rs.start) for rs, _, _ in blocks] == [
            (0, 32), (32, 24)
        ] * 3
        seen = np.zeros((168, 64), dtype=int)
        for rs, cs, block in blocks:
            assert rs.start // 56 == (rs.stop - 1) // 56  # inside one slice
            assert block.tobytes() == want[rs, cs].tobytes()
            seen[rs, cs] += 1
        assert (seen == 1).all()
        assert meter.counts == [1024, 1024, 1024, 512] * 3  # one gather per tile
        assert meter.peak_elements <= compress.TILE_ELEMENTS
        assert meter.total_unpacked == last.count

    def test_grid_follows_the_tile_size(self, monkeypatch):
        # one grid per geometry and tile size: a walk at the default size
        # leaves no grid that a walk at 1024 values would reuse
        last = quantize_rtn(rand((3, 56, 64, 1), 4), 4)

        def heights():
            walk = compress._tiles(last, 56, 64, None)
            return [rs.stop - rs.start for rs, _, _ in walk]

        assert heights() == [56] * 3
        monkeypatch.setattr(compress, "TILE_ELEMENTS", self.TILE)
        assert heights() == [32, 24] * 3
        blocks, size = compress._grid(56, 64, 3, True, self.TILE)
        assert size == self.TILE and isinstance(blocks, tuple)
        assert compress._grid(56, 64, 3, True, self.TILE)[0] is blocks  # shared

    @pytest.mark.parametrize("cols,heights", [(512, [16, 16, 8]), (1024, [8] * 5)])
    def test_wide_rows_stop_a_run_at_eight_tiles_of_values(self, monkeypatch, cols, heights):
        # 2-row and 1-row tiles: 8 * TILE_ELEMENTS values stop the run
        # before 32 rows do, and a 40-row slice ends in a shorter run
        monkeypatch.setattr(compress, "TILE_ELEMENTS", self.TILE)
        last = quantize_rtn(rand((3, 40, cols, 1), 4), 4)
        want = last.codes().reshape(120, cols).astype(np.float64)
        want *= np.float64(last.scale)
        meter = GatherLog()
        seen = []
        for rs, cs, block in compress._tiles(last, 40, cols, meter):
            assert block.size <= 8 * self.TILE
            assert block.tobytes() == want[rs, cs].tobytes()
            seen.append(rs.stop - rs.start)
        assert seen == heights * 3
        assert meter.counts == [self.TILE] * (120 * cols // self.TILE)
        assert meter.total_unpacked == last.count

    @pytest.mark.parametrize("p", [1, 3, 64])
    def test_products_over_runs_match_the_float64_product(self, monkeypatch, p):
        monkeypatch.setattr(compress, "TILE_ELEMENTS", self.TILE)
        for q in self.chains():
            full = deco_dequantize(q).astype(np.float64)
            packed = sum(t.count for t in q.quantized_locals)
            for product, x, want in (
                (fused_matmul, rand((p, q.rows), 4), lambda x: x @ full),
                (fused_matmul_t, rand((p, q.cols), 5), lambda x: x @ full.T),
            ):
                meter = WorkingSetMeter()
                got = product(x, q, meter)
                assert rel_err(want(x.astype(np.float64)), got) < 1e-4
                assert meter.peak_elements <= compress.TILE_ELEMENTS
                assert meter.total_unpacked == packed


class TestCacheReads:
    def filled(self, bits):
        """Prefill 20 rows, then two 8-row chunks sealed and 3 rows in the tail."""
        cache = KvCache(CacheConfig(layers=1, dim=16, bits=bits, chunk_len=8))
        cache.prefill(0, rand((20, 16), 7), rand((20, 16), 8))
        keys, values = rand((19, 16), 9), rand((19, 16), 10)
        for k_row, v_row in zip(keys, values):
            cache.append_token(0, k_row, v_row)
        lc = cache.layers[0]
        assert len(lc.key_segments) == 3 and lc.tail_len == 3
        return cache, lc

    @pytest.mark.parametrize("bits", [2, 4, 8])
    def test_reads_are_the_segments_then_the_tail(self, bits):
        cache, lc = self.filled(bits)
        for read, segments, tail in (
            (cache.read_keys, lc.key_segments, lc.key_tail),
            (cache.read_values, lc.value_segments, lc.value_tail),
        ):
            want = np.concatenate(
                [deco_dequantize(s) for s in segments] + [tail[: lc.tail_len]]
            )
            got = read(0)
            assert got.dtype == np.float32 and got.flags.c_contiguous
            assert got.shape == (39, 16) and got.tobytes() == want.tobytes()

    def test_full_precision_reads_are_exact_and_owned(self):
        cache, lc = self.filled(None)
        got = cache.read_values(0)
        want = np.concatenate(lc.value_segments + [lc.value_tail[: lc.tail_len]])
        assert got.tobytes() == want.tobytes()
        got[:] = 0  # the caller's array: the cache is not written through it
        assert cache.read_values(0).tobytes() == want.tobytes()

    def test_an_empty_layer_reads_no_rows(self):
        cache = KvCache(CacheConfig(layers=1, dim=16, bits=4))
        got = cache.read_keys(0)
        assert got.shape == (0, 16) and got.dtype == np.float32


LAYER_CALLS = {
    "prefill": lambda c, layer: c.prefill(layer, rand((4, 8)), rand((4, 8), 1)),
    "append_token": lambda c, layer: c.append_token(layer, np.ones(8), np.ones(8)),
    "attention_scores": lambda c, layer: c.attention_scores(layer, np.ones(8)),
    "read_keys": lambda c, layer: c.read_keys(layer),
    "read_values": lambda c, layer: c.read_values(layer),
}


class TestLayerIndex:
    @pytest.mark.parametrize("method", list(LAYER_CALLS))
    @pytest.mark.parametrize(
        "index", [1.5, 1.0, np.float64(1), "1", None], ids=repr
    )
    def test_an_index_that_is_not_an_integer_is_refused(self, method, index):
        cache = KvCache(CacheConfig(2, 8, 4))
        with pytest.raises(LayerOutOfRange):
            LAYER_CALLS[method](cache, index)
        assert all(lc.tokens == 0 for lc in cache.layers)

    @pytest.mark.parametrize("method", list(LAYER_CALLS))
    def test_numpy_integers_still_index(self, method):
        cache = KvCache(CacheConfig(2, 8, 4))
        LAYER_CALLS[method](cache, np.int64(1))
        LAYER_CALLS[method](cache, np.uint8(0))


class TestScale:
    @pytest.mark.parametrize("scale", ["1.0", None, [1.0], 1j], ids=repr)
    def test_a_scale_that_is_not_a_real_number_is_corrupt(self, scale):
        with pytest.raises(CorruptPayload):
            QuantizedTensor((2,), 4, scale, b"\x00")

    def test_a_numpy_float32_scale_still_decodes(self):
        qt = QuantizedTensor((2,), 4, np.float32(0.5), b"\xf1")
        np.testing.assert_array_equal(qt.values(), [0.5, -0.5])
