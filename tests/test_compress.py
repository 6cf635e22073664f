import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dquant import (
    QuantizedTensor,
    WorkingSetMeter,
    compression_report,
    deco_dequantize,
    deco_quantize,
    fused_matmul,
    fused_matmul_t,
    plan_shapes,
    synth_activations,
)
from dquant import compress
from dquant.compress import TILE_ELEMENTS, _tiles, factorize
from dquant.errors import ShapeMismatch


def rand(shape, seed=0):
    return np.random.default_rng(seed).standard_normal(shape).astype(np.float32)


def rel_err(a, b):
    denom = np.linalg.norm(a)
    return np.linalg.norm(np.asarray(a, np.float64) - np.asarray(b, np.float64)) / max(
        denom, 1e-30
    )


def spy_slab_matmul(monkeypatch):
    """Record p of every call fused_matmul makes to its slab path."""
    calls = []
    slab = compress._slab_matmul

    def spy(x, q, meter):
        calls.append(x.shape[0])
        return slab(x, q, meter)

    monkeypatch.setattr(compress, "_slab_matmul", spy)
    return calls


class TestDecoQuantize:
    @pytest.mark.parametrize("n", [2.5, 2.0])
    def test_chain_length_must_be_an_integer(self, n):
        with pytest.raises(ShapeMismatch):
            deco_quantize(rand((16, 16)), 4, n=n)

    def test_zero_matrix(self):
        q = deco_quantize(np.zeros((16, 16), np.float32), 4)
        for t in q.quantized_locals:
            assert not t.codes().any()
        np.testing.assert_array_equal(deco_dequantize(q), np.zeros((16, 16)))

    def test_identity_64_b8(self):
        m = np.eye(64, dtype=np.float32)
        assert rel_err(m, deco_dequantize(deco_quantize(m, 8))) < 1e-2

    def test_first_core_kept_full_precision(self):
        q = deco_quantize(rand((64, 64)), 4)
        assert not isinstance(q.local_tensors[0], QuantizedTensor)
        assert all(isinstance(t, QuantizedTensor) for t in q.local_tensors[1:])
        assert len(q.quantized_locals) == 1 and len(q.fp_locals) == 1

    def test_beats_direct_quantization_on_outlier_matrix(self):
        from dquant import dequantize, quantize_rtn

        m = synth_activations(256, 256, outlier_cols=8, outlier_scale=20.0, seed=11)
        deco = rel_err(m, deco_dequantize(deco_quantize(m, 4)))
        direct = rel_err(m, dequantize(quantize_rtn(m, 4)))
        assert deco < direct

    def test_longer_chain(self):
        m = rand((128, 128), 2)
        q = deco_quantize(m, 8, n=3)
        assert len(q.local_tensors) == 3
        assert len(q.quantized_locals) == 2
        assert rel_err(m, deco_dequantize(q)) < 2e-2

    def test_roundtrip_b8(self):
        m = rand((128, 128), 3)
        assert rel_err(m, deco_dequantize(deco_quantize(m, 8))) < 0.02

    def test_shape_preserved(self):
        for shape in [(24, 56), (37, 41), (128, 64)]:
            q = deco_quantize(rand(shape, sum(shape)), 4)
            assert deco_dequantize(q).shape == shape

    def test_factorize_rejects_a_vector(self):
        with pytest.raises(ShapeMismatch):
            factorize(rand((16,)))

    @pytest.mark.parametrize("shape,n", [((2048, 128), 2), ((120, 72), 3)])
    def test_rebuild_contracts_the_decoded_cores_in_float64(self, shape, n):
        # packed cores enter as code * float64(scale), the values the fused tiles hold
        q = deco_quantize(rand(shape, 21), 4, n)
        cores = [
            t.codes().reshape(t.shape) * np.float64(t.scale)
            if isinstance(t, QuantizedTensor)
            else t.astype(np.float64)
            for t in q.local_tensors
        ]
        cur = cores[0].reshape(-1, cores[0].shape[3])
        for t in cores[1:]:
            cur = (cur @ t.reshape(t.shape[0], -1)).reshape(-1, t.shape[3])
        full = cur.reshape([f for t in cores for f in t.shape[1:3]])  # i1, j1, i2, ...
        full = full.transpose(list(range(0, 2 * n, 2)) + list(range(1, 2 * n, 2)))
        want = full.reshape(shape).astype(np.float32)
        assert deco_dequantize(q).tobytes() == want.tobytes()

    def test_deterministic_payloads(self):
        m = rand((96, 96), 5)
        a = deco_quantize(m, 4)
        b = deco_quantize(m, 4)
        for ta, tb in zip(a.quantized_locals, b.quantized_locals):
            assert ta.payload == tb.payload and ta.scale == tb.scale


class TestPlanAndGauge:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 300), st.integers(1, 300), st.integers(2, 4))
    def test_first_core_holds_at_most_a_64th(self, rows, cols, n):
        q = deco_quantize(np.zeros((rows, cols), np.float32), 4, n=n)
        assert q.local_tensors[0].size <= max(1, rows * cols / 64)

    @pytest.mark.parametrize("bits", [2, 4, 8])
    @pytest.mark.parametrize("shape,n", [((64, 64), 2), ((256, 128), 2), ((120, 72), 3)])
    def test_every_bond_row_reaches_qmax(self, shape, n, bits):
        q = deco_quantize(rand(shape, sum(shape) + bits), bits, n=n)
        qmax = (1 << (bits - 1)) - 1
        for t in q.quantized_locals:
            codes = t.codes().reshape(t.shape)
            row_max = np.abs(codes.astype(np.int64)).max(axis=(1, 2, 3))
            assert np.all(row_max == qmax)


class TestFusedMatmul:
    def test_identity_probe(self):
        q = deco_quantize(rand((64, 48), 7), 4)
        full = deco_dequantize(q)
        got = fused_matmul(np.eye(64, dtype=np.float32), q)
        assert rel_err(full, got) < 1e-4

    def test_row_against_quantized_identity(self):
        q = deco_quantize(np.eye(4, dtype=np.float32), 8)
        row = np.array([[1.0, 2.0, -3.0, 0.5]], dtype=np.float32)
        got = fused_matmul(row, q)
        assert rel_err(row, got) < 0.01

    def test_equivalence_reference_case(self):
        x = rand((16, 128), 1)
        q = deco_quantize(rand((128, 128), 2), 4)
        naive = x.astype(np.float64) @ deco_dequantize(q).astype(np.float64)
        got = fused_matmul(x, q)
        assert rel_err(naive, got) < 1e-4

    def test_transposed_equivalence(self):
        x = rand((9, 96), 3)
        q = deco_quantize(rand((80, 96), 4), 4)
        naive = x.astype(np.float64) @ deco_dequantize(q).astype(np.float64).T
        got = fused_matmul_t(x, q)
        assert rel_err(naive, got) < 1e-4

    def test_longer_chain_equivalence(self):
        x = rand((4, 120), 5)
        q = deco_quantize(rand((120, 72), 6), 8, n=3)
        naive = x.astype(np.float64) @ deco_dequantize(q).astype(np.float64)
        assert rel_err(naive, fused_matmul(x, q)) < 1e-4

    def test_working_set_stays_tiled(self):
        q = deco_quantize(rand((256, 256), 8), 4)
        large_elems = max(t.count for t in q.quantized_locals)
        assert large_elems > TILE_ELEMENTS  # the contract is non-trivial here
        meter = WorkingSetMeter()
        fused_matmul(rand((8, 256), 9), q, meter)
        assert 0 < meter.peak_elements <= TILE_ELEMENTS
        meter_t = WorkingSetMeter()
        fused_matmul_t(rand((8, 256), 10), q, meter_t)
        assert 0 < meter_t.peak_elements <= TILE_ELEMENTS

    def test_rows_wider_than_a_tile(self):
        # plan (8, 1) x (8, 4099): the packed core is 64 x 4099, so one of its
        # rows does not fit in a tile and is unpacked in row pieces
        q = deco_quantize(rand((8, 32792), 11), 4)
        assert q.plan.i_factors == (8, 1) and q.plan.j_factors == (8, 4099)
        packed = q.local_tensors[1]
        assert packed.shape[2] * packed.shape[3] > TILE_ELEMENTS
        full = deco_dequantize(q).astype(np.float64)
        x = rand((3, 8), 12)
        meter = WorkingSetMeter()
        assert rel_err(x @ full, fused_matmul(x, q, meter)) < 1e-4
        assert 0 < meter.peak_elements <= TILE_ELEMENTS
        x_t = rand((3, 32792), 13)
        meter_t = WorkingSetMeter()
        assert rel_err(x_t @ full.T, fused_matmul_t(x_t, q, meter_t)) < 1e-4
        assert 0 < meter_t.peak_elements <= TILE_ELEMENTS

    def test_rows_wider_than_a_tile_on_the_slab_path(self, monkeypatch):
        # p=64 is past the crossover, so W is rebuilt in slabs whose tiles
        # are the row pieces of the 64 stacked 1 x 4099 matrices
        q = deco_quantize(rand((8, 32792), 11), 4)
        slabs = spy_slab_matmul(monkeypatch)
        x = rand((64, 8), 15)
        meter = WorkingSetMeter()
        got = fused_matmul(x, q, meter)
        assert slabs == [64]
        want = x.astype(np.float64) @ deco_dequantize(q).astype(np.float64)
        assert rel_err(want, got) < 1e-4
        assert 0 < meter.peak_elements <= TILE_ELEMENTS
        assert meter.total_unpacked == q.local_tensors[1].count

    @pytest.mark.parametrize("p,path", [(1, "sweep"), (9, "sweep"), (10, "slab")])
    def test_contraction_order_follows_the_mult_add_count(self, monkeypatch, p, path):
        # plan (8, 1) x (8, 4099), d = 64: the slab path does fewer
        # mult-adds once p * 64 > 8 * (64 + p), that is from p = 10 on
        q = deco_quantize(rand((8, 32792), 11), 4)
        slabs = spy_slab_matmul(monkeypatch)
        fused_matmul(rand((p, 8), 16), q)
        assert slabs == ([p] if path == "slab" else [])

    @pytest.mark.parametrize("p", [1, 3, 10, 64])
    @pytest.mark.parametrize("shape,n", [((8, 32792), 2), ((96, 60), 3)])
    def test_products_are_c_contiguous_float32(self, monkeypatch, p, shape, n):
        # the two-core chain takes the slab path from p = 10 on
        q = deco_quantize(rand(shape, 11), 4, n)
        slabs = spy_slab_matmul(monkeypatch)
        rows, cols = shape
        for y, want in (
            (fused_matmul(rand((p, rows), 16), q), (p, cols)),
            (fused_matmul_t(rand((p, cols), 17), q), (p, rows)),
        ):
            assert y.shape == want and y.dtype == np.float32
            assert y.flags.c_contiguous
        assert slabs == ([p] if n == 2 and p >= 10 else [])

    @settings(max_examples=60, deadline=None)
    @given(
        st.one_of(st.integers(1, 160), st.sampled_from([2, 3, 61, 127, 131, 257])),
        st.one_of(st.integers(1, 160), st.sampled_from([2, 3, 61, 127, 131, 257])),
        st.sampled_from([2, 4, 8]),
        st.integers(2, 3),
        st.integers(1, 80),
        st.integers(0, 2**16),
    )
    def test_fused_matches_the_float64_product(self, rows, cols, bits, n, p, seed):
        # p up to 80 draws both sides of the slab crossover
        q = deco_quantize(rand((rows, cols), seed), bits, n)
        full = deco_dequantize(q).astype(np.float64)
        packed = sum(t.count for t in q.quantized_locals)
        x = rand((p, rows), seed + 1)
        meter = WorkingSetMeter()
        assert rel_err(x.astype(np.float64) @ full, fused_matmul(x, q, meter)) < 1e-4
        assert meter.peak_elements <= TILE_ELEMENTS
        assert meter.total_unpacked == packed  # every packed value decoded once
        x_t = rand((p, cols), seed + 2)
        meter_t = WorkingSetMeter()
        got_t = fused_matmul_t(x_t, q, meter_t)
        assert rel_err(x_t.astype(np.float64) @ full.T, got_t) < 1e-4
        assert meter_t.peak_elements <= TILE_ELEMENTS
        assert meter_t.total_unpacked == packed

    @pytest.mark.parametrize(
        "shape,bits",
        [((7, 301), 4), ((8, 32792), 4), ((256, 301), 2), ((256, 301), 4)],
    )
    def test_tiles_are_cast_then_scaled_codes(self, shape, bits):
        # 8 x 32792 and 256 x 301 have tiles that start mid-byte
        q = deco_quantize(rand(shape, 14), bits)
        for qt in q.quantized_locals:
            rows, cols = qt.shape[0] * qt.shape[1], qt.shape[2] * qt.shape[3]
            codes = qt.codes().reshape(rows, cols)
            seen = np.zeros((rows, cols), dtype=int)
            for rs, cs, tile in _tiles(qt, rows, cols, None):
                want = codes[rs, cs].astype(np.float64) * np.float64(qt.scale)
                assert tile.shape == want.shape
                assert tile.tobytes() == want.tobytes()
                seen[rs, cs] += 1
            assert (seen == 1).all()

    @pytest.mark.parametrize(
        "shape,bits,mid_byte",
        [((8, 32792), 4, True), ((56, 301), 4, True), ((256, 301), 2, False)],
    )
    def test_slabs_hold_each_stacked_matrix_tile(self, shape, bits, mid_byte):
        # 8 x 32792: C1 is 64 stacked 1 x 4099 matrices, each row split into
        # pieces, the odd matrices starting mid-byte; 56 x 301: 4 stacked
        # 14 x 301 matrices in tiles of 13 rows (3913 values); 256 x 301: 28
        # stacked 64 x 43 matrices, one tile each, all on byte boundaries
        q = deco_quantize(rand(shape, 14), bits)
        last = q.local_tensors[1]
        d, i1, j1, _ = last.shape
        want = last.codes().reshape(d, i1, j1).astype(np.float64)
        want *= np.float64(last.scale)
        counts = []
        meter = SimpleNamespace(record=counts.append)
        seen = np.zeros((d, i1, j1), dtype=int)
        starts = []
        for rs, cs, slab in compress._slabs(last, i1, j1, meter):
            h, w = rs.stop - rs.start, cs.stop - cs.start
            assert slab.shape == (d, h * w) and w <= TILE_ELEMENTS
            for k in range(d):
                assert slab[k].tobytes() == want[k, rs, cs].tobytes()
                starts.append(k * i1 * j1 + rs.start * j1 + cs.start)
            seen[:, rs, cs] += 1
        assert (seen == 1).all()  # every packed element gathered once
        assert len(counts) == len(starts) and sum(counts) == last.count
        assert max(counts) <= TILE_ELEMENTS
        assert any(s % (8 // bits) for s in starts) == mid_byte
        if shape == (8, 32792):
            assert j1 > TILE_ELEMENTS

    @pytest.mark.parametrize(
        "shape,slices", [((2400, 128), (64, 300, 16)), ((8, 32792), (64, 1, 4099))]
    )
    def test_tiles_walk_the_stacked_bond_slices(self, shape, slices):
        # 2400 x 128: C1 is 64 stacked 300 x 16 slices, in tiles of up to 256
        # rows, so a slice is not a whole number of tiles; 8 x 32792: 64
        # stacked 1 x 4099 slices, each row split into pieces
        q = deco_quantize(rand(shape, 14), 4)
        last = q.local_tensors[1]
        d, i1, j1, _ = last.shape
        assert (d, i1, j1) == slices
        want = last.codes().reshape(d * i1, j1).astype(np.float64)
        want *= np.float64(last.scale)
        counts = []
        seen = np.zeros((d * i1, j1), dtype=int)
        for rs, cs, tile in _tiles(last, i1, j1, SimpleNamespace(record=counts.append)):
            assert rs.start // i1 == (rs.stop - 1) // i1  # inside one slice
            assert tile.shape == want[rs, cs].shape
            assert tile.tobytes() == want[rs, cs].tobytes()
            seen[rs, cs] += 1
        assert (seen == 1).all()  # every packed element gathered once
        assert max(counts) <= TILE_ELEMENTS and sum(counts) == last.count

    def test_full_precision_first_over_partial_tiles(self):
        # 2400 x 128 takes C0 first, and its 300-row bond slices end in
        # partial tiles
        q = deco_quantize(rand((2400, 128), 1), 4)
        x = rand((3, 128), 2)
        meter = WorkingSetMeter()
        got = compress._fp_first_matmul_t(x, q, meter)
        want = x.astype(np.float64) @ deco_dequantize(q).astype(np.float64).T
        assert rel_err(want, got) < 1e-5
        assert 0 < meter.peak_elements <= TILE_ELEMENTS
        assert meter.total_unpacked == q.local_tensors[1].count
        assert fused_matmul_t(x, q).tobytes() == got.tobytes()

    def test_shape_mismatch(self):
        q = deco_quantize(rand((16, 16)), 4)
        with pytest.raises(ShapeMismatch):
            fused_matmul(rand((2, 8)), q)
        with pytest.raises(ShapeMismatch):
            fused_matmul_t(rand((2, 8)), q)


class TestFloat32Slab:
    """The slab order multiplies in float32 after scaling x, C0 and each slab
    by powers of two, so operands beyond float32's range still give a finite
    product within 1e-4 of the float64 one, and no warning."""

    def check(self, monkeypatch, x, q):
        slabs = spy_slab_matmul(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = fused_matmul(x, q)
            want = np.asarray(x, np.float64) @ deco_dequantize(q).astype(np.float64)
        assert slabs == [64]
        assert got.dtype == np.float32 and np.isfinite(got).all()
        assert rel_err(want, got) < 1e-4

    def test_operand_beyond_float32(self, monkeypatch):
        q = deco_quantize(rand((512, 512), 21) * np.float32(1e-12), 4)
        x = rand((64, 512), 22).astype(np.float64) * 1e39
        self.check(monkeypatch, x, q)

    def test_matrix_near_the_float32_maximum(self, monkeypatch):
        q = deco_quantize(rand((512, 512), 23) * np.float32(3e37), 4)
        self.check(monkeypatch, rand((64, 512), 24) * np.float32(1e-3), q)

    @pytest.mark.parametrize("bits", [2, 4, 8])
    def test_packed_scale_beyond_float32(self, monkeypatch, bits):
        # every value code * scale but 0 lies past float32's maximum, and
        # the small first core brings W back to about 1e10
        packed = deco_quantize(rand((512, 512), 25), bits).local_tensors[1]
        huge = QuantizedTensor(packed.shape, bits, 1e40, packed.payload)
        q = compress.QuantizedMpo((rand((1, 8, 8, 64), 26) * np.float32(1e-30), huge))
        self.check(monkeypatch, rand((64, 512), 27), q)


class TestCompressionReport:
    def test_default_plan_4096_b4(self):
        # ratio depends only on the stored shapes, so zeros keep this fast
        q = deco_quantize(np.zeros((4096, 4096), np.float32), 4)
        rep = compression_report(q)
        n_large = 64 * 512 * 512
        n_small = 8 * 8 * 64
        expected = (n_large * 4 + n_small * 16 + 16) / (4096 * 4096 * 16)
        assert rep.ratio == pytest.approx(expected, abs=1e-12)
        assert 0.2500 <= rep.ratio <= 0.2505
        assert rep.bytes_original == 4096 * 4096 * 2

    def test_b8_near_half(self):
        q = deco_quantize(np.zeros((4096, 4096), np.float32), 8)
        assert compression_report(q).ratio == pytest.approx(0.50, abs=5e-3)

    def test_ratio_independent_of_content(self):
        shapes = plan_shapes(512, 512, 2)
        del shapes
        a = compression_report(deco_quantize(rand((512, 512), 1), 4)).ratio
        b = compression_report(deco_quantize(np.zeros((512, 512), np.float32), 4)).ratio
        assert a == b

    def test_mu_close_to_bits_over_16_at_scale(self):
        for rows, cols in [(512, 512), (1024, 1024), (1024, 4096)]:
            q = deco_quantize(np.zeros((rows, cols), np.float32), 4)
            assert abs(compression_report(q).ratio - 4 / 16) < 0.02

    def test_bytes_compressed_counts_payload(self):
        q = deco_quantize(rand((64, 64), 4), 4)
        rep = compression_report(q)
        payload = sum(len(t.payload) for t in q.quantized_locals)
        fp = sum(t.size for t in q.fp_locals)
        assert rep.bytes_compressed == payload + 2 * len(q.quantized_locals) + 2 * fp
