import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dquant import QuantizedTensor, dequantize, pack, quantize_rtn, unpack
from dquant.errors import (
    CorruptPayload,
    NonFiniteInput,
    RangeOverflow,
    ShapeMismatch,
    UnsupportedBits,
)
from dquant.compress import deco_quantize, factorize
from dquant.quantize import CODE_TABLES, QUANT_BLOCK, SUPPORTED_BITS, unpack_range


def rtn_oracle(values, bits):
    """Brute-force per-element reference for the symmetric quantizer."""
    qmax = 2 ** (bits - 1) - 1
    amax = max(abs(float(v)) for v in values) if len(values) else 0.0
    scale = np.float32(amax / qmax) if amax > 0 else np.float32(1.0)
    if amax == 0.0 or float(scale) == 0.0:
        return 1.0, [0] * len(values)
    codes = []
    for v in values:
        y = float(v) * qmax / amax
        q = math.copysign(math.floor(abs(y) + 0.5), y)
        codes.append(int(max(-qmax, min(qmax, q))))
    return float(scale), codes


class TestQuantizeRtn:
    def test_worked_example(self):
        t = np.array([[1, -2], [3, -4]], dtype=np.float32)
        q = quantize_rtn(t, 4)
        assert q.scale == pytest.approx(4 / 7)
        np.testing.assert_array_equal(q.codes().reshape(2, 2), [[2, -4], [5, -7]])

    def test_all_zero(self):
        q = quantize_rtn(np.zeros((3, 3), np.float32), 8)
        assert q.scale == 1.0
        assert not q.codes().any()

    def test_max_maps_to_qmax(self):
        q = quantize_rtn(np.array([[127.0]], dtype=np.float32), 8)
        assert q.scale == 1.0
        assert q.codes().tolist() == [127]

    @pytest.mark.parametrize("bits", [2, 4, 8])
    def test_matches_oracle(self, bits):
        rng = np.random.default_rng(bits)
        t = (rng.standard_normal(2000) * rng.choice([0.1, 1, 30], 2000)).astype(
            np.float32
        )
        q = quantize_rtn(t, bits)
        scale, codes = rtn_oracle(t, bits)
        assert q.scale == scale
        assert q.codes().tolist() == codes

    def test_bad_bits(self):
        with pytest.raises(UnsupportedBits):
            quantize_rtn(np.ones(3, np.float32), 3)

    def test_nonfinite(self):
        with pytest.raises(NonFiniteInput):
            quantize_rtn(np.array([np.inf], dtype=np.float32), 8)


class TestBitWidthRule:
    @pytest.mark.parametrize("bits", [4.0, 2.0, "4", None, 4.5])
    def test_non_integer_widths_raise_unsupported_bits(self, bits):
        t = np.arange(-3, 4, dtype=np.float32)
        calls = [
            lambda: quantize_rtn(t, bits),
            lambda: pack([1, -1], bits),
            lambda: unpack(b"\xf1", 2, bits),
            lambda: unpack_range(b"\xf1", 0, 2, bits),
            lambda: QuantizedTensor((2,), bits, 1.0, b"\xf1"),
            lambda: deco_quantize(np.eye(16, dtype=np.float32), bits),
        ]
        for call in calls:
            with pytest.raises(UnsupportedBits):
                call()

    @pytest.mark.parametrize("bits", SUPPORTED_BITS)
    @pytest.mark.parametrize("kind", [np.int8, np.int16, np.int64, np.uint8])
    def test_numpy_integer_widths_act_as_ints(self, bits, kind):
        t = np.random.default_rng(bits).standard_normal(37).astype(np.float32)
        want = quantize_rtn(t, bits)
        got = quantize_rtn(t, kind(bits))
        assert got == want and type(got.bits) is int
        codes = want.codes()
        assert pack(codes, kind(bits)) == want.payload
        np.testing.assert_array_equal(unpack(want.payload, t.size, kind(bits)), codes)
        np.testing.assert_array_equal(
            unpack_range(want.payload, 3, 20, kind(bits)), codes[3:23]
        )
        q = QuantizedTensor(want.shape, kind(bits), want.scale, want.payload)
        assert q == want and type(q.bits) is int


class TestDequantize:
    def test_zero_roundtrip_exact(self):
        t = np.zeros((2, 5), np.float32)
        np.testing.assert_array_equal(dequantize(quantize_rtn(t, 4)), t)

    def test_multiply_out_oracle(self):
        q = QuantizedTensor(
            shape=(2, 2), bits=4, scale=4 / 7, payload=pack([2, -4, 5, -7], 4)
        )
        expected = np.float32(4 / 7) * np.array(
            [[2, -4], [5, -7]], dtype=np.float32
        )
        np.testing.assert_array_equal(dequantize(q), expected)

    @pytest.mark.parametrize("bits", [2, 4, 8])
    def test_rounding_bound(self, bits):
        t = np.random.default_rng(7).standard_normal((40, 40)).astype(np.float32)
        q = quantize_rtn(t, bits)
        err = np.abs(t - dequantize(q)).max()
        assert err <= q.scale / 2 * (1 + 1e-6)

    def test_error_monotone_in_bits(self):
        t = np.random.default_rng(9).standard_normal((64, 64)).astype(np.float32)
        errs = [
            np.linalg.norm(t - dequantize(quantize_rtn(t, b))) for b in (8, 4, 2)
        ]
        assert errs[0] <= errs[1] <= errs[2]

    def test_scale_correctness(self):
        t = np.random.default_rng(3).standard_normal(500).astype(np.float32)
        for bits in (2, 4, 8):
            d = dequantize(quantize_rtn(t, bits))
            bound = np.abs(t).max() * (1 + 1 / (2 ** (bits - 1) - 1))
            assert np.abs(d).max() <= bound * (1 + 1e-6)

    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from(SUPPORTED_BITS),
        st.data(),
        st.one_of(
            st.floats(min_value=0, max_value=2.0**-120, exclude_min=True, width=32),
            st.floats(min_value=2.0**120, allow_infinity=False, width=32),
            st.floats(min_value=0, exclude_min=True, allow_infinity=False, width=32),
        ),
    )
    def test_is_the_float32_multiply(self, bits, data, scale):
        # the exact float64 table value rounds once, as the float32 product does
        qmax = 2 ** (bits - 1) - 1
        shape = (data.draw(st.integers(1, 4)), data.draw(st.integers(1, 20)))
        size = shape[0] * shape[1]
        values = data.draw(
            st.lists(st.integers(-qmax, qmax), min_size=size, max_size=size)
        )
        q = QuantizedTensor(shape, bits, float(scale), pack(values, bits))
        with np.errstate(over="ignore"):  # near float32 max, both overflow to inf
            want = (q.codes().astype(np.float32) * np.float32(q.scale)).reshape(q.shape)
            got = dequantize(q)
        assert got.dtype == np.float32
        assert got.tobytes() == want.tobytes()

    def test_corrupt_payload(self):
        with pytest.raises(CorruptPayload):
            QuantizedTensor(shape=(2, 2), bits=4, scale=1.0, payload=b"\x00")

    @pytest.mark.parametrize("scale", [math.nan, math.inf])
    def test_non_finite_scale(self, scale):
        with pytest.raises(CorruptPayload):
            QuantizedTensor(shape=(2,), bits=4, scale=scale, payload=b"\x00")

    def test_count_is_exact(self):
        # 2**80 and 2**64 elements: a count that wrapped in int64 would be 0,
        # which an empty payload fits
        for shape in ((2**40, 2**40), (2**62, 4)):
            with pytest.raises(CorruptPayload):
                QuantizedTensor(shape=shape, bits=4, scale=1.0, payload=b"")
        assert QuantizedTensor((), 4, 1.0, b"\x00").count == 1
        assert QuantizedTensor((0, 5), 4, 1.0, b"").count == 0


class TestPacking:
    def test_layout_4bit(self):
        assert pack([1, -1], 4) == b"\xf1"

    def test_layout_8bit(self):
        assert pack([-7], 8) == b"\xf9"

    def test_layout_2bit(self):
        assert pack([1, 0, -1, 1], 2) == bytes([0b01_11_00_01])

    def test_exhaustive_2bit_quads(self):
        vals = (-1, 0, 1)
        for a in vals:
            for b in vals:
                for c in vals:
                    for d in vals:
                        quad = [a, b, c, d]
                        assert unpack(pack(quad, 2), 4, 2).tolist() == quad

    def test_exhaustive_4bit_pairs(self):
        for a in range(-7, 8):
            for b in range(-7, 8):
                assert unpack(pack([a, b], 4), 2, 4).tolist() == [a, b]

    @given(st.lists(st.integers(-7, 7), max_size=40))
    def test_roundtrip_4bit(self, values):
        assert unpack(pack(values, 4), len(values), 4).tolist() == values

    @given(st.lists(st.integers(-127, 127), max_size=40))
    def test_roundtrip_8bit(self, values):
        assert unpack(pack(values, 8), len(values), 8).tolist() == values

    def test_range_overflow(self):
        with pytest.raises(RangeOverflow):
            pack([8], 4)
        with pytest.raises(RangeOverflow):
            pack([-8], 4)  # the most negative code is excluded

    def test_unpack_length_check(self):
        with pytest.raises(CorruptPayload):
            unpack(b"\x00", 5, 4)

    @pytest.mark.parametrize("bits", [2, 4, 8])
    def test_unpack_refuses_a_payload_longer_than_count_needs(self, bits):
        payload = pack([1, -1, 1], bits)
        assert unpack(payload, 3, bits).tolist() == [1, -1, 1]
        with pytest.raises(CorruptPayload, match="expected"):
            unpack(payload + b"\x00", 3, bits)

    @pytest.mark.parametrize("bits", [2, 4, 8])
    def test_unpack_range_matches_slices(self, bits):
        rng = np.random.default_rng(bits)
        qmax = 2 ** (bits - 1) - 1
        values = rng.integers(-qmax, qmax + 1, size=101).tolist()
        payload = pack(values, bits)
        full = unpack(payload, len(values), bits)
        for start, count in [(0, 7), (3, 11), (50, 51), (97, 4), (0, 101)]:
            got = unpack_range(payload, start, count, bits)
            np.testing.assert_array_equal(got, full[start : start + count])


def one_shot_rtn(t, bits):
    """quantize_rtn as one full-size float64 pass, packed through int64 codes."""
    qmax = 2 ** (bits - 1) - 1
    t = np.asarray(t)
    amax = float(np.max(np.abs(t))) if t.size else 0.0
    scale = np.float32(amax / qmax) if amax > 0 else np.float32(1.0)
    if amax == 0.0 or float(scale) == 0.0:
        scale, codes = np.float32(1.0), np.zeros(t.size, dtype=np.int64)
    else:
        y = np.asarray(t, dtype=np.float64).ravel() * qmax / amax
        codes = np.clip(np.copysign(np.floor(np.abs(y) + 0.5), y), -qmax, qmax)
        codes = codes.astype(np.int64)
    per = 8 // bits
    lanes = np.zeros(-(-codes.size // per) * per, dtype=np.int64)
    lanes[: codes.size] = codes & ((1 << bits) - 1)
    shifted = lanes.reshape(-1, per) << (bits * np.arange(per))
    return float(scale), shifted.sum(axis=1).astype(np.uint8).tobytes()


finite_f32 = st.floats(
    width=32, allow_nan=False, allow_infinity=False, allow_subnormal=True
)


class TestBlockedParity:
    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from(SUPPORTED_BITS),
        hnp.arrays(
            np.float32,
            hnp.array_shapes(min_dims=0, max_dims=3, min_side=0),
            elements=finite_f32,
        ),
    )
    def test_matches_one_shot_formula(self, bits, t):
        q = quantize_rtn(t, bits)
        assert (q.scale, q.payload) == one_shot_rtn(t, bits)

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(SUPPORTED_BITS),
        st.sampled_from(
            [QUANT_BLOCK - 1, QUANT_BLOCK, QUANT_BLOCK + 1, 2 * QUANT_BLOCK + 3]
        ),
        st.integers(-140, 120),
        st.integers(0, 2**32 - 1),
    )
    def test_exact_ties_either_side_of_a_block(self, bits, size, exponent, seed):
        # t = k * 2**exponent with max |k| = 2 qmax is exact in float32, and
        # y = t * qmax / amax = k / 2, so every odd k is an exact tie
        qmax = 2 ** (bits - 1) - 1
        rng = np.random.default_rng(seed)
        k = rng.integers(-2 * qmax, 2 * qmax + 1, size)
        k[rng.integers(size)] = 2 * qmax * rng.choice([-1, 1])
        t = np.ldexp(k, exponent).astype(np.float32)
        q = quantize_rtn(t, bits)
        assert (q.scale, q.payload) == one_shot_rtn(t, bits)
        ties = k % 2 == 1  # rounded half away from zero
        expected = np.sign(k[ties]) * ((np.abs(k[ties]) + 1) // 2)
        np.testing.assert_array_equal(q.codes()[ties], expected)

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(SUPPORTED_BITS),
        st.one_of(
            st.integers(1, 70),
            st.sampled_from(
                [QUANT_BLOCK - 1, QUANT_BLOCK, QUANT_BLOCK + 1, 2 * QUANT_BLOCK + 3]
            ),
        ),
        st.sampled_from([1e-30, 1.0, 1e30]),
        st.integers(0, 2**32 - 1),
    )
    def test_regauged_input_skips_the_division(self, bits, size, spread, seed):
        # scaled in float32 to max |t| == 1.0, as _regauge leaves a packed
        # core, so quantize_rtn takes its path without the division by amax
        rng = np.random.default_rng(seed)
        raw = (rng.standard_normal(size) * spread).astype(np.float32)
        t = raw / np.float32(np.abs(raw).max())
        assert t.dtype == np.float32 and np.abs(t).max() == 1.0
        q = quantize_rtn(t, bits)
        assert (q.scale, q.payload) == one_shot_rtn(t, bits)

    @pytest.mark.parametrize("shape,n", [((64, 48), 2), ((120, 72), 3), ((7, 301), 2)])
    @pytest.mark.parametrize("bits", SUPPORTED_BITS)
    def test_deco_quantize_packs_the_regauged_cores(self, shape, n, bits):
        m = np.random.default_rng(3).standard_normal(shape).astype(np.float32)
        packed = deco_quantize(m, bits, n).local_tensors[1:]
        cores = factorize(m, n).local_tensors[1:]
        assert len(packed) == len(cores) == n - 1
        for qt, core in zip(packed, cores):
            want = quantize_rtn(core, bits)
            assert (qt.shape, qt.scale, qt.payload) == (
                want.shape, want.scale, want.payload
            )

    @given(st.sampled_from(SUPPORTED_BITS), st.data())
    def test_pack_unpack_roundtrip(self, bits, data):
        qmax = 2 ** (bits - 1) - 1
        values = data.draw(st.lists(st.integers(-qmax, qmax), max_size=70))
        payload = pack(values, bits)
        assert payload == pack(np.array(values, dtype=np.int8), bits)
        assert len(payload) == (len(values) * bits + 7) // 8
        assert unpack(payload, len(values), bits).tolist() == values

    @pytest.mark.parametrize(
        "values,bits",
        [([300], 8), ([-300], 8), ([-128], 8), ([8], 4), ([2], 2), ([-2], 2)],
    )
    def test_pack_checks_range_before_narrowing(self, values, bits):
        with pytest.raises(RangeOverflow):
            pack(values, bits)
        with pytest.raises(RangeOverflow):
            pack(np.array(values, dtype=np.int64), bits)


class TestCodeTables:
    def test_negative_count_raises(self):
        payload = pack(list(range(-7, 8)) + [0], 4)
        with pytest.raises(CorruptPayload):
            unpack_range(payload, 5, -3, 4)
        with pytest.raises(CorruptPayload):
            unpack_range(pack([1, -1, 0, 1], 2), 0, -1, 2)
        with pytest.raises(CorruptPayload):
            unpack_range(pack([1, -1], 8), 1, -1, 8)

    @pytest.mark.parametrize("bits", SUPPORTED_BITS)
    def test_start_and_count_must_be_integers(self, bits):
        payload = pack([1, -1, 0, 1], bits)
        for start, count in [(1.5, 2), (1, 2.0), (0.0, 4), (1, "2"), (None, 1)]:
            with pytest.raises(ShapeMismatch):
                unpack_range(payload, start, count, bits)
        for count in (4.0, 4.5, "4", None):
            with pytest.raises(ShapeMismatch):
                unpack(payload, count, bits)
        got = unpack_range(payload, np.int64(1), np.int32(2), bits)
        assert got.tolist() == [-1, 0]

    @pytest.mark.parametrize("bits", SUPPORTED_BITS)
    def test_rows_are_the_codes_of_each_byte(self, bits):
        table = CODE_TABLES[bits]
        assert table.shape == (256, 8 // bits) and table.dtype == np.int8
        assert not table.flags.writeable
        qmax = 2 ** (bits - 1) - 1
        for b in range(256):
            lanes = [(b >> (bits * i)) & ((1 << bits) - 1) for i in range(8 // bits)]
            signed = [v - (1 << bits) if v >> (bits - 1) else v for v in lanes]
            assert table[b].tolist() == signed
            if max(map(abs, signed)) <= qmax:  # -2**(bits-1) is never packed
                assert pack(table[b], bits) == bytes([b])
        np.testing.assert_array_equal(CODE_TABLES[4][0xF1], [1, -1])

    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from(SUPPORTED_BITS),
        st.data(),
        st.floats(min_value=0, exclude_min=True, allow_infinity=False, width=32),
    )
    def test_scaled_table_is_cast_then_scale(self, bits, data, scale):
        qmax = 2 ** (bits - 1) - 1
        values = data.draw(st.lists(st.integers(-qmax, qmax), max_size=70))
        start = data.draw(st.integers(0, len(values)))
        count = data.draw(st.integers(0, len(values) - start))
        payload = pack(values, bits)
        s64 = np.float64(np.float32(scale))
        got = unpack_range(payload, start, count, bits, CODE_TABLES[bits] * s64)
        codes = unpack_range(payload, start, count, bits)
        assert got.dtype == np.float64
        assert got.tobytes() == (codes.astype(np.float64) * s64).tobytes()

    @pytest.mark.parametrize("bits", SUPPORTED_BITS)
    def test_gather_into_out_matches_a_fresh_gather(self, bits):
        # (0, 80) and (4, 64) start and end on byte boundaries at every width;
        # the others fall back to a fresh gather copied into out
        payload = pack([(k % 3) - 1 for k in range(101)], bits)
        table = CODE_TABLES[bits] * np.float64(0.375)
        for start, count in [(0, 80), (4, 64), (3, 11), (1, 100), (50, 0)]:
            out = np.full(count, np.nan)
            got = unpack_range(payload, start, count, bits, table, out)
            assert got is out
            want = unpack_range(payload, start, count, bits, table)
            assert out.tobytes() == want.tobytes()

    @pytest.mark.parametrize("bits", SUPPORTED_BITS)
    def test_out_must_be_count_values_of_the_table_dtype(self, bits):
        payload = pack([(k % 3) - 1 for k in range(40)], bits)
        scaled = CODE_TABLES[bits] * np.float64(0.375)
        for table, out in [
            (None, np.zeros(5, np.int8)),  # too few for 10 elements
            (None, np.zeros(10)),  # float64 for the int8 code table
            (scaled, np.zeros(11)),
            (scaled, np.zeros(10, np.float32)),
            (scaled, np.zeros((2, 5))),
            (scaled, np.zeros((2, 8))[:, :5]),  # an aligned gather would fill a copy
        ]:
            with pytest.raises(ShapeMismatch):
                unpack_range(payload, 4, 10, bits, table, out)
            assert not out.any()  # refused before the gather
        out = np.zeros(10, np.int8)
        assert unpack_range(payload, 4, 10, bits, None, out) is out

    @pytest.mark.parametrize("bits", SUPPORTED_BITS)
    def test_codes_are_a_fresh_writable_array(self, bits):
        payload = pack([1, -1] * 40, bits)
        view = np.frombuffer(payload, dtype=np.uint8)
        for codes in (unpack(payload, 80, bits), unpack_range(payload, 0, 80, bits)):
            assert codes.dtype == np.int8 and codes.flags.writeable
            assert not np.shares_memory(codes, view)
