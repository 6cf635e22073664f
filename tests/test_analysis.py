import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dquant import (
    deco_dequantize,
    deco_quantize,
    decomposition_comparison,
    default_suite,
    iqr_stats,
    length_sweep,
    migration_report,
    strategy_sweep,
    synth_activations,
)
from dquant.analysis import (
    ERRORS_CSV_COLUMNS,
    ErrorRecord,
    METHOD_BOTH,
    METHOD_MATRIX_RTN,
    METHOD_QR,
    METHOD_SVD,
    METHOD_TL_ONLY,
    OUTLIERS_CSV_COLUMNS,
    OutlierStats,
    _pattern_pairs,
    _quantize_larger,
    _sign_pattern,
    median_by,
    write_errors_csv,
    write_outliers_csv,
)
from dquant.compress import factorize
from dquant.errors import EmptyInput, ShapeMismatch


def iqr_oracle(values):
    """Sort-based reference with the same quantile convention."""
    s = sorted(float(v) for v in values)
    n = len(s)

    def q(p):
        pos = p * (n - 1)
        lo = int(np.floor(pos))
        hi = min(lo + 1, n - 1)
        return s[lo] + (s[hi] - s[lo]) * (pos - lo)

    q1, q3 = q(0.25), q(0.75)
    iqr = q3 - q1
    lo, hi = q1 - 1.5 * iqr, q3 + 1.5 * iqr
    return q1, q3, iqr, sum(1 for v in s if v < lo or v > hi)


class TestIqrStats:
    def test_one_to_hundred(self):
        st_ = iqr_stats(np.arange(1.0, 101.0))
        assert st_.q1 == pytest.approx(25.75)
        assert st_.q3 == pytest.approx(75.25)
        assert st_.iqr == pytest.approx(49.5)
        assert st_.outlier_count == 0

    def test_constant(self):
        st_ = iqr_stats(np.full(50, 3.25))
        assert st_.iqr == 0.0 and st_.outlier_count == 0

    def test_single_spike(self):
        values = np.zeros(100)
        values[-1] = 100.0
        st_ = iqr_stats(values)
        assert st_.outlier_count == 1

    def test_empty(self):
        with pytest.raises(EmptyInput):
            iqr_stats(np.array([]))

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.floats(-1e6, 1e6, allow_nan=False, width=32), min_size=1, max_size=200
        )
    )
    def test_matches_oracle(self, values):
        got = iqr_stats(np.array(values, dtype=np.float64))
        q1, q3, iqr, count = iqr_oracle(values)
        assert got.q1 == q1 and got.q3 == q3
        assert got.iqr == iqr and got.outlier_count == count

    def test_matches_oracle_random_lengths(self):
        rng = np.random.default_rng(0)
        for n in (1, 2, 3, 17, 333, 1000):
            v = rng.standard_normal(n) * 10
            got = iqr_stats(v)
            q1, q3, iqr, count = iqr_oracle(v)
            assert (got.q1, got.q3, got.iqr, got.outlier_count) == (q1, q3, iqr, count)


class TestSynthActivations:
    def test_plain_gaussian_when_unscaled(self):
        vals = np.concatenate(
            [synth_activations(512, 512, 8, 1.0, seed=s).ravel() for s in range(4)]
        )
        st_ = iqr_stats(vals)
        assert st_.outlier_count / st_.total_count < 0.015

    def test_no_outlier_columns(self):
        a = synth_activations(64, 64, 0, 20.0, seed=1)
        b = synth_activations(64, 64, 0, 1.0, seed=1)
        np.testing.assert_array_equal(a, b)

    def test_deterministic(self):
        a = synth_activations(128, 96, 4, 20.0, seed=5)
        b = synth_activations(128, 96, 4, 20.0, seed=5)
        assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("rows,cols,seed", [(256, 256, 2), (512, 64, 0), (33, 70, 7)])
    def test_base_columns_have_unit_rms(self, rows, cols, seed):
        m = synth_activations(rows, cols, outlier_cols=0, seed=seed).astype(np.float64)
        np.testing.assert_allclose(np.sqrt(np.mean(m * m, axis=0)), 1.0, rtol=1e-6)

    def test_scaled_columns_stand_out(self):
        m = synth_activations(256, 256, 8, 20.0, seed=2)
        col_norms = np.linalg.norm(m.astype(np.float64), axis=0)
        top = np.sort(col_norms)[-8:]
        rest = np.sort(col_norms)[:-8]
        assert top.min() > 5 * rest.max()

    @pytest.mark.parametrize(
        "outlier_cols,scale,match", [(9, 20.0, "outlier_cols"), (2, 0.5, "outlier_scale")]
    )
    def test_checks(self, outlier_cols, scale, match):
        with pytest.raises(ShapeMismatch, match=match):
            synth_activations(16, 8, outlier_cols, scale)

    def test_default_suite_shape(self):
        suite = default_suite(seeds=(3, 0))
        for seed, m in zip((3, 0), suite):
            assert m.tobytes() == synth_activations(512, 512, 8, 20.0, seed).tobytes()


class TestMigrationReport:
    def test_large_core_narrower(self):
        m = synth_activations(512, 512, 8, 20.0, seed=0)
        mat, large, small = migration_report(m)
        assert large.iqr < mat.iqr

    def test_zero_matrix(self):
        mat, large, small = migration_report(np.zeros((16, 16), np.float32))
        assert mat.iqr == large.iqr == small.iqr == 0.0

    def test_rejects_a_non_matrix(self):
        with pytest.raises(ShapeMismatch):
            migration_report(np.zeros((4, 4, 4), np.float32))

    @pytest.mark.parametrize("shape", [(512, 512), (96, 64), (7, 301), (1, 1)])
    def test_cores_are_the_chain_deco_quantize_packs(self, shape):
        m = synth_activations(*shape, min(4, shape[1]), 20.0, seed=3)
        first, last = factorize(m, 2).local_tensors
        mat, large, small = migration_report(m)
        assert (mat, large, small) == (iqr_stats(m), iqr_stats(last), iqr_stats(first))


def small_suite(n=4, rows=128, cols=128):
    return [synth_activations(rows, cols, 4, 20.0, seed=s) for s in range(n)]


class TestStrategySweep:
    def test_row_count_and_order(self):
        suite = small_suite(3)
        records = strategy_sweep(suite, (4, 8))
        assert len(records) == 3 * 3 * 2
        keys = [(r.seed, r.method, r.bits) for r in records]
        assert keys == sorted(keys)

    def test_methods_present(self):
        records = strategy_sweep(small_suite(2), (4,))
        methods = {r.method for r in records}
        assert methods == {METHOD_MATRIX_RTN, METHOD_TL_ONLY, METHOD_BOTH}

    def test_ordering_at_8_bits(self):
        med = median_by(strategy_sweep(small_suite(6), (8,)))
        assert (
            med[(METHOD_TL_ONLY, 8)]
            < med[(METHOD_BOTH, 8)]
            < med[(METHOD_MATRIX_RTN, 8)]
        )

    def test_zero_suite_degenerate(self):
        records = strategy_sweep([np.zeros((64, 64), np.float32)], (4,))
        assert all(r.frobenius_error == 0.0 for r in records)


class TestLengthSweep:
    def test_n2_equals_direct_path(self):
        from dquant import deco_dequantize, deco_quantize

        suite = small_suite(2)
        records = [r for r in length_sweep(suite, (2,), bits=4)]
        for seed, m in enumerate(suite):
            rec = deco_dequantize(deco_quantize(m, 4, n=2))
            direct = float(
                np.linalg.norm(m.astype(np.float64) - rec.astype(np.float64))
            )
            assert records[seed].frobenius_error == pytest.approx(direct, rel=1e-12)

    def test_records_per_n(self):
        records = length_sweep(small_suite(2), (2, 3, 4), bits=4)
        assert len(records) == 2 * 3
        assert {r.n for r in records} == {2, 3, 4}


class TestDecompositionComparison:
    def test_overhead_values(self):
        records = decomposition_comparison(small_suite(2), bits=4)
        by_method = {r.method: r for r in records if r.seed == 0}
        assert by_method[METHOD_SVD].param_overhead == pytest.approx(2.0)
        assert by_method[METHOD_QR].param_overhead == pytest.approx(2.0)
        assert by_method[METHOD_TL_ONLY].param_overhead < 2.0

    @pytest.mark.parametrize("bits", [2, 4, 8])
    def test_baselines_match_numpy_reference(self, bits):
        # square inputs tie and quantize b; tall ones make a the larger factor
        for suite in (small_suite(2), small_suite(2, 160, 96)):
            expected = {}
            for seed, m in enumerate(suite):
                m64 = m.astype(np.float64)
                u, s, vt = np.linalg.svd(m64, full_matrices=False)
                root = np.sqrt(s)
                for method, (a, b) in (
                    (METHOD_SVD, (u * root, root[:, None] * vt)),
                    (METHOD_QR, np.linalg.qr(m64, mode="reduced")),
                ):
                    rec, _ = _quantize_larger(m, a, b, bits)
                    expected[seed, method] = np.linalg.norm(m64 - rec)
            records = decomposition_comparison(suite, bits=bits)
            checked = 0
            for r in records:
                if r.method in (METHOD_SVD, METHOD_QR):
                    assert r.frobenius_error == pytest.approx(
                        expected[r.seed, r.method], rel=1e-5
                    )
                    checked += 1
            assert checked == 2 * len(suite)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_qr_baseline_sees_the_suite_matrix(self, dtype):
        # the SVD baseline's split runs first and consumes its input: the
        # QR record must still be the QR error of the untouched matrix
        suite = [m.astype(dtype) for m in small_suite(2, 64, 64)]
        kept = [m.copy() for m in suite]
        records = decomposition_comparison(suite, bits=4)
        for r in records:
            if r.method == METHOD_QR:
                m = kept[r.seed]
                fresh = m.astype(np.float64)
                rec, _ = _quantize_larger(m, *np.linalg.qr(fresh, mode="reduced"), 4)
                assert r.frobenius_error == np.linalg.norm(fresh - rec)
        for m, k in zip(suite, kept):
            np.testing.assert_array_equal(m, k)

    def test_chain_wins_on_suite(self):
        med = median_by(decomposition_comparison(small_suite(6), bits=4))
        assert med[(METHOD_TL_ONLY, 4)] < med[(METHOD_SVD, 4)]
        assert med[(METHOD_TL_ONLY, 4)] < med[(METHOD_QR, 4)]


class TestCsvWriters:
    def test_outliers_schema_and_determinism(self, tmp_path):
        m = synth_activations(128, 128, 4, 20.0, seed=3)
        rows = list(zip(("matrix", "t_large", "t_small"), migration_report(m)))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_outliers_csv(rows, p1)
        write_outliers_csv(rows, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert p1.read_text().splitlines()[0] == ",".join(OUTLIERS_CSV_COLUMNS)

    def test_outliers_bytes(self, tmp_path):
        rows = [
            ("matrix", OutlierStats(0.1 + 0.2, -0.0, 1e-300, 0.0, 0.0, 3, 7)),
            ("t_large",
             OutlierStats(np.float64(0.1), float("nan"), float("inf"), 0, 0, 0, 1)),
        ]
        path = tmp_path / "outliers.csv"
        write_outliers_csv(rows, path)
        assert path.read_bytes() == (
            b"tensor_label,q1,q3,iqr,outlier_count,total\r\n"
            b"matrix,0.30000000000000004,-0.0,1e-300,3,7\r\n"
            b"t_large,0.1,nan,inf,0,1\r\n"
        )

    def test_errors_bytes(self, tmp_path):
        records = [
            ErrorRecord(METHOD_TL_ONLY, 4, 2, 0, 0.1 + 0.2, -0.0, 1e-300),
            ErrorRecord(METHOD_QR, 8, 3, 5, float("nan"), float("inf"), 0.5),
        ]
        path = tmp_path / "errors.csv"
        write_errors_csv(records, path)
        assert path.read_bytes() == (
            b"method,bits,n,seed,frobenius_error,relative_error,param_overhead\r\n"
            + f"{METHOD_TL_ONLY},4,2,0,0.30000000000000004,-0.0,1e-300\r\n".encode()
            + f"{METHOD_QR},8,3,5,nan,inf,0.5\r\n".encode()
        )

    def test_errors_schema(self, tmp_path):
        records = strategy_sweep(small_suite(1), (4,))
        path = tmp_path / "errors.csv"
        write_errors_csv(records, path)
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(ERRORS_CSV_COLUMNS)
        assert len(lines) == 1 + len(records)


def round_trip_errors(m, bits, n):
    """Frobenius and relative error of deco_quantize then deco_dequantize."""
    m64 = np.asarray(m, np.float64)
    rec = deco_dequantize(deco_quantize(m, bits, n)).astype(np.float64)
    err = float(np.linalg.norm(m64 - rec))
    return err, err / float(np.linalg.norm(m64))


class TestTlOnlyIsTheShippedRule:
    @pytest.mark.parametrize("bits", [2, 4, 8])
    def test_every_sweep_measures_deco_quantize(self, bits):
        suite = small_suite(2, 96, 64)
        records = [
            *strategy_sweep(suite, (bits,)),
            *length_sweep(suite, (2, 3, 4), bits=bits),
            *decomposition_comparison(suite, bits=bits),
        ]
        tl_only = [r for r in records if r.method == METHOD_TL_ONLY]
        assert sorted(r.n for r in tl_only) == [2] * 6 + [3] * 2 + [4] * 2
        for r in tl_only:
            assert r.bits == bits
            assert (r.frobenius_error, r.relative_error) == round_trip_errors(
                suite[r.seed], bits, r.n
            )


class TestSignPatterns:
    SIZES = (1, 2, 3, 37, 64, 100, 301, 512, 599)

    def test_pattern_pairs_take_zero_or_powers_of_two(self):
        for rows in self.SIZES:
            for cols in self.SIZES:
                for pair in _pattern_pairs(rows, cols, 10**6):
                    for idx in pair:
                        assert idx & (idx - 1) == 0, (rows, cols, idx)

    @pytest.mark.parametrize("n", [1, 3, 37, 100, 301])
    def test_walsh_parity(self, n):
        used = {r for r, _ in _pattern_pairs(n, n, 10**6)}
        for idx in used | {1 << k for k in range(11)}:
            got = _sign_pattern(idx, n)
            expected = [(-1.0) ** bin(t & idx).count("1") for t in range(n)]
            assert got.dtype == np.float64
            np.testing.assert_array_equal(got, expected)
