"""Every argument rule, at every site that takes the argument.

quantize._check_bits, quantize._check_size and quantize._check_dtype are
the rules. Each site checks before any work: a bad argument raises a typed
DquantError, never a raw numpy or Python error or a warning, and the CLI
maps it to exit 3.
"""

import argparse
import re
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dquant import (
    CacheConfig,
    KvCache,
    QuantizedTensor,
    cli,
    compress,
    formats,
    iqr_stats,
    mpo,
    pack,
    quantize,
    simulate_generation,
    synth_activations,
)
from dquant.cli import main
from dquant.errors import (
    CorruptPayload,
    NonFiniteInput,
    RangeOverflow,
    ShapeMismatch,
    UnsupportedBits,
    UnsupportedDtype,
)
from dquant.kvcache import _check_invariants


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def kv(rows, dim, seed=0):
    rng = np.random.default_rng(seed)
    return (
        rng.standard_normal((rows, dim)).astype(np.float32),
        rng.standard_normal((rows, dim)).astype(np.float32),
    )


def test_both_rules_live_in_quantize():
    assert mpo._check_size is quantize._check_size
    assert not hasattr(cli, "SUPPORTED_BITS")


class TestCliHandlersRaise:
    """A handler raises; only main turns the failure into an exit code."""

    @pytest.mark.parametrize(
        "handler,args,error",
        [
            (cli.cmd_quantize, dict(bits=3, n=2), UnsupportedBits),
            (cli.cmd_quantize, dict(bits=4, n=1), ShapeMismatch),
            (cli.cmd_analyze_outliers, dict(n=3), ShapeMismatch),
            (cli.cmd_bench, dict(bits="4,5", seeds=1), UnsupportedBits),
            (cli.cmd_bench, dict(bits="4,x", seeds=1), UnsupportedBits),
            (cli.cmd_bench, dict(bits="4", seeds=0), ShapeMismatch),
            (cli.cmd_import_raw, dict(rows=2, cols=0), ShapeMismatch),
            (cli.cmd_kv_sim, dict(seed=-1), ShapeMismatch),
        ],
        ids=["quantize-bits", "quantize-n", "outliers-n", "bench-bits",
             "bench-parse", "bench-seeds", "import-raw-cols", "kv-sim-seed"],
    )
    def test_bad_parameter_raises(self, tmp_path, monkeypatch, handler, args, error):
        monkeypatch.chdir(tmp_path)
        defaults = dict(
            input="missing.dqt", out="out.dqz", csv="out.csv", experiment="strategies",
            verbose=False, bits=4, n=2, seeds=1, rows=2, cols=2, layers=1, dim=8,
            prompt_len=4, gen_len=1, chunk=4, seed=0, audit=False,
        )
        with pytest.raises(error):
            handler(argparse.Namespace(**{**defaults, **args}))
        assert list(tmp_path.iterdir()) == []

    def test_analyze_outliers_message_names_n2(self):
        with pytest.raises(ShapeMismatch, match="n=2"):
            cli.cmd_analyze_outliers(argparse.Namespace(n=3, input="x", csv="y"))

    @pytest.mark.parametrize(
        "argv,word",
        [
            (["quantize", "--input", "m.dqt", "--bits", "3", "--out", "m.dqz"], "bits"),
            (["bench", "--experiment", "nonsense", "--bits", "4,x", "--csv", "x.csv"],
             "bits"),
            (["import-raw", "--input", "m.bin", "--rows", "4", "--cols", "0",
              "--out", "m.dqt"], "cols"),
        ],
        ids=["quantize-bits3", "bench-unparsed-bits", "import-raw-cols"],
    )
    def test_exit_3_before_any_file(self, tmp_path, capsys, monkeypatch, argv, word):
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, *argv)
        assert code == 3
        assert out == "" and err.startswith("error: ") and word in err
        assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("seed", ["-1", "-7"])
def test_kv_sim_negative_seed_exits_3_with_one_error_line(tmp_path, capsys, seed):
    csv_path = tmp_path / "t.csv"
    code, out, err = run(
        capsys, "kv-sim", "--layers", "1", "--dim", "8", "--prompt-len", "4",
        "--gen-len", "1", "--seed", seed, "--csv", str(csv_path),
    )
    assert code == 3
    assert out == ""
    assert err.splitlines() == [f"error: seed must be an integer >= 0, got {seed}"]
    assert "Traceback" not in err
    assert not csv_path.exists()


class TestSimulateGeneration:
    @pytest.mark.parametrize(
        "args,word",
        [
            (dict(prompt_len=2.5, gen_len=0), "lengths"),
            (dict(prompt_len=4, gen_len=-1), "lengths"),
            (dict(prompt_len=4, gen_len=1.0), "lengths"),
            (dict(prompt_len=4, gen_len=1, seed=-1), "seed"),
            (dict(prompt_len=4, gen_len=1, seed=1.5), "seed"),
        ],
    )
    def test_bad_argument_raises_shape_mismatch(self, args, word):
        with pytest.raises(ShapeMismatch, match=word):
            simulate_generation(CacheConfig(layers=1, dim=8, bits=4, chunk_len=4), **args)

    def test_numpy_integer_lengths_and_seed_work(self):
        cfg = CacheConfig(layers=1, dim=8, bits=4, chunk_len=4)
        want = simulate_generation(cfg, 6, 5, seed=3, audit=True)
        got = simulate_generation(cfg, np.int64(6), np.int32(5), seed=np.uint8(3), audit=True)
        assert got == want


class TestFullPrecisionPrefill:
    @pytest.mark.parametrize("bits", [None, 4])
    @pytest.mark.parametrize("side", ["key", "value"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_prompt_is_refused_and_stores_nothing(self, bits, side, bad):
        cache = KvCache(CacheConfig(layers=1, dim=8, bits=bits, chunk_len=4))
        k, v = kv(6, 8, 4)
        k_bad, v_bad = k.copy(), v.copy()
        (k_bad if side == "key" else v_bad)[1, 2] = bad
        with pytest.raises(NonFiniteInput):
            cache.prefill(0, k_bad, v_bad)
        lc = cache.layers[0]
        assert lc.tokens == 0 and not lc.key_segments and not lc.value_segments
        assert cache.ledger().bytes_actual == 0
        cache.prefill(0, k, v)
        _check_invariants(cache, 6)
        assert np.isfinite(cache.attention_scores(0, k[0])).all()
        if bits is None:
            np.testing.assert_array_equal(cache.read_keys(0), k)


class TestQuantizedTensorArguments:
    @pytest.mark.parametrize("shape", [(2.5,), (-1,), (2, None)])
    def test_bad_dimension_raises_shape_mismatch(self, shape):
        with pytest.raises(ShapeMismatch, match="dimension"):
            QuantizedTensor(shape, 4, 1.0, b"\x00")

    def test_numpy_integer_dimensions_are_stored_as_ints(self):
        q = QuantizedTensor((np.int64(2), np.uint16(3)), 4, 1.0, bytes(3))
        assert q.shape == (2, 3) and all(type(d) is int for d in q.shape)

    @pytest.mark.parametrize("payload", ["\x00", bytearray(b"\x00"), [0], None])
    def test_payload_that_is_not_bytes_raises_corrupt_payload(self, payload):
        with pytest.raises(CorruptPayload, match="bytes"):
            QuantizedTensor((2,), 4, 1.0, payload)


class TestPackInputs:
    @pytest.mark.parametrize(
        "values", [[0.5, 1.7], [1.0, np.nan], [np.nan], np.array([0.25], np.float32)]
    )
    def test_non_integer_values_raise_range_overflow(self, values):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RangeOverflow, match="integers"):
                pack(values, 4)

    @pytest.mark.parametrize("values", [["1"], [1 + 1j]])
    def test_non_numeric_values_raise_range_overflow(self, values):
        with pytest.raises(RangeOverflow):
            pack(values, 4)

    def test_integer_inputs_keep_their_bytes(self):
        assert pack([1, -1], 4) == b"\xf1"
        assert pack(np.array([1, -1], np.int8), 4) == b"\xf1"
        assert pack([1.0, -1.0], 4) == b"\xf1"
        assert pack([], 2) == b""

    @given(st.sampled_from([2, 4, 8]), st.data())
    def test_every_integer_dtype_packs_alike(self, bits, data):
        qmax = (1 << (bits - 1)) - 1
        values = data.draw(st.lists(st.integers(-qmax, qmax), max_size=40))
        want = pack(values, bits)
        for dtype in (np.int8, np.int16, np.int64, np.float32, np.float64):
            assert pack(np.array(values, dtype=dtype), bits) == want


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_iqr_stats_refuses_non_finite_values(bad):
    with pytest.raises(NonFiniteInput):
        iqr_stats([1.0, bad, 3.0])


class TestSynthActivations:
    @pytest.mark.parametrize(
        "args,word",
        [
            (dict(rows=16, cols=8, outlier_cols=-1), "outlier_cols"),
            (dict(rows=16, cols=8, outlier_cols=1.5), "outlier_cols"),
            (dict(rows=8.5, cols=8), "rows"),
            (dict(rows=16, cols=0, outlier_cols=0), "cols"),
            (dict(rows=16, cols=8, seed=-1), "seed"),
            (dict(rows=16, cols=8, seed=0.5), "seed"),
            (dict(rows=16, cols=8, outlier_scale=np.nan), "outlier_scale"),
            (dict(rows=16, cols=8, outlier_scale=np.inf), "outlier_scale"),
            (dict(rows=16, cols=8, outlier_scale="x"), "outlier_scale"),
        ],
    )
    def test_bad_argument_raises_shape_mismatch(self, args, word):
        with pytest.raises(ShapeMismatch, match=word):
            synth_activations(**args)

    def test_numpy_integer_arguments_work(self):
        want = synth_activations(16, 8, 2, 20.0, seed=5)
        got = synth_activations(np.int64(16), np.int32(8), np.int8(2), 20.0, seed=np.int64(5))
        np.testing.assert_array_equal(got, want)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "call",
    [compress.factorize, lambda m: compress.deco_quantize(m, 4)],
    ids=["factorize", "deco_quantize"],
)
def test_float64_beyond_float32_range_is_refused_without_a_warning(call):
    with pytest.raises(NonFiniteInput):
        call(np.full((4, 4), 1e39))


class TestDecoQuantizeChecksBitsFirst:
    @pytest.mark.parametrize("bits", [3, 4.0, None])
    def test_bad_width_raises_before_factorize(self, monkeypatch, bits):
        def no_factorize(*args, **kwargs):
            raise AssertionError("factorize ran before the width check")

        monkeypatch.setattr(compress, "factorize", no_factorize)
        m = np.ones((16, 16), np.float32)
        with pytest.raises(UnsupportedBits):
            compress.deco_quantize(m, bits)

    def test_numpy_integer_width_works(self):
        m = synth_activations(32, 32, 2, seed=1)
        want = compress.deco_quantize(m, 4)
        got = compress.deco_quantize(m, np.int64(4), n=np.int8(2))
        assert got.bits == 4 and type(got.bits) is int
        for a, b in zip(want.local_tensors, got.local_tensors):
            if isinstance(a, QuantizedTensor):
                assert a == b
            else:
                np.testing.assert_array_equal(a, b)


def dtype_sites():
    """Each array entry point, fed a 16 x 16 array (or its first row)."""
    q = compress.deco_quantize(synth_activations(16, 16, 2, seed=1), 4)
    cache = KvCache(CacheConfig(1, 16, 4))
    cache.prefill(0, *kv(16, 16))
    return {
        "factorize": compress.factorize,
        "decompose": lambda a: mpo.decompose(a, mpo.plan_shapes(16, 16, 2)),
        "iqr_stats": iqr_stats,
        "quantize_rtn": lambda a: quantize.quantize_rtn(a, 4),
        "fused_matmul": lambda a: compress.fused_matmul(a, q),
        "fused_matmul_t": lambda a: compress.fused_matmul_t(a, q),
        "prefill": lambda a: KvCache(CacheConfig(1, 16, 4)).prefill(0, a, a),
        "append_token": lambda a: cache.append_token(0, a[0], a[0]),
        "attention_scores": lambda a: cache.attention_scores(0, a[0]),
    }


DTYPE_SITES = list(dtype_sites())


class TestDtypeRule:
    """One rule refuses every array that is not bool, int or float."""

    def refused(self, site, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a ComplexWarning fails too
            with pytest.raises(UnsupportedDtype, match=str(bad.dtype)):
                dtype_sites()[site](bad)

    @pytest.mark.parametrize("site", DTYPE_SITES)
    def test_strings_are_refused(self, site):
        self.refused(site, np.full((16, 16), "1.5"))

    @pytest.mark.parametrize("site", DTYPE_SITES)
    def test_objects_are_refused(self, site):
        self.refused(site, np.full((16, 16), None, dtype=object))

    @pytest.mark.parametrize("site", DTYPE_SITES)
    def test_complex_numbers_are_refused(self, site):
        self.refused(site, np.full((16, 16), 1 + 2j))

    @pytest.mark.parametrize(
        "dtype", [bool, np.int8, np.uint16, np.float16, np.float64]
    )
    def test_bool_int_and_float_are_read_as_float32(self, dtype):
        a = (np.arange(256).reshape(16, 16) % 3).astype(dtype)
        as_float = a.astype(np.float32)
        want = {site: call(as_float) for site, call in dtype_sites().items()}
        for site, call in dtype_sites().items():
            got = call(a)
            assert type(got) is type(want[site]), site
            pairs = [(got, want[site])]
            if isinstance(got, mpo.MpoChain):
                pairs = zip(got.local_tensors, want[site].local_tensors)
            for g, w in pairs:
                if isinstance(g, np.ndarray):
                    g, w = g.tobytes(), w.tobytes()
                assert g == w, site


BAD_ARRAYS = {
    "strings": np.full((16, 16), "1.5"),
    "objects": np.full((16, 16), None, dtype=object),
    "complex": np.full((16, 16), 1 + 2j),
    "dates": np.full((16, 16), np.datetime64("2024-01-01")),
}


class TestDtypeRuleBeforeTheCast:
    """MpoChain and write_tensor refuse an array by the one rule before they
    cast it to float32, and write_tensor before it opens the file."""

    def refused(self, call, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a ComplexWarning fails too
            with pytest.raises(UnsupportedDtype, match=re.escape(str(bad.dtype))):
                call()

    @pytest.mark.parametrize("kind", BAD_ARRAYS)
    def test_mpo_chain(self, kind):
        bad = BAD_ARRAYS[kind]
        first = np.ones((1, 1, 16, 16), np.float32)
        last = np.ones((16, 16, 1, 1), np.float32)
        self.refused(lambda: mpo.MpoChain((bad.reshape(first.shape), last)), bad)
        self.refused(lambda: mpo.MpoChain((first, bad.reshape(last.shape))), bad)

    @pytest.mark.parametrize("kind", BAD_ARRAYS)
    def test_write_tensor(self, tmp_path, kind):
        bad, path = BAD_ARRAYS[kind], tmp_path / "t.dqt"
        self.refused(lambda: formats.write_tensor(path, bad), bad)
        assert not path.exists()
