import json
import struct

import numpy as np
import pytest

import dquant
from dquant import (
    QuantizedTensor,
    analysis,
    compression_report,
    deco_quantize,
    pack,
    synth_activations,
)
from dquant.cli import main
from dquant.errors import MalformedFile
from dquant.formats import read_mpo, read_tensor, write_mpo, write_tensor


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_matrix(path, m):
    write_tensor(path, np.asarray(m, dtype=np.float32))
    return str(path)


def test_unknown_subcommand(capsys):
    code, _, err = run(capsys, "frobnicate")
    assert code == 4
    assert "unknown subcommand" in err


def test_quantize_dequantize_roundtrip(tmp_path, capsys):
    m = synth_activations(256, 256, 8, 20.0, seed=0)
    src = write_matrix(tmp_path / "m.dqt", m)
    dqz = str(tmp_path / "m.dqz")
    code, out, _ = run(capsys, "quantize", "--input", src, "--bits", "8", "--out", dqz)
    assert code == 0
    report = json.loads(out)
    expected = compression_report(deco_quantize(m, 8))
    assert report["ratio"] == pytest.approx(expected.ratio)
    assert report["bytes_compressed"] == expected.bytes_compressed

    back = str(tmp_path / "back.dqt")
    code, _, _ = run(capsys, "dequantize", "--input", dqz, "--out", back)
    assert code == 0
    rec = read_tensor(back)
    assert rec.dtype == np.float32
    assert np.linalg.norm(rec - m) / np.linalg.norm(m) < 0.02


def test_quantize_deterministic_output(tmp_path, capsys):
    m = synth_activations(64, 64, 4, 20.0, seed=1)
    src = write_matrix(tmp_path / "m.dqt", m)
    out1, out2 = str(tmp_path / "a.dqz"), str(tmp_path / "b.dqz")
    assert run(capsys, "quantize", "--input", src, "--bits", "4", "--out", out1)[0] == 0
    assert run(capsys, "quantize", "--input", src, "--bits", "4", "--out", out2)[0] == 0
    assert (tmp_path / "a.dqz").read_bytes() == (tmp_path / "b.dqz").read_bytes()


def test_quantize_bad_bits(tmp_path, capsys):
    src = write_matrix(tmp_path / "m.dqt", np.ones((4, 4)))
    code, _, err = run(capsys, "quantize", "--input", src, "--bits", "5", "--out", "x")
    assert code == 3
    assert "bits" in err


def test_quantize_truncated_input(tmp_path, capsys):
    src = tmp_path / "m.dqt"
    write_matrix(src, np.ones((8, 8)))
    src.write_bytes(src.read_bytes()[:-5])
    code, _, _ = run(capsys, "quantize", "--input", str(src), "--bits", "4", "--out", "x")
    assert code == 2


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_quantize_non_finite_input(tmp_path, capsys, bad):
    m = np.ones((64, 64), np.float32)
    m[3, 9] = bad
    src = write_matrix(tmp_path / "m.dqt", m)
    out = str(tmp_path / "m.dqz")
    code, _, err = run(capsys, "quantize", "--input", src, "--bits", "4", "--out", out)
    assert code == 3
    assert "finite" in err


def test_dequantize_malformed(tmp_path, capsys):
    bad = tmp_path / "bad.dqz"
    bad.write_bytes(b"DQZ1\x01")
    code, _, _ = run(capsys, "dequantize", "--input", str(bad), "--out", "x")
    assert code == 2


def test_quantize_dims_beyond_the_file(tmp_path, capsys):
    src = tmp_path / "huge.dqt"
    src.write_bytes(b"DQT1" + bytes([0, 2]) + struct.pack("<QQ", 1 << 40, 1 << 40))
    code, _, err = run(capsys, "quantize", "--input", str(src), "--bits", "4", "--out", "x")
    assert code == 2
    assert "truncated" in err


def write_dqz_patched(tmp_path, offset_of, value):
    """A DQZ1 file of a 16x16 matrix at 4 bits with bytes patched at one offset.

    offset_of maps the first core's element count to the offset to patch.
    """
    q = deco_quantize(np.random.default_rng(4).standard_normal((16, 16)), 4)
    path = tmp_path / "m.dqz"
    write_mpo(path, q)
    data = bytearray(path.read_bytes())
    offset = offset_of(q.local_tensors[0].size)
    data[offset : offset + len(value)] = value
    path.write_bytes(bytes(data))
    return str(path)


HEADER_N2 = 4 + 2 + 8 * 2 * 2  # magic, version and n, both factor lists
CORE_HEAD = 2 + 8 * 4  # dtype, ndim and four dims


@pytest.mark.parametrize("scale", [float("nan"), float("inf")])
def test_dequantize_non_finite_scale(tmp_path, capsys, scale):
    # bits byte, two flags, the fp first core, then the packed core's bits byte
    src = write_dqz_patched(
        tmp_path,
        lambda n0: HEADER_N2 + 1 + 2 + CORE_HEAD + 4 * n0 + CORE_HEAD + 1,
        struct.pack("<f", scale),
    )
    out = tmp_path / "back.dqt"
    code, _, err = run(capsys, "dequantize", "--input", src, "--out", str(out))
    assert code == 2
    assert "scale" in err
    assert not out.exists()


def test_dequantize_bits_byte_disagrees(tmp_path, capsys):
    src = write_dqz_patched(tmp_path, lambda n0: HEADER_N2, bytes([8]))
    out = tmp_path / "back.dqt"
    code, _, err = run(capsys, "dequantize", "--input", src, "--out", str(out))
    assert code == 2
    assert "header says 8" in err


def test_dequantize_header_plan_disagrees(tmp_path, capsys):
    # the header's i_factors (1, 16) patched to (16, 1); the cores still give (1, 16)
    src = write_dqz_patched(tmp_path, lambda n0: 4 + 2, struct.pack("<2Q", 16, 1))
    with pytest.raises(MalformedFile, match="disagree"):
        read_mpo(src)
    out = tmp_path / "back.dqt"
    code, _, err = run(capsys, "dequantize", "--input", src, "--out", str(out))
    assert code == 2
    assert "disagree" in err
    assert not out.exists()


def test_dequantize_core_not_4d(tmp_path, capsys):
    # the packed core (2, 16, 8, 1) of the 16x16 chain, stored as (2, 16, 8)
    q = deco_quantize(np.random.default_rng(4).standard_normal((16, 16)), 4)
    assert q.local_tensors[1].shape == (2, 16, 8, 1)
    path = tmp_path / "m.dqz"
    write_mpo(path, q)
    data = path.read_bytes()
    offset = HEADER_N2 + 1 + 2 + CORE_HEAD + 4 * q.local_tensors[0].size
    head = struct.pack("<BB3Q", 1, 3, 2, 16, 8)
    path.write_bytes(data[:offset] + head + data[offset + CORE_HEAD :])
    out = tmp_path / "back.dqt"
    code, _, err = run(capsys, "dequantize", "--input", str(path), "--out", str(out))
    assert code == 2
    assert "4 axes" in err
    assert not out.exists()


def test_analyze_outliers(tmp_path, capsys):
    m = synth_activations(256, 256, 8, 20.0, seed=2)
    src = write_matrix(tmp_path / "m.dqt", m)
    csv_path = tmp_path / "outliers.csv"
    code, out, _ = run(capsys, "analyze-outliers", "--input", src, "--csv", str(csv_path))
    assert code == 0
    summary = json.loads(out)
    assert summary["iqr_t_large"] < summary["iqr_matrix"]
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "tensor_label,q1,q3,iqr,outlier_count,total"
    assert [ln.split(",")[0] for ln in lines[1:]] == ["matrix", "t_large", "t_small"]


def test_analyze_outliers_constant_tensor(tmp_path, capsys):
    src = write_matrix(tmp_path / "m.dqt", np.zeros((32, 32)))
    csv_path = tmp_path / "o.csv"
    code, out, _ = run(capsys, "analyze-outliers", "--input", src, "--csv", str(csv_path))
    assert code == 0
    summary = json.loads(out)
    assert summary["iqr_matrix"] == summary["iqr_t_large"] == 0.0


BENCH_ROWS = {  # experiment: --bits, --seeds, rows
    "strategies": ("4,8", 2, 3 * 2 * 2),  # methods x bits x seeds
    "lengths": ("4", 1, 3),  # n = 2, 3, 4 for one seed
    "decompositions": ("4", 1, 3),  # chain, SVD and QR for one seed
}


@pytest.mark.parametrize("experiment", BENCH_ROWS)
def test_bench_row_count(tmp_path, capsys, experiment):
    bits, seeds, rows = BENCH_ROWS[experiment]
    csv_path = tmp_path / "errors.csv"
    code, out, _ = run(
        capsys, "bench", "--experiment", experiment, "--bits", bits,
        "--seeds", str(seeds), "--csv", str(csv_path),
    )
    assert code == 0
    assert json.loads(out)["rows"] == rows
    assert len(csv_path.read_text().splitlines()) == 1 + rows


def test_every_export_resolves():
    missing = [name for name in dquant.__all__ if not hasattr(dquant, name)]
    assert missing == []


def test_quantized_mpo_is_the_chain_type():
    assert dquant.QuantizedMpo is dquant.MpoChain


def test_bench_unknown_experiment(tmp_path, capsys):
    code, _, err = run(
        capsys, "bench", "--experiment", "nonsense", "--csv", str(tmp_path / "x.csv")
    )
    assert code == 4
    assert "unknown experiment" in err


def test_bench_unknown_experiment_builds_no_suite(tmp_path, capsys, monkeypatch):
    def no_suite(*args, **kwargs):
        raise AssertionError("default_suite built before the experiment check")

    monkeypatch.setattr(analysis, "default_suite", no_suite)
    code, _, err = run(
        capsys, "bench", "--experiment", "nonsense", "--csv", str(tmp_path / "x.csv")
    )
    assert code == 4
    assert "unknown experiment" in err


def test_analyze_outliers_checks_n_before_reading(tmp_path, capsys):
    code, _, err = run(
        capsys, "analyze-outliers", "--input", str(tmp_path / "missing.dqt"),
        "--n", "3", "--csv", str(tmp_path / "o.csv"),
    )
    assert code == 3
    assert "n=2" in err


def test_bench_bad_bits(tmp_path, capsys):
    code, _, _ = run(
        capsys,
        "bench",
        "--experiment",
        "strategies",
        "--bits",
        "4,5",
        "--csv",
        str(tmp_path / "x.csv"),
    )
    assert code == 3


def test_kv_sim_prefill_only(tmp_path, capsys):
    csv_path = tmp_path / "trace.csv"
    code, out, _ = run(
        capsys,
        "kv-sim",
        "--layers", "2", "--dim", "64", "--prompt-len", "32", "--gen-len", "0",
        "--bits", "4", "--chunk", "16", "--seed", "1", "--csv", str(csv_path),
    )
    assert code == 0
    lines = csv_path.read_text().splitlines()
    assert len(lines) == 2  # header + prefill row
    summary = json.loads(out)
    assert summary["bytes_actual"] > 0


def test_kv_sim_audit_and_fp16(tmp_path, capsys):
    code, out, _ = run(
        capsys,
        "kv-sim",
        "--layers", "1", "--dim", "32", "--prompt-len", "16", "--gen-len", "8",
        "--bits", "8", "--chunk", "8", "--audit", "--csv", str(tmp_path / "t.csv"),
    )
    assert code == 0
    assert json.loads(out)["median_score_deviation"] < 1e-2
    code, out, _ = run(
        capsys,
        "kv-sim",
        "--layers", "1", "--dim", "32", "--prompt-len", "16", "--gen-len", "0",
        "--bits", "16", "--chunk", "8", "--csv", str(tmp_path / "t2.csv"),
    )
    assert code == 0
    assert json.loads(out)["ratio"] == 1.0


def test_kv_sim_invalid_config(tmp_path, capsys):
    code, _, _ = run(
        capsys,
        "kv-sim",
        "--layers", "0", "--dim", "32", "--prompt-len", "4", "--gen-len", "0",
        "--csv", str(tmp_path / "t.csv"),
    )
    assert code == 3


def test_kv_sim_negative_length(tmp_path, capsys):
    csv_path = tmp_path / "t.csv"
    code, _, err = run(
        capsys,
        "kv-sim",
        "--layers", "1", "--dim", "8", "--prompt-len", "-1", "--gen-len", "0",
        "--csv", str(csv_path),
    )
    assert code == 3
    assert "lengths" in err
    assert not csv_path.exists()


def test_import_raw(tmp_path, capsys):
    raw = tmp_path / "dump.bin"
    data = np.arange(12, dtype="<f4")
    raw.write_bytes(data.tobytes())
    out = tmp_path / "t.dqt"
    code, _, _ = run(
        capsys, "import-raw", "--input", str(raw), "--rows", "3", "--cols", "4",
        "--out", str(out),
    )
    assert code == 0
    np.testing.assert_array_equal(read_tensor(out), data.reshape(3, 4))

    code, _, _ = run(
        capsys, "import-raw", "--input", str(raw), "--rows", "5", "--cols", "4",
        "--out", str(out),
    )
    assert code == 2


@pytest.mark.parametrize("nbytes", [27, 28, 0], ids=["3-trailing", "one-more-value", "empty"])
def test_import_raw_needs_exactly_rows_cols_float32(tmp_path, capsys, monkeypatch, nbytes):
    raw = tmp_path / "dump.bin"
    raw.write_bytes(np.arange(7, dtype="<f4").tobytes()[:nbytes])
    out = tmp_path / "t.dqt"

    def fromfile(*args, **kwargs):
        raise AssertionError("the file was read before its size was checked")

    monkeypatch.setattr(np, "fromfile", fromfile)
    code, stdout, err = run(
        capsys, "import-raw", "--input", str(raw), "--rows", "2", "--cols", "3",
        "--out", str(out),
    )
    assert code == 2
    assert stdout == "" and err.startswith("error: file holds") and err.count("\n") == 1
    assert not out.exists()


def test_missing_required_flag(capsys):
    code, _, _ = run(capsys, "quantize", "--bits", "4")
    assert code == 2


@pytest.mark.parametrize(
    "name",
    ["quantize", "dequantize", "analyze-outliers", "bench", "kv-sim", "import-raw"],
)
def test_output_in_missing_directory(tmp_path, capsys, name):
    m = np.random.default_rng(5).standard_normal((16, 16)).astype(np.float32)
    dqt = write_matrix(tmp_path / "m.dqt", m)
    dqz = tmp_path / "m.dqz"
    write_mpo(dqz, deco_quantize(m, 4))
    raw = tmp_path / "m.bin"
    raw.write_bytes(m.astype("<f4").tobytes())
    out = str(tmp_path / "missing" / "out")
    argv = {
        "quantize": ["--input", dqt, "--bits", "4", "--out", out],
        "dequantize": ["--input", str(dqz), "--out", out],
        "analyze-outliers": ["--input", dqt, "--csv", out],
        "bench": ["--experiment", "strategies", "--bits", "4", "--seeds", "1",
                  "--csv", out],
        "kv-sim": ["--layers", "1", "--dim", "8", "--prompt-len", "4",
                   "--gen-len", "2", "--csv", out],
        "import-raw": ["--input", str(raw), "--rows", "16", "--cols", "16",
                       "--out", out],
    }[name]
    code, stdout, err = run(capsys, name, *argv)
    assert code == 2
    assert stdout == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize(
    "tensor",
    [QuantizedTensor((4, 4), 4, 0.5, pack([1] * 16, 4)), np.ones((2, 4, 4), np.float32)],
    ids=["packed", "3-D"],
)
def test_quantize_needs_a_float_matrix(tmp_path, capsys, tensor):
    src = tmp_path / "t.dqt"
    write_tensor(src, tensor)
    code, _, err = run(
        capsys, "quantize", "--input", str(src), "--bits", "4",
        "--out", str(tmp_path / "t.dqz"),
    )
    assert code == 2
    assert err.startswith("error: expected a")


@pytest.mark.parametrize(
    "argv",
    [
        ["quantize", "--input", "m.dqt", "--bits", "4", "--n", "1", "--out", "m.dqz"],
        ["bench", "--experiment", "strategies", "--bits", "4,x", "--csv", "x.csv"],
        ["bench", "--experiment", "strategies", "--seeds", "0", "--csv", "x.csv"],
        ["import-raw", "--input", "m.bin", "--rows", "0", "--cols", "4",
         "--out", "m.dqt"],
    ],
    ids=["quantize-n1", "bench-bits", "bench-seeds", "import-raw-rows"],
)
def test_bad_parameters_exit_3_before_any_file(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == "" and err.startswith("error: ")
    assert list(tmp_path.iterdir()) == []


def test_no_arguments_and_help(capsys):
    code, _, err = run(capsys)
    assert code == 4 and err.startswith("usage: dquant {")
    code, _, err = run(capsys, "-h")
    assert code == 0 and err.startswith("usage: dquant {")


def test_bench_verbose_prints_the_medians(tmp_path, capsys):
    code, out, err = run(
        capsys, "bench", "--experiment", "strategies", "--bits", "4",
        "--seeds", "1", "--csv", str(tmp_path / "e.csv"), "--verbose",
    )
    assert code == 0
    medians = json.loads(out)["median_frobenius_error"]
    assert err.splitlines() == [f"{k}: {v:.4f}" for k, v in medians.items()]
    assert len(medians) == 3
