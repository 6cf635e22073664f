"""Command-line surface.

Exit codes: 0 success; 2 malformed input or usage error (MalformedFile,
or any OSError, such as a missing input or an --out / --csv in a missing
directory); 3 invalid parameters (any other DquantError, or a MemoryError
from sizes too large to allocate); 4 unknown subcommand or experiment.
Handlers report a failure only by raising, and `main` alone maps it to
its code, reported as one `error:` line on stderr; a handler checks its
parameters with the library's own rules (quantize._check_bits,
quantize._check_size) before it reads a file.
Machine-readable summaries go to stdout as single JSON lines;
human-readable tables go to stderr under --verbose.
"""

import argparse
import json
import os
import sys

import numpy as np

from . import analysis, formats, kvcache
from .compress import compression_report, deco_dequantize, deco_quantize
from .errors import DquantError, MalformedFile, ShapeMismatch, UnsupportedBits
from .quantize import _check_bits, _check_size

EXIT_OK = 0
EXIT_MALFORMED = 2
EXIT_BAD_PARAMS = 3
EXIT_UNKNOWN = 4

EXPERIMENTS = ("strategies", "lengths", "decompositions")


def _emit(obj):
    sys.stdout.write(json.dumps(obj, sort_keys=True) + "\n")


def _fail(code, message):
    sys.stderr.write(f"error: {message}\n")
    return code


def _read_float_matrix(path):
    t = formats.read_tensor(path)
    if not isinstance(t, np.ndarray):
        raise MalformedFile("expected a float tensor, found a packed one")
    if t.ndim != 2:
        raise MalformedFile(f"expected a 2-D tensor, got {t.ndim}-D")
    return t


def cmd_quantize(args):
    _check_bits(args.bits)
    _check_size(args.n, "chain length n", 2)
    q = deco_quantize(_read_float_matrix(args.input), args.bits, args.n)
    formats.write_mpo(args.out, q)
    report = compression_report(q)
    _emit(
        {
            "ratio": report.ratio,
            "bytes_original": report.bytes_original,
            "bytes_compressed": report.bytes_compressed,
            "bits": args.bits,
            "n": args.n,
        }
    )
    return EXIT_OK


def cmd_dequantize(args):
    formats.write_tensor(args.out, deco_dequantize(formats.read_mpo(args.input)))
    return EXIT_OK


def cmd_analyze_outliers(args):
    if args.n != 2:
        raise ShapeMismatch("outlier analysis is defined for n=2")
    mat, large, small = analysis.migration_report(_read_float_matrix(args.input))
    rows = [("matrix", mat), ("t_large", large), ("t_small", small)]
    analysis.write_outliers_csv(rows, args.csv)
    _emit(
        {
            "iqr_matrix": mat.iqr,
            "iqr_t_large": large.iqr,
            "iqr_t_small": small.iqr,
            "csv": args.csv,
        }
    )
    return EXIT_OK


def cmd_bench(args):
    try:
        bits_list = tuple(int(b) for b in args.bits.split(","))
    except ValueError:
        raise UnsupportedBits(f"cannot parse bits list {args.bits!r}") from None
    for b in bits_list:
        _check_bits(b)
    _check_size(args.seeds, "seeds")
    if args.experiment not in EXPERIMENTS:
        return _fail(EXIT_UNKNOWN, f"unknown experiment {args.experiment!r}")
    suite = analysis.default_suite(seeds=range(args.seeds))
    if args.experiment == "strategies":
        records = analysis.strategy_sweep(suite, bits_list)
        medians = analysis.median_by(records)
    elif args.experiment == "lengths":
        records = []
        for b in bits_list:
            records += analysis.length_sweep(suite, bits=b)
        medians = analysis.median_by(records, key=lambda r: (r.method, r.bits, r.n))
    else:
        records = []
        for b in bits_list:
            records += analysis.decomposition_comparison(suite, bits=b)
        medians = analysis.median_by(records)
    analysis.write_errors_csv(records, args.csv)
    _emit(
        {
            "experiment": args.experiment,
            "rows": len(records),
            "median_frobenius_error": {str(k): v for k, v in medians.items()},
            "csv": args.csv,
        }
    )
    if args.verbose:
        for k, v in medians.items():
            sys.stderr.write(f"{k}: {v:.4f}\n")
    return EXIT_OK


def cmd_kv_sim(args):
    config = kvcache.CacheConfig(
        layers=args.layers,
        dim=args.dim,
        bits=None if args.bits == 16 else args.bits,
        chunk_len=args.chunk,
        n=args.n,
    )
    ledger, trace = kvcache.simulate_generation(
        config, args.prompt_len, args.gen_len, seed=args.seed, audit=args.audit
    )
    kvcache.write_trace_csv(trace, args.csv)
    deviations = [
        row["score_deviation"] for row in trace if row["score_deviation"] is not None
    ]
    _emit(
        {
            "bytes_actual": ledger.bytes_actual,
            "bytes_fp16_equivalent": ledger.bytes_fp16_equivalent,
            "bytes_moved_read": ledger.bytes_moved_read,
            "ratio": ledger.ratio,
            "median_score_deviation": (
                float(np.median(deviations)) if deviations else None
            ),
            "csv": args.csv,
        }
    )
    return EXIT_OK


def cmd_import_raw(args):
    _check_size(args.rows, "rows")
    _check_size(args.cols, "cols")
    if (size := os.path.getsize(args.input)) != 4 * args.rows * args.cols:
        raise MalformedFile(f"file holds {size} bytes, not {args.rows} x {args.cols} float32")
    raw = np.fromfile(args.input, dtype="<f4")
    formats.write_tensor(args.out, raw.reshape(args.rows, args.cols))
    return EXIT_OK


def _build_parsers():
    parsers = {}

    p = argparse.ArgumentParser(prog="dquant quantize", description=cmd_quantize.__doc__)
    p.add_argument("--input", required=True)
    p.add_argument("--bits", type=int, required=True)
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--out", required=True)
    parsers["quantize"] = (p, cmd_quantize)

    p = argparse.ArgumentParser(prog="dquant dequantize")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    parsers["dequantize"] = (p, cmd_dequantize)

    p = argparse.ArgumentParser(prog="dquant analyze-outliers")
    p.add_argument("--input", required=True)
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--csv", required=True)
    parsers["analyze-outliers"] = (p, cmd_analyze_outliers)

    p = argparse.ArgumentParser(prog="dquant bench")
    p.add_argument("--experiment", required=True)
    p.add_argument("--bits", default="2,4,8")
    p.add_argument("--seeds", type=int, default=20)
    p.add_argument("--csv", required=True)
    p.add_argument("--verbose", action="store_true")
    parsers["bench"] = (p, cmd_bench)

    p = argparse.ArgumentParser(prog="dquant kv-sim")
    p.add_argument("--layers", type=int, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--prompt-len", type=int, required=True)
    p.add_argument("--gen-len", type=int, required=True)
    p.add_argument("--bits", type=int, default=4)
    p.add_argument("--chunk", type=int, default=1024)
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--audit", action="store_true")
    p.add_argument("--csv", required=True)
    parsers["kv-sim"] = (p, cmd_kv_sim)

    p = argparse.ArgumentParser(prog="dquant import-raw")
    p.add_argument("--input", required=True)
    p.add_argument("--rows", type=int, required=True)
    p.add_argument("--cols", type=int, required=True)
    p.add_argument("--out", required=True)
    parsers["import-raw"] = (p, cmd_import_raw)

    return parsers


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parsers = _build_parsers()
    if not argv or argv[0] in ("-h", "--help"):
        sys.stderr.write(
            "usage: dquant {" + ",".join(parsers) + "} [options]\n"
        )
        return EXIT_OK if argv else EXIT_UNKNOWN
    name, rest = argv[0], argv[1:]
    if name not in parsers:
        return _fail(EXIT_UNKNOWN, f"unknown subcommand {name!r}")
    parser, handler = parsers[name]
    try:
        args = parser.parse_args(rest)
    except SystemExit as exc:
        return EXIT_MALFORMED if exc.code else EXIT_OK
    try:
        return handler(args)
    except (MalformedFile, OSError) as exc:
        return _fail(EXIT_MALFORMED, str(exc))
    except DquantError as exc:
        return _fail(EXIT_BAD_PARAMS, str(exc))
    except MemoryError as exc:
        return _fail(EXIT_BAD_PARAMS, f"out of memory: {exc}")


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
