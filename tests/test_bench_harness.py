import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parents[1]


def test_harnesses_run_with_benchmarks_disabled(tmp_path):
    # each case runs once, untimed, so an API change that breaks a harness
    # fails here; every case collected from the two files must pass
    files = ["bench/bench_split.py", "bench/bench_unpack.py"]
    pytest_cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"]
    listed = subprocess.run(
        pytest_cmd + ["--collect-only", *files],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    assert listed.returncode == 0, listed.stdout + listed.stderr
    collected = int(re.search(r"(\d+) tests? collected", listed.stdout)[1])
    out = tmp_path / "BENCH_smoke.json"
    proc = subprocess.run(
        pytest_cmd + ["--benchmark-disable", *files],
        cwd=ROOT,
        env={**os.environ, "BENCH_OUT": str(out)},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    summary = proc.stdout.strip().splitlines()[-1]
    kinds = r"(\d+) (passed|failed|errors?|skipped|xfailed|xpassed)"
    outcomes = {kind: int(count) for count, kind in re.findall(kinds, summary)}
    assert collected > 0 and outcomes == {"passed": collected}, summary
    assert not out.exists()


def timed(seconds):
    """A stand-in for pytest-benchmark's fixture after a timed run."""
    stats = SimpleNamespace(rounds=3, min=seconds, median=seconds)
    return SimpleNamespace(disabled=False, stats=SimpleNamespace(stats=stats))


def test_two_topics_share_one_file(tmp_path, monkeypatch):
    out = tmp_path / "BENCH_both.json"
    monkeypatch.setenv("BENCH_OUT", str(out))
    monkeypatch.setenv("BENCH_LABEL", "one-label")
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    path = ROOT / "bench" / "benchlib.py"
    spec = importlib.util.spec_from_file_location("benchlib", path)
    benchlib = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(benchlib)

    def run(topic, case, seconds):
        bench = benchlib.BenchFile(topic)
        bench.record(timed(seconds), case, (4, 4), bits=4, n=2)
        bench.write()
        return json.loads(out.read_text())

    run("split", "mpo.decompose", 1.0)
    doc = run("unpack", "compress.fused_matmul", 2.0)
    assert doc["topic"] == "split+unpack"
    assert doc["harness"] == "bench/bench_split.py+bench/bench_unpack.py"
    cases = doc["runs"]["one-label"]["cases"]
    assert [(c["case"], c["min_s"]) for c in cases] == [
        ("mpo.decompose", 1.0), ("compress.fused_matmul", 2.0)
    ]
    # a rerun replaces its own case and keeps the other topic's
    doc = run("split", "mpo.decompose", 3.0)
    assert doc["topic"] == "split+unpack"
    cases = doc["runs"]["one-label"]["cases"]
    assert sorted((c["case"], c["min_s"]) for c in cases) == [
        ("compress.fused_matmul", 2.0), ("mpo.decompose", 3.0)
    ]


def test_passes_keep_the_min_and_the_spread(tmp_path, monkeypatch):
    out = tmp_path / "BENCH_passes.json"
    monkeypatch.setenv("BENCH_OUT", str(out))
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    path = ROOT / "bench" / "benchlib.py"
    spec = importlib.util.spec_from_file_location("benchlib", path)
    benchlib = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(benchlib)

    def run(label, seconds):
        monkeypatch.setenv("BENCH_LABEL", label)
        bench = benchlib.BenchFile("unpack")
        bench.record(timed(seconds), "compress.fused_matmul", (4, 4), bits=4, p=1)
        bench.write()
        return json.loads(out.read_text())["runs"]

    for parent, change in [(4.0, 2.0), (5.0, 3.0), (8.0, 2.5)]:
        run("parent", parent)
        runs = run("change", change)
    (case,) = runs["parent"]["cases"]
    assert [(p["pass"], p["min_s"]) for p in case["passes"]] == [
        (1, 4.0), (2, 5.0), (3, 8.0)
    ]
    assert (case["min_s"], case["least_min_s"], case["spread"]) == (8.0, 4.0, 1.0)
    (case,) = runs["change"]["cases"]
    assert (case["min_s"], case["least_min_s"], case["spread"]) == (2.5, 2.0, 0.5)


def test_digests_script_prints_one_line_per_case():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "bench/digests.py"],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    cases = [line.split(" ")[0] for line in lines]
    assert len(set(cases)) == len(cases) == 185
    assert all(len(line.split(" ")[1]) == 64 for line in lines)
    for case in ("dqz1.120x72.n3.b2", "fused_matmul_t.7x301.n2.b8.p64",
                 "fused_matmul_t.2400x128.n2.b4.p3", "kv-sim.b4.audit",
                 "kv-sim.b4.audit.prompt0", "kv-sim.b16", "bench.strategies",
                 "kvcache.b4.read_values", "kvcache.b16.ledger"):
        assert case in cases


def test_pairs_summary_applies_the_claim_rule():
    path = ROOT / "bench" / "pairs.py"
    spec = importlib.util.spec_from_file_location("pairs", path)
    pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(pairs)
    assert pairs.parse_seeds("211-213,220") == [211, 212, 213, 220]

    parent_ms = [60.0, 61.0, 62.0, 63.0, 64.0] * 2
    change_ms = [p - 5 for p in parent_ms[:9]] + [65.0]  # one pair lost
    steady = [10.0, 20.0] * 5  # quartiles 10 and 20
    runs = []
    for i in range(10):
        parent = {"gemm64_ms.p75": parent_ms[i], "decode_tok_s": 100.0,
                  "gemv_ms.p75": steady[i], "setup_s": 0.3}
        change = {"gemm64_ms.p75": change_ms[i], "decode_tok_s": 100.0 + (i % 2),
                  "gemv_ms.p75": steady[i] - 1}
        runs.append((parent, change))
    metrics = [{"name": "setup_s", "better": "lower"},  # not in every run: skipped
               {"name": "gemm64_ms.p75", "better": "lower"},
               {"name": "decode_tok_s", "better": "higher"},
               {"name": "gemv_ms.p75", "better": "lower"}]
    rows = {r["metric"]: r for r in pairs.summarize(runs, metrics)}
    assert list(rows) == ["gemm64_ms.p75", "decode_tok_s", "gemv_ms.p75"]

    gemm = rows["gemm64_ms.p75"]
    assert gemm["parent"] == (62.0, 61.0, 63.0)
    assert gemm["change"] == (57.0, 56.0, 58.0)
    assert (gemm["wins"], gemm["pairs"], gemm["claim"]) == (9, 10, True)
    tok = rows["decode_tok_s"]  # ties count for neither side
    assert tok["change"][0] == 100.5
    assert (tok["wins"], tok["claim"]) == (5, False)
    gemv = rows["gemv_ms.p75"]  # every pair won, but inside the parent's spread
    assert gemv["parent"] == (15.0, 10.0, 20.0)
    assert (gemv["wins"], gemv["claim"]) == (10, False)

    lines = pairs.format_rows(pairs.summarize(runs, metrics))
    assert len(lines) == 4
    assert lines[1].startswith("gemm64_ms.p75") and lines[1].endswith("9/10  yes")
    assert lines[3].endswith("10/10  no")


def test_pairs_bound_report_marks_worse_and_unresolved():
    path = ROOT / "bench" / "pairs.py"
    spec = importlib.util.spec_from_file_location("pairs", path)
    pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(pairs)

    wide = [6.0, 10.0, 14.0, 10.0, 18.0]  # median 10, quartiles 10 and 14
    sides = {  # metric: (parent runs, change runs)
        "gemv_ms.p75": ([10.0] * 5, [13.0] * 5),  # 30% slower
        "itl_ms.p75": (wide, [9.5, 9.5, 15.0, 9.0, 9.0]),  # better median, overlaps
        "gemm64_ms.p75": (wide, [5.0] * 5),  # below every parent run
        "decode_tok_s": ([100.0] * 5, [70.0] * 5),  # higher is better: 30% worse
        "ok_rate": ([1.0] * 5, [1.0, 1.0, 0.999, 1.0, 1.0]),
    }
    runs = [({m: p[i] for m, (p, _) in sides.items()},
             {m: c[i] for m, (_, c) in sides.items()}) for i in range(5)]
    metrics = [{"name": m, "bound": 0.001 if m == "ok_rate" else 0.25,
                "better": "higher" if m in ("decode_tok_s", "ok_rate") else "lower"}
               for m in sides]
    rows = pairs.summarize(runs, metrics)
    by_name = {r["metric"]: r for r in rows}
    assert by_name["gemv_ms.p75"]["worse_by"] == 0.3
    assert by_name["decode_tok_s"]["worse_by"] == 0.3
    assert by_name["itl_ms.p75"]["worse_by"] == -0.05
    assert by_name["itl_ms.p75"]["spread"] == 0.4
    assert not by_name["itl_ms.p75"]["apart"] and by_name["gemm64_ms.p75"]["apart"]
    assert by_name["ok_rate"]["worse_by"] == 0.0  # medians equal

    lines = pairs.format_bounds(rows, metrics)
    assert len(lines) == 1 + len(sides)
    verdicts = {line.split()[0]: line.split()[-1] for line in lines[1:]}
    assert verdicts == {"gemv_ms.p75": "worse", "itl_ms.p75": "unresolved",
                        "gemm64_ms.p75": "ok", "decode_tok_s": "worse", "ok_rate": "ok"}
    assert lines[1].split()[1:4] == ["+30.0%", "0.0%", "25.0%"]
    # the claim table reads the same rows unchanged
    assert len(pairs.format_rows(rows)) == 1 + len(sides)
    assert pairs.relative(0.0, 0.0) == 0.0 and pairs.relative(1.0, 0.0) == float("inf")
