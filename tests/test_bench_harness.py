import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parents[1]


def test_harnesses_run_with_benchmarks_disabled(tmp_path):
    # each case runs once, untimed, so an API change that breaks a harness fails here
    out = tmp_path / "BENCH_smoke.json"
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--benchmark-disable", "bench/bench_split.py", "bench/bench_unpack.py"],
        cwd=ROOT,
        env={**os.environ, "BENCH_OUT": str(out)},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "11 passed" in proc.stdout
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
    assert len(set(cases)) == len(cases) == 132
    assert all(len(line.split(" ")[1]) == 64 for line in lines)
    for case in ("dqz1.120x72.n3.b2", "fused_matmul_t.7x301.n2.b8.p64",
                 "kv-sim.b4.audit", "kv-sim.b16", "bench.strategies",
                 "kvcache.b4.read_values", "kvcache.b16.ledger"):
        assert case in cases
