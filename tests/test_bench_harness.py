import os
import subprocess
import sys
from pathlib import Path

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
    assert "10 passed" in proc.stdout
    assert not out.exists()
