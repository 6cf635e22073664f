"""Smoke test of the benchmark at tiny shapes."""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import phases  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

TINY = phases.Shapes(
    compress_side=64,
    gemv_side=64,
    gemv_batch=8,
    gemv_per_cycle=4,
    kv_layers=1,
    kv_dim=32,
    kv_chunk=16,
    kv_prompt=64,
    kv_steps=16,
)
SECONDS = 0.2


def _declared(kind):
    with open(ROOT / "BENCHMARK.json") as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_every_end_to_end_metric_emitted(workload, tmp_path):
    metrics, attempted, failed, _ = run.end_to_end(
        workload, 0, SECONDS, tmp_path, full=TINY, guard=TINY
    )
    assert {k: run.END_TO_END_UNITS[k] for k in metrics} == _declared("end_to_end")
    assert attempted > 0 and failed == 0
    assert all(np.isfinite(v) and v != 0 for v in metrics.values())


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_every_per_layer_metric_emitted(workload, tmp_path):
    span_path = tmp_path / "spans.npz"
    layer, attempted, failed, tile_ok, _ = run.traced(
        workload, 0, SECONDS, tmp_path, span_path, full=TINY
    )
    assert {k: unit for k, (_, unit) in layer.items()} == _declared("per_layer")
    assert attempted > 0 and failed == 0 and tile_ok
    assert span_path.is_file()


def test_corrupted_payload_counts_as_failed(tmp_path):
    phase = phases.GemvPhase(TINY, 0, tmp_path)
    packed = phase.weight.quantized_locals[0]
    corrupt = replace(packed, payload=bytes(b ^ 0xFF for b in packed.payload))
    phase.weight = replace(
        phase.weight,
        local_tensors=tuple(corrupt if t is packed else t for t in phase.weight.local_tensors),
    )
    (res,) = phases.drive({phase: 1.0}, SECONDS, spans.NoTracer(), full_tails=False)
    assert res.attempted > 0 and res.failed == res.attempted


def test_removed_function_is_absent_not_fatal(tmp_path, monkeypatch):
    monkeypatch.delattr(phases.compress, "fused_matmul_t")
    layer, *_ = run.traced("gemv-2048", 0, SECONDS, tmp_path, tmp_path / "s.npz", full=TINY)
    assert "compress.fused_matmul_t.calls" not in layer
    assert layer["compress.fused_matmul.calls"][0] == TINY.gemv_per_cycle + 1


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("out"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "kv-decode",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
