"""What the bench harnesses share: BLAS at one thread, inputs, the BENCH file.

Import this before numpy: it pins the BLAS thread count (unless the
environment already sets it), which only takes effect before numpy loads.
The name does not match test_*.py or conftest.py, so tier-1 collection
never imports it.
"""

import json
import os
import platform
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]


def weight_matrix(rows, cols, seed=7, outlier_cols=8, outlier_scale=20.0):
    """Gaussian float32 matrix with `outlier_cols` columns scaled up, as in dqbench."""
    rng = np.random.default_rng([seed, 0])
    m = rng.standard_normal((rows, cols), dtype=np.float32)
    m[:, rng.choice(cols, size=outlier_cols, replace=False)] *= outlier_scale
    return m


TIMINGS = ("rounds", "min_s", "median_s")  # what BenchFile.record measures


class BenchFile:
    """The cases one harness times, merged into BENCH_<topic>.json on write."""

    def __init__(self, topic):
        self.topic = topic
        self.cases = []

    def record(self, benchmark, case, shape, **params):
        """Add a timed case; nothing under --benchmark-disable."""
        if benchmark.disabled:
            return
        stats = benchmark.stats.stats
        self.cases.append(
            {"case": case, "shape": list(shape), **params, "rounds": stats.rounds,
             "min_s": stats.min, "median_s": stats.median}
        )

    def write(self):
        """Merge the cases into $BENCH_OUT (default BENCH_<topic>.json at the root).

        They go under the label $BENCH_LABEL (default "current"), so runs of
        two checkouts can share a file, and so can two harnesses: a case
        replaces only the stored case it repeats (same name and parameters),
        and "topic" / "harness" list every topic the file holds cases of.
        Writes nothing if no case was timed.
        """
        if not self.cases:
            return
        out = Path(os.environ.get("BENCH_OUT", ROOT / f"BENCH_{self.topic}.json"))
        doc = json.loads(out.read_text()) if out.exists() else {}
        topics = doc.get("topic", self.topic).split("+")
        if self.topic not in topics:
            topics.append(self.topic)
        doc["topic"] = "+".join(topics)
        doc["harness"] = "+".join(f"bench/bench_{t}.py" for t in topics)
        runs = doc.setdefault("runs", {})
        label = os.environ.get("BENCH_LABEL", "current")
        stored = runs.get(label, {}).get("cases", [])
        fresh = {_case_key(c) for c in self.cases}
        runs[label] = {
            "machine": f"{platform.machine()}, {os.cpu_count()} cpus",
            "numpy": np.__version__,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "cases": [c for c in stored if _case_key(c) not in fresh] + self.cases,
        }
        out.write_text(json.dumps(doc, indent=2) + "\n")


def _case_key(case):
    """A case's name and parameters: everything but its timings."""
    params = {k: v for k, v in case.items() if k not in TIMINGS}
    return json.dumps(params, sort_keys=True)
