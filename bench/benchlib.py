"""What the bench harnesses share: BLAS at one thread, inputs, the BENCH file.

Import this before numpy: it pins the BLAS thread count (unless the
environment already sets it), which only takes effect before numpy loads.
The name does not match test_*.py or conftest.py, so tier-1 collection
never imports it.

One timed run of a harness is one pass. A BENCH file keeps every pass of a
case under its label, so the min and the spread of a stage can be read from
the file alone. To compare two checkouts, give both the same bench/ files
and alternate their passes into one file, so a drift in the host's speed
falls on both labels alike:

    for k in 1 2 3; do for side in parent change; do
      (cd $side && BENCH_OUT=$OUT BENCH_LABEL=$side \
        python -m pytest -q -p no:cacheprovider bench/bench_unpack.py)
    done; done
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


PASS_TIMINGS = ("rounds", "min_s", "median_s")  # what BenchFile.record measures
TIMINGS = PASS_TIMINGS + ("passes", "least_min_s", "spread")  # and write adds


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
        updates only the stored case it repeats (same name and parameters),
        and "topic" / "harness" list every topic the file holds cases of.
        The run's timings replace the case's "rounds", "min_s" and
        "median_s", and are appended to its "passes", every run of the case
        under the label; "least_min_s" is the least pass min and "spread"
        (max - min) / min over the pass mins.
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
        stored = {_case_key(c): c for c in runs.get(label, {}).get("cases", [])}
        fresh = {}
        for case in self.cases:
            key = _case_key(case)
            passes = stored.pop(key, {}).get("passes", [])
            timings = {t: case[t] for t in PASS_TIMINGS}
            passes = [*passes, {"pass": len(passes) + 1, **timings}]
            fresh[key] = _with_passes(case, passes)
        runs[label] = {
            "machine": f"{platform.machine()}, {os.cpu_count()} cpus",
            "numpy": np.__version__,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "cases": [*stored.values(), *fresh.values()],
        }
        out.write_text(json.dumps(doc, indent=2) + "\n")


def _with_passes(case, passes):
    """The case with its passes, their least min and spread (BenchFile.write)."""
    mins = [p["min_s"] for p in passes]
    return {
        **case,
        "passes": passes,
        "least_min_s": min(mins),
        "spread": (max(mins) - min(mins)) / min(mins) if min(mins) else 0.0,
    }


def _params(case):
    """A case's name and parameters: everything but its timings."""
    return {k: v for k, v in case.items() if k not in TIMINGS}


def _case_key(case):
    """_params as a string, to match a case with its stored copy."""
    return json.dumps(_params(case), sort_keys=True)
