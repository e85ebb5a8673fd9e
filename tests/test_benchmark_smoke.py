"""A one-second run of the committed benchmark's infer workload.

The benchmark checks its own outputs: the checkpoint round trip, that the
sample and the trace reproduce, the trace CSV headers. A change that breaks
one of them fails here, in the test suite, and not only in a later timed run.
The run works in a copy of the tree, so it neither overwrites a stored
benchmark result nor shares an output directory with a timed run.
"""

import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_infer_workload_passes_every_check(tmp_path):
    ignore = shutil.ignore_patterns("__pycache__", "*.egg-info")
    for name in ("src", "benchmarks"):
        shutil.copytree(os.path.join(ROOT, name), tmp_path / name, ignore=ignore)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    run = subprocess.run(
        [sys.executable, os.path.join("benchmarks", "run.py"), "--workload", "infer",
         "--seed", "2", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=600,
    )
    assert run.returncode == 0, run.stdout[-2000:] + run.stderr[-2000:]
    result = json.loads(run.stdout.strip().splitlines()[-1])
    assert result["failed"] == 0, run.stdout[-2000:]
    assert result["attempted"] > 0
    assert os.path.exists(tmp_path / ".bench_out" / "result-infer-seed2-trace0.json")
