"""One-second runs of the committed benchmark's infer workload, untraced and traced.

The benchmark checks its own outputs: the checkpoint round trip, that the
sample and the trace reproduce, the trace CSV headers. The traced run also
wraps every public szlstm function and checks that tracing changes no
output, so a deletion that breaks the tracer's patching fails here too. A
change that breaks one of these fails in the test suite, and not only in a
later timed run. Each run works in a copy of the tree, so it neither
overwrites a stored benchmark result nor shares an output directory with a
timed run. The tracer is also installed around a tiny train() in this
process, so the training path is traced as well.
"""

import importlib.util
import json
import os
import shutil
import subprocess
import sys

import szlstm.cli  # noqa: F401  the tracer wraps every layer module, cli included
from szlstm import TrainConfig, train

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_infer(tmp_path, trace):
    ignore = shutil.ignore_patterns("__pycache__", "*.egg-info")
    for name in ("src", "benchmarks"):
        shutil.copytree(os.path.join(ROOT, name), tmp_path / name, ignore=ignore)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    run = subprocess.run(
        [sys.executable, os.path.join("benchmarks", "run.py"), "--workload", "infer",
         "--seed", "2", "--seconds", "1", "--trace", str(trace)],
        cwd=tmp_path, capture_output=True, text=True, timeout=600,
    )
    assert run.returncode == 0, run.stdout[-2000:] + run.stderr[-2000:]
    result = json.loads(run.stdout.strip().splitlines()[-1])
    assert result["failed"] == 0, run.stdout[-2000:]
    assert result["attempted"] > 0
    assert os.path.exists(tmp_path / ".bench_out" / f"result-infer-seed2-trace{trace}.json")


def test_infer_workload_passes_every_check(tmp_path):
    run_infer(tmp_path, 0)


def test_traced_infer_workload_passes_every_check(tmp_path):
    run_infer(tmp_path, 1)


def load_tracer():
    spec = importlib.util.spec_from_file_location(
        "benchmark_tracer", os.path.join(ROOT, "benchmarks", "tracer.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_sees_every_training_window_and_changes_nothing(corpus):
    """The benchmark's tracer, installed around a tiny train(), counts one
    TBPTT window and one backward sweep per optimizer step, and the traced
    run's losses and parameters equal an untraced run's bit for bit."""
    cfg = TrainConfig(seq_len=5, batch_size=3, chunk_len=20, hidden=8, steps=7,
                      val_interval=3, val_prefix=200, seed=7, lr=1.0)
    plain = train(cfg, corpus)
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        traced = train(cfg, corpus)
    finally:
        tracer.uninstall()
    totals, _ = tracer.take()
    assert totals["training.run_tbptt_window"][0] == cfg.steps
    assert totals["cell.backward_window"][0] == cfg.steps
    assert traced.losses == plain.losses
    assert traced.params.flat.tobytes() == plain.params.flat.tobytes()
