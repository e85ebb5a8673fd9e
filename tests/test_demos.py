"""The quick demos run start to finish against the current API."""

import importlib.util
import os
import re
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_script(path, tmp_path, *args):
    # TMPDIR keeps the files a demo writes to the temp directory inside tmp_path
    env = dict(os.environ, TMPDIR=str(tmp_path))
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return subprocess.run([sys.executable, path, *args], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)


def run_demo(script, tmp_path):
    proc = run_script(os.path.join(ROOT, "demos", script), tmp_path)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("script", ["01_cell_dynamics.py", "02_gradient_check.py"])
def test_demo_runs(script, tmp_path):
    run_demo(script, tmp_path)


def test_train_demo_ends_below_uniform_rate(tmp_path):
    out = run_demo("03_train_tiny.py", tmp_path)
    uniform = float(re.search(r"uniform rate would be ([0-9.]+) bpc", out).group(1))
    final = float(re.search(r"validation ended at ([0-9.]+) bpc", out).group(1))
    assert final < uniform


def test_trace_demo_writes_gate_maps(tmp_path):
    out = run_demo("04_trace_export.py", tmp_path)
    for variant in ("adaptive", "standard"):
        lines = [line for line in out.splitlines() if line.lstrip().startswith(variant + ":")]
        assert len(lines) == 1, out
        path = lines[0].split("-> ")[1]
        assert path.endswith(f"{variant}_gates.csv") and os.path.isfile(path)


def test_sample_demo_trains_reloads_and_samples(tmp_path):
    lines = run_demo("05_sample_text.py", tmp_path).splitlines()
    assert any(line.startswith("done: step 600") for line in lines)
    for temperature in ("0.5", "1.0"):
        header = lines.index(f"--- temperature {temperature} ---")
        assert lines[header + 1].startswith("<page>")


def test_desk_demo_reports_every_variant(tmp_path):
    # a 150 KB cut of the benchmark's synthetic corpus holds one 10000-symbol
    # training chunk; two steps keep the desk-shape run to seconds
    spec = importlib.util.spec_from_file_location(
        "bench_corpus", os.path.join(ROOT, "benchmarks", "corpus.py"))
    corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpus)
    path = tmp_path / "corpus.bin"
    path.write_bytes(corpus.generate(7, n_bytes=150_000))
    proc = run_script(os.path.join(ROOT, "demos", "06_desk_benchmark.py"), tmp_path,
                      str(path), "2")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    for variant in ("adaptive", "standard"):
        mine = [line.strip() for line in lines if line.strip().startswith(variant + ":")]
        assert len([line for line in mine if re.search(r"test [0-9.]+ bpc$", line)]) == 1, mine
        assert len([line for line in mine if "mean cell change" in line]) == 1, mine


def test_sample_demo_exits_with_failed_command_code(tmp_path):
    with open(os.path.join(ROOT, "demos", "05_sample_text.py")) as fh:
        source = fh.read()
    # 'q' is not in the demo corpus; a short run keeps the copy quick
    patched = source.replace('"--prompt", "<page>"', '"--prompt", "q!!"')
    patched = patched.replace('"--steps", "600"', '"--steps", "3"')
    assert patched.count("q!!") == 1 and '"--steps", "3"' in patched
    copy = tmp_path / "sample_bad_prompt.py"
    copy.write_text(patched)
    proc = run_script(str(copy), tmp_path)
    assert proc.returncode != 0
    assert "not in the model vocabulary" in proc.stderr
