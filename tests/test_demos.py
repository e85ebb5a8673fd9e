"""The quick demos run start to finish against the current API."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_demo(script, tmp_path):
    # TMPDIR keeps the files a demo writes to the temp directory inside tmp_path
    env = dict(os.environ, TMPDIR=str(tmp_path))
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "demos", script)],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("script", ["01_cell_dynamics.py", "02_gradient_check.py"])
def test_demo_runs(script, tmp_path):
    run_demo(script, tmp_path)


def test_sample_demo_trains_reloads_and_samples(tmp_path):
    lines = run_demo("05_sample_text.py", tmp_path).splitlines()
    assert any(line.startswith("done: step 600") for line in lines)
    for temperature in ("0.5", "1.0"):
        header = lines.index(f"--- temperature {temperature} ---")
        assert lines[header + 1].startswith("<page>")
