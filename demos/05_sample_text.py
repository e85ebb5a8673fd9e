"""Generate text from a freshly trained model at a few temperatures.

Drives the command line through szlstm.cli.dispatch: `train` writes a
checkpoint, and `sample` reloads it at each temperature. Exits with the
first non-zero exit code of those commands.
"""

import os
import sys
import tempfile

import numpy as np

from szlstm.cli import dispatch

words = [b"<page>", b"</page>", b"<title>", b"</title>", b"the ", b"of ",
         b"and ", b"data ", b"[[link]] ", b"0123 "]
picks = np.random.default_rng(0).integers(0, len(words), size=12000)
corpus_path = os.path.join(tempfile.gettempdir(), "szlstm_demo_corpus")
with open(corpus_path, "wb") as fh:
    fh.write(b"".join(words[i] for i in picks))

run_dir = tempfile.mkdtemp(prefix="szlstm_sample_")
status = dispatch(["train", corpus_path, "--steps", "600", "--hidden", "64",
                   "--batch", "16", "--seq-len", "25", "--chunk-len", "500",
                   "--seed", "1", "--lr", "1.0", "--run-dir", run_dir, "--run-id", "demo"])

ckpt = os.path.join(run_dir, "demo.ckpt")
for temperature in ("0.5", "1.0"):
    print(f"--- temperature {temperature} ---")
    code = dispatch(["sample", ckpt, "--prompt", "<page>", "--length", "120",
                     "--temperature", temperature, "--seed", "4"])
    status = status or code
    print()
sys.exit(status)
