"""A first look at the adaptive cell: how surprisal drives the update mask.

Runs a small untrained model over a byte stream that alternates between a
highly repetitive phase and a noisy phase, and prints how the per-cell
update probability and the realized update rate react to each.
"""

import numpy as np

from szlstm import ModelParams, RngState, TrainConfig, WindowArena, run_lanes
from szlstm.optim import xavier_init

VOCAB = 16
HIDDEN = 24

# repetitive prefix, then uniform noise: surprisal should collapse on the
# first phase once the pattern is absorbed, and spike on the second
rng = np.random.default_rng(0)
repetitive = np.tile(np.array([1, 2, 3, 4], dtype=np.int64), 50)
noisy = rng.integers(0, VOCAB, size=200)
stream = np.concatenate([repetitive, noisy])

# the model's settings come from a TrainConfig, the one place their defaults live
params = ModelParams.zeros(VOCAB, TrainConfig(hidden=HIDDEN, variant="adaptive", tau=0.05))
xavier_init(params, RngState(7).fork(1))

# one lane from a fresh state, every step recorded in an arena for the printout
steps = len(stream) - 1
arena = WindowArena(params, steps, 1)
run_lanes(params, stream[:, None], rng=RngState(7).fork(3), arena=arena)

print(f"{'step':>5} {'phase':>10} {'mean z':>8} {'updates':>8} {'surprisal':>10}")
for t in range(0, steps, 25):
    phase = "repeat" if t < len(repetitive) else "noise"
    surprisal = float(-arena.s_val[t].sum())
    print(f"{t:>5} {phase:>10} {float(arena.z[t].mean()):>8.3f} "
          f"{float(arena.mask[t].mean()):>8.3f} {surprisal:>10.3f}")

print()
print("An untrained model is surprised by everything, so both phases update")
print("heavily. Train one (see 03_train_tiny.py) and the repetitive phase's")
print("update rate falls toward the tau floor while the noise stays busy.")
