"""A first look at the adaptive cell: how surprisal drives the update mask.

Runs a small untrained model over a byte stream that alternates between a
highly repetitive phase and a noisy phase, and prints how the per-cell
update probability and the realized update rate react to each.
"""

import numpy as np

from szlstm import ModelParams, RecurrentState, RngState, forward_step
from szlstm.optim import xavier_init

VOCAB = 16
HIDDEN = 24

# repetitive prefix, then uniform noise: surprisal should collapse on the
# first phase once the pattern is absorbed, and spike on the second
rng = np.random.default_rng(0)
repetitive = np.tile(np.array([1, 2, 3, 4], dtype=np.int64), 50)
noisy = rng.integers(0, VOCAB, size=200)
stream = np.concatenate([repetitive, noisy])

params = ModelParams.zeros(VOCAB, HIDDEN, variant="adaptive", tau=0.05)
xavier_init(params, RngState(7).fork(1))

state = RecurrentState.initial(1, HIDDEN, VOCAB, dtype=np.float32)
mask_rng = RngState(7).fork(3)

print(f"{'step':>5} {'phase':>10} {'mean z':>8} {'updates':>8} {'surprisal':>10}")
for t in range(len(stream) - 1):
    state, cache, _ = forward_step(state, stream[t: t + 1], params, rng=mask_rng,
                                   target=stream[t + 1: t + 2])
    if t % 25 == 0:
        phase = "repeat" if t < len(repetitive) else "noise"
        surprisal = float(-cache.s_val.sum())
        print(f"{t:>5} {phase:>10} {float(cache.z.mean()):>8.3f} "
              f"{float(cache.mask.mean()):>8.3f} {surprisal:>10.3f}")

print()
print("An untrained model is surprised by everything, so both phases update")
print("heavily. Train one (see 03_train_tiny.py) and the repetitive phase's")
print("update rate falls toward the tau floor while the noise stays busy.")
