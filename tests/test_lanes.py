"""Lanes are independent: a B-lane run is B single-lane runs side by side.

A leak between lanes (a wrong batch mean in the loss, a target subtracted
at another lane's row, one lane's mask read by another) shows as a gap
between the batch's numbers and those of its lanes run alone. A one-lane
product runs as a gemv, which rounds unlike the batch's gemm, so the
comparisons carry a tolerance, not equality.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from szlstm.cell import VARIANTS, GradientSet, backward_window
from szlstm.numerics import RngState
from szlstm.training import TrainConfig, evaluate_bpc

from conftest import record, tiny_params

HIDDEN, VOCAB, BATCH, STEPS, SEED = 64, 50, 8, 50, 1

# Normwise relative gap, in units of the dtype's eps. Seeds 1-10 of this
# test's set-up gave at most 3.4 eps in f64 (7.6e-16) and 3.6 eps in f32
# (4.3e-7) over all four variants, so 16 eps leaves a margin above 4x.
GAP_EPS = 16


def window_gradient(params, symbols, rng=None, frozen=None):
    """Flat float64 gradient of one window run from fresh lanes, and its arena."""
    _, _, arena = record(params, symbols, None, rng, frozen=frozen)
    grads = GradientSet.zeros_like(params)
    backward_window(arena, params, symbols, grads)
    return grads.flat.astype(np.float64), arena


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
@pytest.mark.parametrize("variant", ["standard", "sf", "fixed_zoneout", "adaptive"])
def test_batch_gradient_is_the_mean_of_single_lane_gradients(variant, dtype):
    params = tiny_params(vocab=VOCAB, hidden=HIDDEN, variant=variant, seed=SEED, dtype=dtype)
    sym = RngState(SEED).fork(2).integers(0, VOCAB, size=(STEPS + 1, BATCH))
    batch, arena = window_gradient(params, sym, RngState(SEED).fork(3))
    # each lane replays its own sampled masks and surprisals from the batch arena
    lanes = [window_gradient(params, sym[:, b: b + 1], frozen=SimpleNamespace(
        s_val=arena.s_val[:, b: b + 1], z=arena.z[:, b: b + 1],
        mask=arena.mask[:, b: b + 1]))[0] for b in range(BATCH)]
    gap = np.linalg.norm(batch - np.mean(lanes, axis=0)) / np.linalg.norm(batch)
    assert gap <= GAP_EPS * np.finfo(dtype).eps


# Relative gap between evaluate_bpc at lanes=BATCH and the mean over its
# segments, in f64 eps. Seeds 1-10 of this test's set-up gave at most 2.83
# eps over the six cases, so 16 eps leaves a margin above 5x.
EVAL_GAP_EPS = 16


@pytest.mark.parametrize("variant,mask_mode", [*((v, "expected") for v in VARIANTS),
                                               ("standard", "sampled"), ("sf", "sampled")])
def test_eval_is_the_mean_of_its_segments_run_alone(variant, mask_mode):
    # standard and sf draw no masks, so their sampled evaluation is exact
    # too; three trailing symbols fill no segment and are dropped
    params = tiny_params(vocab=VOCAB, hidden=HIDDEN, variant=variant, seed=SEED,
                         dtype=np.float64)
    split = RngState(SEED).fork(2).integers(0, VOCAB, size=BATCH * (STEPS + 1) + 3)
    cfg = TrainConfig(eval_mask_mode=mask_mode, seed=SEED)
    batch = evaluate_bpc(params, split, cfg, lanes=BATCH)
    seg = STEPS + 1
    alone = [evaluate_bpc(params, split[k * seg: (k + 1) * seg], cfg) for k in range(BATCH)]
    assert abs(batch - np.mean(alone)) <= EVAL_GAP_EPS * np.finfo(np.float64).eps * batch
