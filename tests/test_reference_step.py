"""The index-row cell step against the dense-row step it replaced, bit for bit.

The reference (conftest's dense_step and dense_backward) is the step as it
ran with dense B x M rows: a one-hot input row, a surprisal row that is zero
except at the arriving symbol, the prediction error p_prev - x, and the
update mask multiplied into the cell update for every variant, including the
all-ones masks of standard and sf. Its backward pass contracts those dense
rows directly. run_lanes and backward_window must reproduce it exactly, not
merely to a tolerance.
"""

import numpy as np
import pytest

from szlstm.cell import (
    GradientSet,
    RecurrentState,
    backward_window,
    fuse_gate_weights,
    run_lanes,
)
from szlstm.numerics import RngState

from conftest import CACHE_FIELDS, dense_backward, dense_step, tiny_params

BATCH, VOCAB, HIDDEN, STEPS = 3, 7, 6, 8


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
@pytest.mark.parametrize("mask_mode", ["sampled", "expected"])
@pytest.mark.parametrize("variant", ["standard", "sf", "fixed_zoneout", "adaptive"])
def test_index_step_matches_dense_reference(variant, mask_mode, dtype):
    params = tiny_params(vocab=VOCAB, hidden=HIDDEN, variant=variant, dtype=dtype)
    fused = fuse_gate_weights(params)
    sym = RngState(21).integers(0, VOCAB, size=(STEPS + 1, BATCH))
    ref_state = RecurrentState.initial(BATCH, HIDDEN, VOCAB, dtype=dtype)
    rng, ref_rng = RngState(22), RngState(22)
    caches, ref_caches, ref_total = [], [], 0.0
    state, total = run_lanes(params, sym, None, rng, mask_mode, on_step=caches.append)
    for t in range(STEPS):
        ref_state, ref, ref_loss = dense_step(ref_state, sym[t], params, fused, ref_rng,
                                              mask_mode, sym[t + 1])
        ref_total += ref_loss
        ref_caches.append(ref)
    assert len(caches) == STEPS
    for t, (cache, ref) in enumerate(zip(caches, ref_caches)):
        for name in CACHE_FIELDS:
            np.testing.assert_array_equal(getattr(cache, name), getattr(ref, name),
                                          err_msg=f"step {t}: {name}")
    for name in ("c", "h", "p_prev"):
        np.testing.assert_array_equal(getattr(state, name), getattr(ref_state, name),
                                      err_msg=name)
    assert total == ref_total
    assert rng.state() == ref_rng.state()

    grads = GradientSet.zeros_like(params)
    d_h, d_c = backward_window(caches, params, sym, grads)
    ref_grads, ref_d_h, ref_d_c = dense_backward(ref_caches, params, sym)
    np.testing.assert_array_equal(d_h, ref_d_h)
    np.testing.assert_array_equal(d_c, ref_d_c)
    for name in params.trainable_keys():
        np.testing.assert_array_equal(getattr(grads, name), ref_grads[name], err_msg=name)
