"""The index-row cell step against the dense-row step it replaced, bit for bit.

The reference below is the step as it ran with dense B x M rows: a one-hot
input row, a surprisal row that is zero except at the arriving symbol, the
prediction error p_prev - x, and the update mask multiplied into the cell
update for every variant, including the all-ones masks of standard and sf.
Its backward pass contracts those dense rows directly. forward_step and
backward_window must reproduce it exactly, not merely to a tolerance.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from szlstm.cell import (
    GATES,
    GradientSet,
    RecurrentState,
    backward_window,
    forward_step,
    fuse_gate_weights,
)
from szlstm.numerics import RngState, matmul, one_hot, sample_bernoulli, sigmoid, softmax_rows

from conftest import tiny_params

BATCH, VOCAB, HIDDEN, STEPS = 3, 7, 6, 8


def dense_step(state, x_idx, params, fused, rng, mask_mode, target):
    b, n = x_idx.shape[0], params.hidden_size
    rows = np.arange(b)
    x = one_hot(x_idx, params.vocab_size, dtype=params.dtype)
    s = np.zeros_like(state.p_prev)
    s[rows, x_idx] = np.log(state.p_prev[rows, x_idx])
    err = state.p_prev - x
    a = matmul(x, fused.WgT) + matmul(state.h, fused.UgT) + matmul(s, fused.VgT) + fused.bg
    sig = sigmoid(a[:, : 3 * n])
    f, i, o, u = sig[:, :n], sig[:, n: 2 * n], sig[:, 2 * n:], np.tanh(a[:, 3 * n:])
    if params.variant == "adaptive":
        z = np.minimum(params.tau + np.abs(matmul(err, params.W_y)), 1.0)
    elif params.variant == "fixed_zoneout":
        z = np.full_like(state.c, params.zoneout_rate)
    else:
        z = np.ones_like(state.c)
    if params.variant in ("standard", "sf") or mask_mode == "expected":
        mask = z
    else:
        mask = sample_bernoulli(z, rng)
    c = (1.0 - f * mask) * state.c + mask * (i * u)
    c_hat = np.tanh(c)
    h = o * c_hat
    p = softmax_rows(matmul(h, fused.WyT) + params.b_y)
    loss = float(-np.log(p[rows, target]).mean())
    cache = SimpleNamespace(x=x, s=s, z=z, mask=mask, f=f, i=i, o=o, u=u,
                            h_prev=state.h, c_prev=state.c, c=c, c_hat=c_hat, h=h, p=p)
    return RecurrentState(c=c, h=h, p_prev=p), cache, loss


def dense_backward(caches, params, targets, fused):
    n = params.hidden_size
    d_h = np.zeros_like(caches[-1].h)
    d_c = np.zeros_like(caches[-1].c)
    d_y_all, d_a_all = [], []
    for t in reversed(range(len(caches))):
        k = caches[t]
        batch = k.p.shape[0]
        d_y = k.p / batch
        d_y[np.arange(batch), targets[t]] -= 1.0 / batch
        d_h = d_h + matmul(d_y, params.W_y)
        d_o = d_h * k.c_hat
        d_c = d_c + d_h * k.o * (1.0 - k.c_hat * k.c_hat)
        d_c_prev = d_c * (1.0 - k.f * k.mask)
        d_f = -(d_c * k.mask * k.c_prev)
        d_i = d_c * k.mask * k.u
        d_u = d_c * k.mask * k.i
        d_a = np.concatenate([d_f * k.f * (1.0 - k.f), d_i * k.i * (1.0 - k.i),
                              d_o * k.o * (1.0 - k.o), d_u * (1.0 - k.u * k.u)], axis=1)
        d_h = matmul(d_a, fused.Ug)
        d_c = d_c_prev
        d_y_all.insert(0, d_y)
        d_a_all.insert(0, d_a)
    d_y = np.concatenate(d_y_all)
    d_a = np.concatenate(d_a_all)
    grads = {"W_y": matmul(d_y.T, np.concatenate([k.h for k in caches])),
             "b_y": d_y.sum(axis=0)}
    stacked = {"W_": matmul(d_a.T, np.concatenate([k.x for k in caches])),
               "U_": matmul(d_a.T, np.concatenate([k.h_prev for k in caches])),
               "b_": d_a.sum(axis=0)}
    if params.variant != "standard":
        stacked["V_"] = matmul(d_a.T, np.concatenate([k.s for k in caches]))
    for gi, g in enumerate(GATES):
        for prefix, block in stacked.items():
            grads[prefix + g] = block[gi * n: (gi + 1) * n]
    return grads, d_h, d_c


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
@pytest.mark.parametrize("mask_mode", ["sampled", "expected"])
@pytest.mark.parametrize("variant", ["standard", "sf", "fixed_zoneout", "adaptive"])
def test_index_step_matches_dense_reference(variant, mask_mode, dtype):
    params = tiny_params(vocab=VOCAB, hidden=HIDDEN, variant=variant, dtype=dtype)
    fused = fuse_gate_weights(params)
    sym = RngState(21).integers(0, VOCAB, size=(STEPS + 1, BATCH))
    state = ref_state = RecurrentState.initial(BATCH, HIDDEN, VOCAB, dtype=dtype)
    rng, ref_rng = RngState(22), RngState(22)
    caches, ref_caches = [], []
    for t in range(STEPS):
        state, cache, loss = forward_step(state, sym[t], params, rng=rng,
                                          mask_mode=mask_mode, target=sym[t + 1],
                                          fused=fused)
        ref_state, ref, ref_loss = dense_step(ref_state, sym[t], params, fused, ref_rng,
                                              mask_mode, sym[t + 1])
        for name in ("c", "h", "p", "z", "mask"):
            np.testing.assert_array_equal(getattr(cache, name), getattr(ref, name),
                                          err_msg=f"step {t}: {name}")
        assert loss == ref_loss, f"step {t}: loss"
        np.testing.assert_array_equal(cache.s_val, ref.s[np.arange(BATCH), sym[t]])
        caches.append(cache)
        ref_caches.append(ref)
    assert rng.state() == ref_rng.state()

    grads = GradientSet.zeros_like(params)
    d_h, d_c = backward_window(caches, params, sym[1:], grads, fused=fused)
    ref_grads, ref_d_h, ref_d_c = dense_backward(ref_caches, params, sym[1:], fused)
    np.testing.assert_array_equal(d_h, ref_d_h)
    np.testing.assert_array_equal(d_c, ref_d_c)
    for name in params.trainable_keys():
        np.testing.assert_array_equal(grads[name], ref_grads[name], err_msg=name)
