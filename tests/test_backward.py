import numpy as np
import pytest

from szlstm.cell import (
    GradientSet,
    RecurrentState,
    backward_step,
    backward_window,
    forward_step,
)
from szlstm.numerics import RngState, one_hot

from conftest import tiny_params


def window(params, steps=6, seed=4, batch=3):
    vocab = params.vocab_size
    sym = RngState(seed).fork(2).integers(0, vocab, size=(steps + 1, batch))
    state = RecurrentState.initial(batch, params.hidden_size, vocab, dtype=params.dtype)
    rng = RngState(seed).fork(3)
    caches = []
    for t in range(steps):
        state, cache, _ = forward_step(state, sym[t], params, rng=rng, target=sym[t + 1])
        caches.append(cache)
    return caches, sym[1:]


def test_frozen_step_blocks_write_gradients():
    params = tiny_params(variant="adaptive")
    caches, targets = window(params, steps=1)
    cache = caches[0]
    cache.mask[...] = 0.0
    grads = GradientSet.zeros_like(params)
    d_h = np.zeros_like(cache.h)
    d_c = np.random.default_rng(0).standard_normal(cache.c.shape)
    d_h_prev, d_c_prev = backward_step(cache, params, d_h, d_c, targets[0], grads)
    # with every cell frozen the write path carries nothing for this step
    assert np.array_equal(grads["W_u"], np.zeros_like(grads["W_u"]))
    assert np.array_equal(grads["U_u"], np.zeros_like(grads["U_u"]))
    assert np.array_equal(grads["V_u"], np.zeros_like(grads["V_u"]))
    assert np.array_equal(grads["b_f"], np.zeros_like(grads["b_f"]))
    # the cell gradient passes straight through, plus the hidden-path term
    h_path = (cache.p / cache.p.shape[0])
    h_path[np.arange(cache.p.shape[0]), targets[0]] -= 1.0 / cache.p.shape[0]
    d_h_local = h_path @ params.W_y
    expected = d_c + d_h_local * cache.o * (1.0 - cache.c_hat ** 2)
    np.testing.assert_allclose(d_c_prev, expected, atol=1e-12)


def test_zero_upstream_and_exact_prediction_leaves_grads_untouched():
    params = tiny_params(variant="sf")
    caches, targets = window(params, steps=1)
    cache = caches[0]
    # force the prediction to exactly match the target one-hot
    cache.p = one_hot(targets[0], params.vocab_size, dtype=params.dtype)
    grads = GradientSet.zeros_like(params)
    backward_step(cache, params, np.zeros_like(cache.h), np.zeros_like(cache.c),
                  targets[0], grads)
    for name, block in grads.items():
        np.testing.assert_array_equal(block, np.zeros_like(block), err_msg=name)


def test_standard_variant_accumulates_no_feedback_gradient():
    params = tiny_params(variant="standard")
    caches, targets = window(params, steps=4)
    grads = GradientSet.zeros_like(params)
    d_h = np.zeros_like(caches[0].h)
    d_c = np.zeros_like(caches[0].c)
    for t in reversed(range(4)):
        d_h, d_c = backward_step(caches[t], params, d_h, d_c, targets[t], grads)
    for g in "fiou":
        np.testing.assert_array_equal(grads["V_" + g], np.zeros_like(grads["V_" + g]))
    assert grads.global_norm() > 0


def test_shape_mismatch_is_rejected():
    params = tiny_params()
    caches, targets = window(params, steps=1)
    grads = GradientSet.zeros_like(params)
    with pytest.raises(ValueError, match="shape"):
        backward_step(caches[0], params, np.zeros((1, 1)), np.zeros((1, 1)),
                      targets[0], grads)


@pytest.mark.parametrize("variant", ["standard", "sf", "fixed_zoneout", "adaptive"])
def test_window_backward_matches_per_step_composition(variant):
    params = tiny_params(variant=variant)
    caches, targets = window(params, steps=7)
    g_steps = GradientSet.zeros_like(params)
    d_h = np.zeros_like(caches[0].h)
    d_c = np.zeros_like(caches[0].c)
    for t in reversed(range(7)):
        d_h, d_c = backward_step(caches[t], params, d_h, d_c, targets[t], g_steps)
    g_window = GradientSet.zeros_like(params)
    d_h2, d_c2 = backward_window(caches, params, targets, g_window)
    np.testing.assert_allclose(d_h2, d_h, atol=1e-13)
    np.testing.assert_allclose(d_c2, d_c, atol=1e-13)
    for name, block in g_steps.items():
        np.testing.assert_allclose(g_window[name], block, atol=1e-12, err_msg=name)


def test_gradient_set_helpers():
    params = tiny_params()
    grads = GradientSet.zeros_like(params)
    grads["b_y"] += 3.0
    assert grads.global_norm() == pytest.approx(3.0 * np.sqrt(params.vocab_size))
    grads.scale_(0.5)
    np.testing.assert_array_equal(grads["b_y"], np.full(params.vocab_size, 1.5))
    grads.zero_()
    assert grads.global_norm() == 0.0
