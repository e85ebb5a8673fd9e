import numpy as np
import pytest

from szlstm.cell import GradientSet, backward_window
from szlstm.numerics import RngState

from conftest import arena_steps, dense_deltas, one_hot, record, tiny_params


def symbol_window(params, sym, rng):
    """Forward over the (T + 1, B) symbol rows sym; returns the step views
    of its arena and the arena."""
    arena = record(params, sym, None, rng)[2]
    return arena_steps(arena), arena


def window(params, steps=6, seed=4, batch=3):
    """A random window's (step views, arena, symbols)."""
    sym = RngState(seed).fork(2).integers(0, params.vocab_size, size=(steps + 1, batch))
    return *symbol_window(params, sym, RngState(seed).fork(3)), sym


def test_frozen_step_blocks_write_gradients():
    params = tiny_params(variant="adaptive")
    caches, arena, sym = window(params, steps=1)
    cache = caches[0]
    cache.mask[...] = 0.0
    # the cell gradient passes straight through, unscaled by the erase gate;
    # expected is read before the backward pass overwrites p and the gates
    h_path = (cache.p / cache.p.shape[0])
    h_path[np.arange(cache.p.shape[0]), sym[1]] -= 1.0 / cache.p.shape[0]
    d_h_local = h_path @ params.W_y
    expected = d_h_local * cache.o * (1.0 - cache.c_hat ** 2)
    grads = GradientSet.zeros_like(params)
    d_h_prev, d_c_prev = backward_window(arena, params, sym, grads)
    # with every cell frozen the write path carries nothing for this step
    assert np.array_equal(grads.W_u, np.zeros_like(grads.W_u))
    assert np.array_equal(grads.U_u, np.zeros_like(grads.U_u))
    assert np.array_equal(grads.V_u, np.zeros_like(grads.V_u))
    assert np.array_equal(grads.b_f, np.zeros_like(grads.b_f))
    np.testing.assert_allclose(d_c_prev, expected, atol=1e-12)


def test_zero_upstream_and_exact_prediction_leaves_grads_untouched():
    params = tiny_params(variant="sf")
    caches, arena, sym = window(params, steps=1)
    cache = caches[0]
    # force the prediction to exactly match the target one-hot
    cache.p[...] = one_hot(sym[1], params.vocab_size, dtype=params.dtype)
    grads = GradientSet.zeros_like(params)
    backward_window(arena, params, sym, grads)
    for name, block in grads.items():
        np.testing.assert_array_equal(block, np.zeros_like(block), err_msg=name)


def test_standard_variant_accumulates_no_feedback_gradient():
    params = tiny_params(variant="standard")
    caches, arena, sym = window(params, steps=4)
    grads = GradientSet.zeros_like(params)
    backward_window(arena, params, sym, grads)
    for g in "fiou":
        block = getattr(grads, "V_" + g)
        np.testing.assert_array_equal(block, np.zeros_like(block))
    assert grads.global_norm() > 0


def test_shape_mismatch_is_rejected():
    params = tiny_params()
    caches, arena, sym = window(params, steps=2)
    grads = GradientSet.zeros_like(params)
    # sym[1:] is the (T, B) target array alone
    for wrong in (sym[1:], sym[:, :1], np.concatenate([sym, sym])):
        with pytest.raises(ValueError, match="shape"):
            backward_window(arena, params, wrong, grads)


def dense_rows(caches, params, sym):
    """Each step's one-hot input rows and surprisal rows (zero but at the symbol)."""
    xs = [one_hot(row, params.vocab_size, dtype=params.dtype) for row in sym[:-1]]
    return xs, [x * c.s_val[:, None] for x, c in zip(xs, caches)]


def per_step_composition(caches, params, sym):
    """The window's gradients as a sum of per-step terms: the dense reference
    sweep's output and gate gradients of each step contracted with that
    step's dense rows (h, h_prev, one-hot input, surprisal row) on its own."""
    d_ys, d_as, d_h, d_c = dense_deltas(caches, params, sym)
    grads = GradientSet.zeros_like(params)
    for c, d_y, d_a, x, s in zip(caches, d_ys, d_as, *dense_rows(caches, params, sym)):
        grads.W_y += d_y.T @ c.h
        grads.b_y += d_y.sum(axis=0)
        grads.Ug += d_a.T @ c.h_prev
        grads.bg += d_a.sum(axis=0)
        grads.Wg += d_a.T @ x
        if params.variant != "standard":
            grads.Vg += d_a.T @ s
    return grads, d_h, d_c


@pytest.mark.parametrize("variant", ["standard", "sf", "fixed_zoneout", "adaptive"])
def test_window_backward_matches_per_step_composition(variant):
    params = tiny_params(variant=variant)
    caches, arena, sym = window(params, steps=7)
    g_steps, d_h, d_c = per_step_composition(caches, params, sym)
    g_window = GradientSet.zeros_like(params)
    d_h2, d_c2 = backward_window(arena, params, sym, g_window)
    np.testing.assert_allclose(d_h2, d_h, atol=1e-13)
    np.testing.assert_allclose(d_c2, d_c, atol=1e-13)
    for name, block in g_steps.items():
        np.testing.assert_allclose(getattr(g_window, name), block, atol=1e-12, err_msg=name)


def test_gradient_set_helpers():
    params = tiny_params()
    grads = GradientSet.zeros_like(params)
    grads.b_y += 3.0
    grads.W_f[...] = 2.0
    # writes through block attributes land in flat: W_f is its first block,
    # b_y its last
    np.testing.assert_array_equal(grads.flat[: grads.W_f.size], 2.0)
    np.testing.assert_array_equal(grads.flat[-params.vocab_size:], 3.0)
    grads.W_f[...] = 0.0
    assert grads.global_norm() == pytest.approx(3.0 * np.sqrt(params.vocab_size))
    grads.flat *= 0.5
    np.testing.assert_array_equal(grads.b_y, np.full(params.vocab_size, 1.5))
    grads.flat.fill(0.0)
    assert grads.global_norm() == 0.0


# 3200 window rows: longer than one BLAS K-block, so the dense contraction
# below sums each column in pieces while backward_window sums each symbol's
# rows in one sequence; the results agree to rounding, not bit for bit
LONG_BATCH, LONG_STEPS, LONG_VOCAB = 32, 100, 20


def dense_input_grads(caches, params, sym):
    """The W_*/V_* gate gradients (4N x M) as one dense matmul each of the
    dense reference sweep's gate gradients against the window's one-hot rows
    and its surprisal rows."""
    d_a = np.concatenate(dense_deltas(caches, params, sym)[1])
    xs, ss = dense_rows(caches, params, sym)
    return d_a.T @ np.concatenate(xs), d_a.T @ np.concatenate(ss)


def assert_input_grads_match(params, window, sym):
    caches, arena = window
    # the reference reads the step views before the backward pass overwrites p and the gates
    ref_w, ref_v = dense_input_grads(caches, params, sym)
    grads = GradientSet.zeros_like(params)
    backward_window(arena, params, sym, grads)
    pairs = [(grads.Wg, ref_w)]
    if params.variant == "standard":
        np.testing.assert_array_equal(grads.Vg, 0.0)
    else:
        pairs.append((grads.Vg, ref_v))
    # within 1e-12 (f64) or 1e-5 (f32) of the block's largest entry: an entry
    # that cancels to a small value carries the rounding of its large terms
    tol = 1e-12 if params.dtype == np.float64 else 1e-5
    for got, ref in pairs:
        np.testing.assert_allclose(got, ref, rtol=0, atol=tol * np.abs(ref).max())
    return grads


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
@pytest.mark.parametrize("variant", ["standard", "sf", "fixed_zoneout", "adaptive"])
def test_long_window_input_grads_match_dense_contraction(variant, dtype):
    params = tiny_params(vocab=LONG_VOCAB, variant=variant, dtype=dtype)
    sym = RngState(7).integers(0, LONG_VOCAB, size=(LONG_STEPS + 1, LONG_BATCH))
    assert_input_grads_match(params, symbol_window(params, sym, RngState(6)), sym)


def test_symbols_absent_from_window_get_zero_columns():
    params = tiny_params(vocab=LONG_VOCAB, variant="adaptive")
    sym = RngState(8).integers(0, LONG_VOCAB - 5, size=(LONG_STEPS + 1, LONG_BATCH))
    grads = assert_input_grads_match(params, symbol_window(params, sym, RngState(6)), sym)
    for family in (grads.Wg, grads.Vg):
        assert np.all(family[:, : LONG_VOCAB - 5] != 0.0)
        np.testing.assert_array_equal(family[:, LONG_VOCAB - 5:], 0.0)


def test_window_of_one_symbol():
    params = tiny_params(vocab=LONG_VOCAB, variant="adaptive")
    sym = np.full((LONG_STEPS + 1, LONG_BATCH), 3)
    grads = assert_input_grads_match(params, symbol_window(params, sym, RngState(6)), sym)
    for family in (grads.Wg, grads.Vg):
        assert np.all(family[:, 3] != 0.0)
        np.testing.assert_array_equal(np.delete(family, 3, axis=1), 0.0)
