import warnings

import numpy as np
import pytest

from szlstm.cell import (
    ModelParams,
    RecurrentState,
    cell_update,
    cross_entropy_bpc,
    fuse_gate_weights,
    gate_forward,
    hidden_from_cell,
    prediction_error,
    run_lanes,
    zoneout_rate,
)
from szlstm.numerics import NumericalError, RngState, softmax_rows
from szlstm.optim import xavier_init

from conftest import CACHE_FIELDS, one_hot, tiny_params


def first_surprisal(p_prev, x_idx):
    """The s_val step 0 of run_lanes reads when its input state predicted p_prev
    and the rows x_idx arrive."""
    batch, vocab = p_prev.shape
    params = ModelParams.zeros(vocab, 2, dtype=np.float64)
    state = RecurrentState(c=np.zeros((batch, 2)), h=np.zeros((batch, 2)), p_prev=p_prev)
    # zero weights give uniform outputs, so the target row has no zero probability
    symbols = np.stack([x_idx, np.zeros_like(x_idx)])
    caches = []
    run_lanes(params, symbols, state, mask_mode="expected", on_step=caches.append)
    return caches[0].s_val


class TestModelParams:
    @pytest.mark.parametrize("field,value", [("tau", 1.5), ("zoneout_rate", -0.5),
                                             ("zoneout_rate", 1.5),
                                             ("zoneout_rate", float("nan"))])
    def test_rate_outside_unit_interval_rejected(self, field, value):
        with pytest.raises(ValueError, match=rf"{field} must lie in \[0, 1\]"):
            ModelParams.zeros(5, 4, **{field: value})


class TestSurprisalVector:
    def test_uniform_previous_prediction(self):
        p_prev = np.full((1, 4), 0.25)
        s = first_surprisal(p_prev, np.array([2]))
        assert s.shape == (1,)
        np.testing.assert_allclose(s, [np.log(0.25)], atol=1e-15)
        assert abs(s[0] - (-1.3862943611198906)) < 1e-12

    def test_certain_and_right_means_no_surprise(self):
        p_prev = np.array([[0.0, 0.0, 1.0, 0.0]])
        np.testing.assert_array_equal(first_surprisal(p_prev, np.array([2])), [0.0])

    def test_direct_log_evaluation(self):
        p_prev = np.array([[0.7, 0.2, 0.1], [0.7, 0.2, 0.1]])
        s = first_surprisal(p_prev, np.array([1, 0]))
        assert abs(s[0] - (-1.6094379124341003)) < 1e-12
        assert abs(s[1] - np.log(0.7)) < 1e-15

    def test_zero_probability_is_an_error(self):
        p_prev = np.array([[1.0, 0.0]])
        with pytest.raises(NumericalError, match="zero probability"):
            first_surprisal(p_prev, np.array([1]))

    def test_entries_nonpositive(self):
        rng = np.random.default_rng(0)
        logits = rng.standard_normal((6, 5))
        p_prev = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        assert np.all(first_surprisal(p_prev, rng.integers(0, 5, size=6)) <= 0.0)


class TestPredictionError:
    def test_perfect_prediction(self):
        x = one_hot([1], 3, dtype=np.float64)
        np.testing.assert_array_equal(prediction_error(x, np.array([1])), np.zeros((1, 3)))

    def test_uniform_case(self):
        p_prev = np.full((1, 4), 0.25)
        np.testing.assert_allclose(prediction_error(p_prev, np.array([2])),
                                   [[0.25, 0.25, -0.75, 0.25]], atol=1e-15)

    def test_rows_sum_to_zero(self):
        rng = np.random.default_rng(1)
        logits = rng.standard_normal((8, 6))
        p_prev = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        err = prediction_error(p_prev, rng.integers(0, 6, size=8))
        np.testing.assert_allclose(err.sum(axis=1), 0.0, atol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            prediction_error(np.zeros((1, 3)), np.array([0, 1]))


class TestZoneoutRate:
    def test_zero_error_gives_tau_floor(self):
        z = zoneout_rate(np.zeros((3, 4)), np.ones((4, 6)), 0.05)
        np.testing.assert_array_equal(z, np.full((3, 6), 0.05))

    def test_clip_at_one(self):
        err = np.array([[5.0, 0.0]])
        W_y = np.eye(2)
        z = zoneout_rate(err, W_y, 0.1)
        assert z[0, 0] == 1.0

    def test_hand_worked_projection(self):
        # backprojection [0.5, -1.0], then floor 0.1 and clip
        err = np.array([[0.5, -0.5]])
        W_y = np.array([[1.0, 0.0], [0.0, 2.0]])
        back = np.array([[0.5 * 1.0 + (-0.5) * 0.0, 0.5 * 0.0 + (-0.5) * 2.0]])
        np.testing.assert_array_equal(err @ W_y, back)
        z = zoneout_rate(err, W_y, 0.1)
        np.testing.assert_allclose(z, [[0.6, 1.0]], atol=1e-15)

    def test_bounds(self):
        rng = np.random.default_rng(2)
        err = rng.standard_normal((10, 5))
        W_y = rng.standard_normal((5, 7))
        for tau in (0.0, 0.05, 0.9, 1.0):
            z = zoneout_rate(err, W_y, tau)
            assert np.all(z >= min(tau, 1.0)) and np.all(z <= 1.0)


class TestGateForward:
    def test_all_zeros(self):
        params = ModelParams.zeros(3, 4, dtype=np.float64)
        h = np.zeros((2, 4))
        f, i, o, u = gate_forward(np.array([1, 2]), np.zeros(2), h,
                                  fuse_gate_weights(params))
        np.testing.assert_array_equal(f, np.full((2, 4), 0.5))
        np.testing.assert_array_equal(i, np.full((2, 4), 0.5))
        np.testing.assert_array_equal(o, np.full((2, 4), 0.5))
        np.testing.assert_array_equal(u, np.zeros((2, 4)))

    def test_unit_erase_bias(self):
        params = ModelParams.zeros(3, 4, dtype=np.float64)
        params.b_f.fill(1.0)
        f, _, _, _ = gate_forward(np.array([0]), np.zeros(1), np.zeros((1, 4)),
                                  fuse_gate_weights(params))
        np.testing.assert_allclose(f, 1.0 / (1.0 + np.exp(-1.0)), atol=1e-15)
        assert abs(f[0, 0] - 0.7310585786300049) < 1e-12

    def test_against_scalar_loop(self):
        params = tiny_params(vocab=4, hidden=3, seed=9)
        rng = np.random.default_rng(4)
        x_idx = np.array([3, 1])
        h = rng.standard_normal((2, 3))
        s_val = -np.abs(rng.standard_normal(2))
        f, i, o, u = gate_forward(x_idx, s_val, h, fuse_gate_weights(params))
        # the dense rows the gathers stand for: one-hot input, single-entry surprisal
        x = one_hot(x_idx, 4, dtype=np.float64)
        s = x * s_val[:, None]

        def preact(W, U, V, b, r):
            out = np.zeros(3)
            for j in range(3):
                acc = b[j]
                for m in range(4):
                    acc += W[j, m] * x[r, m] + V[j, m] * s[r, m]
                for k in range(3):
                    acc += U[j, k] * h[r, k]
                out[j] = acc
            return out

        for r in range(2):
            np.testing.assert_allclose(
                f[r], 1 / (1 + np.exp(-preact(params.W_f, params.U_f, params.V_f, params.b_f, r))),
                atol=1e-12)
            np.testing.assert_allclose(
                i[r], 1 / (1 + np.exp(-preact(params.W_i, params.U_i, params.V_i, params.b_i, r))),
                atol=1e-12)
            np.testing.assert_allclose(
                o[r], 1 / (1 + np.exp(-preact(params.W_o, params.U_o, params.V_o, params.b_o, r))),
                atol=1e-12)
            np.testing.assert_allclose(
                u[r], np.tanh(preact(params.W_u, params.U_u, params.V_u, params.b_u, r)),
                atol=1e-12)


class TestCellUpdate:
    def test_masked_out_is_bit_exact_nop(self):
        rng = np.random.default_rng(5)
        c_prev = rng.standard_normal((3, 4)).astype(np.float32)
        f, i, u = (rng.random((3, 4)).astype(np.float32) for _ in range(3))
        c = cell_update(c_prev, f, i, u, np.zeros_like(c_prev))
        np.testing.assert_array_equal(c, c_prev)

    def test_full_erase_full_write(self):
        c_prev = np.full((1, 3), 7.0)
        i = np.array([[0.2, 0.4, 0.6]])
        u = np.array([[1.0, -1.0, 0.5]])
        c = cell_update(c_prev, np.ones((1, 3)), i, u, np.ones((1, 3)))
        np.testing.assert_allclose(c, i * u, atol=1e-15)

    def test_no_erase_no_write(self):
        c_prev = np.array([[1.5, -2.0]])
        c = cell_update(c_prev, np.zeros((1, 2)), np.zeros((1, 2)),
                        np.array([[0.9, 0.9]]), np.ones((1, 2)))
        np.testing.assert_array_equal(c, c_prev)


class TestHiddenFromCell:
    def test_zero_cell(self):
        c_hat, h = hidden_from_cell(np.zeros((1, 3)), np.array([[0.1, 0.5, 0.9]]))
        np.testing.assert_array_equal(h, np.zeros((1, 3)))

    def test_closed_read_gate(self):
        _, h = hidden_from_cell(np.array([[2.0, -3.0]]), np.zeros((1, 2)))
        np.testing.assert_array_equal(h, np.zeros((1, 2)))

    def test_half_open_gate_on_unit_cell(self):
        _, h = hidden_from_cell(np.array([[1.0]]), np.array([[0.5]]))
        assert abs(h[0, 0] - 0.3807970779778824) < 1e-12

    def test_bounded(self):
        rng = np.random.default_rng(6)
        c = rng.standard_normal((5, 5)) * 3
        o = rng.random((5, 5)) * 0.999
        c_hat, h = hidden_from_cell(c, o)
        assert np.all(np.abs(c_hat) < 1.0) and np.all(np.abs(h) < 1.0)
        # saturation never exceeds the bound even for extreme cells
        c_hat_big, h_big = hidden_from_cell(c * 100, o)
        assert np.all(np.abs(c_hat_big) <= 1.0) and np.all(np.abs(h_big) <= 1.0)


class TestProjectOutputs:
    """The output distribution a step's cache holds as p."""

    @staticmethod
    def output(params, batch, seed):
        rng = np.random.default_rng(seed)
        state = RecurrentState.initial(batch, params.hidden_size, params.vocab_size,
                                       dtype=params.dtype)
        state.c[:] = rng.standard_normal(state.c.shape)
        state.h[:] = rng.standard_normal(state.h.shape)
        x_idx = rng.integers(0, params.vocab_size, size=batch)
        caches = []
        run_lanes(params, np.stack([x_idx, x_idx]), state, mask_mode="expected",
                  on_step=caches.append)
        return caches[0].p

    def test_zero_weights_give_uniform(self):
        params = ModelParams.zeros(5, 3, dtype=np.float64)
        np.testing.assert_array_equal(self.output(params, 2, 7), np.full((2, 5), 0.2))

    def test_bias_shift_invariance(self):
        params = tiny_params(vocab=5, hidden=3, seed=2)
        p1 = self.output(params, 2, 7)
        params.b_y += 11.0
        p2 = self.output(params, 2, 7)
        np.testing.assert_allclose(p1, p2, atol=1e-12)

    def test_rows_sum_to_one(self):
        params = tiny_params(vocab=6, hidden=4, seed=8)
        p = self.output(params, 3, 8)
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)


def drive(params, steps, seed=0, mask_mode="sampled", batch=2):
    """Run `steps` steps on a shared random symbol stream; returns (state, caches)."""
    sym = RngState(seed).fork(2).integers(0, params.vocab_size, size=(steps + 1, batch))
    caches = []
    state, _ = run_lanes(params, sym, None, RngState(seed).fork(3), mask_mode,
                         on_step=caches.append)
    return state, caches


class TestCellStep:
    def test_adaptive_tau_one_equals_sf(self):
        pa = tiny_params(variant="adaptive", tau=1.0, dtype=np.float32)
        ps = tiny_params(variant="sf", dtype=np.float32)
        _, ca = drive(pa, 50)
        _, cs = drive(ps, 50)
        for a, b in zip(ca, cs):
            np.testing.assert_array_equal(a.c, b.c)
            np.testing.assert_array_equal(a.h, b.h)
            np.testing.assert_array_equal(a.p, b.p)

    def test_sf_with_zero_feedback_equals_standard(self):
        ps = tiny_params(variant="sf", dtype=np.float32)
        for g in "fiou":
            getattr(ps, "V_" + g).fill(0.0)
        pstd = tiny_params(variant="standard", dtype=np.float32)
        _, cs = drive(ps, 50)
        _, cn = drive(pstd, 50)
        for a, b in zip(cs, cn):
            np.testing.assert_array_equal(a.p, b.p)

    def test_cache_invariants(self):
        params = tiny_params(variant="adaptive", tau=0.05)
        _, caches = drive(params, 40)
        for cache in caches:
            assert np.all(cache.z >= 0.05) and np.all(cache.z <= 1.0)
            assert set(np.unique(cache.mask)).issubset({0.0, 1.0})
            np.testing.assert_allclose(cache.p.sum(axis=1), 1.0, atol=1e-12)
            assert np.all((cache.f > 0) & (cache.f < 1))
            assert np.all(np.abs(cache.u) < 1)

    def test_expected_mask_mode_uses_probability(self):
        params = tiny_params(variant="fixed_zoneout", zoneout_rate=0.3)
        _, caches = drive(params, 5, mask_mode="expected")
        for cache in caches:
            np.testing.assert_array_equal(cache.mask, np.full_like(cache.mask, 0.3))

    def test_untrained_loss_near_uniform(self):
        vocab, hidden = 27, 32
        params = ModelParams.zeros(vocab, hidden, variant="adaptive", dtype=np.float32)
        xavier_init(params, RngState(0).fork(1))
        sym = RngState(0).fork(2).integers(0, vocab, size=(201, 4))
        _, total = run_lanes(params, sym, None, RngState(0).fork(3))
        mean = total / 200
        assert abs(mean - np.log(vocab)) / np.log(vocab) < 0.10

    def test_rejects_unknown_mask_mode(self):
        with pytest.raises(ValueError, match="mask_mode"):
            run_lanes(tiny_params(), np.array([[0], [0]]), mask_mode="bogus")


class TestRunLanes:
    """The lane driver: split runs, frozen replays, mask draws and generation."""

    @staticmethod
    def stream(params, steps=12, batch=3):
        sym = RngState(5).integers(0, params.vocab_size, size=(steps + 1, batch))
        state = RecurrentState.initial(batch, params.hidden_size, params.vocab_size,
                                       dtype=params.dtype)
        return sym, state

    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
    @pytest.mark.parametrize("mask_mode", ["sampled", "expected"])
    @pytest.mark.parametrize("variant", ["standard", "sf", "fixed_zoneout", "adaptive"])
    def test_equals_forward_step_loop(self, variant, mask_mode, dtype):
        # one call over T steps equals T one-step calls that carry the state
        # and the rng along, as training carries them across its windows
        params = tiny_params(variant=variant, dtype=dtype)
        sym, state0 = self.stream(params)
        state, total, ref_caches = state0, 0.0, []
        ref_rng = RngState(8)
        for t in range(sym.shape[0] - 1):
            state, loss = run_lanes(params, sym[t: t + 2], state, ref_rng, mask_mode,
                                    on_step=ref_caches.append)
            total += loss
        rng, caches = RngState(8), []
        out, loss = run_lanes(params, sym, state0, rng, mask_mode, on_step=caches.append)
        assert loss == total
        assert rng.state() == ref_rng.state()
        for name in ("c", "h", "p_prev"):
            np.testing.assert_array_equal(getattr(out, name), getattr(state, name), err_msg=name)
        for t, (cache, ref) in enumerate(zip(caches, ref_caches, strict=True)):
            for name in CACHE_FIELDS:
                np.testing.assert_array_equal(getattr(cache, name), getattr(ref, name),
                                              err_msg=f"step {t}: {name}")

    @pytest.mark.parametrize("variant", ["standard", "sf", "fixed_zoneout", "adaptive"])
    def test_frozen_replay_reproduces_the_run(self, variant):
        # the gradient oracle's replay: the run's own caches as frozen steps,
        # holding each step's (s_val, z, mask) with no rng to draw from, give
        # back the run bit for bit
        params = tiny_params(variant=variant)
        sym, state0 = self.stream(params)
        caches = []
        out, loss = run_lanes(params, sym, state0, RngState(8), "sampled",
                              on_step=caches.append)
        replay, replay_loss = run_lanes(params, sym, state0, frozen=caches)
        assert replay_loss == loss
        for name in ("c", "h", "p_prev"):
            np.testing.assert_array_equal(getattr(replay, name), getattr(out, name),
                                          err_msg=name)

    @pytest.mark.parametrize("variant,draws", [("standard", 0), ("sf", 0),
                                               ("fixed_zoneout", 12), ("adaptive", 12)])
    def test_mask_draws_per_step(self, variant, draws):
        params = tiny_params(variant=variant)
        sym, state0 = self.stream(params)
        rng = RngState(4, 10)
        run_lanes(params, sym, state0, rng, "sampled")
        assert rng.state() == (4, 10 + draws)
        run_lanes(params, sym, state0, rng, "expected")
        assert rng.state() == (4, 10 + draws)

    def test_single_symbol_runs_no_step(self):
        params = tiny_params()
        sym, state0 = self.stream(params, steps=0)
        out, loss = run_lanes(params, sym, state0, RngState(0))
        assert loss == 0.0 and out.c is state0.c

    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
    def test_finite_on_extreme_gate_biases(self, dtype):
        # +-1000 pre-activations overflow exp in the gate sigmoids; the
        # overflow must give exact 0/1 gates and no RuntimeWarning
        params = tiny_params(variant="adaptive", dtype=dtype)
        params.bg[:] = np.where(np.arange(params.bg.size) % 2, 1000.0, -1000.0)
        sym, state0 = self.stream(params)
        caches = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out, loss = run_lanes(params, sym, state0, RngState(1), "sampled",
                                  on_step=caches.append)
        assert np.isfinite(loss)
        for name in ("c", "h", "p_prev"):
            assert np.all(np.isfinite(getattr(out, name))), name
        gates = np.concatenate([np.concatenate([c.f, c.i, c.o], axis=1) for c in caches])
        assert set(np.unique(gates).tolist()) == {0.0, 1.0}

    @pytest.mark.parametrize("variant", ["standard", "sf", "fixed_zoneout", "adaptive"])
    def test_choose_fills_the_next_row_before_it_is_scored(self, variant):
        params = tiny_params(variant=variant)
        _, state0 = self.stream(params)
        symbols = np.zeros((9, 3), dtype=np.intp)
        symbols[0] = [0, 2, 4]
        seen = []

        def choose(t, y, p):
            assert t == len(seen)
            np.testing.assert_array_equal(p, softmax_rows(y))
            seen.append(p.copy())
            return np.argmax(p, axis=1)

        out, loss = run_lanes(params, symbols, state0, RngState(2), "sampled", choose=choose)
        assert len(seen) == 8
        for t, p in enumerate(seen):
            np.testing.assert_array_equal(symbols[t + 1], np.argmax(p, axis=1))
        # the filled rows, walked as a given symbol array, give the same run
        ref, ref_loss = run_lanes(params, symbols.copy(), state0, RngState(2), "sampled")
        assert loss == ref_loss
        np.testing.assert_array_equal(out.c, ref.c)
        np.testing.assert_array_equal(out.p_prev, ref.p_prev)

    def test_zero_probability_target_raises(self):
        # zero weights leave h = 0, so the logits are exactly b_y
        params = ModelParams.zeros(5, 4, dtype=np.float32)
        params.b_y[:] = [0, 0, 0, 0, 120]
        state = RecurrentState.initial(1, 4, 5, dtype=np.float32)
        with pytest.raises(NumericalError, match="target symbol"):
            run_lanes(params, np.array([[4], [4], [0]]), state, mask_mode="expected")


class TestCrossEntropyBpc:
    def test_ln2_is_one_bit(self):
        assert abs(cross_entropy_bpc(np.log(2.0)) - 1.0) < 1e-15

    def test_zero(self):
        assert cross_entropy_bpc(0.0) == 0.0

    def test_uniform_model_rate(self):
        m = 205
        assert abs(cross_entropy_bpc(np.log(m)) - np.log2(m)) < 1e-12
