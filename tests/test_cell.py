import warnings

import numpy as np
import pytest

from szlstm.cell import (
    HEAD_BLOCK_ROWS,
    GradientSet,
    ModelParams,
    RecurrentState,
    WindowArena,
    backward_window,
    cross_entropy_bpc,
    run_lanes,
    zoneout_rate,
)
from szlstm.numerics import NumericalError, RngState, softmax_rows
from szlstm.optim import AdadeltaState, xavier_init
from szlstm.training import TrainConfig

from conftest import STEP_FIELDS, arena_steps, one_hot, record, step_views, tiny_params


def first_surprisal(p_prev, x_idx):
    """The s_val step 0 of run_lanes reads when its input state predicted p_prev
    and the rows x_idx arrive."""
    batch, vocab = p_prev.shape
    params = ModelParams.zeros(vocab, TrainConfig(hidden=2, precision="f64"))
    state = RecurrentState(c=np.zeros((batch, 2)), h=np.zeros((batch, 2)), p_prev=p_prev)
    # zero weights give uniform outputs, so the target row has no zero probability
    symbols = np.stack([x_idx, np.zeros_like(x_idx)])
    return record(params, symbols, state, mask_mode="expected")[2].s_val[0]


class TestModelParams:
    @pytest.mark.parametrize("field,value", [("tau", 1.5), ("zoneout_rate", -0.5),
                                             ("zoneout_rate", 1.5),
                                             ("zoneout_rate", float("nan")),
                                             ("rho", 1.5), ("eps", 0), ("lr", -1)])
    def test_rate_outside_unit_interval_rejected(self, field, value):
        # the model and the optimizer each refuse a config with TrainConfig.validate's message
        rule = "be a finite number > 0" if field in ("eps", "lr") else r"lie in \[0, 1\]"
        cfg = TrainConfig(hidden=4, **{field: value})
        params = ModelParams.zeros(5, TrainConfig(hidden=4))
        for build in (lambda: ModelParams.zeros(5, cfg), lambda: AdadeltaState(params, cfg)):
            with pytest.raises(ValueError, match=rf"^{field} must {rule}, got"):
                build()


class TestFirstSurprisal:
    """Step 0's surprisal: the one scorer applied to the input state's p_prev."""

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


def step_rows(params, x_idx, c_prev=0.0, h_prev=0.0, p_prev=None, frozen=None):
    """Step 0 of run_lanes from the given starting state (p_prev None is the
    uniform prediction), scored against x_idx again, with expected masks or
    frozen's; returns the step_views of its arena row."""
    state = RecurrentState.initial(len(x_idx), params.hidden_size, params.vocab_size,
                                   dtype=params.dtype)
    state.c[...], state.h[...] = c_prev, h_prev
    if p_prev is not None:
        state.p_prev[...] = p_prev
    _, _, arena = record(params, np.stack([x_idx, x_idx]), state, mask_mode="expected",
                         frozen=frozen)
    return step_views(arena, 0)


def frozen_mask(params, batch, value, steps=1):
    """A frozen arena for a zoneout variant: s_val 0, z and mask value."""
    frozen = WindowArena(params, steps, batch)
    frozen.s_val.fill(0.0)
    frozen.z.fill(value)
    frozen.mask.fill(value)
    return frozen


class TestAdaptiveUpdateProbability:
    """Adaptive's step reads z = zoneout_rate(p_prev - one_hot(x), W_y, tau)."""

    def test_perfect_prediction(self):
        # a certain, right previous prediction leaves no error: z is the floor
        params = tiny_params(vocab=3, hidden=4, tau=0.05)
        step = step_rows(params, np.array([1]), p_prev=one_hot([1], 3, dtype=np.float64))
        np.testing.assert_array_equal(step.z, np.full((1, 4), 0.05))

    def test_uniform_case(self):
        params = tiny_params(vocab=4, hidden=3, tau=0.05)
        step = step_rows(params, np.array([2]), p_prev=np.full((1, 4), 0.25))
        err = np.array([[0.25, 0.25, -0.75, 0.25]])
        np.testing.assert_array_equal(step.z, zoneout_rate(err, params.W_y, 0.05))

    def test_rows_sum_to_zero(self):
        # all-ones output weights push back each error row's sum, and tau 0
        # leaves z = |sum| in every cell
        rng = np.random.default_rng(1)
        logits = rng.standard_normal((8, 6))
        p_prev = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        x_idx = rng.integers(0, 6, size=8)
        params = tiny_params(vocab=6, hidden=4, tau=0.0)
        step = step_rows(params, x_idx, p_prev=p_prev)
        np.testing.assert_array_equal(
            step.z, zoneout_rate(p_prev - one_hot(x_idx, 6, dtype=np.float64), params.W_y, 0.0))
        params.W_y[...] = 1.0
        np.testing.assert_allclose(step_rows(params, x_idx, p_prev=p_prev).z, 0.0, atol=1e-12)


class TestStepGates:
    """The gates f|i|o|u a step records."""

    def test_all_zeros(self):
        params = ModelParams.zeros(3, TrainConfig(hidden=4, precision="f64"))
        step = step_rows(params, np.array([1, 2]))
        np.testing.assert_array_equal(step.f, np.full((2, 4), 0.5))
        np.testing.assert_array_equal(step.i, np.full((2, 4), 0.5))
        np.testing.assert_array_equal(step.o, np.full((2, 4), 0.5))
        np.testing.assert_array_equal(step.u, np.zeros((2, 4)))

    def test_unit_erase_bias(self):
        params = ModelParams.zeros(3, TrainConfig(hidden=4, precision="f64"))
        params.b_f.fill(1.0)
        f = step_rows(params, np.array([0])).f
        np.testing.assert_allclose(f, 1.0 / (1.0 + np.exp(-1.0)), atol=1e-15)
        assert abs(f[0, 0] - 0.7310585786300049) < 1e-12

    def test_against_scalar_loop(self):
        params = tiny_params(vocab=4, hidden=3, seed=9)
        rng = np.random.default_rng(4)
        x_idx = np.array([3, 1])
        h = rng.standard_normal((2, 3))
        logits = rng.standard_normal((2, 4))
        p_prev = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        step = step_rows(params, x_idx, h_prev=h, p_prev=p_prev)
        s_val = np.log(p_prev[[0, 1], x_idx])
        np.testing.assert_array_equal(step.s_val, s_val)
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
            for g, squash in (("f", None), ("i", None), ("o", None), ("u", np.tanh)):
                a = preact(*(getattr(params, f"{k}_{g}") for k in "WUVb"), r)
                want = np.tanh(a) if squash else 1 / (1 + np.exp(-a))
                np.testing.assert_allclose(getattr(step, g)[r], want, atol=1e-12, err_msg=g)


class TestMaskedCellWrite:
    """c = (1 - f*mask)*c_prev + mask*(i*u), as a step records it."""

    def test_masked_out_is_bit_exact_nop(self):
        # a frozen zero mask leaves every step's cell at the starting one
        params = tiny_params(dtype=np.float32)
        c_prev = np.random.default_rng(5).standard_normal((3, 8)).astype(np.float32)
        state = RecurrentState.initial(3, 8, params.vocab_size, dtype=np.float32)
        state.c[...] = c_prev
        sym = RngState(5).integers(0, params.vocab_size, size=(7, 3))
        out, _, arena = record(params, sym, state, frozen=frozen_mask(params, 3, 0.0, steps=6))
        for c in arena.c:
            assert c.tobytes() == c_prev.tobytes()
        assert out.c.tobytes() == c_prev.tobytes()

    def test_full_erase_full_write(self):
        # f = i = 1 (saturated biases) erase the old cell and write u, both
        # without a mask (sf) and through an all-ones one
        c_prev = np.random.default_rng(6).standard_normal((2, 8)) * 7
        for variant in ("sf", "adaptive"):
            params = tiny_params(variant=variant)
            params.b_f.fill(1000.0)
            params.b_i.fill(1000.0)
            frozen = frozen_mask(params, 2, 1.0) if variant == "adaptive" else None
            step = step_rows(params, np.array([0, 3]), c_prev=c_prev, frozen=frozen)
            assert np.all(step.f == 1.0) and np.all(step.i == 1.0)
            np.testing.assert_array_equal(step.c, step.u, err_msg=variant)

    def test_no_erase_no_write(self):
        # f = i = 0 keep the cell bit for bit, without a mask (sf) and
        # wherever adaptive's sampled mask fires
        sym = RngState(5).integers(0, 5, size=(7, 3))
        c_prev = np.random.default_rng(7).standard_normal((3, 8))
        for variant in ("sf", "adaptive"):
            params = tiny_params(variant=variant)
            params.b_f.fill(-1000.0)
            params.b_i.fill(-1000.0)
            state = RecurrentState.initial(3, 8, params.vocab_size, dtype=params.dtype)
            state.c[...] = c_prev
            _, _, arena = record(params, sym, state, RngState(2))
            assert variant == "sf" or 0.0 < arena.mask.mean() < 1.0
            for c in arena.c:
                np.testing.assert_array_equal(c, c_prev, err_msg=variant)


class TestHiddenState:
    """c_hat = tanh(c) and h = o*c_hat, as a step records them."""

    def test_zero_cell(self):
        # zero weights keep the cell at 0 whatever the read gate's bias
        params = ModelParams.zeros(3, TrainConfig(hidden=3, precision="f64"))
        params.b_o[:] = [-2.0, 0.0, 2.2]
        step = step_rows(params, np.array([1]))
        np.testing.assert_array_equal(step.c, np.zeros((1, 3)))
        np.testing.assert_array_equal(step.h, np.zeros((1, 3)))

    def test_closed_read_gate(self):
        params = tiny_params(hidden=2)
        params.b_o.fill(-1000.0)
        step = step_rows(params, np.array([0]), c_prev=np.array([[2.0, -3.0]]))
        assert np.all(step.c != 0.0)
        np.testing.assert_array_equal(step.h, np.zeros((1, 2)))

    def test_half_open_gate_on_unit_cell(self):
        # zero weights open the read gate half way; the frozen zero mask keeps c = 1
        params = ModelParams.zeros(3, TrainConfig(hidden=1, precision="f64"))
        step = step_rows(params, np.array([0]), c_prev=1.0, frozen=frozen_mask(params, 1, 0.0))
        assert step.c[0, 0] == 1.0 and step.o[0, 0] == 0.5
        assert abs(step.h[0, 0] - 0.3807970779778824) < 1e-12

    def test_bounded(self):
        params = tiny_params(hidden=5)
        c = np.random.default_rng(6).standard_normal((5, 5)) * 3
        x_idx = np.arange(5)
        step = step_rows(params, x_idx, c_prev=c, frozen=frozen_mask(params, 5, 0.0))
        assert np.all(np.abs(step.c_hat) < 1.0) and np.all(np.abs(step.h) < 1.0)
        # saturation never exceeds the bound even for extreme cells
        big = step_rows(params, x_idx, c_prev=c * 100, frozen=frozen_mask(params, 5, 0.0))
        assert np.all(np.abs(big.c_hat) <= 1.0) and np.all(np.abs(big.h) <= 1.0)


class TestOutputDistribution:
    """The output distribution a step records as p."""

    @staticmethod
    def output(params, batch, seed):
        rng = np.random.default_rng(seed)
        state = RecurrentState.initial(batch, params.hidden_size, params.vocab_size,
                                       dtype=params.dtype)
        state.c[:] = rng.standard_normal(state.c.shape)
        state.h[:] = rng.standard_normal(state.h.shape)
        x_idx = rng.integers(0, params.vocab_size, size=batch)
        return record(params, np.stack([x_idx, x_idx]), state, mask_mode="expected")[2].p[0]

    def test_zero_weights_give_uniform(self):
        params = ModelParams.zeros(5, TrainConfig(hidden=3, precision="f64"))
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
    """Run `steps` steps on a shared random symbol stream; returns (state, arena)."""
    sym = RngState(seed).fork(2).integers(0, params.vocab_size, size=(steps + 1, batch))
    state, _, arena = record(params, sym, None, RngState(seed).fork(3), mask_mode)
    return state, arena


class TestCellStep:
    def test_adaptive_tau_one_equals_sf(self):
        pa = tiny_params(variant="adaptive", tau=1.0, dtype=np.float32)
        ps = tiny_params(variant="sf", dtype=np.float32)
        _, ca = drive(pa, 50)
        _, cs = drive(ps, 50)
        for name in ("c", "h", "p"):
            np.testing.assert_array_equal(getattr(ca, name), getattr(cs, name), err_msg=name)

    def test_sf_with_zero_feedback_equals_standard(self):
        ps = tiny_params(variant="sf", dtype=np.float32)
        for g in "fiou":
            getattr(ps, "V_" + g).fill(0.0)
        pstd = tiny_params(variant="standard", dtype=np.float32)
        _, cs = drive(ps, 50)
        _, cn = drive(pstd, 50)
        np.testing.assert_array_equal(cs.p, cn.p)

    def test_arena_rows_stay_in_range(self):
        params = tiny_params(variant="adaptive", tau=0.05)
        _, arena = drive(params, 40)
        for step in arena_steps(arena):
            assert np.all(step.z >= 0.05) and np.all(step.z <= 1.0)
            assert set(np.unique(step.mask)).issubset({0.0, 1.0})
            np.testing.assert_allclose(step.p.sum(axis=1), 1.0, atol=1e-12)
            assert np.all((step.f > 0) & (step.f < 1))
            assert np.all(np.abs(step.u) < 1)

    @pytest.mark.parametrize("variant", ["standard", "sf"])
    def test_arena_z_and_mask_are_one_read_only_all_ones_view(self, variant):
        # every step of a standard/sf arena reads z and mask from one
        # read-only all-ones view of a single element
        _, arena = drive(tiny_params(variant=variant), 5)
        assert arena.z is arena.mask
        np.testing.assert_array_equal(arena.z, np.ones((5, 2, 8)))
        assert arena.z.strides == (0, 0, 0)
        assert not arena.z.flags.writeable

    def test_expected_mask_mode_uses_probability(self):
        params = tiny_params(variant="fixed_zoneout", zoneout_rate=0.3)
        _, arena = drive(params, 5, mask_mode="expected")
        np.testing.assert_array_equal(arena.mask, np.full_like(arena.mask, 0.3))

    def test_untrained_loss_near_uniform(self):
        vocab, hidden = 27, 32
        params = ModelParams.zeros(vocab, TrainConfig(hidden=hidden, variant="adaptive"))
        xavier_init(params, RngState(0).fork(1))
        sym = RngState(0).fork(2).integers(0, vocab, size=(201, 4))
        _, total = run_lanes(params, sym, None, RngState(0).fork(3))
        mean = total / 200
        assert abs(mean - np.log(vocab)) / np.log(vocab) < 0.10

    def test_rejects_unknown_mask_mode(self):
        with pytest.raises(ValueError, match="mask_mode"):
            run_lanes(tiny_params(), np.array([[0], [0]]), mask_mode="bogus")


class TestStandardSkipsFeedback:
    """standard pins V_* at zero and never reads them, forward or backward."""

    @staticmethod
    def run_window(fill, mask_mode, dtype):
        # one recorded window and its backward sweep with every V_* entry set
        # to fill; returns (loss, final state, arena rows, gradients and d_h, d_c)
        params = tiny_params(variant="standard", dtype=dtype)
        params.Vg[...] = fill
        sym = RngState(5).integers(0, params.vocab_size, size=(13, 3))
        state, loss, arena = record(params, sym, None, RngState(8), mask_mode)
        state = {k: getattr(state, k).copy() for k in ("c", "h", "p_prev")}
        rows = {k: getattr(arena, k).copy()
                for k in ("s_val", "z", "mask", "gates", "c", "h", "c_hat", "p")}
        grads = GradientSet.zeros_like(params)
        d_h, d_c = backward_window(arena, params, sym, grads)
        blocks = {k: getattr(grads, k) for k in params.trainable_keys()}
        return loss, state, rows, dict(blocks, d_h=d_h, d_c=d_c)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
    @pytest.mark.parametrize("mask_mode", ["sampled", "expected"])
    def test_standard_never_reads_feedback_weights(self, mask_mode, dtype):
        loss, state, rows, grads = self.run_window(0.0, mask_mode, dtype)
        nan = self.run_window(np.nan, mask_mode, dtype)
        assert np.isfinite(loss) and nan[0] == loss
        for want, got in zip((state, rows, grads), nan[1:], strict=True):
            assert want.keys() == got.keys()
            for name, a in want.items():
                assert np.all(np.isfinite(a)), name
                assert got[name].tobytes() == a.tobytes(), name


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
    def test_one_call_equals_one_step_calls_across_head_blocks(self, variant, mask_mode, dtype):
        # one call over T steps equals T one-step calls (each one head block of
        # k = 1) that carry the state and the rng along, as training carries
        # them across its windows, with an arena and without. At B = 1 and
        # B = 3, T spans two of standard's output-head blocks and a partial third
        params = tiny_params(variant=variant, dtype=dtype)
        for batch in (1, 3):
            sym, state0 = self.stream(params, 2 * (HEAD_BLOCK_ROWS // batch) + 5, batch)
            state, total, ref_caches = state0, 0.0, []
            ref_rng = RngState(8)
            for t in range(sym.shape[0] - 1):
                state, loss, arena = record(params, sym[t: t + 2], state, ref_rng, mask_mode)
                ref_caches.append(step_views(arena, 0))
                total += loss
            rng = RngState(8)
            out, loss, arena = record(params, sym, state0, rng, mask_mode)
            free, free_loss = run_lanes(params, sym, state0, RngState(8), mask_mode)
            assert loss == total and free_loss == total
            assert rng.state() == ref_rng.state()
            for name in ("c", "h", "p_prev"):
                for run in (out, free):
                    np.testing.assert_array_equal(getattr(run, name), getattr(state, name),
                                                  err_msg=name)
            for t, (cache, ref) in enumerate(zip(arena_steps(arena), ref_caches,
                                                 strict=True)):
                for name in STEP_FIELDS:
                    np.testing.assert_array_equal(getattr(cache, name), getattr(ref, name),
                                                  err_msg=f"B {batch} step {t}: {name}")
            # a later call leaves the state an arena-free call returned as it was
            run_lanes(params, sym[::-1].copy(), free, RngState(9), mask_mode)
            for name in ("c", "h", "p_prev"):
                np.testing.assert_array_equal(getattr(free, name), getattr(state, name),
                                              err_msg=name)

    @pytest.mark.parametrize("variant", ["standard", "sf", "fixed_zoneout", "adaptive"])
    def test_frozen_replay_reproduces_the_run(self, variant):
        # the gradient oracle's replay: the run's own arena as frozen steps,
        # holding each step's (s_val, z, mask) with no rng to draw from, gives
        # back the run bit for bit
        params = tiny_params(variant=variant)
        sym, state0 = self.stream(params)
        out, loss, arena = record(params, sym, state0, RngState(8), "sampled")
        replay, replay_loss = run_lanes(params, sym, state0, frozen=arena)
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
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out, loss, arena = record(params, sym, state0, RngState(1), "sampled")
        assert np.isfinite(loss)
        for name in ("c", "h", "p_prev"):
            assert np.all(np.isfinite(getattr(out, name))), name
        gates = arena.gates[..., : 3 * params.hidden_size]   # f|i|o
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
        params = ModelParams.zeros(5, TrainConfig(hidden=4))
        params.b_y[:] = [0, 0, 0, 0, 120]
        state = RecurrentState.initial(1, 4, 5, dtype=np.float32)
        with pytest.raises(NumericalError, match="target symbol"):
            run_lanes(params, np.array([[4], [4], [0]]), state, mask_mode="expected")

    def test_zero_probability_target_mid_block_raises(self):
        # standard scores these 100 steps in two output-head blocks; the zero
        # probability target of step 10 falls inside the first, not at its end
        params = ModelParams.zeros(5, TrainConfig(hidden=4, variant="standard"))
        params.b_y[:] = [0, 0, 0, 0, 120]
        state = RecurrentState.initial(1, 4, 5, dtype=np.float32)
        symbols = np.full((101, 1), 4)
        symbols[11] = 0
        with pytest.raises(NumericalError, match="target symbol"):
            run_lanes(params, symbols, state, mask_mode="expected")


class TestCrossEntropyBpc:
    def test_ln2_is_one_bit(self):
        assert abs(cross_entropy_bpc(np.log(2.0)) - 1.0) < 1e-15

    def test_zero(self):
        assert cross_entropy_bpc(0.0) == 0.0

    def test_uniform_model_rate(self):
        m = 205
        assert abs(cross_entropy_bpc(np.log(m)) - np.log2(m)) < 1e-12
