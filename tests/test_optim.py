import numpy as np
import pytest

from szlstm.cell import GradientSet, ModelParams
from szlstm.numerics import NumericalError, RngState
from szlstm.optim import (
    ADADELTA_CHUNK,
    AdadeltaState,
    adadelta_step,
    clip_gradients,
    xavier_init,
)
from szlstm.training import TrainConfig


class TestXavierInit:
    def test_bias_contract(self):
        params = ModelParams.zeros(11, TrainConfig(hidden=7, precision="f64"))
        xavier_init(params, RngState(0))
        np.testing.assert_array_equal(params.b_f, np.ones(7))
        for name in ("b_i", "b_o", "b_u", "b_y"):
            np.testing.assert_array_equal(getattr(params, name),
                                          np.zeros_like(getattr(params, name)))

    def test_block_variance(self):
        params = ModelParams.zeros(512, TrainConfig(hidden=512, precision="f64"))
        xavier_init(params, RngState(1))
        target = 2.0 / (512 + 512)  # uniform(-a, a) variance a^2 / 3
        assert abs(params.W_f.var() - target) / target < 0.10

    def test_same_seed_bit_identical(self):
        a = ModelParams.zeros(9, TrainConfig(hidden=6))
        b = ModelParams.zeros(9, TrainConfig(hidden=6))
        xavier_init(a, RngState(7))
        xavier_init(b, RngState(7))
        for (_, x), (_, y) in zip(a.blocks(), b.blocks()):
            np.testing.assert_array_equal(x, y)

    def test_standard_variant_keeps_feedback_zero_without_desyncing(self):
        std = ModelParams.zeros(9, TrainConfig(hidden=6, variant="standard", precision="f64"))
        sf = ModelParams.zeros(9, TrainConfig(hidden=6, variant="sf", precision="f64"))
        xavier_init(std, RngState(3))
        xavier_init(sf, RngState(3))
        for g in "fiou":
            np.testing.assert_array_equal(getattr(std, "V_" + g), 0.0)
        # every non-feedback block must still be identical across variants
        np.testing.assert_array_equal(std.W_y, sf.W_y)
        np.testing.assert_array_equal(std.U_f, sf.U_f)

    def test_feedback_blocks_initialized_for_other_variants(self):
        params = ModelParams.zeros(9, TrainConfig(hidden=6, variant="adaptive", precision="f64"))
        xavier_init(params, RngState(3))
        assert np.abs(params.V_f).max() > 0


class TestAdadeltaStep:
    def test_zero_gradient_leaves_params_and_decays_accumulators(self):
        cfg = TrainConfig(hidden=3, precision="f64")
        params = ModelParams.zeros(4, cfg)
        xavier_init(params, RngState(0))
        state = AdadeltaState(params, cfg)
        state.eg2.W_f += 1.0
        state.edx2.W_f += 2.0
        before = params.W_f.copy()
        adadelta_step(params, GradientSet.zeros_like(params), state)
        np.testing.assert_array_equal(params.W_f, before)
        np.testing.assert_allclose(state.eg2.W_f, 0.95, atol=1e-15)
        np.testing.assert_allclose(state.edx2.W_f, 1.9, atol=1e-15)

    def test_first_step_closed_form(self):
        cfg = TrainConfig(hidden=3, precision="f64", rho=0.95, eps=1e-6, lr=0.001)
        params = ModelParams.zeros(4, cfg)
        state = AdadeltaState(params, cfg)
        grads = GradientSet.zeros_like(params)
        grads.b_y[0] = 1.0
        adadelta_step(params, grads, state)
        expected = -0.001 * np.sqrt(1e-6) / np.sqrt(0.05 * 1.0 + 1e-6)
        assert expected == pytest.approx(-4.4721e-6, rel=1e-4)
        assert params.b_y[0] == pytest.approx(expected, rel=1e-12)

    def test_update_opposes_gradient_sign(self):
        cfg = TrainConfig(hidden=3, precision="f64")
        params = ModelParams.zeros(4, cfg)
        state = AdadeltaState(params, cfg)
        grads = GradientSet.zeros_like(params)
        signs = np.array([1.0, -1.0, 2.5, -0.3])
        grads.b_y[...] = signs
        adadelta_step(params, grads, state)
        assert np.all(np.sign(params.b_y) == -np.sign(signs))

    def test_accumulators_stay_nonnegative_and_shapes_preserved(self):
        cfg = TrainConfig(hidden=4)
        params = ModelParams.zeros(5, cfg)
        xavier_init(params, RngState(2))
        state = AdadeltaState(params, cfg)
        rng = np.random.default_rng(0)
        for _ in range(20):
            grads = GradientSet.zeros_like(params)
            for name, block in grads.items():
                block[...] = rng.standard_normal(block.shape).astype(np.float32)
            adadelta_step(params, grads, state)
        for name, block in state.eg2.items():
            assert np.all(block >= 0) and block.shape == getattr(params, name).shape
        for _, block in state.edx2.items():
            assert np.all(block >= 0)

    def test_non_finite_gradient_names_block(self):
        cfg = TrainConfig(hidden=3, precision="f64")
        params = ModelParams.zeros(4, cfg)
        state = AdadeltaState(params, cfg)
        grads = GradientSet.zeros_like(params)
        grads.U_o[0, 0] = np.nan
        with pytest.raises(NumericalError, match="U_o"):
            adadelta_step(params, grads, state)

    def test_standard_variant_never_touches_feedback(self):
        cfg = TrainConfig(hidden=3, variant="standard", precision="f64")
        params = ModelParams.zeros(4, cfg)
        state = AdadeltaState(params, cfg)
        grads = GradientSet.zeros_like(params)
        grads.V_f += 1.0  # poisoned on purpose; must be ignored
        adadelta_step(params, grads, state)
        np.testing.assert_array_equal(params.V_f, np.zeros_like(params.V_f))

    @pytest.mark.parametrize("variant", ["adaptive", "standard"])
    @pytest.mark.parametrize("precision", ["f32", "f64"])
    def test_chunked_update_matches_one_pass_formula(self, variant, precision):
        cfg = TrainConfig(hidden=100, variant=variant, precision=precision, lr=0.5)
        params = ModelParams.zeros(150, cfg)
        # several pieces and a ragged tail in the first trainable slice
        first = params.trainable_slices()[0].stop or params.flat.size
        assert first > ADADELTA_CHUNK and first % ADADELTA_CHUNK
        xavier_init(params, RngState(4))
        state = AdadeltaState(params, cfg)
        rho, eps, lr = state.rho, state.eps, state.lr
        p, eg2, edx2 = params.flat.copy(), state.eg2.flat.copy(), state.edx2.flat.copy()
        train = np.zeros(p.shape, dtype=bool)
        for sl in params.trainable_slices():
            train[sl] = True
        rng = np.random.default_rng(5)
        for _ in range(3):
            grads = GradientSet.zeros_like(params)
            grads.flat[...] = rng.standard_normal(grads.flat.shape).astype(params.dtype)
            adadelta_step(params, grads, state)
            g = grads.flat[train]
            e = eg2[train] * rho + (1.0 - rho) * g * g
            delta = np.sqrt(edx2[train] + eps) / np.sqrt(e + eps) * g
            eg2[train] = e
            edx2[train] = edx2[train] * rho + (1.0 - rho) * delta * delta
            p[train] = p[train] - lr * delta
            np.testing.assert_array_equal(params.flat, p)
            np.testing.assert_array_equal(state.eg2.flat, eg2)
            np.testing.assert_array_equal(state.edx2.flat, edx2)
        if variant == "standard":
            # the random V_* gradients reached neither V_* nor its accumulators
            for buf in (params, state.eg2, state.edx2):
                np.testing.assert_array_equal(buf.Vg, 0.0)


class TestClipGradients:
    def _grads(self, value):
        params = ModelParams.zeros(3, TrainConfig(hidden=2, precision="f64"))
        grads = GradientSet.zeros_like(params)
        grads.b_y[...] = value
        return grads

    def test_under_limit_unchanged(self):
        grads = self._grads([3.0, 0.0, 0.0])
        before = grads.b_y.copy()
        clip_gradients(grads, 5.0)
        np.testing.assert_array_equal(grads.b_y, before)

    def test_zero_unchanged(self):
        grads = self._grads([0.0, 0.0, 0.0])
        clip_gradients(grads, 5.0)
        assert grads.global_norm() == 0.0

    def test_exact_rescale(self):
        grads = self._grads([10.0, 0.0, 0.0])
        clip_gradients(grads, 5.0)
        np.testing.assert_array_equal(grads.b_y, [5.0, 0.0, 0.0])

    def test_never_increases_norm(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            grads = self._grads(rng.standard_normal(3) * 4)
            norm = grads.global_norm()
            clip_gradients(grads, 2.0)
            assert grads.global_norm() <= min(norm, 2.0) + 1e-12

    def test_rejects_bad_limit(self):
        with pytest.raises(ValueError):
            clip_gradients(self._grads([1.0, 0, 0]), 0.0)
