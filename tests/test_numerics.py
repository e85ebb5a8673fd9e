import numpy as np
import pytest

from szlstm.numerics import (
    RngState,
    sample_bernoulli,
    softmax_rows,
)


class TestSoftmaxRows:
    def test_uniform(self):
        out = softmax_rows(np.zeros((1, 4)))
        np.testing.assert_array_equal(out, np.full((1, 4), 0.25))

    def test_shift_invariance(self):
        y = np.array([[1.0, 2.0, -3.0, 0.5]])
        np.testing.assert_allclose(softmax_rows(y), softmax_rows(y + 17.0), atol=1e-15)

    def test_large_logit_stability(self):
        with np.errstate(over="raise"):
            out = softmax_rows(np.array([[1000.0, 0.0]]))
        assert abs(out[0, 0] - 1.0) < 1e-12 and abs(out[0, 1]) < 1e-12

    def test_rows_sum_to_one_f64(self):
        rng = np.random.default_rng(2)
        out = softmax_rows(rng.standard_normal((20, 11)))
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(out >= 0)

    def test_rows_sum_to_one_f32(self):
        rng = np.random.default_rng(3)
        out = softmax_rows(rng.standard_normal((20, 11)).astype(np.float32))
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-5)

    def test_preserves_shape(self):
        assert softmax_rows(np.zeros((7, 3))).shape == (7, 3)


class TestSampleBernoulli:
    def test_all_ones(self):
        out = sample_bernoulli(np.ones((4, 5)), RngState(0))
        np.testing.assert_array_equal(out, np.ones((4, 5)))

    def test_all_zeros(self):
        out = sample_bernoulli(np.zeros((4, 5)), RngState(0))
        np.testing.assert_array_equal(out, np.zeros((4, 5)))

    def test_law_of_large_numbers(self):
        probs = np.full((100, 1000), 0.3)
        out = sample_bernoulli(probs, RngState(123))
        assert abs(out.mean() - 0.3) < 0.01

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="outside"):
            sample_bernoulli(np.array([[1.5]]), RngState(0))
        with pytest.raises(ValueError, match="outside"):
            sample_bernoulli(np.array([[-0.1]]), RngState(0))

    def test_same_seed_bit_identical(self):
        probs = np.full((16, 16), 0.4)
        a = sample_bernoulli(probs, RngState(9, counter=5))
        b = sample_bernoulli(probs, RngState(9, counter=5))
        np.testing.assert_array_equal(a, b)

    def test_pattern_independent_of_dtype(self):
        p32 = np.full((8, 8), 0.5, dtype=np.float32)
        p64 = np.full((8, 8), 0.5, dtype=np.float64)
        a = sample_bernoulli(p32, RngState(7))
        b = sample_bernoulli(p64, RngState(7))
        np.testing.assert_array_equal(a.astype(np.float64), b)


class TestRngState:
    def test_replay(self):
        a = RngState(42).uniform((10,))
        b = RngState(42).uniform((10,))
        np.testing.assert_array_equal(a, b)

    def test_counter_advances(self):
        rng = RngState(42)
        a = rng.uniform((10,))
        b = rng.uniform((10,))
        assert not np.array_equal(a, b)
        assert rng.counter == 2

    def test_fork_is_independent(self):
        root = RngState(1)
        a = root.fork(1).uniform((5,))
        b = root.fork(2).uniform((5,))
        assert not np.array_equal(a, b)
        assert root.counter == 0

    def test_state_round_trip(self):
        rng = RngState(5)
        rng.uniform((3,))
        seed, counter = rng.state()
        next_a = rng.uniform((3,))
        next_b = RngState(seed, counter).uniform((3,))
        np.testing.assert_array_equal(next_a, next_b)

    @pytest.mark.parametrize("seed", [0, 9, (1 << 64) - 3])
    def test_draws_match_a_fresh_philox_per_counter(self, seed):
        # odd sizes and 32-bit integer draws leave the Philox output buffer
        # part-used, which the next draw must not see
        def fresh(counter):
            key = np.array([seed, counter], dtype=np.uint64)
            return np.random.Generator(np.random.Philox(key=key))

        rng = RngState(seed)
        for counter in range(300):
            if counter % 3:
                size = (1 + counter % 5, 1 + counter % 3)
                got, want = rng.uniform(size), fresh(counter).random(size)
            else:
                high = 2 + counter % 200
                got = rng.integers(0, high, size=counter % 7)
                want = fresh(counter).integers(0, high, size=counter % 7)
            np.testing.assert_array_equal(got, want)
        assert rng.state() == (seed, 300)
        np.testing.assert_array_equal(rng.fork(4).uniform((6,)),
                                      RngState(seed).fork(4).uniform((6,)))
