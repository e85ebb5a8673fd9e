import numpy as np
import pytest

from szlstm.numerics import (
    RngState,
    matmul,
    one_hot,
    sample_bernoulli,
    sigmoid,
    softmax_rows,
    tanh,
)


def matmul_oracle(a, b):
    """Independent triple-loop product the fast path is checked against."""
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n), dtype=np.float64)
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for l in range(k):
                acc += float(a[i, l]) * float(b[l, j])
            out[i, j] = acc
    return out


class TestMatmul:
    def test_identity(self):
        eye = np.eye(2)
        b = np.array([[3.0, 4.0], [5.0, 6.0]])
        assert np.array_equal(matmul(eye, b), b)

    def test_scalar_product(self):
        assert matmul(np.array([[2.0]]), np.array([[3.0]]))[0, 0] == 6.0

    def test_against_triple_loop(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((5, 4))
        b = rng.standard_normal((4, 3))
        expected = matmul_oracle(a, b)
        got = matmul(a, b)
        assert np.max(np.abs(got - expected) / np.maximum(np.abs(expected), 1.0)) < 1e-12

    def test_random_square_instances(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            a = rng.standard_normal((8, 8))
            b = rng.standard_normal((8, 8))
            expected = matmul_oracle(a, b)
            rel = np.abs(matmul(a, b) - expected) / np.maximum(np.abs(expected), 1e-30)
            assert rel.max() < 1e-12

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ValueError, match=r"\(2, 3\).*\(2, 2\)"):
            matmul(np.zeros((2, 3)), np.zeros((2, 2)))


class TestSigmoid:
    def test_zero(self):
        assert sigmoid(np.array([0.0]))[0] == 0.5

    def test_saturation(self):
        assert abs(sigmoid(np.array([30.0]))[0] - 1.0) < 1e-9

    def test_symmetry(self):
        v = np.array([-5.0, -1.0, 0.3, 7.0])
        np.testing.assert_allclose(sigmoid(v) + sigmoid(-v), 1.0, atol=1e-15)

    def test_finite_on_extreme_inputs(self):
        out = sigmoid(np.array([-1000.0, 1000.0], dtype=np.float32))
        assert np.all(np.isfinite(out))
        assert out[0] == 0.0 and out[1] == 1.0

    def test_preserves_shape_and_dtype(self):
        x = np.zeros((3, 4), dtype=np.float32)
        out = sigmoid(x)
        assert out.shape == x.shape and out.dtype == x.dtype


class TestTanh:
    def test_zero(self):
        assert tanh(np.array([0.0]))[0] == 0.0

    def test_odd_symmetry(self):
        v = np.array([0.1, 1.0, 10.0])
        np.testing.assert_array_equal(tanh(-v), -tanh(v))

    def test_reference_value(self):
        # reference evaluation of (e^2 - 1) / (e^2 + 1)
        e2 = np.exp(2.0)
        assert abs(tanh(np.array([1.0]))[0] - (e2 - 1.0) / (e2 + 1.0)) < 1e-12

    def test_range(self):
        v = np.linspace(-50, 50, 101)
        out = tanh(v)
        assert np.all(out >= -1.0) and np.all(out <= 1.0)


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


def test_one_hot():
    out = one_hot([2, 0], 4)
    np.testing.assert_array_equal(out, [[0, 0, 1, 0], [1, 0, 0, 0]])
