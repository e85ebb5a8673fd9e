import numpy as np
import pytest

from szlstm.gradcheck import (
    compare_gradients,
    numerical_gradient,
    tiny_window_check,
)
from szlstm.numerics import NumericalError


class TestNumericalGradient:
    def test_quadratic_probe(self):
        theta = np.array([[3.0]])
        grad = numerical_gradient(lambda: float(theta[0, 0] ** 2), {"theta": theta})
        assert abs(grad["theta"][0, 0] - 6.0) < 1e-9
        assert theta[0, 0] == 3.0  # restored

    def test_linear_probe_is_exact(self):
        theta = np.array([[2.0]])
        grad = numerical_gradient(lambda: float(5.0 * theta[0, 0]), {"theta": theta})
        assert abs(grad["theta"][0, 0] - 5.0) < 1e-10

    def test_rejects_float32(self):
        theta = np.array([[1.0]], dtype=np.float32)
        with pytest.raises(ValueError, match="float64"):
            numerical_gradient(lambda: 0.0, {"theta": theta})

    def test_non_finite_loss_is_fatal(self):
        theta = np.array([[1.0]])
        with pytest.raises(NumericalError):
            numerical_gradient(lambda: float("inf"), {"theta": theta})


class TestCompareGradients:
    def test_identical(self):
        a = {"w": np.array([1.0, -2.0, 0.0])}
        report = compare_gradients(a, {"w": a["w"].copy()})
        assert report.max_rel_err == 0.0

    def test_known_relative_error(self):
        report = compare_gradients({"w": np.array([1.0])}, {"w": np.array([1.00001])})
        assert abs(report.max_rel_err - 1e-5) < 1e-9

    def test_zero_vs_zero_guarded(self):
        report = compare_gradients({"w": np.array([0.0])}, {"w": np.array([0.0])})
        assert report.max_rel_err == 0.0

    def test_table_format(self):
        report = compare_gradients({"w": np.array([1.0])}, {"w": np.array([1.0])})
        lines = report.format_table().splitlines()
        assert lines[0].split("\t")[0] == "block"
        assert lines[1].split("\t")[0] == "w"


def test_tiny_window_check_adaptive_passes():
    report = tiny_window_check("adaptive")
    assert report.passed()
    names = {b.name for b in report.blocks}
    assert "W_f" in names and "V_u" in names and "W_y" in names


def test_tiny_window_check_standard_skips_feedback_blocks():
    report = tiny_window_check("standard")
    assert report.passed()
    names = {b.name for b in report.blocks}
    assert not any(n.startswith("V_") for n in names)


def test_expected_mask_mode_also_checks_out():
    report = tiny_window_check("adaptive", mask_mode="expected")
    assert report.passed()


@pytest.mark.parametrize("variant", ["standard", "sf", "fixed_zoneout", "adaptive"])
def test_repeated_symbols_over_a_multi_step_window(variant):
    # two symbols over 6 steps x 3 lanes: every step repeats a symbol across
    # lanes, every lane repeats one across steps, and some symbol has a run
    # of at least 9 rows in backward_window's per-symbol contraction. eps
    # 1e-4: at the default 1e-5 the finite-difference rounding leaves this
    # instance within a factor of two of the pass threshold
    report = tiny_window_check(variant, seq_len=6, batch_size=3, vocab=2, eps=1e-4)
    assert report.passed(), report.format_table()
