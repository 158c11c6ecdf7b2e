import numpy as np
import pytest

from motion_forge.errors import DimensionMismatchError, NonFiniteError, check_finite
from motion_forge.kernels import (
    elu,
    init_mlp,
    log_sum_exp,
    mlp_forward,
    silu,
    softmax_,
)


class TestSoftmax:
    def test_works_in_place_and_returns_its_argument(self):
        x = np.array([1.0, 2.0, 3.0])
        out = softmax_(x)
        assert out is x
        assert np.allclose(x, np.exp([1.0, 2.0, 3.0]) / np.exp([1.0, 2.0, 3.0]).sum(),
                           rtol=0.0, atol=1e-15)

    def test_one_softmax_per_row_of_the_last_axis(self):
        x = np.array([[0.0, 0.0, 0.0, 0.0], [1e3, 0.0, -1e3, 1e3]])
        softmax_(x)
        assert np.array_equal(x[0], np.full(4, 0.25))
        assert np.array_equal(x[1], [0.5, 0.0, 0.0, 0.5])

    def test_minus_infinity_gets_weight_zero_and_large_logits_do_not_overflow(self):
        x = softmax_(np.array([-np.inf, 800.0, 800.0]))
        assert x.tobytes() == np.array([0.0, 0.5, 0.5]).tobytes()


class TestLogSumExp:
    def test_hand_value_and_shift_invariance(self):
        assert log_sum_exp(np.array([0.0, 0.0])) == pytest.approx(np.log(2.0), abs=1e-15)
        assert log_sum_exp(np.array([1000.0, 1000.0])) == pytest.approx(1000.0 + np.log(2.0))

    def test_rows_of_the_last_axis(self):
        x = np.array([[0.0, np.log(3.0)], [-5.0, -5.0]])
        assert np.allclose(log_sum_exp(x), [np.log(4.0), -5.0 + np.log(2.0)], atol=1e-15)


class TestMLP:
    def test_activation_applies_to_hidden_layers_only(self):
        params = init_mlp(np.random.default_rng(0), 3, (4,), 2)
        x = np.array([0.3, -1.2, 2.0])
        (w0, b0), (w1, b1) = params
        for activation in (elu, silu):
            want = w1 @ activation(w0 @ x + b0) + b1
            got = mlp_forward(params, x, activation)
            assert np.allclose(got, want, rtol=0.0, atol=1e-14)

    def test_input_of_the_wrong_width_is_a_dimension_error(self):
        params = init_mlp(np.random.default_rng(0), 3, (4,), 2)
        with pytest.raises(DimensionMismatchError, match="layer 0: input dim 5"):
            mlp_forward(params, np.ones(5))


class TestCheckFinite:
    def test_returns_a_float64_array(self):
        out = check_finite([1, 2, 3], "counts")
        assert out.dtype == np.float64 and np.array_equal(out, [1.0, 2.0, 3.0])
        assert check_finite(2.5, "fps").shape == ()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_names_what_holds_the_bad_value(self, bad):
        with pytest.raises(NonFiniteError, match="^weights holds NaN or infinite values$"):
            check_finite([0.5, bad], "weights")
