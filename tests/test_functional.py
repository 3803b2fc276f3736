"""Layer ops: forward values, validation, and shape behavior."""

import warnings

import numpy as np
import pytest

from deeptrack.numcore import (
    ConfigurationError,
    Kernel1D,
    LstmWeights,
    RunningStats,
    Tensor,
    batch_norm,
    concat,
    dense,
    lstm_cell,
    max_pool2d,
    scatter_grid,
    sigmoid,
    stack,
    swish,
    tanh,
)


class TestActivations:
    def test_swish_at_one(self):
        out = swish(Tensor([1.0]))
        assert np.allclose(out.data, 1.0 / (1.0 + np.exp(-1.0)))
        assert abs(out.data[0] - 0.7310585786300049) < 1e-12

    def test_swish_lower_bound(self):
        # global minimum of x * sigmoid(x) is about -0.278465
        x = np.linspace(-20, 20, 4001)
        out = swish(Tensor(x)).data
        assert out.min() >= -0.27846455
        assert abs(out.min() - -0.2784645) < 1e-4

    def test_swish_non_monotonic_smooth(self):
        x = np.linspace(-5, 5, 1001)
        out = swish(Tensor(x)).data
        diffs = np.diff(out)
        assert (diffs < 0).any() and (diffs > 0).any()

    def test_saturation_raises_no_overflow_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert sigmoid(Tensor([-1000.0])).data[0] == 0.0
            assert swish(Tensor([-1000.0])).data[0] == 0.0
            assert sigmoid(Tensor([1000.0])).data[0] == 1.0

    def test_sigmoid_tanh_values(self):
        assert np.allclose(sigmoid(Tensor([0.0])).data, 0.5)
        assert np.allclose(tanh(Tensor([0.0])).data, 0.0)


class TestDense:
    def test_identity_weights_pass_through(self):
        x = np.random.default_rng(0).normal(size=(4, 5))
        out = dense(Tensor(x), Tensor(np.eye(5)), Tensor(np.zeros(5)))
        assert np.allclose(out.data, x)

    def test_affine_values(self):
        out = dense(Tensor([[1.0, 2.0]]), Tensor([[3.0, 4.0]]), Tensor([10.0]))
        assert np.allclose(out.data, [[21.0]])

    def test_width_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            dense(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 5))))


class TestBatchNorm:
    def test_two_point_batch_normalizes_to_unit(self):
        # values 1 and 3: mean 2, population std 1
        x = Tensor(np.array([1.0, 3.0]).reshape(2, 1, 1))
        out = batch_norm(x, Tensor([1.0]), Tensor([0.0]), RunningStats.fresh(1),
                         mode="train", eps=0.0)
        assert np.allclose(out.data.reshape(-1), [-1.0, 1.0])

    def test_train_mode_updates_running_stats(self):
        rng = np.random.default_rng(1)
        x = Tensor(rng.normal(loc=5.0, scale=2.0, size=(8, 3, 16)))
        stats = RunningStats.fresh(3)
        batch_norm(x, Tensor(np.ones(3)), Tensor(np.zeros(3)), stats, mode="train")
        mu = x.data.mean(axis=(0, 2))
        var = x.data.var(axis=(0, 2))
        assert np.allclose(stats.mean, 0.1 * mu)
        assert np.allclose(stats.var, 0.9 + 0.1 * var)

    def test_eval_mode_is_affine_in_running_stats(self):
        stats = RunningStats(np.array([2.0]), np.array([4.0]))
        x = Tensor(np.array([[[4.0, 0.0]]]))
        out = batch_norm(x, Tensor([3.0]), Tensor([1.0]), stats, mode="eval", eps=0.0)
        assert np.allclose(out.data, [[[4.0, -2.0]]])

    def test_eval_without_stats_rejected(self):
        with pytest.raises(ConfigurationError):
            batch_norm(Tensor(np.ones((2, 3, 4))), Tensor(np.ones(3)),
                       Tensor(np.zeros(3)), None, mode="eval")

    def test_eval_mode_does_not_touch_stats(self):
        stats = RunningStats(np.array([2.0]), np.array([4.0]))
        before = stats.copy()
        batch_norm(Tensor(np.ones((2, 1, 4))), Tensor([1.0]), Tensor([0.0]),
                   stats, mode="eval")
        assert np.array_equal(stats.mean, before.mean)
        assert np.array_equal(stats.var, before.var)

    def test_gamma_shape_checked(self):
        with pytest.raises(ConfigurationError):
            batch_norm(Tensor(np.ones((2, 3, 4))), Tensor(np.ones(4)),
                       Tensor(np.zeros(3)), RunningStats.fresh(3), mode="train")


class TestLstmCell:
    def test_matches_scalar_reference(self):
        rng = np.random.default_rng(4)
        hidden, n_in, batch = 3, 2, 2
        w_ih = rng.normal(size=(4 * hidden, n_in))
        w_hh = rng.normal(size=(4 * hidden, hidden))
        bias = rng.normal(size=4 * hidden)
        x = rng.normal(size=(batch, n_in))
        h0 = rng.normal(size=(batch, hidden))
        c0 = rng.normal(size=(batch, hidden))

        weights = LstmWeights(Tensor(w_ih), Tensor(w_hh), Tensor(bias))
        h1, c1 = lstm_cell(Tensor(x), Tensor(h0), Tensor(c0), weights)

        def sig(v):
            return 1.0 / (1.0 + np.exp(-v))

        gates = x @ w_ih.T + h0 @ w_hh.T + bias
        i = sig(gates[:, 0 * hidden:1 * hidden])
        f = sig(gates[:, 1 * hidden:2 * hidden])
        g = np.tanh(gates[:, 2 * hidden:3 * hidden])
        o = sig(gates[:, 3 * hidden:4 * hidden])
        c_ref = f * c0 + i * g
        h_ref = o * np.tanh(c_ref)
        assert np.allclose(c1.data, c_ref, atol=1e-12)
        assert np.allclose(h1.data, h_ref, atol=1e-12)

    def test_zero_weights_give_zero_free_evolution(self):
        hidden = 4
        weights = LstmWeights(Tensor(np.zeros((4 * hidden, 2))),
                              Tensor(np.zeros((4 * hidden, hidden))),
                              Tensor(np.zeros(4 * hidden)))
        h, c = lstm_cell(Tensor(np.zeros((1, 2))), Tensor(np.zeros((1, hidden))),
                         Tensor(np.zeros((1, hidden))), weights)
        assert np.allclose(h.data, 0.0)
        assert np.allclose(c.data, 0.0)

    def test_shape_validation(self):
        weights = LstmWeights(Tensor(np.zeros((8, 2))), Tensor(np.zeros((8, 2))),
                              Tensor(np.zeros(8)))
        with pytest.raises(ConfigurationError):
            lstm_cell(Tensor(np.zeros((1, 2))), Tensor(np.zeros((1, 3))),
                      Tensor(np.zeros((1, 2))), weights)
        with pytest.raises(ConfigurationError):
            LstmWeights(Tensor(np.zeros((8, 2))), Tensor(np.zeros((8, 3))),
                        Tensor(np.zeros(8)))


class TestMaxPool:
    def test_2x1_stride_2_with_top_padding(self):
        x = np.arange(1.0, 10.0).reshape(1, 1, 9, 1)
        out = max_pool2d(Tensor(x), window=(2, 1), stride=(2, 1), padding=(1, 0))
        # padded column [-inf, 1..9, -inf] -> windows (pad,1),(2,3),(4,5),(6,7),(8,9)
        assert out.shape == (1, 1, 5, 1)
        assert np.allclose(out.data.reshape(-1), [1, 3, 5, 7, 9])

    def test_padding_never_wins(self):
        x = -np.ones((1, 1, 4, 2))
        out = max_pool2d(Tensor(x), window=(2, 2), stride=(2, 2), padding=(1, 1))
        assert np.isfinite(out.data).all()
        assert (out.data == -1.0).all()

    def test_padding_must_be_smaller_than_window(self):
        with pytest.raises(ConfigurationError):
            max_pool2d(Tensor(np.ones((1, 1, 4, 4))), window=(2, 2), padding=(2, 0))


class TestStructural:
    def test_concat_and_stack_shapes(self):
        a, b = Tensor(np.ones((2, 3))), Tensor(np.zeros((2, 2)))
        assert concat([a, b], axis=1).shape == (2, 5)
        c = stack([Tensor(np.ones(3)), Tensor(np.zeros(3))], axis=0)
        assert c.shape == (2, 3)

    def test_scatter_grid_places_rows(self):
        feats = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
        out = scatter_grid(feats, np.array([0, 1]), np.array([[2, 1], [0, 0]]),
                           (2, 2, 3, 2))
        assert np.allclose(out.data[0, :, 2, 1], [1.0, 2.0])
        assert np.allclose(out.data[1, :, 0, 0], [3.0, 4.0])
        assert out.data.sum() == 10.0  # everything else zero

    def test_scatter_grid_rejects_duplicates_and_out_of_range(self):
        feats = Tensor(np.ones((2, 2)))
        with pytest.raises(ConfigurationError, match="duplicate"):
            scatter_grid(feats, np.array([0, 0]), np.array([[0, 0], [0, 0]]),
                         (1, 2, 3, 2))
        with pytest.raises(ConfigurationError, match="out of range"):
            scatter_grid(feats, np.array([0, 0]), np.array([[0, 0], [5, 0]]),
                         (1, 2, 3, 2))
        # the same cell in two different samples is not a duplicate
        out = scatter_grid(feats, np.array([0, 1]), np.array([[1, 1], [1, 1]]),
                           (2, 2, 3, 2))
        assert out.data.sum() == 4.0
