"""Central finite-difference gradient checks for every layer op.

Step 1e-5, float64, relative error bound 1e-6 (absolute where the gradient
magnitude is below 1). The whole module must stay fast; the full-model check
lives in the model tests and reuses the same helper.
"""

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
    conv2d,
    dense,
    dilated_conv1d,
    lstm_cell,
    lstm_unroll,
    max_pool2d,
    relu,
    scatter_grid,
    sigmoid,
    stack,
    swish,
    tanh,
)

from helpers import check_gradients

RNG = np.random.default_rng(20240817)


def t(shape, scale=1.0):
    return Tensor(RNG.normal(size=shape) * scale, requires_grad=True)


class TestActivationGradients:
    def test_sigmoid(self):
        x = t((3, 4))
        check_gradients(lambda: sigmoid(x).sum(), {"x": x})

    def test_tanh(self):
        x = t((3, 4))
        check_gradients(lambda: tanh(x).sum(), {"x": x})

    def test_swish(self):
        x = t((3, 4), scale=2.0)
        check_gradients(lambda: swish(x).sum(), {"x": x})

    def test_relu_away_from_the_kink(self):
        # every |x| >= 0.1, so no difference step crosses the kink at 0
        x = Tensor(RNG.choice([-1.0, 1.0], size=(3, 4)) * (0.1 + np.abs(RNG.normal(size=(3, 4)))),
                   requires_grad=True)
        check_gradients(lambda: (relu(x) ** 2.0).sum(), {"x": x})


class TestDenseGradients:
    def test_dense_all_inputs(self):
        x, w, b = t((4, 3)), t((5, 3)), t((5,))
        check_gradients(lambda: (dense(x, w, b) ** 2.0).mean(),
                        {"x": x, "w": w, "b": b})


class TestConvGradients:
    @pytest.mark.parametrize("groups,c_in,c_out,k,d", [
        (1, 2, 3, 2, 1),
        (1, 3, 2, 3, 2),
        (2, 4, 4, 2, 1),
        (4, 4, 4, 2, 2),  # depthwise
        (1, 3, 2, 1, 1),  # pointwise
    ])
    def test_conv1d_modes(self, groups, c_in, c_out, k, d):
        for mode in ("causal", "symmetric"):
            x = t((c_in, 10))
            w = t((c_out, c_in // groups, k))
            b = t((c_out,))
            kern = Kernel1D(w, b, dilation=d, groups=groups)
            check_gradients(lambda: (dilated_conv1d(x, kern, mode) ** 2.0).sum(),
                            {"x": x, "w": w, "b": b})

    def test_conv1d_batched(self):
        x, w, b = t((3, 2, 8)), t((3, 2, 2)), t((3,))
        kern = Kernel1D(w, b, dilation=2)
        check_gradients(lambda: swish(dilated_conv1d(x, kern)).sum(),
                        {"x": x, "w": w, "b": b})

    def test_conv2d(self):
        x, w, b = t((2, 3, 5, 4)), t((2, 3, 3, 2)), t((2,))
        check_gradients(
            lambda: (conv2d(x, w, b, stride=(2, 1), padding=(1, 0)) ** 2.0).sum(),
            {"x": x, "w": w, "b": b})


class TestPoolingGradients:
    def test_max_pool_with_padding(self):
        # distinct values keep the argmax stable under the FD step
        vals = RNG.permutation(np.arange(1.0, 25.0)).reshape(1, 2, 4, 3)
        x = Tensor(vals, requires_grad=True)
        check_gradients(
            lambda: (max_pool2d(x, (2, 1), stride=(2, 1), padding=(1, 0)) ** 2.0).sum(),
            {"x": x})


class TestBatchNormGradients:
    @staticmethod
    def check(shape, mode):
        x, gamma, beta = t(shape), t((3,)), t((3,))
        stats = RunningStats(np.abs(RNG.normal(size=3)), np.abs(RNG.normal(size=3)) + 0.5)
        running = stats if mode == "eval" else None
        check_gradients(
            lambda: (batch_norm(x, gamma, beta, running, mode) ** 2.0).sum(),
            {"x": x, "gamma": gamma, "beta": beta})

    def test_train_mode(self):
        self.check((4, 3, 6), "train")

    def test_eval_mode(self):
        self.check((4, 3, 6), "eval")

    def test_channels_by_time_input(self):
        # a single [C, T] sequence normalizes each channel over time
        self.check((3, 7), "train")
        self.check((3, 7), "eval")


class TestLstmGradients:
    def test_single_step_all_weights(self):
        hidden, n_in = 3, 2
        x, h0, c0 = t((2, n_in)), t((2, hidden)), t((2, hidden))
        weights = LstmWeights(t((4 * hidden, n_in)), t((4 * hidden, hidden)),
                              t((4 * hidden,)))
        tensors = {"x": x, "h0": h0, "c0": c0, "w_ih": weights.w_ih,
                   "w_hh": weights.w_hh, "bias": weights.bias}

        def loss():
            h, c = lstm_cell(x, h0, c0, weights)
            return (h ** 2.0).sum() + (c ** 2.0).sum()

        check_gradients(loss, tensors)

    def test_no_input_step(self):
        # x_t=None is a zero input: w_ih gets no gradient, the rest match
        hidden = 3
        h0, c0 = t((2, hidden)), t((2, hidden))
        weights = LstmWeights(t((4 * hidden, 2)), t((4 * hidden, hidden)),
                              t((4 * hidden,)))
        tensors = {"h0": h0, "c0": c0, "w_hh": weights.w_hh, "bias": weights.bias}

        def loss():
            h, c = lstm_cell(None, h0, c0, weights)
            return (h ** 2.0).sum() + (c ** 2.0).sum()

        check_gradients(loss, tensors)
        weights.w_ih.zero_grad()
        loss().backward()
        assert weights.w_ih.grad is None
        zero_in = lstm_cell(Tensor(np.zeros((2, 2))), h0, c0, weights)
        for got, want in zip(lstm_cell(None, h0, c0, weights), zero_in):
            assert np.array_equal(got.data, want.data)
        with pytest.raises(ConfigurationError):
            lstm_cell(None, h0, c0[:1], weights)

    def test_unrolled_three_steps(self):
        hidden, n_in = 2, 2
        weights = LstmWeights(t((4 * hidden, n_in)), t((4 * hidden, hidden)),
                              t((4 * hidden,)))
        xs = t((3, 1, n_in))

        def loss():
            h = Tensor(np.zeros((1, hidden)))
            c = Tensor(np.zeros((1, hidden)))
            total = None
            for step in range(3):
                h, c = lstm_cell(xs[step], h, c, weights)
                total = (h ** 2.0).sum() if total is None else total + (h ** 2.0).sum()
            return total

        check_gradients(loss, {"xs": xs, "w_ih": weights.w_ih,
                               "w_hh": weights.w_hh, "bias": weights.bias})


    def test_unroll_all_inputs(self):
        hidden, steps = 3, 4
        h0, c0 = t((2, hidden)), t((2, hidden))
        weights = LstmWeights(t((4 * hidden, 2)), t((4 * hidden, hidden)),
                              t((4 * hidden,)))
        upstream = Tensor(RNG.normal(size=(2, steps, hidden)))
        check_gradients(lambda: (lstm_unroll(h0, c0, weights, steps) * upstream).sum(),
                        {"h0": h0, "c0": c0, "w_hh": weights.w_hh, "bias": weights.bias})


class TestStructuralGradients:
    def test_concat_stack_scatter(self):
        a, b = t((2, 3)), t((2, 2))
        check_gradients(lambda: (concat([a, b], axis=1) ** 2.0).sum(),
                        {"a": a, "b": b})
        check_gradients(lambda: (stack([a, a], axis=0) ** 2.0).sum(), {"a": a})
        feats = t((3, 2))
        bi = np.array([0, 0, 1])
        cells = np.array([[0, 0], [2, 1], [1, 1]])
        check_gradients(
            lambda: (scatter_grid(feats, bi, cells, (2, 2, 3, 2)) ** 2.0).sum(),
            {"feats": feats})
