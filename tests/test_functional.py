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
    conv_unit,
    dense,
    dilated_conv1d,
    lstm_cell,
    lstm_unroll,
    max_pool2d,
    scatter_grid,
    sigmoid,
    stack,
    swish,
    tanh,
)

from deeptrack.numcore.tensor import no_grad

from helpers import (
    chained_lstm_cells,
    composed_lstm_cell,
    graph_nodes,
    naive_batch_norm,
    naive_max_pool2d,
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
            dense(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 5))), Tensor(np.zeros(4)))


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

    @pytest.mark.parametrize("shape", [(3, 9), (5, 3, 9), (4, 3, 5, 2)],
                             ids=["CT", "BCT", "BCHW"])
    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_matches_naive_loop(self, shape, mode):
        rng = np.random.default_rng(sum(shape))
        x = rng.normal(loc=2.0, scale=3.0, size=shape)
        gamma, beta = rng.normal(size=3), rng.normal(size=3)
        stats = RunningStats(rng.normal(size=3), rng.uniform(0.5, 2.0, size=3))
        want, want_mean, want_var = naive_batch_norm(
            x, gamma, beta, stats.mean, stats.var, mode, momentum=0.2, eps=1e-3)
        out = batch_norm(Tensor(x), Tensor(gamma), Tensor(beta), stats, mode,
                         momentum=0.2, eps=1e-3)
        assert out.shape == shape
        np.testing.assert_allclose(out.data, want, rtol=0, atol=1e-12)
        np.testing.assert_allclose(stats.mean, want_mean, rtol=0, atol=1e-12)
        np.testing.assert_allclose(stats.var, want_var, rtol=0, atol=1e-12)

    def test_one_node_per_call(self):
        x = Tensor(np.ones((2, 3, 4)), requires_grad=True)
        gamma, beta = Tensor(np.ones(3), requires_grad=True), Tensor(np.zeros(3))
        for mode in ("train", "eval"):
            out = batch_norm(x, gamma, beta, RunningStats.fresh(3), mode)
            assert out._parents == (x, gamma, beta)

    def test_gamma_shape_checked(self):
        with pytest.raises(ConfigurationError):
            batch_norm(Tensor(np.ones((2, 3, 4))), Tensor(np.ones(4)),
                       Tensor(np.zeros(3)), RunningStats.fresh(3), mode="train")


class TestConvUnit:
    """conv_unit takes channels-last ``[N, T, C]`` sequences; the chain of
    channels-first ops it replaces reads them swapped."""

    @staticmethod
    def unit(rng):
        """A batch-normed unit, whose kernel has no bias."""
        kern = Kernel1D(Tensor(rng.normal(size=(3, 2, 2)), requires_grad=True), None)
        gamma = Tensor(rng.uniform(0.5, 2.0, size=3), requires_grad=True)
        beta = Tensor(rng.normal(size=3), requires_grad=True)
        return kern, gamma, beta, RunningStats(rng.normal(size=3), rng.uniform(0.5, 2.0, size=3))

    def test_one_node_over_its_parents(self):
        kern, gamma, beta, stats = self.unit(np.random.default_rng(0))
        x = Tensor(np.ones((4, 5, 2)), requires_grad=True)
        biased = Kernel1D(kern.weights, Tensor(np.ones(3), requires_grad=True))
        for mode in ("train", "eval"):
            out = conv_unit(x, kern, gamma, beta, stats, mode, "swish")
            assert out._parents == (x, kern.weights, gamma, beta)
            out = conv_unit(x, biased, None, None, None, mode, "swish")
            assert out._parents == (x, biased.weights, biased.bias)

    def test_train_moves_statistics_as_batch_norm_does(self):
        rng = np.random.default_rng(1)
        kern, gamma, beta, stats = self.unit(rng)
        x = Tensor(rng.normal(size=(4, 2, 7)))
        chain_stats = stats.copy()
        out = conv_unit(Tensor(x.data.swapaxes(1, 2)), kern, gamma, beta, stats, "train",
                        "tanh", momentum=0.3, eps=1e-3)
        want = tanh(batch_norm(dilated_conv1d(x, kern), gamma, beta, chain_stats, "train",
                               momentum=0.3, eps=1e-3))
        assert out.data.tobytes() == want.data.swapaxes(1, 2).tobytes()
        assert stats.mean.tobytes() == chain_stats.mean.tobytes()
        assert stats.var.tobytes() == chain_stats.var.tobytes()

    def test_eval_leaves_statistics_alone(self):
        rng = np.random.default_rng(2)
        kern, gamma, beta, stats = self.unit(rng)
        before = stats.copy()
        conv_unit(Tensor(rng.normal(size=(4, 7, 2))), kern, gamma, beta, stats, "eval")
        assert np.array_equal(stats.mean, before.mean) and np.array_equal(stats.var, before.var)

    @pytest.mark.parametrize("call", [
        lambda x, kern, gamma, beta, stats: conv_unit(x, kern, gamma, beta, None, "eval"),
        lambda x, kern, gamma, beta, stats: conv_unit(x, kern, gamma, beta, stats, "test"),
        lambda x, kern, gamma, beta, stats: conv_unit(x, kern, Tensor(np.ones(4)), beta,
                                                      stats, "train"),
        lambda x, kern, gamma, beta, stats: conv_unit(x, kern, gamma, Tensor(np.ones(2)),
                                                      stats, "train"),
        lambda x, kern, gamma, beta, stats: conv_unit(x, kern, gamma, beta, stats, "eval",
                                                      "gelu"),
        lambda x, kern, gamma, beta, stats: conv_unit(x, kern, gamma, beta, stats, "eval",
                                                      pad_mode="wrap"),
        lambda x, kern, gamma, beta, stats: conv_unit(Tensor(np.ones((2, 5, 3))), kern,
                                                      gamma, beta, stats, "eval"),
        lambda x, kern, gamma, beta, stats: conv_unit(Tensor(np.ones(5)), kern,
                                                      gamma, beta, stats, "eval"),
        lambda x, kern, gamma, beta, stats: conv_unit(
            x, Kernel1D(kern.weights, Tensor(np.zeros(3))), gamma, beta, stats, "train"),
        lambda x, kern, gamma, beta, stats: conv_unit(x, kern, None, None, None, "train"),
    ], ids=["eval-without-stats", "mode", "gamma-shape", "beta-shape", "activation",
            "pad-mode", "channels", "rank", "bias-and-batch-norm", "neither"])
    def test_rejects_bad_arguments(self, call):
        kern, gamma, beta, stats = self.unit(np.random.default_rng(3))
        with pytest.raises(ConfigurationError):
            call(Tensor(np.ones((2, 5, 2))), kern, gamma, beta, stats)


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

    @staticmethod
    def chain(cell, with_input, batch, hidden, steps, dtype, seed):
        """Outputs of ``steps`` chained calls of ``cell`` and the gradients of
        x, h0, c0, w_ih, w_hh and bias under a seeded linear loss."""
        rng = np.random.default_rng(seed)

        def leaf(*shape):
            return Tensor(rng.normal(size=shape).astype(dtype), requires_grad=True)

        n_in = 3
        weights = LstmWeights(leaf(4 * hidden, n_in), leaf(4 * hidden, hidden),
                              leaf(4 * hidden))
        xs = [leaf(batch, n_in) if with_input
              else Tensor(np.zeros((batch, n_in), dtype)) for _ in range(steps)]
        h0, c0 = leaf(batch, hidden), leaf(batch, hidden)
        h, c, loss, outputs = h0, c0, None, []
        for x in xs:
            h, c = cell(x, h, c, weights)
            outputs += [h.data, c.data]
            term = (h * Tensor(rng.normal(size=(batch, hidden)).astype(dtype))).sum()
            loss = term if loss is None else loss + term
        loss = loss + (c * Tensor(rng.normal(size=(batch, hidden)).astype(dtype))).sum()
        loss.backward()
        leaves = [x for x in xs if x.requires_grad] + [h0, c0, weights.w_ih,
                                                       weights.w_hh, weights.bias]
        return outputs, [t.grad for t in leaves]

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("with_input", [True, False], ids=["input", "no-input"])
    def test_sweep_matches_composed_step(self, with_input, dtype):
        for case, (batch, hidden, steps) in enumerate(
                (b, h, n) for b in (1, 3) for h in (1, 4) for n in (1, 2, 3, 4)):
            args = (with_input, batch, hidden, steps, dtype, case)
            got_out, got_grads = self.chain(lstm_cell, *args)
            want_out, want_grads = self.chain(composed_lstm_cell, *args)
            for got, want in zip(got_out, want_out):
                assert got.dtype == want.dtype and np.array_equal(got, want), args
            for got, want in zip(got_grads, want_grads):
                assert got.dtype == want.dtype, args
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=0, err_msg=str(args))

    def test_one_node_and_two_slices_per_call(self):
        weights = LstmWeights(Tensor(np.ones((8, 3)), requires_grad=True),
                              Tensor(np.ones((8, 2)), requires_grad=True),
                              Tensor(np.zeros(8), requires_grad=True))
        h0 = Tensor(np.ones((4, 2)), requires_grad=True)
        c0 = Tensor(np.ones((4, 2)), requires_grad=True)
        h, c = lstm_cell(Tensor(np.ones((4, 3))), h0, c0, weights)
        assert h._parents == c._parents and len(h._parents) == 1
        assert graph_nodes(h, c) == 6 + 3

    def test_input_width_checked(self):
        weights = LstmWeights(Tensor(np.zeros((8, 3))), Tensor(np.zeros((8, 2))),
                              Tensor(np.zeros(8)))
        h0, c0 = Tensor(np.zeros((1, 2))), Tensor(np.zeros((1, 2)))
        for x in (np.zeros((1, 2)), np.zeros((1, 4)), np.zeros(3), np.zeros((1, 1, 3))):
            with pytest.raises(ConfigurationError):
                lstm_cell(Tensor(x), h0, c0, weights)
        with pytest.raises(ConfigurationError):
            lstm_cell(Tensor(np.zeros((1, 3))), h0, Tensor(np.zeros((2, 2))), weights)


class TestLstmUnroll:
    @staticmethod
    def run(unroll, batch, hidden, steps, dtype, seed, record=True):
        """The hidden states of ``unroll`` and the gradients of h0, c0,
        w_ih, w_hh and bias under a seeded linear loss on every step."""
        rng = np.random.default_rng(seed)

        def leaf(*shape):
            return Tensor(rng.normal(size=shape).astype(dtype), requires_grad=True)

        weights = LstmWeights(leaf(4 * hidden, 2), leaf(4 * hidden, hidden), leaf(4 * hidden))
        h0, c0 = leaf(batch, hidden), leaf(batch, hidden)
        upstream = Tensor(rng.normal(size=(batch, steps, hidden)).astype(dtype))
        if not record:
            with no_grad():
                return unroll(h0, c0, weights, steps).data, None
        hs = unroll(h0, c0, weights, steps)
        (hs * upstream).sum().backward()
        return hs.data, [t.grad for t in (h0, c0, weights.w_ih, weights.w_hh, weights.bias)]

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("record", [True, False], ids=["graph", "no-graph"])
    def test_forward_equals_cell_chain_bit_for_bit(self, dtype, record):
        for case, (batch, hidden, steps) in enumerate(
                [(1, 64, 25), (21, 64, 25), (32, 64, 25), (256, 64, 25),
                 (3, 1, 1), (3, 4, 2), (2, 5, 7)]):
            args = (batch, hidden, steps, dtype, case, record)
            got, _ = self.run(lstm_unroll, *args)
            want, _ = self.run(chained_lstm_cells, *args)
            assert got.dtype == want.dtype and np.array_equal(got, want), args

    def test_gradients_match_cell_chain(self):
        for case, (batch, hidden, steps) in enumerate(
                (b, h, n) for b in (1, 3, 32) for h in (1, 4, 64) for n in (1, 2, 5, 25)):
            args = (batch, hidden, steps, np.float64, case)
            _, got = self.run(lstm_unroll, *args)
            _, want = self.run(chained_lstm_cells, *args)
            g_h0, g_c0, g_ih, g_hh, g_bias = got
            # the recurrence itself runs the chain's ops in the chain's order
            assert np.array_equal(g_h0, want[0]) and np.array_equal(g_c0, want[1]), args
            # the unroll leaves w_ih out; the chain's zero input gives it zeros
            assert g_ih is None and not want[2].any(), args
            # one GEMM over every step sums the weight gradients in another
            # order; an entry summed from cancelling terms carries the rounding
            # of its larger terms, so the error is relative to the largest entry
            for g, w in ((g_hh, want[3]), (g_bias, want[4])):
                assert np.max(np.abs(g - w)) <= 1e-12 * np.max(np.abs(w)), args

    def test_one_node_over_h0_c0_w_hh_and_bias(self):
        weights = LstmWeights(Tensor(np.ones((8, 3)), requires_grad=True),
                              Tensor(np.ones((8, 2)), requires_grad=True),
                              Tensor(np.zeros(8), requires_grad=True))
        h0 = Tensor(np.ones((4, 2)), requires_grad=True)
        c0 = Tensor(np.ones((4, 2)), requires_grad=True)
        hs = lstm_unroll(h0, c0, weights, 25)
        assert hs.shape == (4, 25, 2)
        assert hs._parents == (h0, c0, weights.w_hh, weights.bias)
        assert graph_nodes(hs) == 5
        with no_grad():
            assert lstm_unroll(h0, c0, weights, 25)._parents == ()

    def test_each_call_owns_its_output(self):
        rng = np.random.default_rng(5)
        weights = LstmWeights(Tensor(rng.normal(size=(8, 1))), Tensor(rng.normal(size=(8, 2))),
                              Tensor(rng.normal(size=8)))
        first = lstm_unroll(Tensor(rng.normal(size=(3, 2))), Tensor(np.zeros((3, 2))),
                            weights, 4)
        kept = first.data.copy()
        second = lstm_unroll(Tensor(rng.normal(size=(3, 2))), Tensor(np.ones((3, 2))),
                             weights, 4)
        assert not np.shares_memory(first.data, second.data)
        assert np.array_equal(first.data, kept)

    def test_saturated_gates_stay_quiet_and_finite(self):
        hidden = 2
        weights = LstmWeights(Tensor(np.zeros((8, 1))), Tensor(np.full((8, 2), 500.0)),
                              Tensor(np.full(8, -1000.0)))
        h0 = Tensor(np.array([[1.0, -1.0]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            hs = lstm_unroll(h0, Tensor(np.ones((1, hidden))), weights, 3)
        assert np.isfinite(hs.data).all()
        assert np.array_equal(hs.data, chained_lstm_cells(
            h0, Tensor(np.ones((1, hidden))), weights, 3).data)

    def test_shapes_and_steps_checked(self):
        weights = LstmWeights(Tensor(np.zeros((8, 3))), Tensor(np.zeros((8, 2))),
                              Tensor(np.zeros(8)))
        h0, c0 = Tensor(np.zeros((1, 2))), Tensor(np.zeros((1, 2)))
        for bad_h, bad_c, steps in ((h0, c0, 0), (h0, c0, True), (h0, c0, 2.0),
                                    (Tensor(np.zeros((1, 3))), c0, 2),
                                    (h0, Tensor(np.zeros((2, 2))), 2),
                                    (Tensor(np.zeros(2)), Tensor(np.zeros(2)), 2)):
            with pytest.raises(ConfigurationError):
                lstm_unroll(bad_h, bad_c, weights, steps)


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
            max_pool2d(Tensor(np.ones((1, 1, 4, 4))), window=(2, 2), stride=(2, 2),
                       padding=(2, 0))

    def test_window_of_padding_only_rejected(self):
        # a zero-height grid padded by 1 would give a window of padding alone
        with pytest.raises(ConfigurationError):
            max_pool2d(Tensor(np.ones((1, 1, 0, 1))), window=(2, 1), stride=(2, 1), padding=(1, 0))

    def test_sweep_matches_loop_reference(self):
        # every window and stride from 1 to 3 per axis, padding below the
        # window; every other case draws small integers, so windows tie
        rng = np.random.default_rng(55)
        overlapping = ties = 0
        for window in np.ndindex(3, 3):
            for stride in np.ndindex(3, 3):
                (wh, ww), (sh, sw) = np.add(window, 1), np.add(stride, 1)
                ph, pw = int(rng.integers(0, wh)), int(rng.integers(0, ww))
                shape = (int(rng.integers(1, 3)), int(rng.integers(1, 3)),
                         int(rng.integers(max(1, wh - 2 * ph), 7)),
                         int(rng.integers(max(1, ww - 2 * pw), 7)))
                integer = (wh * 3 + sh) % 2 == 0
                x = rng.integers(-2, 3, size=shape).astype(float) if integer \
                    else rng.normal(size=shape)
                xt = Tensor(x, requires_grad=True)
                out = max_pool2d(xt, (wh, ww), (sh, sw), (ph, pw))
                up = rng.normal(size=out.shape)
                (out * Tensor(up)).sum().backward()
                want, want_grad = naive_max_pool2d(x, (wh, ww), (sh, sw), (ph, pw), up)
                assert np.array_equal(out.data, want), (window, stride)
                assert np.max(np.abs(xt.grad - want_grad)) < 1e-12, (window, stride)
                overlapping += sh < wh or sw < ww
                ties += integer
        assert overlapping >= 20 and ties >= 20


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
