"""Convolution correctness against independent naive-loop oracles."""

import time

import numpy as np
import pytest

from deeptrack.numcore import (
    ConfigurationError,
    Kernel1D,
    Tensor,
    conv2d,
    dilated_conv1d,
)

from helpers import (
    check_gradients, naive_conv2d, naive_dilated_conv1d, naive_symmetric_conv1d,
)

PAD_MODES = ("causal", "symmetric")


def random_instance(rng):
    """A seeded conv1d case; a third are depthwise at the model's widths
    (groups = C up to 64, channel multiplier 1 or 2), a quarter float32."""
    if rng.random() < 1 / 3:
        groups = int(rng.choice([8, 16, 32, 64]))
        cg_in, og = 1, int(rng.integers(1, 3))
    else:
        groups = int(rng.choice([1, 1, 2]))
        cg_in, og = int(rng.integers(1, 4)), int(rng.integers(1, 4))
    c_in, c_out = cg_in * groups, og * groups
    k = int(rng.integers(1, 5))
    d = int(rng.integers(1, 4))
    length = int(rng.integers(1, 21))
    dtype = np.float32 if rng.random() < 0.25 else np.float64
    x = rng.normal(size=(c_in, length)).astype(dtype)
    w = rng.normal(size=(c_out, cg_in, k)).astype(dtype)
    b = rng.normal(size=(c_out,)).astype(dtype)
    return x, w, b, d, groups


def oracle_deviation(got: np.ndarray, x, w, b, d, groups, oracle) -> float:
    """``got``'s largest deviation from ``oracle`` run in float64 on the same
    inputs, in units of the bound: 1e-9 for float64 and 64 float32 epsilons
    of the output's magnitude (at least 1) for float32."""
    want = oracle(*(a.astype(np.float64) for a in (x, w, b)), d, groups)
    assert got.dtype == x.dtype and got.shape == want.shape
    bound = 1e-9 if got.dtype == np.float64 else \
        64 * np.finfo(np.float32).eps * max(1.0, float(np.max(np.abs(want))))
    return float(np.max(np.abs(got - want))) / bound


def _channels_last(x: np.ndarray) -> np.ndarray:
    """The same values, laid out with channels innermost, as a GEMM leaves them."""
    return np.ascontiguousarray(np.swapaxes(x, -1, -2)).swapaxes(-1, -2)


class TestCausalOracle:
    def test_200_random_instances_match_naive_loop(self):
        rng = np.random.default_rng(2024)
        start = time.monotonic()
        worst = 0.0
        kinds = set()
        for _ in range(200):
            x, w, b, d, groups = random_instance(rng)
            kern = Kernel1D(Tensor(w), Tensor(b), dilation=d, groups=groups)
            got = dilated_conv1d(Tensor(x), kern, pad_mode="causal").data
            worst = max(worst, oracle_deviation(got, x, w, b, d, groups,
                                                naive_dilated_conv1d))
            kinds.add((groups == x.shape[0] > 2, w.shape[0] // groups, x.dtype.name))
        elapsed = time.monotonic() - start
        assert worst < 1, f"worst deviation {worst:.2e} of the bound"
        assert elapsed < 10.0, f"oracle sweep took {elapsed:.1f}s"
        # depthwise with a channel multiplier of 1 and 2, in both precisions
        assert {(True, m, t) for m in (1, 2) for t in ("float32", "float64")} <= kinds

    def test_symmetric_mode_matches_padded_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            x, w, b, d, groups = random_instance(rng)
            kern = Kernel1D(Tensor(w), Tensor(b), dilation=d, groups=groups)
            got = dilated_conv1d(Tensor(x), kern, pad_mode="symmetric").data
            assert oracle_deviation(got, x, w, b, d, groups, naive_symmetric_conv1d) < 1

    def test_batched_matches_per_sample(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(5, 4, 12))
        naive = {"causal": naive_dilated_conv1d, "symmetric": naive_symmetric_conv1d}
        for groups in (1, 2, 4):  # 4 == C: depthwise
            w, b = rng.normal(size=(4, 4 // groups, 2)), rng.normal(size=4)
            kern = Kernel1D(Tensor(w), Tensor(b), dilation=2, groups=groups)
            for mode in PAD_MODES:
                batched = dilated_conv1d(Tensor(x), kern, mode).data
                for i in range(5):
                    single = dilated_conv1d(Tensor(x[i]), kern, mode).data
                    assert np.allclose(batched[i], single, atol=1e-12)
                    want = naive[mode](x[i], w, b, 2, groups)
                    assert np.max(np.abs(batched[i] - want)) < 1e-9

    def test_batched_dense_gradients(self):
        # ungrouped, grouped and depthwise (4 == C), all one stacked GEMM
        rng = np.random.default_rng(31)
        x = Tensor(rng.normal(size=(3, 4, 9)), requires_grad=True)
        for groups in (1, 2, 4):
            w = Tensor(rng.normal(size=(4, 4 // groups, 3)), requires_grad=True)
            b = Tensor(rng.normal(size=4), requires_grad=True)
            kern = Kernel1D(w, b, dilation=2, groups=groups)
            for mode in PAD_MODES:
                check_gradients(lambda: (dilated_conv1d(x, kern, mode) ** 2.0).sum(),
                                {"x": x, "w": w, "b": b})

    def test_grouped_is_ungrouped_per_group(self):
        # a grouped conv is one ungrouped conv per group on its channel
        # slices, concatenated: output and the input, weight and bias
        # gradients. The sums may run in another order (numpy hands BLAS a
        # strided block where the slice is dense, and the bias gradient
        # reduces over another layout), so each holds within 16 epsilons of
        # its largest magnitude
        rng = np.random.default_rng(53)
        for trial in range(300):
            groups = int(rng.choice([2, 3, 4, 8, 16, 32, 64]))
            cg, og = (1, int(rng.integers(1, 3))) if trial % 2 else \
                (int(rng.integers(1, 4)), int(rng.integers(1, 4)))
            k, d, t = int(rng.integers(1, 5)), int(rng.integers(1, 4)), int(rng.integers(1, 17))
            dtype = (np.float64, np.float32)[trial % 3 == 0]
            lead = ((), (int(rng.integers(1, 9)),))[trial % 4 > 0]
            pad_mode = PAD_MODES[trial % 2]
            arrays = [rng.normal(size=lead + (cg * groups, t)), rng.normal(size=(og * groups, cg, k)),
                      rng.normal(size=og * groups), rng.normal(size=lead + (og * groups, t))]
            x, w, b, g = (Tensor(a.astype(dtype), requires_grad=True) for a in arrays)
            out = dilated_conv1d(x, Kernel1D(w, b, dilation=d, groups=groups), pad_mode)
            (out * g).sum().backward()
            parts = [[], [], [], []]
            for j in range(groups):
                ci, co = slice(j * cg, (j + 1) * cg), slice(j * og, (j + 1) * og)
                xj = Tensor(x.data[..., ci, :], requires_grad=True)
                wj, bj = (Tensor(v.data[co], requires_grad=True) for v in (w, b))
                outj = dilated_conv1d(xj, Kernel1D(wj, bj, dilation=d), pad_mode)
                (outj * Tensor(g.data[..., co, :])).sum().backward()
                for part, got in zip(parts, (outj.data, xj.grad, wj.grad, bj.grad)):
                    part.append(got)
            axes = (-2, -2, 0, 0)
            for got, part, axis in zip((out.data, x.grad, w.grad, b.grad), parts, axes):
                want = np.concatenate(part, axis=axis)
                assert got.dtype == want.dtype and got.shape == want.shape, trial
                bound = 16 * np.finfo(dtype).eps * np.max(np.abs(want))
                assert np.max(np.abs(got - want)) <= bound, trial

    def test_one_tap_kernel_is_one_gemm(self):
        # from inputs in either memory layout
        rng = np.random.default_rng(41)
        for trial in range(60):
            c_in, c_out, t = (int(v) for v in rng.integers(1, 20, size=3))
            lead = ((), (1,), (int(rng.integers(2, 40)),))[trial % 3]
            x = rng.normal(size=lead + (c_in, t))
            if trial % 2:
                x = _channels_last(x)
            w, b = rng.normal(size=(c_out, c_in, 1)), rng.normal(size=c_out)
            got = dilated_conv1d(Tensor(x), Kernel1D(Tensor(w), Tensor(b)),
                                 PAD_MODES[trial % 2]).data
            cols = np.ascontiguousarray(np.swapaxes(x, -1, -2)).reshape(-1, c_in)
            want = np.swapaxes((cols @ w[:, :, 0].T + b).reshape(lead + (t, c_out)), -1, -2)
            assert np.max(np.abs(got - want)) < 1e-9, trial

    def test_depthwise_is_a_per_tap_einsum(self):
        # to rounding, from inputs in either memory layout: the conv sums the
        # taps inside one GEMM, so within 16 epsilons of the output's magnitude
        rng = np.random.default_rng(43)
        for trial in range(60):
            c, k, d, t = (int(v) for v in (rng.integers(2, 20), rng.integers(1, 5),
                                            rng.integers(1, 4), rng.integers(1, 16)))
            lead = ((), (1,), (int(rng.integers(2, 40)),))[trial % 3]
            pad_mode = PAD_MODES[trial % 2]
            x = rng.normal(size=lead + (c, t))
            if trial % 4 < 2:
                x = _channels_last(x)
            w, b = rng.normal(size=(c, 1, k)), rng.normal(size=c)
            got = dilated_conv1d(Tensor(x), Kernel1D(Tensor(w), Tensor(b), dilation=d, groups=c),
                                 pad_mode).data
            # zeros, one einsum per tap over the padded sequence (tap i reads
            # i * d steps back from the span's far end), then the bias
            span = (k - 1) * d
            left = span if pad_mode == "causal" else span - span // 2
            xb = x.reshape((-1, c, t))
            xp = np.zeros((xb.shape[0], c, t + span))
            xp[:, :, left:left + t] = xb
            out = np.zeros((xb.shape[0], c, 1, t))
            for i in range(k):
                tap = xp[:, :, span - i * d: span - i * d + t].reshape(-1, c, 1, t)
                out += np.einsum("goc,bgct->bgot", w[:, None, :, i], tap)
            want = (out.reshape(-1, c, t) + b[:, None]).reshape(x.shape)
            bound = 16 * np.finfo(np.float64).eps * np.max(np.abs(want))
            assert np.max(np.abs(got - want)) <= bound, trial


class TestWorkedValues:
    def test_two_tap_unit_kernel_dilation_1(self):
        # running pair-sum with zero history
        x = Tensor([[1.0, 2.0, 3.0, 4.0]])
        kern = Kernel1D(Tensor(np.ones((1, 1, 2))), Tensor([0.0]), dilation=1)
        assert np.allclose(dilated_conv1d(x, kern).data, [[1.0, 3.0, 5.0, 7.0]])

    def test_two_tap_unit_kernel_dilation_2(self):
        x = Tensor([[1.0, 2.0, 3.0, 4.0]])
        kern = Kernel1D(Tensor(np.ones((1, 1, 2))), Tensor([0.0]), dilation=2)
        assert np.allclose(dilated_conv1d(x, kern).data, [[1.0, 2.0, 4.0, 6.0]])

    def test_length_preserved(self):
        rng = np.random.default_rng(0)
        for d in (1, 2, 3):
            for k in (1, 2, 3, 4):
                x = Tensor(rng.normal(size=(2, 16)))
                kern = Kernel1D(Tensor(rng.normal(size=(3, 2, k))),
                                Tensor(np.zeros(3)), dilation=d)
                for mode in ("causal", "symmetric"):
                    assert dilated_conv1d(x, kern, mode).shape == (3, 16)

    def test_empty_batch_keeps_its_shape(self):
        x = Tensor(np.zeros((0, 2, 7)), requires_grad=True)
        for groups in (1, 2):
            kern = Kernel1D(Tensor(np.ones((2, 2 // groups, 3))), Tensor(np.zeros(2)),
                            dilation=2, groups=groups)
            for mode in PAD_MODES:
                x.zero_grad()
                out = dilated_conv1d(x, kern, mode)
                assert out.shape == (0, 2, 7)
                out.sum().backward()
                assert x.grad.shape == (0, 2, 7)

    def test_causality_future_perturbation_invisible(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(2, 20))
        kern = Kernel1D(Tensor(rng.normal(size=(3, 2, 3))), Tensor(rng.normal(size=3)),
                        dilation=2)
        base = dilated_conv1d(Tensor(x), kern, "causal").data
        t = 8
        bumped = x.copy()
        bumped[:, t + 1:] += rng.normal(size=bumped[:, t + 1:].shape)
        after = dilated_conv1d(Tensor(bumped), kern, "causal").data
        assert np.array_equal(base[:, :t + 1], after[:, :t + 1])

    def test_depthwise_shift_kernel_delays_by_one(self):
        # taps [0, 1]: tap 1 reads one step back, so the output is x delayed
        x = Tensor([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        w = np.zeros((2, 1, 2))
        w[:, 0, 1] = 1.0
        kern = Kernel1D(Tensor(w), Tensor(np.zeros(2)), dilation=1, groups=2)
        out = dilated_conv1d(x, kern).data
        assert np.allclose(out, [[0.0, 1.0, 2.0], [0.0, 4.0, 5.0]])

    def test_pointwise_column_mix(self):
        # 2 -> 1 channels, weights [2, 3], bias 1: column of ones maps to 6
        x = Tensor(np.ones((2, 4)))
        kern = Kernel1D(Tensor([[[2.0], [3.0]]]), Tensor([1.0]))
        assert np.allclose(dilated_conv1d(x, kern).data, np.full((1, 4), 6.0))

    def test_grouped_halves_stay_separate(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(4, 10))
        w = rng.normal(size=(4, 2, 2))
        b = np.zeros(4)
        kern = Kernel1D(Tensor(w), Tensor(b), dilation=1, groups=2)
        out = dilated_conv1d(Tensor(x), kern).data
        # group 0 sees only channels 0-1
        lo = Kernel1D(Tensor(w[:2]), Tensor(b[:2]), dilation=1)
        assert np.allclose(out[:2], dilated_conv1d(Tensor(x[:2]), lo).data)


class TestValidation:
    def test_channel_mismatch_rejected(self):
        kern = Kernel1D(Tensor(np.ones((2, 3, 2))), Tensor(np.zeros(2)))
        with pytest.raises(ConfigurationError):
            dilated_conv1d(Tensor(np.ones((2, 5))), kern)

    def test_bad_hyperparameters_rejected(self):
        with pytest.raises(ConfigurationError):
            Kernel1D(Tensor(np.ones((2, 1, 2))), Tensor(np.zeros(2)), dilation=0)
        with pytest.raises(ConfigurationError):
            Kernel1D(Tensor(np.ones((3, 1, 2))), Tensor(np.zeros(3)), groups=2)
        with pytest.raises(ConfigurationError):
            Kernel1D(Tensor(np.ones((2, 1, 2))), Tensor(np.zeros(3)))

    def test_unknown_pad_mode_rejected(self):
        kern = Kernel1D(Tensor(np.ones((1, 1, 2))), Tensor(np.zeros(1)))
        with pytest.raises(ConfigurationError):
            dilated_conv1d(Tensor(np.ones((1, 4))), kern, pad_mode="reflect")


class TestConv2d:
    def test_all_ones_3x3(self):
        x = Tensor(np.ones((1, 3, 3)))
        w = Tensor(np.ones((1, 1, 3, 3)))
        out = conv2d(x, w, Tensor(np.zeros(1)))
        assert out.shape == (1, 1, 1)
        assert np.allclose(out.data, 9.0)

    def test_stride_2_windows(self):
        x = Tensor(np.ones((1, 4, 4)))
        w = Tensor(np.ones((1, 1, 2, 2)))
        out = conv2d(x, w, Tensor(np.zeros(1)), stride=(2, 2))
        assert np.allclose(out.data, np.full((1, 2, 2), 4.0))

    def test_matches_loop_reference(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(2, 5, 6, 4))
        w = rng.normal(size=(3, 5, 3, 2))
        b = rng.normal(size=3)
        out = conv2d(Tensor(x), Tensor(w), Tensor(b), stride=(2, 1), padding=(1, 0)).data
        want = naive_conv2d(x, w, b, (2, 1), (1, 0))
        assert np.max(np.abs(out - want)) < 1e-9

    def test_120_random_instances_match_loop_reference(self):
        rng = np.random.default_rng(2026)
        shapes = set()
        for case in range(120):
            batch = int(rng.integers(1, 5))
            kh, kw = (3, 3) if case % 4 == 0 else (3, 1) if case % 4 == 1 else \
                (int(rng.integers(1, 4)), int(rng.integers(1, 4)))
            stride = (int(rng.integers(1, 3)), int(rng.integers(1, 3)))
            padding = (int(rng.integers(0, 2)), int(rng.integers(0, 2)))
            c_in, c_out = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            height = int(rng.integers(max(1, kh - 2 * padding[0]), 8))
            width = int(rng.integers(max(1, kw - 2 * padding[1]), 6))
            x = rng.normal(size=(batch, c_in, height, width))
            w = rng.normal(size=(c_out, c_in, kh, kw))
            b = rng.normal(size=c_out) if case % 3 else None
            unbatched = case % 5 == 0
            got = conv2d(Tensor(x[0] if unbatched else x), Tensor(w),
                         None if b is None else Tensor(b), stride, padding).data
            want = naive_conv2d(x, w, b, stride, padding)
            if unbatched:
                want = want[0]
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) < 1e-9, (case, x.shape, w.shape, stride, padding)
            shapes.add((unbatched, kh, kw) + stride + padding)
        # the sweep reaches the unbatched input, both model kernels, both
        # strides and both paddings
        assert any(s[0] for s in shapes)
        assert any(s[1:3] == (3, 3) for s in shapes) and any(s[1:3] == (3, 1) for s in shapes)
        assert {s[3:5] for s in shapes} >= {(1, 1), (2, 2)}
        assert {s[5:7] for s in shapes} >= {(0, 0), (1, 1)}

    @pytest.mark.parametrize("x_shape,w_shape,stride,padding", [
        ((2, 3, 5, 3), (4, 3, 3, 3), (1, 1), (1, 1)),
        ((3, 2, 6, 3), (3, 2, 3, 1), (2, 1), (1, 0)),
        ((2, 5, 4), (2, 2, 2, 2), (2, 2), (0, 1)),
        ((2, 3, 4, 2), (4, 3, 1, 1), (1, 1), (0, 0)),
    ])
    def test_gradients_match_finite_differences(self, x_shape, w_shape, stride, padding):
        rng = np.random.default_rng(sum(x_shape))
        x = Tensor(rng.normal(size=x_shape), requires_grad=True)
        w = Tensor(rng.normal(size=w_shape), requires_grad=True)
        b = Tensor(rng.normal(size=w_shape[0]), requires_grad=True)
        check_gradients(lambda: (conv2d(x, w, b, stride, padding) ** 2.0).sum(),
                        {"x": x, "w": w, "b": b})

    def test_oversized_window_rejected(self):
        with pytest.raises(ConfigurationError):
            conv2d(Tensor(np.ones((1, 2, 2))), Tensor(np.ones((1, 1, 3, 3))))
