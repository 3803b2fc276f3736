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
    groups = int(rng.choice([1, 1, 2]))
    cg_in = int(rng.integers(1, 4))
    og = int(rng.integers(1, 4))
    c_in, c_out = cg_in * groups, og * groups
    k = int(rng.integers(1, 5))
    d = int(rng.integers(1, 4))
    length = int(rng.integers(1, 21))
    x = rng.normal(size=(c_in, length))
    w = rng.normal(size=(c_out, cg_in, k))
    b = rng.normal(size=(c_out,))
    return x, w, b, d, groups


class TestCausalOracle:
    def test_200_random_instances_match_naive_loop(self):
        rng = np.random.default_rng(2024)
        start = time.monotonic()
        worst = 0.0
        for _ in range(200):
            x, w, b, d, groups = random_instance(rng)
            kern = Kernel1D(Tensor(w), Tensor(b), dilation=d, groups=groups)
            got = dilated_conv1d(Tensor(x), kern, pad_mode="causal").data
            want = naive_dilated_conv1d(x, w, b, d, groups)
            worst = max(worst, float(np.max(np.abs(got - want))))
        elapsed = time.monotonic() - start
        assert worst < 1e-9, f"worst abs deviation {worst:.2e}"
        assert elapsed < 10.0, f"oracle sweep took {elapsed:.1f}s"

    def test_symmetric_mode_matches_padded_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            x, w, b, d, groups = random_instance(rng)
            kern = Kernel1D(Tensor(w), Tensor(b), dilation=d, groups=groups)
            got = dilated_conv1d(Tensor(x), kern, pad_mode="symmetric").data
            want = naive_symmetric_conv1d(x, w, b, d, groups)
            assert np.max(np.abs(got - want)) < 1e-9

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
        rng = np.random.default_rng(31)
        x = Tensor(rng.normal(size=(3, 3, 9)), requires_grad=True)
        w = Tensor(rng.normal(size=(2, 3, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=2), requires_grad=True)
        kern = Kernel1D(w, b, dilation=2)
        for mode in PAD_MODES:
            check_gradients(lambda: (dilated_conv1d(x, kern, mode) ** 2.0).sum(),
                            {"x": x, "w": w, "b": b})


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
