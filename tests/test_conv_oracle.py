"""Convolution correctness against independent naive-loop oracles."""

import time

import numpy as np
import pytest

from deeptrack.numcore import (
    ConfigurationError,
    Kernel1D,
    RunningStats,
    Tensor,
    conv2d,
    conv_unit,
    dilated_conv1d,
)

from helpers import (
    chained_unit, check_gradients, naive_batch_norm, naive_conv2d, naive_dilated_conv1d,
    naive_symmetric_conv1d,
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


NAIVE_ACTIVATIONS = {
    "swish": lambda v: v / (1.0 + np.exp(-v)),
    "relu": lambda v: np.maximum(v, 0.0),
    "tanh": np.tanh,
    "sigmoid": lambda v: 1.0 / (1.0 + np.exp(-v)),
    "identity": lambda v: v,
}


def naive_unit(x, w, b, d, groups, pad_mode, gamma, beta, stats, mode, activation,
               momentum, eps):
    """A channels-first ``[B, C, T]`` unit from the loop oracles, in float64:
    ``(out, new_mean, new_var)``, the statistics None without batch norm."""
    conv = {"causal": naive_dilated_conv1d, "symmetric": naive_symmetric_conv1d}[pad_mode]
    z = np.zeros((x.shape[0], w.shape[0], x.shape[2]))
    for i, seq in enumerate(x):
        z[i] = conv(seq, w, np.zeros(w.shape[0]) if b is None else b, d, groups)
    mean = var = None
    if gamma is not None:
        z, mean, var = naive_batch_norm(z, gamma, beta, stats.mean, stats.var, mode,
                                        momentum, eps)
    return NAIVE_ACTIVATIONS[activation](z), mean, var


def random_unit_case(rng, trial):
    """A seeded conv_unit case: ungrouped, depthwise (channel multiplier 1 or
    2) or general grouped by turns; k from 1 to 4, d from 1 to 3, either pad
    mode; sometimes fewer steps than the span, zero rows or one unbatched
    sequence; a quarter float32; batch norm (then no bias) on two in three,
    which in train mode on zero rows, with no statistics, must raise."""
    kind = ("ungrouped", "depthwise", "grouped")[trial % 3]
    if kind == "ungrouped":
        groups, cg, og = 1, int(rng.integers(1, 5)), int(rng.integers(1, 5))
    elif kind == "depthwise":
        groups, cg, og = int(rng.integers(1, 9)), 1, int(rng.integers(1, 3))
    else:
        groups, cg, og = int(rng.integers(2, 4)), int(rng.integers(2, 4)), int(rng.integers(1, 4))
    k, d = int(rng.integers(1, 5)), int(rng.integers(1, 4))
    span = (k - 1) * d
    steps = int(rng.integers(1, span)) if rng.random() < 0.2 and span > 1 else \
        int(rng.integers(1, 13))
    batch = (0, None, 1, int(rng.integers(2, 6)))[int(rng.integers(0, 4))]
    dtype = np.float32 if rng.random() < 0.25 else np.float64
    mode = str(rng.choice(["train", "eval"]))
    norm = rng.random() < 2 / 3
    arrays = dict(
        x=rng.normal(size=(batch or 1, cg * groups, steps)),
        w=rng.normal(size=(og * groups, cg, k)),
        b=None if norm else rng.normal(size=og * groups),
        gamma=rng.uniform(-2.0, 2.0, size=og * groups) if norm else None,
        beta=rng.normal(size=og * groups) if norm else None)
    if batch == 0:
        arrays["x"] = arrays["x"][:0]
    arrays = {key: None if v is None else v.astype(dtype) for key, v in arrays.items()}
    stats = RunningStats(rng.normal(size=og * groups).astype(dtype),
                         rng.uniform(0.2, 3.0, size=og * groups).astype(dtype)) if norm else None
    return dict(arrays, stats=stats, d=d, groups=groups, mode=mode,
                pad_mode=str(rng.choice(PAD_MODES)),
                activation=str(rng.choice(sorted(NAIVE_ACTIVATIONS))),
                unbatched=batch is None, momentum=float(rng.uniform(0.0, 1.0)), eps=1e-3,
                span=span, kind=kind)


class TestConvUnitOracle:
    """The channels-last conv_unit against the channels-first chain of
    dilated_conv1d, batch_norm and the activation, and against the loop
    oracles."""

    def test_sweep_matches_the_chain_and_the_loops(self):
        rng = np.random.default_rng(2525)
        seen = set()
        for trial in range(240):
            case = random_unit_case(rng, trial)
            x, w, b = case["x"], case["w"], case["b"]
            gamma, beta, stats = case["gamma"], case["beta"], case["stats"]
            norm = gamma is not None
            tensors = {key: None if case[key] is None else Tensor(case[key])
                       for key in ("w", "b", "gamma", "beta")}
            kern = Kernel1D(tensors["w"], tensors["b"], dilation=case["d"],
                            groups=case["groups"])
            xc = x[0] if case["unbatched"] else x
            args = (case["mode"], case["activation"], case["pad_mode"], case["momentum"],
                    case["eps"])
            fused_stats, chain_stats = (stats.copy(), stats.copy()) if norm else (None, None)
            if norm and case["mode"] == "train" and x.shape[0] == 0:
                for unit in (conv_unit, chained_unit):
                    with pytest.raises(ConfigurationError, match="zero rows"):
                        unit(Tensor(np.swapaxes(xc, -1, -2) if unit is conv_unit else xc),
                             kern, tensors["gamma"], tensors["beta"], fused_stats, *args)
                assert fused_stats.mean.tobytes() == stats.mean.tobytes()
                assert fused_stats.var.tobytes() == stats.var.tobytes()
                seen.add("empty-train-norm")
                continue
            got = conv_unit(Tensor(np.swapaxes(xc, -1, -2)), kern, tensors["gamma"],
                            tensors["beta"], fused_stats, *args).data
            chain = chained_unit(Tensor(xc), kern, tensors["gamma"], tensors["beta"],
                                 chain_stats, *args).data
            chain = np.swapaxes(chain, -1, -2)
            assert got.shape == chain.shape and got.dtype == chain.dtype == x.dtype, trial
            if case["mode"] == "train":
                assert got.tobytes() == chain.tobytes(), (trial, case["kind"])
                if norm:
                    assert fused_stats.mean.tobytes() == chain_stats.mean.tobytes(), trial
                    assert fused_stats.var.tobytes() == chain_stats.var.tobytes(), trial
            else:
                scale = max(float(np.abs(chain).max(initial=0.0)), 1e-30)
                bound = 16 * np.finfo(x.dtype).eps * scale
                assert float(np.abs(got - chain).max(initial=0.0)) <= bound, (trial, case["kind"])

            as64 = [None if v is None else v.astype(np.float64) for v in (x, w, b, gamma, beta)]
            want, want_mean, want_var = naive_unit(
                *as64[:3], case["d"], case["groups"], case["pad_mode"], *as64[3:],
                None if stats is None else RunningStats(stats.mean.astype(np.float64),
                                                        stats.var.astype(np.float64)),
                case["mode"], case["activation"], case["momentum"], case["eps"])
            want = np.swapaxes(want[0] if case["unbatched"] else want, -1, -2)
            bound = 1e-9 if x.dtype == np.float64 else \
                64 * np.finfo(np.float32).eps * max(1.0, float(np.abs(want).max(initial=0.0)))
            assert float(np.abs(got - want).max(initial=0.0)) <= bound, (trial, case["kind"])
            if norm and case["mode"] == "train":
                for have, need in ((fused_stats.mean, want_mean), (fused_stats.var, want_var)):
                    assert float(np.abs(have - need).max()) <= bound, trial
            seen.add((case["kind"], case["pad_mode"], case["mode"], norm))
            seen.update({x.dtype.name, "short" if x.shape[2] <= case["span"] else "long",
                         "empty" if x.shape[0] == 0 else "rows",
                         "unbatched" if case["unbatched"] else "batched"})
        # every kind in both pad modes and both modes, with and without batch
        # norm; fewer steps than the span, zero rows (in train mode with batch
        # norm too), one unbatched sequence and float32 all occur
        assert {(k, p, m, n) for k in ("ungrouped", "depthwise", "grouped")
                for p in PAD_MODES for m in ("train", "eval") for n in (True, False)} <= seen
        assert {"short", "empty", "empty-train-norm", "unbatched", "float32"} <= seen

    def test_graph_free_units_allocate_no_im2col_or_layout_copies(self):
        # the output, one tap-product buffer and the activation's temporary,
        # never two of the last at once: 2.0 times the output's bytes for the
        # pointwise unit and 2.12 for two to four taps, measured at this
        # shape. An im2col matrix or a transposed copy of the input (as wide
        # as the output here) would add at least one more output's worth
        import tracemalloc
        rng = np.random.default_rng(5)
        n, t, c = 326, 16, 16
        x = Tensor(rng.normal(size=(n, t, c)))
        stats = RunningStats(rng.normal(size=c), rng.uniform(0.5, 2.0, size=c))
        gamma, beta = Tensor(rng.uniform(0.5, 2.0, size=c)), Tensor(rng.normal(size=c))
        for groups, k in ((1, 1), (c, 2), (c, 4)):  # pointwise, depthwise
            kern = Kernel1D(Tensor(rng.normal(size=(c, c // groups, k))), None, dilation=2,
                            groups=groups)
            conv_unit(x, kern, gamma, beta, stats, "eval", "swish")  # warm caches
            tracemalloc.start()
            try:
                out = conv_unit(x, kern, gamma, beta, stats, "eval", "swish")
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert out.shape == (n, t, c)
            assert peak <= 2.5 * out.data.nbytes, (groups, k, peak / out.data.nbytes)


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
