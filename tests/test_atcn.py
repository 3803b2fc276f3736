"""Temporal encoder stacks: padding math, receptive field, block structure."""

import dataclasses

import numpy as np
import pytest

from deeptrack.atcn import AtcnConfig, AtcnEncoder, receptive_field
from deeptrack.numcore import (
    ConfigurationError,
    Kernel1D,
    Tensor,
    conv_unit,
    dilated_conv1d,
)
from deeptrack.numcore.tensor import no_grad

from helpers import chained_encoder_forward, check_gradients, graph_nodes, \
    symmetric_left_padding

NBR_CONFIG = AtcnConfig(input_channels=2, channels=(16, 32, 64),
                        kernel_sizes=(2, 2, 2), dilations=(1, 1, 1))
EGO_CONFIG = AtcnConfig(input_channels=2, channels=(8, 16, 32),
                        kernel_sizes=(2, 2, 2), dilations=(1, 1, 1))


class TestPaddingMath:
    def test_length_preserving_cases(self):
        assert symmetric_left_padding(2, 1) == 1
        assert symmetric_left_padding(3, 2) == 2
        assert symmetric_left_padding(1, 1) == 0

    def test_covers_dilated_span(self):
        # 2 * padding must reach the kernel span for length preservation
        for k in (1, 2, 3, 4):
            for d in (1, 2, 3):
                p = symmetric_left_padding(k, d)
                assert 2 * p >= (k - 1) * d
                assert 2 * p - (k - 1) * d in (0, 1)


class TestReceptiveField:
    def test_three_blocks_k2_d1(self):
        assert receptive_field(NBR_CONFIG) == 4
        assert receptive_field(EGO_CONFIG) == 4

    def test_unit_kernels_see_one_step(self):
        cfg = AtcnConfig(2, (4,), (1,), (1,))
        assert receptive_field(cfg) == 1

    def test_dilation_widens(self):
        cfg = AtcnConfig(2, (4, 4), (3, 3), (1, 2))
        assert receptive_field(cfg) == 1 + 2 + 4

    def test_empirical_field_matches_formula(self):
        # eval mode: flip inputs just inside/outside the window and watch
        # the final step of the output
        rng = np.random.default_rng(42)
        enc = AtcnEncoder(NBR_CONFIG, rng)
        rf = receptive_field(NBR_CONFIG)
        x = rng.normal(size=(2, 16)).T
        base = enc.forward(Tensor(x), "eval").data[-1]

        inside = x.copy()
        inside[16 - rf] += 1.0
        out_inside = enc.forward(Tensor(inside), "eval").data[-1]
        assert not np.allclose(out_inside, base)

        outside = x.copy()
        outside[16 - rf - 1] += 1.0
        out_outside = enc.forward(Tensor(outside), "eval").data[-1]
        assert np.array_equal(out_outside, base)


class TestEncoderShapes:
    def test_table_shapes_single_and_batched(self):
        rng = np.random.default_rng(0)
        enc = AtcnEncoder(NBR_CONFIG, rng)
        out = enc.forward(Tensor(rng.normal(size=(16, 2))))
        assert out.shape == (16, 64)
        out_b = enc.forward(Tensor(rng.normal(size=(5, 16, 2))))
        assert out_b.shape == (5, 16, 64)
        assert enc.summary(Tensor(rng.normal(size=(5, 16, 2)))).shape == (5, 64)

    def test_summary_is_last_step(self):
        rng = np.random.default_rng(1)
        enc = AtcnEncoder(EGO_CONFIG, rng)
        x = Tensor(rng.normal(size=(3, 2, 16)).transpose(0, 2, 1))
        full = enc.forward(x, "eval").data
        summ = enc.summary(x, "eval").data
        assert np.array_equal(summ, full[:, -1, :])

    def test_summary_owns_its_memory(self):
        # a view of the last step would keep the whole [B, T, C] output alive
        rng = np.random.default_rng(12)
        enc = AtcnEncoder(NBR_CONFIG, rng)
        x = Tensor(rng.normal(size=(29, 16, 2)))
        with no_grad():
            for mode in ("eval", "train"):
                summ = enc.summary(x, mode)
                assert summ.shape == (29, 64) and summ.data.base is None

    def test_batched_matches_per_sample_eval(self):
        rng = np.random.default_rng(2)
        enc = AtcnEncoder(EGO_CONFIG, rng)
        x = rng.normal(size=(4, 16, 2))
        batched = enc.forward(Tensor(x), "eval").data
        for i in range(4):
            single = enc.forward(Tensor(x[i]), "eval").data
            assert np.allclose(batched[i], single, atol=1e-12)

    def test_block_unit_layout(self):
        rng = np.random.default_rng(3)
        enc = AtcnEncoder(NBR_CONFIG, rng)
        names = [u.name for u in enc.units]
        assert names == ["block0.conv",
                         "block1.pw_in", "block1.dw", "block1.pw_out",
                         "block2.pw_in", "block2.dw", "block2.pw_out"]
        # bottleneck widths halve the incoming channels
        assert enc.units[1].kern.out_channels == 8
        assert enc.units[4].kern.out_channels == 16

    @pytest.mark.parametrize("batch_norm", [True, False])
    def test_only_units_without_batch_norm_own_a_bias(self, batch_norm):
        # batch norm subtracts the mean of its input, so a bias before it is dead
        cfg = dataclasses.replace(NBR_CONFIG, use_batch_norm=batch_norm)
        enc = AtcnEncoder(cfg, np.random.default_rng(3))
        for unit in enc.units:
            assert (unit.kern.bias is None) == batch_norm, unit.name
            assert ("b" in unit.parameters()) != batch_norm, unit.name
        assert any(name.endswith(".b") for name in enc.parameters()) != batch_norm

    def test_wrong_channels_rejected(self):
        enc = AtcnEncoder(NBR_CONFIG, np.random.default_rng(0))
        with pytest.raises(ConfigurationError):
            enc.forward(Tensor(np.ones((16, 3))))

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            AtcnConfig(2, (16, 32), (2,), (1, 1))
        with pytest.raises(ConfigurationError):
            AtcnConfig(2, (16,), (2,), (0,))
        with pytest.raises(ConfigurationError):
            AtcnConfig(2, (16,), (2,), (1,), pad_mode="wrap")
        for bad in (dict(bn_momentum=1.5), dict(bn_momentum=-0.5), dict(bn_epsilon=-1e-5)):
            with pytest.raises(ConfigurationError, match=next(iter(bad))):
                AtcnConfig(2, (16,), (2,), (1,), **bad)
        AtcnConfig(2, (16,), (2,), (1,), bn_momentum=1.0, bn_epsilon=0.0)


class TestCausality:
    def test_future_perturbation_invisible_causal(self):
        rng = np.random.default_rng(4)
        enc = AtcnEncoder(NBR_CONFIG, rng)
        x = rng.normal(size=(2, 16)).T
        base = enc.forward(Tensor(x), "eval").data
        t = 9
        bumped = x.copy()
        bumped[t + 1:] += rng.normal(size=(2, 16 - t - 1)).T
        after = enc.forward(Tensor(bumped), "eval").data
        assert np.array_equal(base[:t + 1], after[:t + 1])

    def test_symmetric_mode_sees_the_future(self):
        # even kernels crop back to causal alignment; k=3 straddles the step
        cfg = AtcnConfig(2, (4, 4, 4), (3, 3, 3), (1, 1, 1), pad_mode="symmetric")
        rng = np.random.default_rng(5)
        enc = AtcnEncoder(cfg, rng)
        x = rng.normal(size=(2, 16)).T
        base = enc.forward(Tensor(x), "eval").data
        bumped = x.copy()
        bumped[10] += 1.0
        after = enc.forward(Tensor(bumped), "eval").data
        assert not np.array_equal(base[:10], after[:10])


class TestIdentityConstruction:
    """With unit-diagonal weights and frozen statistics a block passes input
    through; batch norm's zero shift stands in for the bias its units lack."""

    def _identity_encoder(self, depth):
        cfg = AtcnConfig(2, (2,) * depth, (2,) * depth, (1,) * depth,
                         bottleneck_divisor=1, activation="identity",
                         bn_epsilon=0.0)
        enc = AtcnEncoder(cfg, np.random.default_rng(0))
        for unit in enc.units:
            w = unit.kern.weights.data
            w[:] = 0.0
            for c in range(w.shape[0]):
                w[c, c if w.shape[1] > 1 else 0, 0] = 1.0
        return enc

    def test_standard_block_identity(self):
        enc = self._identity_encoder(1)
        x = np.random.default_rng(1).normal(size=(12, 2))
        assert np.allclose(enc.forward(Tensor(x), "eval").data, x, atol=1e-12)

    def test_separable_block_identity(self):
        enc = self._identity_encoder(3)
        x = np.random.default_rng(2).normal(size=(12, 2))
        assert np.allclose(enc.forward(Tensor(x), "eval").data, x, atol=1e-12)


class TestSeparableEquivalence:
    def test_factorable_standard_conv_reproduced(self):
        # any kernel W[o, c, i] = A[o, c] * taps[i] equals PW(A) . DW(taps) . PW(I)
        rng = np.random.default_rng(6)
        a = rng.normal(size=(2, 2))
        taps = rng.normal(size=3)
        w_std = np.einsum("oc,i->oci", a, taps)
        x = rng.normal(size=(2, 14))

        std = dilated_conv1d(
            Tensor(x), Kernel1D(Tensor(w_std), Tensor(np.zeros(2)), dilation=2)).data

        eye = np.eye(2)[:, :, None]
        h = dilated_conv1d(Tensor(x), Kernel1D(Tensor(eye), Tensor(np.zeros(2))))
        dw_w = np.tile(taps, (2, 1, 1))
        h = dilated_conv1d(h, Kernel1D(Tensor(dw_w), Tensor(np.zeros(2)),
                                       dilation=2, groups=2))
        h = dilated_conv1d(h, Kernel1D(Tensor(a[:, :, None]), Tensor(np.zeros(2))))
        assert np.allclose(h.data, std, atol=1e-12)


class TestModesAndGradients:
    def test_eval_forward_is_pure(self):
        rng = np.random.default_rng(7)
        enc = AtcnEncoder(EGO_CONFIG, rng)
        x = Tensor(rng.normal(size=(3, 16, 2)))
        stats_before = {k: v.copy() for k, v in enc.buffers().items()}
        a = enc.forward(x, "eval").data
        b = enc.forward(x, "eval").data
        assert np.array_equal(a, b)
        for k, v in enc.buffers().items():
            assert np.array_equal(v, stats_before[k])

    def test_train_mode_moves_stats(self):
        rng = np.random.default_rng(8)
        enc = AtcnEncoder(EGO_CONFIG, rng)
        before = {k: v.copy() for k, v in enc.buffers().items()}
        enc.forward(Tensor(rng.normal(size=(4, 16, 2))), "train")
        changed = [k for k, v in enc.buffers().items()
                   if not np.array_equal(v, before[k])]
        assert changed

    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_gradients_through_small_encoder(self, mode):
        cfg = AtcnConfig(2, (3, 4), (2, 2), (1, 1))
        rng = np.random.default_rng(9)
        enc = AtcnEncoder(cfg, rng)
        x = Tensor(rng.normal(size=(2, 6, 2)), requires_grad=True)
        params = dict(enc.parameters(), x=x)
        stats = {k: v.copy() for k, v in enc.buffers().items()}

        def loss():
            for k, v in enc.buffers().items():
                v[...] = stats[k]
            return (enc.forward(x, mode) ** 2.0).mean()

        check_gradients(loss, params)


def _random_causal_encoder(rng, dtype):
    """An encoder of random shape with non-trivial weights and running stats."""
    depth = int(rng.integers(1, 5))
    cfg = AtcnConfig(
        input_channels=int(rng.integers(1, 4)),
        channels=tuple(int(c) for c in rng.integers(1, 7, size=depth)),
        kernel_sizes=tuple(int(k) for k in rng.integers(1, 4, size=depth)),
        dilations=tuple(int(d) for d in rng.integers(1, 4, size=depth)),
        bottleneck_divisor=int(rng.integers(1, 4)),
        activation=str(rng.choice(["swish", "relu", "tanh", "sigmoid", "identity"])))
    enc = AtcnEncoder(cfg, rng, dtype=dtype)
    for unit in enc.units:
        c = unit.kern.out_channels
        unit.gamma.data[:] = rng.uniform(0.5, 2.0, size=c)
        unit.beta.data[:] = rng.normal(size=c)
        unit.stats.mean[:] = rng.normal(size=c)
        unit.stats.var[:] = rng.uniform(0.2, 3.0, size=c)
    return enc


class TestReceptiveFieldSummary:
    """A causal eval-mode summary runs only the last receptive_field steps."""

    def test_causal_eval_summary_matches_full_forward(self):
        rng = np.random.default_rng(1803)
        shapes = [(1,), (5,), (17,), (300,), ()]
        for trial in range(120):
            dtype = (np.float64, np.float32)[trial % 2]
            enc = _random_causal_encoder(rng, dtype)
            rf = receptive_field(enc.config)
            t = int(rng.integers(1, rf)) if trial % 3 == 0 and rf > 1 \
                else rf + int(rng.integers(0, 12))
            lead = shapes[trial % len(shapes)]
            x = Tensor(np.swapaxes(rng.normal(size=lead + (enc.config.input_channels, t)),
                                   -1, -2).astype(dtype))
            full = enc.forward(x, "eval").data[..., -1, :]
            summ = enc.summary(x, "eval").data
            assert summ.shape == full.shape and summ.dtype == full.dtype
            bound = 16 * np.finfo(dtype).eps * max(float(np.abs(full).max()), 1e-30)
            assert float(np.abs(summ - full).max()) <= bound, (trial, enc.config, t, lead)

    @pytest.mark.parametrize("pad_mode,mode", [("causal", "train"),
                                               ("symmetric", "eval"),
                                               ("symmetric", "train")])
    def test_other_modes_equal_full_forward_bit_for_bit(self, pad_mode, mode):
        rng = np.random.default_rng(7)
        for _ in range(10):
            enc = _random_causal_encoder(rng, np.float64)
            enc.config.pad_mode = pad_mode
            stats = {k: v.copy() for k, v in enc.buffers().items()}
            x = Tensor(rng.normal(size=(5, enc.config.input_channels, 16)).transpose(0, 2, 1))
            full = enc.forward(x, mode).data[..., -1, :]
            for k, v in enc.buffers().items():
                v[...] = stats[k]
            assert enc.summary(x, mode).data.tobytes() == full.tobytes()

    @pytest.mark.parametrize("t", [2, 3, 16])
    @pytest.mark.parametrize("pad_mode,mode,k", [("causal", "eval", 2), ("causal", "train", 2),
                                                 ("symmetric", "eval", 2),
                                                 ("symmetric", "eval", 3)])
    def test_every_convolution_sees_the_expected_steps(self, monkeypatch, pad_mode,
                                                       mode, k, t):
        import deeptrack.atcn as atcn
        seen = []

        def spy(x, *args):  # the units run channels-last, [B, T, C]
            seen.append(x.data.shape[-2])
            return conv_unit(x, *args)

        monkeypatch.setattr(atcn, "conv_unit", spy)
        cfg = AtcnConfig(2, (16, 32, 64), (k, k, k), (1, 1, 1), pad_mode=pad_mode)
        enc = AtcnEncoder(cfg, np.random.default_rng(0))
        enc.summary(Tensor(np.ones((3, t, 2))), mode)
        # eval mode reads the newest output's window: the receptive field
        # when causal, 1 + the left padding when symmetric (4 of k = 3's 7)
        window = receptive_field(cfg) if pad_mode == "causal" \
            else 1 + 3 * symmetric_left_padding(k, 1)
        want = min(t, window) if mode == "eval" else t
        assert seen == [want] * len(enc.units)

    def test_eval_summary_equals_the_newest_step_in_both_pad_modes(self):
        # a seeded sweep over pad modes, kernel sizes 1-4 and dilations 1-3,
        # with T both shorter and longer than the newest step's window
        rng = np.random.default_rng(2707)
        seen = set()
        for trial in range(160):
            enc = _random_encoder(rng, np.float64)
            cfg = enc.config
            window = 1 + sum(symmetric_left_padding(k, d) if cfg.pad_mode == "symmetric"
                             else (k - 1) * d for k, d in zip(cfg.kernel_sizes, cfg.dilations))
            t = int(rng.integers(1, window)) if trial % 3 == 0 and window > 1 \
                else window + int(rng.integers(0, 12))
            lead = ((), (1,), (4,))[trial % 3]
            x = Tensor(rng.normal(size=lead + (t, cfg.input_channels)))
            full = enc.forward(x, "eval").data[..., -1, :]
            summ = enc.summary(x, "eval").data
            assert summ.shape == full.shape, (trial, cfg, t)
            bound = 1e-12 * max(float(np.abs(full).max()), 1.0)
            assert float(np.abs(summ - full).max()) <= bound, (trial, cfg, t, lead)
            seen.add((cfg.pad_mode, t < window, window < receptive_field(cfg)))
        assert {("causal", True, False), ("causal", False, False),
                ("symmetric", True, True), ("symmetric", False, True)} <= seen

    def test_gradients_through_sliced_summary(self):
        cfg = AtcnConfig(2, (3, 4), (2, 2), (1, 1))
        rng = np.random.default_rng(10)
        enc = AtcnEncoder(cfg, rng)
        x = Tensor(rng.normal(size=(2, 6, 2)), requires_grad=True)
        check_gradients(lambda: (enc.summary(x, "eval") ** 2.0).mean(),
                        dict(enc.parameters(), x=x))
        assert not x.grad[:, :6 - receptive_field(cfg)].any()


ACTIVATIONS = ("swish", "relu", "tanh", "sigmoid", "identity")


def _random_encoder(rng, dtype):
    """An encoder of random shape, pad mode, activation and batch-norm use,
    with non-trivial weights and running statistics."""
    depth = int(rng.integers(1, 5))
    cfg = AtcnConfig(
        input_channels=int(rng.integers(1, 4)),
        channels=tuple(int(c) for c in rng.integers(1, 40, size=depth)),
        kernel_sizes=tuple(int(k) for k in rng.integers(1, 5, size=depth)),
        dilations=tuple(int(d) for d in rng.integers(1, 4, size=depth)),
        pad_mode=str(rng.choice(["causal", "symmetric"])),
        bottleneck_divisor=int(rng.integers(1, 5)),
        activation=str(rng.choice(ACTIVATIONS)),
        use_batch_norm=bool(rng.random() < 0.7),
        bn_momentum=float(rng.uniform(0.0, 1.0)))
    enc = AtcnEncoder(cfg, rng, dtype=dtype)
    for unit in enc.units:
        if unit.gamma is not None:
            c = unit.kern.out_channels
            unit.gamma.data[:] = rng.uniform(-2.0, 2.0, size=c)
            unit.beta.data[:] = rng.normal(size=c)
            unit.stats.mean[:] = rng.normal(size=c)
            unit.stats.var[:] = rng.uniform(0.2, 3.0, size=c)
    return enc


class TestFusedUnits:
    """Each unit is one conv_unit node; the chain of dilated_conv1d,
    batch_norm and the activation op is the oracle."""

    def test_eval_matches_the_chain_within_16_eps(self):
        rng = np.random.default_rng(1717)
        leads = [(), (1,), (3,), (17,), (300,)]
        seen = set()
        for trial in range(150):
            dtype = (np.float64, np.float32)[trial % 2]
            enc = _random_encoder(rng, dtype)
            cfg = enc.config
            lead = leads[trial % len(leads)]
            t = int(rng.integers(1, 20))
            xd = rng.normal(size=lead + (cfg.input_channels, t)).astype(dtype)
            with no_grad():
                got = np.swapaxes(enc.forward(Tensor(np.swapaxes(xd, -1, -2)), "eval").data,
                                  -1, -2)
                want = chained_encoder_forward(enc, Tensor(xd), "eval").data
            assert got.shape == want.shape and got.dtype == want.dtype
            bound = 16 * np.finfo(dtype).eps * max(float(np.abs(want).max()), 1e-30)
            assert float(np.abs(got - want).max()) <= bound, (trial, cfg, lead, t)
            seen.add((cfg.activation, cfg.use_batch_norm, cfg.pad_mode))
        assert len(seen) == 2 * 2 * len(ACTIVATIONS)

    def test_train_matches_the_chain_bit_for_bit(self):
        rng = np.random.default_rng(1718)
        for trial in range(40):
            enc = _random_encoder(rng, np.float64)
            lead = ((2,), (5,), (17,))[trial % 3]
            xd = rng.normal(size=lead + (enc.config.input_channels, int(rng.integers(2, 12))))
            stats = {k: v.copy() for k, v in enc.buffers().items()}
            upstream, runs = None, []
            # the encoder runs channels-last, the chain channels-first; both
            # are compared channels-first
            for forward, layout in (
                    (enc.forward, lambda a: np.swapaxes(a, -1, -2)),
                    (lambda x, mode: chained_encoder_forward(enc, x, mode), lambda a: a)):
                for k, v in enc.buffers().items():
                    v[...] = stats[k]
                params = enc.parameters()
                for p in params.values():
                    p.zero_grad()
                x = Tensor(layout(xd), requires_grad=True)
                out = forward(x, "train")
                if upstream is None:
                    upstream = rng.normal(size=layout(out.data).shape)
                (out * Tensor(layout(upstream))).sum().backward()
                runs.append((layout(out.data), {k: v.copy() for k, v in enc.buffers().items()},
                             dict({k: p.grad for k, p in params.items()}, x=layout(x.grad))))
            (out_f, buf_f, grad_f), (out_c, buf_c, grad_c) = runs
            assert out_f.tobytes() == out_c.tobytes(), (trial, enc.config)
            for k in buf_c:
                assert buf_f[k].tobytes() == buf_c[k].tobytes(), (trial, k)
            for k in grad_c:
                scale = max(float(np.abs(grad_c[k]).max()), 1e-300)
                assert float(np.abs(grad_f[k] - grad_c[k]).max()) <= 1e-12 * scale, (trial, k)

    def test_graph_free_eval_equals_recorded_eval_bit_for_bit(self):
        # without a graph each unit's activation overwrites the unit's output
        rng = np.random.default_rng(1719)
        for trial in range(30):
            dtype = (np.float64, np.float32)[trial % 2]
            enc = _random_encoder(rng, dtype)
            x = Tensor(rng.normal(size=(4, enc.config.input_channels, 9)).astype(dtype)
                       .transpose(0, 2, 1))
            recorded = enc.forward(x, "eval")
            assert recorded.requires_grad
            with no_grad():
                free = enc.forward(x, "eval")
            assert free.data.tobytes() == recorded.data.tobytes(), (trial, enc.config)

    def test_eval_folds_the_current_weights_and_statistics(self):
        # nothing is kept between calls: a change made in place shows at once
        rng = np.random.default_rng(1720)
        enc = AtcnEncoder(EGO_CONFIG, rng)
        xd = rng.normal(size=(3, 2, 8))
        x = Tensor(xd.transpose(0, 2, 1))
        before = enc.forward(x, "eval").data.transpose(0, 2, 1)
        for unit in enc.units:
            unit.stats.mean += 0.5
            unit.stats.var *= 2.0
            unit.gamma.data *= -1.5
            unit.beta.data += 0.25
            unit.kern.weights.data += 0.1
        got = enc.forward(x, "eval").data.transpose(0, 2, 1)
        want = chained_encoder_forward(enc, Tensor(xd), "eval").data
        assert not np.allclose(got, before)
        assert np.abs(got - want).max() <= 16 * np.finfo(float).eps * np.abs(want).max()

    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_one_node_per_unit(self, mode):
        enc = AtcnEncoder(NBR_CONFIG, np.random.default_rng(11))
        x = Tensor(np.ones((2, 2, 5)), requires_grad=True)
        leaves = 1 + len(enc.parameters())
        # one node per unit: the encoder runs its channels-last input as is
        assert graph_nodes(enc.forward(Tensor(np.ones((2, 5, 2)), requires_grad=True),
                                       mode)) == len(enc.units) + leaves
        assert graph_nodes(chained_encoder_forward(enc, x, mode)) == 3 * len(enc.units) + leaves
