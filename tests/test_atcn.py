"""Temporal encoder stacks: padding math, receptive field, block structure."""

import numpy as np
import pytest

from deeptrack.atcn import AtcnConfig, AtcnEncoder, receptive_field
from deeptrack.numcore import (
    ConfigurationError,
    Kernel1D,
    Tensor,
    dilated_conv1d,
    same_length_padding,
)

from helpers import check_gradients

NBR_CONFIG = AtcnConfig(input_channels=2, channels=(16, 32, 64),
                        kernel_sizes=(2, 2, 2), dilations=(1, 1, 1))
EGO_CONFIG = AtcnConfig(input_channels=2, channels=(8, 16, 32),
                        kernel_sizes=(2, 2, 2), dilations=(1, 1, 1))


class TestPaddingMath:
    def test_length_preserving_cases(self):
        assert same_length_padding(16, 16, 1, 2, 1) == 1
        assert same_length_padding(16, 16, 1, 3, 2) == 2
        assert same_length_padding(16, 16, 1, 1, 1) == 0

    def test_negative_interior_clamps_to_zero(self):
        assert same_length_padding(1, 16, 1, 1, 1) == 0

    def test_covers_dilated_span(self):
        # 2 * padding must reach the kernel span for length preservation
        for k in (1, 2, 3, 4):
            for d in (1, 2, 3):
                p = same_length_padding(16, 16, 1, k, d)
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
        x = rng.normal(size=(2, 16))
        base = enc.forward(Tensor(x), "eval").data[:, -1]

        inside = x.copy()
        inside[:, 16 - rf] += 1.0
        out_inside = enc.forward(Tensor(inside), "eval").data[:, -1]
        assert not np.allclose(out_inside, base)

        outside = x.copy()
        outside[:, 16 - rf - 1] += 1.0
        out_outside = enc.forward(Tensor(outside), "eval").data[:, -1]
        assert np.array_equal(out_outside, base)


class TestEncoderShapes:
    def test_table_shapes_single_and_batched(self):
        rng = np.random.default_rng(0)
        enc = AtcnEncoder(NBR_CONFIG, rng)
        out = enc.forward(Tensor(rng.normal(size=(2, 16))))
        assert out.shape == (64, 16)
        out_b = enc.forward(Tensor(rng.normal(size=(5, 2, 16))))
        assert out_b.shape == (5, 64, 16)
        assert enc.summary(Tensor(rng.normal(size=(5, 2, 16)))).shape == (5, 64)

    def test_summary_is_last_step(self):
        rng = np.random.default_rng(1)
        enc = AtcnEncoder(EGO_CONFIG, rng)
        x = Tensor(rng.normal(size=(3, 2, 16)))
        full = enc.forward(x, "eval").data
        summ = enc.summary(x, "eval").data
        assert np.array_equal(summ, full[:, :, -1])

    def test_batched_matches_per_sample_eval(self):
        rng = np.random.default_rng(2)
        enc = AtcnEncoder(EGO_CONFIG, rng)
        x = rng.normal(size=(4, 2, 16))
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

    def test_wrong_channels_rejected(self):
        enc = AtcnEncoder(NBR_CONFIG, np.random.default_rng(0))
        with pytest.raises(ConfigurationError):
            enc.forward(Tensor(np.ones((3, 16))))

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            AtcnConfig(2, (16, 32), (2,), (1, 1))
        with pytest.raises(ConfigurationError):
            AtcnConfig(2, (16,), (2,), (0,))
        with pytest.raises(ConfigurationError):
            AtcnConfig(2, (16,), (2,), (1,), pad_mode="wrap")


class TestCausality:
    def test_future_perturbation_invisible_causal(self):
        rng = np.random.default_rng(4)
        enc = AtcnEncoder(NBR_CONFIG, rng)
        x = rng.normal(size=(2, 16))
        base = enc.forward(Tensor(x), "eval").data
        t = 9
        bumped = x.copy()
        bumped[:, t + 1:] += rng.normal(size=(2, 16 - t - 1))
        after = enc.forward(Tensor(bumped), "eval").data
        assert np.array_equal(base[:, :t + 1], after[:, :t + 1])

    def test_symmetric_mode_sees_the_future(self):
        # even kernels crop back to causal alignment; k=3 straddles the step
        cfg = AtcnConfig(2, (4, 4, 4), (3, 3, 3), (1, 1, 1), pad_mode="symmetric")
        rng = np.random.default_rng(5)
        enc = AtcnEncoder(cfg, rng)
        x = rng.normal(size=(2, 16))
        base = enc.forward(Tensor(x), "eval").data
        bumped = x.copy()
        bumped[:, 10] += 1.0
        after = enc.forward(Tensor(bumped), "eval").data
        assert not np.array_equal(base[:, :10], after[:, :10])


class TestIdentityConstruction:
    """With unit-diagonal weights and frozen statistics a block passes input through."""

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
            unit.kern.bias.data[:] = 0.0
        return enc

    def test_standard_block_identity(self):
        enc = self._identity_encoder(1)
        x = np.random.default_rng(1).normal(size=(2, 12))
        assert np.allclose(enc.forward(Tensor(x), "eval").data, x, atol=1e-12)

    def test_separable_block_identity(self):
        enc = self._identity_encoder(3)
        x = np.random.default_rng(2).normal(size=(2, 12))
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
        x = Tensor(rng.normal(size=(3, 2, 16)))
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
        enc.forward(Tensor(rng.normal(size=(4, 2, 16))), "train")
        changed = [k for k, v in enc.buffers().items()
                   if not np.array_equal(v, before[k])]
        assert changed

    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_gradients_through_small_encoder(self, mode):
        cfg = AtcnConfig(2, (3, 4), (2, 2), (1, 1))
        rng = np.random.default_rng(9)
        enc = AtcnEncoder(cfg, rng)
        x = Tensor(rng.normal(size=(2, 2, 6)), requires_grad=True)
        params = dict(enc.parameters(), x=x)
        stats = {k: v.copy() for k, v in enc.buffers().items()}

        def loss():
            enc.load_buffers({k: v.copy() for k, v in stats.items()})
            return (enc.forward(x, mode) ** 2.0).mean()

        check_gradients(loss, params)
