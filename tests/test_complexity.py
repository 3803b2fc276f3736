"""Parameter and MAC counts: hand-worked values read off report layers, and a
seeded sweep of the report against the per-layer formulas in ``helpers``."""

import dataclasses

import numpy as np
import pytest

from deeptrack.atcn import AtcnConfig
from deeptrack.complexity import (
    REFERENCE_MACS,
    REFERENCE_PARAMS,
    complexity_report,
)
from deeptrack.configio import default_model_config
from deeptrack.model import DeepTrack
from deeptrack.numcore import ConfigurationError

from helpers import formula_costs, random_model_config, symmetric_model_config


def layer(report, name):
    return next(l for l in report.layers if l.name == name)


def without_batch_norm(cfg):
    return dataclasses.replace(
        cfg,
        neighbor_atcn=dataclasses.replace(cfg.neighbor_atcn, use_batch_norm=False),
        ego_atcn=dataclasses.replace(cfg.ego_atcn, use_batch_norm=False))


class TestUnitFormulas:
    """Each layer kind's hand-worked count, read off one report layer."""

    def test_dense(self):
        # ego_remap 32 -> 80: weights 32*80 + 80 bias; one MAC per weight
        remap = layer(complexity_report(default_model_config()), "ego_remap")
        assert (remap.params, remap.macs) == (2_640, 2_560)

    def test_standard_conv1d(self):
        # neighbor block 0: 2 -> 16, k=2 over 16 steps
        report = complexity_report(without_batch_norm(default_model_config()))
        conv = layer(report, "neighbor_encoder.block0.conv")
        assert (conv.params, conv.macs) == (16 * 2 * 2 + 16, 16 * 2 * 2 * 16)

    def test_depthwise_conv1d(self):
        # 64 channels, k=2, groups=64: 2 weights + 1 bias per channel
        cfg = dataclasses.replace(
            default_model_config(),
            neighbor_atcn=AtcnConfig(2, (64, 64), (2, 2), (1, 1), bottleneck_divisor=1,
                                     use_batch_norm=False))
        dw = layer(complexity_report(cfg), "neighbor_encoder.block1.dw")
        assert (dw.params, dw.macs) == (192, 2_048)

    def test_pointwise_is_dense_per_step(self):
        # neighbor block 2 squeezes 32 -> 16: a dense 32 -> 16 (528, 512) at 16 steps
        report = complexity_report(without_batch_norm(default_model_config()))
        pw = layer(report, "neighbor_encoder.block2.pw_in")
        assert (pw.params, pw.macs) == (528, 16 * 512)

    def test_conv2d(self):
        # 64 filters of 64x3x3 over an 11x1 output map
        conv = layer(complexity_report(default_model_config()), "social.conv1")
        assert (conv.params, conv.macs) == (36_928, 405_504)

    def test_lstm(self):
        # in 2, hidden 104, 25 unrolled steps; w_ih counts though no input is fed
        decoder = layer(complexity_report(default_model_config()), "decoder")
        assert (decoder.params, decoder.macs) == (44_512, 1_102_400)

    def test_batch_norm(self):
        # 16 channels over 16 steps: scale and shift, 2 MACs per channel per
        # step; the shift replaces the convolution's 16 bias values
        with_bn = layer(complexity_report(default_model_config()),
                        "neighbor_encoder.block0.conv")
        no_bn = layer(complexity_report(without_batch_norm(default_model_config())),
                      "neighbor_encoder.block0.conv")
        assert (with_bn.params - no_bn.params, with_bn.macs - no_bn.macs) == (16, 512)


class TestDefaultReport:
    def test_frozen_totals(self):
        report = complexity_report(default_model_config())
        assert report.total_params == 173_290
        assert report.total_macs == 1_674_512

    def test_within_tolerance_of_reference(self):
        report = complexity_report(default_model_config())
        assert abs(report.total_params - REFERENCE_PARAMS) / REFERENCE_PARAMS < 0.10
        assert abs(report.total_macs - REFERENCE_MACS) / REFERENCE_MACS < 0.10
        assert report.deviation_params == pytest.approx(0.00924, abs=1e-4)
        assert report.deviation_macs == pytest.approx(0.00425, abs=1e-4)

    def test_totals_are_layer_sums(self):
        report = complexity_report(default_model_config())
        assert report.total_params == sum(l.params for l in report.layers)
        assert report.total_macs == sum(l.macs for l in report.layers)

    def test_count_matches_actual_tensors(self):
        cfg = default_model_config()
        model = DeepTrack(cfg, seed=0)
        actual = sum(t.data.size for t in model.parameters().values())
        assert complexity_report(cfg).total_params == actual

    def test_bn_state_excluded_from_headline(self):
        cfg = default_model_config()
        report = complexity_report(cfg)
        model = DeepTrack(cfg, seed=0)
        assert report.bn_state == sum(b.size for b in model.buffers().values())
        assert report.bn_state == 480
        assert all("bn.mean" not in l.name and "bn.var" not in l.name
                   for l in report.layers)

    def test_neighbor_count_scales_macs_not_params(self):
        cfg = default_model_config()
        one = complexity_report(cfg, neighbors=1)
        five = complexity_report(cfg, neighbors=5)
        assert five.total_params == one.total_params
        assert five.total_macs > one.total_macs

    @pytest.mark.parametrize("shape", [dict(history_steps=9.5), dict(neighbor_count=True),
                                       dict(neighbor_count=-1), dict(history_steps=0),
                                       dict(neighbor_count=2.0), dict(neighbor_count="3")])
    def test_bad_sample_shape_rejected(self, shape):
        # T is the config's history_steps, checked by the config; the
        # neighbor count is complexity_report's own argument
        with pytest.raises(ConfigurationError):
            cfg = dataclasses.replace(default_model_config(),
                                      history_steps=shape.get("history_steps", 16))
            complexity_report(cfg, shape.get("neighbor_count", 1))

    def test_report_renders(self):
        text = complexity_report(default_model_config()).to_text()
        assert "173,290" in text or "173290" in text
        assert "total" in text.lower()


class TestSeparableSavings:
    def test_every_bottleneck_block_halves_the_macs(self):
        # conv MACs without batch norm, T=16, one neighbor: a hidden block's
        # three factored layers against one standard conv of the same widths
        cfg = without_batch_norm(default_model_config())
        report = complexity_report(cfg)
        for prefix, field in (("neighbor_encoder", "neighbor_atcn"),
                              ("ego_encoder", "ego_atcn")):
            enc = getattr(cfg, field)
            for j in range(1, enc.depth):
                c_in, c_out = enc.in_channels_of(j), enc.channels[j]
                single = AtcnConfig(c_in, (c_out,), (enc.kernel_sizes[j],), (1,),
                                    use_batch_norm=False)
                standard = complexity_report(dataclasses.replace(cfg, **{field: single}))
                standard_macs = layer(standard, f"{prefix}.block0.conv").macs
                factored = sum(layer(report, f"{prefix}.block{j}.{part}").macs
                               for part in ("pw_in", "dw", "pw_out"))
                assert factored * 2 <= standard_macs, \
                    f"{prefix} block {j} ({c_in}->{c_out}): {factored} vs {standard_macs}"


class TestAgainstFormulas:
    def test_seeded_sweep_matches_every_layer(self):
        rng = np.random.default_rng(2017)
        configs = [default_model_config(), symmetric_model_config()]
        configs += [random_model_config(rng) for _ in range(40)]
        for cfg in configs:
            for t in (1, 9, 16, 23):
                for neighbors in range(6):
                    report = complexity_report(
                        dataclasses.replace(cfg, history_steps=t), neighbors)
                    expected, bn_state = formula_costs(cfg, t, neighbors)
                    got = [(l.name, l.params, l.macs) for l in report.layers]
                    assert got == expected, (cfg, t, neighbors)
                    assert report.bn_state == bn_state

    @pytest.mark.parametrize("batch_norm", [True, False])
    def test_layer_names_are_the_parameter_prefixes_in_order(self, batch_norm):
        cfg = default_model_config()
        if not batch_norm:
            cfg = without_batch_norm(cfg)
        model = DeepTrack(cfg)
        prefixes = list(dict.fromkeys(
            name.split(".bn.")[0] if ".bn." in name else name.rsplit(".", 1)[0]
            for name in model.parameters()))
        assert [l.name for l in complexity_report(cfg).layers] == list(model.layers) \
            == prefixes
