"""Adam updates, clipping, and failure handling."""

import numpy as np
import pytest

from deeptrack.numcore import (
    AdamState,
    ConfigurationError,
    NumericsError,
    Tensor,
    adam_step,
    clip_gradients,
    global_grad_norm,
)


class TestClipping:
    def test_global_norm(self):
        grads = {"a": np.array([3.0]), "b": np.array([4.0])}
        assert np.isclose(global_grad_norm(grads), 5.0)

    def test_norm_mode_rescales_to_threshold(self):
        # norm 20 with threshold 10 halves every entry
        grads = {"a": np.full(4, 10.0)}
        state = AdamState(clip_norm=10.0)
        pre = clip_gradients(grads, state)
        assert type(pre) is float and np.isclose(pre, 20.0)
        assert np.allclose(grads["a"], 5.0)
        assert np.isclose(global_grad_norm(grads), 10.0)

    def test_norm_mode_leaves_small_gradients_alone(self):
        grads = {"a": np.array([1.0, 2.0])}
        clip_gradients(grads, AdamState(clip_norm=10.0))
        assert np.allclose(grads["a"], [1.0, 2.0])

    def test_positive_clip_norm_descends(self):
        p = {"w": Tensor(np.array([1.0]), requires_grad=True)}
        adam_step(p, {"w": np.array([2.0])}, AdamState(lr=0.1, clip_norm=10.0))
        assert np.isclose(p["w"].data[0], 0.9)

    @pytest.mark.parametrize("clip_norm", [-1.0, 0.0, float("nan")])
    def test_clip_norm_must_be_positive(self, clip_norm):
        # a negative bound would flip the clipped gradient and climb the loss
        with pytest.raises(ConfigurationError, match="clip_norm"):
            AdamState(lr=0.1, clip_norm=clip_norm)


class TestAdam:
    def test_first_step_is_signed_learning_rate(self):
        # with bias correction the first update is lr * g / (|g| + eps)
        p = {"w": Tensor(np.array([1.0, 1.0]), requires_grad=True)}
        g = {"w": np.array([3.0, -0.25])}
        state = AdamState(lr=0.001, clip_norm=1e9)
        adam_step(p, g, state)
        assert np.allclose(p["w"].data, [1.0 - 0.001, 1.0 + 0.001], atol=1e-6)
        assert state.step_count == 1

    def test_matches_reference_formula_over_steps(self):
        rng = np.random.default_rng(0)
        w0 = rng.normal(size=5)
        p = {"w": Tensor(w0.copy(), requires_grad=True)}
        state = AdamState(lr=0.01, clip_norm=1e9)
        m = np.zeros(5)
        v = np.zeros(5)
        ref = w0.copy()
        for step in range(1, 6):
            g = rng.normal(size=5)
            adam_step(p, {"w": g.copy()}, state)
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            mhat = m / (1 - 0.9 ** step)
            vhat = v / (1 - 0.999 ** step)
            ref -= 0.01 * mhat / (np.sqrt(vhat) + 1e-8)
            assert np.allclose(p["w"].data, ref, atol=1e-12)

    def test_nonfinite_gradient_aborts_without_mutation(self):
        p = {"w": Tensor(np.array([1.0]), requires_grad=True),
             "u": Tensor(np.array([2.0]), requires_grad=True)}
        state = AdamState()
        with pytest.raises(NumericsError) as err:
            adam_step(p, {"w": np.array([np.nan]), "u": np.array([1.0])}, state)
        assert "w" in str(err.value)
        assert p["w"].data[0] == 1.0 and p["u"].data[0] == 2.0
        assert state.step_count == 0
        assert not state.first_moment

    def test_missing_gradient_rejected(self):
        p = {"w": Tensor(np.array([1.0]), requires_grad=True)}
        with pytest.raises(ConfigurationError):
            adam_step(p, {}, AdamState())

    def test_descends_a_quadratic(self):
        p = {"w": Tensor(np.array([5.0]), requires_grad=True)}
        state = AdamState(lr=0.1, clip_norm=1e9)
        for _ in range(200):
            adam_step(p, {"w": 2.0 * p["w"].data}, state)
        assert abs(p["w"].data[0]) < 0.5

    def test_returns_the_norm_before_clipping(self):
        p = {"w": Tensor(np.zeros(2), requires_grad=True),
             "u": Tensor(np.zeros(1), requires_grad=True)}
        g = {"w": np.array([3.0, 0.0]), "u": np.array([-4.0])}
        assert adam_step(p, g, AdamState(clip_norm=1.0)) == 5.0

    @pytest.mark.parametrize("field, value", [
        ("lr", "0.1"), ("clip_norm", True), ("step_count", 1.5)])
    def test_mistyped_fields_rejected(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            AdamState(**{field: value})
