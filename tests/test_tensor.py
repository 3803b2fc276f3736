"""Tensor arithmetic, broadcasting, and backward-pass mechanics."""

import threading

import numpy as np
import pytest

from deeptrack.numcore import GraphError, Tensor, as_tensor
from deeptrack.numcore.tensor import no_grad

from helpers import check_gradients


class TestBasics:
    def test_wraps_float_arrays(self):
        t = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert t.shape == (2, 2)
        assert t.dtype == np.float64
        assert t.size == 4

    def test_integer_input_promotes_to_float(self):
        assert Tensor([1, 2, 3]).dtype == np.float64

    def test_float32_preserved(self):
        t = Tensor(np.ones(3, dtype=np.float32))
        assert t.dtype == np.float32

    def test_shape_times_matches_size(self):
        t = Tensor(np.zeros((3, 4, 5)))
        assert int(np.prod(t.shape)) == t.size


class TestBackwardMechanics:
    def test_chain_of_ops(self):
        x = Tensor(2.0, requires_grad=True)
        y = (x * x + 3.0 * x + 1.0).sum()
        y.backward()
        assert np.allclose(x.grad, 2 * 2.0 + 3.0)

    def test_shared_node_accumulates(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        h = x * 2.0
        loss = (h * h).sum() + h.sum()
        loss.backward()
        # d/dx (4x^2 + 2x) = 8x + 2
        assert np.allclose(x.grad, 8 * x.data + 2)

    def test_backward_needs_scalar(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(GraphError):
            (x * 2.0).backward()

    def test_backward_on_detached_tensor_is_an_error(self):
        x = Tensor([1.0], requires_grad=True)
        d = (x * 2.0).detach()
        with pytest.raises(GraphError):
            d.sum().backward()
        plain = Tensor(3.0)
        with pytest.raises(GraphError):
            plain.backward()

    def test_detached_tensor_never_accumulates(self):
        x = Tensor([1.0, 2.0])
        y = Tensor([3.0, 4.0], requires_grad=True)
        (x * y).sum().backward()
        assert x.grad is None
        assert np.allclose(y.grad, x.data)

    def test_grad_unused_branch_stays_empty(self):
        x = Tensor([1.0], requires_grad=True)
        _unused = x * 5.0
        (x * 2.0).sum().backward()
        assert np.allclose(x.grad, [2.0])

    def test_zero_grad_clears_slot(self):
        x = Tensor([1.0], requires_grad=True)
        (x * 2.0).sum().backward()
        x.zero_grad()
        assert x.grad is None

    def test_matmul_sum_gradient_replicates_operand(self):
        # loss = sum(W @ x) has dL/dW[i, j] = x[j] for every row i
        rng = np.random.default_rng(0)
        w = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        x = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        (w @ x).sum().backward()
        assert np.allclose(w.grad, np.tile(x.data.sum(axis=1), (3, 1)))
        assert np.allclose(x.grad, np.tile(w.data.sum(axis=0)[:, None], (1, 2)))


class TestBroadcasting:
    def test_add_broadcast_gradient_sums(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        b = Tensor(np.ones((1, 3)), requires_grad=True)
        (a + b).sum().backward()
        assert a.grad.shape == (2, 3)
        assert b.grad.shape == (1, 3)
        assert np.allclose(b.grad, 2.0)

    def test_scalar_broadcast(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        (a * 3.0).sum().backward()
        assert np.allclose(a.grad, 3.0)


class TestOpGradients:
    """Finite-difference checks for every tensor-level primitive."""

    def test_elementwise_and_reductions(self):
        rng = np.random.default_rng(1)
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(3, 4)) + 3.0, requires_grad=True)

        cases = {
            "add": lambda: (a + b).sum(),
            "sub": lambda: (a - b).sum(),
            "mul": lambda: (a * b).mean(),
            "div": lambda: (a / b).sum(),
            "neg": lambda: (-a).sum(),
            "pow": lambda: (b ** 1.5).sum(),
            "sqrt": lambda: b.sqrt().sum(),
            "exp": lambda: (a * 0.3).exp().sum(),
            "mean_axis": lambda: a.mean(axis=1).sum(),
            "sum_keepdims": lambda: (a.sum(axis=0, keepdims=True) * 2.0).sum(),
            "reshape": lambda: (a.reshape(4, 3) * 1.5).sum(),
            "transpose": lambda: (a.transpose(1, 0) * b.transpose(1, 0)).sum(),
            "getitem": lambda: (a[1:, ::2] * 2.0).sum(),
        }
        for name, build in cases.items():
            check_gradients(build, {"a": a, "b": b})

    def test_matmul_gradients(self):
        rng = np.random.default_rng(2)
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        check_gradients(lambda: ((a @ b) ** 2.0).sum(), {"a": a, "b": b})


class TestNoGrad:
    def test_block_records_nothing_and_restores(self):
        w = Tensor(np.ones(3), requires_grad=True)
        with no_grad():
            out = (w * 2.0).sum()
        assert not out.requires_grad and out._parents == ()
        with pytest.raises(RuntimeError):
            with no_grad():
                raise RuntimeError("inside")
        (w * 2.0).sum().backward()
        assert np.array_equal(w.grad, np.full(3, 2.0))

    def test_switch_is_per_thread(self):
        w = Tensor(np.ones(3), requires_grad=True)
        seen = []

        def train_step():
            loss = (w * w).sum()
            seen.append(loss.requires_grad)
            loss.backward()

        with no_grad():
            worker = threading.Thread(target=train_step)
            worker.start()
            worker.join(timeout=30)
            assert not (w * w).sum().requires_grad
        assert not worker.is_alive()
        assert seen == [True]
        assert np.array_equal(w.grad, np.full(3, 2.0))
