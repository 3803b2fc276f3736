"""Reverse-mode automatic differentiation over numpy arrays.

A Tensor wraps a float ndarray and, when gradients are requested, records
the operation that produced it (parents plus a backward function). An op's
backward function maps the gradient of its output to one gradient per
parent, in parent order, or None for a parent it sends nothing; it touches
no tensor. Calling ``backward()`` on a scalar result walks the recorded graph
once in reverse topological order and is the one place that accumulates
those gradients, into every reachable tensor that requires them.

Threading contract: tensors are immutable during inference and may be read
concurrently; a training step is the single writer of parameter data and
gradient slots. Whether ops record the graph is set per thread (see
:func:`no_grad`), so inference in one thread does not stop a training step
in another from recording.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
import threading
from contextlib import contextmanager
from typing import Callable, Iterator, Optional, Sequence, Tuple, Union

import numpy as np

__all__ = [
    "Tensor",
    "ConfigurationError",
    "GraphError",
    "NumericsError",
    "as_tensor",
    "check_fields",
]

DEFAULT_DTYPE = np.float64


class _GraphSwitch(threading.local):
    recording = True  # the default each thread starts with


_graph = _GraphSwitch()


@contextmanager
def no_grad() -> Iterator[None]:
    """Record no graph nodes in this thread while the block runs.

    Op results inside the block have no parents and do not require
    gradients, so the arrays their backward closures would hold are freed as
    soon as the forward pass stops using them. The previous setting comes
    back on exit, also when the block raises.
    """
    previous = _graph.recording
    _graph.recording = False
    try:
        yield
    finally:
        _graph.recording = previous


class ConfigurationError(ValueError):
    """A shape, dtype or configuration mismatch detectable before compute."""


class GraphError(RuntimeError):
    """Misuse of the differentiation graph, e.g. backward on detached data."""


class NumericsError(ArithmeticError):
    """Non-finite values appeared where finite values are required."""


def check_fields(config) -> None:
    """Check each field of a config dataclass against its annotation, in place.

    ``bool`` takes only True or False. ``int`` takes an integer, never a bool
    or a string; a float counts only when integral, and becomes the int.
    ``float`` takes any finite int or float and stores a float; NaN and the
    infinities are rejected, since no setting means them. ``str`` takes a
    string, and ``Tuple[int, ...]`` or ``Tuple[int, int]`` a list or tuple
    of such ints, of any length or of two. Other annotations pass unchecked.
    Annotations are read as the strings ``from __future__ import
    annotations`` leaves them.
    """
    for f in dataclasses.fields(config):
        name = f"{type(config).__name__}.{f.name}"
        try:
            checked = _checked(f.type, getattr(config, f.name), name)
        except OverflowError:  # an integer too large for a float
            raise ConfigurationError(f"{name} is out of range") from None
        setattr(config, f.name, checked)


def _checked(kind: str, value, name: str):
    if kind in ("Tuple[int, ...]", "Tuple[int, int]"):
        if not isinstance(value, (list, tuple)) or (kind.endswith("int]") and len(value) != 2):
            raise ConfigurationError(f"{name} must be a list of integers "
                                     f"({kind}), got {value!r}")
        return tuple(_checked("int", v, name) for v in value)
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    integral = real and (isinstance(value, numbers.Integral) or float(value).is_integer())
    ok = {"bool": isinstance(value, bool), "str": isinstance(value, str),
          "int": integral, "float": real}.get(kind)
    if ok is False:
        raise ConfigurationError(f"{name} must be of type {kind}, got {value!r}")
    if kind == "float" and not math.isfinite(value):
        raise ConfigurationError(f"{name} must be a finite number, got {value!r}")
    return int(value) if kind == "int" else float(value) if kind == "float" else value


def _coerce(data, dtype=None) -> np.ndarray:
    arr = np.asarray(data)
    if dtype is not None:
        return np.ascontiguousarray(arr, dtype=dtype)
    if arr.dtype == np.float32 or arr.dtype == np.float64:
        return arr
    return arr.astype(DEFAULT_DTYPE)


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing numpy broadcasting."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


# maps an op's output gradient to one gradient per parent, None for none
BackwardFn = Callable[[np.ndarray], Sequence[Optional[np.ndarray]]]


class Tensor:
    """An ndarray with an optional handle into the differentiation graph."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        self.data: np.ndarray = _coerce(data, dtype)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad: bool = bool(requires_grad)
        self._parents: Tuple["Tensor", ...] = ()
        self._backward_fn: Optional[BackwardFn] = None

    # -- construction of graph nodes -------------------------------------

    @staticmethod
    def _node(data: np.ndarray, parents: Sequence["Tensor"],
              backward_fn: BackwardFn) -> "Tensor":
        """Wrap ``data`` as the result of an op over ``parents``.

        ``backward_fn`` receives the gradient of ``data`` and returns one
        gradient per parent, in parent order, each of its parent's shape, or
        None for a parent it sends nothing; :meth:`backward` accumulates
        them. Nodes are only recorded when at least one parent participates
        in the graph, and never inside :func:`no_grad`.
        """
        out = Tensor(data)
        if Tensor._records(parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward_fn = backward_fn
        return out

    @staticmethod
    def _records(parents: Sequence["Tensor"]) -> bool:
        """Whether an op over ``parents`` becomes a graph node in this thread."""
        return _graph.recording and any(p.requires_grad for p in parents)

    def accumulate_grad(self, grad: np.ndarray) -> None:
        """Add ``grad``, of this tensor's shape, into ``self.grad`` in this
        tensor's dtype; nothing when the tensor requires no gradient."""
        if not self.requires_grad:
            return
        grad = np.asarray(grad, dtype=self.data.dtype)
        if self.grad is None:
            # materialize views so the slot owns its memory
            self.grad = grad if grad.base is None else grad.copy()
        else:
            self.grad = self.grad + grad

    # -- basic properties --------------------------------------------------

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise GraphError(f"item() needs a single value, got shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        flag = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}{flag})"

    # -- backward pass -----------------------------------------------------

    def backward(self) -> None:
        """Reverse-accumulate d(self)/d(leaf) for every reachable leaf.

        ``self`` must hold a single value and must be attached to the graph.
        """
        if self.data.size != 1:
            raise GraphError(
                f"backward() starts from a scalar, got shape {self.shape}")
        if not self.requires_grad:
            raise GraphError("backward() on a tensor detached from the graph")

        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in seen:
                    stack.append((p, False))

        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._backward_fn is not None:
                for parent, grad in zip(node._parents, node._backward_fn(node.grad), strict=True):
                    if grad is not None:
                        parent.accumulate_grad(grad)

    # -- arithmetic --------------------------------------------------------

    def _binary(self, other, fwd, bwd_self, bwd_other) -> "Tensor":
        other = as_tensor(other, dtype=self.data.dtype)
        out_data = fwd(self.data, other.data)

        def backward(g):
            # the one op whose operands broadcast: each gradient, cast to its
            # operand's dtype, is summed back down to the operand's shape
            return [_unbroadcast(np.asarray(bwd(g, self.data, other.data), dtype=t.data.dtype),
                                 t.data.shape)
                    for t, bwd in ((self, bwd_self), (other, bwd_other))]

        return Tensor._node(out_data, (self, other), backward)

    def __add__(self, other):
        return self._binary(other, lambda a, b: a + b,
                            lambda g, a, b: g, lambda g, a, b: g)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binary(other, lambda a, b: a - b,
                            lambda g, a, b: g, lambda g, a, b: -g)

    def __mul__(self, other):
        return self._binary(other, lambda a, b: a * b,
                            lambda g, a, b: g * b, lambda g, a, b: g * a)

    __rmul__ = __mul__

    def __pow__(self, exponent):
        if not isinstance(exponent, (int, float)):
            raise ConfigurationError("only scalar exponents are supported")
        e = float(exponent)
        return Tensor._node(self.data ** e, (self,), lambda g: (g * e * self.data ** (e - 1.0),))

    # -- reductions and shape ops -------------------------------------------

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(g):
            g = np.asarray(g)
            if axis is not None and not keepdims:
                axes = axis if isinstance(axis, tuple) else (axis,)
                g = np.expand_dims(g, axes)
            return (np.broadcast_to(g, self.data.shape),)

        return Tensor._node(out_data, (self,), backward)

    def mean(self, axis=None) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.data.shape[a] for a in axes]))
        return self.sum(axis=axis) * (1.0 / count)

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return Tensor._node(self.data.reshape(shape), (self,),
                            lambda g: (g.reshape(self.data.shape),))

    def __getitem__(self, key) -> "Tensor":
        """Basic indexing only (ints, slices, ``Ellipsis``, ``None``): it names
        each element at most once, so the gradient is one slice assignment."""
        parts = key if isinstance(key, tuple) else (key,)
        if not all(isinstance(p, (int, np.integer, slice, type(None), type(...)))
                   and not isinstance(p, bool) for p in parts):
            raise ConfigurationError(
                f"Tensor indexing takes ints, slices, Ellipsis and None, got {key!r}")
        out_data = self.data[key]

        def backward(g):
            gx = np.zeros_like(self.data)
            gx[key] = g
            return (gx,)

        return Tensor._node(out_data, (self,), backward)


def as_tensor(value: Union[Tensor, np.ndarray, float, int, list], dtype=None) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(value, dtype=dtype)
