"""Layers with explicit forward/backward passes.

A minimal, dependency-free substitute for the Keras layers the paper's
models use.  Every layer caches what its backward pass needs during
``forward`` and accumulates parameter gradients in ``grads`` during
``backward``; optimizers consume ``params``/``grads`` pairs by name.

All tensors are ``(batch, features)`` float64 — batch sizes and widths in
this domain are small enough that float64's numerical headroom is worth
more than float32's speed.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable

import numpy as np

from repro.nn.initializers import glorot_uniform
from repro.util.rng import ensure_rng

__all__ = ["Layer", "Dense", "Activation", "ACTIVATIONS"]


class Layer(ABC):
    """Base layer: forward caches, backward returns input gradient."""

    def __init__(self) -> None:
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}

    @abstractmethod
    def forward(self, x: np.ndarray) -> np.ndarray: ...

    @abstractmethod
    def backward(self, dout: np.ndarray) -> np.ndarray: ...

    def zero_grads(self) -> None:
        for k in self.grads:
            self.grads[k][...] = 0.0

    @property
    def n_parameters(self) -> int:
        return sum(p.size for p in self.params.values())


class Dense(Layer):
    """Fully connected layer ``y = x @ W + b``."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        *,
        seed: int | np.random.Generator | None = None,
        initializer: Callable = glorot_uniform,
    ):
        super().__init__()
        if in_features < 1 or out_features < 1:
            raise ValueError("layer widths must be positive")
        rng = ensure_rng(seed)
        self.in_features = in_features
        self.out_features = out_features
        self.params = {
            "W": initializer(in_features, out_features, rng),
            "b": np.zeros(out_features),
        }
        self.grads = {k: np.zeros_like(v) for k, v in self.params.items()}
        self._x: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.shape[1] != self.in_features:
            raise ValueError(f"expected {self.in_features} inputs, got {x.shape[1]}")
        self._x = x
        return x @ self.params["W"] + self.params["b"]

    def backward(self, dout: np.ndarray) -> np.ndarray:
        if self._x is None:
            raise RuntimeError("backward called before forward")
        self.grads["W"] += self._x.T @ dout
        self.grads["b"] += dout.sum(axis=0)
        return dout @ self.params["W"].T


def _relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def _relu_grad(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return (x > 0.0).astype(np.float64)


def _tanh(x: np.ndarray) -> np.ndarray:
    return np.tanh(x)


def _tanh_grad(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return 1.0 - y**2


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # Numerically stable split form, 1/(1+e^-x) for x >= 0 and e^x/(1+e^x)
    # below, with both halves from e = exp(-|x|) <= 1: elementwise the same
    # operations as masking each half out, without the masked copies.
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _sigmoid_grad(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return y * (1.0 - y)


def _linear(x: np.ndarray) -> np.ndarray:
    return x


def _linear_grad(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.ones_like(x)


def _softplus(x: np.ndarray) -> np.ndarray:
    return np.logaddexp(0.0, x)


def _softplus_grad(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return _sigmoid(x)


ACTIVATIONS: dict[str, tuple[Callable, Callable]] = {
    "relu": (_relu, _relu_grad),
    "tanh": (_tanh, _tanh_grad),
    "sigmoid": (_sigmoid, _sigmoid_grad),
    "linear": (_linear, _linear_grad),
    "softplus": (_softplus, _softplus_grad),
}


class Activation(Layer):
    """Elementwise activation layer (relu/tanh/sigmoid/linear/softplus)."""

    def __init__(self, name: str):
        super().__init__()
        try:
            self._fn, self._grad_fn = ACTIVATIONS[name]
        except KeyError:
            raise KeyError(f"unknown activation {name!r}; known: {sorted(ACTIVATIONS)}") from None
        self.name = name
        self._x: np.ndarray | None = None
        self._y: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x = x
        self._y = self._fn(x)
        return self._y

    def backward(self, dout: np.ndarray) -> np.ndarray:
        if self._x is None:
            raise RuntimeError("backward called before forward")
        return dout * self._grad_fn(self._x, self._y)
