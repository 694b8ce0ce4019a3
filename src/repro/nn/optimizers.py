"""Gradient-descent optimizers operating on named parameter dicts.

Both optimizers run **fully in place**: momentum/second-moment state and
two per-parameter scratch buffers are preallocated on first sight of each
parameter, and every update is an ``out=``/augmented-assignment kernel —
zero allocations per step.  The floating-point operations and their order
are unchanged from the allocating originals (frozen in
``tests/oracles/nn.py``), so training trajectories are bit-identical.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

__all__ = ["Optimizer", "SGD", "Adam"]


class Optimizer(ABC):
    """Updates parameters in place from matching gradient dicts.

    State (momenta, scratch) is keyed by parameter name, so one optimizer
    instance must stay paired with one network for its lifetime.
    """

    def __init__(self, learning_rate: float):
        if learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        self.learning_rate = learning_rate

    @abstractmethod
    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None: ...


class SGD(Optimizer):
    """Plain stochastic gradient descent with optional momentum."""

    def __init__(self, learning_rate: float = 1e-2, momentum: float = 0.0):
        super().__init__(learning_rate)
        if not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must be in [0,1)")
        self.momentum = momentum
        self._velocity: dict[str, np.ndarray] = {}
        self._scratch: dict[str, np.ndarray] = {}

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        for name, p in params.items():
            g = grads[name]
            s = self._scratch.get(name)
            if s is None:
                s = self._scratch[name] = np.empty_like(p)
            np.multiply(g, self.learning_rate, out=s)  # == learning_rate * g
            if self.momentum > 0:
                v = self._velocity.get(name)
                if v is None:
                    v = self._velocity[name] = np.zeros_like(p)
                v *= self.momentum
                v -= s
                p += v
            else:
                p -= s


class Adam(Optimizer):
    """Adam (Kingma & Ba) — the optimizer the paper's Keras models default to.

    The update sequence is the textbook one, decomposed into in-place
    kernels that reproduce the original expression
    ``p -= lr * (m / b1t) / (sqrt(v / b2t) + eps)`` bit-for-bit.
    """

    def __init__(
        self,
        learning_rate: float = 1e-4,
        beta1: float = 0.9,
        beta2: float = 0.999,
        epsilon: float = 1e-8,
    ):
        super().__init__(learning_rate)
        if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
            raise ValueError("betas must be in [0,1)")
        self.beta1, self.beta2, self.epsilon = beta1, beta2, epsilon
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}
        # Two scratch buffers per parameter: _u holds the update numerator,
        # _d the denominator; both live simultaneously in the final divide.
        self._u: dict[str, np.ndarray] = {}
        self._d: dict[str, np.ndarray] = {}
        self._t = 0

    def _state(self, name: str, p: np.ndarray):
        m = self._m.get(name)
        if m is None:
            m = self._m[name] = np.zeros_like(p)
            self._v[name] = np.zeros_like(p)
            self._u[name] = np.empty_like(p)
            self._d[name] = np.empty_like(p)
        return m, self._v[name], self._u[name], self._d[name]

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        self._t += 1
        b1, b2 = self.beta1, self.beta2
        b1t = 1.0 - b1**self._t
        b2t = 1.0 - b2**self._t
        lr, eps = self.learning_rate, self.epsilon
        for name, p in params.items():
            g = grads[name]
            m, v, u, d = self._state(name, p)
            m *= b1
            np.multiply(g, 1.0 - b1, out=u)  # == (1 - beta1) * g
            m += u
            v *= b2
            np.multiply(g, 1.0 - b2, out=u)  # == (1 - beta2) * g
            u *= g
            v += u
            np.divide(v, b2t, out=d)
            np.sqrt(d, out=d)
            d += eps
            np.divide(m, b1t, out=u)
            u *= lr  # == lr * (m / b1t)
            u /= d
            p -= u
