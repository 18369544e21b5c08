"""Minimal ADAM optimizer over a numpy parameter array.

One deliberately small implementation, built only by the package's one
training loop (``combiner._fit``), which fits both the prediction combiner
and the toy text model.  The update is elementwise, so an ``(R, K+1)``
array of R runs that share the step count steps each run exactly as a
lone ``(K+1,)`` vector would.
"""

from __future__ import annotations

import numpy as np

# Standard decay rates and epsilon; only the learning rate is worth touching.
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8


class Adam:
    """ADAM with bias-corrected first/second moments."""

    def __init__(self, shape, lr: float):
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        self.lr = float(lr)
        self.m = np.zeros(shape)
        self.v = np.zeros(shape)
        self.t = 0

    def step(self, params: np.ndarray, grad: np.ndarray) -> np.ndarray:
        """Return the updated parameters (does not mutate the input)."""
        self.t += 1
        self.m = _BETA1 * self.m + (1.0 - _BETA1) * grad
        self.v = _BETA2 * self.v + (1.0 - _BETA2) * grad * grad
        m_hat = self.m / (1.0 - _BETA1 ** self.t)
        v_hat = self.v / (1.0 - _BETA2 ** self.t)
        return params - self.lr * m_hat / (np.sqrt(v_hat) + _EPS)
