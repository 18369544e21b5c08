"""Minimal ADAM optimizer over a numpy parameter array.

One deliberately small implementation, built only by the package's one
training loop (``combiner._fit``), which fits both the prediction combiner
and the toy text model.  The update is elementwise, so an ``(R, K+1)``
array of R runs that share the step count steps each run exactly as a
lone ``(K+1,)`` vector would.  It runs in place on buffers allocated
once, which keeps a small array's step at the bare cost of its numpy calls.
"""

from __future__ import annotations

import numpy as np

# Standard decay rates and epsilon; only the learning rate is worth touching.
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8
# The same constants as 0-d arrays, which numpy takes faster than floats.
_G1, _G2, _E = (np.array(c) for c in (1.0 - _BETA1, 1.0 - _BETA2, _EPS))


class Adam:
    """ADAM with bias-corrected first/second moments."""

    def __init__(self, shape, lr: float):
        self.lr = float(lr)  # checked by its caller's TrainConfig
        self.t = 0
        shape = tuple(shape)
        # m and v are one stacked array, with a full-shape coefficient array
        # per stage, so a stage of both moments is one call, unbroadcast.
        self._moments = np.zeros((2, *shape))
        self.m, self.v = self._moments
        self._decay = np.stack([np.full(shape, _BETA1), np.full(shape, _BETA2)])
        self._correction = np.empty((2, *shape))
        self._gains = np.empty((2, *shape))
        self._hats = np.empty((2, *shape))
        # views of each moment's half, made once: slicing costs per step
        self._halves = (*self._correction, *self._gains, *self._hats)
        self._lr = np.array(self.lr)

    def step(self, params: np.ndarray, grad: np.ndarray) -> np.ndarray:
        """Update the moments and ``params`` in place; return ``params``.

        Every IEEE operation of ``params - lr * m_hat / (sqrt(v_hat) + eps)``,
        with ``m = beta1*m + (1-beta1)*grad`` and ``v = beta2*v +
        (1-beta2)*grad*grad``, is evaluated in that order into buffers
        allocated once, so the bits are those of the out-of-place formula.
        """
        self.t += 1
        moments = self._moments
        correct_m, correct_v, gain_m, gain_v, m_hat, v_hat = self._halves
        np.multiply(moments, self._decay, out=moments)
        np.multiply(grad, _G1, out=gain_m)
        np.multiply(np.multiply(grad, _G2, out=gain_v), grad, out=gain_v)
        np.add(moments, self._gains, out=moments)
        correct_m.fill(1.0 - _BETA1 ** self.t)
        correct_v.fill(1.0 - _BETA2 ** self.t)
        np.divide(moments, self._correction, out=self._hats)
        np.multiply(m_hat, self._lr, out=m_hat)
        np.add(np.sqrt(v_hat, out=v_hat), _E, out=v_hat)
        return np.subtract(params, np.divide(m_hat, v_hat, out=m_hat),
                           out=params)
