"""Finite-difference gradient checking.

Used by the test-suite to validate every layer's hand-written backward
pass against a numerical derivative of the loss.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.nn.layers import Layer
from repro.nn.losses import Loss, MeanSquaredError
from repro.nn.workspace import Workspace


def numerical_gradient(f: Callable[[np.ndarray], float], x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar function of an array."""
    grad = np.zeros_like(x, dtype=np.float64)
    flat_x = x.reshape(-1)
    flat_g = grad.reshape(-1)
    for i in range(flat_x.size):
        orig = flat_x[i]
        flat_x[i] = orig + eps
        f_plus = f(x)
        flat_x[i] = orig - eps
        f_minus = f(x)
        flat_x[i] = orig
        flat_g[i] = (f_plus - f_minus) / (2.0 * eps)
    return grad


def relative_error(a: np.ndarray, b: np.ndarray) -> float:
    """Max element-wise relative error, with an absolute floor."""
    num = np.abs(a - b)
    den = np.maximum(np.abs(a) + np.abs(b), 1e-8)
    return float(np.max(num / den))


def check_layer_input_gradient(
    layer: Layer,
    x: np.ndarray,
    loss: Optional[Loss] = None,
    training: bool = True,
    eps: float = 1e-6,
    ws: Optional[Workspace] = None,
) -> float:
    """Compare the layer's dL/dx against a numerical estimate.

    The scalar objective is ``loss(target=0, layer(x))``; returns the max
    relative error between analytic and numerical input gradients.  With
    ``ws``, the analytic pass runs in that (reset) workspace; otherwise
    every call gets a fresh private one.
    """
    loss = loss or MeanSquaredError()
    x = np.asarray(x, dtype=np.float64)

    def objective(inp: np.ndarray) -> float:
        out = layer.forward(inp, training=training)
        return loss.value(np.zeros_like(out), out)

    analytic = np.array(_backward(layer, x, loss, training, ws), copy=True)
    numeric = numerical_gradient(objective, x.copy(), eps=eps)
    return relative_error(analytic, numeric)


def _backward(layer: Layer, x: np.ndarray, loss: Loss, training: bool,
              ws: Optional[Workspace]) -> np.ndarray:
    """One analytic forward/backward pass of ``loss(target=0, layer(x))``."""
    ws = ws or Workspace()
    ws.reset()
    out = layer.forward(x, training=training, ws=ws)
    return layer.backward(loss.gradient(np.zeros_like(out), out), ws=ws)


def check_layer_param_gradients(
    layer: Layer,
    x: np.ndarray,
    loss: Optional[Loss] = None,
    training: bool = True,
    eps: float = 1e-6,
    ws: Optional[Workspace] = None,
) -> dict:
    """Check dL/dparam for every trainable parameter of the layer.

    ``ws`` is used as in :func:`check_layer_input_gradient`.

    Returns:
        Mapping of parameter name to max relative error.
    """
    loss = loss or MeanSquaredError()
    x = np.asarray(x, dtype=np.float64)

    _backward(layer, x, loss, training, ws)
    analytic = {p.name: p.grad.copy() for p in layer.parameters()}

    def objective(_value: np.ndarray) -> float:
        out = layer.forward(x, training=training)
        return loss.value(np.zeros_like(out), out)

    errors = {}
    for param in layer.parameters():
        # Perturb the parameter's own array in place (it may be a view
        # into a network's flat vector), then restore the original bits.
        original = param.value.copy()
        try:
            numeric = numerical_gradient(objective, param.value, eps=eps)
        finally:
            param.value[...] = original
        errors[param.name] = relative_error(analytic[param.name], numeric)
    return errors
