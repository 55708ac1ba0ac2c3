"""Layers with explicit forward/backward passes.

Every layer follows the same contract:

* ``forward(x, training, ws)`` consumes a batch ``(n, d_in)`` and returns
  ``(n, d_out)``, caching whatever the backward pass needs.
* ``backward(grad_out, ws)`` consumes ``dL/d(output)``, returns
  ``dL/d(input)`` and *overwrites* each :class:`Parameter`'s ``grad``
  array in place (inside a network it is a view into the flat gradient
  vector); one backward per mini-batch, then an optimizer step.
* ``parameters()`` yields the layer's trainable :class:`Parameter`s.

All arithmetic runs through ``out=`` ufunc and ``np.matmul`` kernels in
the layer's dtype, over scratch buffers from a
:class:`repro.nn.workspace.Workspace` (a fresh private one when ``ws`` is
None), bit-identical to the numpy expressions in
``tests/nn/reference.py``.  Two rules follow from the buffer reuse: a
gradient passed to ``backward`` may be **mutated in place** and/or
returned, so callers treat it as consumed; and arrays returned from
``forward``/``backward`` are only valid until the workspace's next
:meth:`~repro.nn.workspace.Workspace.reset`, so callers that keep
results copy them out (``Sequential.predict`` does).
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

import numpy as np

from repro.nn.initializers import get_initializer
from repro.nn.workspace import Workspace


class Parameter:
    """A trainable tensor together with its current gradient.

    ``dtype`` is honoured at construction, so building a float32 network
    allocates float32 storage directly instead of allocating float64 and
    re-allocating in :meth:`Layer.cast` (the cast producing the same
    bits either way -- ``asarray(value, dtype)`` is the same conversion
    ``astype`` performs).
    """

    __slots__ = ("name", "value", "grad")

    def __init__(self, name: str, value: np.ndarray, dtype=np.float64):
        self.name = name
        self.value = np.asarray(value, dtype=np.dtype(dtype))
        self.grad = np.zeros_like(self.value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Parameter({self.name!r}, shape={self.value.shape})"


class Layer:
    """Base class for all layers."""

    #: set by Sequential.build(); layers that need no build keep it True
    built = True

    def build(self, input_dim: int, rng: np.random.Generator, dtype=np.float64) -> int:
        """Allocate parameters for ``input_dim`` inputs; return output dim."""
        del rng, dtype
        return input_dim

    def forward(
        self, x: np.ndarray, training: bool = False, ws: Optional[Workspace] = None
    ) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray, ws: Optional[Workspace] = None) -> np.ndarray:
        raise NotImplementedError

    def parameters(self) -> Iterable[Parameter]:
        return ()

    def cast(self, dtype: np.dtype) -> None:
        """Convert trainable state to ``dtype`` (float32/float64).

        A no-op (no reallocation) for state already stored as ``dtype``:
        always the case inside a built :class:`~repro.nn.network.Sequential`,
        whose parameters stay views into its flat vectors.
        """
        for p in self.parameters():
            if p.value.dtype != dtype:
                p.value = p.value.astype(dtype)
            if p.grad.dtype != dtype:
                p.grad = p.grad.astype(dtype)

    # State dictionaries are used by repro.nn.serialization.
    def state_dict(self) -> dict:
        return {p.name: p.value.copy() for p in self.parameters()}

    def load_state_dict(self, state: dict) -> None:
        for p in self.parameters():
            if p.name not in state:
                raise KeyError(f"missing parameter {p.name!r} in state dict")
            loaded = np.asarray(state[p.name], dtype=p.value.dtype)
            if loaded.shape != p.value.shape:
                raise ValueError(
                    f"shape mismatch for {p.name!r}: "
                    f"expected {p.value.shape}, got {loaded.shape}"
                )
            p.value[...] = loaded  # in place: keeps any flat-vector view


class Dense(Layer):
    """Fully-connected layer: ``y = x @ W + b``.

    Mirrors ``tensorflow.keras.layers.Dense`` (without fused activation;
    activations are separate layers here, which is mathematically
    identical and keeps backward passes simple).
    """

    built = False

    def __init__(
        self,
        units: int,
        kernel_initializer: str = "glorot_uniform",
        bias_initializer: str = "zeros",
        use_bias: bool = True,
    ):
        if units <= 0:
            raise ValueError(f"units must be positive, got {units}")
        self.units = units
        self._kernel_init = get_initializer(kernel_initializer)
        self._bias_init = get_initializer(bias_initializer)
        self.use_bias = use_bias
        self.weight: Optional[Parameter] = None
        self.bias: Optional[Parameter] = None
        self._x: Optional[np.ndarray] = None

    def build(self, input_dim: int, rng: np.random.Generator, dtype=np.float64) -> int:
        self.weight = Parameter(
            "weight", self._kernel_init((input_dim, self.units), rng), dtype=dtype
        )
        if self.use_bias:
            self.bias = Parameter(
                "bias", self._bias_init((1, self.units), rng).reshape(self.units), dtype=dtype
            )
        self.built = True
        return self.units

    def forward(
        self, x: np.ndarray, training: bool = False, ws: Optional[Workspace] = None
    ) -> np.ndarray:
        del training
        if not self.built:
            raise RuntimeError("Dense layer used before build()")
        self._x = x
        ws = ws or Workspace()
        out = ws.acquire((x.shape[0], self.units), x.dtype)
        np.matmul(x, self.weight.value, out=out)
        if self.use_bias:
            np.add(out, self.bias.value, out=out)
        return out

    def backward(self, grad_out: np.ndarray, ws: Optional[Workspace] = None) -> np.ndarray:
        if self._x is None:
            raise RuntimeError("backward() called before forward()")
        np.matmul(self._x.T, grad_out, out=self.weight.grad)
        if self.use_bias:
            np.add.reduce(grad_out, axis=0, out=self.bias.grad)
        grad_in = (ws or Workspace()).acquire(self._x.shape, grad_out.dtype)
        np.matmul(grad_out, self.weight.value.T, out=grad_in)
        return grad_in

    def parameters(self) -> Iterable[Parameter]:
        if not self.built:
            return ()
        params: List[Parameter] = [self.weight]
        if self.use_bias:
            params.append(self.bias)
        return params


class BatchNormalization(Layer):
    """Batch normalization (Ioffe & Szegedy 2015).

    Normalizes each feature over the batch during training and tracks
    exponential moving averages of mean/variance for inference, exactly
    like ``tensorflow.keras.layers.BatchNormalization`` with default
    momentum.
    """

    built = False

    def __init__(self, momentum: float = 0.99, epsilon: float = 1e-3):
        if not 0.0 < momentum < 1.0:
            raise ValueError(f"momentum must be in (0, 1), got {momentum}")
        self.momentum = momentum
        self.epsilon = epsilon
        self.gamma: Optional[Parameter] = None
        self.beta: Optional[Parameter] = None
        self.running_mean: Optional[np.ndarray] = None
        self.running_var: Optional[np.ndarray] = None
        self._cache: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None

    def build(self, input_dim: int, rng: np.random.Generator, dtype=np.float64) -> int:
        del rng
        dt = np.dtype(dtype)
        self.gamma = Parameter("gamma", np.ones(input_dim), dtype=dt)
        self.beta = Parameter("beta", np.zeros(input_dim), dtype=dt)
        self.running_mean = np.zeros(input_dim, dtype=dt)
        self.running_var = np.ones(input_dim, dtype=dt)
        self.built = True
        return input_dim

    def forward(
        self, x: np.ndarray, training: bool = False, ws: Optional[Workspace] = None
    ) -> np.ndarray:
        if not self.built:
            raise RuntimeError("BatchNormalization layer used before build()")
        ws = ws or Workspace()
        d = x.shape[1]
        x_hat = ws.acquire(x.shape, x.dtype)
        out = ws.acquire(x.shape, x.dtype)
        if training:
            # x.mean(0), x.var(0) as numpy 2.x computes them (sum, then an
            # unsafe true_divide by the intp count); x - mean is shared.
            count = np.intp(x.shape[0])
            mean = ws.acquire((d,), x.dtype)
            var = ws.acquire((d,), x.dtype)
            np.add.reduce(x, axis=0, out=mean)
            np.true_divide(mean, count, out=mean, casting="unsafe")
            np.subtract(x, mean, out=x_hat)
            np.square(x_hat, out=out)
            np.add.reduce(out, axis=0, out=var)
            np.true_divide(var, count, out=var, casting="unsafe")
            # running = momentum * running + (1 - momentum) * batch_stat:
            # two products, one add.
            scratch = ws.acquire((d,), x.dtype)
            np.multiply(self.running_mean, self.momentum, out=self.running_mean)
            np.multiply(mean, 1 - self.momentum, out=scratch)
            np.add(self.running_mean, scratch, out=self.running_mean)
            np.multiply(self.running_var, self.momentum, out=self.running_var)
            np.multiply(var, 1 - self.momentum, out=scratch)
            np.add(self.running_var, scratch, out=self.running_var)
        else:
            var = self.running_var
            np.subtract(x, self.running_mean, out=x_hat)
        inv_std = ws.acquire((d,), x.dtype)
        np.add(var, self.epsilon, out=inv_std)
        np.sqrt(inv_std, out=inv_std)
        np.divide(1.0, inv_std, out=inv_std)
        np.multiply(x_hat, inv_std, out=x_hat)
        self._cache = (x_hat, inv_std, np.asarray(training))
        np.multiply(self.gamma.value, x_hat, out=out)
        np.add(out, self.beta.value, out=out)
        return out

    def backward(self, grad_out: np.ndarray, ws: Optional[Workspace] = None) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward() called before forward()")
        x_hat, inv_std, was_training = self._cache
        n, d = grad_out.shape
        ws = ws or Workspace()
        tmp = ws.acquire(grad_out.shape, grad_out.dtype)
        np.multiply(grad_out, x_hat, out=tmp)
        np.add.reduce(tmp, axis=0, out=self.gamma.grad)
        np.add.reduce(grad_out, axis=0, out=self.beta.grad)
        grad_xhat = ws.acquire(grad_out.shape, grad_out.dtype)
        np.multiply(grad_out, self.gamma.value, out=grad_xhat)
        if not bool(was_training):
            # Inference statistics are constants w.r.t. the input.
            np.multiply(grad_xhat, inv_std, out=grad_xhat)
            return grad_xhat
        # Full batch-norm backward (mean and variance depend on the
        # batch), one out= kernel per node:
        # inv_std/n * (n*gx - gx.sum(0) - x_hat * (gx*x_hat).sum(0))
        s1 = ws.acquire((d,), grad_out.dtype)
        np.add.reduce(grad_xhat, axis=0, out=s1)
        np.multiply(grad_xhat, x_hat, out=tmp)
        s2 = ws.acquire((d,), grad_out.dtype)
        np.add.reduce(tmp, axis=0, out=s2)
        scale = ws.acquire((d,), grad_out.dtype)
        np.divide(inv_std, n, out=scale)
        np.multiply(grad_xhat, n, out=grad_xhat)
        np.subtract(grad_xhat, s1, out=grad_xhat)
        np.multiply(x_hat, s2, out=tmp)
        np.subtract(grad_xhat, tmp, out=grad_xhat)
        np.multiply(scale, grad_xhat, out=grad_xhat)
        return grad_xhat

    def parameters(self) -> Iterable[Parameter]:
        if not self.built:
            return ()
        return (self.gamma, self.beta)

    def cast(self, dtype: np.dtype) -> None:
        super().cast(dtype)
        if self.running_mean.dtype != dtype:
            self.running_mean = self.running_mean.astype(dtype)
        if self.running_var.dtype != dtype:
            self.running_var = self.running_var.astype(dtype)

    def state_dict(self) -> dict:
        state = super().state_dict()
        state["running_mean"] = self.running_mean.copy()
        state["running_var"] = self.running_var.copy()
        return state

    def load_state_dict(self, state: dict) -> None:
        super().load_state_dict(state)
        self.running_mean = np.asarray(state["running_mean"], dtype=self.running_mean.dtype)
        self.running_var = np.asarray(state["running_var"], dtype=self.running_var.dtype)


class ReLU(Layer):
    """Rectified linear unit."""

    def __init__(self) -> None:
        self._mask: Optional[np.ndarray] = None

    def forward(
        self, x: np.ndarray, training: bool = False, ws: Optional[Workspace] = None
    ) -> np.ndarray:
        del training
        ws = ws or Workspace()
        mask = ws.acquire(x.shape, np.bool_)
        np.greater(x, 0, out=mask)
        self._mask = mask
        # where(mask, x, 0.0) without np.where: zero-fill, then copy the
        # kept elements -- identical selection semantics (incl. +0.0 in
        # the rejected slots).
        out = ws.acquire(x.shape, x.dtype)
        out.fill(0.0)
        np.copyto(out, x, where=mask)
        return out

    def backward(self, grad_out: np.ndarray, ws: Optional[Workspace] = None) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward() called before forward()")
        del ws
        np.multiply(grad_out, self._mask, out=grad_out)
        return grad_out


class LeakyReLU(Layer):
    """Leaky ReLU with configurable negative slope."""

    def __init__(self, alpha: float = 0.01):
        self.alpha = alpha
        self._mask: Optional[np.ndarray] = None

    def forward(
        self, x: np.ndarray, training: bool = False, ws: Optional[Workspace] = None
    ) -> np.ndarray:
        del training
        ws = ws or Workspace()
        mask = ws.acquire(x.shape, np.bool_)
        np.greater(x, 0, out=mask)
        self._mask = mask
        out = ws.acquire(x.shape, x.dtype)
        np.multiply(x, self.alpha, out=out)
        np.copyto(out, x, where=mask)
        return out

    def backward(self, grad_out: np.ndarray, ws: Optional[Workspace] = None) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward() called before forward()")
        # The slope is built in the compute dtype, so a float32 network
        # keeps float32 gradients all the way down.
        slope = (ws or Workspace()).acquire(grad_out.shape, grad_out.dtype)
        slope.fill(self.alpha)
        np.copyto(slope, 1.0, where=self._mask)
        np.multiply(grad_out, slope, out=grad_out)
        return grad_out


class Sigmoid(Layer):
    """Logistic sigmoid; used as the reconstruction head for [0, 1] inputs."""

    def __init__(self) -> None:
        self._out: Optional[np.ndarray] = None

    def forward(
        self, x: np.ndarray, training: bool = False, ws: Optional[Workspace] = None
    ) -> np.ndarray:
        del training
        ws = ws or Workspace()
        # Numerically stable piecewise formulation without fancy
        # indexing: exp(-|x|) equals exp(-x) on the positive branch and
        # exp(x) on the negative one.
        t = ws.acquire(x.shape, x.dtype)
        np.abs(x, out=t)
        np.negative(t, out=t)
        np.exp(t, out=t)
        den = ws.acquire(x.shape, x.dtype)
        np.add(t, 1.0, out=den)
        out = ws.acquire(x.shape, x.dtype)
        np.divide(t, den, out=out)  # negative branch: e^x / (1 + e^x)
        mask = ws.acquire(x.shape, np.bool_)
        np.greater_equal(x, 0, out=mask)
        np.divide(1.0, den, out=t)  # positive branch: 1 / (1 + e^-x)
        np.copyto(out, t, where=mask)
        self._out = out
        return out

    def backward(self, grad_out: np.ndarray, ws: Optional[Workspace] = None) -> np.ndarray:
        if self._out is None:
            raise RuntimeError("backward() called before forward()")
        t = (ws or Workspace()).acquire(grad_out.shape, grad_out.dtype)
        np.subtract(1.0, self._out, out=t)
        np.multiply(grad_out, self._out, out=grad_out)
        np.multiply(grad_out, t, out=grad_out)
        return grad_out


class Tanh(Layer):
    """Hyperbolic tangent activation."""

    def __init__(self) -> None:
        self._out: Optional[np.ndarray] = None

    def forward(
        self, x: np.ndarray, training: bool = False, ws: Optional[Workspace] = None
    ) -> np.ndarray:
        del training
        out = (ws or Workspace()).acquire(x.shape, x.dtype)
        np.tanh(x, out=out)
        self._out = out
        return out

    def backward(self, grad_out: np.ndarray, ws: Optional[Workspace] = None) -> np.ndarray:
        if self._out is None:
            raise RuntimeError("backward() called before forward()")
        t = (ws or Workspace()).acquire(grad_out.shape, grad_out.dtype)
        np.multiply(self._out, self._out, out=t)
        np.subtract(1.0, t, out=t)
        np.multiply(grad_out, t, out=grad_out)
        return grad_out


class Linear(Layer):
    """Identity activation (useful as an explicit 'no-op' head)."""

    def forward(
        self, x: np.ndarray, training: bool = False, ws: Optional[Workspace] = None
    ) -> np.ndarray:
        del training, ws
        return x

    def backward(self, grad_out: np.ndarray, ws: Optional[Workspace] = None) -> np.ndarray:
        del ws
        return grad_out


class Dropout(Layer):
    """Inverted dropout; a no-op at inference time."""

    def __init__(self, rate: float, seed: Optional[int] = None):
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate
        self._rng = np.random.default_rng(seed)
        self._mask: Optional[np.ndarray] = None

    def forward(
        self, x: np.ndarray, training: bool = False, ws: Optional[Workspace] = None
    ) -> np.ndarray:
        if not training or self.rate == 0.0:
            self._mask = None
            return x
        keep = 1.0 - self.rate
        ws = ws or Workspace()
        # The draw stays float64 whatever the compute dtype, so the RNG
        # stream (and therefore the mask) does not depend on the dtype.
        draw = ws.acquire(x.shape, np.float64)
        self._rng.random(out=draw)
        keep_mask = ws.acquire(x.shape, np.bool_)
        np.less(draw, keep, out=keep_mask)
        mask64 = ws.acquire(x.shape, np.float64)
        np.divide(keep_mask, keep, out=mask64)
        if x.dtype == np.float64:
            mask = mask64
        else:
            mask = ws.acquire(x.shape, x.dtype)
            np.copyto(mask, mask64)  # the same cast .astype performs
        self._mask = mask
        out = ws.acquire(x.shape, x.dtype)
        np.multiply(x, mask, out=out)
        return out

    def backward(self, grad_out: np.ndarray, ws: Optional[Workspace] = None) -> np.ndarray:
        del ws
        if self._mask is None:
            return grad_out
        np.multiply(grad_out, self._mask, out=grad_out)
        return grad_out


_ACTIVATIONS = {
    "relu": ReLU,
    "leaky_relu": LeakyReLU,
    "sigmoid": Sigmoid,
    "tanh": Tanh,
    "linear": Linear,
}


def get_activation(name: str) -> Layer:
    """Instantiate an activation layer by name."""
    try:
        return _ACTIVATIONS[name]()
    except KeyError:
        known = ", ".join(sorted(_ACTIVATIONS))
        raise ValueError(f"unknown activation {name!r}; expected one of: {known}") from None
