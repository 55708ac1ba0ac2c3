"""Plain-numpy reference implementation of the repro.nn arithmetic.

Every expression here is the straightforward, allocating numpy form of
a layer, loss or optimizer step.  The ``out=`` kernels in ``repro.nn``
must reproduce these values bit for bit (same ops, same order, same
dtypes); ``tests/nn/test_kernel_equivalence.py`` pins that and
``benchmarks/test_nn_kernels.py`` times the kernels against it.

The oracle drives the *layer objects* of a :class:`repro.nn.Sequential`
(their parameters, BatchNorm running statistics and Dropout RNG) and
the network's own shuffling RNG, so a reference-trained network and a
kernel-trained twin built from the same seed must end up identical.
"""

import numpy as np

from repro.nn.layers import (
    BatchNormalization,
    Dense,
    Dropout,
    LeakyReLU,
    Linear,
    ReLU,
    Sigmoid,
    Tanh,
)
from repro.nn.network import TrainingHistory
from repro.nn.optimizers import SGD, Adadelta, Adam, Momentum, RMSProp, get_optimizer

# ---------------------------------------------------------------------------
# Layers: forward returns (output, cache); backward sets parameter grads
# and returns dL/d(input).
# ---------------------------------------------------------------------------


def forward(layer, x, training):
    if isinstance(layer, Dense):
        out = x @ layer.weight.value
        if layer.use_bias:
            out = out + layer.bias.value
        return out, x
    if isinstance(layer, BatchNormalization):
        if training:
            mean = x.mean(axis=0)
            var = x.var(axis=0)
            m = layer.momentum
            layer.running_mean = m * layer.running_mean + (1 - m) * mean
            layer.running_var = m * layer.running_var + (1 - m) * var
        else:
            mean, var = layer.running_mean, layer.running_var
        inv_std = 1.0 / np.sqrt(var + layer.epsilon)
        x_hat = (x - mean) * inv_std
        return layer.gamma.value * x_hat + layer.beta.value, (x_hat, inv_std, training)
    if isinstance(layer, ReLU):
        mask = x > 0
        return np.where(mask, x, 0.0), mask
    if isinstance(layer, LeakyReLU):
        mask = x > 0
        return np.where(mask, x, layer.alpha * x), mask
    if isinstance(layer, Sigmoid):
        out = np.empty_like(x)
        pos = x >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        out[~pos] = ex / (1.0 + ex)
        return out, out
    if isinstance(layer, Tanh):
        out = np.tanh(x)
        return out, out
    if isinstance(layer, Linear):
        return x, None
    if isinstance(layer, Dropout):
        if not training or layer.rate == 0.0:
            return x, None
        keep = 1.0 - layer.rate
        mask = ((layer._rng.random(x.shape) < keep) / keep).astype(x.dtype)
        return x * mask, mask
    raise TypeError(f"no reference for {type(layer).__name__}")


def backward(layer, cache, grad):
    if isinstance(layer, Dense):
        layer.weight.grad = cache.T @ grad
        if layer.use_bias:
            layer.bias.grad = grad.sum(axis=0)
        return grad @ layer.weight.value.T
    if isinstance(layer, BatchNormalization):
        x_hat, inv_std, training = cache
        n = grad.shape[0]
        layer.gamma.grad = (grad * x_hat).sum(axis=0)
        layer.beta.grad = grad.sum(axis=0)
        gx = grad * layer.gamma.value
        if not training:
            return gx * inv_std
        return inv_std / n * (n * gx - gx.sum(axis=0) - x_hat * (gx * x_hat).sum(axis=0))
    if isinstance(layer, ReLU):
        return grad * cache
    if isinstance(layer, LeakyReLU):
        return grad * np.where(cache, 1.0, layer.alpha).astype(grad.dtype)
    if isinstance(layer, Sigmoid):
        return grad * cache * (1.0 - cache)
    if isinstance(layer, Tanh):
        return grad * (1.0 - cache**2)
    if isinstance(layer, (Linear, Dropout)):
        return grad if cache is None else grad * cache
    raise TypeError(f"no reference for {type(layer).__name__}")


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------


def mse_value(y, p):
    return float(np.mean((y - p) ** 2))


def mse_gradient(y, p):
    return 2.0 * (p - y) / y.size


def mae_value(y, p):
    return float(np.mean(np.abs(y - p)))


def mae_gradient(y, p):
    return np.sign(p - y) / y.size


LOSSES = {"mse": (mse_value, mse_gradient), "mae": (mae_value, mae_gradient)}


# ---------------------------------------------------------------------------
# Optimizers: one update of ``param`` given its (mutable) state dict.
# ---------------------------------------------------------------------------


def update(opt, param, state):
    g, lr = param.grad, opt.learning_rate
    if isinstance(opt, SGD):
        param.value -= lr * g
    elif isinstance(opt, Momentum):
        velocity = state.setdefault("velocity", np.zeros_like(param.value))
        velocity *= opt.momentum
        velocity -= lr * g
        param.value += velocity
    elif isinstance(opt, RMSProp):
        acc = state.setdefault("acc", np.zeros_like(param.value))
        acc *= opt.rho
        acc += (1.0 - opt.rho) * g**2
        param.value -= lr * g / (np.sqrt(acc) + opt.epsilon)
    elif isinstance(opt, Adadelta):
        acc_grad = state.setdefault("acc_grad", np.zeros_like(param.value))
        acc_delta = state.setdefault("acc_delta", np.zeros_like(param.value))
        acc_grad *= opt.rho
        acc_grad += (1.0 - opt.rho) * g**2
        step = np.sqrt(acc_delta + opt.epsilon) / np.sqrt(acc_grad + opt.epsilon) * g
        acc_delta *= opt.rho
        acc_delta += (1.0 - opt.rho) * step**2
        param.value -= lr * step
    elif isinstance(opt, Adam):
        m = state.setdefault("m", np.zeros_like(param.value))
        v = state.setdefault("v", np.zeros_like(param.value))
        t = state["t"] = state.get("t", 0) + 1
        m *= opt.beta1
        m += (1.0 - opt.beta1) * g
        v *= opt.beta2
        v += (1.0 - opt.beta2) * g**2
        m_hat = m / (1.0 - opt.beta1**t)
        v_hat = v / (1.0 - opt.beta2**t)
        param.value -= lr * m_hat / (np.sqrt(v_hat) + opt.epsilon)
    else:
        raise TypeError(f"no reference for {type(opt).__name__}")


# ---------------------------------------------------------------------------
# Network: the Sequential.fit / predict control flow over the above.
# ---------------------------------------------------------------------------


def net_forward(net, x, training):
    caches = []
    for layer in net.layers:
        x, cache = forward(layer, x, training)
        caches.append(cache)
    return x, caches


def net_backward(net, caches, grad):
    for layer, cache in zip(reversed(net.layers), reversed(caches)):
        grad = backward(layer, cache, grad)
    return grad


def predict(net, x, batch_size=1024):
    x = np.asarray(x, dtype=net.dtype)
    chunks = [
        net_forward(net, x[i : i + batch_size], training=False)[0]
        for i in range(0, x.shape[0], batch_size)
    ]
    return np.concatenate(chunks, axis=0)


def fit(
    net,
    x,
    y=None,
    epochs=10,
    batch_size=32,
    loss="mse",
    optimizer="adadelta",
    validation_split=0.0,
    shuffle=True,
    early_stopping_patience=None,
    min_delta=0.0,
):
    """Train ``net`` exactly as ``Sequential.fit`` does, on the oracle."""
    x = np.asarray(x, dtype=net.dtype)
    y = x if y is None else np.asarray(y, dtype=net.dtype)
    if not net.built:
        net.build(x.shape[1])
    loss_value, loss_gradient = LOSSES[loss]
    opt = get_optimizer(optimizer) if isinstance(optimizer, str) else optimizer
    states = {}

    n_total = x.shape[0]
    n_val = int(round(n_total * validation_split))
    if n_val > 0:
        perm = net._rng.permutation(n_total)
        train_idx = perm[:-n_val]
        x_val, y_val = x[perm[-n_val:]], y[perm[-n_val:]]
    else:
        train_idx = np.arange(n_total)
    history = TrainingHistory()
    params = net.parameters()
    best, stale = np.inf, 0
    n = train_idx.shape[0]
    for _ in range(epochs):
        order = net._rng.permutation(n) if shuffle else np.arange(n)
        epoch_loss = 0.0
        for start in range(0, n, batch_size):
            idx = train_idx[order[start : start + batch_size]]
            pred, caches = net_forward(net, x[idx], training=True)
            epoch_loss += loss_value(y[idx], pred) * len(idx)
            net_backward(net, caches, loss_gradient(y[idx], pred))
            for p in params:
                update(opt, p, states.setdefault(id(p), {}))
        epoch_loss /= n
        history.loss.append(epoch_loss)
        history.grad_norm.append(
            float(np.sqrt(sum(float(np.sum(np.square(p.grad))) for p in params)))
        )
        monitor = epoch_loss
        if n_val > 0:
            monitor = loss_value(y_val, predict(net, x_val))
            history.val_loss.append(monitor)
        if early_stopping_patience is not None:
            if monitor < best - min_delta:
                best, stale = monitor, 0
            else:
                stale += 1
                if stale >= early_stopping_patience:
                    break
    return history
