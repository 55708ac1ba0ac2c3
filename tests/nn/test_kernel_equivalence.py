"""Bit-identity of the repro.nn kernels vs the plain-numpy oracle.

The ``out=`` kernels over the workspace arena (repro.nn.workspace)
change *allocation only*: training and scoring produce bit-for-bit the
same weights, histories and predictions as the allocating expressions
in ``tests/nn/reference.py``.  These tests pin that guarantee --
property-based over random architectures, batch sizes and
early-stopping cuts -- plus a gradcheck matrix over every layer x
optimizer combination in both dtypes, a float32 dtype invariant, and a
detection-quality tolerance test for float32 vs float64.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.data import ArrayRowSource
from repro.nn.gradcheck import (
    check_layer_input_gradient,
    check_layer_param_gradients,
)
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
from repro.nn.network import Sequential
from repro.nn.optimizers import get_optimizer
from repro.nn.workspace import Workspace

from . import reference

RNG = np.random.default_rng(11)

OPTIMIZERS = ("sgd", "momentum", "rmsprop", "adadelta", "adam")
ACTIVATIONS = {
    "relu": ReLU,
    "leaky_relu": LeakyReLU,
    "sigmoid": Sigmoid,
    "tanh": Tanh,
    "linear": Linear,
}


def _make_net(units, activation, batch_norm, dropout, seed, dtype, out_dim):
    layers = []
    for i, u in enumerate(units):
        layers.append(Dense(u))
        if batch_norm:
            layers.append(BatchNormalization())
        layers.append(ACTIVATIONS[activation]())
        if dropout and i == 0:
            layers.append(Dropout(0.25, seed=13))
    layers.append(Dense(out_dim))
    layers.append(ACTIVATIONS[activation]())
    return Sequential(layers, seed=seed, dtype=dtype)


def _histories_equal(a, b):
    return a.loss == b.loss and a.val_loss == b.val_loss and a.grad_norm == b.grad_norm


def _params_identical(a, b):
    pa, pb = a.parameters(), b.parameters()
    assert len(pa) == len(pb)
    return all(np.array_equal(p.value, q.value) for p, q in zip(pa, pb))


class TestTrainingBitIdentity:
    """Float64 kernel training == oracle training, bit for bit."""

    @given(
        n_samples=st.integers(min_value=12, max_value=60),
        width=st.integers(min_value=3, max_value=10),
        units=st.lists(st.integers(min_value=2, max_value=12), min_size=1, max_size=3),
        activation=st.sampled_from(sorted(ACTIVATIONS)),
        batch_norm=st.booleans(),
        dropout=st.booleans(),
        batch_size=st.integers(min_value=1, max_value=24),
        validation_split=st.sampled_from([0.0, 0.2]),
        patience=st.sampled_from([None, 1, 2]),
        optimizer=st.sampled_from(OPTIMIZERS),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=30, deadline=None)
    def test_random_architectures(
        self,
        n_samples,
        width,
        units,
        activation,
        batch_norm,
        dropout,
        batch_size,
        validation_split,
        patience,
        optimizer,
        seed,
    ):
        data = np.random.default_rng(seed).random((n_samples, width))
        kwargs = dict(
            epochs=3,
            batch_size=batch_size,
            optimizer=optimizer,
            validation_split=validation_split,
            early_stopping_patience=patience,
        )
        oracle = _make_net(units, activation, batch_norm, dropout, seed, "float64", width)
        h_oracle = reference.fit(oracle, data, **kwargs)
        kernel = _make_net(units, activation, batch_norm, dropout, seed, "float64", width)
        h_kernel = kernel.fit(data, **kwargs)

        assert _histories_equal(h_oracle, h_kernel)
        assert _params_identical(oracle, kernel)
        probe = np.random.default_rng(seed + 1).random((7, width))
        assert np.array_equal(reference.predict(oracle, probe), kernel.predict(probe))

    def test_row_source_training_matches_dense(self):
        data = RNG.random((40, 6))
        a = _make_net([5], "relu", True, False, 3, "float64", 6)
        a.fit(data, epochs=2, batch_size=8)
        b = _make_net([5], "relu", True, False, 3, "float64", 6)
        b.fit(ArrayRowSource(data), epochs=2, batch_size=8)
        assert _params_identical(a, b)

    def test_distinct_xy_targets(self):
        x = RNG.random((30, 5))
        y = RNG.random((30, 4))
        a = _make_net([4], "tanh", False, False, 9, "float64", 4)
        ha = reference.fit(a, x, y, epochs=3, batch_size=7)
        b = _make_net([4], "tanh", False, False, 9, "float64", 4)
        hb = b.fit(x, y, epochs=3, batch_size=7)
        assert _histories_equal(ha, hb)
        assert _params_identical(a, b)

    def test_predict_chunked_output_is_identical(self):
        net = _make_net([6, 4], "sigmoid", True, False, 1, "float64", 8)
        data = RNG.random((50, 8))
        net.fit(data, epochs=1, batch_size=16)
        probe = RNG.random((33, 8))
        assert np.array_equal(
            net.predict(probe, batch_size=10),
            reference.predict(net, probe, batch_size=10),
        )
        # Chunk size must not affect the result either.
        assert np.array_equal(
            net.predict(probe, batch_size=7),
            net.predict(probe, batch_size=1024),
        )

    def test_workspace_reuses_buffers_across_steps(self):
        net = _make_net([6, 4], "relu", True, True, 2, "float64", 8)
        data = RNG.random((64, 8))
        net.fit(data, epochs=1, batch_size=16)
        after_first = net.workspace.stats()
        net.fit(data, epochs=2, batch_size=16)
        after_more = net.workspace.stats()
        # Steady state: further epochs replay the recorded plan and
        # allocate nothing new.
        assert after_more.generations > after_first.generations
        assert after_more.misses == after_first.misses
        assert after_more.buffers == after_first.buffers
        assert after_more.peak_bytes == after_first.peak_bytes


class TestFloat32Mode:
    """float32 is not bit-comparable with float64, but it is with the
    oracle run in float32."""

    @pytest.mark.parametrize("optimizer", OPTIMIZERS)
    def test_kernel_path_tracks_legacy_path(self, optimizer):
        # ReLU + BatchNorm in float32 is the presets' configuration.
        data = RNG.random((48, 10))
        kwargs = dict(epochs=3, batch_size=8, optimizer=optimizer, validation_split=0.2)
        a = _make_net([8, 6], "relu", True, False, 4, "float32", 10)
        ha = reference.fit(a, data, **kwargs)
        b = _make_net([8, 6], "relu", True, False, 4, "float32", 10)
        hb = b.fit(data, **kwargs)
        assert _histories_equal(ha, hb)
        assert _params_identical(a, b)
        assert np.array_equal(reference.predict(a, data), b.predict(data))

    @pytest.mark.parametrize("optimizer", OPTIMIZERS)
    @pytest.mark.parametrize("activation", sorted(ACTIVATIONS))
    def test_fit_stays_float32(self, activation, optimizer):
        """Every activation, gradient and optimizer state of a float32
        fit is float32 (no silent promotion to float64 anywhere)."""
        net = _make_net([5, 4], activation, True, True, 3, "float32", 6)
        seen = []

        def recording(method):
            def wrapped(*args, **kwargs):
                out = method(*args, **kwargs)
                seen.append((type(method.__self__).__name__, method.__name__, out.dtype))
                return out

            return wrapped

        for layer in net.layers:
            layer.forward = recording(layer.forward)
            layer.backward = recording(layer.backward)
        opt = get_optimizer(optimizer)
        net.fit(RNG.random((30, 6)), epochs=2, batch_size=8, optimizer=opt,
                validation_split=0.2)

        assert seen and {dtype for _, _, dtype in seen} == {np.dtype(np.float32)}, [
            entry for entry in seen if entry[2] != np.float32
        ]
        for p in net.parameters():
            assert p.value.dtype == np.float32 and p.grad.dtype == np.float32, p
        states = [a for state in opt._state.values() for a in state.values()
                  if isinstance(a, np.ndarray)]
        assert bool(states) == (optimizer != "sgd")  # SGD keeps no state arrays
        assert all(a.dtype == np.float32 for a in states)

    def test_float32_close_to_float64(self):
        data = RNG.random((48, 10))
        a = _make_net([8, 6], "relu", True, False, 4, "float64", 10)
        a.fit(data, epochs=5, batch_size=8)
        b = _make_net([8, 6], "relu", True, False, 4, "float32", 10)
        b.fit(data, epochs=5, batch_size=8)
        # Training trajectories agree to float32-level precision.
        assert b.evaluate(data) == pytest.approx(a.evaluate(data), rel=1e-3)

    def test_float32_detection_quality(self):
        """Reconstruction-error ranking survives the dtype change."""
        rng = np.random.default_rng(17)
        normal = rng.uniform(0.3, 0.7, size=(120, 12))
        anomalous = rng.uniform(0.0, 1.0, size=(8, 12))

        def auc_for(dtype):
            net = _make_net([8, 4], "relu", True, False, 6, dtype, 12)
            net.fit(normal, epochs=30, batch_size=16)
            scores = []
            for batch in (normal, anomalous):
                recon = net.predict(batch)
                scores.append(np.mean((batch - recon) ** 2, axis=1))
            s_normal, s_anom = scores
            # Probability an anomaly outscores a normal row (ROC-AUC).
            return float(np.mean(s_anom[:, None] > s_normal[None, :]))

        auc64 = auc_for("float64")
        auc32 = auc_for("float32")
        assert auc64 > 0.9
        assert abs(auc64 - auc32) < 0.05


class TestGradcheckMatrix:
    """Kernel-path gradients are correct for every layer, both dtypes."""

    LAYER_FACTORIES = {
        "dense": lambda: Dense(5),
        "dense_no_bias": lambda: Dense(5, use_bias=False),
        "batch_norm": lambda: BatchNormalization(),
        "relu": ReLU,
        "leaky_relu": LeakyReLU,
        "sigmoid": Sigmoid,
        "tanh": Tanh,
        "linear": Linear,
    }

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("name", sorted(LAYER_FACTORIES))
    def test_layer_gradients_on_kernel_path(self, name, dtype):
        layer = self.LAYER_FACTORIES[name]()
        rng = np.random.default_rng(23)
        layer.build(4, rng, dtype=np.dtype(dtype))
        if name == "batch_norm":
            # Move gamma/beta off their 0-gradient-degenerate init point.
            layer.gamma.value = layer.gamma.value + np.asarray(0.3, layer.gamma.value.dtype)
            layer.beta.value = layer.beta.value + np.asarray(0.7, layer.beta.value.dtype)
        # Keep ReLU-family inputs away from the kink at 0.
        x = rng.uniform(0.2, 0.9, size=(6, 4))
        ws = Workspace()
        err = check_layer_input_gradient(layer, x, ws=ws)
        assert err < 1e-5, f"{name}/{dtype}: input gradient error {err}"
        # Parameter perturbations happen in the parameter's own dtype, so
        # float32 needs a coarser step (1e-6 is below float32 resolution)
        # and a correspondingly looser tolerance.
        eps, tol = (1e-6, 1e-5) if dtype == "float64" else (1e-3, 1e-2)
        param_errors = check_layer_param_gradients(layer, x, ws=ws, eps=eps)
        for pname, perr in param_errors.items():
            assert perr < tol, f"{name}/{dtype}/{pname}: gradient error {perr}"

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("optimizer", OPTIMIZERS)
    def test_optimizer_kernels_match_legacy(self, optimizer, dtype):
        """Each optimizer's in-place kernel reproduces the oracle update."""

        def run(use_oracle):
            opt = get_optimizer(optimizer)
            layer = Dense(3)
            layer.build(4, np.random.default_rng(7), dtype=np.dtype(dtype))
            ws = Workspace()
            states = {}
            for step in range(5):
                g = np.random.default_rng(100 + step).normal(size=(4, 3))
                layer.weight.grad[...] = g.astype(layer.weight.grad.dtype)
                layer.bias.grad[...] = g[0].astype(layer.bias.grad.dtype)
                params = [layer.weight, layer.bias]
                if use_oracle:
                    for p in params:
                        reference.update(opt, p, states.setdefault(id(p), {}))
                else:
                    ws.reset()
                    opt.step(params, ws=ws)
            return layer

        oracle = run(True)
        kernel = run(False)
        assert np.array_equal(oracle.weight.value, kernel.weight.value)
        assert np.array_equal(oracle.bias.value, kernel.bias.value)

    @pytest.mark.parametrize("optimizer", OPTIMIZERS)
    @pytest.mark.parametrize("activation", sorted(ACTIVATIONS))
    def test_layer_optimizer_cross_bit_identity(self, activation, optimizer):
        """Every activation x optimizer combination trains bit-identically
        to the oracle (with BatchNorm and Dropout in the stack)."""
        data = np.random.default_rng(41).random((24, 5))
        kwargs = dict(epochs=2, batch_size=6, optimizer=optimizer)
        a = _make_net([4], activation, True, True, 8, "float64", 5)
        ha = reference.fit(a, data, **kwargs)
        b = _make_net([4], activation, True, True, 8, "float64", 5)
        hb = b.fit(data, **kwargs)
        assert _histories_equal(ha, hb)
        assert _params_identical(a, b)

    def test_dropout_gradient_kernel_path(self):
        # Dropout is stochastic: compare kernel backward against the
        # oracle backward under the same mask (same RNG seed).
        x = RNG.uniform(0.2, 0.9, size=(6, 4))
        grad = RNG.normal(size=(6, 4))

        oracle = Dropout(0.3, seed=5)
        out_oracle, mask = reference.forward(oracle, x, training=True)
        g_oracle = reference.backward(oracle, mask, grad.copy())

        kernel = Dropout(0.3, seed=5)
        ws = Workspace()
        out_kernel = kernel.forward(x, training=True, ws=ws)
        g_kernel = kernel.backward(grad.copy(), ws=ws)

        assert np.array_equal(out_oracle, out_kernel)
        assert np.array_equal(g_oracle, g_kernel)


class TestParameterDtype:
    """Parameter honours the build dtype at construction (no re-cast)."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_dense_build_allocates_in_dtype(self, dtype):
        layer = Dense(3)
        layer.build(4, np.random.default_rng(0), dtype=dtype)
        assert layer.weight.value.dtype == dtype
        assert layer.weight.grad.dtype == dtype
        assert layer.bias.value.dtype == dtype

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_batchnorm_build_allocates_in_dtype(self, dtype):
        layer = BatchNormalization()
        layer.build(4, np.random.default_rng(0), dtype=dtype)
        assert layer.gamma.value.dtype == dtype
        assert layer.running_mean.dtype == dtype
        assert layer.running_var.dtype == dtype

    def test_cast_skips_matching_dtype(self):
        layer = Dense(3)
        layer.build(4, np.random.default_rng(0), dtype=np.float64)
        before = layer.weight.value
        layer.cast(np.dtype(np.float64))
        assert layer.weight.value is before  # no reallocation

    def test_build_dtype_matches_legacy_cast(self):
        """Building in float32 equals building in float64 then casting."""
        direct = Dense(3)
        direct.build(4, np.random.default_rng(5), dtype=np.float32)
        casted = Dense(3)
        casted.build(4, np.random.default_rng(5), dtype=np.float64)
        casted.cast(np.dtype(np.float32))
        assert np.array_equal(direct.weight.value, casted.weight.value)
        assert np.array_equal(direct.bias.value, casted.bias.value)


class TestEvaluateDtype:
    def test_evaluate_honours_network_dtype(self):
        """evaluate() must not silently coerce float32 nets to float64."""
        data = RNG.random((20, 6)).astype(np.float32)
        net = _make_net([4], "relu", False, False, 0, "float32", 6)
        net.fit(data, epochs=1, batch_size=8)
        pred = net.predict(data)
        assert pred.dtype == np.float32
        expected = float(np.mean((np.asarray(data, dtype=np.float32) - pred) ** 2))
        assert net.evaluate(data) == pytest.approx(expected, rel=1e-6)
