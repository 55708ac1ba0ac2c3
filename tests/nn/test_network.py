"""Sequential container and training-loop tests."""

import numpy as np
import pytest

from repro.nn.gradcheck import numerical_gradient, relative_error
from repro.nn.layers import BatchNormalization, Dense, ReLU, Sigmoid, Tanh
from repro.nn.losses import MeanSquaredError
from repro.nn.network import Sequential

RNG = np.random.default_rng(7)


def make_net(seed=0):
    return Sequential([Dense(8), Tanh(), Dense(4), Tanh(), Dense(2)], seed=seed).build(3)


class TestConstruction:
    def test_requires_layers(self):
        with pytest.raises(ValueError):
            Sequential([])

    def test_build_sets_dims(self):
        net = make_net()
        assert net.input_dim == 3
        assert net.output_dim == 2

    def test_num_parameters(self):
        net = Sequential([Dense(4, use_bias=False)]).build(3)
        assert net.num_parameters() == 12

    def test_rejects_bad_input_dim(self):
        with pytest.raises(ValueError):
            Sequential([Dense(2)]).build(0)


class TestForwardBackward:
    def test_forward_shape(self):
        net = make_net()
        assert net.forward(RNG.normal(size=(5, 3))).shape == (5, 2)

    def test_forward_rejects_wrong_width(self):
        net = make_net()
        with pytest.raises(ValueError):
            net.forward(RNG.normal(size=(5, 4)))

    def test_forward_rejects_1d(self):
        net = make_net()
        with pytest.raises(ValueError):
            net.forward(RNG.normal(size=3))

    def test_full_network_gradcheck(self):
        net = make_net()
        loss = MeanSquaredError()
        x = RNG.normal(size=(4, 3))
        y = RNG.normal(size=(4, 2))

        out = net.forward(x, training=True)
        net.backward(loss.gradient(y, out))
        analytic = {id(p): p.grad.copy() for p in net.parameters()}

        for param in net.parameters():

            def objective(value, _p=param):
                _p.value = value
                return loss.value(y, net.forward(x, training=True))

            numeric = numerical_gradient(objective, param.value.copy())
            assert relative_error(analytic[id(param)], numeric) < 1e-5

    def test_input_gradcheck_through_batchnorm(self):
        net = Sequential([Dense(6), BatchNormalization(), ReLU(), Dense(2)], seed=1).build(3)
        loss = MeanSquaredError()
        x = RNG.normal(size=(6, 3)) + 0.3
        y = np.zeros((6, 2))

        def objective(inp):
            return loss.value(y, net.forward(inp, training=True))

        out = net.forward(x, training=True)
        analytic = net.backward(loss.gradient(y, out))
        numeric = numerical_gradient(objective, x.copy())
        assert relative_error(analytic, numeric) < 1e-4

    def test_predict_batches_match_single_pass(self):
        net = make_net()
        x = RNG.normal(size=(300, 3))
        np.testing.assert_allclose(net.predict(x, batch_size=64), net.predict(x, batch_size=1000))


class TestFit:
    def test_learns_identity(self):
        net = Sequential([Dense(16), Tanh(), Dense(2)], seed=0)
        x = RNG.uniform(-1, 1, size=(256, 2))
        history = net.fit(x, x, epochs=200, batch_size=32, optimizer="adam")
        assert history.loss[-1] < history.loss[0] * 0.1

    def test_autoencodes_by_default_target(self):
        net = Sequential([Dense(4), Tanh(), Dense(3)], seed=0)
        x = RNG.uniform(-1, 1, size=(64, 3))
        history = net.fit(x, epochs=5)
        assert history.epochs_trained == 5

    def test_validation_split_records_val_loss(self):
        net = Sequential([Dense(4), Dense(2)], seed=0)
        x = RNG.normal(size=(50, 2))
        history = net.fit(x, epochs=3, validation_split=0.2)
        assert len(history.val_loss) == 3
        assert history.best_val_loss == min(history.val_loss)

    def test_early_stopping_halts(self):
        net = Sequential([Dense(4), Dense(2)], seed=0)
        x = np.zeros((40, 2))  # trivially learned -> loss plateaus at ~0
        history = net.fit(x, epochs=100, early_stopping_patience=3, optimizer="adam")
        assert history.epochs_trained < 100

    def test_rejects_mismatched_rows(self):
        net = Sequential([Dense(2)])
        with pytest.raises(ValueError):
            net.fit(np.zeros((4, 2)), np.zeros((5, 2)))

    def test_rejects_empty(self):
        net = Sequential([Dense(2)])
        with pytest.raises(ValueError):
            net.fit(np.zeros((0, 2)))

    def test_rejects_bad_split(self):
        net = Sequential([Dense(2)])
        with pytest.raises(ValueError):
            net.fit(np.zeros((4, 2)), validation_split=1.0)

    def test_validation_split_rounding_can_empty_training_set(self):
        """round(4 * 0.9) == 4 holds out every row; must fail loudly."""
        net = Sequential([Dense(2)], seed=0)
        x = RNG.normal(size=(4, 2))
        with pytest.raises(ValueError, match="leaves no training data"):
            net.fit(x, epochs=1, validation_split=0.9)

    def test_validation_split_just_below_rounding_edge_trains(self):
        net = Sequential([Dense(2)], seed=0)
        x = RNG.normal(size=(5, 2))
        history = net.fit(x, epochs=2, validation_split=0.5)
        assert history.epochs_trained == 2
        assert len(history.val_loss) == 2

    def test_batch_size_larger_than_dataset_is_one_full_batch(self):
        x = RNG.normal(size=(10, 3))

        def train(batch_size):
            net = Sequential([Dense(4), Tanh(), Dense(3)], seed=4)
            history = net.fit(x, epochs=3, batch_size=batch_size, optimizer="adam")
            return net.predict(x), history

        oversized, h_big = train(1000)
        exact, h_exact = train(10)
        np.testing.assert_array_equal(oversized, exact)
        assert h_big.loss == h_exact.loss

    def test_early_stopping_patience_zero_stops_at_first_plateau(self):
        x = np.zeros((32, 2))  # loss is flat from the first epoch
        net = Sequential([Dense(4), Dense(2)], seed=0)
        history = net.fit(x, epochs=50, early_stopping_patience=0, optimizer="adam")
        assert 1 <= history.epochs_trained < 50
        # Patience 0 can never outlast patience 1 on the same run.
        net_one = Sequential([Dense(4), Dense(2)], seed=0)
        longer = net_one.fit(x, epochs=50, early_stopping_patience=1, optimizer="adam")
        assert history.epochs_trained <= longer.epochs_trained

    def test_deterministic_given_seed(self):
        x = RNG.normal(size=(64, 3))

        def train():
            net = Sequential([Dense(4), Tanh(), Dense(3)], seed=99)
            net.fit(x, epochs=3, batch_size=16)
            return net.predict(x)

        np.testing.assert_array_equal(train(), train())

    def test_evaluate(self):
        net = Sequential([Dense(2)], seed=0).build(2)
        x = RNG.normal(size=(10, 2))
        assert net.evaluate(x) >= 0.0


class TestDtype:
    def test_float32_training_and_prediction(self):
        net = Sequential([Dense(8), Tanh(), Dense(3)], seed=0, dtype="float32")
        x = RNG.uniform(-1, 1, size=(64, 3))
        history = net.fit(x, epochs=5, optimizer="adam")
        assert history.epochs_trained == 5
        out = net.predict(x)
        assert out.dtype == np.float32
        for p in net.parameters():
            assert p.value.dtype == np.float32

    def test_float32_matches_float64_closely(self):
        x = RNG.uniform(-1, 1, size=(64, 3))

        def train(dtype):
            net = Sequential([Dense(8), Tanh(), Dense(3)], seed=7, dtype=dtype)
            net.fit(x, epochs=10, batch_size=16, optimizer="adam")
            return net.predict(x).astype(np.float64)

        a, b = train("float64"), train("float32")
        assert np.abs(a - b).max() < 1e-2

    def test_rejects_integer_dtype(self):
        with pytest.raises(ValueError):
            Sequential([Dense(2)], dtype="int32")


class TestFlatParameters:
    """Every parameter stays a view into the network's flat vectors.

    ``fit`` steps the optimizer once, on the flat vectors; a path that
    rebinds a ``Parameter.value`` or ``.grad`` to a fresh array would
    leave that parameter out of training.
    """

    @staticmethod
    def make(dtype="float64", seed=0):
        layers = [Dense(6), BatchNormalization(), ReLU(), Dense(3), Sigmoid()]
        return Sequential(layers, seed=seed, dtype=dtype).build(3)

    @staticmethod
    def assert_flat(net):
        flat = net._flat
        params = net.parameters()
        assert flat.value.size == sum(p.value.size for p in params)
        for p in params:
            assert np.shares_memory(p.value, flat.value), p
            assert np.shares_memory(p.grad, flat.grad), p

    @staticmethod
    def assert_fit_moves(net, before):
        net.fit(RNG.random((24, 3)), epochs=1, batch_size=8)
        for p, old in zip(net.parameters(), before):
            assert not np.array_equal(p.value, old), p

    def test_build_places_parameters_in_order(self):
        net = self.make()
        self.assert_flat(net)
        starts = [p.value.__array_interface__["data"][0] for p in net.parameters()]
        assert starts == sorted(starts)

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_load_state_dict_writes_in_place(self, dtype):
        source = self.make(dtype, seed=1)
        source.fit(RNG.random((24, 3)), epochs=2, batch_size=8)
        net = self.make(dtype, seed=2)
        for mine, theirs in zip(net.layers, source.layers):
            mine.load_state_dict(theirs.state_dict())
        self.assert_flat(net)
        loaded = [p.value.copy() for p in net.parameters()]
        assert all(np.array_equal(a, b.value) for a, b in zip(loaded, source.parameters()))
        self.assert_fit_moves(net, loaded)

    def test_network_from_bytes_keeps_views(self):
        from repro.nn.serialization import network_from_bytes, network_to_bytes

        source = self.make(seed=1)
        source.fit(RNG.random((24, 3)), epochs=1, batch_size=8)
        net = network_from_bytes(self.make(seed=2), network_to_bytes(source))
        self.assert_flat(net)
        loaded = [p.value.copy() for p in net.parameters()]
        self.assert_fit_moves(net, loaded)

    def test_cast_to_network_dtype_keeps_views(self):
        net = self.make("float32")
        for layer in net.layers:
            layer.cast(np.dtype(np.float32))
        self.assert_flat(net)
        self.assert_fit_moves(net, [p.value.copy() for p in net.parameters()])

    def test_param_gradcheck_restores_values_in_place(self):
        from repro.nn.gradcheck import check_layer_param_gradients

        net = self.make()
        before = [p.value.copy() for p in net.parameters()]
        x = RNG.uniform(0.2, 0.9, size=(5, 3))
        dense, batch_norm = net.layers[:2]
        assert max(check_layer_param_gradients(dense, x).values()) < 1e-5
        check_layer_param_gradients(batch_norm, dense.forward(x))
        self.assert_flat(net)
        assert all(np.array_equal(p.value, b) for p, b in zip(net.parameters(), before))
        self.assert_fit_moves(net, before)

    def test_fit_reseats_a_rebound_parameter(self):
        net = self.make()
        dense = net.layers[0]
        dense.weight.value = dense.weight.value + 0.5  # user code rebinding
        rebound = dense.weight.value.copy()
        net.fit(RNG.random((24, 3)), epochs=1, batch_size=8)
        self.assert_flat(net)
        assert not np.array_equal(dense.weight.value, rebound)
