"""Parallel ensemble-training engine tests.

The load-bearing property is *determinism*: for a fixed per-task seed,
``train_ensemble`` must return bit-identical weights, histories and
scores whether it runs serially, across a process pool, or through the
serial fallback path.
"""

import numpy as np
import pytest

from repro.nn import parallel as par
from repro.nn.autoencoder import Autoencoder, AutoencoderConfig
from repro.nn.layers import Dense, Tanh
from repro.nn.network import Sequential
from repro.nn.parallel import (
    AspectTask,
    derive_seed,
    resolve_n_jobs,
    train_ensemble,
)
from repro.nn.serialization import network_from_bytes, network_to_bytes

TINY = AutoencoderConfig(
    encoder_units=(6, 3),
    epochs=3,
    batch_size=8,
    optimizer="adam",
    early_stopping_patience=None,
    validation_split=0.0,
    seed=5,
)


def make_tasks(n_aspects=3, n_samples=24, dim=10, base_seed=5):
    rng = np.random.default_rng(0)
    tasks = []
    for i in range(n_aspects):
        config = AutoencoderConfig(
            encoder_units=TINY.encoder_units,
            epochs=TINY.epochs,
            batch_size=TINY.batch_size,
            optimizer=TINY.optimizer,
            early_stopping_patience=None,
            validation_split=0.0,
            seed=derive_seed(base_seed, i),
        )
        tasks.append(AspectTask(f"aspect{i}", rng.random((n_samples, dim)), config))
    return tasks


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(7, 0) == derive_seed(7, 0)
        assert derive_seed(7, 3) == derive_seed(7, 3)

    def test_distinct_across_indices(self):
        seeds = [derive_seed(7, i) for i in range(16)]
        assert len(set(seeds)) == 16

    def test_distinct_across_bases(self):
        assert derive_seed(7, 0) != derive_seed(8, 0)

    def test_none_passthrough(self):
        assert derive_seed(None, 4) is None

    def test_rejects_negative_index(self):
        with pytest.raises(ValueError):
            derive_seed(7, -1)

    def test_matches_seed_sequence_spawn_key(self):
        """The contract: SeedSequence(base, spawn_key=(i,)) -> first word."""
        expected = int(
            np.random.SeedSequence(42, spawn_key=(3,)).generate_state(1, dtype=np.uint32)[0]
        )
        assert derive_seed(42, 3) == expected


class TestResolveNJobs:
    def test_serial_default(self):
        assert resolve_n_jobs(None, 4) == 1
        assert resolve_n_jobs(1, 4) == 1

    def test_clamped_to_tasks(self, monkeypatch):
        monkeypatch.setattr(par, "usable_cores", lambda: 64)
        assert resolve_n_jobs(8, 3) == 3

    def test_clamped_to_usable_cores(self, monkeypatch):
        monkeypatch.setattr(par, "usable_cores", lambda: 2)
        assert resolve_n_jobs(8, 6) == 2
        assert resolve_n_jobs(0, 6) == 2

    def test_all_cores(self):
        assert resolve_n_jobs(0, 64) >= 1
        assert resolve_n_jobs(-1, 64) >= 1

    def test_rejects_no_tasks(self):
        with pytest.raises(ValueError):
            resolve_n_jobs(1, 0)


class TestTaskValidation:
    def test_rejects_empty_data(self):
        with pytest.raises(ValueError):
            AspectTask("a", np.zeros((0, 4)), TINY)

    def test_rejects_1d_data(self):
        with pytest.raises(ValueError):
            AspectTask("a", np.zeros(4), TINY)

    def test_rejects_duplicate_names(self):
        tasks = make_tasks(2)
        dup = [tasks[0], AspectTask(tasks[0].name, tasks[1].data, tasks[1].config)]
        with pytest.raises(ValueError, match="duplicate"):
            train_ensemble(dup, n_jobs=1)

    def test_empty_ensemble(self):
        assert train_ensemble([], n_jobs=2) == {}


class TestSerialTraining:
    def test_returns_fitted_members_in_task_order(self):
        tasks = make_tasks(3)
        trained = train_ensemble(tasks, n_jobs=1)
        assert list(trained) == [t.name for t in tasks]
        for task in tasks:
            member = trained[task.name]
            assert member.autoencoder.fitted
            assert member.history.epochs_trained == TINY.epochs

    def test_matches_direct_autoencoder_fit(self):
        """train_ensemble adds nothing on top of Autoencoder.fit."""
        [task] = make_tasks(1)
        trained = train_ensemble([task], n_jobs=1)[task.name]
        direct = Autoencoder(input_dim=task.data.shape[1], config=task.config)
        direct_history = direct.fit(task.data)
        np.testing.assert_array_equal(
            trained.autoencoder.reconstruction_error(task.data),
            direct.reconstruction_error(task.data),
        )
        assert trained.history.loss == direct_history.loss


class TestParallelEqualsSerial:
    def test_bit_identical_scores_and_histories(self):
        tasks = make_tasks(3)
        serial = train_ensemble(tasks, n_jobs=1)
        parallel = train_ensemble(tasks, n_jobs=2)
        assert list(serial) == list(parallel)
        for task in tasks:
            np.testing.assert_array_equal(
                serial[task.name].autoencoder.reconstruction_error(task.data),
                parallel[task.name].autoencoder.reconstruction_error(task.data),
            )
            assert serial[task.name].history.loss == parallel[task.name].history.loss
            assert (
                serial[task.name].history.val_loss
                == parallel[task.name].history.val_loss
            )

    def test_bit_identical_weights(self):
        tasks = make_tasks(2)
        serial = train_ensemble(tasks, n_jobs=1)
        parallel = train_ensemble(tasks, n_jobs=2)
        for name in serial:
            a = serial[name].autoencoder.network.parameters()
            b = parallel[name].autoencoder.network.parameters()
            for pa, pb in zip(a, b):
                np.testing.assert_array_equal(pa.value, pb.value)

    def test_parallel_members_are_fitted(self):
        tasks = make_tasks(2)
        for member in train_ensemble(tasks, n_jobs=2).values():
            assert member.autoencoder.fitted


class TestFallbacks:
    def test_pool_failure_falls_back_to_serial(self, monkeypatch):
        def broken_pool(*args, **kwargs):
            raise OSError("no semaphores in this sandbox")

        monkeypatch.setattr(par, "ProcessPoolExecutor", broken_pool)
        tasks = make_tasks(2)
        trained = train_ensemble(tasks, n_jobs=2)
        reference = train_ensemble(tasks, n_jobs=1)
        for name in reference:
            np.testing.assert_array_equal(
                trained[name].autoencoder.reconstruction_error(tasks[0].data),
                reference[name].autoencoder.reconstruction_error(tasks[0].data),
            )

    def test_no_fork_platform_falls_back_to_serial(self, monkeypatch):
        monkeypatch.setattr(par, "_fork_context", lambda: None)
        tasks = make_tasks(2)
        trained = train_ensemble(tasks, n_jobs=2)
        assert all(m.autoencoder.fitted for m in trained.values())


class TestOneCore:
    def test_one_usable_core_trains_serially(self, monkeypatch):
        """``n_jobs=4`` on a one-core host forks nothing: the ensemble
        span reports the serial path and results match ``n_jobs=1``."""
        from repro.obs import Telemetry, set_telemetry

        monkeypatch.setattr(par, "usable_cores", lambda: 1)
        tasks = make_tasks(3)
        telemetry = Telemetry(enabled=True)
        previous = set_telemetry(telemetry)
        try:
            trained = train_ensemble(tasks, n_jobs=4)
        finally:
            set_telemetry(previous)
        span = telemetry.find_span("parallel.train_ensemble")
        assert span.attributes["mode"] == "serial"
        assert span.attributes["n_jobs"] == 1
        reference = train_ensemble(tasks, n_jobs=1)
        for task in tasks:
            np.testing.assert_array_equal(
                trained[task.name].autoencoder.reconstruction_error(task.data),
                reference[task.name].autoencoder.reconstruction_error(task.data),
            )


class TestWeightTransport:
    def test_bytes_round_trip_is_bit_exact(self):
        net = Sequential([Dense(6), Tanh(), Dense(4)], seed=3).build(4)
        x = np.random.default_rng(1).random((12, 4))
        net.fit(x, epochs=2, optimizer="adam")
        blob = network_to_bytes(net)
        clone = Sequential([Dense(6), Tanh(), Dense(4)], seed=99).build(4)
        network_from_bytes(clone, blob)
        np.testing.assert_array_equal(net.predict(x), clone.predict(x))

    def test_round_trip_preserves_batchnorm_running_stats(self):
        cfg = AutoencoderConfig(
            encoder_units=(6, 3),
            epochs=3,
            batch_size=8,
            early_stopping_patience=None,
            validation_split=0.0,
            seed=2,
        )
        ae = Autoencoder(input_dim=8, config=cfg)
        x = np.random.default_rng(4).random((20, 8))
        ae.fit(x)
        blob = network_to_bytes(ae.network)
        clone = Autoencoder(input_dim=8, config=cfg)
        network_from_bytes(clone.network, blob)
        # Inference uses running statistics; equality proves they moved.
        np.testing.assert_array_equal(ae.reconstruct(x), clone.reconstruct(x))
