"""Autoencoder architecture and anomaly-scoring tests."""

import numpy as np
import pytest

from repro.nn.autoencoder import Autoencoder, AutoencoderConfig
from repro.nn.layers import BatchNormalization, Dense, ReLU, Sigmoid

RNG = np.random.default_rng(5)

TINY = AutoencoderConfig(
    encoder_units=(16, 4),
    epochs=60,
    batch_size=16,
    optimizer="adam",
    early_stopping_patience=None,
    validation_split=0.0,
    seed=2,
)


class TestArchitecture:
    def test_paper_layer_stack(self):
        ae = Autoencoder(input_dim=100)
        dense_units = [l.units for l in ae.network.layers if isinstance(l, Dense)]
        assert dense_units == [512, 256, 128, 64, 128, 256, 512, 100]

    def test_batchnorm_between_hidden_layers(self):
        ae = Autoencoder(input_dim=10, config=AutoencoderConfig(encoder_units=(8, 4)))
        kinds = [type(l).__name__ for l in ae.network.layers]
        # Dense/BN/ReLU triplets for hidden layers, Dense+Sigmoid head.
        assert kinds[:3] == ["Dense", "BatchNormalization", "ReLU"]
        assert kinds[-2:] == ["Dense", "Sigmoid"]

    def test_no_batchnorm_option(self):
        cfg = AutoencoderConfig(encoder_units=(8, 4), batch_norm=False)
        ae = Autoencoder(input_dim=10, config=cfg)
        assert not any(isinstance(l, BatchNormalization) for l in ae.network.layers)

    def test_code_dim(self):
        assert Autoencoder(6, AutoencoderConfig(encoder_units=(8, 3))).code_dim == 3

    def test_rejects_bad_input_dim(self):
        with pytest.raises(ValueError):
            Autoencoder(0)

    def test_config_rejects_empty_units(self):
        with pytest.raises(ValueError):
            AutoencoderConfig(encoder_units=())

    def test_scaled_config(self):
        scaled = AutoencoderConfig().scaled(0.25)
        assert scaled.encoder_units == (128, 64, 32, 16)
        tiny = AutoencoderConfig(encoder_units=(4,)).scaled(0.01)
        assert tiny.encoder_units == (2,)  # floor at 2


class TestTrainingAndScoring:
    def test_reconstruction_error_shape(self):
        ae = Autoencoder(8, TINY)
        x = RNG.uniform(size=(20, 8))
        ae.fit(x)
        assert ae.reconstruction_error(x).shape == (20,)

    def test_anomaly_scores_higher_for_outliers(self):
        cfg = AutoencoderConfig(
            encoder_units=(16, 2),
            epochs=150,
            batch_size=32,
            optimizer="adam",
            early_stopping_patience=None,
            validation_split=0.0,
            seed=2,
        )
        ae = Autoencoder(8, cfg)
        # Normal data lives on a 1-D manifold inside [0,1]^8.
        t = RNG.uniform(size=(300, 1))
        normal = np.clip(0.5 + 0.4 * np.sin(t + np.arange(8)), 0, 1)
        ae.fit(normal)
        anomalies = RNG.uniform(size=(50, 8))
        normal_scores = ae.reconstruction_error(normal)
        anomaly_scores = ae.reconstruction_error(anomalies)
        assert anomaly_scores.mean() > 3 * normal_scores.mean()

    def test_encode_returns_code(self):
        ae = Autoencoder(8, TINY)
        x = RNG.uniform(size=(5, 8))
        code = ae.encode(x)
        assert code.shape == (5, TINY.encoder_units[-1])

    def test_float32_encode_matches_predict_bottleneck(self):
        """encode() computes in the network's dtype and returns exactly
        the bottleneck activations of the reconstruct/predict pass."""
        from dataclasses import replace

        ae = Autoencoder(8, replace(TINY, epochs=3, dtype="float32"))
        x = RNG.uniform(size=(12, 8))
        ae.fit(x)
        layers = ae.network.layers
        dense_at = [i for i, layer in enumerate(layers) if isinstance(layer, Dense)]
        bottleneck = layers[dense_at[len(TINY.encoder_units)] - 1]
        captured = []
        original = bottleneck.forward

        def capture(h, training=False, ws=None):
            out = original(h, training=training, ws=ws)
            captured.append(out.copy())
            return out

        bottleneck.forward = capture
        recon = ae.reconstruct(x)
        bottleneck.forward = original

        code = ae.encode(x)
        assert recon.dtype == np.float32
        assert code.dtype == np.float32
        assert len(captured) == 1
        np.testing.assert_array_equal(code, captured[0])

    def test_reconstruct_in_unit_interval(self):
        ae = Autoencoder(8, TINY)
        x = RNG.uniform(size=(12, 8))
        ae.fit(x)
        recon = ae.reconstruct(x)
        assert np.all(recon >= 0) and np.all(recon <= 1)

    def test_mae_metric(self):
        ae = Autoencoder(4, TINY)
        x = RNG.uniform(size=(12, 4))
        ae.fit(x)
        assert ae.reconstruction_error(x, metric="mae").shape == (12,)

    def test_unknown_metric(self):
        ae = Autoencoder(4, TINY)
        with pytest.raises(ValueError):
            ae.reconstruction_error(np.zeros((1, 4)), metric="rmse")

    def test_accepts_1d_row(self):
        ae = Autoencoder(4, TINY)
        assert ae.reconstruction_error(np.zeros(4)).shape == (1,)

    def test_rejects_wrong_width(self):
        ae = Autoencoder(4, TINY)
        with pytest.raises(ValueError):
            ae.reconstruct(np.zeros((2, 5)))

    def test_fitted_flag(self):
        ae = Autoencoder(4, TINY)
        assert not ae.fitted
        ae.fit(RNG.uniform(size=(12, 4)))
        assert ae.fitted
