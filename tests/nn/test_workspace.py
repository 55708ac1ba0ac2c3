"""Unit tests for the repro.nn.workspace buffer plan."""

import numpy as np

from repro.nn.layers import BatchNormalization, Dense, ReLU, Sigmoid
from repro.nn.network import Sequential
from repro.nn.workspace import Workspace
from repro.obs import Telemetry, set_telemetry


class TestAcquire:
    def test_returns_requested_shape_and_dtype(self):
        ws = Workspace()
        buf = ws.acquire((3, 4), np.float32)
        assert buf.shape == (3, 4)
        assert buf.dtype == np.float32

    def test_scalar_shape(self):
        ws = Workspace()
        assert ws.acquire(5).shape == (5,)
        ws.reset()
        assert ws.acquire(5).shape == (5,)
        assert ws.stats().misses == 1

    def test_distinct_buffers_within_generation(self):
        ws = Workspace()
        ws.reset((4, True))
        buffers = [ws.acquire((2, 2)) for _ in range(3)] + [ws.acquire((2, 2), np.float32)]
        assert len({id(b) for b in buffers}) == 4
        assert not any(np.shares_memory(a, b)
                       for i, a in enumerate(buffers) for b in buffers[i + 1:])

    def test_recycles_in_acquisition_order_across_generations(self):
        ws = Workspace()
        ws.reset((2, True))
        a = ws.acquire((2, 2))
        b = ws.acquire((2, 2))
        ws.reset((2, True))
        assert ws.acquire((2, 2)) is a
        assert ws.acquire((2, 2)) is b

    def test_growth_within_generation_then_full_reuse(self):
        ws = Workspace()
        ws.reset("k")
        first = [ws.acquire((4,)) for _ in range(3)]
        ws.reset("k")
        second = [ws.acquire((4,)) for _ in range(3)]
        assert all(a is b for a, b in zip(first, second))
        assert ws.stats().misses == 3

    def test_clear_drops_buffers(self):
        ws = Workspace()
        ws.reset("k")
        a = ws.acquire((8, 8))
        ws.clear()
        assert ws.stats().live_bytes == 0
        assert ws.stats().buffers == 0
        ws.reset("k")
        assert ws.acquire((8, 8)) is not a


class TestPlan:
    def test_each_key_records_its_own_plan(self):
        ws = Workspace()
        ws.reset((4, True))
        train = ws.acquire((4, 3))
        ws.reset((4, False))
        predict = ws.acquire((4, 3))
        assert predict is not train
        ws.reset((4, True))
        assert ws.acquire((4, 3)) is train
        assert ws.stats().plans == 2

    def test_shape_or_dtype_mismatch_reallocates(self):
        ws = Workspace()
        ws.reset("k")
        a = ws.acquire((2, 2), np.float64)
        b = ws.acquire((3,), np.float64)
        ws.reset("k")
        a32 = ws.acquire((2, 2), np.float32)  # dtype differs at slot 0
        b4 = ws.acquire((4,), np.float64)  # shape differs at slot 1
        assert a32 is not a and a32.dtype == np.float32
        assert b4 is not b and b4.shape == (4,)
        stats = ws.stats()
        assert stats.misses == 4
        assert stats.buffers == 2  # the replacements took the slots over
        assert stats.live_bytes == 2 * 2 * 4 + 4 * 8
        ws.reset("k")
        assert ws.acquire((2, 2), np.float32) is a32
        assert ws.acquire((4,), np.float64) is b4
        assert ws.stats().misses == 4

    def test_unreset_workspace_never_recycles(self):
        ws = Workspace()
        a = ws.acquire((2, 2))
        b = ws.acquire((2, 2))
        assert a is not b
        assert ws.stats().misses == 2


def _net(seed=3):
    layers = [Dense(6), BatchNormalization(), ReLU(), Dense(5), Sigmoid()]
    return Sequential(layers, seed=seed).build(5)


class TestTrainingPlans:
    """The plan as Sequential.fit and Sequential.predict drive it."""

    def test_short_batch_and_validation_get_their_own_plans(self):
        net = _net()
        # 40 rows, 10 held out: 30 training rows in batches of 8 -> three
        # full steps and a final short step of 6; validation predicts 10.
        net.fit(np.random.default_rng(0).random((40, 5)), epochs=1, batch_size=8,
                validation_split=0.25)
        assert net.workspace.stats().plans == 3
        assert {(8, True), (6, True), (10, False)} <= set(net.workspace._plans)

    def test_no_allocations_after_warm_up(self):
        net = _net()
        data = np.random.default_rng(1).random((45, 5))
        kwargs = dict(batch_size=8, validation_split=0.2)
        net.fit(data, epochs=1, **kwargs)
        warm = net.workspace.stats()
        net.fit(data, epochs=3, **kwargs)
        net.predict(data[:9])  # the validation predict's key
        after = net.workspace.stats()
        assert after.misses == warm.misses
        assert after.buffers == warm.buffers
        assert after.peak_bytes == warm.peak_bytes
        assert after.generations > warm.generations

    def test_fit_reports_arena_and_phase_counters(self):
        telemetry = Telemetry(enabled=True)
        previous = set_telemetry(telemetry)
        try:
            net = _net()
            data = np.random.default_rng(2).random((24, 5))
            net.fit(data, epochs=2, batch_size=8)
            first = dict(telemetry.metrics.snapshot()["counters"])
            net.fit(data, epochs=2, batch_size=8)
            counters = telemetry.metrics.snapshot()["counters"]
        finally:
            set_telemetry(previous)
        assert first["nn.arena.misses"] == net.workspace.stats().misses > 0
        assert counters["nn.arena.misses"] == first["nn.arena.misses"]  # warm: no new ones
        gauges = telemetry.metrics.snapshot()["gauges"]
        assert gauges["nn.arena.peak_bytes"] == net.workspace.stats().peak_bytes
        phases = [f"nn.phase.{p}_seconds"
                  for p in ("gather", "forward", "loss", "backward", "optimizer")]
        assert all(0 < first[name] < counters[name] for name in phases)
        fit_wall = sum(s.wall_seconds for s in telemetry.iter_spans() if s.name == "nn.fit")
        assert sum(counters[name] for name in phases) <= fit_wall


class TestStats:
    def test_counters(self):
        ws = Workspace()
        ws.acquire((2, 3))
        ws.reset()
        ws.acquire((2, 3))
        ws.acquire((5,), np.float32)
        stats = ws.stats()
        assert stats.misses == 2
        assert stats.buffers == 2
        assert stats.plans == 1
        assert stats.generations == 1
        expected = 2 * 3 * 8 + 5 * 4
        assert stats.live_bytes == expected
        assert stats.peak_bytes == expected

    def test_counters_zero_when_unused(self):
        stats = Workspace().stats()
        assert (stats.misses, stats.buffers, stats.plans, stats.peak_bytes) == (0, 0, 0, 0)
