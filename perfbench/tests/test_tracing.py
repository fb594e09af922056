import sys
import types

import pytest

from perfbench import layers, tracing
from perfbench.tracing import Target, Tracer


class Clock:
    """Deterministic stand-in for ``perf_counter_ns``."""

    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        return self.now

    def advance(self, ns: int) -> None:
        self.now += ns


@pytest.fixture
def fake_layers(monkeypatch):
    """A throwaway ``repro_fake`` module: outer -> middle -> inner."""
    clock = Clock()
    monkeypatch.setattr(tracing, "perf_ns", clock)
    module = types.ModuleType("repro_fake")

    class Inner:
        def work(self):
            clock.advance(5)
            return "inner"

    class Middle:
        def __init__(self):
            self.inner = Inner()

        def step(self):
            clock.advance(7)
            self.inner.work()
            self.inner.work()
            clock.advance(1)

    class Special(Middle):
        def step(self):  # an override calling super(): one logical call
            clock.advance(2)
            super().step()

    def outer(middle):
        clock.advance(10)
        middle.step()
        clock.advance(3)
        return "done"

    module.Inner, module.Middle, module.Special = Inner, Middle, Special
    module.outer = outer
    monkeypatch.setitem(sys.modules, "repro_fake", module)
    targets = (
        Target("fake.outer", "repro_fake", None, ("outer",)),
        Target("fake.middle", "repro_fake", "Middle", ("step",), hot=True),
        Target("fake.inner", "repro_fake", "Inner", tracing.ALL, hot=True),
    )
    return module, clock, targets


def test_self_time_subtracts_nested_spans(fake_layers):
    module, clock, targets = fake_layers
    tracer = Tracer(targets=targets)
    with tracer:
        assert module.outer(module.Middle()) == "done"
    totals = tracer.totals()
    self_s = totals["self_s"]["work"]
    assert self_s["fake.outer"] == pytest.approx(13e-9)
    assert self_s["fake.middle"] == pytest.approx(8e-9)
    assert self_s["fake.inner"] == pytest.approx(10e-9)
    assert sum(self_s.values()) == pytest.approx(clock.now / 1e9)
    assert totals["calls"] == {"fake.outer": 1, "fake.middle": 1,
                               "fake.inner": 2}
    # Only the coarse (non-hot) span is kept for the trace file.
    [span] = totals["spans"]
    assert span[0] == "fake.outer" and span[2] - span[1] == 31


def test_override_calling_super_counts_once(fake_layers):
    module, clock, targets = fake_layers
    tracer = Tracer(targets=targets)
    with tracer:
        module.Special().step()
    totals = tracer.totals()
    assert totals["calls"]["fake.middle"] == 1
    assert totals["self_s"]["work"]["fake.middle"] == pytest.approx(10e-9)


def test_uninstall_restores_the_original_objects(fake_layers):
    module, _, targets = fake_layers
    originals = (module.outer, vars(module.Middle)["step"],
                 vars(module.Special)["step"], vars(module.Inner)["work"])
    tracer = Tracer(targets=targets)
    with tracer:
        assert module.outer is not originals[0]
        assert vars(module.Special)["step"] is not originals[2]
    assert (module.outer, vars(module.Middle)["step"],
            vars(module.Special)["step"],
            vars(module.Inner)["work"]) == originals
    assert not tracer.active


def test_uninstall_runs_when_the_traced_code_raises(fake_layers):
    module, _, targets = fake_layers
    original = module.outer
    with pytest.raises(ZeroDivisionError):
        with Tracer(targets=targets):
            module.outer(module.Middle())
            1 / 0
    assert module.outer is original


def test_per_layer_table_sums_to_the_traced_wall():
    parent = {
        "self_s": {"work": {"simt.sm_cycle": 2.0, "memory.cycle": 1.0,
                            "serve.broker": 5.0},
                   "client": {"serve.request": 9.0}},
        "calls": {"simt.sm_cycle": 10, "memory.cycle": 4,
                  "serve.broker": 2, "serve.request": 2},
        "counts": {"gpu.sim_cycles": 8, "gpu.sm_slots": 16},
        "spans": [["serve.broker", 0, 3_000_000_000, 1, 0, 1, "work"],
                  ["serve.request", 0, 4_000_000_000, 2, 0, 2, "client"]],
    }
    report = layers.per_layer(parent, [], traced_wall_s=4.0,
                              untraced_wall_s=3.0, iterations=1,
                              registry_load_s=0.01)
    metrics = report["metrics"]
    table_total = sum(seconds for _, seconds, _ in report["table"])
    assert table_total == pytest.approx(4.0)
    assert metrics["unattributed_s"] == pytest.approx(1.0)
    assert metrics["trace_overhead_s"] == pytest.approx(1.0)
    assert metrics["serve.http_s"] == pytest.approx(1.0)
    assert metrics["simt.sm_skip_frac"] == pytest.approx(1 - 10 / 16)
    assert metrics["gpu.skip_frac"] == pytest.approx(1 - 4 / 8)
    assert not report["measured"]["memory.addr_s"]
