"""Self-tests for the benchmark's tracing and statistics.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

import math
import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
for path in (HERE.parent / "src", HERE):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from measure import Accuracy, digest_slices, round_latencies_ms, tail_percentile  # noqa: E402
from tracing import Tracer, install_layers, per_layer_metrics  # noqa: E402


class FakeClock:
    """A clock that only moves when told to."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class Target:
    def method(self, x):
        return x + 1

    @classmethod
    def build(cls, x):
        return (cls, x)

    @staticmethod
    def helper(x):
        return x * 2


def test_wrappers_restore_the_original_objects():
    module = types.ModuleType("fake_layer")
    module.function = lambda x: x - 1
    originals = {
        (Target, "method"): vars(Target)["method"],
        (Target, "build"): vars(Target)["build"],
        (Target, "helper"): vars(Target)["helper"],
        (module, "function"): vars(module)["function"],
    }
    tracer = Tracer()
    with tracer:
        for (owner, attr), raw in originals.items():
            tracer.wrap(owner, attr, f"span.{attr}")
            assert vars(owner)[attr] is not raw
        assert Target().method(1) == 2
        assert Target.build(3) == (Target, 3)
        assert Target.helper(4) == 8
        assert Target().helper(4) == 8
        assert module.function(5) == 4
    for (owner, attr), raw in originals.items():
        assert vars(owner)[attr] is raw
    assert tracer.calls == {"span.method": 1, "span.build": 1, "span.helper": 2, "span.function": 1}


def test_layer_wrappers_restore_every_entry_point():
    tracer = Tracer()
    install_layers(tracer)
    patched = list(tracer._patches)
    assert len(patched) >= 15
    for owner, attr, raw in patched:
        assert vars(owner)[attr] is not raw
    tracer.restore()
    for owner, attr, raw in patched:
        assert vars(owner)[attr] is raw


def test_wrapper_restores_even_when_the_run_raises():
    tracer = Tracer()
    raw = vars(Target)["method"]
    with pytest.raises(ZeroDivisionError):
        with tracer:
            tracer.wrap(Target, "method", "span.method")
            1 / 0
    assert vars(Target)["method"] is raw


def test_nested_self_times_add_up_to_the_inclusive_time():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    module = types.ModuleType("fake_layers")

    def leaf(seconds):
        clock.advance(seconds)

    def middle():
        clock.advance(1.0)
        module.leaf(1.0)
        clock.advance(1.0)

    def outer():
        clock.advance(2.0)
        module.leaf(3.0)
        clock.advance(1.0)
        module.middle()
        clock.advance(0.5)

    module.leaf, module.middle, module.outer = leaf, middle, outer
    with tracer:
        for name in ("leaf", "middle", "outer"):
            tracer.wrap(module, name, name)
        module.outer()
    assert tracer.inclusive["outer"] == pytest.approx(9.5)
    assert tracer.self_time["outer"] == pytest.approx(3.5)
    assert tracer.self_time["middle"] == pytest.approx(2.0)
    assert tracer.inclusive["middle"] == pytest.approx(3.0)
    assert tracer.self_time["leaf"] == pytest.approx(4.0)
    assert sum(tracer.self_time.values()) == pytest.approx(tracer.inclusive["outer"])


def test_coverage_counts_only_root_self_time_as_unattributed():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    with tracer.span("bench.run"):
        clock.advance(0.5)
        with tracer.span("api.run"):
            clock.advance(1.0)
            with tracer.span("engine.batch"):
                clock.advance(8.5)
    metrics = per_layer_metrics(tracer, wall_s=10.0)
    assert metrics["api.unattributed_s"] == pytest.approx(1.5)
    assert metrics["engine.batch_s"] == pytest.approx(8.5)
    assert metrics["trace.coverage"] == pytest.approx(0.85)


@pytest.mark.parametrize(
    "n, expected",
    [(0, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0),
     (1000, 99.0), (9999, 99.0), (10000, 99.9), (100000, 99.99)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected


@pytest.mark.parametrize("n", [20, 150, 1000, 1200, 5000, 12345])
def test_tail_percentile_on_synthetic_latencies(n):
    rng = np.random.default_rng(n)
    latencies = rng.lognormal(mean=0.0, sigma=1.0, size=n)
    percentile = tail_percentile(n)
    cut = np.percentile(latencies, percentile)
    assert np.sum(latencies > cut) >= 10
    # The next step up the ladder would leave fewer than ten beyond it.
    ladder = (50.0, 90.0, 99.0, 99.9, 99.99, 99.999)
    higher = ladder[ladder.index(percentile) + 1]
    assert n * (100.0 - higher) / 100.0 < 10 - 1e-9


def _slice(host, tick, value=1.0):
    return types.SimpleNamespace(
        host=host, tick=tick, values={"a": value, "b": 2.0}, sigma={"a": 0.1, "b": 0.2}
    )


def test_round_latency_charges_each_slice_from_its_round_start():
    slices = [_slice(h, t) for t in (0, 1) for h in ("x", "y")] + [_slice("x", 2)]
    asked = [0.0, 1.0, 1.1, 1.2, 2.0]
    got = [1.0, 1.1, 1.2, 1.3, 2.5]
    latencies = round_latencies_ms(slices, asked, got, round_ticks=2)
    assert latencies == pytest.approx([1000.0, 1100.0, 1200.0, 1300.0, 500.0])
    online = [_slice("x", 0), _slice("x", 1)]
    single = round_latencies_ms(online, [0.0, 1.0], [0.5, 1.25], round_ticks=1)
    assert single == pytest.approx([500.0, 250.0])


def test_digest_is_order_independent_and_value_sensitive():
    slices = [_slice("x", 0), _slice("y", 0), _slice("x", 1)]
    digest, finite = digest_slices(slices)
    assert finite
    assert digest_slices(list(reversed(slices)))[0] == digest
    assert digest_slices([_slice("x", 0, 1.0 + 1e-12)] + slices[1:])[0] != digest
    assert not digest_slices([_slice("x", 0, math.nan)])[1]


def test_accuracy_instances_pool_into_one_uncapped_fleet_mean():
    accuracy = Accuracy(
        digest="d", finite=True, n_slices=1, errors={"bayesperf": [10.0], "linux": [50.0]}
    )
    accuracy.merge(
        Accuracy(digest="e", finite=True, n_slices=1, errors={"bayesperf": [250.0], "linux": [70.0]})
    )
    assert accuracy.mean_percent("bayesperf") == 130.0
    assert accuracy.mean_percent("linux") == 60.0
    assert accuracy.reduction_x == 60.0 / 130.0
