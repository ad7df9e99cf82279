"""Metrics registry: naming, snapshots, the commutative projection."""

import json

from repro.obs.metrics import (
    HistogramSummary,
    MetricsRegistry,
    NullMetrics,
    commutative_view,
    diff_counters,
    format_name,
)


def test_format_name_sorts_labels():
    assert format_name("nvm.writeback.lines",
                       {"reason": "eviction", "buffer": "y"}) \
        == "nvm.writeback.lines{buffer=y,reason=eviction}"
    assert format_name("device.launches", {}) == "device.launches"


def test_counters_accumulate_per_series():
    reg = MetricsRegistry()
    reg.inc("table.insert.count", table="cuckoo")
    reg.inc("table.insert.count", 2, table="cuckoo")
    reg.inc("table.insert.count", table="quadratic")
    assert reg.value("table.insert.count", table="cuckoo") == 3.0
    assert reg.value("table.insert.count", table="quadratic") == 1.0
    assert reg.value("table.insert.count", table="global_array") == 0.0


def test_snapshot_is_sorted_and_deterministic():
    def record(reg):
        reg.inc("b.second")
        reg.inc("a.first", 4)
        reg.set_gauge("cache.dirty", 7, buffer="y")
        reg.observe("time.launch.ms", 1.5)
        reg.observe("time.launch.ms", 2.5)

    reg_a, reg_b = MetricsRegistry(), MetricsRegistry()
    record(reg_a)
    record(reg_b)
    snap = reg_a.snapshot()
    assert json.dumps(snap) == json.dumps(reg_b.snapshot())
    assert list(snap["counters"]) == ["a.first", "b.second"]
    hist = snap["histograms"]["time.launch.ms"]
    assert {k: hist[k] for k in ("count", "sum", "min", "max", "mean")} \
        == {"count": 2, "sum": 4.0, "min": 1.5, "max": 2.5, "mean": 2.0}
    assert set(hist) == {"count", "sum", "min", "max", "mean",
                         "p50", "p95", "p99"}


def test_null_metrics_drops_everything():
    reg = NullMetrics()
    reg.inc("x")
    reg.set_gauge("y", 1)
    reg.observe("z", 2)
    assert not reg.active
    assert reg.snapshot() == {"counters": {}, "gauges": {},
                              "histograms": {}}


# ---------------------------------------------------------------------------
# The engine-invariant projection.


def test_commutative_view_drops_order_sensitive_series():
    reg = MetricsRegistry()
    reg.inc("nvm.writeback.lines", 5, buffer="y", reason="eviction")
    reg.inc("time.launch.us", 120)
    reg.inc("engine.scheduling.groups", 4, engine="batched")
    view = commutative_view(reg.snapshot())
    assert view == {
        "nvm.writeback.lines{buffer=y,reason=eviction}": 5.0,
    }


def test_commutative_view_normalizes_engine_label():
    serial, batched = MetricsRegistry(), MetricsRegistry()
    serial.inc("engine.blocks.completed", 16, engine="serial")
    batched.inc("engine.blocks.completed", 16, engine="batched")
    assert commutative_view(serial.snapshot()) \
        == commutative_view(batched.snapshot()) \
        == {"engine.blocks.completed{engine=*}": 16.0}


def test_commutative_view_excludes_gauges_and_histograms():
    reg = MetricsRegistry()
    reg.set_gauge("cache.dirty", 9)
    reg.observe("time.launch.ms", 3.0)
    assert commutative_view(reg.snapshot()) == {}


def test_diff_counters():
    reg = MetricsRegistry()
    reg.inc("a", 2)
    before = reg.snapshot()
    reg.inc("a", 3)
    reg.inc("b", 1)
    assert diff_counters(before, reg.snapshot()) == {"a": 3.0, "b": 1.0}
    assert diff_counters(reg.snapshot(), reg.snapshot()) == {}


# ---------------------------------------------------------------------------
# Histogram quantiles: bucketed estimates vs exact numpy percentiles.


def _parity_case(data, rel_tol=0.05):
    import numpy as np

    hist = HistogramSummary()
    for v in data:
        hist.observe(float(v))
    span = (hist.maximum - hist.minimum) or 1.0
    for q, key in ((50, "p50"), (95, "p95"), (99, "p99")):
        true = float(np.percentile(data, q))
        est = hist.to_dict()[key]
        # 8 %-wide log buckets put the midpoint within ~4 % of the
        # true value; scale by the value (or the range near zero)
        scale = max(abs(true), span / 100)
        assert abs(est - true) <= rel_tol * scale, (
            f"p{q}: estimate {est} vs numpy {true}"
        )
        assert hist.minimum <= est <= hist.maximum


def test_quantiles_match_numpy_uniform():
    import numpy as np

    rng = np.random.default_rng(7)
    _parity_case(rng.uniform(0.5, 100.0, 4000))


def test_quantiles_match_numpy_lognormal():
    import numpy as np

    rng = np.random.default_rng(11)
    _parity_case(rng.lognormal(2.0, 1.5, 4000))


def test_quantiles_match_numpy_negative_and_mixed():
    import numpy as np

    rng = np.random.default_rng(13)
    _parity_case(-rng.lognormal(1.0, 1.0, 4000))
    mixed = np.concatenate([rng.normal(0.0, 50.0, 3000), np.zeros(200)])
    _parity_case(mixed)


def test_quantiles_match_numpy_tiny_magnitudes():
    import numpy as np

    rng = np.random.default_rng(17)
    _parity_case(rng.uniform(1e-9, 1e-6, 2000))


def test_quantile_edge_cases():
    empty = HistogramSummary()
    assert empty.quantile(0.5) == 0.0
    assert empty.to_dict()["p99"] == 0.0

    single = HistogramSummary()
    single.observe(42.0)
    assert single.quantile(0.0) == 42.0
    assert single.quantile(1.0) == 42.0

    zeros = HistogramSummary()
    for _ in range(10):
        zeros.observe(0.0)
    assert zeros.quantile(0.5) == 0.0


# ---------------------------------------------------------------------------
# commutative_view / diff_counters edge cases.


def test_commutative_view_label_normalization_collision():
    """Two engine-labelled series collapse to one: values must sum."""
    reg = MetricsRegistry()
    reg.inc("engine.blocks.completed", 10, engine="serial")
    reg.inc("engine.blocks.completed", 6, engine="batched")
    view = commutative_view(reg.snapshot())
    assert view == {"engine.blocks.completed{engine=*}": 16.0}


def test_commutative_view_collision_keeps_other_labels_distinct():
    reg = MetricsRegistry()
    reg.inc("table.insert.count", 3, table="cuckoo", engine="serial")
    reg.inc("table.insert.count", 4, table="quadratic", engine="serial")
    view = commutative_view(reg.snapshot())
    assert view == {
        "table.insert.count{engine=*,table=cuckoo}": 3.0,
        "table.insert.count{engine=*,table=quadratic}": 4.0,
    }


def test_diff_counters_negative_delta_after_registry_reset():
    """A fresh registry 'rewinds' counters: deltas go negative, not 0."""
    old = MetricsRegistry()
    old.inc("lp.validate.blocks", 100)
    before = old.snapshot()
    fresh = MetricsRegistry()
    fresh.inc("lp.validate.blocks", 25)
    diff = diff_counters(before, fresh.snapshot())
    assert diff == {"lp.validate.blocks": -75.0}


def test_diff_counters_empty_snapshots():
    reg = MetricsRegistry()
    reg.inc("a", 1)
    empty = MetricsRegistry().snapshot()
    assert diff_counters(empty, empty) == {}
    assert diff_counters(reg.snapshot(), empty) == {}
    assert diff_counters(empty, reg.snapshot()) == {"a": 1.0}
    # diff is also defined on bare dicts missing the "counters" key
    assert diff_counters({}, {}) == {}


def test_diff_counters_vanished_series_is_not_reported():
    """diff iterates *after*: a series absent after simply drops out."""
    before = {"counters": {"gone": 5.0, "kept": 1.0}}
    after = {"counters": {"kept": 4.0}}
    assert diff_counters(before, after) == {"kept": 3.0}
