"""Telemetry sampler: time series, JSONL stream, Prometheus export."""

import json
import time

from repro.obs import Recorder
from repro.obs.metrics import MetricsRegistry
from repro.obs.schema import load_schema, validate
from repro.obs.telemetry import (
    TelemetrySampler,
    lint_prometheus,
    read_telemetry_jsonl,
    render_sample,
    to_prometheus,
)


class FakeClock:
    def __init__(self):
        self.t = 100.0

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


def test_samples_capture_counters_rates_and_gauges():
    reg = MetricsRegistry()
    clock = FakeClock()
    sampler = TelemetrySampler(reg, clock=clock)

    reg.inc("nvm.writeback.lines", 10, buffer="y")
    first = sampler.sample()
    assert first.dt is None and first.rates == {}
    assert first.counters == {"nvm.writeback.lines{buffer=y}": 10.0}

    clock.advance(2.0)
    reg.inc("nvm.writeback.lines", 30, buffer="y")
    reg.set_gauge("service.queue.depth", 3)
    second = sampler.sample()
    assert second.dt == 2.0
    assert second.rates == {"nvm.writeback.lines{buffer=y}": 15.0}
    assert second.gauges == {"service.queue.depth": 3.0}

    # unchanged counters produce no rate entry
    clock.advance(1.0)
    third = sampler.sample()
    assert third.rates == {}

    assert sampler.series("counters", "nvm.writeback.lines{buffer=y}") \
        == [(0.0, 10.0), (2.0, 40.0), (3.0, 40.0)]


def test_ring_buffer_caps_history():
    reg = MetricsRegistry()
    clock = FakeClock()
    sampler = TelemetrySampler(reg, capacity=4, clock=clock)
    for i in range(10):
        reg.inc("a")
        clock.advance(1.0)
        sampler.sample()
    assert len(sampler.samples) == 4
    assert sampler.latest().seq == 9
    assert sampler.samples[0].seq == 6


def test_gauge_providers_run_before_each_sample():
    reg = MetricsRegistry()
    calls = []

    def provider(metrics):
        calls.append(True)
        metrics.set_gauge("walked.gauge", len(calls))

    sampler = TelemetrySampler(reg, gauge_providers=[provider],
                               clock=FakeClock())
    sampler.sample()
    sampler.sample()
    assert len(calls) == 2
    assert sampler.latest().gauges["walked.gauge"] == 2.0


def test_jsonl_stream_round_trips_and_validates(tmp_path):
    path = tmp_path / "telemetry.jsonl"
    reg = MetricsRegistry()
    clock = FakeClock()
    sampler = TelemetrySampler(reg, jsonl_path=path, clock=clock)
    reg.inc("harness.rounds", 2, phase="launch")
    reg.observe("time.launch.ms", 4.0)
    sampler.sample()
    clock.advance(1.0)
    reg.inc("harness.rounds", 1, phase="launch")
    sampler.sample()
    sampler.close()

    docs = read_telemetry_jsonl(path)
    assert [d["seq"] for d in docs] == [0, 1]
    schema = load_schema("telemetry")
    for doc in docs:
        validate(doc, schema)
    assert docs[1]["rates"] == {"harness.rounds{phase=launch}": 1.0}


def test_jsonl_reader_tolerates_torn_final_line(tmp_path):
    path = tmp_path / "telemetry.jsonl"
    reg = MetricsRegistry()
    sampler = TelemetrySampler(reg, jsonl_path=path, clock=FakeClock())
    reg.inc("a")
    sampler.sample()
    sampler.close()
    # simulate a SIGKILL mid-write of the next sample
    with open(path, "a") as fh:
        fh.write('{"seq": 1, "t": 2.0, "coun')
    docs = read_telemetry_jsonl(path)
    assert len(docs) == 1 and docs[0]["seq"] == 0


def test_background_thread_samples_and_stops():
    reg = MetricsRegistry()
    sampler = TelemetrySampler(reg, interval=0.01)
    reg.inc("bg.counter", 5)
    with sampler:
        deadline = time.monotonic() + 2.0
        while not sampler.samples and time.monotonic() < deadline:
            time.sleep(0.005)
    assert sampler.samples, "background thread never sampled"
    # stop() takes a final sample and the thread is gone
    n = len(sampler.samples)
    time.sleep(0.05)
    assert len(sampler.samples) == n
    sampler.close()


def test_sampler_retries_racing_snapshot():
    class FlakyRegistry(MetricsRegistry):
        def __init__(self):
            super().__init__()
            self.failures = 2

        def snapshot(self):
            if self.failures:
                self.failures -= 1
                raise RuntimeError("dictionary changed size during "
                                   "iteration")
            return super().snapshot()

    reg = FlakyRegistry()
    reg.inc("a", 3)
    sampler = TelemetrySampler(reg, clock=FakeClock())
    assert sampler.sample().counters == {"a": 3.0}


def test_recorder_carries_optional_sampler():
    rec = Recorder(metrics=MetricsRegistry())
    assert rec.sampler is None
    rec.sampler = TelemetrySampler(rec.metrics, clock=FakeClock())
    rec.metrics.inc("x")
    rec.sampler.sample()
    assert rec.sampler.latest().counters == {"x": 1.0}


# ---------------------------------------------------------------------------
# Prometheus text exposition.


def _sample_snapshot():
    reg = MetricsRegistry()
    reg.inc("nvm.writeback.lines", 12, buffer="spmv_y", reason="eviction")
    reg.inc("device.launches", 2, mode="NORMAL")
    reg.set_gauge("service.queue.capacity", 4096)
    for v in (1.0, 2.0, 3.0, 10.0):
        reg.observe("time.launch.ms", v)
    return reg.snapshot()


def test_prometheus_rendering_families():
    text = to_prometheus(_sample_snapshot())
    assert "# TYPE repro_nvm_writeback_lines_total counter" in text
    assert ('repro_nvm_writeback_lines_total'
            '{buffer="spmv_y",reason="eviction"} 12.0') in text
    assert "# TYPE repro_service_queue_capacity gauge" in text
    assert "# TYPE repro_time_launch_ms summary" in text
    assert 'repro_time_launch_ms{quantile="0.5"}' in text
    assert "repro_time_launch_ms_sum 16.0" in text
    assert "repro_time_launch_ms_count 4" in text


def test_prometheus_lint_accepts_own_output():
    assert lint_prometheus(to_prometheus(_sample_snapshot())) == []
    # a TelemetrySample dict renders and lints too
    reg = MetricsRegistry()
    sampler = TelemetrySampler(reg, clock=FakeClock())
    reg.inc("a.b", 1)
    doc = sampler.sample().to_dict()
    assert lint_prometheus(to_prometheus(doc)) == []


def test_prometheus_lint_catches_malformations():
    assert lint_prometheus("repro_orphan_total 1\n")
    assert lint_prometheus("# TYPE repro_x counter\n"
                           "repro_x_total not-a-number\n")
    assert lint_prometheus("# TYPE repro_x bogus-kind\n")
    bad_quantile = ("# TYPE repro_h summary\n"
                    'repro_h{quantile="1.5"} 3.0\n')
    assert lint_prometheus(bad_quantile)
    dup = "# TYPE repro_x counter\n# TYPE repro_x counter\n"
    assert lint_prometheus(dup)


def test_prometheus_sanitizes_names_and_labels():
    snap = {"counters": {"weird.name-with+chars{label-x=v.1}": 1.0},
            "gauges": {}, "histograms": {}}
    text = to_prometheus(snap)
    assert "repro_weird_name_with_chars_total" in text
    assert 'label_x="v.1"' in text
    assert lint_prometheus(text) == []


def test_render_sample_is_humane():
    reg = MetricsRegistry()
    clock = FakeClock()
    sampler = TelemetrySampler(reg, clock=clock)
    reg.inc("a.rate", 10)
    sampler.sample()
    clock.advance(1.0)
    reg.inc("a.rate", 5)
    reg.set_gauge("g.x", 2.5)
    reg.observe("h.ms", 7.0)
    doc = sampler.sample().to_dict()
    text = render_sample(doc)
    assert "a.rate" in text and "g.x" in text and "h.ms" in text
    assert "p95" in text
    assert json.loads(json.dumps(doc)) == doc
