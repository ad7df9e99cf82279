"""Sampling telemetry: the metrics registry as ring-buffered time series.

The flight recorder's :class:`~repro.obs.metrics.MetricsRegistry` is a
run-final artifact — one snapshot when the run ends. Long-running
consumers (the planned MegaKV service daemon, adaptive persistency-model
selection, a human watching a crash-test grind) need the *trajectory*:
counters as rates, gauges over time, histogram quantiles per window.

:class:`TelemetrySampler` periodically snapshots a registry into a
bounded ring of :class:`TelemetrySample` records, each holding the raw
counters, per-second rates against the previous sample, gauges, and
histogram summaries (with the p50/p95/p99 estimates the log-bucketed
:class:`~repro.obs.metrics.HistogramSummary` provides). Samples can
stream to a JSONL file — one flushed line each, so a SIGKILLed process
leaves every completed sample readable (`repro watch` tails exactly
this file) — and any sample renders to Prometheus text-exposition
format via :func:`to_prometheus`, linted dependency-free by
:func:`lint_prometheus`.

Sampling can be driven two ways, composable:

* a background daemon thread (:meth:`start` / :meth:`stop`), for live
  `repro run --telemetry`;
* explicit :meth:`sample` calls at known-good instants — the crash
  harness flushes one sample per round, so the series brackets every
  kill.

The sampler never locks the registry: the hot path stays lock-free,
and the sampler retries the (rare) snapshot that races a dict resize.
"""

from __future__ import annotations

import json
import re
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

#: Default ring capacity: 10 minutes of 1 s samples.
DEFAULT_CAPACITY = 600

#: Attempts at snapshotting a registry that is being mutated.
_SNAPSHOT_RETRIES = 8


@dataclass
class TelemetrySample:
    """One instant of the registry, with rates vs the previous sample."""

    seq: int
    #: Seconds since the sampler was created.
    t: float
    #: Seconds since the previous sample (``None`` for the first).
    dt: float | None
    counters: dict[str, float]
    #: Per-second counter deltas vs the previous sample (absent series
    #: count from 0). Empty for the first sample — there is no window.
    rates: dict[str, float]
    gauges: dict[str, float]
    histograms: dict[str, dict] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "seq": self.seq,
            "t": self.t,
            "dt": self.dt,
            "counters": dict(self.counters),
            "rates": dict(self.rates),
            "gauges": dict(self.gauges),
            "histograms": {k: dict(v) for k, v in self.histograms.items()},
        }


class TelemetrySampler:
    """Periodic registry snapshots into a bounded time-series ring.

    ``gauge_providers`` are callables invoked (with the registry) right
    before each snapshot — the hook for state that is only observable
    by walking something (e.g. the daemon's queue depth) rather than
    pushed at an event site.
    """

    def __init__(self, metrics, interval: float = 1.0,
                 capacity: int = DEFAULT_CAPACITY,
                 jsonl_path: str | Path | None = None,
                 gauge_providers=(), clock=time.monotonic) -> None:
        self.metrics = metrics
        self.interval = float(interval)
        self.samples: deque[TelemetrySample] = deque(maxlen=capacity)
        self.gauge_providers = list(gauge_providers)
        self._clock = clock
        self._epoch = clock()
        self._seq = 0
        self._prev: TelemetrySample | None = None
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._jsonl_path = Path(jsonl_path) if jsonl_path else None
        self._jsonl = open(self._jsonl_path, "w") if self._jsonl_path \
            else None

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------

    def _snapshot(self) -> dict:
        """Registry snapshot, retried across concurrent mutation."""
        for _ in range(_SNAPSHOT_RETRIES - 1):
            try:
                return self.metrics.snapshot()
            except RuntimeError:
                # the run thread resized a series dict mid-iteration;
                # the next try sees a consistent state
                continue
        return self.metrics.snapshot()

    def sample(self) -> TelemetrySample:
        """Take one sample now (thread-safe; callable from anywhere)."""
        with self._lock:
            for provider in self.gauge_providers:
                provider(self.metrics)
            snap = self._snapshot()
            now = self._clock() - self._epoch
            prev = self._prev
            rates: dict[str, float] = {}
            dt = None
            if prev is not None:
                dt = now - prev.t
                if dt > 0:
                    for key, value in snap["counters"].items():
                        delta = value - prev.counters.get(key, 0.0)
                        if delta:
                            rates[key] = delta / dt
            sample = TelemetrySample(
                seq=self._seq, t=now, dt=dt,
                counters=snap["counters"], rates=rates,
                gauges=snap["gauges"], histograms=snap["histograms"],
            )
            self._seq += 1
            self._prev = sample
            self.samples.append(sample)
            if self._jsonl is not None:
                self._jsonl.write(json.dumps(sample.to_dict()) + "\n")
                self._jsonl.flush()
            return sample

    def latest(self) -> TelemetrySample | None:
        return self.samples[-1] if self.samples else None

    def series(self, kind: str, name: str) -> list[tuple[float, float]]:
        """One series' trajectory: ``[(t, value), ...]``.

        ``kind`` is ``"counters"``, ``"rates"`` or ``"gauges"``; absent
        samples are skipped.
        """
        out = []
        for s in self.samples:
            store = getattr(s, kind)
            if name in store:
                out.append((s.t, store[name]))
        return out

    # ------------------------------------------------------------------
    # Background thread
    # ------------------------------------------------------------------

    def start(self) -> "TelemetrySampler":
        """Start the daemon sampling thread (idempotent)."""
        if self._thread is None or not self._thread.is_alive():
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._run, name="repro-telemetry", daemon=True)
            self._thread.start()
        return self

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self.sample()

    def stop(self, final_sample: bool = True) -> None:
        """Stop the thread; by default flush one last sample."""
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=5.0)
            self._thread = None
        if final_sample:
            self.sample()

    def close(self) -> None:
        self.stop(final_sample=False)
        if self._jsonl is not None and not self._jsonl.closed:
            self._jsonl.close()

    def __enter__(self) -> "TelemetrySampler":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
        self.close()


def read_telemetry_jsonl(path: str | Path) -> list[dict]:
    """Load a sampler's JSONL stream (tolerating a torn final line)."""
    out = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                out.append(json.loads(line))
            except json.JSONDecodeError:
                # a SIGKILL can tear the in-flight line; every earlier
                # line was flushed whole
                continue
    return out


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------

_NAME_SANITIZE = re.compile(r"[^a-zA-Z0-9_:]")
_LABEL_SANITIZE = re.compile(r"[^a-zA-Z0-9_]")


def _split_series(key: str) -> tuple[str, dict[str, str]]:
    """``name{k=v,...}`` series key -> (name, labels)."""
    if "{" not in key:
        return key, {}
    name, _, inner = key.partition("{")
    labels = {}
    for pair in inner.rstrip("}").split(","):
        k, _, v = pair.partition("=")
        labels[k] = v
    return name, labels


def _prom_name(name: str, suffix: str = "") -> str:
    return "repro_" + _NAME_SANITIZE.sub("_", name) + suffix


def _prom_labels(labels: dict[str, str], extra: dict[str, str] | None
                 = None) -> str:
    merged = dict(labels)
    if extra:
        merged.update(extra)
    if not merged:
        return ""
    inner = ",".join(
        f'{_LABEL_SANITIZE.sub("_", k)}="{v}"'
        for k, v in sorted(merged.items())
    )
    return "{" + inner + "}"


def _format_value(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    return repr(float(value))


def to_prometheus(snapshot: dict) -> str:
    """Render a metrics snapshot (or sample) in text-exposition format.

    Accepts either a raw ``MetricsRegistry.snapshot()`` dict or a
    :class:`TelemetrySample` ``to_dict()``. Counters become
    ``repro_<name>_total`` counter families, gauges plain gauges, and
    histogram summaries Prometheus *summaries* (quantile-labelled
    samples plus ``_sum``/``_count``). Metric names are sanitized to
    the Prometheus grammar; series labels carry over.
    """
    lines: list[str] = []
    typed: set[str] = set()

    def emit_type(family: str, kind: str) -> None:
        if family not in typed:
            lines.append(f"# TYPE {family} {kind}")
            typed.add(family)

    for key in sorted(snapshot.get("counters", {})):
        name, labels = _split_series(key)
        family = _prom_name(name, "_total")
        emit_type(family, "counter")
        lines.append(f"{family}{_prom_labels(labels)} "
                     f"{_format_value(snapshot['counters'][key])}")

    for key in sorted(snapshot.get("gauges", {})):
        name, labels = _split_series(key)
        family = _prom_name(name)
        emit_type(family, "gauge")
        lines.append(f"{family}{_prom_labels(labels)} "
                     f"{_format_value(snapshot['gauges'][key])}")

    for key in sorted(snapshot.get("histograms", {})):
        name, labels = _split_series(key)
        hist = snapshot["histograms"][key]
        family = _prom_name(name)
        emit_type(family, "summary")
        for q, pkey in (("0.5", "p50"), ("0.95", "p95"), ("0.99", "p99")):
            if pkey in hist:
                qlabels = _prom_labels(labels, {"quantile": q})
                lines.append(f"{family}{qlabels} "
                             f"{_format_value(hist[pkey])}")
        lines.append(f"{family}_sum{_prom_labels(labels)} "
                     f"{_format_value(hist['sum'])}")
        lines.append(f"{family}_count{_prom_labels(labels)} "
                     f"{_format_value(hist['count'])}")

    return "\n".join(lines) + "\n" if lines else ""


_PROM_TYPE_RE = re.compile(
    r"^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) "
    r"(counter|gauge|summary|histogram|untyped)$"
)
_PROM_SAMPLE_RE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(\{[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\""
    r"(,[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\")*\})?"
    r" (NaN|[+-]Inf|-?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?)"
    r"( [0-9]+)?$"
)


def lint_prometheus(text: str) -> list[str]:
    """Line-level lint of text-exposition output; returns problems.

    Dependency-free on purpose (no ``prometheus_client`` in CI): checks
    line grammar, that every sample belongs to a ``# TYPE``-declared
    family, and that summary ``quantile`` labels are numbers in [0, 1].
    An empty list means the text parses clean.
    """
    problems: list[str] = []
    families: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            if line.startswith("# TYPE "):
                m = _PROM_TYPE_RE.match(line)
                if not m:
                    problems.append(f"line {lineno}: malformed TYPE line")
                    continue
                name, kind = m.group(1), m.group(2)
                if name in families:
                    problems.append(
                        f"line {lineno}: duplicate TYPE for {name}")
                families[name] = kind
            # other comments (HELP, plain) are legal and unchecked
            continue
        m = _PROM_SAMPLE_RE.match(line)
        if not m:
            problems.append(f"line {lineno}: malformed sample: {line!r}")
            continue
        name = m.group(1)
        base = name
        for suffix in ("_total", "_sum", "_count", "_bucket"):
            if name.endswith(suffix) and name[:-len(suffix)] in families:
                base = name[:-len(suffix)]
                break
        if base not in families and name not in families:
            problems.append(
                f"line {lineno}: sample {name} has no preceding TYPE")
            continue
        labels = m.group(2) or ""
        qm = re.search(r'quantile="([^"]*)"', labels)
        if qm:
            try:
                q = float(qm.group(1))
            except ValueError:
                q = -1.0
            if not 0.0 <= q <= 1.0:
                problems.append(
                    f"line {lineno}: quantile {qm.group(1)!r} outside "
                    "[0, 1]")
    return problems


# ----------------------------------------------------------------------
# Live view rendering (`repro watch`)
# ----------------------------------------------------------------------

def render_sample(sample: dict, top: int = 12) -> str:
    """Human one-screen rendering of one JSONL telemetry sample."""
    lines = [
        f"sample #{sample.get('seq', '?')}  "
        f"t={sample.get('t', 0.0):.2f}s"
        + (f"  dt={sample['dt']:.2f}s" if sample.get("dt") else ""),
    ]
    rates = sample.get("rates", {})
    if rates:
        lines.append("  rates (/s):")
        ranked = sorted(rates.items(), key=lambda kv: -abs(kv[1]))
        for key, value in ranked[:top]:
            lines.append(f"    {key:<56} {value:12.1f}")
    gauges = sample.get("gauges", {})
    if gauges:
        lines.append("  gauges:")
        for key in sorted(gauges)[:top]:
            lines.append(f"    {key:<56} {gauges[key]:12.3f}")
    hists = sample.get("histograms", {})
    if hists:
        lines.append("  histograms:")
        for key in sorted(hists)[:top]:
            h = hists[key]
            lines.append(
                f"    {key:<44} n={h.get('count', 0):<7} "
                f"p50={h.get('p50', 0.0):.3g} "
                f"p95={h.get('p95', 0.0):.3g} "
                f"p99={h.get('p99', 0.0):.3g}"
            )
    if not (rates or gauges or hists):
        lines.append("  (no activity yet)")
    return "\n".join(lines)
