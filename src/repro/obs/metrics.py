"""Metrics registry for the flight recorder (`repro.obs`).

One registry of counters, gauges and histograms with *stable names* and
labels, replacing the pattern where every layer invents its own stats
object and every consumer hand-copies fields. Instrumented layers call
``inc``/``set_gauge``/``observe`` at the authoritative event site (a
line written back, a table probe colliding, a block completing); the
registry is then queryable as one JSON-serializable snapshot.

Naming convention
-----------------

``<layer>.<event>[.<unit>]`` with labels in braces, e.g.::

    nvm.writeback.lines{buffer=spmv_y,reason=eviction}
    table.insert.collisions{table=quadratic}
    engine.blocks.completed{engine=serial}

The full registry is documented in ``docs/observability.md``.

Engine invariance
-----------------

Launch engines are bit-identical on memory, write statistics and table
contents (``tests/gpu/test_engines.py``), so every *commutative*
counter must also be bit-identical across engines. The exemptions —
counters that legitimately depend on scheduling or wall clock — are
pinned here in :data:`ORDER_SENSITIVE_PREFIXES` and enforced through
:func:`commutative_view`, which is what the invariance tests compare.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

#: Metric-name prefixes exempt from cross-engine bit-identity:
#:
#: * ``time.`` — wall-clock observations; never deterministic.
#: * ``engine.scheduling.`` — how an engine carved the launch into
#:   groups is the engine's own business (serial has no groups).
#: * ``engine.fallbacks`` — launches a vectorizing engine ran per block
#:   instead; the serial engine has no fast path to fall back from.
#: * ``service.window.ms`` — the KV daemon's per-window wall clock.
#:
#: Everything else must match across the serial and batched engines.
ORDER_SENSITIVE_PREFIXES = ("time.", "engine.scheduling.",
                            "engine.fallbacks", "service.window.ms")

#: Labels whose *values* are identity, not semantics: the ``engine``
#: label names which engine ran the launch, and differs by construction
#: across an invariance comparison. :func:`commutative_view` normalizes
#: them to ``*``.
IDENTITY_LABELS = ("engine",)


def format_name(name: str, labels: dict) -> str:
    """Canonical ``name{k=v,...}`` series key with sorted labels."""
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


#: Geometric growth factor of the histogram buckets. Each bucket spans
#: an 8 % value range, so a quantile estimate is within ~4 % of the
#: true value (the bucket's geometric midpoint is reported).
BUCKET_BASE = 1.08

_LOG_BASE = math.log(BUCKET_BASE)


def _bucket_index(magnitude: float) -> int:
    """Log-spaced bucket id of a positive magnitude."""
    return math.floor(math.log(magnitude) / _LOG_BASE)


def _bucket_midpoint(index: int) -> float:
    """Geometric midpoint of bucket ``index`` — the reported estimate."""
    return BUCKET_BASE ** (index + 0.5)


@dataclass
class HistogramSummary:
    """Streaming summary of one histogram series.

    Beyond count/sum/min/max/mean, observations land in log-spaced
    buckets (8 % relative width, constant memory in the value range)
    so :meth:`quantile` can estimate p50/p95/p99 without retaining the
    samples. Signed values are handled by keeping separate magnitude
    stores for negative, zero and positive observations.
    """

    count: int = 0
    total: float = 0.0
    minimum: float = float("inf")
    maximum: float = float("-inf")
    _zeros: int = 0
    _pos: dict[int, int] = field(default_factory=dict)
    _neg: dict[int, int] = field(default_factory=dict)

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value
        if value > 0.0:
            idx = _bucket_index(value)
            self._pos[idx] = self._pos.get(idx, 0) + 1
        elif value < 0.0:
            idx = _bucket_index(-value)
            self._neg[idx] = self._neg.get(idx, 0) + 1
        else:
            self._zeros += 1

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile (0 ≤ q ≤ 1) from the buckets.

        Walks the cumulative distribution — negative buckets from the
        most negative magnitude down, then zeros, then positive buckets
        up — and returns the owning bucket's geometric midpoint,
        clipped to the exact observed [min, max]. Empty summaries
        estimate 0.0.
        """
        if not self.count:
            return 0.0
        rank = q * (self.count - 1)
        seen = 0.0
        for idx in sorted(self._neg, reverse=True):
            seen += self._neg[idx]
            if seen > rank:
                return self._clip(-_bucket_midpoint(idx))
        seen += self._zeros
        if seen > rank:
            return self._clip(0.0)
        for idx in sorted(self._pos):
            seen += self._pos[idx]
            if seen > rank:
                return self._clip(_bucket_midpoint(idx))
        return self.maximum

    def _clip(self, value: float) -> float:
        return min(max(value, self.minimum), self.maximum)

    @property
    def mean(self) -> float:
        """Mean observation (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.minimum,
            "max": self.maximum,
            "mean": self.mean,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }


class NullMetrics:
    """The zero-cost default registry: drops everything."""

    active = False

    def inc(self, name: str, value: float = 1.0, **labels) -> None:
        pass

    def set_gauge(self, name: str, value: float, **labels) -> None:
        pass

    def observe(self, name: str, value: float, **labels) -> None:
        pass

    def snapshot(self) -> dict:
        """An empty snapshot (nothing was recorded)."""
        return {"counters": {}, "gauges": {}, "histograms": {}}


class MetricsRegistry:
    """Live counters/gauges/histograms keyed by ``name{labels}``."""

    active = True

    def __init__(self) -> None:
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        self._histograms: dict[str, HistogramSummary] = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def inc(self, name: str, value: float = 1.0, **labels) -> None:
        """Add ``value`` to a monotonic counter series."""
        key = format_name(name, labels)
        self._counters[key] = self._counters.get(key, 0.0) + value

    def set_gauge(self, name: str, value: float, **labels) -> None:
        """Set a point-in-time gauge series."""
        self._gauges[format_name(name, labels)] = value

    def observe(self, name: str, value: float, **labels) -> None:
        """Record one observation into a histogram series."""
        key = format_name(name, labels)
        hist = self._histograms.get(key)
        if hist is None:
            hist = self._histograms[key] = HistogramSummary()
        hist.observe(value)

    # ------------------------------------------------------------------
    # Querying
    # ------------------------------------------------------------------

    def value(self, name: str, **labels) -> float:
        """Current value of one counter series (0.0 if never touched)."""
        return self._counters.get(format_name(name, labels), 0.0)

    def histogram(self, name: str, **labels) -> HistogramSummary:
        """One histogram series (an empty summary if never observed)."""
        return (self._histograms.get(format_name(name, labels))
                or HistogramSummary())

    def snapshot(self) -> dict:
        """The whole registry as one JSON-serializable dict.

        Series are sorted by name, so two snapshots of identical
        recordings are identical objects (and identical JSON).
        """
        return {
            "counters": {k: self._counters[k]
                         for k in sorted(self._counters)},
            "gauges": {k: self._gauges[k] for k in sorted(self._gauges)},
            "histograms": {k: self._histograms[k].to_dict()
                           for k in sorted(self._histograms)},
        }


def _normalize_series(key: str) -> str:
    """Rewrite identity-label values to ``*`` in a series key."""
    if "{" not in key:
        return key
    name, _, inner = key.partition("{")
    labels = []
    for pair in inner.rstrip("}").split(","):
        k, _, v = pair.partition("=")
        labels.append(f"{k}=*" if k in IDENTITY_LABELS else f"{k}={v}")
    return f"{name}{{{','.join(labels)}}}"


def commutative_view(snapshot: dict) -> dict[str, float]:
    """The engine-invariant projection of a metrics snapshot.

    Returns the counter series that must be bit-identical across launch
    engines: order-sensitive prefixes (:data:`ORDER_SENSITIVE_PREFIXES`)
    are dropped, identity labels (:data:`IDENTITY_LABELS`) normalized.
    Gauges and histograms are excluded wholesale — gauges are
    point-in-time and histograms record wall-clock shapes.
    """
    out: dict[str, float] = {}
    for key, value in snapshot.get("counters", {}).items():
        if key.startswith(ORDER_SENSITIVE_PREFIXES):
            continue
        norm = _normalize_series(key)
        out[norm] = out.get(norm, 0.0) + value
    return dict(sorted(out.items()))


def diff_counters(before: dict, after: dict) -> dict[str, float]:
    """Counter deltas between two snapshots (series absent before = 0)."""
    prev = before.get("counters", {})
    out = {}
    for key, value in after.get("counters", {}).items():
        delta = value - prev.get(key, 0.0)
        if delta:
            out[key] = delta
    return dict(sorted(out.items()))
