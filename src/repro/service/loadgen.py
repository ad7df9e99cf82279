"""Seeded load generator for the KV daemon.

Everything a client will do is decided before its first byte hits the
socket: :func:`plan_ops` derives each client's full request stream —
zipfian keys, op mix, values — from ``(seed, client index)`` alone, so
any two runs of ``bench-serve`` replay identical traffic (a unit test
pins the first keys and the op mix of seed 0). The threads then only
*execute* the plan, with a configurable pipeline depth, latency
accounting, and (for the crash harness) reconnect-and-retry-until-
acked semantics plus read-your-writes verification over per-client
disjoint key partitions.
"""

from __future__ import annotations

import collections
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ServiceError, ServiceUnavailableError
from repro.service.protocol import ServiceClient

#: Odd 64-bit constant (2**64 / golden ratio); multiplication by an
#: odd number is a bijection of Z/2**64, so scrambled ranks collide
#: exactly when the ranks do — and never produce the key 0 the store
#: reserves.
_SCRAMBLE = np.uint64(0x9E3779B97F4A7C15)


class ZipfianKeys:
    """Deterministic zipfian key stream over ``n_keys`` ranks.

    Rank ``r`` (1-based) is drawn with probability proportional to
    ``1 / r**theta`` — the YCSB-style skew MEGA-KV is evaluated under —
    then scrambled to a uint64 key so the hot keys don't cluster in
    the store's bucket space. ``rank_offset`` shifts the rank domain,
    giving clients disjoint key partitions (the scramble is a
    bijection, so disjoint ranks stay disjoint keys).
    """

    def __init__(self, n_keys: int, theta: float = 0.99,
                 rank_offset: int = 0) -> None:
        if n_keys <= 0:
            raise ServiceError("zipfian key space must be positive")
        self.n_keys = n_keys
        self.theta = theta
        self.rank_offset = rank_offset
        weights = 1.0 / np.arange(1, n_keys + 1, dtype=np.float64) ** theta
        self._cdf = np.cumsum(weights / weights.sum())

    def key_of(self, rank: int) -> int:
        """The uint64 key of a 1-based rank."""
        return ((rank + self.rank_offset) * int(_SCRAMBLE)) % (1 << 64)

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """``size`` keys, hot-first skewed, as a uint64 array."""
        ranks = np.searchsorted(self._cdf, rng.random(size)) + 1
        return (ranks.astype(np.uint64)
                + np.uint64(self.rank_offset)) * _SCRAMBLE


@dataclass
class LoadConfig:
    """One load run: N clients executing seeded plans."""

    clients: int = 4
    requests_per_client: int = 200
    key_space: int = 512
    theta: float = 0.99
    get_frac: float = 0.50
    put_frac: float = 0.40
    delete_frac: float = 0.10
    seed: int = 0
    #: Outstanding requests per client (1 = strict request/response).
    pipeline: int = 1
    timeout: float = 30.0
    #: Give each client a disjoint rank partition (enables verification).
    partition_keys: bool = False
    #: Crash-harness mode: reconnect on connection loss and re-send
    #: every un-acked request until it acks.
    retry_until_acked: bool = False
    #: How long reconnect attempts keep retrying (the daemon's restart
    #: window in the crash scenario).
    reconnect_wait_s: float = 60.0
    #: Verify GET responses against the client's own acked writes
    #: (requires partition_keys and pipeline == 1).
    verify: bool = False


def plan_ops(cfg: LoadConfig, client_idx: int) \
        -> list[tuple[str, int, int | None]]:
    """The full deterministic request plan of one client.

    Consumes the client's RNG in a fixed order (keys, ops, values), so
    the plan is a pure function of ``(cfg.seed, client_idx)`` and the
    shape parameters.
    """
    if not (0.999 < cfg.get_frac + cfg.put_frac + cfg.delete_frac < 1.001):
        raise ServiceError("op-mix fractions must sum to 1")
    rng = np.random.default_rng([cfg.seed, client_idx])
    offset = client_idx * cfg.key_space if cfg.partition_keys else 0
    zipf = ZipfianKeys(cfg.key_space, cfg.theta, rank_offset=offset)
    n = cfg.requests_per_client
    keys = zipf.draw(rng, n)
    mix = rng.random(n)
    values = rng.integers(1, 1 << 63, size=n, dtype=np.uint64)
    plan: list[tuple[str, int, int | None]] = []
    for i in range(n):
        key = int(keys[i])
        if mix[i] < cfg.get_frac:
            plan.append(("get", key, None))
        elif mix[i] < cfg.get_frac + cfg.put_frac:
            plan.append(("put", key, int(values[i])))
        else:
            plan.append(("delete", key, None))
    return plan


@dataclass
class _Pending:
    req_id: int
    op: tuple[str, int, int | None]
    t_sent: float


@dataclass
class ClientReport:
    """What one client thread observed."""

    client: int
    latencies_ms: list[float] = field(default_factory=list)
    ops: dict = field(default_factory=lambda: {"get": 0, "put": 0,
                                               "delete": 0})
    acked: int = 0
    shed: int = 0
    errors: int = 0
    reconnects: int = 0
    resent: int = 0
    verify_mismatches: list[dict] = field(default_factory=list)
    #: Final acked write per key (value, or ``None`` for a delete) —
    #: the client's expectation of durable state.
    expected: dict = field(default_factory=dict)
    failure: str | None = None


@dataclass
class LoadReport:
    """Aggregate of one :func:`run_load` invocation."""

    clients: list[ClientReport]
    wall_s: float

    @property
    def acked(self) -> int:
        return sum(c.acked for c in self.clients)

    @property
    def shed(self) -> int:
        return sum(c.shed for c in self.clients)

    @property
    def errors(self) -> int:
        return sum(c.errors for c in self.clients)

    @property
    def reconnects(self) -> int:
        return sum(c.reconnects for c in self.clients)

    @property
    def resent(self) -> int:
        return sum(c.resent for c in self.clients)

    @property
    def qps(self) -> float:
        return self.acked / self.wall_s if self.wall_s > 0 else 0.0

    def latencies_ms(self) -> list[float]:
        out: list[float] = []
        for c in self.clients:
            out.extend(c.latencies_ms)
        return out

    def percentile_ms(self, q: float) -> float | None:
        lats = sorted(self.latencies_ms())
        if not lats:
            return None
        idx = min(len(lats) - 1, int(q * (len(lats) - 1) + 0.5))
        return lats[idx]

    def expected_state(self) -> dict:
        """Merged per-client expectations (needs disjoint partitions)."""
        merged: dict = {}
        for c in self.clients:
            merged.update(c.expected)
        return merged

    def to_dict(self) -> dict:
        ops = {"get": 0, "put": 0, "delete": 0}
        for c in self.clients:
            for op, count in c.ops.items():
                ops[op] += count
        return {
            "clients": len(self.clients),
            "wall_s": self.wall_s,
            "qps": self.qps,
            "acked": self.acked,
            "shed": self.shed,
            "errors": self.errors,
            "reconnects": self.reconnects,
            "resent": self.resent,
            "ops": ops,
            "p50_ms": self.percentile_ms(0.50),
            "p99_ms": self.percentile_ms(0.99),
        }


def run_load(address, cfg: LoadConfig, deadline_s: float = 600.0) \
        -> LoadReport:
    """Execute every client's plan against a live daemon."""
    if cfg.verify and (not cfg.partition_keys or cfg.pipeline != 1):
        raise ServiceError(
            "verify mode needs partition_keys and pipeline=1 "
            "(read-your-writes is only exact for a serial client on "
            "its own keys)"
        )
    reports = [ClientReport(client=i) for i in range(cfg.clients)]
    threads = []
    t0 = time.perf_counter()
    for i in range(cfg.clients):
        thread = threading.Thread(
            target=_client_worker,
            args=(address, cfg, i, reports[i], deadline_s),
            name=f"loadgen-{i}", daemon=True)
        thread.start()
        threads.append(thread)
    for thread in threads:
        thread.join(timeout=deadline_s)
    wall = time.perf_counter() - t0
    return LoadReport(clients=reports, wall_s=wall)


def _client_worker(address, cfg: LoadConfig, idx: int,
                   report: ClientReport, deadline_s: float) -> None:
    try:
        _run_client(address, cfg, idx, report, deadline_s)
    except Exception as exc:  # surfaced via the report, not the thread
        report.failure = f"{type(exc).__name__}: {exc}"


def _run_client(address, cfg: LoadConfig, idx: int,
                report: ClientReport, deadline_s: float) -> None:
    todo = collections.deque(plan_ops(cfg, idx))
    pending: collections.deque[_Pending] = collections.deque()
    client = ServiceClient(address, timeout=cfg.timeout)
    client.connect(retry_for=cfg.reconnect_wait_s
                   if cfg.retry_until_acked else 0.0)
    deadline = time.monotonic() + deadline_s

    def on_lost() -> None:
        """Connection died: everything in flight is un-acked. Requeue
        in order and ride out the daemon's restart."""
        if not cfg.retry_until_acked:
            raise ServiceUnavailableError("connection lost")
        report.reconnects += 1
        report.resent += len(pending)
        for entry in reversed(pending):
            todo.appendleft(entry.op)
        pending.clear()
        client.close()
        client.connect(retry_for=cfg.reconnect_wait_s)

    while todo or pending:
        if time.monotonic() > deadline:
            raise ServiceError(f"client {idx} exceeded its deadline")
        # Fill the pipeline.
        while todo and len(pending) < cfg.pipeline:
            op, key, value = todo[0]
            try:
                req_id = client.send(op, key, value)
            except ServiceUnavailableError:
                on_lost()
                continue
            todo.popleft()
            pending.append(_Pending(req_id, (op, key, value),
                                    time.monotonic()))
        # Retire one response.
        try:
            resp = client.wait_any()
        except ServiceUnavailableError:
            on_lost()
            continue
        entry = None
        for candidate in pending:
            if candidate.req_id == resp.get("id"):
                entry = candidate
                break
        if entry is None:
            continue  # response to a request requeued after a reconnect
        pending.remove(entry)
        _account(cfg, report, entry, resp, todo)


def _account(cfg: LoadConfig, report: ClientReport, entry: _Pending,
             resp: dict, todo: collections.deque) -> None:
    op, key, value = entry.op
    if resp.get("ok"):
        report.acked += 1
        report.ops[op] += 1
        report.latencies_ms.append(
            (time.monotonic() - entry.t_sent) * 1000.0)
        if op == "put":
            report.expected[key] = value
        elif op == "delete":
            report.expected[key] = None
        elif cfg.verify:
            want = report.expected.get(key)
            got = resp.get("value")
            if got != want:
                report.verify_mismatches.append(
                    {"key": key, "want": want, "got": got})
        return
    if resp.get("shed"):
        report.shed += 1
        if cfg.retry_until_acked:
            todo.appendleft(entry.op)
        return
    report.errors += 1
    if cfg.retry_until_acked:
        todo.appendleft(entry.op)
