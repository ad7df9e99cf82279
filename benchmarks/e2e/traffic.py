"""Benchmark-owned traffic: seeded request streams and the closed loop.

Nothing here imports ``repro.service.loadgen`` — a later change to the
repo's load generator must not be able to move the benchmark. The only
program code used is :class:`repro.service.protocol.ServiceClient`
(``send`` / ``wait_any``), i.e. the wire protocol a real client speaks.

**Streams.** Connection ``c`` of a run with ``--seed s`` draws an
endless stream from ``numpy.random.default_rng([s, c])``: zipfian
(theta 0.9) ranks over its own 1024-key partition, an op per request
from the workload's GET / PUT / DELETE shares, and a value per request
(used by PUTs). Partitions are disjoint, and the daemon answers one
connection's requests to one key in the order they were sent, so the
value every GET must return and the final acked state are known
exactly, pipelining or not.

**Loop.** Closed: each connection keeps ``depth`` requests in flight
and sends the next one only when a response arrives. A request is timed
from just before ``send`` to just after its response is read.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

import numpy as np

#: Keys per connection, zipfian skew, in-flight requests per connection.
KEYS_PER_CONN = 1024
THETA = 0.9
CONNECTIONS = 2
DEPTH = 16

#: Ops drawn per numpy call while extending a stream.
_CHUNK = 4096

#: Odd multiplier (2**64 / golden ratio): a bijection of Z/2**64, so
#: distinct ranks give distinct non-zero keys spread over the buckets.
_SCRAMBLE = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1


def key_of(conn: int, rank: int) -> int:
    """The uint64 key of 1-based ``rank`` in connection ``conn``'s partition."""
    return ((conn * KEYS_PER_CONN + rank) * _SCRAMBLE) & _MASK


def partition_keys(conn: int) -> list[int]:
    return [key_of(conn, rank) for rank in range(1, KEYS_PER_CONN + 1)]


def preload_values(seed: int, conn: int) -> list[int]:
    """The value each key of the partition is PUT with before timing."""
    rng = np.random.default_rng([seed, conn, 1])
    return rng.integers(1, 1 << 63, size=KEYS_PER_CONN,
                        dtype=np.uint64).tolist()


class OpStream:
    """Endless ``(op, key, value)`` stream of one connection."""

    def __init__(self, seed: int, conn: int,
                 mix: tuple[float, float, float]) -> None:
        get, put, delete = mix
        if abs(get + put + delete - 1.0) > 1e-9:
            raise ValueError("op shares must sum to 1")
        self._rng = np.random.default_rng([seed, conn])
        self._conn = conn
        self._get, self._put = get, get + put
        weights = 1.0 / np.arange(1, KEYS_PER_CONN + 1,
                                  dtype=np.float64) ** THETA
        self._cdf = np.cumsum(weights / weights.sum())
        self._buffer: list[tuple[str, int, int | None]] = []
        self._next = 0

    def _extend(self) -> None:
        rng = self._rng
        ranks = np.minimum(np.searchsorted(self._cdf, rng.random(_CHUNK)),
                           KEYS_PER_CONN - 1) + 1
        shares = rng.random(_CHUNK)
        values = rng.integers(1, 1 << 63, size=_CHUNK, dtype=np.uint64)
        self._buffer = []
        for rank, share, value in zip(ranks.tolist(), shares.tolist(),
                                      values.tolist()):
            key = key_of(self._conn, rank)
            if share < self._get:
                self._buffer.append(("get", key, None))
            elif share < self._put:
                self._buffer.append(("put", key, value))
            else:
                self._buffer.append(("delete", key, None))
        self._next = 0

    def __iter__(self) -> "OpStream":
        return self

    def __next__(self) -> tuple[str, int, int | None]:
        if self._next >= len(self._buffer):
            self._extend()
        op = self._buffer[self._next]
        self._next += 1
        return op


@dataclass
class Phase:
    """Wall-clock plan of one repetition, shared by its connections.

    Requests are sent from thread start until ``t_end``; responses read
    inside ``[t_start, t_end]`` are the timed sample. After ``t_end``
    each connection drains what it has in flight and returns.
    """

    t_start: float
    t_end: float


@dataclass
class ConnResult:
    """What one connection observed."""

    attempted: int = 0
    failed: int = 0
    #: Latency of every request whose response was read in the timed
    #: interval.
    latencies_s: list[float] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)

    def fail(self, why: str) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(why)


#: State of a key whose last write failed: nothing to hold a GET to.
_UNKNOWN = object()


def check_response(result: ConnResult, state: dict, op: str, key: int,
                   expect, resp: dict) -> None:
    """Count one response; a shed, an error or a wrong value is a failure."""
    if not resp.get("ok"):
        result.fail(f"{op}({key}) -> {resp.get('error')!r}")
        # The write's fate is unknown: stop holding the key to a value.
        if op != "get":
            state[key] = _UNKNOWN
    elif op == "get" and expect is not _UNKNOWN \
            and resp.get("value") != expect:
        result.fail(f"get({key}) -> {resp.get('value')!r}, sent state "
                    f"says {expect!r}")


def pipelined(client, ops, depth: int, result: ConnResult, state: dict,
              phase: Phase | None = None) -> None:
    """Drive ``ops`` through ``client`` with ``depth`` requests in flight.

    ``state`` maps key -> value after every write *sent* so far (``None``
    = deleted); a GET is checked against the state at the moment it was
    sent. With ``phase``, sending stops at ``phase.t_end`` (``ops`` may be
    endless) and responses inside the timed interval are sampled.
    """
    clock = time.perf_counter
    inflight: dict[int, tuple] = {}
    ops = iter(ops)
    t_end = phase.t_end if phase is not None else float("inf")
    sending = True
    while True:
        while sending and len(inflight) < depth:
            if clock() >= t_end:
                sending = False
                break
            try:
                op, key, value = next(ops)
            except StopIteration:
                sending = False
                break
            expect = state.get(key) if op == "get" else None
            if op == "put":
                state[key] = value
            elif op == "delete":
                state[key] = None
            t_sent = clock()
            req_id = client.send(op, key, value)
            inflight[req_id] = (t_sent, op, key, expect)
            result.attempted += 1
        if not inflight:
            return
        resp = client.wait_any()
        now = clock()
        t_sent, op, key, expect = inflight.pop(resp["id"])
        check_response(result, state, op, key, expect, resp)
        if phase is not None and phase.t_start <= now <= phase.t_end:
            result.latencies_s.append(now - t_sent)


def run_connections(workers) -> None:
    """Run one callable per connection on its own thread; re-raise the
    first failure after all have ended."""
    errors: list[BaseException] = []

    def guarded(fn) -> None:
        try:
            fn()
        except BaseException as exc:  # re-raised on the caller's thread
            errors.append(exc)

    threads = [threading.Thread(target=guarded, args=(fn,),
                                name=f"e2e-conn-{i}")
               for i, fn in enumerate(workers)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
