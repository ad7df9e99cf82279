"""FlushPolicy on a fake clock: no sockets, no sleeps.

:class:`Batcher` is the daemon's batcher loop with the queue replaced
by a sorted list of future arrivals and ``time.monotonic`` by a float
it advances itself — the same three calls (``add`` / ``decide`` /
``close``) in the same order, each arrival reported with the client it
came from and each window's acks with the clients they go to. Clients
are closed-loop: an ack at ``t`` schedules that client's next request
at ``t + think``, the window's i-th ack ``i * spread`` later still.
"""

import heapq
import random

import pytest

from repro.service.daemon import FlushPolicy

US = 1e-6
MS = 1e-3


class Batcher:
    def __init__(self, max_batch=128, max_wait_ms=2.0, service_s=1.0 * MS,
                 sources=True):
        self.policy = FlushPolicy(max_batch, max_wait_ms * MS)
        self.service_s = service_s
        self.sources = sources  # False: name nobody, so nothing is owed
        self.now = 0.0
        self.arrivals = []      # heap of (t_enqueue, client)
        self.think = {}         # client -> seconds from ack to next send
        self.spread = 0.0       # ... plus this per earlier ack of the window
        self.reconnects = set()  # clients on a new connection per request
        self.windows = []       # (flush time, reason, [(t_enqueue, client)])

    def send(self, t, client):
        heapq.heappush(self.arrivals, (t, client))

    def step(self):
        """Collect and run one window; False when no request is left."""
        window, sources = [], []
        while True:
            at, reason = self.policy.decide()
            if reason == "fill":
                break
            if self.arrivals and (at is None or self.arrivals[0][0] <= self.now
                                  or self.arrivals[0][0] < at):
                t, client = heapq.heappop(self.arrivals)
                self.now = max(self.now, t)
                window.append((t, client))
                sources.append(object() if client in self.reconnects
                               else client)
                self.policy.add(t, sources[-1] if self.sources else None)
                continue
            if at is None:
                return False
            self.now = max(self.now, at)
            break
        self.windows.append((self.now, reason, window))
        self.now += self.service_s
        self.policy.close(self.now, sources if self.sources else ())
        for i, (_, client) in enumerate(window):
            if client in self.think:
                self.send(self.now + self.think[client] + i * self.spread,
                          client)
        return True

    def run(self, windows):
        for _ in range(windows):
            if not self.step():
                break
        return self.windows

    @staticmethod
    def dwell(window):
        flushed, _, requests = window
        return flushed - requests[0][0]

    def held(self):
        """How long each window was held open: from the moment the
        batcher and its first request met to the flush."""
        free, out = 0.0, []
        for flushed, _, requests in self.windows:
            out.append(flushed - max(free, requests[0][0]))
            free = flushed + self.service_s
        return out


def _burst(batcher, start, n=32, gap=45 * US, stretch=None, clients=(0, 1)):
    """``n`` arrivals from ``clients`` in turn; ``stretch`` widens the
    gap before that arrival tenfold. Returns the last arrival."""
    t = start
    for i in range(n):
        if i:
            t += gap * (10 if i == stretch else 1)
        batcher.send(t, clients[i % len(clients)])
    return t


def test_a_learned_burst_closes_as_one_window_right_behind_its_last_arrival():
    batcher = Batcher()
    for _ in range(20):  # each burst is released by the previous acks
        last = _burst(batcher, batcher.now + 100 * US)
        assert batcher.step()
        flushed, reason, window = batcher.windows[-1]
        assert len(window) == 32
    # The first window knew nothing and sat out max_wait_ms. Every later
    # one was owed 16 answers by each connection and closed on the last.
    assert [w[1] for w in batcher.windows] == ["deadline"] + ["answered"] * 19
    assert flushed == last


def test_a_lone_client_stops_waiting_and_a_second_one_restores_batching():
    batcher = Batcher(service_s=0.3 * MS)
    batcher.think = {"a": 100 * US}
    batcher.send(0.0, "a")
    lone = batcher.run(20)
    assert all(len(w[2]) == 1 for w in lone)
    assert Batcher.dwell(lone[0]) == pytest.approx(2.0 * MS)  # as before
    # Its next request answers the one ack there was: nobody to wait for.
    assert [w[1] for w in lone[1:]] == ["answered"] * 19
    assert list(map(Batcher.dwell, lone[1:])) == [0.0] * 19

    # A second synchronous client shows up while a window is running: it
    # queues behind it, and once both are owed an ack they pair up.
    batcher.think["b"] = 130 * US
    batcher.send(batcher.now + 50 * US, "b")
    after = batcher.run(20 + 30)[20:]
    sizes = [len(w[2]) for w in after]
    assert 2 in sizes[:4], sizes  # b's first window + at most 3 more
    paired = sizes.index(2)
    assert sizes[paired:] == [2] * len(sizes[paired:]), sizes
    # ... and a pair is whole when both have answered.
    for flushed, reason, window in after[paired + 1:]:
        assert reason == "answered" and flushed == window[-1][0]


def test_saturating_arrivals_flush_on_fill():
    batcher = Batcher(max_batch=16)
    for i in range(160):
        batcher.send(i * 10 * US, i % 4)
    windows = batcher.run(100)
    assert [len(w[2]) for w in windows] == [16] * 10
    assert {w[1] for w in windows} == {"fill"}


@pytest.mark.parametrize("stretch", [1, 9, 16, 31])
def test_a_stretched_gap_may_split_a_burst_but_nobody_waits_past_the_bound(
        stretch):
    batcher = Batcher()
    for _ in range(20):
        _burst(batcher, batcher.now + 100 * US)
        batcher.step()
    before = len(batcher.windows)
    _burst(batcher, batcher.now + 100 * US, stretch=stretch)
    windows = batcher.run(8)[before:]
    assert sum(len(w[2]) for w in windows) == 32
    # The window is owed the whole cohort, stretch or not.
    assert [w[1] for w in windows] == ["answered"]
    assert max(batcher.held()) <= 2.0 * MS + 1e-12


def test_requests_that_queued_behind_a_window_are_not_answers_to_it():
    batcher = Batcher()
    _burst(batcher, 0.0, n=24)
    _burst(batcher, 2.5 * MS, n=8)      # while the 24 run (2.0 -> 3.0 ms)
    last = _burst(batcher, 3.1 * MS, n=24)  # the answers to their acks
    first, second = batcher.run(2)
    assert len(first[2]) == 24 and batcher.policy.decide() == (None, None)
    # The 8 are stamped before the acks: taken at once, paying nothing
    # off. Counted against the debt they would close the window on the
    # 16th answer, holding 24.
    flushed, reason, window = second
    assert (len(window), reason, flushed) == (32, "answered", last)


def _cohort(service_s, stall_at=None):
    """Two connections x 16 in flight, all answered by one client
    process: 40 us after the acks, then one every 30 us. ``stall_at``:
    the process stalls for 0.3 ms before that answer of the 21st
    burst."""
    batcher = Batcher(service_s=service_s)
    batcher.think = {0: 40 * US, 1: 40 * US}
    batcher.spread = 30 * US
    _burst(batcher, 0.0, gap=30 * US)
    batcher.run(20)
    assert [len(w[2]) for w in batcher.windows] == [32] * 20
    if stall_at is not None:
        pending = sorted(batcher.arrivals)
        batcher.arrivals = pending[:stall_at] + [
            (t + 0.3 * MS, client) for t, client in pending[stall_at:]]
    return batcher


@pytest.mark.parametrize("service_ms", [0.4, 2.3])
@pytest.mark.parametrize("stall_at", [5, 10, 16, 25])
def test_a_stalled_cohort_closes_as_one_answered_window(service_ms, stall_at):
    """A stall mid-answer is not the end of the cohort: the window is
    still owed the rest and waits for it, within the bound."""
    batcher = _cohort(service_ms * MS, stall_at)
    after = batcher.run(12)[20:]
    assert [(len(w[2]), w[1]) for w in after] == [(32, "answered")] * 12
    assert max(batcher.held()) <= 2.0 * MS + 1e-12


@pytest.mark.parametrize("service_ms", [0.4, 2.3])
@pytest.mark.parametrize("joins_after_ms", [0.05, 0.3, 1.0, 2.0])
def test_a_third_client_is_whole_with_the_cohort_within_two_windows(
        service_ms, joins_after_ms):
    batcher = _cohort(service_ms * MS)
    batcher.think["c"] = 40 * US
    _burst(batcher, batcher.now + joins_after_ms * MS, n=16, gap=30 * US,
           clients=["c"])
    after = batcher.run(10)[20:]
    sizes = [len(w[2]) for w in after]
    assert sizes[2:] == [48] * 8, sizes
    assert {w[1] for w in after} == {"answered"}


def test_a_client_that_reconnects_per_request_still_stops_waiting():
    """Nobody ever answers on a connection that is gone, so `answered`
    never fires; what releases this client is the deadline, every time
    and never later."""
    batcher = Batcher(service_s=0.3 * MS)
    batcher.think = {"a": 100 * US}
    batcher.reconnects = {"a"}
    batcher.send(0.0, "a")
    lone = batcher.run(20)
    assert [(len(w[2]), w[1]) for w in lone] == [(1, "deadline")] * 20
    assert list(map(Batcher.dwell, lone)) == [pytest.approx(2.0 * MS)] * 20


@pytest.mark.parametrize("rate, floor", [(500, 0.85), (3000, 0.98),
                                         (10000, 1.0)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_open_loop_traffic_on_one_connection(rate, floor, seed):
    """Arrivals that answer nobody. With no source named nothing is ever
    owed and only `fill` / `deadline` close a window: against that no
    window is held longer, and windows stay as full wherever there is
    load to fill them."""
    occupancy = []
    for sources in (True, False):
        batcher = Batcher(max_batch=32, service_s=2.3 * MS, sources=sources)
        rng, t = random.Random(seed), 0.0
        for _ in range(3000):
            t += rng.expovariate(rate)
            batcher.send(t, "c")
        while batcher.step():
            pass
        assert max(batcher.held()) <= 2.0 * MS + 1e-12
        occupancy.append(3000 / len(batcher.windows))
    assert occupancy[0] >= floor * occupancy[1], occupancy


def test_max_wait_zero_never_waits():
    batcher = Batcher(max_wait_ms=0.0)
    batcher.think = {c: 50 * US for c in range(4)}
    for c in range(4):
        batcher.send(c * 20 * US, c)
    windows = batcher.run(50)
    assert len(windows) == 50
    assert batcher.held() == [0.0] * 50


def test_max_batch_one_is_one_request_per_window():
    batcher = Batcher(max_batch=1, max_wait_ms=0.0)
    for i in range(8):
        batcher.send(0.0, i)
    assert [len(w[2]) for w in batcher.run(20)] == [1] * 8
