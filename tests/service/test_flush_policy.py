"""FlushPolicy on a fake clock: no sockets, no sleeps.

:class:`Batcher` is the daemon's batcher loop with the queue replaced
by a sorted list of future arrivals and ``time.monotonic`` by a float
it advances itself — the same three calls (``add`` / ``decide`` /
``close``) in the same order. Clients are closed-loop: an ack at ``t``
schedules that client's next request at ``t + think``.
"""

import heapq

import pytest

from repro.service.daemon import FlushPolicy

US = 1e-6
MS = 1e-3


class Batcher:
    def __init__(self, max_batch=128, max_wait_ms=2.0, service_s=1.0 * MS):
        self.policy = FlushPolicy(max_batch, max_wait_ms * MS)
        self.service_s = service_s
        self.now = 0.0
        self.arrivals = []      # heap of (t_enqueue, client)
        self.think = {}         # client -> seconds from ack to next send
        self.windows = []       # (flush time, reason, [(t_enqueue, client)])

    def send(self, t, client):
        heapq.heappush(self.arrivals, (t, client))

    def step(self):
        """Collect and run one window; False when no request is left."""
        window = []
        while True:
            at, reason = self.policy.decide()
            if reason == "fill":
                break
            if self.arrivals and (at is None or self.arrivals[0][0] <= self.now
                                  or self.arrivals[0][0] < at):
                t, client = heapq.heappop(self.arrivals)
                self.now = max(self.now, t)
                window.append((t, client))
                self.policy.add(t)
                continue
            if at is None:
                return False
            self.now = max(self.now, at)
            break
        self.windows.append((self.now, reason, window))
        self.now += self.service_s
        self.policy.close(self.now)
        for _, client in window:
            if client in self.think:
                self.send(self.now + self.think[client], client)
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


def _burst(batcher, start, n=32, gap=45 * US, stretch=None):
    """``n`` arrivals from two connections in turn; ``stretch`` widens
    the gap before that arrival tenfold. Returns the last arrival."""
    t = start
    for i in range(n):
        if i:
            t += gap * (10 if i == stretch else 1)
        batcher.send(t, i % 2)
    return t


def test_a_learned_burst_closes_as_one_window_right_behind_its_last_arrival():
    batcher = Batcher()
    for _ in range(20):  # each burst is released by the previous acks
        last = _burst(batcher, batcher.now + 100 * US)
        assert batcher.step()
        flushed, reason, window = batcher.windows[-1]
        assert len(window) == 32
    # The first window knew nothing and sat out max_wait_ms, the next
    # dozen unlearned that a quarter at a time; by now:
    assert reason == "quiet"
    assert 0 < flushed - last <= 0.3 * MS
    assert batcher.policy.linger == pytest.approx(2 * 45 * US, rel=0.25)


def test_a_lone_client_stops_waiting_and_a_second_one_restores_batching():
    batcher = Batcher(service_s=0.3 * MS)
    batcher.think = {"a": 100 * US}
    batcher.send(0.0, "a")
    lone = batcher.run(20)
    assert all(len(w[2]) == 1 for w in lone)
    assert Batcher.dwell(lone[0]) == pytest.approx(2.0 * MS)  # as before
    assert Batcher.dwell(lone[-1]) <= 0.1 * MS
    assert max(map(Batcher.dwell, lone[8:])) <= 0.1 * MS

    # A second synchronous client shows up while a window is running:
    # it queues behind it, which is the evidence that restores patience.
    batcher.think["b"] = 130 * US
    batcher.send(batcher.now + 50 * US, "b")
    after = batcher.run(20 + 30)[20:]
    sizes = [len(w[2]) for w in after]
    assert 2 in sizes[:4], sizes  # b's first window + at most 3 more
    paired = sizes.index(2)
    assert sizes[paired:] == [2] * len(sizes[paired:]), sizes
    # ... and once the pair's 30 us stagger is learned, so is the wait.
    flushed, reason, window = after[-1]
    assert reason == "quiet" and flushed - window[-1][0] <= 0.1 * MS


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
    assert 1 <= len(windows) <= 2
    assert max(batcher.held()) <= 2.0 * MS + 1e-12


def test_max_wait_zero_never_waits():
    batcher = Batcher(max_wait_ms=0.0)
    batcher.think = {c: 50 * US for c in range(4)}
    for c in range(4):
        batcher.send(c * 20 * US, c)
    windows = batcher.run(50)
    assert len(windows) == 50
    assert batcher.held() == [0.0] * 50
    assert batcher.policy.linger == 0.0


def test_max_batch_one_is_one_request_per_window():
    batcher = Batcher(max_batch=1, max_wait_ms=0.0)
    for i in range(8):
        batcher.send(0.0, i)
    assert [len(w[2]) for w in batcher.run(20)] == [1] * 8
