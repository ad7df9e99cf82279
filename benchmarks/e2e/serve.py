"""The serve workloads: the real daemon as a child process, driven over
a Unix socket, killed, restarted and read back.

One *repetition* is::

    spawn `python -m repro serve` on a fresh heap -> ready -> PUT every key
        (setup_s)
    warm-up, then the timed closed loop           (throughput_rps, latency_*)
    last ack in -> SIGKILL -> restart on the same heap and socket -> ready
        -> GET every key, compare with the acked state          (recover_s)

All daemon flags stay at their CLI defaults except the heap, socket and
ready-file paths and ``--shards`` — so the flush policy is the
program's: an ack means the window was drained to the mmap; nothing is
fsync'd to a device, and a SIGKILL leaves the page cache intact.
"""

from __future__ import annotations

import os
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import layers
import traffic
from measure import percentile
from probe import Probe
from tracer import load_spans

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"

#: Untimed warm-up before each repetition's timed interval: this share of
#: it, at most ``WARMUP_MAX_S`` (the preload has already taken the daemon
#: through 64 windows).
WARMUP_SHARE = 0.15
WARMUP_MAX_S = 0.5
#: Repetitions per untraced run; each gets ``seconds / REPETITIONS``.
REPETITIONS = 3
#: Kill -> restart -> read-back cycles per repetition. Only the first
#: kills a daemon that has just served writes; the others re-kill the
#: resumed one, for more samples of the same restart path.
KILL_CYCLES = 2
READY_TIMEOUT_S = 60.0
PINGS = 200


@dataclass(frozen=True)
class ServeSpec:
    name: str
    #: GET / PUT / DELETE shares of the timed traffic.
    mix: tuple[float, float, float]
    shards: int = 0
    #: When the probe chunk reads S times slower, this workload reads
    #: ``S ** sensitivity`` times slower (fitted; see probe.py).
    sensitivity: float = 1.0


SPECS = {
    spec.name: spec for spec in (
        ServeSpec("serve_mixed_mapped", (0.50, 0.40, 0.10)),
        ServeSpec("serve_mixed_sharded4", (0.50, 0.40, 0.10), shards=4,
                  sensitivity=1.5),
        ServeSpec("serve_read_mapped", (0.95, 0.05, 0.00)),
    )
}


class Daemon:
    """One daemon child in its own session (so a kill takes everything
    it may have started with it)."""

    def __init__(self, rep_dir: Path, tag: str, shards: int,
                 trace_path: Path | None) -> None:
        heap = rep_dir / "sharded" / "heap.lpnv" if shards \
            else rep_dir / "heap.lpnv"
        # Relative to the working directory: AF_UNIX paths are capped
        # at ~100 bytes and a checkout can sit anywhere.
        self.socket_path = os.path.relpath(rep_dir / "kv.sock")
        if len(self.socket_path) > 100:
            raise RuntimeError(f"socket path too long: {self.socket_path}")
        self.ready = rep_dir / f"{tag}.ready"
        self.trace_path = trace_path
        serve = ["serve", "--heap", str(heap), "--socket", self.socket_path,
                 "--ready-file", str(self.ready)]
        if shards:
            serve += ["--shards", str(shards)]
        if trace_path is None:
            cmd = [sys.executable, "-m", "repro", *serve]
        else:
            cmd = [sys.executable, str(HERE / "launcher.py"),
                   str(trace_path), *serve]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                          else []))
        env["TMPDIR"] = str(rep_dir)
        self.log = rep_dir / f"{tag}.log"
        self.t_spawn = time.perf_counter()
        with open(self.log, "w") as log:
            self.proc = subprocess.Popen(
                cmd, stdout=log, stderr=subprocess.STDOUT, env=env,
                start_new_session=True)

    def wait_ready(self) -> float:
        """Block until the ready file appears; returns spawn -> ready."""
        deadline = self.t_spawn + READY_TIMEOUT_S
        while not self.ready.exists():
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"daemon exited before ready (rc={self.proc.returncode})"
                    f":\n{self.log.read_text()}")
            if time.perf_counter() > deadline:
                raise RuntimeError("daemon not ready within "
                                   f"{READY_TIMEOUT_S}s:\n{self.log.read_text()}")
            time.sleep(0.002)
        return time.perf_counter() - self.t_spawn

    def dump_trace(self) -> None:
        """Have a traced child write its spans now (it is about to be
        SIGKILLed, which runs no exit handler)."""
        os.kill(self.proc.pid, signal.SIGUSR1)
        deadline = time.perf_counter() + 30.0
        while not self.trace_path.exists():
            if self.proc.poll() is not None or time.perf_counter() > deadline:
                raise RuntimeError("traced daemon did not write its spans:\n"
                                   + self.log.read_text())
            time.sleep(0.005)

    def kill(self) -> None:
        """SIGKILL the child's whole session and reap it (idempotent)."""
        if self.proc.poll() is None:
            try:
                os.killpg(self.proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        self.proc.wait()


@dataclass
class Repetition:
    setup_s: float
    #: One sample per kill -> restart -> read-back cycle.
    recover_s: list[float]
    resume_s: float
    #: What the timed interval's times were divided by: the machine
    #: slowness over it (1.0 = undisturbed), to the spec's sensitivity.
    slowness: float
    #: Length of the timed interval.
    timed_s: float
    latencies_s: list[float]
    attempted: int
    failed: int
    failures: list[str]
    t_start: float
    t_end: float
    ping_ms: float = 0.0
    spans: list[list] | None = None
    restart_spans: list[list] | None = None

    @property
    def throughput_rps(self) -> float:
        return len(self.latencies_s) / self.timed_s


def _client(socket_path: str):
    from repro.service.protocol import ServiceClient

    return ServiceClient(socket_path, timeout=60.0).connect(retry_for=10.0)


def repetition(spec: ServeSpec, seed: int, seconds: float, rep_dir: Path,
               traced: bool, probe) -> Repetition:
    """One spawn -> preload -> traffic -> kill -> restart -> read-back.

    Every time in the result is divided by the machine slowness
    ``probe`` saw over the same interval, raised to the workload's
    sensitivity (see probe.py).
    """
    def slowness(t0: float, t1: float) -> float:
        return probe.slowness(t0, t1) ** spec.sensitivity

    rep_dir.mkdir(parents=True)
    conns = range(traffic.CONNECTIONS)
    results = [traffic.ConnResult() for _ in conns]
    states: list[dict] = [{} for _ in conns]
    clients = []
    readback = traffic.ConnResult()
    recover_s: list[float] = []
    daemon = resumed = None
    try:
        # -- set-up: what a user pays before the first timed request ---
        daemon = Daemon(rep_dir, "live", spec.shards,
                        rep_dir / "live.spans.json" if traced else None)
        daemon.wait_ready()
        clients = [_client(daemon.socket_path) for _ in conns]

        def drive(ops_of, phase=None) -> None:
            """Every connection sends its ``ops_of(conn)``, concurrently."""
            traffic.run_connections([
                lambda c=c: traffic.pipelined(
                    clients[c], ops_of(c), traffic.DEPTH, results[c],
                    states[c], phase)
                for c in conns])

        drive(lambda c: [("put", key, value) for key, value in zip(
            traffic.partition_keys(c), traffic.preload_values(seed, c))])
        now = time.perf_counter()
        setup_s = (now - daemon.t_spawn) / slowness(daemon.t_spawn, now)

        ping_ms = 0.0
        if traced:
            pings = []
            for _ in range(PINGS):
                t0 = time.perf_counter()
                clients[0].ping()
                pings.append(time.perf_counter() - t0)
            ping_ms = statistics.median(pings) * 1e3

        # -- the closed loop -------------------------------------------
        t_start = time.perf_counter() + min(WARMUP_SHARE * seconds,
                                            WARMUP_MAX_S)
        phase = traffic.Phase(t_start=t_start, t_end=t_start + seconds)
        drive(lambda c: traffic.OpStream(seed, c, spec.mix), phase)
        for client in clients:
            client.close()
        clients = []

        # -- crash: the last ack is in; kill, restart, read back -------
        state = {k: v for per_conn in states for k, v in per_conn.items()}
        keys = [("get", key, None) for key in state]
        if traced:
            daemon.dump_trace()
        victim = daemon
        for cycle in range(KILL_CYCLES):
            last = cycle == KILL_CYCLES - 1
            t_kill = time.perf_counter()
            victim.kill()
            resumed = victim = Daemon(
                rep_dir, f"resumed{cycle}", spec.shards,
                rep_dir / "resumed.spans.json" if traced and last else None)
            resume_s = resumed.wait_ready()
            checker = _client(resumed.socket_path)
            clients = [checker]
            traffic.pipelined(checker, keys, 2 * traffic.DEPTH, readback,
                              state)
            now = time.perf_counter()
            recover_s.append((now - t_kill) / slowness(t_kill, now))
            if last:
                checker.shutdown()
            checker.close()
            clients = []
        resumed.proc.wait(timeout=60)
        if resumed.proc.returncode != 0:
            raise RuntimeError("resumed daemon exited with "
                               f"{resumed.proc.returncode}:\n"
                               + resumed.log.read_text())
    finally:
        for client in clients:
            client.close()
        for child in (daemon, resumed):
            if child is not None:
                child.kill()

    everything = results + [readback]
    timed_slowness = slowness(phase.t_start, phase.t_end)
    rep = Repetition(
        setup_s=setup_s, recover_s=recover_s, resume_s=resume_s,
        slowness=timed_slowness,
        timed_s=(phase.t_end - phase.t_start) / timed_slowness,
        latencies_s=[latency / timed_slowness
                     for r in results for latency in r.latencies_s],
        attempted=sum(r.attempted for r in everything),
        failed=sum(r.failed for r in everything),
        failures=[f for r in everything for f in r.failures],
        t_start=phase.t_start, t_end=phase.t_end, ping_ms=ping_ms,
    )
    if traced:
        rep.spans = load_spans(daemon.trace_path)
        rep.restart_spans = load_spans(resumed.trace_path)
    return rep


def run(spec: ServeSpec, seed: int, seconds: float, trace: bool,
        work: Path) -> dict:
    """Run one serve workload; returns the result document's parts."""
    if trace:
        # Same traffic untraced and traced, twice over: the per-layer
        # numbers come from the last traced repetition, the overhead
        # from both pairs.
        plan = [(False, seconds / 4), (True, seconds / 4)] * 2
    else:
        plan = [(False, seconds / REPETITIONS)] * REPETITIONS
    with Probe(work) as probe:
        reps = [repetition(spec, seed, share, work / f"rep{i}", traced, probe)
                for i, (traced, share) in enumerate(plan)]
    out = {
        "attempted": sum(r.attempted for r in reps),
        "failed": sum(r.failed for r in reps),
        "failures": [f for r in reps for f in r.failures][:10],
        "samples": sum(len(r.latencies_s) for r in reps),
        "slowness": statistics.median(r.slowness for r in reps),
    }
    if not trace:
        # Traffic is pooled over the repetitions: all requests of a window
        # are acked together, so the independent samples are windows, not
        # requests, and one repetition on sharded4 holds only about 50.
        pooled = [latency for r in reps for latency in r.latencies_s]
        out["metrics"] = {
            "setup_s": statistics.median(r.setup_s for r in reps),
            "throughput_rps": len(pooled) / sum(r.timed_s for r in reps),
            "latency_p50_ms": percentile(pooled, 0.50) * 1e3,
            "recover_s": statistics.median(
                x for r in reps for x in r.recover_s),
        }
        return out
    traced = reps[-1]
    # Per-layer times are as measured (no slowness correction): they are
    # read against each other inside one run, not gated across runs.
    lat = [latency * traced.slowness for latency in traced.latencies_s]
    metrics = layers.serve_ledger(traced.spans, traced.t_start, traced.t_end)
    metrics.update(layers.restart_ledger(traced.restart_spans))
    metrics["service.protocol.ping_ms"] = traced.ping_ms
    metrics["service.latency_p95_ms"] = percentile(lat, 0.95) * 1e3
    metrics["service.latency_p99_ms"] = percentile(lat, 0.99) * 1e3
    metrics["service.core.resume_ms"] = traced.resume_s * 1e3
    # Means on both sides: queue wait and window time are per-window
    # means, so the client side is the mean latency, not the median.
    metrics["service.residual_ms"] = (
        statistics.fmean(lat) * 1e3
        - metrics["service.daemon.queue_wait_ms"]
        - metrics["service.core.window_ms"])
    metrics["trace.overhead"] = (
        sum(r.throughput_rps for r in reps[0::2])
        / sum(r.throughput_rps for r in reps[1::2]))
    metrics["probe.slowness"] = traced.slowness
    out["metrics"] = metrics
    return out
