"""The ``crash_cycle`` workload: run -> crash -> cold open -> recover.

No service and no MegaKV. One *sweep* takes each of the eight
``repro.workloads.WORKLOADS`` kernels (scale ``medium``, LP config
``paper_best``, ``batched`` engine, mapped heap, 64 cache lines) through
two legs:

(a) **run** — crash-free ``launch`` + ``drain``: what LP costs when
    nothing fails;
(b) **recover** — ``launch`` with a crash after half the grid (40 % of
    the dirty lines happened to persist), close the heap, cold ``open``
    + ``adopt`` into a rebuilt device, ``RecoveryManager.recover()``,
    ``drain``: what a crash costs.

After each leg the persisted image is verified against
``Workload.reference()`` with the clock stopped: the numpy oracle is a
third of a sweep's wall time and none of the program's. Heap creation
and input generation sit outside both legs too, as set-up.
Six of the eight kernels are not ``batchable`` and take the engine's
slow paths, which is why this workload exists. The simulator is
deterministic, so every sweep of one seed must produce the same
simulated statistics; their digest is compared across sweeps here and
across commits by ``compare.py``.
"""

from __future__ import annotations

import contextlib
import hashlib
import statistics
import time
from pathlib import Path

import layers
import probe
from measure import percentile
from tracer import Tracer

CACHE_LINES = 64
SCALE = "medium"
PERSIST_FRACTION = 0.4
#: When the probe chunk reads S times slower, a sweep reads
#: ``S ** SENSITIVITY`` times slower (fitted; see probe.py).
SENSITIVITY = 1.5


class _Sweep:
    """One pass over the eight kernels; optionally traced."""

    def __init__(self, seed: int, work: Path, tracer: Tracer | None) -> None:
        self.seed = seed
        self.work = work
        self.tracer = tracer
        self.setup_s = 0.0
        #: Per kernel, each leg's time divided by the machine slowness
        #: around that leg; ``raw_s`` sums the legs as measured.
        self.run_s: dict[str, float] = {}
        self.recover_s: dict[str, float] = {}
        self.raw_s = {"run": 0.0, "recover": 0.0}
        self.failures: list[str] = []
        self.slowness = 1.0
        self.chunks: list[float] = []
        self.digest = hashlib.blake2b(digest_size=16)

    def _span(self, name: str, workload: str):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(name, workload=workload)

    def _build(self, name: str, heap=None):
        """Device + inputs + LP-instrumented kernel, deterministically —
        the recover leg rebuilds exactly the layout the heap recorded."""
        import repro
        from repro.workloads import WORKLOADS

        device = repro.Device(cache_capacity_lines=CACHE_LINES,
                              engine="batched", shadow=heap)
        work = WORKLOADS[name](scale=SCALE, seed=self.seed)
        kernel = work.setup(device)
        lp_kernel = repro.LPRuntime(
            device, repro.LPConfig.paper_best()).instrument(kernel)
        return device, work, lp_kernel

    def _fresh(self, name: str, leg: str):
        from repro.nvm.mapped import MappedShadow

        t0 = time.perf_counter()
        with self._span("crash.setup", name):
            path = self.work / f"{name}.{leg}.lpnv"
            heap = MappedShadow.create(path)
            built = self._build(name, heap)
        self.setup_s += time.perf_counter() - t0
        return path, heap, built

    def _verify(self, name: str, leg: str, work, device) -> None:
        with self._span("crash.verify", name):
            try:
                work.verify(device, persisted=True)
            except AssertionError as exc:
                self.failures.append(f"{name} {leg}: {exc}")

    def _note(self, *values) -> None:
        self.digest.update(repr(values).encode())

    @contextlib.contextmanager
    def _timed(self, leg: str, name: str):
        """Time the block as leg ``leg`` of kernel ``name``, with one probe
        chunk just before and one just after, on this thread and so on
        the core the leg ran on (see probe.py): the machine's speed
        changes within seconds, and a sweep-wide mean would weigh a 6 ms
        leg like a 700 ms one."""
        before = probe.chunk_cpu_s()
        t0 = time.perf_counter()
        with self._span(f"crash.{leg}", name):
            yield
        raw = time.perf_counter() - t0
        around = [before, probe.chunk_cpu_s()]
        self.chunks += around
        self.raw_s[leg] += raw
        times = self.run_s if leg == "run" else self.recover_s
        times[name] = raw / probe.slowness_of(around) ** SENSITIVITY

    def kernel(self, name: str) -> None:
        import repro
        from repro.core.recovery import RecoveryManager
        from repro.nvm.mapped import MappedShadow

        # (a) crash-free run
        path, heap, (device, work, lp_kernel) = self._fresh(name, "run")
        try:
            with self._timed("run", name):
                result = device.launch(lp_kernel)
                device.drain()
            self._verify(name, "run", work, device)
            self._note(name, "run", result.total_cycles, heap.lines_written)
        finally:
            heap.close()
            path.unlink()

        # (b) crash, cold open, recover
        path, heap, (device, work, lp_kernel) = self._fresh(name, "recover")
        try:
            grid = lp_kernel.launch_config().n_blocks
            plan = repro.CrashPlan(after_blocks=grid // 2,
                                   persist_fraction=PERSIST_FRACTION,
                                   seed=self.seed)
            with self._timed("recover", name):
                crashed = device.launch(lp_kernel, crash_plan=plan)
                lines_before = heap.lines_written
                heap.close()
                heap = MappedShadow.open(path)
                device, work, lp_kernel = self._build(name)
                heap.adopt(device.memory)
                report = RecoveryManager(device, lp_kernel).recover()
                device.drain()
            self._verify(name, "recover", work, device)
            self._note(name, "recover", crashed.total_cycles,
                       sorted(report.initial.failed_blocks),
                       report.total_recovery_cycles,
                       lines_before, heap.lines_written)
            for buffer in sorted(work.reference()):
                self.digest.update(
                    device.memory[buffer].nvm_array.tobytes())
        finally:
            heap.close()
            path.unlink()

    def run(self) -> "_Sweep":
        """Sweep; the set-up time, spread over the whole sweep, is
        corrected by the mean of all its probe chunks."""
        for name in layers.WORKLOAD_NAMES:
            self.kernel(name)
        self.slowness = probe.slowness_of(self.chunks) ** SENSITIVITY
        self.setup_s /= self.slowness
        return self


def _sweep_time(sweeps: list[_Sweep], leg: str) -> list[float]:
    """Each kernel's median time for ``leg`` over ``sweeps``. Their sum is
    the typical sweep: a disturbance of a second or two spoils one kernel
    of one sweep here, and a whole sweep in a median of per-sweep sums."""
    times = [s.run_s if leg == "run" else s.recover_s for s in sweeps]
    return [statistics.median(t[name] for t in times)
            for name in layers.WORKLOAD_NAMES]


def run(seed: int, seconds: float, trace: bool, work: Path) -> dict:
    """Sweep until ``seconds`` of run + recover time have been measured
    (as they passed, not corrected: the run's length stays what was
    asked for on a slow machine too)."""
    work.mkdir(parents=True)
    tracer = Tracer() if trace else None
    plain: list[_Sweep] = []
    traced: list[_Sweep] = []
    measured = 0.0
    while measured < seconds or not plain or (trace and not traced):
        # A traced run alternates untraced and traced sweeps: the pair
        # gives the tracing overhead on identical work.
        tracing = trace and len(traced) < len(plain)
        if tracing:
            tracer.install(layers.targets())
        try:
            sweep = _Sweep(seed, work, tracer if tracing else None).run()
        finally:
            if tracing:
                tracer.uninstall()
        (traced if tracing else plain).append(sweep)
        measured += sum(sweep.raw_s.values())

    sweeps = plain + traced
    digests = {s.digest.hexdigest() for s in sweeps}
    failures = [f for s in sweeps for f in s.failures]
    if len(digests) != 1:
        failures.append("simulated statistics differ between sweeps of "
                        f"one seed: {sorted(digests)}")
    legs = 2 * len(layers.WORKLOAD_NAMES)
    out = {
        "attempted": legs * len(sweeps),
        "failed": len(failures),
        "failures": failures[:10],
        "samples": len(plain),
        "sim_digest": sorted(digests)[0],
        "slowness": statistics.median(s.slowness for s in sweeps),
    }
    per_kernel = _sweep_time(plain, "run")
    run_sweep = sum(per_kernel)
    recover_sweep = sum(_sweep_time(plain, "recover"))
    if not trace:
        # A "request" here is one verified crash-free launch; the median
        # latency is taken across the eight kernels.
        out["metrics"] = {
            "setup_s": statistics.median(s.setup_s for s in plain),
            "throughput_rps": len(layers.WORKLOAD_NAMES) / run_sweep,
            "latency_p50_ms": percentile(per_kernel, 0.50) * 1e3,
            "recover_s": recover_sweep,
        }
        return out
    metrics = layers.crash_ledger(tracer.spans, len(traced))
    # Like every per-layer time, as measured.
    metrics["workloads.run_sweep_ms"] = statistics.median(
        s.raw_s["run"] for s in plain) * 1e3
    metrics["workloads.recover_sweep_ms"] = statistics.median(
        s.raw_s["recover"] for s in plain) * 1e3
    metrics["trace.overhead"] = (
        sum(_sweep_time(traced, "run") + _sweep_time(traced, "recover"))
        / (run_sweep + recover_sweep))
    metrics["probe.slowness"] = statistics.median(s.slowness for s in traced)
    out["metrics"] = metrics
    return out
