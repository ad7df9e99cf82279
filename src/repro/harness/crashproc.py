"""Out-of-process crash injection: run a launch in a child, SIGKILL it.

Everything before this module simulated crashes politely, inside one
Python process. Here the failure is real: a **child process** runs a
workload launch against an mmap-backed heap
(:func:`repro.nvm.create_heap`) and kills its own process
group — ``SIGKILL``, no handlers, no cleanup — when a trigger fires:

* ``writebacks:N`` — after the Nth cache line reaches the heap file
  (fires *inside* the write-back journal window, so the reopened heap
  shows a torn write);
* ``blocks:N`` — after N thread blocks' effects have landed (fires via
  the engines' block hook, journal clean);
* ``walltime:T`` — T seconds into the run (a timer thread; lands
  wherever it lands);
* ``shardwbK:N`` / ``shardwb*:N`` — after the Nth cache line lands on
  extent ``K`` of the heap (or, with ``*``, on whichever extent reaches
  N first). Fires inside *that extent's* journal window, so a reopened
  sharded heap shows exactly one shard's journal armed while the others
  committed cleanly — the shard-containment kill. A plain heap is its
  own extent 0.

The parent (:func:`run_child`) spawns the child in its **own session**
so the child's ``os.kill(0, SIGKILL)`` takes out anything the child
started with it — nothing survives to corrupt the next round.
Child startup (interpreter boot, imports, heap setup) is distinguished
from the run itself by a *ready marker* file: a child that dies before
the marker appears is retried with bounded backoff
(:class:`~repro.errors.ChildStartupError` once exhausted), while a
death after the marker is a result. All child artifacts — spec, heap,
marker, and anything the child's engine writes to ``TMPDIR`` — live in
the parent's :class:`~repro.harness.tmpdir.ManagedTmpdir`.

The child entry point is ``python -m repro.harness.crashproc
<spec.json>``; :class:`ChildSpec` is the wire format.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path

from repro.errors import ChildStartupError, ChildTimeoutError, HarnessError

#: Trigger kinds and whether their threshold is an int count.
TRIGGER_KINDS = ("writebacks", "blocks", "walltime")

#: Shard-kill trigger kind: ``shardwb<K>`` targets shard K's
#: write-back stream, ``shardwb*`` whichever shard fires first.
_SHARDWB_RE = re.compile(r"^shardwb(\d+|\*)$")

#: Default per-round child deadline. Generous: tiny-scale launches run
#: in well under a second; the deadline only catches hangs.
DEFAULT_TIMEOUT = 120.0


def parse_trigger(text: str) -> tuple[str, float]:
    """Parse ``kind:threshold`` into a validated (kind, value) pair.

    Shard-kill triggers keep their target in the kind itself —
    ``("shardwb2", 6.0)`` for ``"shardwb2:6"`` — so the pair stays a
    two-tuple for every caller; :func:`shardwb_target` decodes the
    shard index.
    """
    kind, sep, raw = text.partition(":")
    if not sep or (kind not in TRIGGER_KINDS
                   and not _SHARDWB_RE.match(kind)):
        raise HarnessError(
            f"bad trigger {text!r}; expected one of "
            + ", ".join(f"{k}:N" for k in TRIGGER_KINDS)
            + ", shardwbK:N or shardwb*:N"
        )
    try:
        value = float(raw)
    except ValueError:
        raise HarnessError(f"bad trigger threshold in {text!r}") from None
    if value <= 0 or (kind != "walltime" and value != int(value)):
        raise HarnessError(
            f"trigger {text!r} needs a positive "
            + ("duration" if kind == "walltime" else "integer count")
        )
    return kind, value


def shardwb_target(kind: str) -> int | None:
    """Shard index of a ``shardwb`` trigger kind (``None`` for ``*``).

    Raises :class:`~repro.errors.HarnessError` when ``kind`` is not a
    shard-kill trigger at all.
    """
    match = _SHARDWB_RE.match(kind)
    if not match:
        raise HarnessError(f"{kind!r} is not a shardwb trigger kind")
    target = match.group(1)
    return None if target == "*" else int(target)


@dataclass
class ChildSpec:
    """Everything a harness child needs to run one kill round."""

    workload: str
    scale: str
    seed: int
    config: str
    engine: str
    cache_lines: int
    heap_path: str
    ready_path: str
    #: ``"launch"`` — fresh heap, forward launch; ``"recover"`` — reopen
    #: the heap cold, adopt, run validate+recover.
    phase: str
    #: ``kind:threshold`` per :func:`parse_trigger`, or ``None`` to run
    #: the phase to completion (the crash-free reference round).
    trigger: str | None
    #: When set, the child streams its flight-recorder events to this
    #: JSONL file, one line per event flushed as it happens — the trace
    #: survives the trigger's SIGKILL up to the kill instant.
    trace_path: str | None = None
    #: What :func:`repro.nvm.create_heap` makes the launch round's heap
    #: from: 0 — one plain heap file (the pre-sharding wire format, so
    #: old specs stay decodable); N > 0 — a manifest plus N shards.
    shards: int = 0

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "ChildSpec":
        return cls(**json.loads(text))


@dataclass
class ChildOutcome:
    """How one child round ended, as seen from the parent."""

    returncode: int
    attempts: int
    stderr: str

    @property
    def killed(self) -> bool:
        """True when the round ended in the trigger's SIGKILL."""
        return self.returncode == -signal.SIGKILL

    @property
    def completed(self) -> bool:
        """True when the child outran its trigger and exited cleanly."""
        return self.returncode == 0


# ---------------------------------------------------------------------------
# Child side
# ---------------------------------------------------------------------------

def make_lp_run(workload: str, scale: str, seed: int, config: str,
                engine: str, cache_lines: int, shadow=None):
    """Deterministic device + workload + instrumented-kernel construction.

    The one run recipe: the CLI's ``run`` / ``profile``, the harness
    child and its parent (:func:`build_run`) and the crash-state model
    checker all build through here. Workload setup and LP
    instrumentation allocate identically given identical parameters —
    the *same memory layout* on every door is what makes adopting a
    reopened heap into a rebuilt device sound.
    """
    import repro
    from repro.core.config import named_lp_config
    from repro.workloads import make_workload

    device = repro.Device(cache_capacity_lines=cache_lines,
                          engine=engine,
                          shadow=shadow)
    work = make_workload(workload, scale=scale, seed=seed)
    kernel = work.setup(device)
    lp_kernel = repro.LPRuntime(
        device, named_lp_config(config)).instrument(kernel)
    return device, work, lp_kernel


def build_run(spec: ChildSpec, shadow=None):
    """:func:`make_lp_run` from a child spec."""
    return make_lp_run(spec.workload, spec.scale, spec.seed, spec.config,
                       spec.engine, spec.cache_lines, shadow)


def _die() -> None:
    """Kill the whole process group — the power failure."""
    os.kill(0, signal.SIGKILL)


def install_kill_trigger(trigger: str, device, heap) -> None:
    """Arm ``trigger`` on a live device + heap: the one installer, for
    harness children and the serve daemon alike.

    ``heap`` may be ``None`` (a volatile daemon); only the triggers
    that count write-backs need one.
    """
    kind, value = parse_trigger(trigger)
    threshold = int(value)

    def on_count(cumulative: int) -> None:
        if cumulative >= threshold:
            _die()

    if kind == "blocks":
        device.block_hook = on_count
    elif kind == "walltime":
        timer = threading.Timer(value, _die)
        timer.daemon = True
        timer.start()
    elif heap is None:
        raise HarnessError(f"trigger {trigger!r} needs a durable heap")
    elif kind == "writebacks":
        heap.writeback_listener = on_count
    else:  # shardwbK / shardwb*
        # Fires inside one extent's armed journal window; dying there
        # tears that extent while committed ones stay clean.
        target = shardwb_target(kind)
        if target is not None and target >= len(heap.extents):
            raise HarnessError(
                f"trigger {trigger!r} targets shard {target}, but "
                f"the heap has only {len(heap.extents)} extent(s)"
            )
        for k, extent in enumerate(heap.extents):
            if target is None or k == target:
                extent.writeback_listener = on_count


def child_main(spec_path: str) -> int:
    """Entry point of the killed-on-purpose process."""
    from repro import obs
    from repro.core.recovery import RecoveryManager
    from repro.nvm import create_heap, open_heap

    spec = ChildSpec.from_json(Path(spec_path).read_text())
    if spec.trace_path is not None:
        # Install before the heap exists so heap create/open, adopt,
        # and every span up to the SIGKILL reach the file. JsonlSink
        # flushes per event; there is deliberately no uninstall — the
        # process is about to die anyway.
        obs.install(obs.Recorder(
            tracer=obs.Tracer(obs.JsonlSink(spec.trace_path))
        ))
    if spec.phase == "launch":
        heap = create_heap(spec.heap_path, spec.shards)
        device, work, lp_kernel = build_run(spec, shadow=heap)
    elif spec.phase == "recover":
        heap = open_heap(spec.heap_path)
        device, work, lp_kernel = build_run(spec)
        heap.adopt(device.memory)
    else:
        raise HarnessError(f"unknown child phase {spec.phase!r}")

    if spec.trigger is not None:
        install_kill_trigger(spec.trigger, device, heap)
    obs.current().trace.instant(
        "harness.child.ready", cat="harness", track="harness",
        phase=spec.phase, workload=spec.workload, engine=spec.engine,
        trigger=spec.trigger or "none",
    )
    # Setup is done; from here on a death is a result, not a flake.
    Path(spec.ready_path).touch()

    if spec.phase == "launch":
        device.launch(lp_kernel)
    else:
        RecoveryManager(device, lp_kernel).recover()
    device.drain()
    heap.close()
    return 0


# ---------------------------------------------------------------------------
# Parent side
# ---------------------------------------------------------------------------

def _child_env(tmpdir: Path) -> dict[str, str]:
    """Child environment: importable ``repro``, temp files in ``tmpdir``."""
    import repro

    src_root = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        src_root if not existing
        else src_root + os.pathsep + existing
    )
    # Any tempfile use inside the child lands in the managed dir, so
    # a SIGKILLed child leaks nothing the parent's cleanup doesn't
    # remove.
    env["TMPDIR"] = str(tmpdir)
    return env


def run_child(
    spec: ChildSpec,
    tmpdir,
    timeout: float = DEFAULT_TIMEOUT,
    startup_retries: int = 3,
    backoff: float = 0.25,
) -> ChildOutcome:
    """Run one child round, retrying startup failures with backoff.

    A child that dies (for any reason other than the trigger's SIGKILL)
    *before* touching its ready marker is treated as a startup flake
    and respawned, with the backoff doubling each attempt; after
    ``startup_retries`` extra attempts, :class:`ChildStartupError`.
    Once the marker exists, the child's fate is the round's result. A
    child that does neither within ``timeout`` has its process group
    killed and :class:`ChildTimeoutError` raised.
    """
    from repro.obs import current as _recorder

    spec_path = tmpdir.file(f"spec-{spec.phase}.json")
    ready = Path(spec.ready_path)
    attempts = 0
    delay = backoff
    rec = _recorder()
    while True:
        attempts += 1
        ready.unlink(missing_ok=True)
        spec_path.write_text(spec.to_json())
        with rec.trace.span(
            "harness.child", cat="harness", track="harness",
            phase=spec.phase, workload=spec.workload, engine=spec.engine,
            trigger=spec.trigger or "none", attempt=attempts,
        ):
            outcome = _run_once(spec_path, ready, tmpdir, timeout)
        if outcome is not None:
            if rec.metrics.active and outcome.killed:
                rec.metrics.inc("harness.kill", phase=spec.phase,
                                workload=spec.workload,
                                engine=spec.engine)
            return ChildOutcome(outcome.returncode, attempts,
                                outcome.stderr)
        if attempts > startup_retries:
            raise ChildStartupError(
                f"harness child for {spec.workload}/{spec.engine} "
                f"({spec.phase}) died before ready "
                f"{attempts} times; giving up"
            )
        if rec.metrics.active:
            rec.metrics.inc("harness.startup_retries")
        time.sleep(delay)
        delay *= 2


def _run_once(spec_path: Path, ready: Path, tmpdir,
              timeout: float) -> ChildOutcome | None:
    """One spawn attempt; ``None`` means a pre-ready death (retry)."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.harness.crashproc", str(spec_path)],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        env=_child_env(tmpdir.path),
        start_new_session=True,
    )
    deadline = time.monotonic() + timeout
    try:
        while not ready.exists():
            rc = proc.poll()
            if rc is not None:
                stderr = proc.stderr.read().decode(errors="replace")
                if rc == -signal.SIGKILL:
                    # Trigger fired before the marker hit disk — a
                    # result, not a startup failure.
                    return ChildOutcome(rc, 1, stderr)
                return None
            if time.monotonic() > deadline:
                _kill_group(proc)
                raise ChildTimeoutError(
                    f"harness child never became ready within {timeout}s"
                )
            time.sleep(0.005)
        remaining = max(0.1, deadline - time.monotonic())
        try:
            _, stderr_bytes = proc.communicate(timeout=remaining)
        except subprocess.TimeoutExpired:
            _kill_group(proc)
            proc.communicate()
            raise ChildTimeoutError(
                f"harness child still running after {timeout}s"
            ) from None
        return ChildOutcome(proc.returncode, 1,
                            stderr_bytes.decode(errors="replace"))
    finally:
        if proc.poll() is None:
            _kill_group(proc)
            proc.communicate()


def _kill_group(proc: subprocess.Popen) -> None:
    """SIGKILL the child's whole session."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


if __name__ == "__main__":
    if len(sys.argv) != 2:
        print("usage: python -m repro.harness.crashproc <spec.json>",
              file=sys.stderr)
        raise SystemExit(2)
    raise SystemExit(child_main(sys.argv[1]))
