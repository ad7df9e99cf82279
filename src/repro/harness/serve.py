"""The ``serve`` crash scenario: SIGKILL the live daemon, keep the clients.

The workload-grid scenarios prove the *substrate* recovers; this one
proves the *service contract* holds: a daemon under live client load
is SIGKILLed from inside an armed write-back window (``writebacks:N``
fires during a window's drain, exactly like the grid children die),
the parent restarts it on the same heap, and the very same clients —
which have been reconnect-retrying the whole time — finish their
plans. Convergence then means:

* every write a client saw acked is observable afterwards (checked
  twice: read-your-writes during the run, and a full final sweep of
  every written key against the merged per-client expectations);
* every un-acked in-flight request was cleanly retryable (the clients
  literally retried them until acked — a hang or a lost retry fails
  the scenario's deadline);
* the restarted daemon reports a real resume (cold open → WAL replay →
  validate → recover) and keeps serving.

Clients get disjoint zipfian key partitions so "expected state" is
well-defined under concurrency: each key has exactly one writer, and
that writer is a strict request/response client (pipeline 1).
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

from repro.errors import ChildStartupError, ChildTimeoutError
from repro.harness.crashproc import _child_env, _kill_group
from repro.harness.tmpdir import ManagedTmpdir
from repro.nvm import copy_heap, inspect_path
from repro.service.loadgen import LoadConfig, run_load
from repro.service.protocol import ServiceClient
from repro.service.reqlog import log_path_for


class _Daemon:
    """One spawned ``python -m repro serve`` child in its own session."""

    def __init__(self, tmp: ManagedTmpdir, tag: str, heap: Path,
                 *, socket_path: str, shards: int, engine: str | None,
                 capacity: int, cache_lines: int, max_batch: int,
                 max_wait_ms: float, kill_trigger: str | None,
                 telemetry: str | None, stats_path: Path | None) -> None:
        # Both generations bind the same socket path — that is what the
        # clients' reconnect loop points at.
        self.socket_path = socket_path
        self.ready = tmp.file(f"{tag}.ready")
        self.log = tmp.file(f"{tag}.log")
        cmd = [
            sys.executable, "-m", "repro", "serve",
            "--heap", str(heap),
            "--socket", self.socket_path,
            "--capacity", str(capacity),
            "--cache-lines", str(cache_lines),
            "--max-batch", str(max_batch),
            "--max-wait-ms", str(max_wait_ms),
            "--ready-file", str(self.ready),
        ]
        if engine is not None:  # else: whatever `serve` defaults to
            cmd += ["--engine", engine]
        if shards:
            cmd += ["--shards", str(shards)]
        if kill_trigger:
            cmd += ["--kill-trigger", kill_trigger]
        if telemetry:
            cmd += ["--telemetry", telemetry,
                    "--telemetry-interval", "0.1"]
        if stats_path is not None:
            cmd += ["--stats", str(stats_path)]
        self.proc = subprocess.Popen(
            cmd,
            stdout=open(self.log, "w"),
            stderr=subprocess.STDOUT,
            env=_child_env(tmp.path),
            start_new_session=True,
        )

    def wait_ready(self, timeout: float) -> None:
        deadline = time.monotonic() + timeout
        while not self.ready.exists():
            if self.proc.poll() is not None:
                raise ChildStartupError(
                    f"daemon died before ready (rc={self.proc.returncode});"
                    f" log:\n{self.log.read_text()}"
                )
            if time.monotonic() > deadline:
                _kill_group(self.proc)
                raise ChildTimeoutError(
                    f"daemon never became ready within {timeout}s"
                )
            time.sleep(0.01)

    def wait_killed(self, timeout: float) -> int:
        try:
            return self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            _kill_group(self.proc)
            raise ChildTimeoutError(
                f"daemon outlived its kill trigger ({timeout}s); "
                f"log:\n{self.log.read_text()}"
            ) from None

    def kill(self) -> None:
        _kill_group(self.proc)


def run_serve_scenario(
    *,
    shards: int = 0,
    seed: int = 0,
    engine: str | None = None,
    clients: int = 3,
    requests_per_client: int = 200,
    key_space: int = 96,
    kill_trigger: str = "writebacks:150",
    capacity: int = 8192,
    cache_lines: int = 64,
    max_batch: int = 64,
    max_wait_ms: float = 4.0,
    timeout: float = 180.0,
    telemetry_path: str | None = None,
    artifacts_dir: str | None = None,
    progress=None,
) -> dict:
    """Kill the daemon mid-batch under live load; prove resume."""

    def say(label: str) -> None:
        if progress is not None:
            progress(label)

    report: dict = {
        "scenario": "serve",
        "shards": shards,
        "kill_trigger": kill_trigger,
        "clients": clients,
        "requests_per_client": requests_per_client,
    }
    with ManagedTmpdir(prefix="repro-serve-crash-") as tmp:
        heap = (tmp.file("serve.sharded/heap.lpnv") if shards
                else tmp.file("serve.heap.lpnv"))
        stats_path = tmp.file("resumed-stats.json")
        socket_path = str(tmp.file("serve.sock"))
        daemon_kw = dict(socket_path=socket_path, shards=shards,
                         engine=engine, capacity=capacity,
                         cache_lines=cache_lines, max_batch=max_batch,
                         max_wait_ms=max_wait_ms)

        say(f"starting daemon (trigger {kill_trigger})")
        live = _Daemon(tmp, "live", heap, kill_trigger=kill_trigger,
                       telemetry=telemetry_path, stats_path=None,
                       **daemon_kw)
        live.wait_ready(timeout)

        # Clients run through the kill: strict request/response on
        # disjoint key partitions, reconnect-and-retry-until-acked,
        # read-your-writes verified on every GET.
        load_cfg = LoadConfig(
            clients=clients,
            requests_per_client=requests_per_client,
            key_space=key_space,
            seed=seed,
            pipeline=1,
            partition_keys=True,
            retry_until_acked=True,
            verify=True,
            reconnect_wait_s=timeout,
            timeout=30.0,
        )

        import threading

        load_out: dict = {}

        def _drive() -> None:
            load_out["report"] = run_load(live.socket_path, load_cfg,
                                          deadline_s=timeout)

        say("driving load")
        loader = threading.Thread(target=_drive, daemon=True)
        loader.start()

        rc = live.wait_killed(timeout)
        report["kill_rc"] = rc
        report["killed_by_sigkill"] = rc == -signal.SIGKILL
        say(f"daemon died (rc={rc}); inspecting heap before restart")
        # Decode the post-kill image read-only while the clients spin
        # on reconnect: the writebacks trigger dies inside commit(), so
        # the journal must still be armed.
        report["journal_armed_at_kill"] = bool(
            inspect_path(heap).armed_extents())
        if artifacts_dir is not None:
            # Same relative layout as under the scratch dir: a sharded
            # heap keeps its ``serve.sharded/`` directory.
            dest = Path(artifacts_dir) / heap.relative_to(tmp.path)
            copy_heap(heap, dest)
            # The WAL is written in place, so the file is always there;
            # a GET-only window leaves its bytes unchanged.
            reqlog = log_path_for(heap)
            shutil.copy2(reqlog, dest.with_name(reqlog.name))

        say("restarting daemon on the same heap")
        resumed = _Daemon(
            tmp, "resumed", heap, kill_trigger=None,
            telemetry=f"{telemetry_path}.resumed" if telemetry_path
            else None,
            stats_path=stats_path, **daemon_kw)
        # The clients reconnect to the same socket path by themselves.
        resumed.wait_ready(timeout)

        loader.join(timeout=timeout)
        if loader.is_alive():
            resumed.kill()
            raise ChildTimeoutError(
                f"load generator did not finish within {timeout}s")
        load = load_out["report"]
        failures = [c.failure for c in load.clients if c.failure]
        mismatches = [m for c in load.clients
                      for m in c.verify_mismatches]

        # Final sweep: every key any client ever wrote must hold the
        # last acked value (or be gone, for an acked delete).
        say("verifying final state against acked writes")
        expected = load.expected_state()
        sweep_mismatches = []
        with ServiceClient(live.socket_path).connect(
                retry_for=30.0) as check:
            resume_stats = check.stats()
            for key, want in sorted(expected.items()):
                got = check.get(key)
                if got != want:
                    sweep_mismatches.append(
                        {"key": key, "want": want, "got": got})
            check.shutdown()
        resumed.proc.wait(timeout=timeout)

        report.update({
            "load": load.to_dict(),
            "client_failures": failures,
            "acked_writes_checked": len(expected),
            "read_your_writes_mismatches": mismatches[:10],
            "final_sweep_mismatches": sweep_mismatches[:10],
            "resume": resume_stats["resume"],
            # What the resumed daemon actually ran, not what was asked:
            # `engine=None` means the daemon's own default.
            "engine": resume_stats["config"]["engine"],
            "engine_fallbacks": resume_stats["counters"]["engine_fallbacks"],
            # The resumed daemon's window shape: a coalesced window is
            # at most a search, an insert and a delete.
            "windows": resume_stats["counters"]["windows"],
            "launches": resume_stats["counters"]["launches"],
            # ... and why its windows closed: synchronous clients answer
            # every ack, so all but the first should read `answered`.
            "batching": resume_stats["batching"],
            "resumed_exit_rc": resumed.proc.returncode,
            "converged": (
                rc == -signal.SIGKILL
                and not failures
                and not mismatches
                and not sweep_mismatches
                and load.reconnects > 0
                and resume_stats["resume"]["resumed"]
                and resumed.proc.returncode == 0
            ),
        })
    return report


def render_serve_text(report: dict) -> str:
    """Human-readable summary of a serve-scenario report."""
    load = report.get("load", {})
    reasons = report.get("batching", {}).get("flush_reasons", {})
    lines = [
        "serve crash scenario "
        + ("CONVERGED" if report.get("converged") else "FAILED"),
        f"  kill: rc={report.get('kill_rc')} "
        f"(trigger {report.get('kill_trigger')}), journal armed at "
        f"kill: {report.get('journal_armed_at_kill')}",
        f"  load: {load.get('acked')} acked over "
        f"{load.get('clients')} client(s), {load.get('reconnects')} "
        f"reconnect(s), {load.get('resent')} resent, "
        f"{load.get('shed')} shed",
        f"  resume: {report.get('resume')}",
        f"  resumed daemon: {report.get('launches')} launch(es) in "
        f"{report.get('windows')} window(s), closed on "
        + (", ".join(f"{reason} {count}"
                     for reason, count in reasons.items() if count)
           or "nothing"),
        f"  verified {report.get('acked_writes_checked')} acked "
        f"write(s); mismatches: "
        f"{len(report.get('final_sweep_mismatches', []))} final, "
        f"{len(report.get('read_your_writes_mismatches', []))} "
        "read-your-writes",
    ]
    if report.get("client_failures"):
        lines.append(f"  client failures: {report['client_failures']}")
    return "\n".join(lines)


__all__ = ["run_serve_scenario", "render_serve_text"]


if __name__ == "__main__":  # debug entry
    out = run_serve_scenario(progress=lambda s: print(f"serve: {s}",
                                                      flush=True))
    print(render_serve_text(out))
    raise SystemExit(0 if out["converged"] else 1)
