"""The per-layer ledger: which callables are wrapped, and what is
computed from their spans.

Layers are the repo's packages. Every ``*_ms`` metric is **self time**
(children subtracted) in milliseconds **per window** on the serve
workloads and **per sweep** on ``crash_cycle``; its ``*_calls`` sibling
is the call count on the same base. ``nvm.open`` / ``nvm.adopt`` on the
serve workloads are per restart (they run once, in the resumed daemon).
README.md says which end-to-end metric each one should move.
"""

from __future__ import annotations

import time

from tracer import ATTRS, END, NAME, PARENT, ROOT, START, Target, self_times

#: crash_cycle's kernels, in ``repro.workloads.WORKLOADS`` order. Pinned
#: here (and checked against the program in ``targets()``) because the
#: names are part of the metric names in BENCHMARK.json.
WORKLOAD_NAMES = ("tmm", "tpacf", "mri-gridding", "spmv", "sad", "histo",
                  "cutcp", "mri-q")
KV_KERNELS = ("insert", "delete", "search")

#: Span names that get a ``<name>_ms`` / ``<name>_calls`` pair.
TIMED = (
    "service.core.partition", "service.reqlog.begin", "service.reqlog.clear",
    "megakv.insert", "megakv.delete", "megakv.search", "megakv.checkpoint",
    "core.runtime.instrument", "core.tables.free",
    "core.recovery.validate", "core.recovery.recover",
    "gpu.device.launch", "gpu.device.drain",
    "gpu.memory.alloc", "gpu.memory.free",
    "nvm.attach", "nvm.detach", "nvm.arm", "nvm.commit", "nvm.sync",
    "nvm.open", "nvm.adopt",
    "workloads.setup", "workloads.verify",
)
NVM_OPS = ("attach", "detach", "arm", "commit", "sync")


def _window_attrs(core, requests) -> dict:
    now = time.monotonic()  # the clock Request.t_enqueue is stamped with
    return {
        "fill": len(requests),
        "writes": sum(1 for r in requests if r.op != "get"),
        "queue_wait": sum(now - r.t_enqueue for r in requests)
        / max(1, len(requests)),
    }


def _window_result(result) -> dict:
    return {"launches": result.launches, "sub_batches": result.sub_batches}


def _launch_attrs(device, kernel, *args, **kwargs) -> dict:
    # "megakv-insert+lp[...]" -> "insert"; "tmm+lp[...]" -> "tmm".
    return {"kernel": kernel.name.split("+")[0].removeprefix("megakv-")}


def _recover_result(report) -> dict:
    return {"failed_blocks": len(report.initial.failed_blocks),
            "rounds": len(report.recovery_launches)}


def targets() -> list[Target]:
    """Every wrapped callable, by dotted name."""
    from repro.workloads import WORKLOADS

    if tuple(WORKLOADS) != WORKLOAD_NAMES:
        raise RuntimeError(
            "repro.workloads.WORKLOADS changed; update WORKLOAD_NAMES and "
            "BENCHMARK.json in a benchmark-only change")
    out = [
        Target("service.core.window",
               "repro.service.core.ServiceCore.execute_window",
               attrs=_window_attrs, result_attrs=_window_result),
        Target("service.core.partition",
               "repro.service.core.partition_window"),
        Target("service.reqlog.begin",
               "repro.service.reqlog.RequestLog.begin"),
        Target("service.reqlog.clear",
               "repro.service.reqlog.RequestLog.clear"),
        Target("core.runtime.instrument",
               "repro.core.runtime.LPRuntime.instrument"),
        Target("core.tables.free",
               "repro.core.tables.base.ChecksumTable.free"),
        Target("core.recovery.validate",
               "repro.core.recovery.RecoveryManager.validate"),
        Target("core.recovery.recover",
               "repro.core.recovery.RecoveryManager.recover",
               result_attrs=_recover_result),
        Target("gpu.device.launch", "repro.gpu.device.Device.launch",
               attrs=_launch_attrs,
               result_attrs=lambda r: {"blocks": r.n_completed}),
        Target("gpu.device.drain", "repro.gpu.device.Device.drain"),
        Target("gpu.memory.alloc", "repro.gpu.memory.GlobalMemory.alloc"),
        Target("gpu.memory.free", "repro.gpu.memory.GlobalMemory.free"),
        Target("workloads.verify", "repro.workloads.base.Workload.verify"),
    ]
    for op in ("insert", "delete", "search", "checkpoint"):
        out.append(Target(f"megakv.{op}",
                          f"repro.megakv.lp.KVBatchSession.{op}"))
    for cls, tag in (("repro.nvm.mapped.MappedShadow", "mapped"),
                     ("repro.nvm.sharded.ShardedShadow", "sharded")):
        for op in NVM_OPS + ("open", "adopt"):
            attrs = None
            if op == "commit":
                attrs = lambda heap, n_lines: {"lines": n_lines}  # noqa: E731
            out.append(Target(f"nvm.{op}@{tag}", f"{cls}.{op}", attrs=attrs))
    for cls in WORKLOADS.values():
        out.append(Target("workloads.setup",
                          f"{cls.__module__}.{cls.__name__}.setup"))
    return out


def _layer_name(name: str) -> str:
    """``nvm.attach@sharded`` -> ``nvm.attach`` (class tag dropped)."""
    return name.partition("@")[0]


class Ledger:
    """Self time and call counts of the spans under a set of roots."""

    def __init__(self, spans: list[list], roots: set[int]) -> None:
        self.spans = spans
        self.roots = roots
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        own = self_times(spans)
        for index, span in enumerate(spans):
            if span[ROOT] not in roots or span[END] < span[START]:
                continue
            for key in self._keys(span):
                self.self_s[key] = self.self_s.get(key, 0.0) + own[index]
                self.calls[key] = self.calls.get(key, 0) + 1

    def _keys(self, span) -> list[str]:
        name = span[NAME]
        keys = [_layer_name(name)]
        if name.endswith("@sharded"):
            keys.append("nvm.sharded." + name[4:-8])
        if name == "gpu.device.launch":
            keys.append(f"gpu.device.launch.{span[ATTRS]['kernel']}")
        return keys

    def under(self, names: tuple[str, ...]):
        """Spans under the roots named one of ``names``."""
        for span in self.spans:
            if span[ROOT] in self.roots and span[NAME] in names:
                yield span

    def timed_metrics(self, per: int) -> dict[str, float]:
        """``<name>_ms`` / ``<name>_calls`` for every TIMED name, per
        ``per`` windows or sweeps."""
        out = {}
        for name in TIMED:
            out[f"{name}_ms"] = self.self_s.get(name, 0.0) * 1e3 / per
            out[f"{name}_calls"] = self.calls.get(name, 0) / per
        for op in NVM_OPS:
            out[f"nvm.sharded.{op}_ms"] = \
                self.self_s.get(f"nvm.sharded.{op}", 0.0) * 1e3 / per
        return out

    def launch_blocks_per_s(self) -> float:
        blocks = sum(s[ATTRS]["blocks"]
                     for s in self.under(("gpu.device.launch",))
                     if "blocks" in s[ATTRS])
        busy = self.self_s.get("gpu.device.launch", 0.0)
        return blocks / busy if busy > 0 else 0.0

    def writebacks(self) -> tuple[int, int]:
        """``(write-backs, lines)`` counted at the outermost commit (a
        sharded commit fans out into one nested commit per shard)."""
        commits = ("nvm.commit@mapped", "nvm.commit@sharded")
        count = lines = 0
        for span in self.under(commits):
            parent = span[PARENT]
            if parent >= 0 and self.spans[parent][NAME] in commits:
                continue
            count += 1
            lines += span[ATTRS]["lines"]
        return count, lines


def serve_ledger(spans: list[list], t_start: float, t_end: float) -> dict:
    """Per-window metrics of one traced serve repetition, cut to the
    windows that started and ended inside the timed interval."""
    windows = {
        i for i, s in enumerate(spans)
        if s[NAME] == "service.core.window" and s[PARENT] < 0
        and t_start <= s[START] and s[START] <= s[END] <= t_end
    }
    if not windows:
        raise RuntimeError("traced daemon recorded no window in the timed "
                           "interval")
    n = len(windows)
    ledger = Ledger(spans, windows)
    out = ledger.timed_metrics(per=n)
    attrs = [spans[i][ATTRS] for i in windows]
    window_s = sum(spans[i][END] - spans[i][START] for i in windows)
    out["service.core.window_ms"] = window_s * 1e3 / n
    out["service.daemon.windows_per_s"] = n / (t_end - t_start)
    out["service.daemon.window_fill"] = sum(a["fill"] for a in attrs) / n
    out["service.daemon.queue_wait_ms"] = \
        sum(a["queue_wait"] for a in attrs) * 1e3 / n
    out["service.core.sub_batches_per_window"] = \
        sum(a.get("sub_batches", 0) for a in attrs) / n
    out["service.core.launches_per_window"] = \
        sum(a.get("launches", 0) for a in attrs) / n
    for kernel in KV_KERNELS:
        out[f"gpu.device.launch_ms.{kernel}"] = \
            ledger.self_s.get(f"gpu.device.launch.{kernel}", 0.0) * 1e3 / n
    out["gpu.blocks_per_s"] = ledger.launch_blocks_per_s()
    writebacks, lines = ledger.writebacks()
    writes = sum(a["writes"] for a in attrs)
    out["nvm.writebacks"] = writebacks / n
    out["nvm.lines_written"] = lines / n
    out["nvm.lines_per_acked_write"] = lines / writes if writes else 0.0
    # Ledger coverage: the share of window time its direct children
    # (every traced call it makes) account for.
    out["trace.coverage"] = \
        1.0 - ledger.self_s.get("service.core.window", 0.0) / window_s
    return out


def restart_ledger(spans: list[list]) -> dict:
    """What the resumed daemon spent reopening the killed heap."""
    ledger = Ledger(spans, {s[ROOT] for s in spans})
    return {f"nvm.{op}_{kind}": value
            for op in ("open", "adopt")
            for kind, value in (
                ("ms", ledger.self_s.get(f"nvm.{op}", 0.0) * 1e3),
                ("calls", float(ledger.calls.get(f"nvm.{op}", 0))))}


def crash_ledger(spans: list[list], n_sweeps: int) -> dict:
    """Per-sweep metrics of the traced crash_cycle sweeps."""
    legs = {i for i, s in enumerate(spans)
            if s[NAME] in ("crash.setup", "crash.run", "crash.recover",
                           "crash.verify")}
    ledger = Ledger(spans, legs)
    out = ledger.timed_metrics(per=n_sweeps)
    out["gpu.blocks_per_s"] = ledger.launch_blocks_per_s()
    writebacks, lines = ledger.writebacks()
    out["nvm.writebacks"] = writebacks / n_sweeps
    out["nvm.lines_written"] = lines / n_sweeps
    recovers = list(ledger.under(("core.recovery.recover",)))
    out["core.recovery.failed_blocks"] = \
        sum(s[ATTRS]["failed_blocks"] for s in recovers) / n_sweeps
    out["core.recovery.rounds"] = \
        sum(s[ATTRS]["rounds"] for s in recovers) / n_sweeps

    # Per kernel: every launch (normal, validate, recover mode) and the
    # recovery manager's own time, under that kernel's two legs.
    own = self_times(spans)
    per_kernel = {name: [0.0, 0.0] for name in WORKLOAD_NAMES}
    measured = 0.0
    for index, span in enumerate(spans):
        root = span[ROOT]
        if root not in legs \
                or spans[root][NAME] not in ("crash.run", "crash.recover"):
            continue
        if index == root:
            measured += span[END] - span[START]
        slot = per_kernel[spans[root][ATTRS]["workload"]]
        if span[NAME] == "gpu.device.launch":
            slot[0] += own[index]
        elif span[NAME] in ("core.recovery.recover",
                            "core.recovery.validate"):
            slot[1] += own[index]
    for name, (launch_s, recover_s) in per_kernel.items():
        out[f"gpu.device.launch_ms.{name}"] = launch_s * 1e3 / n_sweeps
        out[f"core.recovery.recover_ms.{name}"] = recover_s * 1e3 / n_sweeps
    # Ledger coverage: the share of run + recover wall time that is
    # kernel launches plus recovery-manager time.
    covered = sum(a + b for a, b in per_kernel.values())
    out["trace.coverage"] = covered / measured if measured else 0.0
    return out
