"""Regenerate the pinned kernel observables (run from the repo root).

    PYTHONPATH=src python tests/fixtures/kernels/make_fixtures.py

``expected.json`` records, for each of the eight Parboil kernels, what
one clean launch + drain and one crash at half the grid (40 % of the
dirty lines persisted) + recover + drain leave behind: the sha256 of
every buffer's volatile and NVM image (outputs and checksum table
apart), every ``Tally`` field and the modeled cycles of every launch,
the write-back statistics, the failed-block set and the recovery
cycles. ``tests/workloads/test_pinned_observables.py`` replays the same
cases on both engines and compares.

Engine parity (``tests/workloads/test_batched_kernels.py``) cannot see
an error ``run_block`` and ``run_block_batch`` share; this file can.
The committed record was written by the kernel bodies *before* the
TPACF, MRI-GRIDDING and CUTCP pair loops were rewritten to compute only
what their sums read. Regenerating it with a newer body only proves the
body agrees with itself, so do it only for a deliberate change of a
kernel's results — and say so in the commit.
"""

import hashlib
import json
from pathlib import Path

import numpy as np

import repro
from repro.core.recovery import RecoveryManager
from repro.core.tables.base import TABLE_BUFFER_PREFIX
from repro.workloads import WORKLOADS, make_workload

HERE = Path(__file__).resolve().parent
SCALES = ("small", "medium")
SEED = 1
CACHE_LINES = 64
PERSIST_FRACTION = 0.4


def _sha(array: np.ndarray) -> str:
    return hashlib.sha256(array.tobytes()).hexdigest()


def _images(device, nvm_only=False) -> dict:
    """Every buffer's image hashes, outputs and checksum table apart."""
    out = {"outputs": {}, "table": {}}
    for name, buf in sorted(device.memory.buffers.items()):
        images = {} if nvm_only else {"volatile": _sha(buf.data)}
        if buf.shadow is not None:
            images["nvm"] = _sha(buf.shadow)
        part = "table" if name.startswith(TABLE_BUFFER_PREFIX) else "outputs"
        out[part][name] = images
    return out


def _launch(result) -> dict:
    crash = result.crash_report
    return {
        "completed": result.n_completed,
        "crashed": result.crashed,
        "lost_lines": None if crash is None else crash.n_lost,
        "tally": result.tally.to_dict(),
        "cycles": result.total_cycles,
    }


def _build(name: str, scale: str, engine: str):
    device = repro.Device(cache_capacity_lines=CACHE_LINES, engine=engine)
    work = make_workload(name, scale=scale, seed=SEED)
    kernel = work.setup(device)
    lp_kernel = repro.LPRuntime(
        device, repro.LPConfig.paper_best()).instrument(kernel)
    return device, work, lp_kernel


def observe_clean(name: str, scale: str, engine: str) -> dict:
    """One crash-free launch + drain."""
    device, work, lp_kernel = _build(name, scale, engine)
    launch = device.launch(lp_kernel)
    device.drain()
    work.verify(device, persisted=True)
    return {
        "launch": _launch(launch),
        "write_stats": device.memory.write_stats.to_dict(),
        "images": _images(device),
    }


def observe_crash(name: str, scale: str, engine: str) -> dict:
    """A crash after half the grid, then recovery and a drain."""
    device, work, lp_kernel = _build(name, scale, engine)
    plan = repro.CrashPlan(after_blocks=lp_kernel.launch_config().n_blocks // 2,
                           persist_fraction=PERSIST_FRACTION, seed=SEED)
    crashed = device.launch(lp_kernel, crash_plan=plan)
    crash_images = _images(device, nvm_only=True)
    report = RecoveryManager(device, lp_kernel).recover()
    device.drain()
    work.verify(device, persisted=True)
    return {
        "crashed": _launch(crashed),
        "crash_images": crash_images,
        "failed_blocks": report.initial.failed_blocks,
        "missing_checksums": report.initial.missing_checksums,
        "recovery_launches": [
            _launch(r) for r in (report.initial.launch,
                                 *report.recovery_launches,
                                 report.final.launch)],
        "recovery_cycles": report.total_recovery_cycles,
        "write_stats": device.memory.write_stats.to_dict(),
        "images": _images(device),
    }


OBSERVE = {"clean": observe_clean, "crash": observe_crash}


def main():
    expected = {
        name: {scale: {leg: observe(name, scale, "serial")
                       for leg, observe in OBSERVE.items()}
               for scale in SCALES}
        for name in WORKLOADS}
    (HERE / "expected.json").write_text(json.dumps(expected, indent=1) + "\n")


if __name__ == "__main__":
    main()
