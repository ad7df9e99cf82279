"""Regenerate the pinned kernel observables (run from the repo root).

    PYTHONPATH=src python tests/fixtures/kernels/make_fixtures.py [LEG ...]

(naming legs re-records only those, leaving every other entry as is).

``expected.json`` records, for each of the eight Parboil kernels at
``small`` and ``medium``, what three legs leave behind: one clean
launch + drain; one crash at half the grid (40 % of the dirty lines
persisted) + recover + drain; and the same crash under an Adler-32
lane (``crash_adler32``), whose checksums depend on the order a body
stores in. Each leg records the sha256 of every buffer's volatile and
NVM image (outputs and checksum table apart), every ``Tally`` field
and the modeled cycles of every launch, the write-back statistics, and
for a crash the failed-block set and the recovery cycles. The MEGA-KV
write kernel (updates, fresh puts and deletes of present and absent
keys in one batch) and search kernel (half hits, half misses) have the
same three legs each, on a preloaded store. At ``small`` only, four
more legs take the same crash through each hash table's probe or
eviction walk: ``crash_quadratic`` and ``crash_cuckoo`` under the
``naive_*`` presets, and the ``_locked`` pair under a table lock with
emulated atomics, which charges ``serial_cycles`` per probe. Two
more legs at ``small`` wrap each Parboil kernel with Eager Persistency
(``repro.ep``) instead of LP: ``ep_clean`` (one launch + drain) and
``ep_crash`` (the same crash at half the grid, then the undo-log
rollback and re-execution of every uncommitted block); the undo-log
buffers' images are recorded with the outputs.
``tests/workloads/test_pinned_observables.py`` replays every case on
both engines and compares.

Engine parity (``tests/workloads/test_batched_kernels.py``) cannot see
an error both engines share; this file can. A Parboil kernel now has
one body, ``run_block_batch``, which ``serial`` runs one block at a
time, so this file is what holds that body to the results of the
scalar ``run_block`` it replaced. The ``clean`` and ``crash`` Parboil
legs were written by the kernel bodies *before* the TPACF,
MRI-GRIDDING and CUTCP pair loops were rewritten to compute only what
their sums read. The ``crash_adler32`` leg and the MEGA-KV rows were
written by the scalar ``run_block`` bodies as they stood at commit
274ddd0, with validation folding an output map in store order; the
Parboil ones were deleted right after. The MEGA-KV ``crash_adler32``
rows were written by the MEGA-KV scalar bodies as they stood at commit
5de6cd1 (read lanes included), just before those were deleted too.
The four hash-table legs were written by the two tables' own walks as
they stood at commit c632891, before ``insertsim`` and the tables came
to share one walk per table. The two EP legs were written by the EP
wrapper's scalar body as it stood at commit d513a60, before it came to
run its inner kernel's batch body on the row.
Regenerating the file with a newer body only proves the body agrees
with itself, so do it only for a deliberate change of a kernel's
results — and say so in the commit.
"""

import functools
import hashlib
import json
from pathlib import Path

import numpy as np

import repro
from repro.core.config import AtomicMode, LockMode
from repro.core.recovery import RecoveryManager
from repro.core.tables.base import TABLE_BUFFER_PREFIX
from repro.ep import EPRecoveryManager, EPRuntime
from repro.megakv.kernels import (
    KVInsertKernel,
    KVSearchKernel,
    KVWriteKernel,
    alloc_results,
)
from repro.megakv.store import MegaKVStore
from repro.workloads import WORKLOADS, make_workload

HERE = Path(__file__).resolve().parent
SCALES = ("small", "medium")
SEED = 1
CACHE_LINES = 64
PERSIST_FRACTION = 0.4
#: An order-sensitive lane: Adler-32 folds in store order, so this leg
#: pins the order a kernel's body issues its stores in.
ADLER32 = repro.LPConfig(checksums=(repro.ChecksumKind.ADLER32,),
                         reduction=repro.ReductionMode.SEQUENTIAL_MEMORY)
#: The MEGA-KV kernels pinned beside the Parboil ones.
KV_KERNELS = ("megakv-write", "megakv-search")


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


def _build(name: str, scale: str, engine: str, config=None):
    """``(device, check, lp_kernel)``: ``check(device)`` verifies the
    drained device against the host's expectation."""
    device = repro.Device(cache_capacity_lines=CACHE_LINES, engine=engine)
    if name in KV_KERNELS:
        kernel, check = _kv_setup(device, name)
    else:
        work = make_workload(name, scale=scale, seed=SEED)
        kernel = work.setup(device)
        check = functools.partial(work.verify, persisted=True)
    lp_kernel = repro.LPRuntime(
        device, config or repro.LPConfig.paper_best()).instrument(kernel)
    return device, check, lp_kernel


def _kv_setup(device, name: str):
    """A store preloaded (and drained) with 300 keys, then one batch:
    a write of updates, fresh puts and deletes of present and absent
    keys in no particular order, or a search of half hits and half
    misses. 16 threads per block, so the grid is a dozen-odd blocks."""
    store = MegaKVStore(device, capacity=512)
    rng = np.random.default_rng(SEED)
    keys = np.unique(rng.integers(1, 2 ** 40, size=300, dtype=np.uint64))
    device.launch(KVInsertKernel(store, keys, keys ^ np.uint64(1 << 50), 16))
    device.drain()
    want = {int(k): int(k) ^ (1 << 50) for k in keys}
    if name == "megakv-write":
        fresh = np.unique(rng.integers(2 ** 41, 2 ** 42, size=60,
                                       dtype=np.uint64))
        batch = rng.permutation(np.concatenate(
            [keys[::3], fresh, np.arange(5, 25, dtype=np.uint64)]))
        values = np.where(np.arange(batch.size) % 3 == 0, np.uint64(0),
                          batch ^ np.uint64(1 << 52))
        for key, value in zip(batch.tolist(), values.tolist()):
            if value:
                want[key] = value
            else:
                want.pop(key, None)

        def check(device):
            assert store.contents(persisted=True) == want

        return KVWriteKernel(store, batch, values, 16), check
    queries = np.concatenate([
        keys[:150], rng.integers(2 ** 41, 2 ** 42, size=131, dtype=np.uint64)])
    results = alloc_results(device, "results", queries.size)
    hits = np.array([want.get(int(k), 0) for k in queries], dtype=np.uint64)

    def check(device):
        assert np.array_equal(results.nvm_array, hits)

    return KVSearchKernel(store, queries, "results", 16), check


def observe_clean(name: str, scale: str, engine: str) -> dict:
    """One crash-free launch + drain."""
    device, check, lp_kernel = _build(name, scale, engine)
    launch = device.launch(lp_kernel)
    device.drain()
    check(device)
    return {
        "launch": _launch(launch),
        "write_stats": device.memory.write_stats.to_dict(),
        "images": _images(device),
    }


def observe_crash(name: str, scale: str, engine: str, config=None) -> dict:
    """A crash after half the grid, then recovery and a drain."""
    device, check, lp_kernel = _build(name, scale, engine, config)
    plan = repro.CrashPlan(after_blocks=lp_kernel.launch_config().n_blocks // 2,
                           persist_fraction=PERSIST_FRACTION, seed=SEED)
    crashed = device.launch(lp_kernel, crash_plan=plan)
    crash_images = _images(device, nvm_only=True)
    report = RecoveryManager(device, lp_kernel).recover()
    device.drain()
    check(device)
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


def _build_ep(name: str, scale: str, engine: str):
    """``(device, check, ep_kernel)``: a Parboil kernel under EP."""
    device = repro.Device(cache_capacity_lines=CACHE_LINES, engine=engine)
    work = make_workload(name, scale=scale, seed=SEED)
    ep_kernel = EPRuntime(device).instrument(work.setup(device))
    return device, functools.partial(work.verify, persisted=True), ep_kernel


def observe_ep_clean(name: str, scale: str, engine: str) -> dict:
    """One crash-free EP launch + drain."""
    device, check, ep_kernel = _build_ep(name, scale, engine)
    launch = device.launch(ep_kernel)
    device.drain()
    check(device)
    return {
        "launch": _launch(launch),
        "write_stats": device.memory.write_stats.to_dict(),
        "images": _images(device),
    }


def observe_ep_crash(name: str, scale: str, engine: str) -> dict:
    """An EP crash after half the grid, then undo-log recovery."""
    device, check, ep_kernel = _build_ep(name, scale, engine)
    plan = repro.CrashPlan(after_blocks=ep_kernel.launch_config().n_blocks // 2,
                           persist_fraction=PERSIST_FRACTION, seed=SEED)
    crashed = device.launch(ep_kernel, crash_plan=plan)
    crash_images = _images(device, nvm_only=True)
    report = EPRecoveryManager(device, ep_kernel).recover()
    device.drain()
    check(device)
    return {
        "crashed": _launch(crashed),
        "crash_images": crash_images,
        "uncommitted_blocks": report.uncommitted_blocks,
        "undo_records_applied": report.undo_records_applied,
        "relaunch": None if report.relaunch is None
        else _launch(report.relaunch),
        "write_stats": device.memory.write_stats.to_dict(),
        "images": _images(device),
    }


#: A table lock and emulated atomics: the hash tables' slowest corner.
LOCKED = {"locks": LockMode.LOCK_BASED, "atomics": AtomicMode.EMULATED}
OBSERVE = {"clean": observe_clean, "crash": observe_crash,
           "crash_adler32": functools.partial(observe_crash, config=ADLER32)}
#: The crash leg through each hash table's walk, at ``TABLE_SCALE``.
TABLE_LEGS = {
    f"crash_{table}{suffix}": functools.partial(
        observe_crash, config=preset().with_(**changes))
    for table, preset in (("quadratic", repro.LPConfig.naive_quadratic),
                          ("cuckoo", repro.LPConfig.naive_cuckoo))
    for suffix, changes in (("", {}), ("_locked", LOCKED))}
#: The Eager Persistency legs, also at ``TABLE_SCALE``.
EP_LEGS = {"ep_clean": observe_ep_clean, "ep_crash": observe_ep_crash}
#: Every leg recorded at ``TABLE_SCALE`` only.
SMALL_LEGS = {**TABLE_LEGS, **EP_LEGS}
TABLE_SCALE = "small"
#: The legs the MEGA-KV rows record (they have no scale presets).
KV_LEGS = ("clean", "crash", "crash_adler32")


def legs_at(scale: str) -> dict:
    """The legs a Parboil kernel records at ``scale``."""
    return {**OBSERVE, **(SMALL_LEGS if scale == TABLE_SCALE else {})}


def main(only=()):
    """Record every leg, or re-record only the legs named in ``only``
    into the existing file, leaving every other entry as it is."""
    path = HERE / "expected.json"
    expected = json.loads(path.read_text()) if only else {}
    for name in WORKLOADS:
        for scale in SCALES:
            by_leg = expected.setdefault(name, {}).setdefault(scale, {})
            for leg, observe in legs_at(scale).items():
                if not only or leg in only:
                    by_leg[leg] = observe(name, scale, "serial")
    for name in KV_KERNELS:
        for leg in KV_LEGS:
            if not only or leg in only:
                expected.setdefault(name, {})[leg] = OBSERVE[leg](
                    name, None, "serial")
    path.write_text(json.dumps(expected, indent=1) + "\n")


if __name__ == "__main__":
    import sys

    main(sys.argv[1:])
