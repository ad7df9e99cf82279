"""Sharded crash-and-recover integration: a real SIGKILL inside one
shard's write-back window, cold parallel reopen of every shard, and
convergence to the crash-free reference — plus the no-leaked-state
guarantee for shard files and /dev/shm (satellite of the sharded
scale-out PR)."""

import os
import tempfile
from pathlib import Path

from repro.harness import run_cell
from repro.nvm import inspect_path

N_SHARDS = 4


def test_shard_kill_cell_converges_with_containment(tmp_path):
    cell = run_cell("spmv", "serial", "global-array", shards=N_SHARDS,
                    kill_rounds=2, trigger="writebacks:6",
                    artifacts_dir=tmp_path / "artifacts")
    assert cell["shards"] == N_SHARDS

    launch, recover = cell["rounds"]
    # The launch round was converted to a shard-kill trigger: the child
    # dies inside ONE shard's armed journal window.
    assert launch["trigger"].startswith("shardwb*:")
    assert launch["killed"] and launch["returncode"] == -9
    assert launch["blocks_failed"] > 0
    armed = launch["inspect"]["shards_armed"]
    assert armed, "the kill must land inside an armed shard journal"
    assert len(armed) < N_SHARDS, (
        "torn state leaked outside the killed shard — containment is "
        "the whole point of per-shard journals"
    )
    assert launch["torn_by_shard"] == {
        str(k): launch["inspect"]["torn_by_shard"][str(k)] for k in armed
    }
    assert launch["inspect_consistent"]

    # The recover round re-kills with a heap-wide trigger; the grid
    # still converges to the verified crash-free reference.
    assert recover["phase"] == "recover"
    assert recover["inspect_consistent"]
    final = cell["final"]
    assert final["converged"]
    assert final["verified"] and final["verified_persisted"]
    assert cell["ok"]

    # Artifacts: manifest + every shard under <cell>.sharded/, and the
    # plain-heap ``*.heap.lpnv`` glob (CI's telemetry job) sees none
    # of them.
    cell_dir = tmp_path / "artifacts" / "spmv-serial-global-array.sharded"
    assert (cell_dir / "heap.lpnv").exists()
    for k in range(N_SHARDS):
        assert (cell_dir / f"heap.lpnv.shard{k}").exists()
    assert not list((tmp_path / "artifacts").glob("*.heap.lpnv"))
    report = inspect_path(cell_dir / "heap.lpnv")
    assert report.n_shards == N_SHARDS
    # The last round's snapshot was taken before its reopen, so the
    # artifact still carries that round's armed journals verbatim.
    assert report.armed_extents() == recover["inspect"]["shards_armed"]
    assert report.merged_torn()["torn_lines"] == recover["torn_lines"]


def test_shard_kill_leaves_no_files_or_segments_behind():
    tmp_root = Path(tempfile.gettempdir())
    dirs_before = set(tmp_root.glob("lp-harness-*"))
    files_before = set(tmp_root.glob("**/*.lpnv.shard*"))
    shm_before = sorted(os.listdir("/dev/shm"))

    cell = run_cell("tmm", "serial", "global-array", shards=N_SHARDS,
                    kill_rounds=1, trigger="writebacks:6")
    assert cell["ok"] and cell["rounds"][0]["killed"]

    # No shard file, manifest, or harness scratch dir survives the
    # kill — ManagedTmpdir owns them all parent-side.
    assert not set(tmp_root.glob("lp-harness-*")) - dirs_before
    assert not set(tmp_root.glob("**/*.lpnv.shard*")) - files_before
    # And nothing under /dev/shm came or went: no part of the system
    # creates a shared-memory segment.
    assert sorted(os.listdir("/dev/shm")) == shm_before
