"""Out-of-process crash harness tests: real SIGKILLs, real reopens.

The end-to-end matrix here is the PR's acceptance test: a child
process running a workload launch against a mapped heap is SIGKILLed
mid-launch, the parent reopens the heap file cold, runs the
engine-pluggable validate+recover pipeline, and the recovered buffers
equal a crash-free run's output — across workloads × engines.
"""

import json

import pytest

from repro.core.config import LP_CONFIGS
from repro.errors import ChildStartupError, ConfigError, HarnessError
from repro.harness import (
    ChildSpec,
    ManagedTmpdir,
    parse_trigger,
    run_cell,
    run_child,
    run_grid,
)
from repro.harness.scenarios import render_text, write_report

# ---------------------------------------------------------------------------
# Trigger parsing
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("text,expected", [
    ("writebacks:6", ("writebacks", 6.0)),
    ("blocks:12", ("blocks", 12.0)),
    ("walltime:0.5", ("walltime", 0.5)),
    ("shardwb2:5", ("shardwb2", 5.0)),
    ("shardwb*:6", ("shardwb*", 6.0)),
])
def test_parse_trigger_accepts_valid(text, expected):
    assert parse_trigger(text) == expected


@pytest.mark.parametrize("text", [
    "writebacks", "writebacks:", "writebacks:abc", "writebacks:-3",
    "writebacks:2.5", "blocks:0", "walltime:0", "sigkill:3", "6",
    "shardwb:4", "shardwb-1:4", "shardwb*", "shardwb2:0",
])
def test_parse_trigger_rejects_invalid(text):
    with pytest.raises(HarnessError):
        parse_trigger(text)


def test_shardwb_target_decodes_shard_index():
    from repro.harness.crashproc import shardwb_target

    assert shardwb_target("shardwb2") == 2
    assert shardwb_target("shardwb0") == 0
    assert shardwb_target("shardwb*") is None
    with pytest.raises(HarnessError):
        shardwb_target("writebacks")


# ---------------------------------------------------------------------------
# Managed tmpdir (the no-leaked-state satellite)
# ---------------------------------------------------------------------------

def test_managed_tmpdir_removes_contents_on_exit():
    with ManagedTmpdir() as tmp:
        path = tmp.path
        tmp.file("heap.lpnv").write_bytes(b"x" * 64)
        (path / "nested").mkdir()
        (path / "nested" / "worker.tmp").write_text("leak?")
        assert path.exists()
    assert not path.exists()


def test_managed_tmpdir_cleanup_is_idempotent():
    tmp = ManagedTmpdir()
    tmp.cleanup()
    tmp.cleanup()
    assert not tmp.path.exists()


def test_managed_tmpdir_keep_leaves_directory():
    tmp = ManagedTmpdir(keep=True)
    marker = tmp.file("marker")
    marker.touch()
    tmp.cleanup()
    try:
        assert marker.exists()
    finally:
        import shutil

        shutil.rmtree(tmp.path, ignore_errors=True)


# ---------------------------------------------------------------------------
# Startup retry/backoff
# ---------------------------------------------------------------------------

def _spec(tmp, **overrides):
    base = dict(
        workload="spmv", scale="tiny", seed=0, config="global-array",
        engine="serial", cache_lines=8,
        heap_path=str(tmp.file("heap.lpnv")),
        ready_path=str(tmp.file("ready")),
        phase="launch", trigger=None,
    )
    base.update(overrides)
    return ChildSpec(**base)


def test_child_that_dies_before_ready_exhausts_bounded_retries():
    with ManagedTmpdir() as tmp:
        # An unknown workload makes the child exit during setup, before
        # it ever touches its ready marker — a startup failure.
        spec = _spec(tmp, workload="no-such-workload")
        with pytest.raises(ChildStartupError) as excinfo:
            run_child(spec, tmp, timeout=60.0, startup_retries=1,
                      backoff=0.01)
        assert "2 times" in str(excinfo.value)


def test_child_spec_round_trips_through_json():
    with ManagedTmpdir() as tmp:
        spec = _spec(tmp, trigger="blocks:3")
        assert ChildSpec.from_json(spec.to_json()) == spec


def test_child_spec_shards_round_trips_and_defaults_off():
    with ManagedTmpdir() as tmp:
        assert _spec(tmp).shards == 0
        spec = _spec(tmp, shards=4, trigger="shardwb*:6")
        restored = ChildSpec.from_json(spec.to_json())
        assert restored == spec
        assert restored.shards == 4


def test_clean_child_completes_and_leaves_consistent_heap():
    import numpy as np

    from repro.harness.crashproc import build_run
    from repro.nvm.mapped import MappedShadow

    with ManagedTmpdir() as tmp:
        spec = _spec(tmp)  # no trigger: the child survives
        outcome = run_child(spec, tmp, timeout=60.0)
        assert outcome.completed and not outcome.killed
        with MappedShadow.open(spec.heap_path) as heap:
            assert heap.torn is None
            device, work, _ = build_run(spec)
            heap.adopt(device.memory)
            for name, expect in work.reference().items():
                got = device.memory[name].array.reshape(expect.shape)
                assert np.allclose(got, expect, rtol=1e-4, atol=1e-5)


@pytest.mark.parametrize("config", list(LP_CONFIGS))
def test_every_door_builds_the_same_memory_layout(monkeypatch, config):
    """``repro run``, the harness child spec and the model checker all
    build through ``make_lp_run``: same buffers, same addresses, same
    order — what adopting a reopened heap into a rebuilt device needs."""
    from repro.__main__ import _make_run, build_parser
    from repro.analysis import crashmc
    from repro.harness.crashproc import build_run

    def layout(device):
        return [(name, buf.base_addr, buf.nbytes)
                for name, buf in device.memory.buffers.items()]

    layouts = {}
    args = build_parser().parse_args([
        "run", "histo", "--scale", "tiny", "--seed", "3",
        "--config", config, "--cache-lines", "8"])
    device, *_, stack = _make_run(args)
    stack.close()
    layouts["cli"] = layout(device)

    with ManagedTmpdir() as tmp:
        spec = _spec(tmp, workload="histo", seed=3, config=config)
        layouts["harness"] = layout(build_run(spec)[0])

    monkeypatch.setattr(
        crashmc, "check_case",
        lambda build, case, options: layout(build(None)[0]))
    layouts["mc"] = crashmc.check_workload("histo", crashmc.MCOptions(
        scale="tiny", seed=3, config=config, cache_lines=8))

    assert len(layouts["cli"]) > 2, "workload buffers + a checksum table"
    assert layouts["cli"] == layouts["harness"] == layouts["mc"]


def test_unknown_lp_config_is_a_config_error_at_every_door():
    from repro.analysis import crashmc
    from repro.harness.crashproc import build_run

    with ManagedTmpdir() as tmp:
        with pytest.raises(ConfigError, match="unknown LP config"):
            build_run(_spec(tmp, config="linear"))
    with pytest.raises(ConfigError, match="unknown LP config"):
        crashmc.check_workload("spmv", crashmc.MCOptions(config="linear"))


# ---------------------------------------------------------------------------
# One kill-trigger installer, one inspect/measure path: every layout
# ---------------------------------------------------------------------------

LAYOUTS = pytest.mark.parametrize("shards", [0, 1, 4],
                                  ids=["plain", "1-shard", "4-shard"])


class _Killed(Exception):
    """Stands in for the SIGKILL so the trigger can fire in-process."""


def _raise_killed():
    raise _Killed


@LAYOUTS
@pytest.mark.parametrize("trigger", ["writebacks:6", "shardwb{k}:1",
                                     "shardwb*:2"])
def test_install_kill_trigger_fires_inside_an_armed_window(
        monkeypatch, tmp_path, shards, trigger):
    from repro.harness import crashproc
    from repro.nvm import create_heap, inspect_path

    monkeypatch.setattr(crashproc, "_die", _raise_killed)
    path = tmp_path / "heap.lpnv"
    heap = create_heap(path, shards)
    spec = ChildSpec(
        workload="spmv", scale="small", seed=0, config="global-array",
        engine="serial", cache_lines=4, heap_path=str(path),
        ready_path="", phase="launch", trigger=None, shards=shards)
    device, _work, lp_kernel = crashproc.build_run(spec, shadow=heap)
    # {k}: the extent that homes the checksum table — always written.
    target = next(k for k, extent in enumerate(heap.extents)
                  if any(e.role == "table" for e in extent.entries.values()))
    trigger = trigger.format(k=target)
    crashproc.install_kill_trigger(trigger, device, heap)
    with pytest.raises(_Killed):
        device.launch(lp_kernel)
        device.drain()
    heap.close()  # the listener died before the journal cleared

    armed = inspect_path(path).armed_extents()
    assert armed, "the trigger must fire with a journal still armed"
    if trigger.startswith(f"shardwb{target}"):
        assert target in armed  # fired inside that extent's own window
    if shards < 2:
        assert armed == [0]  # a plain heap is its own extent 0


def test_install_kill_trigger_refuses_what_it_cannot_arm(tmp_path):
    from repro.harness import crashproc
    from repro.nvm import create_heap

    with create_heap(tmp_path / "heap.lpnv", 2) as heap:
        with pytest.raises(HarnessError, match="only 2 extent"):
            crashproc.install_kill_trigger("shardwb2:1", None, heap)
    for trigger in ("writebacks:1", "shardwb*:1"):
        with pytest.raises(HarnessError, match="needs a durable heap"):
            crashproc.install_kill_trigger(trigger, None, None)


@LAYOUTS
def test_inspect_round_agrees_with_measure(shards):
    """The cold inspector and the reopen-and-measure path report the
    same armed / torn / per-extent / directory state, whatever the
    layout — one code path each, no branch on ``shards``."""
    from repro.harness.scenarios import (
        _inspect_consistent,
        _inspect_round,
        _measure,
    )

    with ManagedTmpdir() as tmp:
        spec = _spec(tmp, shards=shards, trigger="shardwb*:3",
                     scale="small", cache_lines=4)
        assert run_child(spec, tmp, timeout=60.0).killed
        inspected = _inspect_round(spec)
        measured = _measure(spec)
    assert inspected["armed"] and measured["torn_lines"] > 0
    assert inspected["shards_armed"] == \
        [int(k) for k in measured["torn_by_shard"]]
    assert _inspect_consistent(inspected, measured)


# ---------------------------------------------------------------------------
# End-to-end kill matrix: the acceptance criterion
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("engine", ["serial", "batched"])
@pytest.mark.parametrize("workload", ["spmv", "tmm"])
def test_kill_midlaunch_reopen_recover_verify(workload, engine):
    cell = run_cell(workload, engine, "global-array", kill_rounds=1,
                    trigger="writebacks:6")
    (round0,) = cell["rounds"]
    assert round0["killed"], "the trigger must actually SIGKILL the child"
    assert round0["returncode"] == -9
    assert round0["blocks_failed"] > 0, "the kill must lose real state"
    final = cell["final"]
    assert final["converged"]
    assert final["blocks_recovered"] > 0
    assert final["verified"], "recovered output != crash-free reference"
    assert final["verified_persisted"]
    assert cell["ok"]


def test_rekill_during_recovery_still_converges():
    cell = run_cell("tmm", "serial", "global-array", kill_rounds=2,
                    trigger="writebacks:6")
    assert [r["phase"] for r in cell["rounds"]] == ["launch", "recover"]
    assert all(r["killed"] for r in cell["rounds"])
    assert cell["final"]["converged"] and cell["ok"]
    assert cell["rounds_to_convergence"] == 3


def test_blocks_trigger_kills_after_n_blocks():
    cell = run_cell("tmm", "serial", "global-array", kill_rounds=1,
                    trigger="blocks:3")
    (round0,) = cell["rounds"]
    assert round0["killed"]
    # A block-boundary kill happens outside the write-back window:
    # no torn lines, but plenty of lost blocks.
    assert round0["torn_lines"] == 0
    assert round0["blocks_failed"] > 0
    assert cell["ok"]


def test_writebacks_trigger_leaves_a_torn_window():
    cell = run_cell("tmm", "serial", "global-array", kill_rounds=1,
                    trigger="writebacks:6")
    assert cell["rounds"][0]["torn_lines"] > 0
    assert cell["rounds"][0]["torn_by_buffer"]
    assert cell["ok"]


def test_grid_report_shape_and_render(tmp_path):
    report = run_grid(workloads=("spmv",), engines=("serial",),
                      kill_rounds=1)
    assert report["suite"] == "crash-test"
    assert len(report["cells"]) == 1
    assert report["converged"]
    out = tmp_path / "report.json"
    write_report(report, out)
    assert json.loads(out.read_text())["converged"]
    text = render_text(report)
    assert "spmv" in text and "ok" in text


# ---------------------------------------------------------------------------
# Seeded, reproducible kill triggers (--kill-seed)
# ---------------------------------------------------------------------------

def test_round_trigger_is_deterministic_per_seed():
    from repro.harness.scenarios import _round_trigger

    a = _round_trigger("writebacks:6", 42, 0, "spmv", "serial", "ga")
    b = _round_trigger("writebacks:6", 42, 0, "spmv", "serial", "ga")
    assert a == b
    kind, value = a.split(":")
    assert kind == "writebacks"
    assert 1 <= int(value) <= 12  # bounded by twice the base threshold


def test_round_trigger_varies_across_rounds_and_cells():
    from repro.harness.scenarios import _round_trigger

    base = _round_trigger("writebacks:50", 42, 0, "spmv", "serial", "ga")
    variants = {
        _round_trigger("writebacks:50", 42, 1, "spmv", "serial", "ga"),
        _round_trigger("writebacks:50", 42, 0, "tmm", "serial", "ga"),
        _round_trigger("writebacks:50", 43, 0, "spmv", "serial", "ga"),
    }
    assert variants - {base}, "the stream must depend on round/cell/seed"


def test_round_trigger_passthrough_cases():
    from repro.harness.scenarios import _round_trigger

    assert _round_trigger("writebacks:6", None, 0, "w", "e", "c") \
        == "writebacks:6"
    assert _round_trigger("walltime:0.5", 42, 0, "w", "e", "c") \
        == "walltime:0.5"


def test_run_cell_records_seeded_triggers_for_replay():
    a = run_cell("tmm", "serial", "global-array", kill_rounds=1,
                 trigger="writebacks:6", kill_seed=7)
    b = run_cell("tmm", "serial", "global-array", kill_rounds=1,
                 trigger="writebacks:6", kill_seed=7)
    assert a["rounds"][0]["trigger"] == b["rounds"][0]["trigger"]
    assert a["rounds"][0]["trigger"].startswith("writebacks:")
    assert a["ok"] and b["ok"]


def test_run_grid_report_carries_the_kill_seed():
    report = run_grid(workloads=("spmv",), engines=("serial",),
                      kill_rounds=1, kill_seed=7)
    assert report["kill_seed"] == 7
    assert report["converged"]


# ---------------------------------------------------------------------------
# Observability: inspector cross-check, child traces, heap artifacts
# ---------------------------------------------------------------------------

def test_inspector_agrees_with_harness_on_armed_journal_kill(tmp_path):
    """The PR's acceptance criterion: a child SIGKILLed inside the
    armed-journal write-back window must yield the *same* armed /
    torn / directory state from ``repro inspect``'s cold decoder as
    from the harness's reopen-and-measure path — cross-checked per
    round and folded into the cell verdict.
    """
    from repro.nvm import inspect_path

    cell = run_cell("tmm", "serial", "global-array", kill_rounds=1,
                    trigger="writebacks:6",
                    artifacts_dir=tmp_path / "artifacts")
    (round0,) = cell["rounds"]
    assert round0["killed"]
    inspected = round0["inspect"]
    # The writebacks trigger fires inside the journal window.
    assert inspected["armed"] is True
    assert inspected["mode"] == "EXACT"
    assert round0["inspect_consistent"] is True
    assert inspected["torn_lines"] == round0["torn_lines"] > 0
    assert inspected["torn_by_buffer"] == round0["torn_by_buffer"]
    assert inspected["buffers"] == round0["buffers"]
    assert cell["ok"]

    # The copied artifact still holds the armed journal (_measure's
    # reopen disarmed the live heap *after* the snapshot), so
    # ``repro inspect`` on the artifact reproduces the round's state.
    artifact = tmp_path / "artifacts" / "tmm-serial-global-array.heap.lpnv"
    report = inspect_path(artifact)
    assert report.armed_extents() == [0]
    assert report.merged_torn() == {
        "torn_lines": round0["torn_lines"],
        "torn_by_buffer": round0["torn_by_buffer"]}
    assert sorted(e.name for e in report.entries) == round0["buffers"]


def test_clean_round_inspects_consistently_too():
    cell = run_cell("spmv", "serial", "global-array", kill_rounds=1,
                    trigger="blocks:3")
    (round0,) = cell["rounds"]
    assert round0["inspect"]["armed"] is False
    assert round0["inspect"]["mode"] == "EMPTY"
    assert round0["inspect_consistent"] is True
    assert cell["ok"]


def test_trace_dir_captures_child_flight_recorder(tmp_path):
    from repro.obs import read_jsonl_trace

    cell = run_cell("tmm", "serial", "global-array", kill_rounds=2,
                    trigger="writebacks:6", trace_dir=tmp_path)
    assert cell["ok"]
    traces = sorted(p.name for p in tmp_path.glob("*.trace.jsonl"))
    assert traces == [
        "tmm-serial-global-array-round0-launch.trace.jsonl",
        "tmm-serial-global-array-round1-recover.trace.jsonl",
    ]
    # The SIGKILL truncates the stream mid-run; the reader tolerates a
    # torn tail and the captured prefix has real device-side events.
    events = read_jsonl_trace(
        tmp_path / "tmm-serial-global-array-round0-launch.trace.jsonl")
    assert events, "child recorded nothing before its SIGKILL"
    names = {e["name"] for e in events}
    assert "harness.child.ready" in names
    # The writebacks trigger kills inside the journal window, so the
    # last thing on tape is the arming of the window that tore.
    assert events[-1]["name"] == "nvm.writeback.arm"


def test_sampler_flushes_at_round_boundaries():
    from repro import obs
    from repro.obs import MetricsRegistry, Recorder, TelemetrySampler

    rec = Recorder(metrics=MetricsRegistry())
    rec.sampler = TelemetrySampler(rec.metrics)
    previous = obs.install(rec)
    try:
        cell = run_cell("spmv", "serial", "global-array", kill_rounds=2,
                        trigger="writebacks:6")
    finally:
        obs.install(previous)
        rec.sampler.close()
    assert cell["ok"]
    assert len(rec.sampler.samples) == len(cell["rounds"])
    latest = rec.sampler.latest()
    assert any(k.startswith("harness.rounds") for k in latest.counters)
