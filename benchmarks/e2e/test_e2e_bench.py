"""Self-test of the end-to-end benchmark (not part of the tier-1 run).

    python3 -m pytest benchmarks/e2e/test_e2e_bench.py -q

Runs every workload at quick sizes (1.5 measured seconds), traced and
untraced, through the same ``run.main`` the driver calls, and checks the
contract: names and units, wrapper removal, and that no process, socket,
heap file or shared-memory segment outlives a run — also when a workload
raises half-way.
"""

from __future__ import annotations

import json
import os
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
for entry in (str(ROOT / "src"), str(HERE)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import compare  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import traffic  # noqa: E402
from tracer import Target, Tracer, TracerError, resolve  # noqa: E402

QUICK_SECONDS = "1.5"
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


def _children() -> list[int]:
    """Live or unreaped child processes of this one."""
    me = os.getpid()
    out = []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            stat = Path(f"/proc/{pid}/stat").read_text()
        except OSError:
            continue
        if int(stat.rpartition(")")[2].split()[1]) == me:
            out.append(int(pid))
    return out


def _shm() -> set[str]:
    return set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()


@pytest.fixture
def leak_check():
    """Nothing the run created may be left when it returns or raises."""
    children, shm = _children(), _shm()
    yield
    assert _children() == children, "a child process outlived the run"
    assert _shm() == shm, "a /dev/shm segment outlived the run"
    assert not run.WORK.exists(), f"{run.WORK} outlived the run"


def _originals() -> dict[str, object]:
    out = {}
    for target in layers.targets():
        owner, attr = resolve(target.path)
        out[target.path] = vars(owner)[attr]
    return out


def test_contract_file_is_well_formed():
    doc = run.load_contract()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert doc["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200
               and "\n" not in w["why"] for w in doc["workloads"])
    names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]] \
        + [w["name"] for w in doc["workloads"]]
    assert len(set(names)) == len(names)
    assert all(NAME.match(n) for n in names)
    for metric in doc["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 <= metric["bound"] <= 0.25
    for metric in doc["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    assert all(UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
               for m in doc["end_to_end"] + doc["per_layer"])
    setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert 1 <= len(doc["end_to_end"]) <= 16
    assert 1 <= len(doc["per_layer"]) <= 128
    assert isinstance(doc["run_seconds"], int) and 1 <= doc["run_seconds"] <= 60


def test_traffic_is_a_pure_function_of_seed_and_connection():
    stream = traffic.OpStream(0, 0, (0.50, 0.40, 0.10))
    first = [next(stream) for _ in range(8)]
    assert first == PINNED_SEED0_CONN0
    again = traffic.OpStream(0, 0, (0.50, 0.40, 0.10))
    assert [next(again) for _ in range(8)] == first
    other = traffic.OpStream(0, 1, (0.50, 0.40, 0.10))
    keys0 = set(traffic.partition_keys(0))
    assert all(next(other)[1] not in keys0 for _ in range(5000))
    assert all(op[1] in keys0 for op in first)
    assert 0 not in keys0 and len(keys0) == traffic.KEYS_PER_CONN


#: First 8 ops of seed 0, connection 0, 50/40/10 mix. A change here moves
#: every serve number: make it in a benchmark-only change.
PINNED_SEED0_CONN0 = [
    ("get", 7381402429213843970, None),
    ("put", 17418742259747381416, 6644042353465226672),
    ("get", 11400714819323198485, None),
    ("put", 11400714819323198485, 3496375036213417016),
    ("put", 13434836157767841202, 4953861519375774072),
    ("put", 17039604505960495211, 7590603382626009448),
    ("get", 14820093436037199924, None),
    ("get", 6446095480991000055, None),
]


def test_tracer_fails_on_a_missing_target_and_installs_nothing():
    before = _originals()
    tracer = Tracer()
    gone = Target("nvm.attach", "repro.nvm.sharded.ShardedShadow.attach_v2")
    with pytest.raises(TracerError):
        tracer.install(layers.targets() + [gone])
    assert tracer.installed == 0
    assert _originals() == before


def test_tracer_self_time_subtracts_children():
    import repro.service.core as core

    tracer = Tracer()
    tracer.install([Target("partition",
                           "repro.service.core.partition_window")])
    try:
        with tracer.span("outer"):
            core.partition_window([])
    finally:
        tracer.uninstall()
    from tracer import END, START, self_times

    outer, inner = tracer.spans
    assert inner[3] == 0 and inner[4] == 0  # parent, window id
    own = self_times(tracer.spans)
    assert own[0] == pytest.approx(
        (outer[END] - outer[START]) - (inner[END] - inner[START]))


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_declared_metric_is_emitted(workload, trace, capsys,
                                          leak_check):
    before = _originals()
    code = run.main(["--workload", workload, "--seed", "3",
                     "--seconds", QUICK_SECONDS, "--trace", trace])
    assert code == 0
    assert _originals() == before, "a timing wrapper was left installed"
    doc = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True and doc["failed"] == 0
    assert doc["attempted"] >= 1
    contract = run.load_contract()
    declared = contract["per_layer" if trace == "1" else "end_to_end"]
    assert set(doc["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        entry = doc["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], float)
    if trace == "0":
        assert all(e["value"] > 0 for e in doc["metrics"].values())
    else:
        # crash_cycle's uncovered share is msync + drain, 4-9 % at full
        # size and noisier over the one traced sweep of a quick run.
        floor = 0.85 if workload == "crash_cycle" else 0.90
        assert doc["metrics"]["trace.coverage"]["value"] >= floor


def test_traced_sharded_run_reproduces_the_attach_detach_finding(capsys):
    assert run.main(["--workload", "serve_mixed_sharded4", "--seed", "3",
                     "--seconds", "3", "--trace", "1"]) == 0
    doc = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    value = {k: v["value"] for k, v in doc["metrics"].items()}
    assert value["nvm.attach_ms"] + value["nvm.detach_ms"] \
        > value["nvm.sync_ms"] + value["gpu.device.drain_ms"]


@pytest.mark.parametrize("workload", ["serve_mixed_mapped", "crash_cycle"])
def test_nothing_outlives_a_run_that_raises(workload, monkeypatch,
                                            leak_check):
    import crash_cycle

    calls = {"n": 0}
    real = traffic.pipelined

    def dies_in_the_timed_loop(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] > traffic.CONNECTIONS:  # the preload went through
            raise RuntimeError("injected")
        return real(*args, **kwargs)

    def dies_with_a_heap_open(self, name, leg, work, device):
        raise RuntimeError("injected")

    monkeypatch.setattr(traffic, "pipelined", dies_in_the_timed_loop)
    monkeypatch.setattr(crash_cycle._Sweep, "_verify", dies_with_a_heap_open)
    with pytest.raises(RuntimeError, match="injected"):
        run.main(["--workload", workload, "--seconds", QUICK_SECONDS])


def test_compare_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100]
    assert compare.verdict(steady, steady, "lower", 0.10) == "same"
    assert compare.verdict(steady, [v * 1.2 for v in steady],
                           "lower", 0.10) == "worse"
    assert compare.verdict(steady, [v * 1.2 for v in steady],
                           "higher", 0.10) == "better"
    assert compare.verdict(steady, [v * 0.8 for v in steady],
                           "lower", 0.10) == "better"
    noisy = [60, 140, 100, 70, 130, 100, 80, 120, 90, 110]
    assert compare.verdict(noisy, noisy[::-1], "lower", 0.10) == "unresolved"
    assert compare.verdict(noisy, [v / 3 for v in noisy],
                           "lower", 0.10) == "better"
