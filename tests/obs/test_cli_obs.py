"""CLI observability surface: ``run --json/--trace/--metrics``, ``profile``."""

import json

import pytest

from repro.__main__ import main
from repro.obs import load_schema, validate


def test_run_json_is_structured(capsys):
    assert main(["run", "spmv", "--scale", "tiny", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["workload"] == "spmv"
    assert doc["verified"] is True
    launch = doc["launch"]
    assert launch["n_completed"] == launch["n_blocks"]
    assert not launch["crashed"]
    assert launch["tally"]["global_write_bytes"] > 0
    assert doc["write_stats"]["total_lines"] >= 0
    assert "by_reason" in doc["write_stats"]
    assert doc["table_stats"]["inserts"] == launch["n_blocks"]
    assert doc["metrics"]["counters"]  # --json implies a live registry
    assert "recovery" not in doc


def test_run_json_with_crash_includes_forensics(capsys):
    assert main(["run", "tmm", "--scale", "tiny", "--crash-after", "4",
                 "--cache-lines", "8", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["launch"]["crashed"]
    assert doc["launch"]["crash"]["lost_lines"] >= 0
    recovery = doc["recovery"]
    assert recovery["recovered_blocks"] > 0
    forensics = recovery["forensics"]
    assert forensics is not None
    validate(forensics, load_schema("forensics"))
    assert forensics["n_failed"] == len(forensics["failures"])


def test_run_writes_schema_valid_trace_and_metrics(tmp_path, capsys):
    trace = tmp_path / "run.trace.json"
    metrics = tmp_path / "run.metrics.json"
    assert main(["run", "spmv", "--scale", "tiny", "--crash-after", "4",
                 "--cache-lines", "8", "--trace", str(trace),
                 "--metrics", str(metrics)]) == 0
    out = capsys.readouterr().out
    assert "trace written to" in out
    assert "metrics written to" in out

    doc = json.loads(trace.read_text())
    validate(doc, load_schema("chrome_trace"))
    names = {ev["name"] for ev in doc["traceEvents"]}
    # One loadable timeline: launch, crash, validate, recover all there.
    assert {"device.launch", "nvm.crash", "lp.phase.validate",
            "lp.phase.recover", "forensics.block"} <= names
    assert doc["otherData"]["workload"] == "spmv"

    snap = json.loads(metrics.read_text())
    assert any(k.startswith("nvm.writeback.lines")
               for k in snap["counters"])
    assert any(k.startswith("lp.recover.blocks")
               for k in snap["counters"])


def test_run_crash_prints_forensics(capsys):
    assert main(["run", "tmm", "--scale", "tiny", "--crash-after", "4",
                 "--cache-lines", "8"]) == 0
    out = capsys.readouterr().out
    assert "forensics:" in out
    assert "blocks failed validation" in out


def test_profile_prints_phase_table(capsys):
    assert main(["profile", "spmv", "--scale", "tiny"]) == 0
    out = capsys.readouterr().out
    for phase in ("launch", "drain", "validate", "verify", "total"):
        assert phase in out
    assert "NVM lines" in out


def test_profile_json_breakdown(capsys):
    assert main(["profile", "spmv", "--scale", "tiny", "--crash-after",
                 "4", "--cache-lines", "8", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["crashed"]
    assert doc["validation_failed_blocks"] == 0  # post-recovery check
    names = [row["phase"] for row in doc["phases"]]
    assert names == ["launch", "recover", "drain", "validate", "verify"]
    launch = doc["phases"][0]
    assert launch["cycles"] > 0
    assert launch["nvm_lines"] >= 0


def test_profile_writes_trace_artifact(tmp_path, capsys):
    trace = tmp_path / "profile.trace.json"
    assert main(["profile", "spmv", "--scale", "tiny",
                 "--trace", str(trace)]) == 0
    doc = json.loads(trace.read_text())
    validate(doc, load_schema("chrome_trace"))
    assert doc["otherData"]["command"] == "profile"


def test_run_without_flags_installs_no_recorder(capsys):
    """Plain runs stay on the null recorder (the zero-cost default)."""
    from repro import obs

    assert obs.current() is obs.NULL_RECORDER
    assert main(["run", "spmv", "--scale", "tiny"]) == 0
    assert obs.current() is obs.NULL_RECORDER


# ---------------------------------------------------------------------------
# run --telemetry / --prom
# ---------------------------------------------------------------------------


def test_run_telemetry_stream_and_prom_export(tmp_path, capsys):
    from repro import obs
    from repro.obs import lint_prometheus, read_telemetry_jsonl

    stream = tmp_path / "telemetry.jsonl"
    prom = tmp_path / "metrics.prom"
    assert main(["run", "spmv", "--scale", "tiny",
                 "--telemetry", str(stream), "--prom", str(prom)]) == 0
    out = capsys.readouterr().out
    assert "telemetry stream written to" in out
    assert "prometheus exposition written to" in out
    # the sampler thread was stopped and the recorder restored
    assert obs.current() is obs.NULL_RECORDER

    docs = read_telemetry_jsonl(stream)
    assert docs, "the final flush guarantees at least one sample"
    schema = load_schema("telemetry")
    for doc in docs:
        validate(doc, schema)
    final = docs[-1]
    assert any(k.startswith("device.launches") for k in final["counters"])
    assert any(k.startswith("engine.blocks.completed")
               for k in final["counters"])

    text = prom.read_text()
    assert "repro_device_launches_total" in text
    assert lint_prometheus(text) == []


# ---------------------------------------------------------------------------
# repro inspect
# ---------------------------------------------------------------------------


def _armed_heap(path):
    import numpy as np

    from repro.gpu.memory import GlobalMemory
    from repro.nvm.mapped import MappedShadow

    heap = MappedShadow.create(path)
    mem = GlobalMemory(cache_capacity_lines=4, shadow=heap)
    buf = mem.alloc("x", (300,), np.float64)
    mem.write(buf, np.arange(300), np.arange(300, dtype=np.float64))
    mem.drain()
    heap.arm([0, 1, 5])
    heap.sync()
    return heap


def test_cli_inspect_human_and_json(tmp_path, capsys):
    path = tmp_path / "heap.lpnv"
    _armed_heap(path)

    assert main(["inspect", str(path)]) == 0
    out = capsys.readouterr().out
    assert "journal: EXACT" in out
    assert "torn x: 3 line(s)" in out

    assert main(["inspect", str(path), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    validate(doc, load_schema("heap_inspect"))
    assert doc["manifest"] is None and doc["armed_extents"] == [0]
    assert doc["extents"][0]["torn"]["armed"] is True
    assert doc["torn_by_buffer"] == {"x": 3}

    # inspection never disarmed the journal
    assert main(["inspect", str(path)]) == 0
    assert "journal: EXACT" in capsys.readouterr().out


def test_cli_inspect_diff_exit_codes(tmp_path, capsys):
    from repro.nvm.mapped import MappedShadow

    path = tmp_path / "heap.lpnv"
    _armed_heap(path).close()
    copy = tmp_path / "copy.lpnv"
    copy.write_bytes(path.read_bytes())

    assert main(["inspect", str(path), "--diff", str(copy)]) == 0
    assert "identical" in capsys.readouterr().out

    mutated = MappedShadow.open(copy)
    mutated.view("x")[0] = -1.0
    mutated.sync()
    mutated.close()
    assert main(["inspect", str(path), "--diff", str(copy),
                 "--json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    validate(doc, load_schema("heap_inspect"))
    assert doc["identical"] is False


def test_cli_inspect_rejects_garbage(tmp_path, capsys):
    bad = tmp_path / "bad.lpnv"
    bad.write_bytes(b"NOTAHEAP" * 4)
    assert main(["inspect", str(bad)]) == 2
    assert capsys.readouterr().err


def _armed_sharded_heap(path):
    import numpy as np

    from repro.gpu.memory import GlobalMemory
    from repro.nvm.sharded import ShardedShadow

    heap = ShardedShadow.create(path, n_shards=4)
    mem = GlobalMemory(cache_capacity_lines=4, shadow=heap)
    buf = mem.alloc("x", (300,), np.float64)
    mem.write(buf, np.arange(300), np.arange(300, dtype=np.float64))
    mem.drain()
    first, _ = heap.entries["x"].line_span(heap.line_size)
    heap.arm([first, first + 1])
    heap.sync()
    return heap


def test_cli_inspect_sharded_manifest(tmp_path, capsys):
    path = tmp_path / "heap.lpnv"
    victim = _armed_sharded_heap(path).shard_of_buffer("x")

    assert main(["inspect", str(path)]) == 0
    out = capsys.readouterr().out
    assert "sharded heap" in out
    assert "4 shard(s)" in out

    assert main(["inspect", str(path), "--json", "--shards", "4"]) == 0
    doc = json.loads(capsys.readouterr().out)
    validate(doc, load_schema("heap_inspect"))
    assert doc["manifest"]["n_shards"] == 4
    assert doc["armed_extents"] == [victim]
    assert doc["torn_by_buffer"] == {"x": 2}
    assert len(doc["extents"]) == 4

    # A single shard file is itself a valid v1 heap for the inspector.
    assert main(["inspect", str(tmp_path / f"heap.lpnv.shard{victim}"),
                 "--json"]) == 0
    shard_doc = json.loads(capsys.readouterr().out)
    validate(shard_doc, load_schema("heap_inspect"))
    assert shard_doc["manifest"] is None
    (extent,) = shard_doc["extents"]
    assert extent["journal"]["armed"] is True


def test_cli_inspect_shards_expectation_mismatch(tmp_path, capsys):
    sharded = tmp_path / "heap.lpnv"
    _armed_sharded_heap(sharded)
    assert main(["inspect", str(sharded), "--shards", "2"]) == 2
    assert "expected a 2-shard manifest" in capsys.readouterr().err

    from repro.nvm.mapped import MappedShadow

    plain = tmp_path / "plain.lpnv"
    MappedShadow.create(plain).close()
    assert main(["inspect", str(plain), "--shards", "4"]) == 2
    assert capsys.readouterr().err


def test_cli_inspect_sharded_diff_and_mixed_kinds(tmp_path, capsys):
    path = tmp_path / "heap.lpnv"
    _armed_sharded_heap(path).close()
    copy = tmp_path / "copy.lpnv"
    copy.write_bytes(path.read_bytes())
    for k in range(4):
        (tmp_path / f"copy.lpnv.shard{k}").write_bytes(
            (tmp_path / f"heap.lpnv.shard{k}").read_bytes())

    assert main(["inspect", str(path), "--diff", str(copy),
                 "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    validate(doc, load_schema("heap_inspect"))
    assert doc["identical"] is True

    # Sharded vs plain shard file is a type error, not a diff.
    assert main(["inspect", str(path), "--diff",
                 str(tmp_path / "heap.lpnv.shard0")]) == 2
    assert "cannot diff" in capsys.readouterr().err


@pytest.mark.parametrize("shards", [0, 1, 4],
                         ids=["plain", "1-shard", "4-shard"])
def test_cli_inspect_is_one_command_for_every_layout(tmp_path, capsys,
                                                     shards):
    """``inspect [--json] [--diff] [--shards N]`` over a plain file, a
    1-shard manifest and a 4-shard one: same flags, one schema."""
    import numpy as np

    from repro.gpu.memory import GlobalMemory
    from repro.nvm import copy_heap, create_heap

    path = tmp_path / "a" / "heap.lpnv"
    path.parent.mkdir()
    heap = create_heap(path, shards)
    mem = GlobalMemory(cache_capacity_lines=4, shadow=heap)
    buf = mem.alloc("x", (300,), np.float64)
    mem.write(buf, np.arange(300), np.arange(300, dtype=np.float64))
    mem.drain()
    first, _ = heap.entries["x"].line_span(heap.line_size)
    heap.arm([first, first + 1])
    heap.close()
    copy = tmp_path / "b" / "heap.lpnv"
    copy_heap(path, copy)

    assert main(["inspect", str(path), "--shards", str(shards)]) == 0
    assert "torn x: 2 line(s)" in capsys.readouterr().out
    assert main(["inspect", str(path), "--json",
                 "--shards", str(shards)]) == 0
    doc = json.loads(capsys.readouterr().out)
    validate(doc, load_schema("heap_inspect"))
    assert (doc["manifest"] or {"n_shards": 0})["n_shards"] == shards
    assert len(doc["extents"]) == max(1, shards)
    assert doc["torn_lines"] == 2 and doc["torn_by_buffer"] == {"x": 2}

    assert main(["inspect", str(path), "--shards", str(shards + 1)]) == 2
    assert f"expected a {shards + 1}-shard manifest" in \
        capsys.readouterr().err

    assert main(["inspect", str(path), "--diff", str(copy), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    validate(doc, load_schema("heap_inspect"))
    assert doc["identical"] is True
    assert len(doc["extents"]) == max(1, shards)


# ---------------------------------------------------------------------------
# repro watch
# ---------------------------------------------------------------------------


def test_cli_watch_once_renders_latest_sample(tmp_path, capsys):
    from repro.obs import MetricsRegistry, TelemetrySampler

    clock_t = [100.0]
    stream = tmp_path / "telemetry.jsonl"
    reg = MetricsRegistry()
    sampler = TelemetrySampler(reg, jsonl_path=stream,
                               clock=lambda: clock_t[0])
    reg.inc("harness.rounds", 2, phase="launch")
    sampler.sample()
    clock_t[0] += 1.0
    reg.inc("harness.rounds", 3, phase="launch")
    reg.set_gauge("service.queue.depth", 1)
    sampler.sample()
    sampler.close()

    assert main(["watch", str(stream), "--once"]) == 0
    out = capsys.readouterr().out
    assert "harness.rounds" in out
    assert "service.queue.depth" in out


def test_cli_watch_empty_stream_fails(tmp_path, capsys):
    stream = tmp_path / "telemetry.jsonl"
    stream.write_text("")
    assert main(["watch", str(stream), "--once"]) == 1
    assert "no samples" in capsys.readouterr().err
