"""Metrics engine invariance: commutative counters are bit-identical.

The launch engines already guarantee bit-identical memory, write stats
and table contents (``tests/gpu/test_engines.py``); the flight
recorder extends that contract to metrics. Every *commutative* counter
— write-back lines, table probes/collisions, completed blocks — must
be bit-identical whichever engine ran the launch. The exemptions are
pinned in :data:`repro.obs.metrics.ORDER_SENSITIVE_PREFIXES` (wall
clock, scheduling shape) plus the ``engine`` identity label, and
:func:`repro.obs.metrics.commutative_view` is the enforced projection.
"""

import json

import pytest

import repro
from repro import obs
from repro.obs.metrics import ORDER_SENSITIVE_PREFIXES, commutative_view
from repro.workloads.spmv import SPMVWorkload

ENGINES = ["serial", "batched"]


def record_spmv(engine, config, crash_after=None):
    """One launch (+ recovery when crashed) under a fresh registry."""
    with obs.recording(trace=False, metrics=True) as rec:
        device = repro.Device(cache_capacity_lines=64,
                              block_order="shuffled", seed=7,
                              engine=engine)
        work = SPMVWorkload(scale="small", seed=3)
        kernel = work.setup(device)
        lp_kernel = repro.LPRuntime(device, config).instrument(kernel)
        crash_plan = None
        if crash_after is not None:
            crash_plan = repro.CrashPlan(after_blocks=crash_after,
                                         persist_fraction=0.3, seed=5)
        device.launch(lp_kernel, crash_plan=crash_plan)
        if crash_after is not None:
            repro.RecoveryManager(device, lp_kernel).recover()
        return rec.metrics_snapshot()


@pytest.mark.parametrize("engine", [e for e in ENGINES if e != "serial"])
def test_clean_launch_commutative_counters_match(engine):
    config = repro.LPConfig.paper_best()
    ref = commutative_view(record_spmv("serial", config))
    got = commutative_view(record_spmv(engine, config))
    assert json.dumps(ref) == json.dumps(got)


@pytest.mark.parametrize("engine", [e for e in ENGINES if e != "serial"])
def test_crash_recovery_commutative_counters_match(engine):
    config = repro.LPConfig.paper_best()
    ref = commutative_view(record_spmv("serial", config, crash_after=4))
    got = commutative_view(record_spmv(engine, config, crash_after=4))
    assert json.dumps(ref) == json.dumps(got)


@pytest.mark.parametrize("engine", [e for e in ENGINES if e != "serial"])
def test_hash_table_counters_match(engine):
    """Table probe/collision counters replay identically (block order)."""
    config = repro.LPConfig.naive_quadratic()
    ref = commutative_view(record_spmv("serial", config))
    got = commutative_view(record_spmv(engine, config))
    assert json.dumps(ref) == json.dumps(got)
    assert any(k.startswith("table.insert.") for k in ref)


def test_invariant_series_actually_recorded():
    """The projection is not vacuous: core counters are present."""
    view = commutative_view(
        record_spmv("serial", repro.LPConfig.paper_best(), crash_after=4))
    prefixes = {k.split("{")[0] for k in view}
    assert "nvm.writeback.lines" in prefixes
    assert "engine.blocks.completed" in prefixes
    assert "lp.validate.blocks" in prefixes
    assert "lp.recover.blocks" in prefixes
    assert "nvm.crash.lost_lines" in prefixes


def test_exemptions_are_documented_and_narrow():
    """Only wall clock and scheduling shape may differ across engines.

    This pins the exemption list: adding a prefix here must come with a
    justification in docs/observability.md.
    """
    assert ORDER_SENSITIVE_PREFIXES == (
        "time.", "engine.scheduling.", "engine.fallbacks",
        "service.window.ms")


def test_scheduling_series_differ_but_are_exempt():
    """Batched records scheduling counters serial never emits —
    the projection must be what hides them, not luck."""
    config = repro.LPConfig.paper_best()
    raw_serial = record_spmv("serial", config)["counters"]
    raw_batched = record_spmv("batched", config)["counters"]
    serial_sched = {k for k in raw_serial
                    if k.startswith("engine.scheduling.")}
    batched_sched = {k for k in raw_batched
                     if k.startswith("engine.scheduling.")}
    assert not serial_sched
    assert batched_sched, "batched engine must report its group count"
