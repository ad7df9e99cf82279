"""The bounded crash-state model checker (repro.analysis.crashmc)."""

import importlib.util
import json
from pathlib import Path

from repro.__main__ import main
from repro.analysis.crashmc import (
    MCOptions,
    check_case,
    check_workload,
    cross_check_mc,
    fixture_dict,
    replay_fixture,
    run_mc,
)
from repro.analysis.py_rules import lint_kernel_object

FIXTURES = Path(__file__).parent.parent / "fixtures"

#: Quick settings: cache capacity 1 maximizes eviction events at tiny
#: scale, so even a small budget covers a meaningful slice of space.
QUICK = MCOptions(scale="tiny", cache_lines=1, budget=300)


def _offenders():
    spec = importlib.util.spec_from_file_location(
        "lp_offenders", FIXTURES / "lint" / "lp_offenders.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _offender_build(name):
    module = _offenders()

    def build(shadow):
        return module.make_offender_case(name, shadow=shadow, cache_lines=2)

    return build


# ---------------------------------------------------------------------------
# Convergence on correct workloads
# ---------------------------------------------------------------------------

def test_spmv_every_reachable_state_converges():
    report = check_workload("spmv", QUICK)
    assert report.n_events > 0
    assert report.states_explored > 0
    assert report.converged, [c.to_dict() for c in report.counterexamples]


def test_small_grid_workload_exceeds_thousand_distinct_states():
    # The acceptance bar: a small-grid workload must reach >= 1000
    # distinct crash states within the default budget.
    report = check_workload("spmv", MCOptions(cache_lines=2))
    assert report.states_explored >= 1000
    assert not report.budget_exhausted
    assert report.converged


def test_enumeration_is_deterministic():
    a = check_workload("spmv", QUICK).to_dict()
    b = check_workload("spmv", QUICK).to_dict()
    a.pop("elapsed_s")
    b.pop("elapsed_s")
    assert a == b


def test_budget_caps_candidates():
    report = check_workload("spmv", MCOptions(scale="tiny", cache_lines=1,
                                              budget=10))
    assert report.candidates == 10
    assert report.budget_exhausted


def test_run_mc_summary_document():
    doc = run_mc(["spmv"], QUICK)
    assert doc["schema"] == 1
    assert doc["converged"] is True
    assert doc["cases"][0]["case"] == "spmv"
    assert doc["total"]["states_explored"] == \
        doc["cases"][0]["states_explored"]
    json.dumps(doc)  # JSON-serializable end to end


# ---------------------------------------------------------------------------
# Seeded offenders: the checker finds what the rules claim
# ---------------------------------------------------------------------------

def test_lp008_offender_fails_to_converge():
    report = check_case(_offender_build("lp008-wrap"), "lp008-wrap",
                        MCOptions(cache_lines=2, budget=400))
    assert not report.converged
    assert "recovery failed" in report.counterexamples[0].reason


def test_lp009_offender_diverges_from_reference():
    report = check_case(_offender_build("lp009-feedback"), "lp009-feedback",
                        MCOptions(cache_lines=2, budget=400))
    assert not report.converged
    ce = report.counterexamples[0]
    assert "differs from the crash-free reference" in ce.reason
    # Minimization landed on a torn-write window (the double-apply
    # needs a partially persisted line to show).
    assert ce.state.armed is not None or ce.state.extras


def test_lp010_offender_converges_under_uniform_simulator():
    # The warp-synchronous simulator executes the divergent barrier
    # uniformly, so enumeration cannot reproduce the hazard — exactly
    # the case the conservative static rule exists for.
    report = check_case(_offender_build("lp010-shared-escape"),
                        "lp010-shared-escape",
                        MCOptions(cache_lines=2, budget=400))
    assert report.converged


# ---------------------------------------------------------------------------
# Static <-> dynamic cross-check
# ---------------------------------------------------------------------------

def test_cross_check_confirms_static_verdict_silently():
    module = _offenders()
    device, lp_kernel = module.make_offender_case("lp008-wrap")
    findings = lint_kernel_object(lp_kernel, device=device)
    report = check_case(_offender_build("lp008-wrap"), "lp008-wrap",
                        MCOptions(cache_lines=2, budget=400))
    # Static flagged it AND the checker confirmed it: agreement, no
    # LP007 escalation either way.
    assert any(f.rule == "LP008" for f in findings)
    assert cross_check_mc("lp008-wrap", findings, report) == []


def test_cross_check_errors_when_static_misses_a_counterexample():
    report = check_case(_offender_build("lp009-feedback"), "lp009-feedback",
                        MCOptions(cache_lines=2, budget=400))
    out = cross_check_mc("lp009-feedback", [], report)
    assert len(out) == 1
    assert out[0].rule == "LP007"
    assert out[0].severity.value == "error"
    assert "less conservative" in out[0].message


def test_cross_check_notes_unreproduced_static_verdict():
    module = _offenders()
    device, lp_kernel = module.make_offender_case("lp010-shared-escape")
    findings = lint_kernel_object(lp_kernel, device=device)
    assert any(f.rule == "LP010" for f in findings)
    report = check_case(_offender_build("lp010-shared-escape"),
                        "lp010-shared-escape",
                        MCOptions(cache_lines=2, budget=400))
    out = cross_check_mc("lp010-shared-escape", findings, report)
    assert len(out) == 1
    assert out[0].rule == "LP007"
    assert out[0].severity.value == "note"
    assert "conservative" in out[0].message


# ---------------------------------------------------------------------------
# Counterexample fixtures
# ---------------------------------------------------------------------------

def test_fixture_roundtrip_reproduces_counterexample():
    options = MCOptions(cache_lines=2, budget=400)
    report = check_case(_offender_build("lp009-feedback"), "lp009-feedback",
                        options)
    ce = report.counterexamples[0]
    data = fixture_dict(ce.to_dict(), options, kind="offender")
    result = replay_fixture(data, _offender_build("lp009-feedback"))
    assert result["converged"] is False
    assert result["image_digest"] == ce.image_digest
    assert result["reason"] == ce.reason


def test_committed_lp009_fixture_still_reproduces():
    # The minimized counterexample committed under fixtures/crashmc is
    # the worked example in docs/analysis.md; it must keep reproducing
    # byte-for-byte until the offender kernel is fixed.
    path = FIXTURES / "crashmc" / "lp009-feedback-0.json"
    data = json.loads(path.read_text())
    result = replay_fixture(data, _offender_build(data["case"]))
    assert result["converged"] is False
    assert result["image_digest"] == data["image_digest"]
    assert result["reason"] == data["reason"]


# ---------------------------------------------------------------------------
# Observability + CLI
# ---------------------------------------------------------------------------

def test_mc_emits_metrics():
    from repro import obs

    with obs.recording() as rec:
        check_workload("spmv", QUICK)
        counters = rec.metrics_snapshot()["counters"]
    assert any(k.startswith("mc.states_explored") for k in counters)
    assert any(k.startswith("mc.counterexamples") for k in counters)


def test_cli_mc_json(capsys):
    rc = main(["mc", "--workloads", "spmv", "--scale", "tiny",
               "--cache-lines", "1", "--budget", "120", "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert doc["converged"] is True
    assert doc["cases"][0]["states_explored"] > 0


def test_cli_mc_text(capsys):
    rc = main(["mc", "--workloads", "spmv", "--scale", "tiny",
               "--cache-lines", "1", "--budget", "120"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "distinct states" in out
