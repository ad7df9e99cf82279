"""Finding model, JSON payload schema, suppressions, rendering."""

import pytest

from repro.analysis.findings import (
    PAYLOAD_VERSION,
    Finding,
    LintReport,
    RULES,
    Severity,
    apply_suppressions,
    findings_to_payload,
    payload_to_findings,
    render_text,
    validate_payload,
)


def _finding(**overrides):
    base = dict(
        rule="LP001",
        severity=Severity.ERROR,
        message="store to persistent buffer 'x' is uncovered",
        file="kernel.cu",
        line=12,
        kernel="k",
        fix_hint="cover it",
    )
    base.update(overrides)
    return Finding(**base)


def test_unknown_rule_id_rejected():
    with pytest.raises(ValueError, match="unknown lint rule"):
        _finding(rule="LP999")


def test_every_rule_has_a_description():
    # LP005 is retired (its subject, the forked launch pool's
    # ``parallel_safe`` declaration, is gone); the id is not reused.
    assert set(RULES) == {f"LP{i:03d}" for i in range(1, 11)} - {"LP005"}
    assert all(desc for desc in RULES.values())


def test_location_renders_file_and_line():
    assert _finding().location == "kernel.cu:12"
    assert _finding(file=None, line=None).location == "<builtin>"


def test_payload_round_trip_is_lossless():
    report = LintReport(targets=["kernel.cu", "builtin:tmm"])
    report.findings = [
        _finding(),
        _finding(rule="LP002", severity=Severity.WARNING, line=None),
        _finding(rule="LP007", severity=Severity.NOTE, suppressed=True,
                 suppress_reason="documented"),
    ]
    payload = findings_to_payload(report)
    assert payload["version"] == PAYLOAD_VERSION
    back = payload_to_findings(payload)
    assert back.targets == report.targets
    assert [f.to_dict() for f in back.findings] == [
        f.to_dict() for f in report.findings
    ]
    # Round-tripping the regenerated payload is also stable.
    assert findings_to_payload(back) == payload


def test_payload_counts_and_exit_code():
    report = LintReport(targets=["t"])
    report.findings = [
        _finding(),
        _finding(severity=Severity.NOTE),
        _finding(suppressed=True, suppress_reason="r"),
    ]
    payload = findings_to_payload(report)
    assert payload["summary"] == {
        "error": 1, "warning": 0, "note": 1, "suppressed": 1,
    }
    assert payload["exit_code"] == 1
    assert report.active == [report.findings[0]]


def test_notes_and_suppressed_do_not_gate():
    report = LintReport()
    report.findings = [
        _finding(severity=Severity.NOTE),
        _finding(suppressed=True, suppress_reason="r"),
    ]
    assert report.exit_code == 0


@pytest.mark.parametrize("mutate", [
    lambda p: p.update(version=99),
    lambda p: p.pop("summary"),
    lambda p: p.pop("findings"),
    lambda p: p["findings"].append({"rule": "LP999", "severity": "error",
                                    "message": "x"}),
    lambda p: p["findings"].append({"rule": "LP001", "severity": "fatal",
                                    "message": "x"}),
    lambda p: p["findings"].append({"rule": "LP001", "severity": "error",
                                    "message": ""}),
    lambda p: p["findings"].append({"rule": "LP001", "severity": "error",
                                    "message": "x", "line": "12"}),
    lambda p: p["summary"].pop("suppressed"),
])
def test_validate_payload_rejects_schema_deviations(mutate):
    report = LintReport(targets=["t"])
    report.findings = [_finding()]
    payload = findings_to_payload(report)
    mutate(payload)
    with pytest.raises(ValueError):
        validate_payload(payload)


def test_apply_suppressions_attaches_reason():
    findings = [_finding(), _finding(rule="LP003")]
    apply_suppressions(findings, {"LP001": "known-safe"})
    assert findings[0].suppressed and findings[0].suppress_reason == "known-safe"
    assert not findings[1].suppressed


def test_render_text_orders_errors_first_and_summarizes():
    report = LintReport(targets=["t"])
    report.findings = [
        _finding(rule="LP006", severity=Severity.WARNING, line=1),
        _finding(line=50),
        _finding(rule="LP002", suppressed=True, suppress_reason="why"),
    ]
    text = render_text(report)
    lines = text.splitlines()
    assert "LP001" in lines[0]          # errors before warnings
    assert "fix: cover it" in lines[1]
    assert "LP006" in lines[2]
    assert "reason: why" in lines[-2]   # suppressed sink to the bottom
    assert lines[-1].startswith("lplint: 2 finding(s), 1 suppressed")
