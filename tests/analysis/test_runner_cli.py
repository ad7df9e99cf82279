"""lplint target dispatch and the ``python -m repro lint`` CLI."""

import json
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.analysis.findings import validate_payload
from repro.analysis.runner import expand_targets, lint_builtin, run_lint

FIXTURE = Path(__file__).parent.parent / "fixtures" / "lint" / "bad_kernel.cu"


def test_builtins_report_only_documented_suppressions():
    report, _, _ = lint_builtin()
    assert report.exit_code == 0
    assert report.findings, "MegaKV's conservative LP002s are expected"
    assert all(f.suppressed and f.suppress_reason for f in report.findings)
    assert len(report.targets) == 11  # 8 workloads + 3 MegaKV kernels


#: What lplint sees in a MEGA-KV write body: the slot claim, the bucket
#: scan of the key array and a read lane's load of the value array
#: beside the record store of both, and the read lanes' store to a
#: results buffer it cannot resolve.
MEGAKV_HAZARDS = (
    "atomic read-modify-write on 'megakv_keys' accumulates on re-execution",
    "buffer 'megakv_keys' is both read and written; re-execution would "
    "consume its own output",
    "buffer 'megakv_vals' is both read and written; re-execution would "
    "consume its own output",
    "store to unresolvable buffer expression 'self.results_buffer' cannot "
    "be proven idempotent",
)


def test_builtins_see_every_megakv_hazard():
    """lplint reads the body that runs: a primitive it does not model
    (a record store, a slot claim) would drop findings silently."""
    report, _, _ = lint_builtin()
    assert {(f.kernel, f.rule, f.message) for f in report.findings} == {
        (kernel, "LP002", f"region is not provably idempotent ({hazard}) "
                          "but default recovery re-executes it")
        for kernel in ("megakv-insert", "megakv-delete")
        for hazard in MEGAKV_HAZARDS}


def test_run_lint_flags_seeded_bad_kernel():
    report, _, _ = run_lint([str(FIXTURE)])
    assert report.exit_code == 1
    rules = {f.rule for f in report.findings}
    # The acceptance criterion names LP001 + LP002; the fixture seeds
    # the sizing, race, and parity rules too.
    assert {"LP001", "LP002"} <= rules
    assert rules == {"LP001", "LP002", "LP003", "LP004", "LP006"}


def test_run_lint_missing_target_raises():
    with pytest.raises(FileNotFoundError):
        run_lint(["no/such/file.cu"])


def test_expand_targets_recurses_and_skips_pycache(tmp_path):
    (tmp_path / "a.cu").write_text("// cuda")
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "b.py").write_text("x = 1")
    (tmp_path / "__pycache__").mkdir()
    (tmp_path / "__pycache__" / "c.py").write_text("x = 1")
    files = expand_targets([str(tmp_path)])
    assert [f.name for f in files] == ["a.cu", "b.py"]


def test_workload_and_example_sources_lint_clean():
    report, _, _ = run_lint(["src/repro/workloads", "examples"])
    assert report.exit_code == 0
    assert report.findings == []


def test_cli_lint_bad_kernel_exits_nonzero(capsys):
    rc = main(["lint", str(FIXTURE)])
    out = capsys.readouterr().out
    assert rc == 1
    assert "LP001" in out and "LP002" in out
    assert "fix:" in out


def test_cli_lint_json_payload_validates(capsys):
    rc = main(["lint", str(FIXTURE), "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    validate_payload(payload)
    assert rc == 1
    assert payload["exit_code"] == 1
    assert payload["targets"] == [str(FIXTURE)]


def test_cli_lint_builtin_is_green(capsys):
    rc = main(["lint", "builtin"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "suppressed" in out


def test_cli_lint_unknown_target_exits_2(capsys):
    rc = main(["lint", "no/such/path"])
    assert rc == 2
    assert "not found" in capsys.readouterr().err
