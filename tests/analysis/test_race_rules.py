"""The persistency race rules (LP008-LP010) across both front-ends."""

import importlib.util
from pathlib import Path

import pytest

from repro.analysis.cuda_rules import lint_cuda_text
from repro.analysis.findings import Finding, Severity, finalize_findings
from repro.analysis.py_rules import (
    _unwrap,
    kernel_effects,
    lint_kernel_object,
    lint_python_text,
)

FIXTURES = Path(__file__).parent.parent / "fixtures" / "lint"


def _offenders():
    spec = importlib.util.spec_from_file_location(
        "lp_offenders", FIXTURES / "lp_offenders.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _rules(findings):
    return {f.rule for f in findings}


# ---------------------------------------------------------------------------
# Object mode (live kernels, full buffer resolution)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name, rule", [
    ("lp008-wrap", "LP008"),
    ("lp009-feedback", "LP009"),
    ("lp010-shared-escape", "LP010"),
])
def test_offender_trips_its_rule(name, rule):
    module = _offenders()
    device, lp_kernel = module.make_offender_case(name)
    findings = lint_kernel_object(lp_kernel, device=device)
    hits = [f for f in findings if f.rule == rule]
    assert hits, f"{name} should trip {rule}: {[f.rule for f in findings]}"
    assert all(f.severity is Severity.ERROR for f in hits)


def test_lp008_names_the_clashing_blocks():
    module = _offenders()
    device, lp_kernel = module.make_offender_case("lp008-wrap")
    (hit,) = [f for f in lint_kernel_object(lp_kernel, device=device)
              if f.rule == "LP008"]
    assert "block" in hit.message


def test_workload_kernels_stay_clean_of_race_rules():
    from repro.compiler.pydsl import lazy_persistent
    from repro.gpu.device import Device
    from repro.workloads import WORKLOADS, make_workload

    for name in WORKLOADS:
        device = Device()
        kernel = make_workload(name, scale="tiny", seed=0).setup(device)
        lp_kernel = lazy_persistent(device, kernel)
        findings = lint_kernel_object(lp_kernel, device=device)
        assert not (_rules(findings) & {"LP008", "LP009", "LP010"}), name


# ---------------------------------------------------------------------------
# File mode (conservative, no live buffers)
# ---------------------------------------------------------------------------

def test_file_mode_flags_python_offenders():
    text = (FIXTURES / "lp_offenders.py").read_text()
    findings = lint_python_text(text, path="lp_offenders.py")
    assert {"LP009", "LP010"} <= _rules(findings)


def _verdicts(findings):
    """LP002 / LP009 / LP010 findings as comparable tuples; object mode
    gives LP002 no line, so LP002's line is left out."""
    return sorted(
        (f.rule, f.severity.value, f.message, f.fix_hint,
         None if f.rule == "LP002" else f.line)
        for f in findings
        if f.rule in ("LP002", "LP009", "LP010")
    )


def test_file_mode_matches_object_mode_on_offenders():
    from repro.gpu.kernel import Kernel

    module = _offenders()
    text = (FIXTURES / "lp_offenders.py").read_text()
    file_findings = lint_python_text(text, path="lp_offenders.py")
    classes = [c for c in vars(module).values()
               if isinstance(c, type) and issubclass(c, Kernel)
               and c.__module__ == module.__name__]
    assert len(classes) == 3
    compared = 0
    for cls in classes:
        expected = _verdicts(f for f in file_findings
                             if f.kernel == cls.__name__)
        assert _verdicts(lint_kernel_object(cls())) == expected, cls
        compared += len(expected)
    # LP002 + LP009 on the feedback kernel's batch body (neither mode
    # may skip it), LP010 on escape.
    assert compared == 3


def test_object_mode_reports_source_file_lines():
    module = _offenders()
    (hit,) = [f for f in lint_kernel_object(module.LP009FeedbackKernel())
              if f.rule == "LP009"]
    assert hit.line == 77   # the bctx.st of ld(acc_out) + 1


def test_cuda_front_end_flags_lp008_wrap():
    text = (FIXTURES / "bad_kernel_lp008.cu").read_text()
    findings = lint_cuda_text(text, path="bad_kernel_lp008.cu")
    active = [f for f in findings if not f.suppressed]
    assert [f.rule for f in active] == ["LP008"]
    assert active[0].severity is Severity.ERROR


# ---------------------------------------------------------------------------
# The AST facts behind the rules
# ---------------------------------------------------------------------------

def test_effects_capture_store_value_provenance():
    module = _offenders()
    effects = kernel_effects(module.LP009FeedbackKernel())
    (store,) = [s for s in effects.stores if s.buffer == "acc_out"]
    assert "acc_out" in store.value_buffers


def test_effects_mark_divergent_syncthreads():
    module = _offenders()
    effects = kernel_effects(module.LP010SharedEscapeKernel())
    assert effects.divergent_sync_lines
    (store,) = [s for s in effects.stores if s.buffer == "esc_out"]
    assert store.value_uses_shared


def test_uniform_syncthreads_is_not_divergent():
    from repro.gpu.device import Device
    from repro.workloads import make_workload

    device = Device()
    kernel = make_workload("tmm", scale="tiny", seed=0).setup(device)
    base, _ = _unwrap(kernel)
    effects = kernel_effects(base)
    assert effects.sync_lines
    assert not effects.divergent_sync_lines


# ---------------------------------------------------------------------------
# Deterministic report finalization
# ---------------------------------------------------------------------------

def test_finalize_dedupes_and_sorts():
    a = Finding(rule="LP002", severity=Severity.ERROR, message="m",
                file="b.cu", line=9)
    dup = Finding(rule="LP002", severity=Severity.ERROR, message="m",
                  file="b.cu", line=9)
    earlier = Finding(rule="LP001", severity=Severity.NOTE, message="n",
                      file="a.cu", line=2)
    out = finalize_findings([a, dup, earlier])
    assert out == [earlier, a]


def test_finalize_keeps_distinct_suppression_states():
    shown = Finding(rule="LP002", severity=Severity.ERROR, message="m")
    hidden = Finding(rule="LP002", severity=Severity.ERROR, message="m",
                     suppressed=True, suppress_reason="known")
    assert len(finalize_findings([shown, hidden])) == 2
