"""Structured diagnostics emitted by the ``lplint`` analyzer.

Every rule violation is a :class:`Finding`: a stable rule id, a
severity, a human-readable message, an optional source location, and a
fix hint. Findings serialize losslessly to the JSON payload the CLI
emits with ``--format json`` (:func:`findings_to_payload` /
:func:`payload_to_findings`), and :func:`validate_payload` pins the
schema so downstream tooling can rely on it.

Suppressions: a kernel class may declare ``lint_suppressions = {"LP002":
"reason"}``. Suppressed findings are still reported (with the
documented reason attached) but do not affect the exit code — the
analyzer never silently drops a verdict.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

#: Schema version of the JSON payload.
PAYLOAD_VERSION = 1


class Severity(enum.Enum):
    """How bad a finding is; only ERROR and WARNING gate CI."""

    ERROR = "error"
    WARNING = "warning"
    NOTE = "note"


#: Rule id -> one-line description (the lint's public contract).
#: LP005 is retired, not reused: it policed a declaration that went
#: with the forked launch pool.
RULES: dict[str, str] = {
    "LP001": "persistent/protected store not covered by any "
             "lpcuda_checksum directive or protected= declaration",
    "LP002": "non-idempotent region paired with default re-execution "
             "recovery",
    "LP003": "cross-block write race on a protected buffer "
             "(per-block write sets are not disjoint)",
    "LP004": "checksum-table sizing hazard (nelems vs. grid size)",
    "LP006": "parity (XOR) checksum over float stores without the "
             "ordered-integer conversion",
    "LP007": "static verdict contradicted by a dynamic oracle "
             "(re-execution or crash-state enumeration)",
    "LP008": "cross-block write race to the same NVM data without "
             "atomics (overlapping per-block write sets)",
    "LP009": "recovery-idempotence violation: a recovered store reads "
             "a location the kernel itself mutates",
    "LP010": "shared-memory value escapes to a persistent store after "
             "divergent syncthreads",
}


@dataclass
class Finding:
    """One diagnostic produced by a lint rule."""

    rule: str
    severity: Severity
    message: str
    file: str | None = None
    line: int | None = None
    kernel: str | None = None
    fix_hint: str | None = None
    suppressed: bool = False
    suppress_reason: str | None = None

    def __post_init__(self) -> None:
        if self.rule not in RULES:
            raise ValueError(f"unknown lint rule id {self.rule!r}")

    @property
    def location(self) -> str:
        """``file:line`` text, best-effort."""
        parts = []
        if self.file:
            parts.append(self.file)
        if self.line is not None:
            parts.append(str(self.line))
        return ":".join(parts) if parts else "<builtin>"

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "severity": self.severity.value,
            "message": self.message,
            "file": self.file,
            "line": self.line,
            "kernel": self.kernel,
            "fix_hint": self.fix_hint,
            "suppressed": self.suppressed,
            "suppress_reason": self.suppress_reason,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Finding":
        return cls(
            rule=data["rule"],
            severity=Severity(data["severity"]),
            message=data["message"],
            file=data.get("file"),
            line=data.get("line"),
            kernel=data.get("kernel"),
            fix_hint=data.get("fix_hint"),
            suppressed=bool(data.get("suppressed", False)),
            suppress_reason=data.get("suppress_reason"),
        )


@dataclass
class LintReport:
    """All findings of one lint run plus the targets that were linted."""

    findings: list[Finding] = field(default_factory=list)
    targets: list[str] = field(default_factory=list)

    def extend(self, findings: list[Finding]) -> None:
        self.findings.extend(findings)

    @property
    def active(self) -> list[Finding]:
        """Unsuppressed findings that gate the exit code."""
        return [
            f for f in self.findings
            if not f.suppressed and f.severity is not Severity.NOTE
        ]

    @property
    def exit_code(self) -> int:
        return 1 if self.active else 0


def apply_suppressions(
    findings: list[Finding], suppressions: dict[str, str]
) -> list[Finding]:
    """Mark findings whose rule a kernel documents as suppressed."""
    for f in findings:
        reason = suppressions.get(f.rule)
        if reason is not None:
            f.suppressed = True
            f.suppress_reason = reason
    return findings


def finalize_findings(findings: list[Finding]) -> list[Finding]:
    """Deterministic output order: sort by (file, line, rule) and dedupe.

    The CUDA and Python front-ends can both lint the same source (e.g. a
    ``.cu`` file reached through two targets, or an object-mode kernel
    whose class file is also linted); identical findings collapse to one
    so JSON payloads diff cleanly across runs and front-ends.
    """
    seen: set[tuple] = set()
    unique: list[Finding] = []
    for f in findings:
        key = (f.rule, f.severity.value, f.message, f.file, f.line,
               f.kernel, f.suppressed, f.suppress_reason)
        if key in seen:
            continue
        seen.add(key)
        unique.append(f)
    unique.sort(key=lambda f: (f.file or "", f.line or 0, f.rule,
                               f.kernel or "", f.message))
    return unique


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def findings_to_payload(report: LintReport) -> dict:
    """The ``--format json`` payload; see :func:`validate_payload`."""
    counts = {s.value: 0 for s in Severity}
    suppressed = 0
    for f in report.findings:
        if f.suppressed:
            suppressed += 1
        else:
            counts[f.severity.value] += 1
    return {
        "version": PAYLOAD_VERSION,
        "targets": list(report.targets),
        "findings": [f.to_dict() for f in report.findings],
        "summary": {**counts, "suppressed": suppressed},
        "exit_code": report.exit_code,
    }


def payload_to_findings(payload: dict) -> LintReport:
    """Inverse of :func:`findings_to_payload` (round-trips losslessly)."""
    validate_payload(payload)
    report = LintReport(targets=list(payload.get("targets", [])))
    report.findings = [Finding.from_dict(d) for d in payload["findings"]]
    return report


def validate_payload(payload: dict) -> None:
    """Pin the JSON schema; raises ``ValueError`` on any deviation."""
    if not isinstance(payload, dict):
        raise ValueError("payload must be an object")
    if payload.get("version") != PAYLOAD_VERSION:
        raise ValueError(f"unsupported payload version: {payload.get('version')!r}")
    for key in ("targets", "findings", "summary", "exit_code"):
        if key not in payload:
            raise ValueError(f"payload missing key {key!r}")
    if not isinstance(payload["findings"], list):
        raise ValueError("findings must be a list")
    severities = {s.value for s in Severity}
    for i, entry in enumerate(payload["findings"]):
        if not isinstance(entry, dict):
            raise ValueError(f"finding #{i} must be an object")
        if entry.get("rule") not in RULES:
            raise ValueError(f"finding #{i} has unknown rule {entry.get('rule')!r}")
        if entry.get("severity") not in severities:
            raise ValueError(
                f"finding #{i} has unknown severity {entry.get('severity')!r}"
            )
        if not isinstance(entry.get("message"), str) or not entry["message"]:
            raise ValueError(f"finding #{i} needs a non-empty message")
        line = entry.get("line")
        if line is not None and not isinstance(line, int):
            raise ValueError(f"finding #{i} line must be int or null")
    summary = payload["summary"]
    expected = severities | {"suppressed"}
    if set(summary) != expected or not all(
        isinstance(v, int) and v >= 0 for v in summary.values()
    ):
        raise ValueError("summary must count error/warning/note/suppressed")


# ---------------------------------------------------------------------------
# Text rendering
# ---------------------------------------------------------------------------

_SEV_ORDER = {Severity.ERROR: 0, Severity.WARNING: 1, Severity.NOTE: 2}


def render_text(report: LintReport) -> str:
    """Human-readable lint report (one finding per line, sorted)."""
    lines: list[str] = []
    ordered = sorted(
        report.findings,
        key=lambda f: (f.suppressed, _SEV_ORDER[f.severity],
                       f.file or "", f.line or 0, f.rule),
    )
    for f in ordered:
        tag = "suppressed" if f.suppressed else f.severity.value
        where = f.location
        kern = f" [{f.kernel}]" if f.kernel else ""
        lines.append(f"{where}: {tag}: {f.rule}{kern}: {f.message}")
        if f.fix_hint and not f.suppressed:
            lines.append(f"    fix: {f.fix_hint}")
        if f.suppressed and f.suppress_reason:
            lines.append(f"    reason: {f.suppress_reason}")
    active = report.active
    n_sup = sum(1 for f in report.findings if f.suppressed)
    lines.append(
        f"lplint: {len(active)} finding(s), "
        f"{n_sup} suppressed, "
        f"{len(report.findings) - len(active) - n_sup} note(s) "
        f"over {len(report.targets)} target(s)"
    )
    return "\n".join(lines)
