"""Idempotence analysis of LP regions (Section IV-A).

"Usually a thread block is idempotent, hence the recovery function is
trivially identical to the original kernel function. Such idempotency
can be statically identified using compiler."

:func:`analyze_kernel_source` is the static, compiler-side check over
CUDA-like source, built on a real statement scanner
(:func:`scan_statement`) that tracks per-statement read / write /
accumulate sets with proper bracket matching: a region is idempotent
when no array is both read and written (re-execution would then
consume its own output) and no written array is updated through an
atomic or compound assignment (re-execution would accumulate twice).

The analysis is conservative: it may flag an idempotent kernel as
unknown (e.g. when a read and a write to the same array never alias
dynamically), never the reverse — exactly the safe direction for
generating default recovery functions. The machine's own verdict —
run a block twice back to back and compare the protected outputs — is
:func:`repro.analysis.oracle.dynamic_oracle`, which checks the static
verdicts against the simulator.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.compiler.model import KernelSource

#: Compound/assignment operators checked longest-first so ``<<=`` is not
#: misread as ``<`` + ``<=``.
_ASSIGN_OPS = ("<<=", ">>=", "+=", "-=", "*=", "/=", "%=", "|=", "&=", "^=", "=")
#: Characters that, immediately before a bare ``=``, make it a
#: comparison or part of another operator rather than an assignment.
_NOT_ASSIGN_PREFIX = "=!<>+-*/%&|^"


@dataclass
class StatementEffects:
    """Read/write/atomic sets of one C-like statement."""

    #: ``(array, operator)`` for each array-element assignment.
    writes: list[tuple[str, str]] = field(default_factory=list)
    #: Base arrays referenced (subscripted) without being assigned.
    reads: list[str] = field(default_factory=list)
    #: ``(atomic_function, target_array)`` for each atomic call.
    atomics: list[tuple[str, str]] = field(default_factory=list)


@dataclass
class IdempotenceReport:
    """Verdict of the static analysis over one kernel."""

    kernel_name: str
    idempotent: bool
    #: Human-readable reasons when not (or not provably) idempotent.
    hazards: list[str] = field(default_factory=list)
    written_arrays: set[str] = field(default_factory=set)
    read_arrays: set[str] = field(default_factory=set)


# ---------------------------------------------------------------------------
# Statement scanner
# ---------------------------------------------------------------------------

def _strip_noncode(stmt: str) -> str:
    """Blank out comments and string/char literal contents."""
    out: list[str] = []
    i, n = 0, len(stmt)
    while i < n:
        ch = stmt[i]
        if ch in "\"'":
            quote = ch
            out.append(" ")
            i += 1
            while i < n and stmt[i] != quote:
                out.append(" ")
                i += 2 if stmt[i] == "\\" else 1
            i += 1
            out.append(" ")
            continue
        if ch == "/" and i + 1 < n and stmt[i + 1] == "/":
            break
        if ch == "/" and i + 1 < n and stmt[i + 1] == "*":
            end = stmt.find("*/", i + 2)
            if end < 0:
                break
            out.append(" " * (end + 2 - i))
            i = end + 2
            continue
        out.append(ch)
        i += 1
    return "".join(out)


def _skip_spaces(s: str, i: int) -> int:
    while i < len(s) and s[i] in " \t":
        i += 1
    return i


def _match_bracket(s: str, i: int) -> int:
    """Index just past the ``]`` matching the ``[`` at ``i`` (or len)."""
    depth = 0
    while i < len(s):
        if s[i] == "[":
            depth += 1
        elif s[i] == "]":
            depth -= 1
            if depth == 0:
                return i + 1
        i += 1
    return len(s)


def _assignment_op_at(s: str, i: int) -> str | None:
    """The assignment operator starting at ``i``, if any."""
    for op in _ASSIGN_OPS:
        if s.startswith(op, i):
            # `a[i] == b` / `a[i] <= b` are comparisons, not writes.
            if op == "=" and s.startswith("==", i):
                return None
            return op
    return None


def _atomic_target(arg: str) -> str | None:
    """Base array of an atomic call's first operand.

    Handles ``&tab[h]``, ``& tab [h]``, ``&(bins[i])`` and plain
    pointer arithmetic like ``arr + i``.
    """
    text = arg.strip()
    while text and text[0] in "&( \t":
        text = text[1:].strip()
    m = re.match(r"([A-Za-z_]\w*)", text)
    return m.group(1) if m else None


def _first_call_arg(s: str, open_paren: int) -> str:
    """Text of the first argument of the call opening at ``open_paren``."""
    depth = 0
    start = open_paren + 1
    for i in range(open_paren, len(s)):
        ch = s[i]
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
            if depth == 0:
                return s[start:i]
        elif ch == "," and depth == 1:
            return s[start:i]
    return s[start:]


def scan_statement(stmt: str) -> StatementEffects:
    """Scan one statement for array reads, writes, and atomic updates.

    Unlike the legacy regexes, the scanner brace-matches subscripts, so
    multi-dimensional targets (``a[i][j] = v``), nested subscripts
    (``y[idx[i]] += 1``) and parenthesized atomic operands
    (``atomicAdd(&(bins[i]), 1)``) all classify correctly.
    """
    eff = StatementEffects()
    s = _strip_noncode(stmt)
    n = len(s)
    i = 0
    while i < n:
        ch = s[i]
        if not (ch.isalpha() or ch == "_"):
            i += 1
            continue
        j = i
        while j < n and (s[j].isalnum() or s[j] == "_"):
            j += 1
        ident = s[i:j]
        prev = s[i - 1] if i > 0 else ""
        if prev == "." or prev.isdigit():
            # Member access (``grid.x``) or a numeric-literal suffix.
            i = j
            continue
        k = _skip_spaces(s, j)
        if ident.startswith("atomic") and k < n and s[k] == "(":
            target = _atomic_target(_first_call_arg(s, k))
            if target is not None:
                eff.atomics.append((ident, target))
            i = j
            continue
        if k < n and s[k] == "[":
            # Consume every consecutive subscript group (``[i][j]``...).
            end = k
            while end < n and s[end] == "[":
                end = _skip_spaces(s, _match_bracket(s, end))
            op = _assignment_op_at(s, end)
            if op is not None:
                eff.writes.append((ident, op))
            else:
                eff.reads.append(ident)
            i = j  # keep scanning inside the subscripts for reads
            continue
        i = j
    return eff


# ---------------------------------------------------------------------------
# Kernel-level analyses
# ---------------------------------------------------------------------------

def analyze_kernel_source(kernel: KernelSource) -> IdempotenceReport:
    """Statically classify a parsed kernel's re-execution safety.

    Builds the kernel's read / write / accumulate sets with
    :func:`scan_statement` and applies the Section IV-A criteria: a
    compound or atomic update accumulates on re-execution; an array
    that is both read and written consumes its own output.
    """
    written: set[str] = set()
    read: set[str] = set()
    hazards: list[str] = []

    for line in kernel.body:
        stmt = line.strip()
        if stmt.startswith(("#", "//")):
            continue
        eff = scan_statement(stmt)
        for array, op in eff.writes:
            written.add(array)
            if op != "=":
                hazards.append(
                    f"compound update '{array}[...] {op}' accumulates "
                    "on re-execution"
                )
        for _func, array in eff.atomics:
            written.add(array)
            hazards.append(
                f"atomic read-modify-write on '{array}' accumulates "
                "on re-execution"
            )
        # The scanner classifies the write's own LHS occurrence as a
        # write (never a read), so every recorded read is a real one.
        read.update(eff.reads)

    overlap = written & read
    for array in sorted(overlap):
        hazards.append(
            f"array '{array}' is both read and written; re-execution "
            "would consume its own output"
        )
    return IdempotenceReport(
        kernel_name=kernel.name,
        idempotent=not hazards,
        hazards=hazards,
        written_arrays=written,
        read_arrays=read,
    )
