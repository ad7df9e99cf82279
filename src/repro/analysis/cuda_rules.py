"""lplint rules over the CUDA-like directive front-end.

Operates on a parsed :class:`~repro.compiler.model.ProgramSource`.
Rules implemented here: LP001 (uncovered persistent store), LP002
(non-idempotent region with default re-execution recovery), LP003
(cross-block write race on a covered store), LP004 (checksum-table
sizing vs. grid size), LP006 (parity-only checksum over float stores)
and LP008 (block identity wrapped modulo K < grid — overlapping
per-block write sets). LP009/LP010 need the Python AST's value
dataflow.

All rules follow the analyzer's conservatism contract: a rule fires
only on *provable* violations; anything unresolvable (symbolic grid
sizes, slices the compiler cannot follow) is skipped, never guessed.
"""

from __future__ import annotations

import re

from repro.analysis.findings import Finding, Severity
from repro.compiler.idempotence import analyze_kernel_source, scan_statement
from repro.compiler.model import ChecksumDirective, KernelSource, ProgramSource
from repro.compiler.slicing import identifiers, parse_store_target, statement_definition
from repro.errors import SliceError

_LAUNCH_RE = re.compile(r"(?<![\w.])([A-Za-z_]\w*)\s*<<<\s*([^,>]+)\s*,")
_DIM3_RE = re.compile(r"(?<![\w.])dim3\s+([A-Za-z_]\w*)\s*\(([^)]*)\)")
_SAFE_EXPR_RE = re.compile(r"^[\d+\-*/() \t]+$")
_FLOAT_TYPES = ("float", "double")


def _normalize(stmt: str) -> str:
    return re.sub(r"\s+", "", stmt).rstrip(";")


def _param_types(kernel: KernelSource) -> dict[str, str]:
    """Parameter name -> declared type text (e.g. ``float *``)."""
    types: dict[str, str] = {}
    for part in kernel.params.split(","):
        part = part.strip()
        if not part:
            continue
        m = re.match(r"^(.*?)([A-Za-z_]\w*)\s*$", part)
        if m:
            types[m.group(2)] = m.group(1).strip()
    return types


def _pointer_params(kernel: KernelSource) -> set[str]:
    return {n for n, t in _param_types(kernel).items() if "*" in t}


def _covered_statements(kernel: KernelSource) -> set[str]:
    return {
        _normalize(d.target_statement)
        for d in kernel.checksums
        if d.target_statement
    }


def _eval_const(expr: str, bindings: dict[str, int]) -> int | None:
    """Integer value of a grid/nelems expression, or None if symbolic."""
    text = expr
    for name, value in sorted(bindings.items(), key=lambda kv: -len(kv[0])):
        text = re.sub(rf"(?<![\w.]){re.escape(name)}(?![\w.(])", str(value), text)
    text = text.strip()
    if not text or not _SAFE_EXPR_RE.match(text):
        return None
    try:
        value = eval(text, {"__builtins__": {}})  # noqa: S307 - digits/ops only
    except Exception:
        return None
    return int(value) if isinstance(value, (int, float)) else None


def _grid_bindings(program: ProgramSource) -> dict[str, int]:
    """``name.x``/``name.y`` values for every constant ``dim3`` decl."""
    bindings: dict[str, int] = {}
    for line in program.lines:
        for m in _DIM3_RE.finditer(line):
            name, args = m.group(1), [a.strip() for a in m.group(2).split(",")]
            dims = []
            for a in args:
                v = _eval_const(a, {})
                if v is None:
                    dims = []
                    break
                dims.append(v)
            if dims:
                while len(dims) < 3:
                    dims.append(1)
                bindings[f"{name}.x"] = dims[0]
                bindings[f"{name}.y"] = dims[1]
                bindings[f"{name}.z"] = dims[2]
    return bindings


def _launch_blocks(program: ProgramSource, kernel_name: str) -> int | None:
    """Block count of the kernel's launch, when statically constant."""
    bindings = _grid_bindings(program)
    for line in program.lines:
        for m in _LAUNCH_RE.finditer(line):
            if m.group(1) != kernel_name:
                continue
            grid = m.group(2).strip()
            direct = _eval_const(grid, {})
            if direct is not None:
                return direct
            gx = bindings.get(f"{grid}.x")
            gy = bindings.get(f"{grid}.y", 1)
            gz = bindings.get(f"{grid}.z", 1)
            if gx is not None:
                return gx * gy * gz
    return None


# ---------------------------------------------------------------------------
# Rules
# ---------------------------------------------------------------------------

def _check_lp001(
    program: ProgramSource, kernel: KernelSource, path: str
) -> list[Finding]:
    """Persistent (pointer-param) stores must be checksum-covered."""
    findings: list[Finding] = []
    covered = _covered_statements(kernel)
    pointers = _pointer_params(kernel)
    for offset, line in enumerate(kernel.body):
        stmt = line.strip()
        if not stmt or stmt.startswith(("#", "//")):
            continue
        if _normalize(stmt) in covered:
            continue
        eff = scan_statement(stmt)
        hit = {a for a, _op in eff.writes} | {a for _f, a in eff.atomics}
        for array in sorted(hit & pointers):
            findings.append(Finding(
                rule="LP001",
                severity=Severity.ERROR,
                message=(
                    f"store to persistent array '{array}' is not covered "
                    "by any lpcuda_checksum directive"
                ),
                file=path,
                line=kernel.body_start_line + offset,
                kernel=kernel.name,
                fix_hint=(
                    "add '#pragma nvm lpcuda_checksum(...)' immediately "
                    "before the store, or move the data off the "
                    "persistent heap"
                ),
            ))
    return findings


def _check_lp002(kernel: KernelSource, path: str) -> list[Finding]:
    """Non-idempotent body + default re-execution recovery."""
    if not kernel.checksums:
        return []
    report = analyze_kernel_source(kernel)
    if report.idempotent:
        return []
    return [
        Finding(
            rule="LP002",
            severity=Severity.ERROR,
            message=(
                f"region is not provably idempotent ({hazard}) but the "
                "generated recovery kernel re-executes it"
            ),
            file=path,
            line=kernel.body_start_line,
            kernel=kernel.name,
            fix_hint=(
                "make the region idempotent (write-only outputs, no "
                "compound/atomic updates) or supply a custom recovery "
                "kernel instead of the default re-execution"
            ),
        )
        for hazard in report.hazards
    ]


def _index_closure(
    kernel: KernelSource, index_expr: str
) -> tuple[set[str], list[str]]:
    """Identifiers a store index depends on, and the texts defining them.

    A transitive closure over body definitions (backward, to a
    fixpoint): the same walk slice_for_index does, but tolerant of free
    variables. Returns the identifier set and ``index_expr`` followed by
    each distinct right-hand side that feeds it.
    """
    closure = set(identifiers(index_expr))
    texts = [index_expr]
    for _ in range(len(kernel.body) + 1):
        grew = False
        for line in kernel.body:
            definition = statement_definition(line)
            if definition is None:
                continue
            name, rhs = definition
            if name in closure:
                if rhs not in texts:
                    texts.append(rhs)
                new = identifiers(rhs) - closure
                if new:
                    closure |= new
                    grew = True
        if not grew:
            break
    return closure, texts


def _check_lp003(kernel: KernelSource, path: str) -> list[Finding]:
    """Covered store whose index provably ignores block identity."""
    findings: list[Finding] = []
    for directive in kernel.checksums:
        if not directive.target_statement:
            continue
        try:
            target = parse_store_target(directive.target_statement)
        except SliceError:
            continue
        closure, _ = _index_closure(kernel, target.index_expr)
        if "blockIdx" not in closure:
            findings.append(Finding(
                rule="LP003",
                severity=Severity.ERROR,
                message=(
                    f"protected store '{target.lhs}' has a block-independent "
                    "index: every thread block writes the same elements "
                    "(cross-block write race breaks LP region recovery)"
                ),
                file=path,
                line=directive.line_no + 1,
                kernel=kernel.name,
                fix_hint=(
                    "derive the store index from blockIdx so per-block "
                    "write sets are disjoint"
                ),
            ))
    return findings


_BLOCK_REF_RE = re.compile(r"blockIdx\.[xyz]")
_BLOCK_MOD_RE = re.compile(r"blockIdx\.[xyz]\s*%\s*(\d+)")


def _wrap_modulus(kernel: KernelSource, index_expr: str) -> int | None:
    """Largest K when every ``blockIdx`` reference feeding the index
    sits directly under ``% K`` with a numeric literal; None otherwise."""
    _, texts = _index_closure(kernel, index_expr)
    blob = " ; ".join(texts)
    refs = _BLOCK_REF_RE.findall(blob)
    if not refs:
        return None
    mods = _BLOCK_MOD_RE.findall(blob)
    if len(mods) != len(refs):
        return None  # some block reference escapes a constant modulus
    return max(int(k) for k in mods)


def _check_lp008(
    program: ProgramSource, kernel: KernelSource, path: str
) -> list[Finding]:
    """Covered store whose index wraps block identity modulo K < grid.

    Blocks ``b`` and ``b + K`` then write the same elements — a
    cross-block persist race the per-block checksums cannot arbitrate
    (the Python front-end's LP008 proves the same property from
    ``block_output_map`` overlap).
    """
    findings: list[Finding] = []
    n_blocks = _launch_blocks(program, kernel.name)
    if n_blocks is None or n_blocks <= 1:
        return findings
    for directive in kernel.checksums:
        if not directive.target_statement:
            continue
        try:
            target = parse_store_target(directive.target_statement)
        except SliceError:
            continue
        k = _wrap_modulus(kernel, target.index_expr)
        if k is not None and 0 < k < n_blocks:
            findings.append(Finding(
                rule="LP008",
                severity=Severity.ERROR,
                message=(
                    f"protected store '{target.lhs}' wraps block identity "
                    f"modulo {k} but the launch has {n_blocks} blocks: "
                    f"blocks b and b+{k} write the same NVM lines "
                    "without atomics"
                ),
                file=path,
                line=directive.line_no + 1,
                kernel=kernel.name,
                fix_hint=(
                    "remove the modulus (or raise it to the grid size) "
                    "so per-block write sets are disjoint"
                ),
            ))
    return findings


def _check_lp004(
    program: ProgramSource, kernel: KernelSource, path: str
) -> list[Finding]:
    """lpcuda_init nelems vs. the kernel's launch grid."""
    findings: list[Finding] = []
    n_blocks = _launch_blocks(program, kernel.name)
    if n_blocks is None:
        return findings
    bindings = _grid_bindings(program)
    seen: set[str] = set()
    for directive in kernel.checksums:
        if directive.table in seen:
            continue
        seen.add(directive.table)
        try:
            init = program.init_for(directive.table)
        except Exception:
            continue
        nelems = _eval_const(init.nelems_expr, bindings)
        if nelems is None:
            continue
        if nelems < n_blocks:
            findings.append(Finding(
                rule="LP004",
                severity=Severity.ERROR,
                message=(
                    f"checksum table '{directive.table}' is sized for "
                    f"{nelems} elements but the kernel launches "
                    f"{n_blocks} blocks (load factor > 1 overflows "
                    "quadratic/cuckoo probing)"
                ),
                file=path,
                line=init.line_no,
                kernel=kernel.name,
                fix_hint=(
                    "size lpcuda_init nelems to at least the launch's "
                    "block count (e.g. grid.x*grid.y)"
                ),
            ))
        elif nelems > n_blocks:
            findings.append(Finding(
                rule="LP004",
                severity=Severity.WARNING,
                message=(
                    f"checksum table '{directive.table}' declares "
                    f"{nelems} elements for a {n_blocks}-block launch; "
                    "a global-array table indexed by block id would "
                    "leave stale entries"
                ),
                file=path,
                line=init.line_no,
                kernel=kernel.name,
                fix_hint="size lpcuda_init nelems to the exact block count",
            ))
    return findings


def _check_lp006(kernel: KernelSource, path: str) -> list[Finding]:
    """Parity-only checksum over a float store."""
    findings: list[Finding] = []
    types = _param_types(kernel)
    for directive in kernel.checksums:
        if tuple(directive.checksum_types) != ("^",):
            continue
        if not directive.target_statement:
            continue
        try:
            target = parse_store_target(directive.target_statement)
        except SliceError:
            continue
        decl = types.get(target.array, "")
        if any(t in decl for t in _FLOAT_TYPES):
            findings.append(Finding(
                rule="LP006",
                severity=Severity.WARNING,
                message=(
                    f"parity (XOR) checksum over float store "
                    f"'{target.lhs}' without a modular component; "
                    "XOR over raw float bits misses sign/exponent "
                    "symmetries unless values pass through the "
                    "ordered-integer conversion"
                ),
                file=path,
                line=directive.line_no,
                kernel=kernel.name,
                fix_hint=(
                    'use checksum type "+^" (modular + parity) or keep '
                    "the ordered-integer conversion enabled"
                ),
            ))
    return findings


def lint_program(program: ProgramSource, path: str = "<source>") -> list[Finding]:
    """Run every CUDA front-end rule over one translation unit.

    LP001 only applies to programs that use Lazy Persistency at all
    (at least one directive anywhere) — plain CUDA files are not
    expected to cover their stores.
    """
    findings: list[Finding] = []
    uses_lp = bool(program.inits) or any(k.checksums for k in program.kernels)
    for kernel in program.kernels:
        if uses_lp:
            findings.extend(_check_lp001(program, kernel, path))
        findings.extend(_check_lp002(kernel, path))
        findings.extend(_check_lp003(kernel, path))
        findings.extend(_check_lp004(program, kernel, path))
        findings.extend(_check_lp006(kernel, path))
        findings.extend(_check_lp008(program, kernel, path))
    return findings


def lint_cuda_text(text: str, path: str = "<source>") -> list[Finding]:
    """Parse + lint CUDA-like source text."""
    from repro.compiler.parser import parse_program

    return lint_program(parse_program(text), path=path)
