"""lplint rules over the Python-DSL kernel front-end.

Operates on live kernel objects (object mode — buffer names resolve,
helper methods inline) or on plain ``.py`` source files (file mode —
conservative, literal-only resolution). The rules mirror their CUDA
counterparts in :mod:`repro.analysis.cuda_rules`, plus LP004/LP006,
which fire on :class:`~repro.core.runtime.LazyPersistentKernel`
wrappers, where the checksum-table sizing and the parity/float
configuration are concrete objects instead of directive text.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

import numpy as np

from repro.analysis.astinfo import (
    _BLOCK_ATTRS,
    PyKernelEffects,
    _attr_chain,
    analyze_function_node,
    analyze_kernel_callable,
    is_block_independent,
)
from repro.analysis.findings import Finding, Severity, apply_suppressions
from repro.gpu.kernel import Kernel


def _unwrap(kernel):
    """Peel instrumentation wrappers down to the computational kernel."""
    wrappers = []
    seen = set()
    while id(kernel) not in seen:
        seen.add(id(kernel))
        wrappers.append(kernel)
        inner = getattr(kernel, "inner", None)
        if isinstance(inner, Kernel):
            kernel = inner
        else:
            break
    return kernel, wrappers


def _body_callable(kernel):
    """The function whose AST is the kernel's block body: its
    ``run_block_batch`` (a DSL kernel's function)."""
    fn = getattr(kernel, "_fn", None)
    if fn is not None:  # FunctionKernel / kernel_from_function
        return fn
    return type(kernel).run_block_batch


@dataclass(frozen=True)
class KernelFacts:
    """What LP002 / LP009 / LP010 know about a kernel beyond its body.

    Object mode reads them off a live kernel (:meth:`of`); file mode
    reads the class's literal ``protected_buffers`` / ``idempotent``
    and whether it defines a ``recover_block_batch``. Either way the same
    three rules run over them.
    """

    name: str
    protected: frozenset[str]
    #: Recovery is default re-execution: the kernel is declared
    #: idempotent and has no custom ``recover_block_batch``.
    reexecutes: bool
    #: Where file mode reports: the source path and the body's ``def``
    #: line. Object-mode reports name the kernel instead (None).
    file: str | None = None
    line: int | None = None
    #: ``self.*`` buffer expressions resolve (object mode only).
    live: bool = True

    @classmethod
    def of(cls, kernel) -> KernelFacts:
        if hasattr(kernel, "_recover_fn"):
            # FunctionKernel's recover_block_batch override is only a
            # dispatcher; the recovery is custom iff a recover_fn was
            # actually given.
            custom = kernel._recover_fn is not None
        else:
            custom = (type(kernel).recover_block_batch
                      is not Kernel.recover_block_batch)
        return cls(
            name=kernel.name,
            protected=frozenset(kernel.protected_buffers),
            reexecutes=bool(kernel.idempotent) and not custom,
        )


def kernel_effects(kernel) -> PyKernelEffects:
    """Extract the AST effect sets of a live kernel object."""
    fn = _body_callable(kernel)
    return analyze_kernel_callable(fn, instance=kernel, name=kernel.name)


# ---------------------------------------------------------------------------
# Object-mode rules
# ---------------------------------------------------------------------------

def _check_lp001(kernel, effects: PyKernelEffects, device) -> list[Finding]:
    findings: list[Finding] = []
    protected = set(kernel.protected_buffers)
    for store in effects.stores:
        if store.buffer is None or store.buffer in protected:
            continue
        if device is not None:
            buf = device.memory[store.buffer] if store.buffer in device.memory else None
            if buf is None or not buf.persistent:
                continue  # scratch data needs no checksum coverage
            severity = Severity.ERROR
            detail = "persistent"
        else:
            if not protected:
                continue  # kernel opted out of LP entirely
            severity = Severity.WARNING
            detail = "possibly persistent"
        findings.append(Finding(
            rule="LP001",
            severity=severity,
            message=(
                f"store to {detail} buffer '{store.buffer}' is not in "
                f"protected= ({sorted(protected) or 'empty'}); a crash "
                "after this store is undetectable"
            ),
            line=store.lineno,
            kernel=kernel.name,
            fix_hint=(
                f"add '{store.buffer}' to the kernel's protected= "
                "declaration, or allocate it with persistent=False"
            ),
        ))
    return findings


def _check_lp002(facts: KernelFacts, effects: PyKernelEffects) -> list[Finding]:
    if not facts.reexecutes:
        # A non-idempotent declaration makes default recovery raise
        # UnrecoverableRegionError instead of silently re-executing.
        return []
    hazards = effects.idempotence_hazards()
    if not facts.live:
        # Without a live kernel self.* buffers cannot resolve; their
        # stores are unknown, not hazards.
        hazards = [h for h in hazards if "unresolvable" not in h]
    return [
        Finding(
            rule="LP002",
            severity=Severity.ERROR,
            message=(
                f"region is not provably idempotent ({hazard}) but "
                "default recovery re-executes it"
            ),
            file=facts.file,
            line=facts.line,
            kernel=facts.name,
            fix_hint=(
                "declare idempotent=False, provide a custom "
                "recover_block, or restructure the region so outputs "
                "are write-only"
            ),
        )
        for hazard in hazards
    ]


def _check_lp003(kernel, effects: PyKernelEffects) -> list[Finding]:
    findings: list[Finding] = []
    try:
        n_blocks = kernel.launch_config().n_blocks
    except Exception:
        n_blocks = 0
    if n_blocks <= 1:
        return findings
    protected = set(kernel.protected_buffers)
    for store in effects.stores:
        if store.buffer not in protected:
            continue
        if is_block_independent(store.index, effects):
            findings.append(Finding(
                rule="LP003",
                severity=Severity.ERROR,
                message=(
                    f"store to protected buffer '{store.buffer}' uses a "
                    "block-independent index: all "
                    f"{n_blocks} blocks write the same elements "
                    "(cross-block write race breaks LP region recovery)"
                ),
                line=store.lineno,
                kernel=kernel.name,
                fix_hint=(
                    "derive the store index from ctx.block_ids / "
                    "ctx.block_xy so per-block write sets are disjoint"
                ),
            ))
    return findings


def _resolve_int(node: ast.expr, kernel) -> int | None:
    """Best-effort constant resolution of an index subexpression."""
    if isinstance(node, ast.Constant) and isinstance(node.value, int):
        return node.value
    chain = _attr_chain(node) if isinstance(node, ast.Attribute) else None
    if chain and chain[0] == "self" and kernel is not None:
        value = kernel
        for attr in chain[1:]:
            try:
                value = getattr(value, attr)
            except AttributeError:
                return None
        return value if isinstance(value, int) else None
    return None


def _block_mod_wrap(index: ast.expr | None, effects, kernel) -> int | None:
    """Smallest modulus K when *every* block-identity mention in the
    store index sits under ``<block-derived> % K`` with constant K.

    Blocks ``b`` and ``b + K`` then compute identical indices — a
    provable cross-block overlap whenever K < n_blocks. Returns None
    if any block dependence escapes a constant modulus (not provable).
    """
    if index is None:
        return None

    def mentions_block(node: ast.expr) -> bool:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Attribute):
                chain = _attr_chain(sub)
                if chain and any(p in _BLOCK_ATTRS for p in chain):
                    return True
            if isinstance(sub, ast.Name) and sub.id in effects.block_tainted:
                return True
        return False

    if not mentions_block(index):
        return None
    mods: list[int] = []
    covered: set[int] = set()
    for sub in ast.walk(index):
        if isinstance(sub, ast.BinOp) and isinstance(sub.op, ast.Mod):
            k = _resolve_int(sub.right, kernel)
            if k is not None and k > 0 and mentions_block(sub.left):
                mods.append(k)
                for leaf in ast.walk(sub.left):
                    covered.add(id(leaf))
    if not mods:
        return None
    # Every block mention must live inside one of the mod subtrees.
    for sub in ast.walk(index):
        block_leaf = False
        if isinstance(sub, ast.Attribute):
            chain = _attr_chain(sub)
            block_leaf = bool(chain and any(p in _BLOCK_ATTRS for p in chain))
        elif isinstance(sub, ast.Name):
            block_leaf = sub.id in effects.block_tainted
        if block_leaf and id(sub) not in covered:
            return None
    return max(mods)


def _check_lp008(kernel, effects: PyKernelEffects) -> list[Finding]:
    """Cross-block write overlap on protected buffers without atomics.

    Two provable paths, in preference order: the kernel's own
    ``block_output_map`` slices (exact per-block write sets — any
    element written by two blocks is a persist-order race the per-block
    checksums cannot arbitrate), else a ``% K`` wrap pattern in the
    store index that maps distinct blocks onto identical indices.
    """
    try:
        n_blocks = kernel.launch_config().n_blocks
    except Exception:
        return []
    if n_blocks <= 1:
        return []
    protected = set(kernel.protected_buffers)
    nonatomic = {
        s.buffer for s in effects.stores
        if s.atomic is None and s.buffer in protected
    }
    if not nonatomic:
        return []
    findings: list[Finding] = []

    maps: list[dict] | None = None
    if n_blocks <= 1024:
        maps = []
        try:
            for b in range(n_blocks):
                m = kernel.block_output_map(b)
                if m is None:
                    maps = None
                    break
                maps.append(m)
        except Exception:
            maps = None
    if maps is not None:
        union: dict[str, np.ndarray] = {}
        flagged: set[str] = set()
        for b, m in enumerate(maps):
            for buf, idx in m.items():
                if buf not in nonatomic or buf in flagged:
                    continue
                arr = np.unique(np.asarray(idx).ravel())
                prev = union.get(buf)
                if prev is not None:
                    clash = np.intersect1d(arr, prev, assume_unique=True)
                    if clash.size:
                        flagged.add(buf)
                        findings.append(Finding(
                            rule="LP008",
                            severity=Severity.ERROR,
                            message=(
                                f"blocks write overlapping elements of "
                                f"protected buffer '{buf}' without atomics "
                                f"(e.g. element {int(clash[0])} is written "
                                f"by block {b} and an earlier block); "
                                "recovery re-executes failed blocks only, "
                                "so the surviving writer's value is lost"
                            ),
                            kernel=kernel.name,
                            fix_hint=(
                                "make per-block write sets disjoint, or "
                                "use atomics and declare the region "
                                "non-idempotent"
                            ),
                        ))
                        continue
                union[buf] = arr if prev is None else np.union1d(prev, arr)
        return findings

    # No output map: fall back to the provable %-wrap pattern.
    for s in effects.stores:
        if s.atomic is not None or s.buffer not in nonatomic:
            continue
        k = _block_mod_wrap(s.index, effects, kernel)
        if k is not None and k < n_blocks:
            findings.append(Finding(
                rule="LP008",
                severity=Severity.ERROR,
                message=(
                    f"store index to protected buffer '{s.buffer}' wraps "
                    f"block identity modulo {k} but the launch has "
                    f"{n_blocks} blocks: blocks b and b+{k} write the "
                    "same elements without atomics"
                ),
                line=s.lineno,
                kernel=kernel.name,
                fix_hint=(
                    "remove the modulus (or raise it to the grid size) "
                    "so per-block write sets are disjoint"
                ),
            ))
    return findings


def _check_lp009(facts: KernelFacts, effects: PyKernelEffects) -> list[Finding]:
    """Recovered stores whose RHS reads kernel-mutated locations.

    Under default re-execution recovery, a store whose value derives
    from a load of a buffer the kernel itself writes is replayed
    against possibly-already-persisted output — the classic
    double-apply. Sharper (per store, with the value's provenance)
    than LP002's buffer-granularity overlap.
    """
    if not facts.reexecutes:
        return []
    written = effects.written_buffers
    findings: list[Finding] = []
    for s in effects.stores:
        if s.atomic is not None or s.buffer not in facts.protected:
            continue
        bad = sorted(s.value_buffers & (written | {s.buffer}))
        if bad:
            findings.append(Finding(
                rule="LP009",
                severity=Severity.ERROR,
                message=(
                    f"recovered store to '{s.buffer}' computes its value "
                    f"from a load of {bad} which this kernel mutates; "
                    "after a partial persist, re-execution reads the "
                    "already-new value and double-applies"
                ),
                file=facts.file,
                line=s.lineno,
                kernel=facts.name,
                fix_hint=(
                    "stage the read-modify-write through a scratch "
                    "buffer, or declare idempotent=False / provide a "
                    "custom recover_block"
                ),
            ))
    return findings


def _check_lp010(facts: KernelFacts, effects: PyKernelEffects) -> list[Finding]:
    """Shared-memory values persisted after a divergent barrier.

    ``syncthreads`` under a thread-dependent branch deadlocks or
    desynchronizes real hardware; any shared-memory value stored to a
    protected buffer after it may be stale for the threads that skipped
    the barrier, and the persisted bytes (and their checksum) are then
    unreliable.
    """
    if not effects.divergent_sync_lines:
        return []
    first = min(effects.divergent_sync_lines)
    findings: list[Finding] = []
    for s in effects.stores:
        if (s.buffer in facts.protected and s.value_uses_shared
                and s.lineno > first):
            findings.append(Finding(
                rule="LP010",
                severity=Severity.ERROR,
                message=(
                    f"store to protected buffer '{s.buffer}' persists a "
                    "shared-memory value after a syncthreads inside a "
                    f"thread-divergent branch (line {first}); threads "
                    "that skip the barrier may persist stale data"
                ),
                file=facts.file,
                line=s.lineno,
                kernel=facts.name,
                fix_hint=(
                    "hoist ctx.syncthreads() out of thread-dependent "
                    "control flow before any persistent store"
                ),
            ))
    return findings


def _check_lp004_object(lp_kernel) -> list[Finding]:
    """Table sizing of a live LazyPersistentKernel."""
    table = getattr(lp_kernel, "table", None)
    if table is None:
        return []
    n_blocks = lp_kernel.launch_config().n_blocks
    n_keys = table.n_keys
    if n_keys < n_blocks:
        return [Finding(
            rule="LP004",
            severity=Severity.ERROR,
            message=(
                f"checksum table '{table.name}' is sized for {n_keys} "
                f"keys but the launch produces {n_blocks} block "
                "checksums (load factor > 1 overflows "
                "quadratic/cuckoo probing; the global array raises)"
            ),
            kernel=lp_kernel.name,
            fix_hint=(
                "size the table from the launch grid "
                "(LPRuntime.instrument does this automatically)"
            ),
        )]
    if n_keys > n_blocks:
        return [Finding(
            rule="LP004",
            severity=Severity.WARNING,
            message=(
                f"checksum table '{table.name}' declares {n_keys} keys "
                f"for a {n_blocks}-block launch; recovery would scan "
                "stale entries"
            ),
            kernel=lp_kernel.name,
            fix_hint="size the table to the exact block count",
        )]
    return []


def _check_lp006_object(lp_kernel) -> list[Finding]:
    """Parity-over-float configuration of a live LazyPersistentKernel."""
    from repro.core.config import ChecksumKind

    config = getattr(lp_kernel, "config", None)
    table = getattr(lp_kernel, "table", None)
    if config is None or ChecksumKind.PARITY not in config.checksums:
        return []
    if config.ordered_int_parity:
        return []
    float_bufs = []
    if table is not None:
        for name in lp_kernel.protected_buffers:
            try:
                dtype = table.memory[name].array.dtype
            except Exception:
                continue
            if np.issubdtype(dtype, np.floating):
                float_bufs.append(name)
    if not float_bufs:
        return []
    return [Finding(
        rule="LP006",
        severity=Severity.ERROR,
        message=(
            "parity (XOR) checksum over float buffers "
            f"{sorted(float_bufs)} with ordered_int_parity=False; raw "
            "float bit patterns defeat the Fig. 2 ordered-integer "
            "masking"
        ),
        kernel=lp_kernel.name,
        fix_hint="keep LPConfig.ordered_int_parity=True for float data",
    )]


def lint_kernel_object(kernel, device=None) -> list[Finding]:
    """Run every object-mode rule over one live kernel.

    ``device`` (optional) enables the strict LP001 form: stores are
    checked against the actual persistence of their target buffers
    instead of just the ``protected=`` declaration.

    A kernel class may declare ``lint_suppressions = {"LPxxx":
    "reason"}``; matching findings are reported as suppressed.
    """
    base, wrappers = _unwrap(kernel)
    try:
        effects = kernel_effects(base)
    except (OSError, TypeError, ValueError):
        return []  # source unavailable (REPL-defined kernel): nothing to say

    facts = KernelFacts.of(base)
    findings: list[Finding] = []
    findings.extend(_check_lp001(base, effects, device))
    findings.extend(_check_lp002(facts, effects))
    findings.extend(_check_lp003(base, effects))
    findings.extend(_check_lp008(base, effects))
    findings.extend(_check_lp009(facts, effects))
    findings.extend(_check_lp010(facts, effects))
    for wrapper in wrappers:
        if wrapper is not base and hasattr(wrapper, "table"):
            findings.extend(_check_lp004_object(wrapper))
            findings.extend(_check_lp006_object(wrapper))
    suppressions = getattr(type(base), "lint_suppressions", {})
    return apply_suppressions(findings, dict(suppressions))


# ---------------------------------------------------------------------------
# File mode
# ---------------------------------------------------------------------------

#: The name of a class's block body.
_BODY_NAME = "run_block_batch"


def _is_kernel_class(node: ast.ClassDef) -> bool:
    bases = set()
    for b in node.bases:
        if isinstance(b, ast.Name):
            bases.add(b.id)
        elif isinstance(b, ast.Attribute):
            bases.add(b.attr)
    return bool(bases & {"Kernel", "FunctionKernel", "_BatchKernel"}) or any(
        isinstance(item, ast.FunctionDef) and item.name == _BODY_NAME
        for item in node.body
    )


def _class_literal(node: ast.ClassDef, name: str):
    for item in node.body:
        if isinstance(item, ast.Assign):
            for tgt in item.targets:
                if isinstance(tgt, ast.Name) and tgt.id == name:
                    try:
                        return ast.literal_eval(item.value)
                    except ValueError:
                        return None
        elif isinstance(item, ast.AnnAssign) and item.value is not None:
            if isinstance(item.target, ast.Name) and item.target.id == name:
                try:
                    return ast.literal_eval(item.value)
                except ValueError:
                    return None
    return None


def lint_python_text(text: str, path: str = "<source>") -> list[Finding]:
    """File-mode lint of Python source defining kernel classes.

    Runs the object-mode LP002, LP009 and LP010 over facts read from
    the class literals: ``protected_buffers``, ``idempotent`` and
    whether the class defines a ``recover_block_batch``. They are the rules
    still sound without live objects; ``self.*`` buffers stay
    unresolved, so LP002 skips their stores. Everything else needs
    resolved buffers and launch shapes, which file mode cannot prove,
    and lplint never guesses.
    """
    try:
        tree = ast.parse(text)
    except SyntaxError as exc:
        return [Finding(
            rule="LP002",
            severity=Severity.NOTE,
            message=f"file could not be parsed: {exc}",
            file=path,
            line=exc.lineno,
        )]

    findings: list[Finding] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef) or not _is_kernel_class(node):
            continue
        methods = {
            item.name: item
            for item in node.body
            if isinstance(item, ast.FunctionDef)
        }
        body = methods.get(_BODY_NAME)
        if body is None:
            continue
        effects = analyze_function_node(
            body, method_asts=methods, name=node.name
        )
        facts = KernelFacts(
            name=node.name,
            protected=frozenset(
                _class_literal(node, "protected_buffers") or ()
            ),
            reexecutes=(
                _class_literal(node, "idempotent") is not False
                and "recover_block_batch" not in methods
            ),
            file=path,
            line=body.lineno,
            live=False,
        )
        suppressions = _class_literal(node, "lint_suppressions") or {}
        findings.extend(apply_suppressions(
            _check_lp002(facts, effects)
            + _check_lp009(facts, effects)
            + _check_lp010(facts, effects),
            {k: str(v) for k, v in suppressions.items()},
        ))
    return findings
