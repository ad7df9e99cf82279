"""AST inspection of Python-DSL kernel bodies.

The Python front-end analogue of the C statement scanner in
:mod:`repro.compiler.idempotence`: given a kernel's block body
(``run_block_batch`` or a ``kernel_from_function`` body), extract its read / write / atomic / host-effect sets plus a
block-identity taint map, from the function's abstract syntax tree.

Two resolution modes share the same walker:

* **object mode** — an instantiated kernel is available, so ``self``
  attribute chains (``self.store.keys``) resolve to real buffer names
  via ``getattr``, and helper methods called through ``self`` are
  inlined (``self._find(ctx, key)`` contributes its loads/atomics).
  Line numbers are those of the source file each function lives in.
* **file mode** — only source text is available (CI linting a ``.py``
  file); literal buffer names still resolve, helper methods of the same
  class are inlined by name, and everything else stays conservatively
  unresolved.

The taint map drives the LP003 race rule: a store index that provably
depends only on thread identity (never on ``ctx.block_id`` /
``ctx.block_xy`` / a batch's ``bctx.block_ids`` or anything derived
from them) is written identically by every block — a cross-block write
race.
"""

from __future__ import annotations

import ast
import inspect
import textwrap
from dataclasses import dataclass, field

#: ``ctx`` attribute names that carry block identity.
_BLOCK_ATTRS = ("block_id", "block_ids", "block_xy", "block_coords")
#: ``ctx`` attribute names that carry *thread* identity (uniform values
#: like ``n_threads`` deliberately excluded).
_THREAD_ATTRS = ("tid", "thread_xy", "lane")
#: Conventional names of the block-context parameter.
_CTX_PARAM_NAMES = ("ctx", "bctx", "context")
#: Maximum depth of ``self.method()`` inlining.
_MAX_INLINE_DEPTH = 4


@dataclass
class StoreOp:
    """One ``ctx.st(...)`` (or atomic) call site."""

    buffer: str | None          # resolved buffer name, None if unknown
    buffer_text: str            # source text of the buffer expression
    index: ast.expr | None
    lineno: int
    atomic: str | None = None   # "add"/"cas"/"exch" for atomics
    value: ast.expr | None = None
    #: Buffers whose ``ctx.ld`` values flow into the stored value.
    value_buffers: set[str] = field(default_factory=set)
    #: True when the stored value derives from shared memory.
    value_uses_shared: bool = False


@dataclass
class LoadOp:
    """One ``ctx.ld(...)`` call site."""

    buffer: str | None
    buffer_text: str
    lineno: int


@dataclass
class PyKernelEffects:
    """Everything the Python lint rules need about one kernel body."""

    name: str
    stores: list[StoreOp] = field(default_factory=list)
    loads: list[LoadOp] = field(default_factory=list)
    #: Local names whose values (may) depend on block identity.
    block_tainted: set[str] = field(default_factory=set)
    #: Local names whose values (may) depend on thread identity.
    thread_tainted: set[str] = field(default_factory=set)
    #: Local names whose values (may) derive from shared memory.
    shared_tainted: set[str] = field(default_factory=set)
    #: Local name -> buffers whose loaded values flow into it.
    load_sources: dict[str, set[str]] = field(default_factory=dict)
    #: Line numbers of every ``ctx.syncthreads()`` call.
    sync_lines: list[int] = field(default_factory=list)
    #: ``syncthreads`` calls lexically inside an ``if``/``while`` whose
    #: condition depends on thread identity — divergent barriers.
    divergent_sync_lines: list[int] = field(default_factory=list)
    #: True when an unresolvable construct forced conservatism.
    has_unresolved: bool = False

    # -- derived sets ----------------------------------------------------

    @property
    def written_buffers(self) -> set[str]:
        return {s.buffer for s in self.stores if s.buffer is not None}

    @property
    def read_buffers(self) -> set[str]:
        return {ld.buffer for ld in self.loads if ld.buffer is not None}

    @property
    def atomic_stores(self) -> list[StoreOp]:
        return [s for s in self.stores if s.atomic is not None]

    def idempotence_hazards(self) -> list[str]:
        """Section IV-A hazards, mirroring the C analysis' wording."""
        hazards: list[str] = []
        for s in self.atomic_stores:
            target = s.buffer or s.buffer_text
            hazards.append(
                f"atomic read-modify-write on '{target}' accumulates "
                "on re-execution"
            )
        for s in self.stores:
            if s.atomic is None and s.buffer is None:
                hazards.append(
                    f"store to unresolvable buffer expression "
                    f"'{s.buffer_text}' cannot be proven idempotent"
                )
        overlap = self.written_buffers & self.read_buffers
        for name in sorted(overlap):
            hazards.append(
                f"buffer '{name}' is both read and written; re-execution "
                "would consume its own output"
            )
        return hazards


def _function_ast(fn) -> ast.FunctionDef:
    """Parse ``fn``'s definition, numbering lines as its source file does."""
    lines, start = inspect.getsourcelines(fn)
    tree = ast.parse(textwrap.dedent("".join(lines)))
    ast.increment_lineno(tree, start - 1)
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return node
    raise ValueError(f"no function definition found for {fn!r}")


def _ctx_param(node: ast.FunctionDef) -> str | None:
    args = [a.arg for a in node.args.args]
    if args and args[0] == "self":
        args = args[1:]
    for a in args:
        if a in _CTX_PARAM_NAMES:
            return a
    return args[0] if args else None


def _attr_chain(node: ast.expr) -> list[str] | None:
    """``self.store.keys`` -> ["self", "store", "keys"]; None if not a chain."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        parts.reverse()
        return parts
    return None


class _Resolver:
    """Buffer-expression resolution against an optional instance."""

    def __init__(self, instance=None, fn_globals=None, fn_closure=None):
        self.instance = instance
        self.globals = fn_globals or {}
        self.closure = fn_closure or {}

    def resolve(self, node: ast.expr) -> str | None:
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return node.value
        chain = _attr_chain(node)
        if chain is None:
            if isinstance(node, ast.Name):
                value = self.closure.get(node.id, self.globals.get(node.id))
                return self._buffer_name(value)
            return None
        root, *rest = chain
        if root == "self" and self.instance is not None:
            value = self.instance
        elif root in self.closure:
            value = self.closure[root]
        elif root in self.globals:
            value = self.globals[root]
        else:
            return None
        for attr in rest:
            try:
                value = getattr(value, attr)
            except AttributeError:
                return None
        return self._buffer_name(value)

    @staticmethod
    def _buffer_name(value) -> str | None:
        if isinstance(value, str):
            return value
        name = getattr(value, "name", None)
        return name if isinstance(name, str) else None


class _BodyWalker:
    """Collect effects from one function body, inlining self-methods."""

    def __init__(
        self,
        effects: PyKernelEffects,
        resolver: _Resolver,
        method_asts: dict[str, ast.FunctionDef],
    ) -> None:
        self.effects = effects
        self.resolver = resolver
        self.method_asts = method_asts
        self._inlined: set[str] = set()

    # -- taint ----------------------------------------------------------

    def _mentions_block(self, node: ast.expr, ctx_name: str) -> bool:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Attribute):
                chain = _attr_chain(sub)
                if chain and chain[0] == ctx_name and any(
                    part in _BLOCK_ATTRS for part in chain[1:]
                ):
                    return True
            if isinstance(sub, ast.Call):
                # Any call receiving ctx (or a tainted name) may derive
                # block identity — over-approximate.
                for arg in list(sub.args) + [k.value for k in sub.keywords]:
                    for leaf in ast.walk(arg):
                        if isinstance(leaf, ast.Name) and (
                            leaf.id == ctx_name
                            or leaf.id in self.effects.block_tainted
                        ):
                            return True
            if isinstance(sub, ast.Name) and sub.id in self.effects.block_tainted:
                return True
        return False

    def _mentions_thread(self, node: ast.expr, ctx_name: str) -> bool:
        """Narrow (lexical) thread-identity check: explicit ``ctx.tid``
        style attributes or names already thread-tainted. Deliberately
        does not use the call over-approximation of block taint — LP010
        only fires on provable divergence."""
        for sub in ast.walk(node):
            if isinstance(sub, ast.Attribute):
                chain = _attr_chain(sub)
                if chain and chain[0] == ctx_name and any(
                    part in _THREAD_ATTRS for part in chain[1:]
                ):
                    return True
            if isinstance(sub, ast.Name) and sub.id in self.effects.thread_tainted:
                return True
        return False

    def _mentions_shared(self, node: ast.expr, ctx_name: str) -> bool:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Attribute):
                chain = _attr_chain(sub)
                if chain and chain[0] == ctx_name and "shared" in chain[1:]:
                    return True
            if isinstance(sub, ast.Name) and sub.id in self.effects.shared_tainted:
                return True
        return False

    def _value_sources(self, node: ast.expr, ctx_name: str) -> set[str]:
        """Buffers whose ``ctx.ld`` results flow (lexically) into ``node``."""
        sources: set[str] = set()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute):
                chain = _attr_chain(sub.func)
                if chain and chain[0] == ctx_name and chain[-1] == "ld" and sub.args:
                    resolved = self.resolver.resolve(sub.args[0])
                    sources.add(resolved if resolved is not None
                                else ast.unparse(sub.args[0]))
            if isinstance(sub, ast.Name):
                sources |= self.effects.load_sources.get(sub.id, set())
        return sources

    def _taint_targets(self, target: ast.expr, kind: str = "block") -> None:
        tainted = {
            "block": self.effects.block_tainted,
            "thread": self.effects.thread_tainted,
            "shared": self.effects.shared_tainted,
        }[kind]
        if isinstance(target, ast.Name):
            tainted.add(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for el in target.elts:
                self._taint_targets(el, kind)

    def _flow_sources(self, target: ast.expr, sources: set[str]) -> None:
        if isinstance(target, ast.Name):
            self.effects.load_sources.setdefault(target.id, set()).update(sources)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for el in target.elts:
                self._flow_sources(el, sources)

    def _taint_pass(self, node: ast.FunctionDef, ctx_name: str) -> None:
        """Propagate block/thread/shared/load taint until fixpoint."""
        for _ in range(10):
            before = (
                set(self.effects.block_tainted),
                set(self.effects.thread_tainted),
                set(self.effects.shared_tainted),
                {k: set(v) for k, v in self.effects.load_sources.items()},
            )
            for sub in ast.walk(node):
                if isinstance(sub, (ast.Assign, ast.AugAssign)):
                    value = sub.value
                    targets = (
                        sub.targets if isinstance(sub, ast.Assign)
                        else [sub.target]
                    )
                    flags = (
                        ("block", self._mentions_block(value, ctx_name)),
                        ("thread", self._mentions_thread(value, ctx_name)),
                        ("shared", self._mentions_shared(value, ctx_name)),
                    )
                    sources = self._value_sources(value, ctx_name)
                    for tgt in targets:
                        for kind, hit in flags:
                            if hit:
                                self._taint_targets(tgt, kind)
                        if sources:
                            self._flow_sources(tgt, sources)
                elif isinstance(sub, (ast.For, ast.comprehension)):
                    iter_node = sub.iter
                    for kind, check in (
                        ("block", self._mentions_block),
                        ("thread", self._mentions_thread),
                        ("shared", self._mentions_shared),
                    ):
                        if check(iter_node, ctx_name):
                            self._taint_targets(sub.target, kind)
            after = (
                self.effects.block_tainted,
                self.effects.thread_tainted,
                self.effects.shared_tainted,
                self.effects.load_sources,
            )
            if (before[0] == after[0] and before[1] == after[1]
                    and before[2] == after[2]
                    and before[3] == {k: set(v) for k, v in after[3].items()}):
                break

    def _divergence_pass(
        self, node: ast.stmt, ctx_name: str, divergent: bool = False
    ) -> None:
        """Record ``syncthreads`` calls under thread-dependent branches."""
        for child in ast.iter_child_nodes(node):
            child_div = divergent
            if isinstance(child, (ast.If, ast.While)):
                child_div = divergent or self._mentions_thread(
                    child.test, ctx_name
                )
            if isinstance(child, ast.Call) and isinstance(
                child.func, ast.Attribute
            ):
                chain = _attr_chain(child.func)
                if (chain and chain[0] == ctx_name
                        and chain[-1] == "syncthreads"):
                    self.effects.sync_lines.append(child.lineno)
                    if divergent:
                        self.effects.divergent_sync_lines.append(child.lineno)
            self._divergence_pass(child, ctx_name, child_div)

    # -- effect extraction ----------------------------------------------

    def walk(self, node: ast.FunctionDef, ctx_name: str, depth: int = 0) -> None:
        self._taint_pass(node, ctx_name)
        self._divergence_pass(node, ctx_name)
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call):
                self._handle_call(sub, ctx_name, depth)

    def _handle_call(self, call: ast.Call, ctx_name: str, depth: int) -> None:
        func = call.func
        if not isinstance(func, ast.Attribute):
            return
        owner = func.value
        if isinstance(owner, ast.Name) and owner.id == ctx_name:
            self._handle_ctx_call(call, func.attr)
            return
        if (
            isinstance(owner, ast.Name)
            and owner.id == "self"
            and func.attr in self.method_asts
            and depth < _MAX_INLINE_DEPTH
            and func.attr not in self._inlined
        ):
            self._inlined.add(func.attr)
            callee = self.method_asts[func.attr]
            callee_ctx = _ctx_param(callee) or ctx_name
            self.walk(callee, callee_ctx, depth + 1)

    def _handle_ctx_call(self, call: ast.Call, attr: str) -> None:
        args = call.args
        ctx_name = call.func.value.id  # guarded by caller

        def arg(i: int) -> ast.expr | None:
            return args[i] if len(args) > i else None

        def store(value: ast.expr | None, atomic: str | None = None,
                  buf: ast.expr | None = None) -> None:
            buf = arg(0) if buf is None else buf
            if buf is None:
                return
            if value is None:
                for kw in call.keywords:
                    if kw.arg in ("values", "value"):
                        value = kw.value
                        break
            self.effects.stores.append(StoreOp(
                buffer=self.resolver.resolve(buf),
                buffer_text=ast.unparse(buf),
                index=arg(1),
                lineno=call.lineno,
                atomic=atomic,
                value=value,
                value_buffers=(
                    self._value_sources(value, ctx_name)
                    if value is not None else set()
                ),
                value_uses_shared=(
                    value is not None
                    and self._mentions_shared(value, ctx_name)
                ),
            ))

        if attr == "st":
            store(arg(2))
        elif attr == "st_record":
            # One store per buffer of the record, each of its own word.
            words = getattr(arg(2), "elts", [])
            for i, buf in enumerate(getattr(arg(0), "elts", [arg(0)])):
                store(words[i] if i < len(words) else arg(2), buf=buf)
        elif attr == "atomic_cas_claim":
            # A CAS on its buffer; the word is the caller's own store.
            store(None, atomic="cas")
        elif attr == "ld":
            buf = arg(0)
            if buf is None:
                return
            self.effects.loads.append(LoadOp(
                buffer=self.resolver.resolve(buf),
                buffer_text=ast.unparse(buf),
                lineno=call.lineno,
            ))
        elif attr in ("atomic_add", "atomic_cas", "atomic_exch"):
            store(arg(3) if attr == "atomic_cas" else arg(2),
                  atomic=attr.removeprefix("atomic_"))


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def analyze_kernel_callable(fn, instance=None, name=None) -> PyKernelEffects:
    """Analyze a live kernel callable (a block body or a DSL body).

    ``instance`` (the kernel object) enables ``self`` attribute
    resolution and helper-method inlining.
    """
    node = _function_ast(fn)
    ctx_name = _ctx_param(node)
    effects = PyKernelEffects(name=name or getattr(fn, "__qualname__", "kernel"))
    if ctx_name is None:
        effects.has_unresolved = True
        return effects

    closure: dict[str, object] = {}
    raw_fn = inspect.unwrap(fn)
    base_fn = getattr(raw_fn, "__func__", raw_fn)
    if getattr(base_fn, "__closure__", None):
        closure = {
            cell_name: cell.cell_contents
            for cell_name, cell in zip(
                base_fn.__code__.co_freevars, base_fn.__closure__
            )
        }
    resolver = _Resolver(
        instance=instance,
        fn_globals=getattr(base_fn, "__globals__", {}),
        fn_closure=closure,
    )
    method_asts: dict[str, ast.FunctionDef] = {}
    if instance is not None:
        for cls in type(instance).__mro__:
            for mname, member in vars(cls).items():
                if callable(member) and mname not in method_asts:
                    try:
                        method_asts[mname] = _function_ast(member)
                    except (OSError, TypeError, ValueError):
                        continue
    walker = _BodyWalker(effects, resolver, method_asts)
    walker.walk(node, ctx_name)
    return effects


def analyze_function_node(
    node: ast.FunctionDef,
    method_asts: dict[str, ast.FunctionDef] | None = None,
    name: str | None = None,
) -> PyKernelEffects:
    """File-mode analysis of a parsed function definition.

    Only literal buffer names resolve; ``self`` attribute chains stay
    unresolved (conservative) but same-class helper methods named in
    ``method_asts`` are still inlined.
    """
    ctx_name = _ctx_param(node)
    effects = PyKernelEffects(name=name or node.name)
    if ctx_name is None:
        effects.has_unresolved = True
        return effects
    walker = _BodyWalker(effects, _Resolver(), method_asts or {})
    walker.walk(node, ctx_name)
    return effects


def is_block_independent(
    index: ast.expr | None,
    effects: PyKernelEffects,
    ctx_name_hint: str | None = None,
) -> bool:
    """True iff a store index *provably* ignores block identity.

    The LP003 direction of conservatism: return ``False`` (no finding)
    whenever anything is uncertain. Only an index built purely from
    thread identity (``ctx.tid``), numeric constants, ``self``
    attributes (launch constants, identical across blocks) and
    ``np.*``/``numpy.*`` calls over such values is provably the same
    for every block.
    """
    if index is None:
        return False
    for sub in ast.walk(index):
        if isinstance(sub, ast.Name) and sub.id in effects.block_tainted:
            return False
        if isinstance(sub, ast.Attribute):
            chain = _attr_chain(sub)
            if chain and any(part in _BLOCK_ATTRS for part in chain):
                return False
    # Anything unrecognized makes the index "unknown", not "independent".
    allowed_call_roots = {"np", "numpy"}
    for sub in ast.walk(index):
        if isinstance(sub, ast.Call):
            chain = _attr_chain(sub.func)
            if not chain or chain[0] not in allowed_call_roots:
                return False
        elif isinstance(sub, ast.Name):
            if sub.id in _CTX_PARAM_NAMES or sub.id == (ctx_name_hint or "ctx"):
                continue  # ctx.tid-style attributes are thread-only
            if sub.id in ("self", "np", "numpy"):
                continue
            # A local whose provenance we did not track: unknown.
            if sub.id not in effects.block_tainted:
                return False
    return True
