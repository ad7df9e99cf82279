"""Bounded crash-state model checker for Lazy Persistency launches.

Every byte that reaches the durable heap moves through exactly one
funnel: :meth:`GlobalMemory._write_back` arms the
:class:`~repro.nvm.mapped.MappedShadow` journal, copies the dirty
lines, and commits. A power failure can therefore land in only three
kinds of places, and the reachable post-crash heap images form a
finite, enumerable space:

* **between write-backs** — some prefix of the write-back events has
  committed, the journal is clean;
* **inside a write-back** — event *t* is armed (EXACT or RANGE), some
  prefix of its lines has been copied, and the line under the cursor
  may itself be torn mid-line;
* **inside a crash-race write-back** — the hardware's last-gasp
  eviction of a subset of then-dirty lines (the lottery
  :meth:`GlobalMemory.crash` models), which is just one more
  arm/copy/commit bracket and can tear the same way.

This module records the event sequence of one real launch through the
``MappedShadow.arm_listener`` hook, deterministically enumerates crash
states along those three axes, prunes states whose heap image (plus
journal descriptor) hashes identically, and runs the *real*
validate -> recover pipeline (:class:`~repro.core.recovery.RecoveryManager`)
on every distinct state. A state that fails to converge — recovery
raises, validation never settles, or the recovered data differs
bit-for-bit from the crash-free reference — is minimized greedily and
reported as a :class:`Counterexample`.

Bounded-exhaustiveness claim (see ``docs/analysis.md``): within the
budget, the enumeration covers every committed-prefix state, every
torn window of every organic write-back event, and a size-ascending
cap of crash-race subsets per crash point. It does **not** enumerate
crash-race subsets beyond ``max_lottery`` per point, interleavings the
single-funnel simulator cannot produce, or journal-only variations
beyond the descriptor hash. Static rules LP008-LP010 are cross-checked
against this enumeration (:func:`cross_check_mc`): static must never
be *less* conservative than the machine.
"""

from __future__ import annotations

import hashlib
import itertools
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.errors import HarnessError, RecoveryError
from repro.obs import current as _recorder

__all__ = [
    "MCOptions",
    "WritebackEvent",
    "CrashState",
    "Counterexample",
    "MCReport",
    "check_case",
    "check_workload",
    "run_mc",
    "replay_fixture",
    "cross_check_mc",
    "RACE_RULES",
]

#: Static rules whose verdicts the model checker cross-checks. A
#: counterexample with none of these fired (suppressed counts as
#: fired) is a soundness hole in lplint and surfaces as an LP007 ERROR.
RACE_RULES = ("LP002", "LP003", "LP008", "LP009", "LP010")

#: Default per-case candidate budget. Tuned so the small-scale
#: workloads exceed 1000 *distinct* states well inside it.
DEFAULT_BUDGET = 4000


# ---------------------------------------------------------------------------
# Recorded facts
# ---------------------------------------------------------------------------

@dataclass
class WritebackEvent:
    """One arm/copy/commit bracket observed during the recorded launch."""

    index: int
    #: Journal mode the heap chose for this event: ``"exact"`` or
    #: ``"range"``.
    mode: str
    #: Global line ids in copy order.
    line_ids: list[int]
    #: Per-line ``(buffer, lo, hi, new_bytes)`` — the bytes the copy
    #: loop writes, in copy order (parallel to :attr:`line_ids`).
    spans: list[tuple[str, int, int, bytes]]
    #: Dirty lines still pending at the instant this event armed, as
    #: ``line_id -> (buffer, lo, hi, volatile_bytes)`` — the crash-race
    #: lottery pool for a crash at this point.
    pool: dict[int, tuple[str, int, int, bytes]]


@dataclass(frozen=True)
class CrashState:
    """One candidate crash point in the enumerated space.

    Events ``[0, point)`` have committed. ``extras`` are lottery-pool
    lines additionally persisted by a crash-race write-back. ``armed``
    selects the in-flight write (``None`` = journal clean, ``"event"``
    = event ``point`` itself, ``"race"`` = the synthesized crash-race
    event over ``extras``); ``split`` lines of it have been fully
    copied and, when ``torn``, the first ``cut`` bytes of the next
    line as well — a power failure can tear a line copy at any byte.
    """

    point: int
    extras: tuple[int, ...] = ()
    armed: str | None = None
    split: int = 0
    torn: bool = False
    cut: int = 0

    def to_dict(self) -> dict:
        return {
            "point": self.point,
            "extras": list(self.extras),
            "armed": self.armed,
            "split": self.split,
            "torn": self.torn,
            "cut": self.cut,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CrashState":
        return cls(
            point=int(data["point"]),
            extras=tuple(int(x) for x in data.get("extras", ())),
            armed=data.get("armed"),
            split=int(data.get("split", 0)),
            torn=bool(data.get("torn", False)),
            cut=int(data.get("cut", 0)),
        )


@dataclass
class MCOptions:
    """Knobs of one model-checking run (all deterministic)."""

    scale: str = "small"
    seed: int = 7
    config: str = "global-array"
    engine: str = "batched"
    #: Small on purpose: a tight write-back cache maximizes eviction
    #: events, which is what grows the reachable crash-state space.
    cache_lines: int = 3
    #: Maximum candidate states composed per case.
    budget: int = DEFAULT_BUDGET
    #: Crash-race subsets enumerated per crash point (size-ascending).
    max_lottery: int = 12
    #: Of those, how many also get torn-window variants.
    max_race_torn: int = 4
    #: Byte granularity of torn-line cut enumeration inside organic
    #: write-back events — a crash can tear a line copy at any byte;
    #: 2-byte steps keep sub-element tears in the space while bounding
    #: the per-span fan-out.
    torn_step: int = 2
    max_rounds: int = 3
    #: Greedy minimization attempts per counterexample.
    minimize_cap: int = 64
    #: Stop exploring a case after this many counterexamples.
    max_counterexamples: int = 3


@dataclass
class Counterexample:
    """A minimized non-converging crash state."""

    case: str
    state: CrashState
    journal: str
    reason: str
    image_digest: str

    def to_dict(self) -> dict:
        return {
            "case": self.case,
            "state": self.state.to_dict(),
            "journal": self.journal,
            "reason": self.reason,
            "image_digest": self.image_digest,
        }


@dataclass
class MCReport:
    """Outcome of model-checking one case."""

    case: str
    n_events: int
    candidates: int
    states_explored: int
    states_pruned: int
    counterexamples: list[Counterexample] = field(default_factory=list)
    elapsed_s: float = 0.0
    budget_exhausted: bool = False

    @property
    def converged(self) -> bool:
        """True when every distinct reachable state converged."""
        return not self.counterexamples

    def to_dict(self) -> dict:
        return {
            "case": self.case,
            "events": self.n_events,
            "candidates": self.candidates,
            "states_explored": self.states_explored,
            "states_pruned": self.states_pruned,
            "budget_exhausted": self.budget_exhausted,
            "converged": self.converged,
            "counterexamples": [c.to_dict() for c in self.counterexamples],
            "elapsed_s": round(self.elapsed_s, 3),
        }


# ---------------------------------------------------------------------------
# Recording
# ---------------------------------------------------------------------------

class _Recording:
    """Collects :class:`WritebackEvent` facts via ``arm_listener``."""

    def __init__(self, memory) -> None:
        self.memory = memory
        self.events: list[WritebackEvent] = []

    def on_arm(self, line_ids: list[int], mode: str) -> None:
        mem = self.memory
        spans: list[tuple[str, int, int, bytes]] = []
        for lid in line_ids:
            buf = mem._buffer_of_line(lid)
            lo, hi = buf.line_byte_range(lid)
            if lo >= hi:
                continue
            spans.append(
                (buf.name, lo, hi, bytes(buf.data.view(np.uint8)[lo:hi]))
            )
        pool: dict[int, tuple[str, int, int, bytes]] = {}
        for lid in mem.cache.dirty_lines:
            buf = mem._buffer_of_line(lid)
            lo, hi = buf.line_byte_range(lid)
            if lo >= hi:
                continue
            pool[int(lid)] = (
                buf.name, lo, hi, bytes(buf.data.view(np.uint8)[lo:hi])
            )
        self.events.append(WritebackEvent(
            index=len(self.events),
            mode=mode,
            line_ids=[int(lid) for lid in line_ids],
            spans=spans,
            pool=pool,
        ))


# ---------------------------------------------------------------------------
# State composition
# ---------------------------------------------------------------------------

def _apply_span(images: dict[str, bytearray],
                span: tuple[str, int, int, bytes],
                cut: int | None = None) -> None:
    name, lo, hi, payload = span
    if cut is not None:
        hi = min(hi, lo + cut)
        payload = payload[: hi - lo]
    images[name][lo:hi] = payload


def _compose(base: dict[str, bytes], events: list[WritebackEvent],
             state: CrashState) -> tuple[dict[str, bytearray], tuple]:
    """Build the heap image a crash at ``state`` leaves behind.

    Returns the per-buffer byte images and the journal descriptor
    (part of the state's identity: a clean journal and an armed one
    over the same bytes recover through different code paths on a
    cold reopen).
    """
    images = {name: bytearray(b) for name, b in base.items()}
    for ev in events[: state.point]:
        for span in ev.spans:
            _apply_span(images, span)

    pool = events[state.point].pool if state.point < len(events) else {}
    journal: tuple = ("clean",)

    if state.armed == "event":
        ev = events[state.point]
        for span in ev.spans[: state.split]:
            _apply_span(images, span)
        if state.torn and state.split < len(ev.spans):
            _apply_span(images, ev.spans[state.split], cut=state.cut)
        journal = (ev.mode, tuple(ev.line_ids), state.split, state.torn,
                   state.cut)
    elif state.armed == "race":
        for lid in state.extras[: state.split]:
            _apply_span(images, pool[lid])
        if state.torn and state.split < len(state.extras):
            span = pool[state.extras[state.split]]
            _apply_span(images, span,
                        cut=state.cut or (span[2] - span[1]) // 2)
        journal = ("exact", state.extras, state.split, state.torn,
                   state.cut)
    else:
        for lid in state.extras:
            _apply_span(images, pool[lid])

    return images, journal


def _digest(images: dict[str, bytearray], journal: tuple) -> str:
    h = hashlib.blake2b(digest_size=16)
    for name in sorted(images):
        h.update(name.encode())
        h.update(images[name])
    h.update(repr(journal).encode())
    return h.hexdigest()


def _candidates(events: list[WritebackEvent],
                options: MCOptions):
    """Deterministic candidate-state generator (three axes per point)."""
    for point in range(len(events) + 1):
        yield CrashState(point)
        if point < len(events):
            ev = events[point]
            for split in range(len(ev.spans) + 1):
                yield CrashState(point, armed="event", split=split)
                if split < len(ev.spans):
                    _, lo, hi, _ = ev.spans[split]
                    for cut in range(options.torn_step, hi - lo,
                                     options.torn_step):
                        yield CrashState(point, armed="event", split=split,
                                         torn=True, cut=cut)
            pool = sorted(ev.pool)
            emitted = 0
            for size in range(1, len(pool) + 1):
                if emitted >= options.max_lottery:
                    break
                for combo in itertools.combinations(pool, size):
                    if emitted >= options.max_lottery:
                        break
                    yield CrashState(point, extras=combo)
                    if emitted < options.max_race_torn:
                        for split in range(len(combo)):
                            yield CrashState(point, extras=combo,
                                             armed="race", split=split)
                            yield CrashState(point, extras=combo,
                                             armed="race", split=split,
                                             torn=True)
                    emitted += 1


# ---------------------------------------------------------------------------
# The pipeline under test
# ---------------------------------------------------------------------------

def _run_state(device, lp_kernel, images: dict[str, bytearray],
               scratch0: dict[str, np.ndarray],
               reference: dict[str, np.ndarray],
               max_rounds: int) -> tuple[bool, str | None]:
    """Restore one crash image and drive validate -> recover -> drain."""
    from repro.core.recovery import RecoveryManager

    mem = device.memory
    mem.cache.drop_all()
    device.crashed = False
    for name, buf in mem.buffers.items():
        if buf.persistent:
            u8 = buf.shadow.view(np.uint8)
            u8[: buf.nbytes] = images[name]
            buf.data[:] = buf.shadow
        else:
            buf.data[:] = scratch0[name]
    lp_kernel.reset_validation()
    try:
        report = RecoveryManager(device, lp_kernel).recover(
            max_rounds=max_rounds
        )
    except RecoveryError as exc:
        return False, f"recovery failed: {exc}"
    if not report.recovered:
        return False, "validation did not converge within the round bound"
    device.drain()
    for name, want in reference.items():
        got = mem[name].data
        if not np.array_equal(got, want):
            n = int(np.count_nonzero(got != want))
            return False, (
                f"buffer {name!r} differs from the crash-free reference "
                f"in {n} element(s) after recovery"
            )
    return True, None


def _minimize(state: CrashState, events, base, runner,
              cap: int) -> tuple[CrashState, str]:
    """Greedy shrink: drop extras, untear, shrink the armed prefix."""
    current = state
    _, reason = runner(current)
    attempts = 0

    def still_fails(cand: CrashState) -> str | None:
        nonlocal attempts
        attempts += 1
        ok, why = runner(cand)
        return None if ok else why

    changed = True
    while changed and attempts < cap:
        changed = False
        for i in range(len(current.extras)):
            if current.armed == "race":
                break  # extras are the armed write itself; handled below
            cand = CrashState(current.point,
                              extras=current.extras[:i]
                              + current.extras[i + 1:],
                              armed=current.armed, split=current.split,
                              torn=current.torn, cut=current.cut)
            why = still_fails(cand)
            if why is not None:
                current, reason, changed = cand, why, True
                break
        if changed or attempts >= cap:
            continue
        if current.torn:
            cand = CrashState(current.point, extras=current.extras,
                              armed=current.armed, split=current.split)
            why = still_fails(cand)
            if why is not None:
                current, reason, changed = cand, why, True
                continue
        if current.armed is not None and current.split > 0:
            cand = CrashState(current.point, extras=current.extras,
                              armed=current.armed, split=current.split - 1,
                              torn=current.torn, cut=current.cut)
            why = still_fails(cand)
            if why is not None:
                current, reason, changed = cand, why, True
                continue
        if current.armed is not None and current.split == 0 \
                and not current.torn:
            cand = CrashState(current.point,
                              extras=() if current.armed == "race"
                              else current.extras)
            why = still_fails(cand)
            if why is not None:
                current, reason, changed = cand, why, True
    return current, reason


# ---------------------------------------------------------------------------
# Case drivers
# ---------------------------------------------------------------------------

def check_case(build: Callable[..., Any], case: str,
               options: MCOptions | None = None) -> MCReport:
    """Model-check one case.

    ``build(shadow)`` must construct the launch deterministically and
    return ``(device, lp_kernel)`` or ``(device, work, lp_kernel)``
    with every allocation already done — the same contract
    :func:`repro.harness.crashproc.make_lp_run` satisfies.
    """
    from repro.harness.tmpdir import ManagedTmpdir
    from repro.nvm import create_heap

    options = options or MCOptions()
    rec = _recorder()
    started = time.monotonic()
    with rec.trace.span("mc.case", cat="mc", track="mc", case=case,
                        budget=options.budget, engine=options.engine):
        with ManagedTmpdir(prefix="repro-mc-") as tmp:
            heap = create_heap(tmp.file("mc-heap.bin"))
            try:
                built = build(heap)
                device, lp_kernel = built[0], built[-1]
                mem = device.memory
                with rec.trace.span("mc.record", cat="mc", track="mc",
                                    case=case):
                    base = {
                        name: bytes(buf.shadow.view(np.uint8)[: buf.nbytes])
                        for name, buf in mem.buffers.items()
                        if buf.persistent
                    }
                    scratch0 = {
                        name: buf.data.copy()
                        for name, buf in mem.buffers.items()
                        if not buf.persistent
                    }
                    recording = _Recording(mem)
                    heap.arm_listener = recording.on_arm
                    device.launch(lp_kernel)
                    device.drain()
                    heap.arm_listener = None
                    reference = {
                        name: mem[name].data.copy()
                        for name in lp_kernel.protected_buffers
                    }
                events = recording.events

                def runner(state: CrashState) -> tuple[bool, str | None]:
                    images, _ = _compose(base, events, state)
                    return _run_state(device, lp_kernel, images, scratch0,
                                      reference, options.max_rounds)

                report = MCReport(case=case, n_events=len(events),
                                  candidates=0, states_explored=0,
                                  states_pruned=0)
                seen: set[str] = set()
                with rec.trace.span("mc.explore", cat="mc", track="mc",
                                    case=case, events=len(events)):
                    for state in _candidates(events, options):
                        if report.candidates >= options.budget:
                            report.budget_exhausted = True
                            break
                        report.candidates += 1
                        images, journal = _compose(base, events, state)
                        digest = _digest(images, journal)
                        if digest in seen:
                            report.states_pruned += 1
                            continue
                        seen.add(digest)
                        report.states_explored += 1
                        ok, _why = _run_state(
                            device, lp_kernel, images, scratch0,
                            reference, options.max_rounds
                        )
                        if ok:
                            continue
                        minimized, reason = _minimize(
                            state, events, base, runner,
                            options.minimize_cap
                        )
                        m_images, m_journal = _compose(base, events,
                                                       minimized)
                        report.counterexamples.append(Counterexample(
                            case=case,
                            state=minimized,
                            journal=m_journal[0],
                            reason=reason,
                            image_digest=_digest(m_images, m_journal),
                        ))
                        if (len(report.counterexamples)
                                >= options.max_counterexamples):
                            break
            finally:
                heap.arm_listener = None
                heap.close()
    report.elapsed_s = time.monotonic() - started
    if rec.metrics.active:
        rec.metrics.inc("mc.states_explored", report.states_explored,
                        case=case)
        rec.metrics.inc("mc.states_pruned", report.states_pruned, case=case)
        rec.metrics.inc("mc.counterexamples",
                        len(report.counterexamples), case=case)
    return report


def check_workload(workload: str,
                   options: MCOptions | None = None) -> MCReport:
    """Model-check one named workload at the given options."""
    from repro.harness.crashproc import make_lp_run

    options = options or MCOptions()

    def build(shadow):
        return make_lp_run(workload, options.scale, options.seed,
                           options.config, options.engine,
                           options.cache_lines, shadow)

    return check_case(build, workload, options)


def run_mc(workloads: list[str],
           options: MCOptions | None = None) -> dict:
    """Model-check several workloads; one JSON-ready summary dict."""
    options = options or MCOptions()
    reports = [check_workload(name, options) for name in workloads]
    return {
        "schema": 1,
        "budget": options.budget,
        "engine": options.engine,
        "scale": options.scale,
        "seed": options.seed,
        "config": options.config,
        "cache_lines": options.cache_lines,
        "cases": [r.to_dict() for r in reports],
        "total": {
            "states_explored": sum(r.states_explored for r in reports),
            "states_pruned": sum(r.states_pruned for r in reports),
            "counterexamples": sum(len(r.counterexamples)
                                   for r in reports),
        },
        "converged": all(r.converged for r in reports),
    }


# ---------------------------------------------------------------------------
# Fixtures
# ---------------------------------------------------------------------------

def fixture_dict(ce: dict, options: MCOptions,
                 kind: str = "workload") -> dict:
    """Serialize ``run_mc``'s form of a counterexample (its
    :meth:`Counterexample.to_dict`) for ``tests/fixtures/crashmc/``."""
    return {
        "schema": 1,
        "kind": kind,
        "case": ce["case"],
        "scale": options.scale,
        "seed": options.seed,
        "config": options.config,
        "engine": options.engine,
        "cache_lines": options.cache_lines,
        "state": ce["state"],
        "journal": ce["journal"],
        "reason": ce["reason"],
        "image_digest": ce["image_digest"],
    }


def replay_fixture(data: dict, build: Callable[..., Any]) -> dict:
    """Re-record a fixture's case and re-run its crash state.

    ``build(shadow)`` must reconstruct the fixture's case exactly (the
    caller owns kind-specific construction). Returns
    ``{"converged": bool, "reason": str|None, "image_digest": str}``
    so regression tests can assert the counterexample still reproduces
    (or, once fixed, no longer does).
    """
    from repro.harness.tmpdir import ManagedTmpdir
    from repro.nvm import create_heap

    if data.get("schema") != 1:
        raise HarnessError(f"unknown crashmc fixture schema: {data!r}")
    state = CrashState.from_dict(data["state"])
    with ManagedTmpdir(prefix="repro-mc-replay-") as tmp:
        heap = create_heap(tmp.file("mc-heap.bin"))
        try:
            built = build(heap)
            device, lp_kernel = built[0], built[-1]
            mem = device.memory
            base = {
                name: bytes(buf.shadow.view(np.uint8)[: buf.nbytes])
                for name, buf in mem.buffers.items() if buf.persistent
            }
            scratch0 = {
                name: buf.data.copy()
                for name, buf in mem.buffers.items() if not buf.persistent
            }
            recording = _Recording(mem)
            heap.arm_listener = recording.on_arm
            device.launch(lp_kernel)
            device.drain()
            heap.arm_listener = None
            reference = {
                name: mem[name].data.copy()
                for name in lp_kernel.protected_buffers
            }
            images, journal = _compose(base, recording.events, state)
            digest = _digest(images, journal)
            ok, reason = _run_state(
                device, lp_kernel, images, scratch0, reference,
                max_rounds=3,
            )
        finally:
            heap.arm_listener = None
            heap.close()
    return {"converged": ok, "reason": reason, "image_digest": digest}


# ---------------------------------------------------------------------------
# Static <-> dynamic cross-check
# ---------------------------------------------------------------------------

def cross_check_mc(case: str, static_findings, report: MCReport) -> list:
    """LP007 findings tying static race verdicts to the enumeration.

    Mirrors the LP007 <-> re-execution oracle contract: a dynamic
    counterexample with *no* static race rule fired (suppressed counts
    as fired) means lplint is less conservative than the machine —
    an ERROR. Static findings the bounded enumeration could not
    reproduce stay, conservatively, as a NOTE.
    """
    from repro.analysis.findings import Finding, Severity

    flagged = sorted({
        f.rule for f in static_findings if f.rule in RACE_RULES
    })
    out: list = []
    if report.counterexamples and not flagged:
        ce = report.counterexamples[0]
        out.append(Finding(
            rule="LP007",
            severity=Severity.ERROR,
            message=(
                f"crash-state enumeration found a non-converging state "
                f"for {case!r} ({ce.reason}) but no static race rule "
                f"({'/'.join(RACE_RULES)}) fired — the static analysis "
                f"is less conservative than the model checker; treat "
                f"this as an lplint bug"
            ),
            kernel=case,
        ))
    elif flagged and not report.counterexamples:
        out.append(Finding(
            rule="LP007",
            severity=Severity.NOTE,
            message=(
                f"static race verdicts {flagged} for {case!r} were not "
                f"reproduced within the bounded enumeration "
                f"({report.states_explored} distinct states"
                f"{', budget exhausted' if report.budget_exhausted else ''}"
                f"); the static rules stay conservative — suppress with "
                f"a documented reason if the hazard is understood"
            ),
            kernel=case,
        ))
    return out
