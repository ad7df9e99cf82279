"""Offline, read-only inspector for ``MappedShadow`` heap files.

``repro inspect <heap>`` answers "what state did the crash leave on
disk?" without running recovery and — critically — without *mutating*
the file: :meth:`MappedShadow.open` clears the torn-write journal as a
side effect, so forensics on a killed process's heap must never go
through it. This module maps the file ``ACCESS_READ`` and decodes the
same structs the writer emits via the shared :mod:`repro.nvm.layout`
module: header fields, the journal's arm state (EXACT/RANGE), the
CRC-checked buffer directory, a per-line occupancy map of the data
region, and a torn-line diagnosis attributing armed lines to buffers.

:func:`diff_heaps` compares two heap images line-by-line — the tool
for "what did this crash round actually change?" between a pre-kill
and post-kill image, or between two rounds of the harness.

Sharded heaps (:mod:`repro.nvm.sharded`) are inspected the same way:
:func:`inspect_sharded` decodes the CRC-guarded manifest plus every
shard file (each an ordinary v1 heap) into a
:class:`ShardedHeapReport` with per-shard torn diagnoses and a merged
view, and :func:`diff_paths` / :func:`inspect_path` dispatch on the
file's magic so the CLI works unchanged on either kind.

Reports serialize via ``to_dict`` into documents validated by
``src/repro/obs/schemas/heap_inspect.schema.json`` (v2).
"""

from __future__ import annotations

import mmap
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.errors import HeapFormatError, HeapTruncatedError
from repro.nvm import layout

#: Differing/torn line-id lists are capped in reports; counts stay exact.
LINE_SAMPLE_CAP = 64


@dataclass(frozen=True)
class OccupancySegment:
    """One contiguous run of data-region lines: a buffer or a gap."""

    kind: str  # "buffer" | "gap"
    first_line: int
    n_lines: int
    name: str | None = None
    role: str | None = None
    #: Lines with at least one nonzero byte (buffers only; a gap's
    #: content is unowned and not read).
    nonzero_lines: int | None = None

    def to_dict(self) -> dict:
        out = {"kind": self.kind, "first_line": self.first_line,
               "n_lines": self.n_lines}
        if self.kind == "buffer":
            out["name"] = self.name
            out["role"] = self.role
            out["nonzero_lines"] = self.nonzero_lines
        return out


@dataclass(frozen=True)
class TornDiagnosis:
    """The journal's armed lines attributed to directory buffers."""

    armed: bool
    mode: str
    exact: bool
    n_lines: int
    by_buffer: dict[str, int]
    #: Armed line ids owned by no directory buffer (freed mid-flight,
    #: or journal/directory disagreement — always worth a look).
    unattributed: int
    lines_sample: tuple[int, ...]

    def to_dict(self) -> dict:
        return {
            "armed": self.armed,
            "mode": self.mode,
            "exact": self.exact,
            "n_lines": self.n_lines,
            "by_buffer": dict(self.by_buffer),
            "unattributed": self.unattributed,
            "lines_sample": list(self.lines_sample),
        }


@dataclass(frozen=True)
class HeapReport:
    """Everything ``repro inspect`` decodes from one heap file."""

    path: str
    file_size: int
    header: layout.HeapHeader
    journal: layout.JournalRecord
    entries: tuple[layout.HeapEntry, ...]
    occupancy: tuple[OccupancySegment, ...]
    torn: TornDiagnosis
    #: Data bytes the directory declares (end of the last buffer).
    data_extent: int

    def to_dict(self) -> dict:
        h = self.header
        return {
            "path": self.path,
            "file_size": self.file_size,
            "header": {
                "version": h.version,
                "line_size": h.line_size,
                "dir_capacity": h.dir_capacity,
                "data_offset": h.data_offset,
                "dir_len": h.dir_len,
                "dir_crc": h.dir_crc,
            },
            "journal": {
                "armed": self.journal.armed,
                "mode": self.journal.mode_name,
                "count": self.journal.count,
            },
            "buffers": [e.to_dict() for e in self.entries],
            "occupancy": [seg.to_dict() for seg in self.occupancy],
            "torn": self.torn.to_dict(),
            "data_extent": self.data_extent,
        }

    def render_text(self) -> str:
        h = self.header
        lines = [
            f"heap {self.path}",
            f"  format v{h.version}, line size {h.line_size} B, "
            f"file {self.file_size} B",
            f"  directory: {len(self.entries)} buffers in "
            f"{h.dir_len} B (capacity {h.dir_capacity} B, "
            f"crc 0x{h.dir_crc:08x} OK)",
            f"  data region: offset {h.data_offset}, "
            f"extent {self.data_extent} B",
            f"  journal: {self.journal.mode_name}"
            + (f", {self.torn.n_lines} armed line(s)"
               if self.journal.armed else " (clean)"),
        ]
        if self.torn.armed:
            for name, n in sorted(self.torn.by_buffer.items()):
                lines.append(f"    torn {name}: {n} line(s)")
            if self.torn.unattributed:
                lines.append(
                    f"    torn <unattributed>: {self.torn.unattributed} "
                    "line(s) owned by no buffer"
                )
        lines.append("  occupancy:")
        for seg in self.occupancy:
            span = (f"lines [{seg.first_line}, "
                    f"{seg.first_line + seg.n_lines})")
            if seg.kind == "gap":
                lines.append(f"    {span}  <gap> ({seg.n_lines} lines)")
            else:
                lines.append(
                    f"    {span}  {seg.name} ({seg.role}, "
                    f"{seg.nonzero_lines}/{seg.n_lines} lines nonzero)"
                )
        return "\n".join(lines)


@dataclass(frozen=True)
class BufferDiff:
    """Line-by-line comparison of one buffer present in both heaps."""

    name: str
    n_lines: int
    n_differing: int
    differing_sample: tuple[int, ...]
    #: Descriptor fields that differ (name -> [a, b]); when non-empty
    #: the data comparison is skipped (the images aren't comparable).
    descriptor_diff: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "n_lines": self.n_lines,
            "n_differing": self.n_differing,
            "differing_sample": list(self.differing_sample),
            "descriptor_diff": dict(self.descriptor_diff),
        }


@dataclass(frozen=True)
class HeapDiff:
    """The result of ``repro inspect A --diff B``."""

    path_a: str
    path_b: str
    header_diff: dict
    only_in_a: tuple[str, ...]
    only_in_b: tuple[str, ...]
    buffers: tuple[BufferDiff, ...]
    journal_a: layout.JournalRecord
    journal_b: layout.JournalRecord

    @property
    def identical(self) -> bool:
        return (not self.header_diff and not self.only_in_a
                and not self.only_in_b
                and all(not b.n_differing and not b.descriptor_diff
                        for b in self.buffers)
                and self.journal_a.armed == self.journal_b.armed
                and self.journal_a.lines == self.journal_b.lines)

    def to_dict(self) -> dict:
        return {
            "path_a": self.path_a,
            "path_b": self.path_b,
            "identical": self.identical,
            "header_diff": dict(self.header_diff),
            "only_in_a": list(self.only_in_a),
            "only_in_b": list(self.only_in_b),
            "buffers": [b.to_dict() for b in self.buffers],
            "journal": {
                "a": {"armed": self.journal_a.armed,
                      "mode": self.journal_a.mode_name},
                "b": {"armed": self.journal_b.armed,
                      "mode": self.journal_b.mode_name},
            },
        }

    def render_text(self) -> str:
        lines = [f"diff {self.path_a} vs {self.path_b}"]
        if self.identical:
            lines.append("  heaps are identical")
            return "\n".join(lines)
        for key, (va, vb) in sorted(self.header_diff.items()):
            lines.append(f"  header.{key}: {va} != {vb}")
        for name in self.only_in_a:
            lines.append(f"  buffer {name}: only in A")
        for name in self.only_in_b:
            lines.append(f"  buffer {name}: only in B")
        if self.journal_a.armed != self.journal_b.armed:
            lines.append(
                f"  journal: A {self.journal_a.mode_name} vs "
                f"B {self.journal_b.mode_name}"
            )
        for buf in self.buffers:
            if buf.descriptor_diff:
                lines.append(
                    f"  buffer {buf.name}: descriptors differ "
                    f"({', '.join(sorted(buf.descriptor_diff))}) — "
                    "data not comparable"
                )
            elif buf.n_differing:
                shown = ", ".join(str(i) for i in buf.differing_sample)
                more = buf.n_differing - len(buf.differing_sample)
                tail = f" (+{more} more)" if more else ""
                lines.append(
                    f"  buffer {buf.name}: {buf.n_differing}/"
                    f"{buf.n_lines} lines differ — lines {shown}{tail}"
                )
        return "\n".join(lines)


class _ColdHeap:
    """A heap file mapped strictly read-only, decoded but never touched."""

    def __init__(self, path) -> None:
        self.path = Path(path)
        try:
            size = os.path.getsize(self.path)
        except OSError as exc:
            raise HeapTruncatedError(
                f"cannot stat heap file {self.path}: {exc}"
            ) from None
        if size < layout.DIR_OFFSET:
            raise HeapTruncatedError(
                f"heap file {self.path} is {size} bytes — smaller than "
                f"the {layout.DIR_OFFSET}-byte header+journal region"
            )
        self.file_size = size
        self._file = open(self.path, "rb")
        try:
            self._mm = mmap.mmap(self._file.fileno(), 0,
                                 access=mmap.ACCESS_READ)
        except (ValueError, OSError) as exc:
            self._file.close()
            raise HeapTruncatedError(
                f"cannot map heap file {self.path}: {exc}"
            ) from None
        try:
            self.header = layout.parse_header(
                self._mm[:layout.HEADER.size], self.path)
            if size < self.header.data_offset:
                raise HeapTruncatedError(
                    f"{self.path}: file ends at {size} bytes, before "
                    f"its data region at {self.header.data_offset}"
                )
            dir_end = layout.DIR_OFFSET + self.header.dir_len
            self.entries = layout.parse_directory(
                bytes(self._mm[layout.DIR_OFFSET:dir_end]),
                self.header.dir_crc, self.path)
            jend = layout.JOURNAL_OFFSET + layout.journal_region_size()
            self.journal = layout.parse_journal(
                self._mm[layout.JOURNAL_OFFSET:jend], self.path)
            extent = max(
                (e.base_addr + e.padded_bytes
                 for e in self.entries.values()),
                default=0,
            )
            if size < self.header.data_offset + extent:
                raise HeapTruncatedError(
                    f"{self.path}: directory declares {extent} data "
                    f"bytes but the file holds only "
                    f"{size - self.header.data_offset}"
                )
            self.data_extent = extent
        except Exception:
            self.close()
            raise

    def line_bytes(self, entry: layout.HeapEntry) -> np.ndarray:
        """The buffer's padded image as a (n_lines, line_size) u8 view."""
        start = self.header.data_offset + entry.base_addr
        raw = np.frombuffer(self._mm, dtype=np.uint8,
                            count=entry.padded_bytes, offset=start)
        return raw.reshape(-1, self.header.line_size)

    def close(self) -> None:
        try:
            self._mm.close()
        except (AttributeError, BufferError):
            pass
        self._file.close()

    def __enter__(self) -> "_ColdHeap":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _diagnose_torn(cold: _ColdHeap) -> TornDiagnosis:
    journal = cold.journal
    by_buffer: dict[str, int] = {}
    attributed = 0
    for entry in cold.entries.values():
        first, last = entry.line_span(cold.header.line_size)
        n = sum(1 for lid in journal.lines if first <= lid < last)
        if n:
            by_buffer[entry.name] = n
            attributed += n
    return TornDiagnosis(
        armed=journal.armed,
        mode=journal.mode_name,
        exact=journal.exact,
        n_lines=len(journal.lines),
        by_buffer=by_buffer,
        unattributed=len(journal.lines) - attributed,
        lines_sample=journal.lines[:LINE_SAMPLE_CAP],
    )


def _occupancy(cold: _ColdHeap) -> tuple[OccupancySegment, ...]:
    segments: list[OccupancySegment] = []
    cursor = 0
    ordered = sorted(cold.entries.values(), key=lambda e: e.base_addr)
    for entry in ordered:
        first, last = entry.line_span(cold.header.line_size)
        if first > cursor:
            segments.append(OccupancySegment(
                kind="gap", first_line=cursor, n_lines=first - cursor))
        lines = cold.line_bytes(entry)
        nonzero = int(np.count_nonzero(lines.any(axis=1)))
        segments.append(OccupancySegment(
            kind="buffer", first_line=first, n_lines=last - first,
            name=entry.name, role=entry.role, nonzero_lines=nonzero))
        cursor = max(cursor, last)
    return tuple(segments)


def inspect_heap(path) -> HeapReport:
    """Decode a heap file without mutating it (journal included).

    Raises the same typed errors as :meth:`MappedShadow.open` on
    corrupt, truncated or version-mismatched files.
    """
    with _ColdHeap(path) as cold:
        return HeapReport(
            path=str(cold.path),
            file_size=cold.file_size,
            header=cold.header,
            journal=cold.journal,
            entries=tuple(cold.entries.values()),
            occupancy=_occupancy(cold),
            torn=_diagnose_torn(cold),
            data_extent=cold.data_extent,
        )


@dataclass(frozen=True)
class ShardedHeapReport:
    """Manifest topology plus every shard's :class:`HeapReport`."""

    path: str
    n_shards: int
    line_size: int
    block_lines: int
    shard_names: tuple[str, ...]
    #: Per-shard reports; index == shard id.
    shards: tuple[HeapReport, ...]

    @property
    def n_mapped_blocks(self) -> int:
        """Address blocks the shard directories claim, as the live
        heap's open would derive them."""
        return len({
            block for report in self.shards for entry in report.entries
            for block in layout.address_blocks(entry, self.line_size,
                                               self.block_lines)})

    def armed_shards(self) -> list[int]:
        """Shard ids whose torn-write journal the crash left armed."""
        return [k for k, report in enumerate(self.shards)
                if report.journal.armed]

    def merged_torn(self) -> dict:
        """Grid-wide torn view, merged exactly like the live reopen."""
        torn_lines = 0
        by_buffer: dict[str, int] = {}
        for report in self.shards:
            torn_lines += report.torn.n_lines
            for name, n in report.torn.by_buffer.items():
                by_buffer[name] = by_buffer.get(name, 0) + n
        return {"torn_lines": torn_lines, "torn_by_buffer": by_buffer}

    def to_dict(self) -> dict:
        merged = self.merged_torn()
        return {
            "path": self.path,
            "n_shards": self.n_shards,
            "line_size": self.line_size,
            "block_lines": self.block_lines,
            "shard_names": list(self.shard_names),
            "n_mapped_blocks": self.n_mapped_blocks,
            "armed_shards": self.armed_shards(),
            "torn_lines": merged["torn_lines"],
            "torn_by_buffer": merged["torn_by_buffer"],
            "shards": [report.to_dict() for report in self.shards],
        }

    def render_text(self) -> str:
        armed = self.armed_shards()
        merged = self.merged_torn()
        lines = [
            f"sharded heap {self.path}",
            f"  manifest: {self.n_shards} shard(s), line size "
            f"{self.line_size} B, {self.block_lines} line(s)/block, "
            f"{self.n_mapped_blocks} mapped block(s)",
            f"  journals: {len(armed)}/{self.n_shards} shard(s) armed"
            + (f" ({', '.join(str(k) for k in armed)}), "
               f"{merged['torn_lines']} torn line(s) total"
               if armed else " (all clean)"),
        ]
        for k, report in enumerate(self.shards):
            lines.append(f"  --- shard {k} ---")
            lines.extend("  " + line
                         for line in report.render_text().splitlines())
        return "\n".join(lines)


_DESCRIPTOR_FIELDS = ("dtype", "shape", "base_addr", "nbytes",
                      "padded_bytes", "role")


def _descriptor_diff(a: layout.HeapEntry, b: layout.HeapEntry) -> dict:
    da, db = a.to_dict(), b.to_dict()
    return {k: [da[k], db[k]] for k in _DESCRIPTOR_FIELDS
            if da[k] != db[k]}


def diff_heaps(path_a, path_b) -> HeapDiff:
    """Compare two heap images: headers, directories, data lines."""
    with _ColdHeap(path_a) as a, _ColdHeap(path_b) as b:
        header_diff = {}
        for key in ("version", "line_size", "data_offset"):
            va, vb = getattr(a.header, key), getattr(b.header, key)
            if va != vb:
                header_diff[key] = [va, vb]
        names_a, names_b = set(a.entries), set(b.entries)
        buffers: list[BufferDiff] = []
        for name in [n for n in a.entries if n in names_b]:
            ea, eb = a.entries[name], b.entries[name]
            desc = _descriptor_diff(ea, eb)
            n_lines = ea.padded_bytes // a.header.line_size
            if desc or header_diff:
                buffers.append(BufferDiff(
                    name=name, n_lines=n_lines, n_differing=0,
                    differing_sample=(), descriptor_diff=desc))
                continue
            la, lb = a.line_bytes(ea), b.line_bytes(eb)
            differ = np.nonzero((la != lb).any(axis=1))[0]
            first, _ = ea.line_span(a.header.line_size)
            buffers.append(BufferDiff(
                name=name, n_lines=n_lines, n_differing=len(differ),
                differing_sample=tuple(
                    int(first + i) for i in differ[:LINE_SAMPLE_CAP]),
            ))
        return HeapDiff(
            path_a=str(a.path), path_b=str(b.path),
            header_diff=header_diff,
            only_in_a=tuple(sorted(names_a - names_b)),
            only_in_b=tuple(sorted(names_b - names_a)),
            buffers=tuple(buffers),
            journal_a=a.journal, journal_b=b.journal,
        )


# ----------------------------------------------------------------------
# Sharded heaps: manifest + N shard files, still strictly read-only
# ----------------------------------------------------------------------


def _read_manifest_file(path: Path) -> layout.ShardManifest:
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise HeapTruncatedError(
            f"cannot read shard manifest {path}: {exc}"
        ) from None
    return layout.parse_manifest(raw, path)


def inspect_sharded(path) -> ShardedHeapReport:
    """Decode a shard manifest and every shard file, mutating nothing.

    The manifest is read with a plain ``read_bytes`` and each shard
    through the same cold ``ACCESS_READ`` path as :func:`inspect_heap`
    — armed journals stay armed on disk.
    """
    path = Path(path)
    manifest = _read_manifest_file(path)
    shards = tuple(
        inspect_heap(path.with_name(name))
        for name in manifest.shard_names
    )
    return ShardedHeapReport(
        path=str(path),
        n_shards=manifest.n_shards,
        line_size=manifest.line_size,
        block_lines=manifest.block_lines,
        shard_names=manifest.shard_names,
        shards=shards,
    )


def _is_manifest_file(path) -> bool:
    try:
        with open(Path(path), "rb") as fileobj:
            head = fileobj.read(len(layout.MANIFEST_MAGIC))
    except OSError as exc:
        raise HeapTruncatedError(
            f"cannot read heap file {path}: {exc}"
        ) from None
    return layout.is_manifest(head)


def inspect_path(path) -> HeapReport | ShardedHeapReport:
    """Inspect either kind of heap file, dispatching on its magic."""
    if _is_manifest_file(path):
        return inspect_sharded(path)
    return inspect_heap(path)


@dataclass(frozen=True)
class ShardedHeapDiff:
    """Two sharded heaps compared manifest-to-manifest, shard-by-shard."""

    path_a: str
    path_b: str
    #: Manifest fields that disagree (name -> [a, b]); a shard count
    #: mismatch leaves ``shards`` empty. Placement is not a manifest
    #: field: a buffer homed differently shows in the per-shard diffs.
    manifest_diff: dict
    shards: tuple[HeapDiff, ...]

    @property
    def identical(self) -> bool:
        return (not self.manifest_diff
                and all(d.identical for d in self.shards))

    def to_dict(self) -> dict:
        return {
            "path_a": self.path_a,
            "path_b": self.path_b,
            "identical": self.identical,
            "manifest_diff": dict(self.manifest_diff),
            "shards": [d.to_dict() for d in self.shards],
        }

    def render_text(self) -> str:
        lines = [f"diff {self.path_a} vs {self.path_b} (sharded)"]
        if self.identical:
            lines.append("  sharded heaps are identical")
            return "\n".join(lines)
        for key, (va, vb) in sorted(self.manifest_diff.items()):
            lines.append(f"  manifest.{key}: {va} != {vb}")
        for k, d in enumerate(self.shards):
            if d.identical:
                continue
            lines.append(f"  --- shard {k} ---")
            lines.extend("  " + line
                         for line in d.render_text().splitlines()[1:])
        return "\n".join(lines)


def diff_sharded(path_a, path_b) -> ShardedHeapDiff:
    """Compare two sharded heaps: manifests, then each shard pair."""
    path_a, path_b = Path(path_a), Path(path_b)
    ma = _read_manifest_file(path_a)
    mb = _read_manifest_file(path_b)
    manifest_diff: dict = {}
    for key in ("n_shards", "line_size", "block_lines"):
        va, vb = getattr(ma, key), getattr(mb, key)
        if va != vb:
            manifest_diff[key] = [va, vb]
    shards: tuple[HeapDiff, ...] = ()
    if ma.n_shards == mb.n_shards:
        shards = tuple(
            diff_heaps(path_a.with_name(ma.shard_names[k]),
                       path_b.with_name(mb.shard_names[k]))
            for k in range(ma.n_shards)
        )
    return ShardedHeapDiff(path_a=str(path_a), path_b=str(path_b),
                           manifest_diff=manifest_diff, shards=shards)


def diff_paths(path_a, path_b) -> HeapDiff | ShardedHeapDiff:
    """Diff two heap files of the *same* kind, dispatching on magic."""
    a_sharded = _is_manifest_file(path_a)
    b_sharded = _is_manifest_file(path_b)
    if a_sharded != b_sharded:
        plain, manifest = ((path_b, path_a) if a_sharded
                           else (path_a, path_b))
        raise HeapFormatError(
            f"cannot diff a sharded heap ({manifest}) against a plain "
            f"heap file ({plain}); inspect one shard file directly to "
            "compare it with a plain heap"
        )
    if a_sharded:
        return diff_sharded(path_a, path_b)
    return diff_heaps(path_a, path_b)
