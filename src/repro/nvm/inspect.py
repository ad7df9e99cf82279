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

:func:`inspect_path` and :func:`diff_paths` are the only entry points.
A heap is its shard manifest — or none, for a plain heap file — plus
N >= 1 *extents*, each an ordinary v1 heap file, so one
:class:`HeapReport` (per-extent reports plus the merged torn view) and
one :class:`HeapDiff` (manifest fields, then extent pair by extent
pair) describe both layouts; a single shard file inspects as the plain
heap it is. :func:`diff_paths` is the tool for "what did this crash
round actually change?" between a pre-kill and post-kill image, or
between two rounds of the harness.

Reports serialize via ``to_dict`` into documents validated by
``src/repro/obs/schemas/heap_inspect.schema.json`` (v3).
"""

from __future__ import annotations

import mmap
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.errors import HeapFormatError, HeapTruncatedError
from repro.nvm import layout
from repro.nvm.sharded import locate_extents

__all__ = ["HeapDiff", "HeapReport", "diff_paths", "inspect_path"]

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
class ExtentReport:
    """Everything the inspector decodes from one v1 heap file."""

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
class ExtentDiff:
    """Two v1 heap files compared: headers, directories, data lines."""

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

    def render_lines(self) -> list[str]:
        lines = []
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
        return lines


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


def _inspect_extent(path) -> ExtentReport:
    with _ColdHeap(path) as cold:
        return ExtentReport(
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
class HeapReport:
    """Everything ``repro inspect`` decodes from one heap: the shard
    manifest, if it has one, and every extent's :class:`ExtentReport`."""

    path: str
    #: Static shard topology; ``None`` for a plain heap file.
    manifest: layout.ShardManifest | None
    #: N >= 1 per-extent reports; index == shard id under a manifest.
    extents: tuple[ExtentReport, ...]

    @property
    def n_shards(self) -> int:
        """Shards the manifest names; 0 for a plain heap file."""
        return self.manifest.n_shards if self.manifest else 0

    @property
    def entries(self) -> tuple[layout.HeapEntry, ...]:
        """The union directory, extent by extent."""
        return tuple(e for extent in self.extents for e in extent.entries)

    def armed_extents(self) -> list[int]:
        """Extents whose torn-write journal the crash left armed."""
        return [k for k, extent in enumerate(self.extents)
                if extent.journal.armed]

    def merged_torn(self) -> dict:
        """Heap-wide torn view, merged exactly like the live reopen."""
        torn_lines = 0
        by_buffer: dict[str, int] = {}
        for extent in self.extents:
            torn_lines += extent.torn.n_lines
            for name, n in extent.torn.by_buffer.items():
                by_buffer[name] = by_buffer.get(name, 0) + n
        return {"torn_lines": torn_lines, "torn_by_buffer": by_buffer}

    def _manifest_dict(self) -> dict:
        m = self.manifest
        # Address blocks the shard directories claim, as the live
        # heap's open would derive them.
        blocks = {
            block for entry in self.entries
            for block in layout.address_blocks(entry, m.line_size,
                                               m.block_lines)}
        return {
            "n_shards": m.n_shards,
            "line_size": m.line_size,
            "block_lines": m.block_lines,
            "shard_names": list(m.shard_names),
            "n_mapped_blocks": len(blocks),
        }

    def to_dict(self) -> dict:
        return {
            "path": self.path,
            "manifest": self._manifest_dict() if self.manifest else None,
            "armed_extents": self.armed_extents(),
            **self.merged_torn(),
            "extents": [extent.to_dict() for extent in self.extents],
        }

    def render_text(self) -> str:
        if self.manifest is None:
            return self.extents[0].render_text()
        armed = self.armed_extents()
        m = self._manifest_dict()
        lines = [
            f"sharded heap {self.path}",
            f"  manifest: {m['n_shards']} shard(s), line size "
            f"{m['line_size']} B, {m['block_lines']} line(s)/block, "
            f"{m['n_mapped_blocks']} mapped block(s)",
            f"  journals: {len(armed)}/{m['n_shards']} shard(s) armed"
            + (f" ({', '.join(str(k) for k in armed)}), "
               f"{self.merged_torn()['torn_lines']} torn line(s) total"
               if armed else " (all clean)"),
        ]
        for k, extent in enumerate(self.extents):
            lines.append(f"  --- shard {k} ---")
            lines.extend("  " + line
                         for line in extent.render_text().splitlines())
        return "\n".join(lines)


def inspect_path(path) -> HeapReport:
    """Decode a heap — plain file or manifest + shards — mutating
    nothing: every extent goes through the cold ``ACCESS_READ`` map, so
    armed journals stay armed on disk.

    Raises the same typed errors as :func:`repro.nvm.open_heap` on
    missing, corrupt, truncated or version-mismatched files.
    """
    manifest, extents = locate_extents(path)
    return HeapReport(
        path=str(path), manifest=manifest,
        extents=tuple(_inspect_extent(extent) for extent in extents))


_DESCRIPTOR_FIELDS = ("dtype", "shape", "base_addr", "nbytes",
                      "padded_bytes", "role")


def _descriptor_diff(a: layout.HeapEntry, b: layout.HeapEntry) -> dict:
    da, db = a.to_dict(), b.to_dict()
    return {k: [da[k], db[k]] for k in _DESCRIPTOR_FIELDS
            if da[k] != db[k]}


def _diff_extents(path_a, path_b) -> ExtentDiff:
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
        return ExtentDiff(
            path_a=str(a.path), path_b=str(b.path),
            header_diff=header_diff,
            only_in_a=tuple(sorted(names_a - names_b)),
            only_in_b=tuple(sorted(names_b - names_a)),
            buffers=tuple(buffers),
            journal_a=a.journal, journal_b=b.journal,
        )


@dataclass(frozen=True)
class HeapDiff:
    """The result of ``repro inspect A --diff B``: two heaps of the
    same layout compared manifest-to-manifest, extent-by-extent."""

    path_a: str
    path_b: str
    #: Manifest fields that disagree (name -> [a, b]); always empty
    #: for two plain heaps, and a shard count mismatch leaves
    #: ``extents`` empty. Placement is not a manifest field: a buffer
    #: homed differently shows in the per-extent diffs.
    manifest_diff: dict
    extents: tuple[ExtentDiff, ...]

    @property
    def identical(self) -> bool:
        return (not self.manifest_diff
                and all(d.identical for d in self.extents))

    def to_dict(self) -> dict:
        return {
            "path_a": self.path_a,
            "path_b": self.path_b,
            "identical": self.identical,
            "manifest_diff": dict(self.manifest_diff),
            "extents": [d.to_dict() for d in self.extents],
        }

    def render_text(self) -> str:
        lines = [f"diff {self.path_a} vs {self.path_b}"]
        if self.identical:
            lines.append("  heaps are identical")
            return "\n".join(lines)
        for key, (va, vb) in sorted(self.manifest_diff.items()):
            lines.append(f"  manifest.{key}: {va} != {vb}")
        for k, d in enumerate(self.extents):
            if d.identical:
                continue
            if len(self.extents) > 1:
                lines.append(f"  --- shard {k} ---")
            lines.extend(d.render_lines())
        return "\n".join(lines)


def diff_paths(path_a, path_b) -> HeapDiff:
    """Diff two heaps of the *same* layout: manifests (when there are
    any), then each extent pair."""
    ma, extents_a = locate_extents(path_a)
    mb, extents_b = locate_extents(path_b)
    if (ma is None) != (mb is None):
        plain, manifest = ((path_b, path_a) if mb is None
                           else (path_a, path_b))
        raise HeapFormatError(
            f"cannot diff a sharded heap ({manifest}) against a plain "
            f"heap file ({plain}); inspect one shard file directly to "
            "compare it with a plain heap"
        )
    manifest_diff = {
        key: [getattr(ma, key), getattr(mb, key)]
        for key in ("n_shards", "line_size", "block_lines")
        if ma is not None and getattr(ma, key) != getattr(mb, key)}
    extents: tuple[ExtentDiff, ...] = ()
    if len(extents_a) == len(extents_b):
        extents = tuple(_diff_extents(a, b)
                        for a, b in zip(extents_a, extents_b))
    return HeapDiff(path_a=str(path_a), path_b=str(path_b),
                    manifest_diff=manifest_diff, extents=extents)
