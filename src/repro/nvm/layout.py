"""On-disk layout of the v1 ``MappedShadow`` heap file.

One module owns the byte-level format — the struct layouts, region
offsets, and the encode/decode of header, torn-write journal and
buffer directory — so the two components that speak it cannot drift:

* :mod:`repro.nvm.mapped` (the writer: the live mmap-backed heap), and
* :mod:`repro.nvm.inspect` (the reader: the offline, read-only
  inspector behind ``repro inspect``).

Layout (version 1, little-endian)::

    offset 0      header   magic "LPNVHEAP", version, line size,
                           directory capacity, data offset,
                           directory length, directory CRC32
    offset 64     journal  write-back intent record (torn-write window)
    offset 4224   directory  JSON array of buffer descriptors
    data offset   data     buffer images at ``data offset + base_addr``

Decoders validate as they parse and raise the same typed errors
:meth:`MappedShadow.open` documents — never silent garbage. Nothing
here touches a file: callers hand in bytes and get structures back,
which is what keeps the inspector strictly read-only.

The module also owns the **shard manifest** format that
:class:`repro.nvm.sharded.ShardedShadow` writes next to its N shard
files: a fixed header (magic ``"LPNVMANI"``, version, shard count,
body length, body CRC32) followed by a CRC-guarded JSON body holding
the static topology — line size, address-block granularity, shard
file names. It is written once, at create. Which shard owns which
address block is *not* in it: each shard file is an ordinary v1 heap
whose directory names the buffers it holds, and
:func:`address_blocks` turns a directory entry into the address
blocks it claims, so placement is re-derived from the shards at open.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from repro.errors import (
    HeapCorruptError,
    HeapFormatError,
    HeapTruncatedError,
    HeapVersionError,
)

MAGIC = b"LPNVHEAP"
VERSION = 1

#: ``magic, version, line_size, dir_capacity, data_offset, dir_len, dir_crc``
HEADER = struct.Struct("<8sIIQQQI")
#: ``mode, count`` followed by ``count`` uint64 line ids (exact mode)
#: or two uint64s (range mode).
JOURNAL_HEAD = struct.Struct("<II")

HEADER_OFFSET = 0
JOURNAL_OFFSET = 64
DIR_OFFSET = 4224
#: Line ids the journal can record exactly; larger write-backs fall
#: back to a [first, last] range record.
JOURNAL_CAPACITY = 500

JOURNAL_EMPTY = 0
JOURNAL_EXACT = 1
JOURNAL_RANGE = 2

#: Default directory region: ~1.3k buffer descriptors.
DEFAULT_DIR_CAPACITY = 128 * 1024
#: Default initial data region (sparse; grows on demand).
DEFAULT_DATA_CAPACITY = 16 * 1024 * 1024

JOURNAL_MODE_NAMES = {
    JOURNAL_EMPTY: "EMPTY",
    JOURNAL_EXACT: "EXACT",
    JOURNAL_RANGE: "RANGE",
}


@dataclass(frozen=True)
class HeapHeader:
    """The decoded fixed header of a heap file."""

    version: int
    line_size: int
    dir_capacity: int
    data_offset: int
    dir_len: int
    dir_crc: int


@dataclass(frozen=True)
class JournalRecord:
    """The decoded torn-write journal, armed or not.

    ``lines`` is the exact armed set in EXACT mode and the full
    [first, last] expansion in RANGE mode (conservative, matching
    what the writer's reopen path reports as torn).
    """

    mode: int
    count: int
    lines: tuple[int, ...]

    @property
    def armed(self) -> bool:
        return self.mode != JOURNAL_EMPTY

    @property
    def exact(self) -> bool:
        return self.mode != JOURNAL_RANGE

    @property
    def mode_name(self) -> str:
        return JOURNAL_MODE_NAMES[self.mode]


@dataclass(frozen=True)
class HeapEntry:
    """One persistent buffer's descriptor in the heap directory."""

    name: str
    dtype: np.dtype
    shape: tuple[int, ...]
    base_addr: int
    nbytes: int
    padded_bytes: int
    #: ``"table"`` for checksum-table buffers (``__lp_`` namespace),
    #: ``"data"`` for application buffers — the split the directory
    #: keeps so a cold open can tell the checksum-table region apart.
    role: str

    @property
    def size(self) -> int:
        """Element count."""
        return int(np.prod(self.shape)) if self.shape else 1

    def line_span(self, line_size: int) -> tuple[int, int]:
        """Half-open ``[first, last)`` line-id range of this buffer."""
        first = self.base_addr // line_size
        return first, first + self.padded_bytes // line_size

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "dtype": self.dtype.str,
            "shape": list(self.shape),
            "base_addr": self.base_addr,
            "nbytes": self.nbytes,
            "padded_bytes": self.padded_bytes,
            "role": self.role,
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "HeapEntry":
        try:
            return cls(
                name=str(raw["name"]),
                dtype=np.dtype(raw["dtype"]),
                shape=tuple(int(s) for s in raw["shape"]),
                base_addr=int(raw["base_addr"]),
                nbytes=int(raw["nbytes"]),
                padded_bytes=int(raw["padded_bytes"]),
                role=str(raw.get("role", "data")),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise HeapFormatError(
                f"undecodable heap directory entry: {raw!r} ({exc})"
            ) from None


def geometry(span) -> tuple:
    """``(dtype, shape, base address, byte length)`` of a directory
    entry or a live buffer — what must agree for the one to be the
    other's NVM image."""
    return (span.dtype.str, tuple(span.shape), span.base_addr, span.nbytes)


def table_role(name: str) -> str:
    """Directory role of a buffer: checksum-table vs application data."""
    return "table" if name.startswith("__lp_") else "data"


# ----------------------------------------------------------------------
# Header
# ----------------------------------------------------------------------

def parse_header(raw: bytes, path) -> HeapHeader:
    """Decode and validate the fixed header; raises typed errors."""
    if len(raw) < HEADER.size:
        raise HeapTruncatedError(
            f"{path}: {len(raw)} header bytes — the fixed header is "
            f"{HEADER.size} bytes"
        )
    magic, version, line_size, dir_capacity, data_offset, dir_len, \
        dir_crc = HEADER.unpack(raw[:HEADER.size])
    if magic != MAGIC:
        raise HeapFormatError(
            f"{path} is not an LP heap file (magic {magic!r})"
        )
    if version != VERSION:
        raise HeapVersionError(
            f"{path} is heap format v{version}; this build reads "
            f"v{VERSION}"
        )
    if line_size <= 0 or line_size & (line_size - 1):
        raise HeapFormatError(
            f"{path}: nonsensical line size {line_size}"
        )
    if (data_offset < DIR_OFFSET + dir_len
            or dir_len > dir_capacity
            or data_offset % line_size):
        raise HeapFormatError(
            f"{path}: nonsensical geometry (dir_len={dir_len}, "
            f"dir_capacity={dir_capacity}, data_offset={data_offset})"
        )
    return HeapHeader(version=version, line_size=line_size,
                      dir_capacity=dir_capacity, data_offset=data_offset,
                      dir_len=dir_len, dir_crc=dir_crc)


def pack_header(line_size: int, dir_capacity: int, data_offset: int,
                dir_payload: bytes) -> bytes:
    return HEADER.pack(MAGIC, VERSION, line_size, dir_capacity,
                       data_offset, len(dir_payload),
                       zlib.crc32(dir_payload))


# ----------------------------------------------------------------------
# Directory
# ----------------------------------------------------------------------

def parse_directory(dir_bytes: bytes, dir_crc: int,
                    path) -> dict[str, HeapEntry]:
    """CRC-check and decode the directory region into entries."""
    if zlib.crc32(dir_bytes) != dir_crc:
        raise HeapCorruptError(
            f"{path}: directory checksum mismatch — the heap "
            "directory is corrupt"
        )
    try:
        raw_entries = json.loads(dir_bytes.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise HeapCorruptError(
            f"{path}: directory is valid per checksum but not "
            f"decodable JSON ({exc}) — refusing to guess"
        ) from None
    entries: dict[str, HeapEntry] = {}
    for raw_entry in raw_entries:
        entry = HeapEntry.from_dict(raw_entry)
        entries[entry.name] = entry
    return entries


def pack_directory(entries) -> bytes:
    """Serialize allocation-ordered entries to the directory payload."""
    return json.dumps(
        [entry.to_dict() for entry in entries],
        separators=(",", ":"),
    ).encode("utf-8")


# ----------------------------------------------------------------------
# Torn-write journal
# ----------------------------------------------------------------------

def parse_journal(raw: bytes, path) -> JournalRecord:
    """Decode the journal region (head + body) without mutating it."""
    mode, count = JOURNAL_HEAD.unpack(raw[:JOURNAL_HEAD.size])
    body = raw[JOURNAL_HEAD.size:]
    if mode == JOURNAL_EMPTY:
        return JournalRecord(mode=mode, count=0, lines=())
    if mode == JOURNAL_EXACT and count <= JOURNAL_CAPACITY:
        lines = struct.unpack(f"<{count}Q", body[:8 * count])
        return JournalRecord(mode=mode, count=count, lines=lines)
    if mode == JOURNAL_RANGE:
        lo, hi = struct.unpack("<2Q", body[:16])
        if hi < lo:
            raise HeapCorruptError(
                f"{path}: torn-write journal range [{lo}, {hi}] "
                "is inverted"
            )
        return JournalRecord(mode=mode, count=count,
                             lines=tuple(range(lo, hi + 1)))
    raise HeapCorruptError(
        f"{path}: torn-write journal mode {mode} with count "
        f"{count} is not a state this format writes"
    )


def pack_journal(line_ids) -> bytes:
    """Encode an armed intent record for ``line_ids``."""
    n = len(line_ids)
    if n <= JOURNAL_CAPACITY:
        return JOURNAL_HEAD.pack(JOURNAL_EXACT, n) + struct.pack(
            f"<{n}Q", *(int(lid) for lid in line_ids)
        )
    lo = int(min(line_ids))
    hi = int(max(line_ids))
    return JOURNAL_HEAD.pack(JOURNAL_RANGE, n) + struct.pack("<2Q", lo, hi)


def pack_journal_empty() -> bytes:
    return JOURNAL_HEAD.pack(JOURNAL_EMPTY, 0)


def journal_region_size() -> int:
    """Bytes the largest journal record can occupy."""
    return JOURNAL_HEAD.size + 8 * JOURNAL_CAPACITY


# ----------------------------------------------------------------------
# Shard manifest (sharded multi-heap scale-out)
# ----------------------------------------------------------------------

MANIFEST_MAGIC = b"LPNVMANI"
MANIFEST_VERSION = 1

#: ``magic, version, n_shards, body_len, body_crc``
MANIFEST_HEADER = struct.Struct("<8sIIQI")
MANIFEST_BODY_OFFSET = 64

#: Address-block granularity of the block→shard map: consecutive
#: cache lines grouped into one mapping unit. Buffers always live
#: wholly inside one shard, and two buffers cohabiting one address
#: block are pinned to the same shard — so the default granularity is
#: a single cache line (buffers never share a line; placement stays
#: free to balance).
DEFAULT_SHARD_BLOCK_LINES = 1


@dataclass(frozen=True)
class ShardManifest:
    """The decoded shard manifest: a sharded heap's static topology.

    ``shard_names`` are the shard heap file names relative to the
    manifest's own directory; ``block_lines`` is how many cache lines
    make one address block (``line_id // block_lines``).
    """

    n_shards: int
    line_size: int
    block_lines: int
    shard_names: tuple[str, ...]


def address_blocks(span, line_size: int, block_lines: int) -> range:
    """The address blocks a buffer claims for the shard that holds it.

    ``span`` is anything with ``base_addr`` and ``padded_bytes``: a
    live buffer about to be placed, or the :class:`HeapEntry` a shard
    directory keeps for it — the same blocks either way, which is what
    lets a cold open re-derive the placement the live heap made.
    """
    first = span.base_addr // line_size
    last = first + max(span.padded_bytes // line_size, 1) - 1
    return range(first // block_lines, last // block_lines + 1)


def is_manifest(raw: bytes) -> bool:
    """True when ``raw`` starts with the shard-manifest magic."""
    return raw[:len(MANIFEST_MAGIC)] == MANIFEST_MAGIC


def parse_manifest(raw: bytes, path) -> ShardManifest:
    """Decode and validate a shard manifest; raises typed errors.

    Only the static topology is read. A v1 manifest written when the
    block→shard table was still stored carries an ``extents`` key;
    the shard directories supersede it, so it is ignored.
    """
    if len(raw) < MANIFEST_HEADER.size:
        raise HeapTruncatedError(
            f"{path}: {len(raw)} manifest bytes — the fixed manifest "
            f"header is {MANIFEST_HEADER.size} bytes"
        )
    magic, version, n_shards, body_len, body_crc = \
        MANIFEST_HEADER.unpack(raw[:MANIFEST_HEADER.size])
    if magic == MAGIC:
        raise HeapFormatError(
            f"{path} is a plain heap file, not a shard manifest"
        )
    if magic != MANIFEST_MAGIC:
        raise HeapFormatError(
            f"{path} is not an LP shard manifest (magic {magic!r})"
        )
    if version != MANIFEST_VERSION:
        raise HeapVersionError(
            f"{path} is shard manifest v{version}; this build reads "
            f"v{MANIFEST_VERSION}"
        )
    if len(raw) < MANIFEST_BODY_OFFSET + body_len:
        raise HeapTruncatedError(
            f"{path}: manifest declares a {body_len}-byte body but the "
            f"file holds only {len(raw) - MANIFEST_BODY_OFFSET}"
        )
    body = raw[MANIFEST_BODY_OFFSET:MANIFEST_BODY_OFFSET + body_len]
    if zlib.crc32(body) != body_crc:
        raise HeapCorruptError(
            f"{path}: manifest body checksum mismatch — the shard "
            "manifest is corrupt"
        )
    try:
        doc = json.loads(body.decode("utf-8"))
        line_size = int(doc["line_size"])
        block_lines = int(doc["block_lines"])
        shard_names = tuple(str(name) for name in doc["shards"])
    except (UnicodeDecodeError, json.JSONDecodeError, KeyError,
            TypeError, ValueError) as exc:
        raise HeapCorruptError(
            f"{path}: manifest body is valid per checksum but not "
            f"decodable ({exc}) — refusing to guess"
        ) from None
    if n_shards <= 0 or len(shard_names) != n_shards:
        raise HeapFormatError(
            f"{path}: manifest header declares {n_shards} shard(s) but "
            f"the body names {len(shard_names)}"
        )
    if line_size <= 0 or line_size & (line_size - 1):
        raise HeapFormatError(
            f"{path}: nonsensical manifest line size {line_size}"
        )
    if block_lines <= 0:
        raise HeapFormatError(
            f"{path}: nonsensical address-block granularity "
            f"{block_lines}"
        )
    return ShardManifest(n_shards=n_shards, line_size=line_size,
                         block_lines=block_lines,
                         shard_names=shard_names)


def pack_manifest(manifest: ShardManifest) -> bytes:
    """Serialize a shard manifest (header + CRC-guarded JSON body)."""
    body = json.dumps(
        {
            "line_size": manifest.line_size,
            "block_lines": manifest.block_lines,
            "shards": list(manifest.shard_names),
        },
        separators=(",", ":"),
    ).encode("utf-8")
    header = MANIFEST_HEADER.pack(MANIFEST_MAGIC, MANIFEST_VERSION,
                                  manifest.n_shards, len(body),
                                  zlib.crc32(body))
    return header + b"\0" * (MANIFEST_BODY_OFFSET - len(header)) + body
