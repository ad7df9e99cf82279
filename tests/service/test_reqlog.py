"""The request WAL: one file, written and retired in place.

A record is ``magic | schema | length | crc32 | body`` at offset 0 of a
file sized once; what a SIGKILL can do to it is cut the body at a page
boundary. The resume tests run the window through the real
``execute_window`` and die *inside* ``begin`` — before any launch — so
the torn record is the service's own, and the next
:class:`ServiceCore` must come up as if no window had been in flight.
"""

import json
import os
import struct
import zlib

import pytest

from repro.errors import ServiceError
from repro.service.core import ServiceConfig, ServiceCore
from repro.service.reqlog import MAGIC, SCHEMA_VERSION, RequestLog, log_path_for
from tests.service.unclean import ProcessDied, apply_reference, requests

PAGE = 4096
HEADER = 16

#: A window whose record spans two pages: 128 twenty-digit keys and values.
BIG = [("put", 2**63 + k, 2**64 - 1 - k) for k in range(128)]
LAUNCHES = [["write", [k for _, k, _ in BIG], [v for _, _, v in BIG]]]


def _record_pages(launches) -> int:
    body = json.dumps(launches, separators=(",", ":"))
    return -(-(HEADER + len(body)) // PAGE)


def test_begin_read_clear_round_trip_in_a_file_that_never_resizes(tmp_path):
    log = RequestLog(tmp_path / "wal", max_keys=128)
    size = os.stat(log.path).st_size
    assert size >= HEADER + len(json.dumps(LAUNCHES, separators=(",", ":")))
    assert log.read() == [] and not log.torn
    for launches in (LAUNCHES, [["write", [7], [0]]],
                     [["write", [1, 3], [2, 0]]]):
        log.begin(launches)
        assert RequestLog(log.path).read() == launches
        log.clear()
        assert RequestLog(log.path).read() == []
        assert os.stat(log.path).st_size == size
    assert sorted(os.listdir(tmp_path)) == ["wal"]  # no temp, no rename


def test_reopening_never_shrinks_or_rewrites_a_record(tmp_path):
    RequestLog(tmp_path / "wal", max_keys=128).begin(LAUNCHES)
    raw = (tmp_path / "wal").read_bytes()
    small = RequestLog(tmp_path / "wal", max_keys=2)  # --max-batch shrank
    assert (tmp_path / "wal").read_bytes() == raw
    assert small.read() == LAUNCHES


@pytest.mark.parametrize("copies,cut", [(1, HEADER), (1, PAGE),
                                        (2, PAGE), (2, 2 * PAGE)])
def test_a_begin_cut_short_reads_as_no_window_in_flight(tmp_path, copies,
                                                        cut):
    """Every page boundary inside a two- and a three-page record, over
    the retired record of the window before."""
    launches = LAUNCHES * copies
    assert _record_pages(launches) == copies + 1
    log = RequestLog(tmp_path / "wal", max_keys=128 * copies)
    log.begin([[op, [k ^ 1 for k in keys], [v ^ 1 for v in values]]
               for op, keys, values in launches])
    log.clear()                      # the previous window, retired
    stale = log.path.read_bytes()
    log.begin(launches)
    whole = log.path.read_bytes()
    log.path.write_bytes(whole[:cut] + stale[cut:])

    again = RequestLog(log.path)
    assert again.read() == [] and again.torn
    again.clear()
    assert again.read() == [] and not again.torn


def test_a_flipped_body_byte_reads_as_torn_not_as_a_window(tmp_path):
    log = RequestLog(tmp_path / "wal", max_keys=128)
    log.begin(LAUNCHES)
    raw = bytearray(log.path.read_bytes())
    raw[HEADER + 100] ^= 0x01
    log.path.write_bytes(raw)
    assert log.read() == [] and log.torn


def test_a_length_past_the_end_of_the_file_is_torn_not_an_allocation(tmp_path):
    log = RequestLog(tmp_path / "wal", max_keys=4)
    log.path.write_bytes(struct.pack("<4sIII", MAGIC, SCHEMA_VERSION,
                                     0xFFFFFFF0, 0))
    assert log.read() == [] and log.torn


_FOREIGN = f"not a schema-{SCHEMA_VERSION} record"
_OLDER = SCHEMA_VERSION - 1


@pytest.mark.parametrize("raw,match", [
    (b"XXXX" + bytes(12), _FOREIGN),
    (json.dumps({"schema": 3, "launches": []}).encode(), _FOREIGN),
    (b"{}", _FOREIGN),
    (struct.pack("<4sIII", MAGIC, _OLDER, 2, zlib.crc32(b"[]")) + b"[]",
     f"has schema {_OLDER}; this build reads {SCHEMA_VERSION}"),
], ids=["magic", "schema-3-json", "short", "older-schema"])
def test_a_foreign_file_is_refused_with_a_typed_error(tmp_path, raw, match):
    (tmp_path / "wal").write_bytes(raw)
    log = RequestLog(tmp_path / "wal", max_keys=128)
    with pytest.raises(ServiceError, match=match):
        log.read()


# ----------------------------------------------------------------------
# Through the service: a kill inside begin() resumes cleanly and visibly
# ----------------------------------------------------------------------

def _core(heap, shards=0):
    return ServiceCore(ServiceConfig(capacity=512, cache_lines=32),
                       heap_path=heap, shards=shards)


def _die_inside_begin(core, damage):
    """Arm ``core`` so its next ``begin`` writes the record, has
    ``damage(path, before, after)`` make of it what the kill left, and
    dies before returning — i.e. before the window's first launch."""
    begin = core.reqlog.begin
    path = core.reqlog.path

    def torn_begin(launches):
        before = path.read_bytes()
        begin(launches)
        damage(path, before, path.read_bytes())
        raise ProcessDied

    core.reqlog.begin = torn_begin


def _cut_at(offset):
    return lambda path, before, after: path.write_bytes(
        after[:offset] + before[offset:])


def _flip(path, before, after):
    path.write_bytes(after[:HEADER + 9] + bytes([after[HEADER + 9] ^ 0x40])
                     + after[HEADER + 10:])


@pytest.mark.parametrize("damage", [_cut_at(PAGE), _cut_at(HEADER), _flip],
                         ids=["cut-at-page-1", "cut-after-header",
                              "flipped-byte"])
@pytest.mark.parametrize("shards", [0, 4], ids=["mapped", "sharded"])
def test_a_kill_inside_begin_resumes_as_no_window_in_flight(tmp_path, shards,
                                                            damage):
    heap = tmp_path / "h" / "heap.lpnv"
    core = _core(heap, shards)
    acked = [("put", k, k * 7) for k in range(1, 40)] + [("delete", 3, None)]
    core.execute_window(requests(*acked))
    _die_inside_begin(core, damage)
    with pytest.raises(ProcessDied):
        core.execute_window(requests(*BIG[:100], ("delete", 1, None)))
    core.close(drain=False)

    reopened = _core(heap, shards)
    try:
        info = reopened.resume_info
        assert info["resumed"] and info["torn_wal"] == 1
        assert (info["replayed_launches"], info["recovered_blocks"],
                info["reattached_buffers"], info["detached_orphans"]) == \
            (0, 0, 0, 0)
        # Nothing of that window had launched: the acked state, exactly.
        assert reopened.store.contents() == apply_reference({}, acked)[0]
        # The torn record was retired: the next start sees a clean log.
        assert RequestLog(log_path_for(heap)).read() == []
        assert not RequestLog(log_path_for(heap)).torn
        reopened.execute_window(requests(("put", 1000, 1)))
        assert reopened.store.contents()[1000] == 1
    finally:
        reopened.close()

    clean = _core(heap, shards)
    try:
        assert clean.resume_info["torn_wal"] == 0
    finally:
        clean.close()
