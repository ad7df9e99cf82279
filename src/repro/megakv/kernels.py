"""Batched write/search kernels for the MEGA-KV store.

Each kernel processes one request batch: one request per thread, blocks
owning disjoint, contiguous request slices — the LP region layout of
Section VII-4.

:class:`KVWriteKernel` carries a PUT or a DELETE per lane (value ``0``,
the empty-slot sentinel, deletes); the paper's separate insert and
delete batches are write kernels whose lanes are all puts or all
deletes. A write lane may also read (a service window's GETs), and a
lane past the writing ones only reads. :class:`KVSearchKernel` reads.

Checksum protocol (shared with :mod:`repro.megakv.lp`): every kernel
folds, per request, exactly the words that must be durable for the
request to have "happened":

* **put** — folds ``[key, value]`` by (re-)storing both the key and
  the value at the chosen slot. The key is stored even on the update
  path, so original execution, recovery re-execution and validation all
  fold the same words.
* **delete** — clears the slot by storing ``0``; ``0`` is the identity
  of both checksum lanes, so "the key is gone" folds identically
  whether the slot was cleared in this run (store of 0), had already
  been cleared (no fold), or is validated after persisting (key
  absent ⇒ nothing folded).
* **search** — read-only over the store; the per-request results buffer
  is the protected output, making it an ordinary idempotent LP region.
* **read lane** of a write — loads its key's value (``0`` on a miss)
  into a *volatile* results buffer, before the lane's own store. That
  buffer is not protected, so a read folds nothing: a read-only lane
  folds nothing at all, in any execution, and validation skips it.

Validation of a write replays the *semantic effect* (search the store
for the key) rather than the mutation — the application-specific
validation the paper anticipates for non-trivially-idempotent regions.

Each kernel has one body, ``run_block_batch`` (a write also one
validation body, ``validate_block_batch``): one data-parallel pass per
block group, which is what the paper's MEGA-KV result rests on — a
request batch is *one* kernel, so LP's per-region work is amortised
over the whole block. ``serial`` runs the same body one block at a
time, as immediate rows (:mod:`repro.gpu.batch`). The
pass scans every request's buckets on the image the group started
from, which decides hit or miss exactly as a per-request loop would
*because the batch's keys are distinct*: no earlier request can store
or clear another request's key. A write kernel refuses a repeated key
when it is built (:class:`~repro.errors.LaunchError`, before any
effect), so a caller coalesces first, as the service does. A write
also runs its puts before its deletes, so no put can claim a slot a
delete of the same launch frees; two misses wanting the same empty
slot are resolved in request order by ``atomic_cas_claim``. A put
neither candidate bucket can take raises
:class:`~repro.errors.TableFullError` at block granularity: the blocks
before its block land, its block does not, on either engine.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from repro.core.tables.base import mix64_array
from repro.errors import LaunchError, TableFullError
from repro.gpu.device import Device
from repro.gpu.kernel import Kernel, LaunchConfig
from repro.megakv.store import BUCKET_WIDTH, EMPTY_SLOT, MegaKVStore

#: Seed perturbation selecting a key's second candidate bucket (must
#: match :meth:`~repro.megakv.store.MegaKVStore.bucket_of`).
_SECOND_CHOICE = 0x9E3779B97F4A7C15


class _Probe(NamedTuple):
    """One block group's bucket scan (leading axes = block, thread)."""

    req: np.ndarray         #: request index of each thread
    mask: np.ndarray        #: False on the ragged tail
    keys: np.ndarray
    slots: np.ndarray       #: (B, T, 2W) candidate slots, probe order
    one_bucket: np.ndarray  #: both candidate buckets coincide
    hit: np.ndarray
    hit_slot: np.ndarray    #: first matching slot (where ``hit``)
    probe_slots: int        #: slots the per-request scans read in total


#: A request's record folds into thread 0's accumulator, as a
#: one-element ``st(buf, index, word)`` does by default.
_THREAD_0 = np.zeros(1, dtype=np.intp)


class _BatchKernel(Kernel):
    """Shared plumbing: one thread per request, contiguous block slices."""

    batchable = True
    #: Where a reading lane stores its answer (``None``: nothing reads).
    results_buffer: str | None = None
    #: Lanes that answer a GET (the span attribute ``reads``).
    n_reads = 0

    def __init__(
        self,
        store: MegaKVStore,
        batch_keys: np.ndarray,
        threads_per_block: int = 64,
    ) -> None:
        self.store = store
        self.batch_keys = np.asarray(batch_keys, dtype=np.uint64)
        if np.any(self.batch_keys == EMPTY_SLOT):
            raise TableFullError("batch keys must be non-zero")
        self.threads = threads_per_block
        self.n_requests = self.batch_keys.size

    def launch_config(self) -> LaunchConfig:
        n_blocks = max(1, math.ceil(self.n_requests / self.threads))
        return LaunchConfig.linear(n_blocks, self.threads)

    def _probe_batch(self, bctx, end: int | None = None) -> _Probe:
        """Scan every request's two candidate buckets at once.

        The first matching slot in bucket-candidate order wins
        (coinciding candidate buckets alias, so the earliest index is
        the slot a per-request probe picks), read traffic counts the
        *deduplicated* probe width per request, and the ragged tail
        block — and every lane from ``end`` on — is masked out.
        ``store.stats`` is left to the caller, which must not touch it
        before it can no longer fall back.
        """
        # A batch shorter than one block is one block whose tail
        # threads are all masked out; do not carry them.
        T = min(self.threads, self.n_requests)
        req = bctx.block_ids[:, None] * self.threads + np.arange(T)  # (B, T)
        mask = req < (self.n_requests if end is None else end)
        keys = self.batch_keys[np.where(mask, req, 0)]          # (B, T)

        # Both candidate buckets in one hash pass: mix64 adds its seed
        # to the key first, so pre-adding each seed (mod 2**64) and
        # hashing with seed 0 is the same function.
        seeds = np.array([self.store.seed,
                          self.store.seed ^ _SECOND_CHOICE], dtype=np.uint64)
        buckets = (mix64_array(keys[..., None] + seeds, 0)
                   % np.uint64(self.store.n_buckets)).astype(np.int64)
        slots = (buckets[..., None] * BUCKET_WIDTH
                 + np.arange(BUCKET_WIDTH)).reshape(req.shape + (-1,))
        # A probe reads coinciding candidate buckets once, so its
        # per-request read charge is one bucket wide in that case.
        one_bucket = buckets[..., 0] == buckets[..., 1]
        probe_width = np.where(one_bucket, BUCKET_WIDTH, 2 * BUCKET_WIDTH)
        probe_slots = int(probe_width[mask].sum())

        bucket_keys = bctx.ld(self.store.keys, slots,
                              charge_elements=probe_slots)
        match = bucket_keys == keys[..., None]
        hit = match.any(axis=-1) & mask
        hit_slot = slots.reshape(-1, slots.shape[-1])[
            np.arange(req.size), match.argmax(axis=-1).reshape(-1)
        ].reshape(req.shape)
        return _Probe(req, mask, keys, slots, one_bucket, hit, hit_slot,
                      probe_slots)

    def _answer_batch(self, bctx, p: _Probe, read: np.ndarray,
                      at: np.ndarray) -> None:
        """Answer the ``read`` lanes of ``p``: each key's value (``0``
        on a miss) into ``results_buffer`` at ``at``."""
        n_read = int(np.count_nonzero(read))
        found = p.hit & read
        stats = self.store.stats
        stats.searches += n_read
        stats.hits += int(np.count_nonzero(found))
        result = np.full(p.req.shape, EMPTY_SLOT, dtype=np.uint64)
        result[found] = bctx.ld(self.store.values, p.hit_slot[found])
        bctx.st(self.results_buffer, at, result,
                slots=np.arange(p.req.shape[1]), mask=read)
        bctx.alu(2.0 * self.threads * n_read)


class KVWriteKernel(_BatchKernel):
    """SET or DELETE per request: each lane's value is what its key
    holds afterwards, and ``0`` deletes the key (idempotent on an absent
    one). The store's two arrays are the protected output.

    ``values`` covers the writing lanes; the lanes after them only
    read. A lane marked in ``reads`` stores its key's value as the
    launch found it into ``results_buffer`` at the lane's position in
    ``batch_keys`` (module docstring: read lane).
    """

    name = "megakv-write"
    idempotent = True
    #: lplint sees the atomic_cas_claim, the bucket-scan read of the key
    #: array it also writes and, from the read lanes, a load of the value
    #: array and a store to a results buffer it cannot resolve. The
    #: suppression says why none of them breaks re-execution (module
    #: docstring); the dynamic oracle pins it
    #: (benchmarks/oracle_verdicts.json).
    lint_suppressions = {
        "LP002": "re-execution stores identical [key, value] words on "
                 "every path; a read lane loads its own key's value "
                 "before its own store, on a key unique per launch, into "
                 "the volatile results buffer outside the checksum; "
                 "idempotence pinned by the dynamic oracle "
                 "(benchmarks/oracle_verdicts.json)",
    }

    def __init__(
        self,
        store: MegaKVStore,
        batch_keys: np.ndarray,
        batch_values: np.ndarray,
        threads_per_block: int = 64,
        reads: np.ndarray | None = None,
        results_buffer: str | None = None,
    ) -> None:
        super().__init__(store, batch_keys, threads_per_block)
        if np.unique(self.batch_keys).size != self.n_requests:
            # An earlier lane's store or clear would change what a later
            # lane of the same key must see (module docstring).
            raise LaunchError(
                f"{self.name} batch repeats a key; coalesce it to one "
                "lane per key first")
        values = np.asarray(batch_values, dtype=np.uint64)
        reads = (np.zeros(self.n_requests, bool) if reads is None
                 else np.asarray(reads, dtype=bool))
        #: Lanes ``[0, n_writes)`` write; the rest only read.
        self.n_writes = values.size
        if (reads.size != self.n_requests or values.size > self.n_requests
                or not reads[values.size:].all()):
            raise TableFullError("keys and values must align")
        self.n_reads = int(np.count_nonzero(reads))
        if self.n_reads and results_buffer is None:
            raise TableFullError("a reading lane needs a results buffer")
        #: Where lane ``i`` answers: its position in ``batch_keys``.
        self.answer_at = np.arange(self.n_requests)
        deletes = values == EMPTY_SLOT
        if deletes.any():
            # Lanes run puts first, stably: no put can then claim a slot
            # a delete of this launch frees, which the batched pass —
            # claiming on the group's starting image — could not see.
            order = self.answer_at.copy()
            order[:values.size] = np.argsort(deletes, kind="stable")
            values = values[order[:values.size]]
            self.batch_keys, reads = self.batch_keys[order], reads[order]
            self.answer_at = order
        # A read-only lane's value is a placeholder it never stores.
        self.batch_values = np.zeros(self.n_requests, np.uint64)
        self.batch_values[:values.size] = values
        self.reads = reads
        self.results_buffer = results_buffer
        self.protected_buffers = (store.keys.name, store.values.name)

    def run_block_batch(self, bctx) -> None:
        """Scan, claim, store — every lane of the group in one pass.

        Put hits update in place; put misses claim the first empty
        candidate slot in request order; delete hits clear their slot.
        A put neither bucket can take stops the block before anything
        below has happened (module docstring). Every path stores the
        lane's key *and* value, so every execution of a request folds
        the same ``[key, value]`` words; they are stored as one record,
        so they reach memory interleaved per request.
        """
        p = self._probe_batch(bctx)
        lanes = np.where(p.mask, p.req, 0)
        values = self.batch_values[lanes]
        writes = p.mask & (lanes < self.n_writes)
        put = writes & (values != EMPTY_SLOT)
        cleared = p.hit & writes & ~put
        second = np.arange(2 * BUCKET_WIDTH) >= BUCKET_WIDTH
        claimed = bctx.atomic_cas_claim(
            self.store.keys, p.slots, EMPTY_SLOT,
            valid=(put & ~p.hit)[..., None]
            & ~(p.one_bucket[..., None] & second))
        full = put & ~p.hit & (claimed < 0)
        if full.any():
            raise TableFullError(
                f"both candidate buckets of key {int(p.keys[full][0])} "
                f"are full (load factor {self.store.load_factor:.2f})")

        n_puts = int(np.count_nonzero(put))
        n_updates = int(np.count_nonzero(put & p.hit))
        n_cleared = int(np.count_nonzero(cleared))
        stats = self.store.stats
        stats.probe_slots += p.probe_slots
        stats.inserts += n_puts - n_updates
        stats.updates += n_updates
        stats.deletes += int(np.count_nonzero(writes)) - n_puts
        stats.removed += n_cleared
        if self.n_reads:
            self._answer_batch(bctx, p, p.mask & self.reads[lanes],
                               self.answer_at[lanes])

        stored = put | cleared
        bctx.st_record(
            (self.store.keys, self.store.values),
            np.where(stored, np.where(p.hit, p.hit_slot, claimed), 0),
            (np.where(put, p.keys, EMPTY_SLOT), values),
            slots=_THREAD_0, mask=stored)
        bctx.alu(4.0 * self.threads * n_puts
                 + 2.0 * self.threads * n_cleared)

    def validate_block_batch(self, bctx) -> list:
        """Fold what the store *now holds* at each key the group writes:
        a lost put folds nothing, a lost delete folds the key — either
        way a key-lane mismatch. A read-only lane folded nothing, so it
        is not replayed."""
        p = self._probe_batch(bctx, self.n_writes)
        self.store.stats.probe_slots += p.probe_slots
        # VALIDATE-mode stores fold memory contents; the words passed
        # are ignored.
        bctx.st_record(
            (self.store.keys, self.store.values),
            np.where(p.hit, p.hit_slot, 0), (EMPTY_SLOT, EMPTY_SLOT),
            slots=_THREAD_0, mask=p.hit)
        return [None] * bctx.n_blocks_in_batch


class KVInsertKernel(KVWriteKernel):
    """SET: insert or update each (key, value) request — a write whose
    lanes are all puts."""

    name = "megakv-insert"

    def __init__(
        self,
        store: MegaKVStore,
        batch_keys: np.ndarray,
        batch_values: np.ndarray,
        threads_per_block: int = 64,
    ) -> None:
        if np.any(np.asarray(batch_values, dtype=np.uint64) == EMPTY_SLOT):
            raise TableFullError("batch values must be non-zero")
        super().__init__(store, batch_keys, batch_values, threads_per_block)


class KVDeleteKernel(KVWriteKernel):
    """DELETE: remove each requested key (idempotent on absent keys) —
    a write whose lanes are all deletes."""

    name = "megakv-delete"

    def __init__(
        self,
        store: MegaKVStore,
        batch_keys: np.ndarray,
        threads_per_block: int = 64,
    ) -> None:
        keys = np.asarray(batch_keys, dtype=np.uint64)
        super().__init__(store, keys, np.zeros(keys.size, np.uint64),
                         threads_per_block)


class KVSearchKernel(_BatchKernel):
    """GET: look up each key, writing values to a results buffer.

    Misses write ``0`` (never a legal value). The results buffer is a
    block-disjoint protected output, so this is a plain idempotent LP
    region needing no custom validation.
    """

    name = "megakv-search"
    idempotent = True

    def __init__(
        self,
        store: MegaKVStore,
        batch_keys: np.ndarray,
        results_buffer: str,
        threads_per_block: int = 64,
    ) -> None:
        super().__init__(store, batch_keys, threads_per_block)
        self.results_buffer = results_buffer
        self.n_reads = self.n_requests
        self.protected_buffers = (results_buffer,)

    def block_output_map(self, block_id: int):
        """Search results are a static, block-disjoint slice — the
        fast Listing-7 validation path applies."""
        lo = block_id * self.threads
        hi = min(lo + self.threads, self.n_requests)
        return {self.results_buffer: np.arange(lo, hi)}

    def run_block_batch(self, bctx) -> None:
        """Answer every lane of the group (read-only on the store, so
        repeated keys are fine)."""
        p = self._probe_batch(bctx)
        self.store.stats.probe_slots += p.probe_slots
        self._answer_batch(bctx, p, p.mask, p.req)


def alloc_results(device: Device, name: str, n_requests: int):
    """Allocate a persistent results buffer for a search batch."""
    return device.alloc(name, (n_requests,), np.uint64, persistent=True)
