"""Batched write/search kernels for the MEGA-KV store.

Each kernel processes one request batch: one request per thread, blocks
owning disjoint, contiguous request slices — the LP region layout of
Section VII-4.

:class:`KVWriteKernel` carries a PUT or a DELETE per lane (value ``0``,
the empty-slot sentinel, deletes); the paper's separate insert and
delete batches are write kernels whose lanes are all puts or all
deletes. :class:`KVSearchKernel` reads.

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

Validation of a write replays the *semantic effect* (search the store
for the key) rather than the mutation — the application-specific
validation the paper anticipates for non-trivially-idempotent regions.

Both kernels also run as one data-parallel pass per block group
(``run_block_batch`` / ``validate_block_batch``), which is what the
paper's MEGA-KV result rests on: a request batch is *one* kernel, so
LP's per-region work is amortised over the whole block. The batched
passes scan every request's buckets on the image the group started
from, which decides hit or miss exactly as the per-request loop would
*provided the batch's keys are distinct* — no earlier request can then
store or clear another request's key. A write kernel checks that at
construction and is ``batchable`` only when it holds (a batch with a
repeated key runs per request). It also runs its puts before its
deletes, so no put can claim a slot a delete of the same launch frees;
the remaining dependence between requests, two misses wanting the same
empty slot, is resolved in request order by
:meth:`~repro.gpu.batch.BatchBlockContext.atomic_cas_claim`.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from repro.core.tables.base import mix64_array
from repro.errors import TableFullError
from repro.gpu.device import Device
from repro.gpu.kernel import BlockContext, ExecMode, Kernel, LaunchConfig
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


#: A one-element store folds into thread 0's accumulator (the scalar
#: context's default slot for ``st(buf, scalar_index, word)``).
_THREAD_0 = np.zeros(1, dtype=np.intp)


class _BatchKernel(Kernel):
    """Shared plumbing: one thread per request, contiguous block slices."""

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

    def _slice(self, ctx: BlockContext) -> range:
        lo = ctx.block_id * self.threads
        hi = min(lo + self.threads, self.n_requests)
        return range(lo, hi)

    def _find(self, ctx: BlockContext, key: np.uint64) -> int | None:
        """Scan the key's bucket; returns the slot index or ``None``."""
        slots = self.store.bucket_slots(int(key))
        bucket_keys = ctx.ld(self.store.keys, slots)
        self.store.stats.probe_slots += slots.size
        hit = np.flatnonzero(bucket_keys == key)
        if hit.size == 0:
            return None
        return int(slots[int(hit[0])])

    # -- batched execution ----------------------------------------------

    def _probe_batch(self, bctx) -> _Probe:
        """Whole-group ``_find``: every request's two buckets at once.

        The first matching slot in bucket-candidate order wins
        (coinciding candidate buckets alias, so the earliest index is
        the slot serial probing picks), read traffic counts the
        *deduplicated* probe width per request, and the ragged tail
        block is masked out. ``store.stats`` is left to the caller,
        which must not touch it before it can no longer fall back.
        """
        # A batch shorter than one block is one block whose tail
        # threads are all masked out; do not carry them.
        T = min(self.threads, self.n_requests)
        req = bctx.block_ids[:, None] * self.threads + np.arange(T)  # (B, T)
        mask = req < self.n_requests
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
        # Serial probing deduplicates coinciding candidate buckets, so
        # its per-request read charge is one bucket wide in that case.
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


class KVWriteKernel(_BatchKernel):
    """SET or DELETE per request: each lane's value is what its key
    holds afterwards, and ``0`` deletes the key (idempotent on an absent
    one). The store's two arrays are the protected output."""

    name = "megakv-write"
    idempotent = True
    #: lplint sees the atomic_cas claim and the bucket-scan read of the
    #: key array it also writes; re-execution nevertheless stores the
    #: same words on every path (module docstring), and the dynamic
    #: oracle pins that (benchmarks/oracle_verdicts.json).
    lint_suppressions = {
        "LP002": "re-execution stores identical [key, value] words on "
                 "every path; idempotence pinned by the dynamic oracle "
                 "(benchmarks/oracle_verdicts.json)",
    }

    def __init__(
        self,
        store: MegaKVStore,
        batch_keys: np.ndarray,
        batch_values: np.ndarray,
        threads_per_block: int = 64,
    ) -> None:
        super().__init__(store, batch_keys, threads_per_block)
        values = np.asarray(batch_values, dtype=np.uint64)
        if values.size != self.n_requests:
            raise TableFullError("keys and values must align")
        deletes = values == EMPTY_SLOT
        if deletes.any():
            # Lanes run puts first, stably: no put can then claim a slot
            # a delete of this launch frees, which the batched pass —
            # claiming on the group's starting image — could not see.
            order = np.argsort(deletes, kind="stable")
            self.batch_keys, values = self.batch_keys[order], values[order]
        self.batch_values = values
        self.protected_buffers = (store.keys.name, store.values.name)
        #: A property of the input, not a setting: with a repeated key
        #: an earlier request's store or clear changes what a later
        #: request's bucket scan must see, so the batch runs per
        #: request (module docstring).
        self.batchable = \
            len(set(self.batch_keys.tolist())) == self.n_requests

    def run_block(self, ctx: BlockContext) -> None:
        for i in self._slice(ctx):
            key = self.batch_keys[i]
            value = self.batch_values[i]
            slot = self._find(ctx, key)
            if value == EMPTY_SLOT:
                self.store.stats.deletes += 1
                if slot is None:
                    continue
                self.store.stats.removed += 1
                # Clearing stores fold 0 — the identity of both
                # checksum lanes, by design (see module docstring).
                key = EMPTY_SLOT
            elif slot is None:
                slot = self._claim(ctx, key)
                self.store.stats.inserts += 1
            else:
                self.store.stats.updates += 1
            # Store key AND value on every path so every execution of
            # this request folds the same [key, value] words.
            ctx.st(self.store.keys, slot, key)
            ctx.st(self.store.values, slot, value)
            ctx.flops(4 if value else 2)

    def _claim(self, ctx: BlockContext, key: np.uint64) -> int:
        slots = self.store.bucket_slots(int(key))
        for s in slots:
            old = ctx.atomic_cas(self.store.keys, int(s), EMPTY_SLOT, key)
            if old == EMPTY_SLOT or old == key:
                return int(s)
        raise TableFullError(
            f"both candidate buckets of key {int(key)} are full "
            f"(load factor {self.store.load_factor:.2f})"
        )

    def validate_block(self, ctx: BlockContext) -> None:
        """Fold what the store *now holds* at each of my keys: a lost
        put folds nothing, a lost delete folds the key — either way a
        key-lane mismatch."""
        for i in self._slice(ctx):
            slot = self._find(ctx, self.batch_keys[i])
            if slot is None:
                continue
            # VALIDATE-mode stores fold memory contents at these slots.
            ctx.st(self.store.keys, slot, EMPTY_SLOT)
            ctx.st(self.store.values, slot, EMPTY_SLOT)

    # -- batched execution ----------------------------------------------

    def run_block_batch(self, bctx) -> None:
        """``run_block`` over a whole group: scan, claim, store.

        Put hits update in place; put misses claim the first empty
        candidate slot in request order (a request neither bucket can
        take raises ``BatchFallbackError`` from the claim, before
        anything below has happened, and the group re-runs per request
        up to the ``TableFullError``); delete hits clear their slot.
        Each request's two words are stored as one record, so they
        reach memory interleaved per request as the scalar loop issues
        them.
        """
        p = self._probe_batch(bctx)
        values = self.batch_values[np.where(p.mask, p.req, 0)]
        put = p.mask & (values != EMPTY_SLOT)
        cleared = p.hit & ~put
        second = np.arange(2 * BUCKET_WIDTH) >= BUCKET_WIDTH
        claimed = bctx.atomic_cas_claim(
            self.store.keys, p.slots, EMPTY_SLOT,
            valid=(put & ~p.hit)[..., None]
            & ~(p.one_bucket[..., None] & second))

        n_puts = int(np.count_nonzero(put))
        n_updates = int(np.count_nonzero(put & p.hit))
        n_cleared = int(np.count_nonzero(cleared))
        stats = self.store.stats
        stats.probe_slots += p.probe_slots
        stats.inserts += n_puts - n_updates
        stats.updates += n_updates
        stats.deletes += int(np.count_nonzero(p.mask)) - n_puts
        stats.removed += n_cleared

        stored = put | cleared
        bctx.st_record(
            (self.store.keys, self.store.values),
            np.where(stored, np.where(p.hit, p.hit_slot, claimed), 0),
            (np.where(put, p.keys, EMPTY_SLOT), values),
            slots=_THREAD_0, mask=stored)
        bctx.alu(4.0 * self.threads * n_puts
                 + 2.0 * self.threads * n_cleared)

    def validate_block_batch(self, bctx) -> list:
        """``validate_block`` over a whole group."""
        p = self._probe_batch(bctx)
        self.store.stats.probe_slots += p.probe_slots
        # VALIDATE-mode stores fold memory contents; the words passed
        # are ignored, exactly as in the per-request path.
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
        self.protected_buffers = (results_buffer,)

    def block_output_map(self, block_id: int):
        """Search results are a static, block-disjoint slice — the
        fast Listing-7 validation path applies."""
        lo = block_id * self.threads
        hi = min(lo + self.threads, self.n_requests)
        return {self.results_buffer: np.arange(lo, hi)}

    def run_block(self, ctx: BlockContext) -> None:
        for i in self._slice(ctx):
            key = self.batch_keys[i]
            slot = self._find(ctx, key)
            self.store.stats.searches += 1
            if slot is None:
                value = EMPTY_SLOT
            else:
                value = ctx.ld(self.store.values, slot)[0]
                self.store.stats.hits += 1
            ctx.st(self.results_buffer, i, value,
                   slots=np.asarray([i % ctx.n_threads]))
            ctx.flops(2)

    batchable = True

    def run_block_batch(self, bctx) -> None:
        """``run_block`` over a whole group (read-only on the store, so
        repeated keys are fine)."""
        p = self._probe_batch(bctx)
        n_valid = int(np.count_nonzero(p.mask))
        stats = self.store.stats
        stats.probe_slots += p.probe_slots
        stats.searches += n_valid
        stats.hits += int(np.count_nonzero(p.hit))

        result = np.full(p.req.shape, EMPTY_SLOT, dtype=np.uint64)
        result[p.hit] = bctx.ld(self.store.values, p.hit_slot[p.hit])
        bctx.st(self.results_buffer, p.req, result,
                slots=np.arange(p.req.shape[1]), mask=p.mask)
        bctx.alu(2.0 * self.threads * n_valid)


def alloc_results(device: Device, name: str, n_requests: int):
    """Allocate a persistent results buffer for a search batch."""
    return device.alloc(name, (n_requests,), np.uint64, persistent=True)
