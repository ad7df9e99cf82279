"""Checksum functions protecting Lazy Persistency regions.

The paper (Section IV-B) considers three checksums over a region's
persistent store values:

* **modular** — values are summed (we sum the 64-bit *bit patterns*,
  keeping the fold exact and commutative; floating-point summation
  would be non-associative and break order-insensitive reduction);
* **parity** — values are XORed, after converting floating-point data
  to integers (Fig. 2: ``3.5`` → bits ``0x40600000`` → ``1080033280``);
* **Adler-32** — the zlib checksum, rejected by the paper as expensive;
  it is also order-*sensitive*, so it cannot use the parallel shuffle
  reduction: each region folds its stores in issue order, one
  ``(a, b)`` pair per region (sequential mode and comparisons only).

A region is protected by a :class:`ChecksumSet` — one or more functions
evaluated simultaneously; the paper recommends modular + parity, which
drives the combined false-negative rate below one in a trillion.
:class:`BatchChecksumState` holds the running checksums of a group of
regions (one region — one thread block — is a group of one).

All folds operate on ``uint64`` *lanes*. Store values of any dtype are
first normalized by :func:`to_lane_words`.
"""

from __future__ import annotations

import abc
import zlib

import numpy as np

from repro.core.config import ChecksumKind
from repro.errors import ConfigError

#: uint64 with all bits set; used as the "no checksum yet" sentinel in
#: checksum tables (the paper initializes checksums to NaN; an all-ones
#: word plays that role in the integer domain).
EMPTY_SENTINEL = np.uint64(0xFFFFFFFFFFFFFFFF)


# ---------------------------------------------------------------------------
# Value normalization (Fig. 2)
# ---------------------------------------------------------------------------

def float_bits(values: np.ndarray) -> np.ndarray:
    """Reinterpret values' raw bits as unsigned integers, widened to u64.

    This is the paper's Fig. 2 conversion: the sign, exponent and
    mantissa bits of a float are concatenated into an integer
    (``3.5`` → ``1080033280``), so corruption of *any* field is visible
    to the parity checksum.

    The result may be a *view* of ``values`` (64-bit inputs take a
    zero-copy path): callers fold it immediately and must not mutate it.
    This function sits on the store-interception hot path — every
    protected store of every block passes through it — so it allocates
    only when a width or signedness conversion forces it to.
    """
    values = np.asarray(values)
    dtype = values.dtype
    if dtype == np.uint64:
        return values
    kind = dtype.kind
    if kind == "f":
        if dtype.itemsize == 4:
            return values.view(np.uint32).astype(np.uint64)
        if dtype.itemsize == 8:
            return values.view(np.uint64)
        raise ConfigError(f"unsupported float width: {dtype}")
    if kind in "iu":
        if dtype.itemsize == 8:
            return values.view(np.uint64)
        # astype already allocates; view reinterprets in place.
        return values.astype(np.int64).view(np.uint64)
    if kind == "b":
        return values.astype(np.uint64)
    raise ConfigError(f"cannot checksum dtype {dtype}")


def float_to_ordered_int(values: np.ndarray) -> np.ndarray:
    """Total-order-preserving float→integer mapping.

    Unlike :func:`float_bits`, this transform is *monotone*: comparing
    the resulting unsigned integers orders the floats. (Positive floats
    get their sign bit set; negative floats are bitwise complemented.)
    Useful where checksummed values double as sort keys; equivalent in
    error-detection power to the raw-bits conversion.
    """
    values = np.asarray(values)
    if values.dtype.kind != "f":
        raise ConfigError("ordered-int conversion applies to floats")
    if values.dtype.itemsize == 4:
        bits = values.view(np.uint32)
        sign = np.uint32(0x80000000)
        out = np.where(bits & sign, ~bits, bits | sign)
        return out.astype(np.uint64)
    if values.dtype.itemsize == 8:
        bits = values.view(np.uint64)
        sign = np.uint64(0x8000000000000000)
        return np.where(bits & sign, ~bits, bits | sign)
    raise ConfigError(f"unsupported float width: {values.dtype}")


def to_lane_words(values: np.ndarray) -> np.ndarray:
    """Normalize store values of any supported dtype to uint64 words."""
    return float_bits(values)


# ---------------------------------------------------------------------------
# Checksum functions
# ---------------------------------------------------------------------------

class ChecksumFunction(abc.ABC):
    """One checksum lane: identity, fold, and (maybe) parallel combine."""

    kind: ChecksumKind
    #: Identity element of the fold.
    identity: np.uint64 = np.uint64(0)
    #: ALU operations charged per protected store value.
    ops_per_update: int = 1
    #: Whether the fold result depends on value order.
    order_sensitive: bool = False

    @abc.abstractmethod
    def fold_at(self, acc: np.ndarray, slots: np.ndarray, words: np.ndarray) -> None:
        """Scatter-fold ``words`` into per-thread accumulators in place."""

    @abc.abstractmethod
    def fold_all(self, words: np.ndarray, start: np.uint64 | None = None) -> np.uint64:
        """Fold a flat word array into a single checksum."""

    @abc.abstractmethod
    def combine(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Commutative combiner used by reductions (elementwise)."""

    def fold_axis(self, acc: np.ndarray, axis: int = -1) -> np.ndarray:
        """Fold an accumulator array along one axis (batched reduce).

        Only meaningful for commutative lanes; the result is bit-identical
        to running :meth:`fold_all` over each slice (the folds are exact
        integer operations, so order cannot matter).
        """
        raise ConfigError(f"{self.kind.value} has no axis fold")

    @property
    def reduce_op(self) -> str:
        """Warp-reduction op name (``"add"`` / ``"xor"``)."""
        raise ConfigError(f"{self.kind.value} has no parallel reduction")


class ModularChecksum(ChecksumFunction):
    """Sum of store-value words modulo 2**64."""

    kind = ChecksumKind.MODULAR
    ops_per_update = 1

    def fold_at(self, acc, slots, words):
        with np.errstate(over="ignore"):
            np.add.at(acc, slots, words)

    def fold_all(self, words, start=None):
        with np.errstate(over="ignore"):
            total = np.uint64(0) if start is None else np.uint64(start)
            return np.uint64(total + words.sum(dtype=np.uint64))

    def combine(self, a, b):
        with np.errstate(over="ignore"):
            return a + b

    def fold_axis(self, acc, axis=-1):
        with np.errstate(over="ignore"):
            return acc.sum(axis=axis, dtype=np.uint64)

    @property
    def reduce_op(self) -> str:
        return "add"


class ParityChecksum(ChecksumFunction):
    """XOR of store-value words (bit parity per position)."""

    kind = ChecksumKind.PARITY
    #: XOR plus the float→ordered-int conversion of each value.
    ops_per_update = 2

    def fold_at(self, acc, slots, words):
        np.bitwise_xor.at(acc, slots, words)

    def fold_all(self, words, start=None):
        total = np.uint64(0) if start is None else np.uint64(start)
        if words.size == 0:
            return total
        return np.uint64(total ^ np.bitwise_xor.reduce(words))

    def combine(self, a, b):
        return np.bitwise_xor(a, b)

    def fold_axis(self, acc, axis=-1):
        return np.bitwise_xor.reduce(acc, axis=axis)

    @property
    def reduce_op(self) -> str:
        return "xor"


class Adler32Checksum(ChecksumFunction):
    """zlib's Adler-32, folded over the little-endian bytes of words.

    Order-sensitive: the per-thread scatter-fold and parallel reduction
    are unavailable (matching why the paper drops it on GPUs). A region
    folds its values in issue order — :meth:`fold_all` over a flat
    array, :meth:`fold_rows` over one row per region.
    """

    kind = ChecksumKind.ADLER32
    identity = np.uint64(1)
    ops_per_update = 8
    order_sensitive = True

    def fold_at(self, acc, slots, words):
        raise ConfigError("Adler-32 is order-sensitive; no per-thread fold")

    def fold_all(self, words, start=None):
        state = 1 if start is None else int(start)
        data = np.ascontiguousarray(words, dtype="<u8").tobytes()
        return np.uint64(zlib.adler32(data, state))

    def fold_rows(self, states: np.ndarray, words: np.ndarray,
                  keep: np.ndarray | None = None) -> np.ndarray:
        """Fold each row of ``words`` into that row's Adler state.

        ``words`` is ``(rows, n)``; ``keep`` (same shape) drops
        elements. Row ``r``'s kept words fold as :meth:`fold_all` would
        from ``states[r]``, in closed form: over bytes ``B_1 … B_n``,
        ``a' = a + ΣB`` and ``b' = b + n·a + Σ (n − k + 1)·B_k``, both
        mod 65 521 — each kept byte weighted by its rank among the
        row's kept bytes.
        """
        data = np.ascontiguousarray(words, dtype="<u8").view(np.uint8) \
            .reshape(words.shape[0], -1).astype(np.int64)
        if keep is None:
            n = data.shape[1]
            weight = np.arange(n, 0, -1, dtype=np.int64) % _ADLER_MOD
        else:
            kept = np.repeat(keep, 8, axis=1)
            rank = np.cumsum(kept, axis=1)
            n = np.count_nonzero(kept, axis=1)
            data = np.where(kept, data, 0)
            weight = (n[:, None] - rank + 1) % _ADLER_MOD
        states = states.astype(np.int64)
        a, b = states & 0xFFFF, states >> 16
        new_a = (a + data.sum(axis=1)) % _ADLER_MOD
        new_b = (b + n % _ADLER_MOD * a
                 + (data * weight).sum(axis=1)) % _ADLER_MOD
        return (new_b << 16 | new_a).astype(np.uint64)

    def combine(self, a, b):
        raise ConfigError("Adler-32 cannot be combined commutatively")


#: Adler-32's modulus: the largest prime below 2**16.
_ADLER_MOD = 65521


_FUNCTIONS: dict[ChecksumKind, type[ChecksumFunction]] = {
    ChecksumKind.MODULAR: ModularChecksum,
    ChecksumKind.PARITY: ParityChecksum,
    ChecksumKind.ADLER32: Adler32Checksum,
}


def make_function(kind: ChecksumKind) -> ChecksumFunction:
    """Instantiate the checksum function for a kind."""
    return _FUNCTIONS[kind]()


# ---------------------------------------------------------------------------
# Checksum sets and region state
# ---------------------------------------------------------------------------

class ChecksumSet:
    """The checksum lanes protecting each LP region."""

    def __init__(self, kinds: tuple[ChecksumKind, ...]) -> None:
        if not kinds:
            raise ConfigError("a ChecksumSet needs at least one kind")
        self.kinds = tuple(kinds)
        self.functions = tuple(make_function(k) for k in kinds)
        self.n_lanes = len(self.functions)

    @property
    def commutative(self) -> bool:
        """Whether every lane supports order-insensitive reduction."""
        return all(not f.order_sensitive for f in self.functions)

    @property
    def ops_per_update(self) -> int:
        """ALU ops charged per protected store value (all lanes)."""
        return sum(f.ops_per_update for f in self.functions)

    def checksum_of(self, values: np.ndarray) -> np.ndarray:
        """Reference fold: lane values for a flat value array."""
        words = to_lane_words(np.asarray(values).reshape(-1))
        return np.array(
            [f.fold_all(words) for f in self.functions], dtype=np.uint64
        )

    def false_negative_bound(self) -> float:
        """Upper bound on the probability a corruption goes undetected.

        Modeled as independent uniform collisions per 64-bit lane
        (``2**-64`` each); the paper's corresponding 32-bit figures are
        ~``2e-9`` per checksum and ``1e-12`` combined.
        """
        return float(2.0 ** (-64 * self.n_lanes))


class BatchChecksumState:
    """Running checksums of a *group* of LP regions (thread blocks).

    A leading axis indexes the region within the group (one block is a
    group of one), so a batched store folds with one scatter per lane.
    Commutative lanes keep per-thread accumulators (:attr:`per_thread`,
    Listing 2) for the block reduction; as exact integer folds (``+`` /
    ``^``), their values do not depend on how stores are grouped.
    Order-sensitive lanes (Adler-32) keep one state per region
    (:attr:`seq_states`) and fold each block row in its store order.
    """

    def __init__(self, cset: ChecksumSet, n_threads: int,
                 n_blocks: int = 1) -> None:
        self.cset = cset
        self.n_threads = n_threads
        self.n_blocks = n_blocks
        funcs = cset.functions
        #: Lane indices (into the ChecksumSet) with commutative folds.
        self.comm_lane_positions = [
            i for i, f in enumerate(funcs) if not f.order_sensitive]
        #: Lane indices with order-sensitive folds.
        self.seq_lane_positions = [
            i for i, f in enumerate(funcs) if f.order_sensitive]
        #: ``(n_blocks, n_threads, n_commutative_lanes)`` accumulators.
        self.per_thread = np.zeros(
            (n_blocks, n_threads, len(self.comm_lane_positions)),
            dtype=np.uint64)
        # Flat (block*thread, lane) view: a batched update is one
        # scatter with block-offset slots per lane.
        self._flat = self.per_thread.reshape(n_blocks * n_threads, -1)
        #: ``(n_blocks, n_order_sensitive_lanes)`` running states.
        self.seq_states = np.tile(np.array(
            [funcs[i].identity for i in self.seq_lane_positions],
            dtype=np.uint64), (n_blocks, 1))
        #: Store values folded so far across the whole group.
        self.n_values = 0

    def update(
        self,
        values: np.ndarray,
        slots: np.ndarray,
        mask: np.ndarray | None = None,
    ) -> None:
        """Fold a batched store into the group's accumulators.

        ``values`` is shaped ``(n_blocks, ...)``, each row in store
        order; ``slots`` broadcasts against it and names each element's
        issuing thread (Listing 2); ``mask`` silences ragged elements.
        """
        values = np.asarray(values)
        if values.shape[0] != self.n_blocks:
            raise ConfigError(
                f"batched values lead with {values.shape[0]} blocks, "
                f"state holds {self.n_blocks}"
            )
        words = to_lane_words(values)
        try:
            slots = np.broadcast_to(np.asarray(slots), words.shape)
        except ValueError:
            raise ConfigError("values and slots must align") from None
        if mask is not None:
            mask = np.asarray(mask, dtype=bool)
            if mask.shape != words.shape:
                mask = np.broadcast_to(mask, words.shape)
        if self.seq_lane_positions:
            rows = words.reshape(self.n_blocks, -1)
            keep = None if mask is None else mask.reshape(self.n_blocks, -1)
            for lane, pos in enumerate(self.seq_lane_positions):
                self.seq_states[:, lane] = self.cset.functions[pos] \
                    .fold_rows(self.seq_states[:, lane], rows, keep)
        block_base = np.arange(self.n_blocks, dtype=np.intp) * self.n_threads
        flat_slots = block_base.reshape(
            (self.n_blocks,) + (1,) * (words.ndim - 1)
        ) + slots
        if mask is not None:
            words = words[mask]
            flat_slots = flat_slots[mask]
        else:
            words = words.reshape(-1)
            flat_slots = flat_slots.reshape(-1)
        for lane, pos in enumerate(self.comm_lane_positions):
            self.cset.functions[pos].fold_at(
                self._flat[:, lane], flat_slots, words)
        self.n_values += words.size

    def reduce_lanes(self) -> np.ndarray:
        """Final per-block lane values, shape ``(n_blocks, n_lanes)``.

        Bit-identical to :func:`~repro.core.reduction.reduce_block` on
        each block alone (exact commutative folds; the order-sensitive
        states are already final).
        """
        out = np.empty((self.n_blocks, self.cset.n_lanes), dtype=np.uint64)
        for lane, pos in enumerate(self.comm_lane_positions):
            out[:, pos] = self.cset.functions[pos].fold_axis(
                self.per_thread[:, :, lane], axis=1)
        out[:, self.seq_lane_positions] = self.seq_states
        return out
