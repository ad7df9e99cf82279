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
  reduction and is provided for sequential mode and comparisons only.

A region is protected by a :class:`ChecksumSet` — one or more functions
evaluated simultaneously; the paper recommends modular + parity, which
drives the combined false-negative rate below one in a trillion.

All folds operate on ``uint64`` *lanes*. Store values of any dtype are
first normalized by :func:`to_lane_words`.
"""

from __future__ import annotations

import abc
import zlib
from dataclasses import dataclass

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
    are unavailable (matching why the paper drops it on GPUs). Use
    :meth:`fold_all` over a deterministic value order.
    """

    kind = ChecksumKind.ADLER32
    ops_per_update = 8
    order_sensitive = True

    def fold_at(self, acc, slots, words):
        raise ConfigError("Adler-32 is order-sensitive; no per-thread fold")

    def fold_all(self, words, start=None):
        state = 1 if start is None else int(start)
        data = np.ascontiguousarray(words, dtype="<u8").tobytes()
        return np.uint64(zlib.adler32(data, state))

    def combine(self, a, b):
        raise ConfigError("Adler-32 cannot be combined commutatively")


_FUNCTIONS: dict[ChecksumKind, type[ChecksumFunction]] = {
    ChecksumKind.MODULAR: ModularChecksum,
    ChecksumKind.PARITY: ParityChecksum,
    ChecksumKind.ADLER32: Adler32Checksum,
}


def make_function(kind: ChecksumKind) -> ChecksumFunction:
    """Instantiate the checksum function for a kind."""
    return _FUNCTIONS[kind]()


# ---------------------------------------------------------------------------
# Checksum sets and per-block state
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

    def new_block_state(self, n_threads: int) -> "BlockChecksumState":
        """Fresh accumulators for one LP region (one thread block)."""
        return BlockChecksumState(self, n_threads)

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


@dataclass
class BlockChecksumState:
    """Per-thread checksum accumulators for one LP region."""

    cset: ChecksumSet
    n_threads: int

    def __post_init__(self) -> None:
        commutative = [
            i for i, f in enumerate(self.cset.functions) if not f.order_sensitive
        ]
        self._comm_lane_pos = commutative
        self.per_thread = np.zeros(
            (self.n_threads, len(commutative)), dtype=np.uint64
        )
        # Order-sensitive lanes fold sequentially in store-issue order.
        self._seq_states: dict[int, np.uint64] = {
            i: np.uint64(1) if isinstance(f, Adler32Checksum) else f.identity
            for i, f in enumerate(self.cset.functions)
            if f.order_sensitive
        }
        #: Number of store values folded so far.
        self.n_values = 0

    @property
    def comm_lane_positions(self) -> list[int]:
        """Lane indices (into the ChecksumSet) with commutative folds."""
        return self._comm_lane_pos

    @property
    def seq_lane_states(self) -> dict[int, np.uint64]:
        """Current states of the order-sensitive lanes, by lane index."""
        return self._seq_states

    def update(self, values: np.ndarray, slots: np.ndarray) -> None:
        """Fold store values into the accumulators.

        ``slots`` assigns each value to the thread that issued it, which
        keeps the per-thread accumulators faithful to the GPU execution
        (each thread updates only its own registers, Listing 2).
        """
        words = to_lane_words(np.asarray(values).reshape(-1))
        slots = np.asarray(slots).reshape(-1)
        if words.shape != slots.shape:
            raise ConfigError("values and slots must align")
        for lane, pos in enumerate(self._comm_lane_pos):
            self.cset.functions[pos].fold_at(
                self.per_thread[:, lane], slots, words
            )
        for pos, state in self._seq_states.items():
            self._seq_states[pos] = self.cset.functions[pos].fold_all(
                words, start=state
            )
        self.n_values += words.size

    def lane_values_reference(self) -> np.ndarray:
        """Final lane values via a direct (non-reduction) fold.

        The reduction module must produce exactly these values; tests
        compare the two paths.
        """
        out = np.empty(self.cset.n_lanes, dtype=np.uint64)
        for lane, pos in enumerate(self._comm_lane_pos):
            out[pos] = self.cset.functions[pos].fold_all(
                self.per_thread[:, lane]
            )
        for pos, state in self._seq_states.items():
            out[pos] = state
        return out


class BatchChecksumState:
    """Per-thread accumulators for a *group* of LP regions at once.

    The vectorized counterpart of :class:`BlockChecksumState`: one extra
    leading axis indexes the thread block within the group, so a batched
    store covering many blocks folds with a single scatter per lane
    instead of one Python call per block. Because every commutative lane
    is an exact integer fold (modular ``+`` / ``^``), the resulting lane
    values are bit-identical to folding each block separately — which is
    what lets the batched launch engine share checksum semantics with
    the serial one.

    Order-sensitive lanes (Adler-32) cannot batch; constructing a batch
    state over a non-commutative :class:`ChecksumSet` is an error.
    """

    def __init__(self, cset: ChecksumSet, n_threads: int, n_blocks: int) -> None:
        if not cset.commutative:
            raise ConfigError(
                "batched checksum state requires commutative lanes only"
            )
        self.cset = cset
        self.n_threads = n_threads
        self.n_blocks = n_blocks
        # Flat (block*thread, lane) layout so a batched update is one
        # scatter with block-offset slots per lane.
        self._flat = np.zeros((n_blocks * n_threads, cset.n_lanes),
                              dtype=np.uint64)
        #: Store values folded so far across the whole group.
        self.n_values = 0

    def update(
        self,
        values: np.ndarray,
        slots: np.ndarray,
        mask: np.ndarray | None = None,
    ) -> None:
        """Fold a batched store into the group's accumulators.

        ``values`` is shaped ``(n_blocks, ...)`` (leading axis = block
        within the group); ``slots`` broadcasts against it and assigns
        each element to its issuing thread. ``mask`` (same shape)
        silences elements of partially-filled blocks.
        """
        values = np.asarray(values)
        if values.shape[0] != self.n_blocks:
            raise ConfigError(
                f"batched values lead with {values.shape[0]} blocks, "
                f"state holds {self.n_blocks}"
            )
        words = to_lane_words(values)
        slots = np.broadcast_to(np.asarray(slots), words.shape)
        block_base = np.arange(self.n_blocks, dtype=np.intp) * self.n_threads
        flat_slots = block_base.reshape(
            (self.n_blocks,) + (1,) * (words.ndim - 1)
        ) + slots
        if mask is not None:
            mask = np.asarray(mask, dtype=bool)
            if mask.shape != words.shape:
                mask = np.broadcast_to(mask, words.shape)
            words = words[mask]
            flat_slots = flat_slots[mask]
        else:
            words = words.reshape(-1)
            flat_slots = flat_slots.reshape(-1)
        for lane, func in enumerate(self.cset.functions):
            func.fold_at(self._flat[:, lane], flat_slots, words)
        self.n_values += words.size

    def reduce_lanes(self) -> np.ndarray:
        """Final per-block lane values, shape ``(n_blocks, n_lanes)``.

        Bit-identical to running the serial block reduction on each
        block's :class:`BlockChecksumState` (exact commutative folds).
        """
        acc = self._flat.reshape(self.n_blocks, self.n_threads,
                                 self.cset.n_lanes)
        out = np.empty((self.n_blocks, self.cset.n_lanes), dtype=np.uint64)
        for lane, func in enumerate(self.cset.functions):
            out[:, lane] = func.fold_axis(acc[:, :, lane], axis=1)
        return out
