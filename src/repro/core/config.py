"""Configuration of a Lazy Persistency (LP) deployment on the GPU.

This module defines the axes of the design space that the paper
characterizes (Section IV):

* which checksum function(s) protect each LP region
  (:class:`ChecksumKind`),
* how per-thread checksums are reduced to one value per thread block
  (:class:`ReductionMode` — ``shfl_down`` parallel reduction vs. a
  sequential reduction staged through shared/global memory),
* where the per-block checksums are stored (:class:`TableKind` —
  quadratic-probing hash table, cuckoo hash table, or the paper's
  hash-table-less *global array*),
* whether table insertion uses a lock or a lock-free atomic protocol
  (:class:`LockMode`), and
* whether the insertion primitives are real atomic instructions or the
  plain load/store emulation of the paper's ablation
  (:class:`AtomicMode`).

A fully-specified point in the design space is an :class:`LPConfig`.
The paper's final recommendation — global array + shuffle reduction +
lock-free + modular and parity checksums together — is available as
:func:`LPConfig.paper_best`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Iterator

from repro.errors import ConfigError


class ChecksumKind(enum.Enum):
    """Checksum function protecting an LP region.

    The paper evaluates three candidates (Section IV-B):

    * ``MODULAR`` — store values are added modulo the word size.
    * ``PARITY``  — store values are XORed together; floating-point data
      is first converted to an *ordered integer* (Fig. 2).
    * ``ADLER32`` — the zlib checksum; rejected by the paper as too
      expensive, and additionally order-sensitive, so it cannot use the
      parallel reduction. It is kept for completeness and comparisons.
      It still batches: each block's state folds that block's stores in
      their issue order, so an Adler-32 lane runs in either engine cell.
    """

    MODULAR = "modular"
    PARITY = "parity"
    ADLER32 = "adler32"

    @property
    def commutative(self) -> bool:
        """Whether the fold is order-insensitive (reducible in parallel)."""
        return self is not ChecksumKind.ADLER32


class ReductionMode(enum.Enum):
    """How per-thread checksums are combined into a per-block checksum.

    ``PARALLEL_SHUFFLE`` models the Kepler+ ``__shfl_down_sync`` warp
    reduction followed by a shared-memory stage (Listings 3-4): ``O(log
    N)`` steps, register-to-register, no global-memory traffic.

    ``SEQUENTIAL_MEMORY`` models the pre-Kepler approach the paper uses
    as its ablation (Table IV): every thread stages its checksum through
    shared and global memory and a single thread folds them in ``O(N)``,
    which adds memory traffic proportional to the block size.
    """

    PARALLEL_SHUFFLE = "shuffle"
    SEQUENTIAL_MEMORY = "sequential"


class TableKind(enum.Enum):
    """Organization of the per-block checksum store."""

    QUADRATIC = "quadratic"
    CUCKOO = "cuckoo"
    GLOBAL_ARRAY = "global_array"

    @property
    def is_hash_table(self) -> bool:
        """True for the collision-prone hash tables of Section IV-C."""
        return self is not TableKind.GLOBAL_ARRAY


class LockMode(enum.Enum):
    """Concurrency control for checksum-table insertion (Table III)."""

    LOCK_FREE = "lock_free"
    LOCK_BASED = "lock_based"


class AtomicMode(enum.Enum):
    """Whether insertions use hardware atomics (Section IV-D-3).

    ``EMULATED`` replaces ``atomicCAS``/``atomicExch`` with plain
    load-compare-store / temporary-variable-swap sequences, reproducing
    the paper's ablation in which overheads *increase* without atomics.
    """

    HARDWARE = "hardware"
    EMULATED = "emulated"


#: Checksum pairs recommended by the paper for a < 1e-12 false-negative
#: rate (Section IV-B).
PAPER_CHECKSUM_PAIR: tuple[ChecksumKind, ChecksumKind] = (
    ChecksumKind.MODULAR,
    ChecksumKind.PARITY,
)


@dataclass(frozen=True)
class LPConfig:
    """One point in the GPU Lazy Persistency design space.

    Parameters
    ----------
    checksums:
        Checksum functions computed simultaneously over every persistent
        store in a region. Each adds a *lane* to the reduction and a
        word to every table entry.
    table:
        Checksum-store organization.
    locks:
        Lock-based vs. lock-free insertion.
    reduction:
        Parallel (shuffle) vs. sequential (through-memory) reduction.
    atomics:
        Hardware atomics vs. the plain load/store emulation ablation.
    quad_target_load_factor:
        Sizing target for the quadratic-probing table. The paper notes
        quadratic probing degrades past ~70 % occupancy.
    cuckoo_target_load_factor:
        Combined (both tables) sizing target for cuckoo hashing; the
        paper keeps it under 50 %.
    ordered_int_parity:
        Convert floating-point store values to ordered integers before
        XOR (Fig. 2). Disabled only for integer-only kernels, where the
        conversion is a no-op anyway.
    """

    checksums: tuple[ChecksumKind, ...] = PAPER_CHECKSUM_PAIR
    table: TableKind = TableKind.GLOBAL_ARRAY
    locks: LockMode = LockMode.LOCK_FREE
    reduction: ReductionMode = ReductionMode.PARALLEL_SHUFFLE
    atomics: AtomicMode = AtomicMode.HARDWARE
    quad_target_load_factor: float = 0.70
    cuckoo_target_load_factor: float = 0.45
    ordered_int_parity: bool = True

    def __post_init__(self) -> None:
        if not self.checksums:
            raise ConfigError("LPConfig requires at least one checksum kind")
        if len(set(self.checksums)) != len(self.checksums):
            raise ConfigError(f"duplicate checksum kinds: {self.checksums}")
        if self.reduction is ReductionMode.PARALLEL_SHUFFLE:
            bad = [c for c in self.checksums if not c.commutative]
            if bad:
                raise ConfigError(
                    "parallel (shuffle) reduction requires commutative "
                    f"checksums; {bad[0].value} is order-sensitive"
                )
        if not 0.0 < self.quad_target_load_factor <= 1.0:
            raise ConfigError(
                f"quad_target_load_factor out of (0, 1]: "
                f"{self.quad_target_load_factor}"
            )
        if not 0.0 < self.cuckoo_target_load_factor <= 1.0:
            raise ConfigError(
                f"cuckoo_target_load_factor out of (0, 1]: "
                f"{self.cuckoo_target_load_factor}"
            )
        if self.table is TableKind.GLOBAL_ARRAY and (
            self.locks is LockMode.LOCK_BASED
            or self.atomics is AtomicMode.EMULATED
        ):
            raise ConfigError(
                "the global array is collision- and race-free; lock-based "
                "or emulated-atomic variants of it do not exist in the "
                "design space"
            )

    @property
    def n_lanes(self) -> int:
        """Number of simultaneous checksum words per region."""
        return len(self.checksums)

    @property
    def uses_float_conversion(self) -> bool:
        """Whether parity lanes require the float→ordered-int conversion."""
        return self.ordered_int_parity and ChecksumKind.PARITY in self.checksums

    def with_(self, **changes: object) -> "LPConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)  # type: ignore[arg-type]

    # ------------------------------------------------------------------
    # Named design points used throughout the paper's evaluation.
    # ------------------------------------------------------------------

    @classmethod
    def paper_best(cls) -> "LPConfig":
        """Table V's ``array+shuffle`` scheme: the paper's final design."""
        return cls()

    @classmethod
    def naive_quadratic(cls) -> "LPConfig":
        """Figure 5's ``Quad``: quadratic probing, lock-free, shuffle."""
        return cls(table=TableKind.QUADRATIC)

    @classmethod
    def naive_cuckoo(cls) -> "LPConfig":
        """Figure 5's ``Cuckoo``: cuckoo hashing, lock-free, shuffle."""
        return cls(table=TableKind.CUCKOO)

    @classmethod
    def design_space(cls) -> Iterator["LPConfig"]:
        """Iterate every valid (table, locks, reduction, atomics) corner.

        The global array admits only its lock-free hardware-atomic form,
        matching Section V's argument that it is race-free by
        construction.
        """
        for table in TableKind:
            for reduction in ReductionMode:
                if table is TableKind.GLOBAL_ARRAY:
                    yield cls(table=table, reduction=reduction)
                    continue
                for locks in LockMode:
                    for atomics in AtomicMode:
                        yield cls(
                            table=table,
                            locks=locks,
                            reduction=reduction,
                            atomics=atomics,
                        )

    def describe(self) -> str:
        """Short human-readable label, e.g. ``quadratic+shfl+lock-free``."""
        parts = [self.table.value]
        parts.append(
            "shfl"
            if self.reduction is ReductionMode.PARALLEL_SHUFFLE
            else "noshfl"
        )
        if self.table.is_hash_table:
            parts.append(
                "lock-free" if self.locks is LockMode.LOCK_FREE else "lock"
            )
            if self.atomics is AtomicMode.EMULATED:
                parts.append("noatomic")
        return "+".join(parts)


#: The named design points, by the one spelling every front door
#: accepts: the CLI's ``--config`` / ``--configs``, a crash-harness
#: child spec, the KV service's ``ServiceConfig.config``.
LP_CONFIGS: dict[str, LPConfig] = {
    "global-array": LPConfig.paper_best(),
    "quadratic": LPConfig.naive_quadratic(),
    "cuckoo": LPConfig.naive_cuckoo(),
}


def named_lp_config(name: str) -> LPConfig:
    """The :data:`LP_CONFIGS` entry called ``name``."""
    try:
        return LP_CONFIGS[name]
    except KeyError:
        raise ConfigError(
            f"unknown LP config {name!r}; expected one of "
            + ", ".join(sorted(LP_CONFIGS))
        ) from None
