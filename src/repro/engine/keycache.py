"""Process-wide key-kernel cache and the shared key kernels.

Joins and group-bys repeatedly factorize the same key arrays: every
execution of Q3 re-factorizes ``orders.o_orderkey``, every probe of the
same build side rebuilds the same join index. For immutable tables (the
engine's :class:`~repro.engine.table.Table` is immutable, and unfiltered
scans return the table-owned arrays zero-copy) that work is a pure
function of the backing array's identity, so ``(table id, column set,
version)`` collapses to "the same ndarray object" — which this cache
keys on directly. Holding a strong reference to the keyed array
guarantees its ``id()`` cannot be recycled while the entry lives, making
identity checks sound.

The cache is process-wide and thread-safe (morsel workers share it), and
bounded both by entry count and by total cached bytes so transient
per-query arrays cannot pin unbounded memory. Eviction is FIFO — the
stable table-owned arrays that benefit re-enter on the next execution.

Also hosted here, shared by join, aggregate, distinct and spill
partitioning:

* :func:`factorize` — ``np.unique(values, return_inverse=True)``. When
  the values are integers whose domain ``max - min + 1`` (computed in
  Python ints, so int64-extreme spans cannot overflow) is at most the
  row count, it runs the *dense* kernel instead: a ``bincount`` presence
  mask plus a ``cumsum`` rank, O(rows + domain) with no sort. Both
  kernels return the same uniques and codes, bit for bit.
* :func:`stable_order` — ``argsort(kind="stable")`` of small
  non-negative offsets as LSD radix passes over 16-bit digits (numpy's
  stable sort of 16-bit integers is a linear radix sort). Same
  permutation, about 3x faster than a comparison sort on 600k keys.
* :func:`combine_codes`, the overflow-safe mixed-radix code combiner.
  The naive ``combined * card + codes`` scheme silently wraps int64 once
  the product of key cardinalities reaches 2**63; this version detects
  that in exact Python integers and falls back to lexicographic
  factorization, which orders groups identically (mixed-radix mixing of
  per-column ranks *is* the lexicographic order) at the cost of one
  ``lexsort``.

Dense-kernel dispatch is counted in the ``engine.dense.join`` and
``engine.dense.group`` hit/miss metrics (a hit is a dense kernel, a miss
the sorted fallback).
"""

from __future__ import annotations

import threading

import numpy as np

from repro.obs.metrics import HitMissStats

__all__ = [
    "HASH_ENTRY_BYTES",
    "KeyCache",
    "combine_codes",
    "dense_factorized",
    "dense_group_stats",
    "dense_join_stats",
    "factorize",
    "first_rows",
    "in_domain_offsets",
    "int_bounds",
    "key_cache",
    "offsets_from",
    "stable_order",
]

_INT64_LIMIT = 2**63

# Bytes of hash-table state (key + bucket pointer) per join build row:
# the join operator's resident working-set charge, which the memory
# budget prices and the dense join index must fit inside.
HASH_ENTRY_BYTES = 16

dense_join_stats = HitMissStats("engine.dense.join")
dense_group_stats = HitMissStats("engine.dense.group")


# ----------------------------------------------------------------------
# Dense-domain kernels
# ----------------------------------------------------------------------


def int_bounds(values: np.ndarray) -> "tuple[int, int] | None":
    """``(min, max)`` as Python ints for a non-empty integer array, else
    ``None`` (floats, bools and empty arrays have no dense domain)."""
    if values.dtype.kind not in "iu" or len(values) == 0:
        return None
    return int(values.min()), int(values.max())


def offsets_from(values: np.ndarray, lo: int) -> np.ndarray:
    """``values - lo`` as uint64, computed modulo 2**64.

    Narrow integers widen to int64 first (exact), so an entry is below
    ``span`` exactly when its value lies in ``[lo, lo + span)`` — values
    outside the domain wrap to huge offsets instead of overflowing. The
    caller guarantees ``lo`` fits the widened dtype (uint64 for uint64
    input, int64 otherwise).
    """
    if values.dtype != np.uint64:
        values = values.astype(np.int64, copy=False)
    return (values - values.dtype.type(lo)).view(np.uint64)


def in_domain_offsets(values: np.ndarray, lo: int) -> np.ndarray:
    """``values - lo`` for values known to lie in a domain starting at
    ``lo``, as an index-safe integer array — the input itself (no copy)
    when ``lo`` is 0, as it is for dictionary codes."""
    if lo == 0 and values.dtype != np.uint64:
        return values
    return offsets_from(values, lo).view(np.int64)


def _values_at(offsets: np.ndarray, lo: int, dtype: np.dtype) -> np.ndarray:
    """Inverse of :func:`offsets_from` for in-domain int64 offsets."""
    if dtype == np.uint64:
        return offsets.astype(np.uint64) + np.uint64(lo)
    return (offsets + lo).astype(dtype, copy=False)


def factorize(values: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
    """``(uniques, codes)`` of ``np.unique(values, return_inverse=True)``,
    with int64 codes. Integer values whose domain is at most the row
    count take the dense presence-mask kernel (see module docstring)."""
    bounds = int_bounds(values)
    if bounds is not None and bounds[1] - bounds[0] < len(values):
        lo, hi = bounds
        span = hi - lo + 1
        rel = in_domain_offsets(values, lo)
        present = np.bincount(rel, minlength=span) > 0
        rank = np.cumsum(present, dtype=np.int64) - 1
        uniques = _values_at(np.flatnonzero(present), lo, values.dtype)
        return uniques, rank[rel]
    uniques, codes = np.unique(values, return_inverse=True)
    return uniques, codes.astype(np.int64, copy=False).reshape(values.shape)


def dense_factorized(uniques: np.ndarray, nrows: int) -> bool:
    """Whether :func:`factorize` over ``nrows`` values that produced
    ``uniques`` (sorted) ran the dense kernel."""
    return (
        uniques.dtype.kind in "iu"
        and len(uniques) > 0
        and int(uniques[-1]) - int(uniques[0]) < nrows
    )


def first_rows(gids: np.ndarray, n_groups: int) -> np.ndarray:
    """First row of each group (a reverse scatter keeps the earliest)."""
    first = np.full(n_groups, -1, dtype=np.int64)
    first[gids[::-1]] = np.arange(len(gids) - 1, -1, -1)
    return first


def stable_order(offsets: np.ndarray, span: int) -> np.ndarray:
    """``np.argsort(offsets, kind="stable")`` for non-negative integer
    offsets below ``span``, as LSD radix passes over 16-bit digits."""
    order = np.argsort(offsets.astype(np.uint16), kind="stable")
    shift = 16
    while (span - 1) >> shift:
        digit = (offsets >> shift).astype(np.uint16)
        order = order[np.argsort(digit[order], kind="stable")]
        shift += 16
    return order


def combine_codes(code_arrays: "list[np.ndarray]", cards: "list[int]") -> np.ndarray:
    """Mix per-column factorization codes into one int64 key per row.

    ``code_arrays[i]`` holds dense codes in ``[0, cards[i])`` for column
    ``i``. The combined key preserves lexicographic order of the code
    tuples (most-significant column first), so ``np.unique`` over it
    yields groups in the same order either path produces.
    """
    if not code_arrays:
        raise ValueError("need at least one code array")
    if len(code_arrays) == 1:
        return np.asarray(code_arrays[0], dtype=np.int64)
    product = 1
    for card in cards:
        product *= max(1, int(card))
    if product < _INT64_LIMIT:
        combined = np.zeros(len(code_arrays[0]), dtype=np.int64)
        for codes, card in zip(code_arrays, cards):
            combined = combined * np.int64(max(1, int(card))) + codes
        return combined
    return _lexicographic_codes(code_arrays)


def _lexicographic_codes(code_arrays: "list[np.ndarray]") -> np.ndarray:
    """Dense per-row codes ranking rows by their code tuple
    (lexicographic, first array most significant). Overflow-proof: ranks
    are bounded by the row count, not the cardinality product."""
    n = len(code_arrays[0])
    if n == 0:
        return np.empty(0, dtype=np.int64)
    order = np.lexsort(code_arrays[::-1])  # lexsort's last key is primary
    new_group = np.zeros(n, dtype=bool)
    new_group[0] = True
    for codes in code_arrays:
        in_order = codes[order]
        new_group[1:] |= in_order[1:] != in_order[:-1]
    ranks = np.cumsum(new_group) - 1
    combined = np.empty(n, dtype=np.int64)
    combined[order] = ranks
    return combined


class KeyCache:
    """Bounded, thread-safe cache of per-array factorizations, sort
    orders and join indexes, keyed by array identity (see module
    docstring)."""

    def __init__(self, max_entries: int = 32, max_bytes: int = 256 * 1024 * 1024):
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self._lock = threading.Lock()
        # key -> (source_array, cached_value); insertion order = FIFO age.
        self._entries: dict[tuple[str, int], tuple[np.ndarray, object]] = {}
        self._bytes = 0
        self._stats = HitMissStats("engine.key_cache")

    @property
    def hits(self) -> int:
        return self._stats.hits

    @property
    def misses(self) -> int:
        return self._stats.misses

    # -- internals -----------------------------------------------------

    @staticmethod
    def _payload_bytes(source: np.ndarray, value) -> int:
        total = source.nbytes
        for part in value if isinstance(value, tuple) else (value,):
            total += getattr(part, "nbytes", 0)
        return total

    def _lookup(self, kind: str, array: np.ndarray):
        key = (kind, id(array))
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and entry[0] is array:
                self._stats.hit()
                return entry[1]
            self._stats.miss()
            return None

    def _store(self, kind: str, array: np.ndarray, value) -> None:
        size = self._payload_bytes(array, value)
        if size > self.max_bytes:
            return
        key = (kind, id(array))
        with self._lock:
            if key in self._entries:
                return
            while self._entries and (
                len(self._entries) >= self.max_entries
                or self._bytes + size > self.max_bytes
            ):
                old_key = next(iter(self._entries))
                old_source, old_value = self._entries.pop(old_key)
                self._bytes -= self._payload_bytes(old_source, old_value)
            self._entries[key] = (array, value)
            self._bytes += size

    # -- cached computations -------------------------------------------

    def memo(self, kind: str, array: np.ndarray, compute):
        """``compute(array)``, cached under ``kind`` by array identity.
        Cached values are shared between callers and must not be
        mutated; any ``nbytes`` they carry counts against the budget."""
        cached = self._lookup(kind, array)
        if cached is not None:
            return cached
        value = compute(array)
        self._store(kind, array, value)
        return value

    def factorize(self, array: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """:func:`factorize` (``np.unique(array, return_inverse=True)``),
        cached by array identity."""
        return self.memo("factorize", array, factorize)

    def sort_order(self, array: np.ndarray) -> np.ndarray:
        """Stable argsort of ``array``, cached by array identity."""
        return self.memo(
            "sort_order", array, lambda a: np.argsort(a, kind="stable")
        )

    # -- management ----------------------------------------------------

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._bytes = 0
            self._stats.reset_local()

    def stats(self) -> dict:
        """Deterministic (key-sorted) cache statistics."""
        with self._lock:
            return {
                "bytes": self._bytes,
                "entries": len(self._entries),
                "hits": self._stats.hits,
                "misses": self._stats.misses,
            }


# The process-wide instance every executor shares.
key_cache = KeyCache()
