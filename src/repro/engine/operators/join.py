"""Hash joins: inner, left outer, semi, and anti.

The physical algorithm picks one of two build-side indexes over the
encoded keys, both with output identical to a hash join's:

* **dense** — integer build keys whose domain ``max - min + 1``
  (computed in Python ints) is at most ``2 × build rows``, i.e. whose
  ``8 × domain`` bytes of per-key slots fit in the
  ``HASH_ENTRY_BYTES × build rows`` the memory budget already charges.
  Unique keys get a direct lookup table; duplicate keys get CSR offsets
  (``bincount`` + ``cumsum``) over the stable build order, which is
  ``arange`` for presorted keys and a 16-bit-digit LSD radix sort
  otherwise. A probe is one clamped offset subtraction and one or two
  table gathers — no sort, no binary search;
* **sorted** — any other keys: stable argsort of the build side plus
  two binary searches per probe row.

Both produce the same ``(left, right)`` pairs in the same order (left
row ascending, then build rows in stable key order). Semi and anti joins
only count matches and never expand pairs. The kernel that ran is noted
on the operator span (``kernel="dense"|"sorted"``) and counted in the
``engine.dense.join`` hit/miss metrics. The *work profile* recorded is
that of a classic hash join (build inserts + random probes), because
that is what MonetDB executes and what the hardware model should price.

String keys join on dictionary codes whenever possible: sides sharing a
dictionary object compare int32 codes directly, and differing
dictionaries are remapped through their union — O(|dictionaries|) work —
instead of decoding every row to Python strings. Key factorizations and
build-side indexes are memoized in the process-wide
:mod:`~repro.engine.keycache`, so repeated executions against the same
(immutable) base arrays skip rebuilding them.
"""

from __future__ import annotations

import numpy as np

from repro.obs.trace import note

from ..column import Column
from ..frame import Frame
from ..keycache import (
    HASH_ENTRY_BYTES,
    combine_codes,
    dense_join_stats,
    in_domain_offsets,
    int_bounds,
    key_cache,
    offsets_from,
    stable_order,
)
from ..types import STRING

__all__ = ["execute_join"]


def _encode_key(column: Column) -> np.ndarray:
    """Return an array that equality-matches the column's values
    across frames (strings are decoded so differing dictionaries agree).
    Prefer :func:`_encode_key_pair` when both sides are at hand — it
    stays on dictionary codes."""
    if column.dtype is STRING:
        return column.decoded()
    return column.values


def _union_dictionary_codes(
    left_col: Column, right_col: Column
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Remap two dictionary-encoded columns onto their union dictionary.

    Returns ``(union_dict, left_codes, right_codes)``. Cost is
    O(|left dict| + |right dict|) plus one O(rows) int gather per side —
    never a per-row string decode.
    """
    union = np.unique(np.concatenate([left_col.dictionary, right_col.dictionary]))
    lmap = np.searchsorted(union, left_col.dictionary)
    rmap = np.searchsorted(union, right_col.dictionary)
    return union, lmap[left_col.values], rmap[right_col.values]


def _encode_key_pair(
    left_col: Column, right_col: Column, ctx
) -> tuple[np.ndarray, np.ndarray]:
    """Encode one key-column pair into equality-comparable arrays.

    String sides sharing a dictionary object match on raw codes;
    differing dictionaries remap through the union dictionary. Either
    way the per-row work is integer, not string.
    """
    if left_col.dtype is STRING and right_col.dtype is STRING:
        if left_col.dictionary is right_col.dictionary:
            return left_col.values, right_col.values
        _, left_codes, right_codes = _union_dictionary_codes(left_col, right_col)
        # The remap touches each dictionary entry once.
        ctx.work.ops += len(left_col.dictionary) + len(right_col.dictionary)
        return left_codes, right_codes
    return _encode_key(left_col), _encode_key(right_col)


def _combine_keys(columns: list[Column]) -> np.ndarray:
    """Combine one or more key columns into a single comparable array.

    Each column is factorized to dense codes (dictionary codes already
    are dense for strings) and the codes are mixed via
    :func:`~repro.engine.keycache.combine_codes`, which detects int64
    overflow of the cardinality product and falls back to lexicographic
    factorization instead of silently wrapping.
    """
    if len(columns) == 1 and columns[0].dtype is not STRING:
        return columns[0].values
    code_arrays: list[np.ndarray] = []
    cards: list[int] = []
    for column in columns:
        if column.dtype is STRING:
            # Dictionary codes are already a dense factorization.
            code_arrays.append(column.values.astype(np.int64, copy=False))
            cards.append(max(1, len(column.dictionary)))
        else:
            uniques, codes = key_cache.factorize(column.values)
            code_arrays.append(codes)
            cards.append(max(1, len(uniques)))
    return combine_codes(code_arrays, cards)


def _null_mask(columns: list[Column]) -> np.ndarray | None:
    mask = None
    for column in columns:
        if column.valid is not None:
            mask = column.valid if mask is None else (mask & column.valid)
    return mask


class _DenseIndex:
    """Build side over the integer domain ``[lo, lo + span)``.

    Unique keys keep ``slots`` (build row per offset, -1 when absent);
    duplicate keys keep CSR ``offsets`` into ``order``, the stable build
    order (``None`` when the keys are already sorted). Every table has
    one trailing empty entry at offset ``span``, where probes outside
    the domain land. Index arrays are int32, so the resident state is at
    most ``4 × (span + 2 + rows) ≤ 12 × rows + 8`` bytes — inside the
    ``HASH_ENTRY_BYTES × rows`` the join is charged for.
    """

    __slots__ = ("lo", "span", "wide", "slots", "offsets", "order")
    kernel = "dense"

    def __init__(self, keys: np.ndarray, lo: int, span: int):
        self.lo, self.span = lo, span
        self.wide = np.uint64 if keys.dtype == np.uint64 else np.int64
        self.slots = self.offsets = self.order = None
        rel = in_domain_offsets(keys, lo)
        counts = np.bincount(rel, minlength=span)
        if counts.max() <= 1:
            self.slots = np.full(span + 1, -1, dtype=np.int32)
            self.slots[rel] = np.arange(len(keys), dtype=np.int32)
            return
        self.offsets = np.zeros(span + 2, dtype=np.int32)
        np.cumsum(counts, out=self.offsets[1 : span + 1])
        self.offsets[span + 1] = len(keys)
        if not bool(np.all(rel[1:] >= rel[:-1])):
            self.order = stable_order(rel, span).astype(np.int32)

    @property
    def nbytes(self) -> int:
        return sum(
            a.nbytes for a in (self.slots, self.offsets, self.order) if a is not None
        )

    def accepts(self, probe: np.ndarray) -> bool:
        wide = np.uint64 if probe.dtype == np.uint64 else np.int64
        return probe.dtype.kind in "iu" and wide is self.wide

    def match(self, probe: np.ndarray, pairs: bool):
        rel = np.minimum(offsets_from(probe, self.lo), np.uint64(self.span))
        rel = rel.view(np.int64)
        if self.slots is not None:
            hit = self.slots[rel]
            matched = hit >= 0
            counts = matched.astype(np.int64)
            if not pairs:
                return counts, None, None
            left_idx = np.flatnonzero(matched)
            return counts, left_idx, hit[left_idx].astype(np.int64)
        start = self.offsets[rel]
        counts = (self.offsets[1:][rel] - start).astype(np.int64)
        if not pairs:
            return counts, None, None
        return (counts, *_expand(counts, start, self.order))


class _SortedIndex:
    """Build side as a stable argsort of arbitrary (comparable) keys."""

    __slots__ = ("keys", "order")
    kernel = "sorted"

    def __init__(self, keys: np.ndarray):
        self.keys = keys
        self.order = np.argsort(keys, kind="stable")

    @property
    def nbytes(self) -> int:
        return self.order.nbytes  # the keys are the cache entry's source

    def match(self, probe: np.ndarray, pairs: bool):
        sorted_keys = self.keys[self.order]
        lo = np.searchsorted(sorted_keys, probe, side="left")
        counts = np.searchsorted(sorted_keys, probe, side="right") - lo
        if not pairs:
            return counts, None, None
        return (counts, *_expand(counts, lo, self.order))


def _build_index(keys: np.ndarray) -> "_DenseIndex | _SortedIndex":
    """Dense index when the key domain fits the build's hash-entry
    charge (``8 × span ≤ HASH_ENTRY_BYTES × rows``), else sorted."""
    bounds = int_bounds(keys)
    if bounds is not None and len(keys) < 2**31:
        span = bounds[1] - bounds[0] + 1
        if 8 * span <= HASH_ENTRY_BYTES * len(keys):
            return _DenseIndex(keys, bounds[0], span)
    return _SortedIndex(keys)


def _expand(
    counts: np.ndarray, start: np.ndarray, order: "np.ndarray | None"
) -> tuple[np.ndarray, np.ndarray]:
    """List every (left, right) match pair: left row ``i`` pairs with
    build rows ``order[start[i] : start[i] + counts[i]]`` (``order=None``
    is the identity)."""
    total = int(counts.sum())
    left_idx = np.repeat(np.arange(len(counts)), counts)
    if not total:
        return left_idx, np.empty(0, dtype=np.int64)
    # Position of each pair inside its run, shifted to the run's start.
    shift = start.astype(np.int64, copy=False) - (np.cumsum(counts) - counts)
    positions = np.arange(total) + np.repeat(shift, counts)
    if order is None:
        return left_idx, positions
    return left_idx, order[positions].astype(np.int64, copy=False)


def _match(left_keys: np.ndarray, right_keys: np.ndarray, pairs: bool = True):
    """For every left row, find matching right rows.

    Returns ``(counts, left_expanded, right_expanded, kernel)`` where the
    expanded arrays list each (left, right) match pair; with
    ``pairs=False`` (semi/anti joins) only ``counts`` is computed and
    both are ``None``. The build index is cached by ``right_keys``
    identity; a dense index falls back to sorting for a probe dtype it
    cannot offset (floats, or uint64 against signed keys).
    """
    index = key_cache.memo("join_index", right_keys, _build_index)
    if index.kernel == "dense" and not index.accepts(left_keys):
        index = _SortedIndex(right_keys)
    if index.kernel == "dense":
        dense_join_stats.hit()
    else:
        dense_join_stats.miss()
    return (*index.match(left_keys, pairs), index.kernel)


def execute_join(
    left: Frame,
    right: Frame,
    left_on: list[str],
    right_on: list[str],
    how: str,
    ctx,
) -> Frame:
    """Join ``left`` with ``right`` on equality of the key column lists.

    ``how`` is one of ``inner``, ``left`` (left outer), ``semi``
    (left semi), ``anti`` (left anti). Semi/anti keep only left columns.
    Rows whose key is NULL never match.

    Late (selection-vector) inputs gather only their key columns here;
    payload columns materialize once, through the composed
    selection ∘ match indices, in :func:`_materialize_pair` — or not at
    all for semi/anti joins, whose outputs stay late.
    """
    left_cols = [left.column(n) for n in left_on]
    right_cols = [right.column(n) for n in right_on]
    if len(left_cols) == 1:
        left_keys, right_keys = _encode_key_pair(left_cols[0], right_cols[0], ctx)
    else:
        # Multi-key combination must factorize over the union so codes agree.
        both = _combine_keys(
            [_stack(lc, rc, ctx) for lc, rc in zip(left_cols, right_cols)]
        )
        left_keys, right_keys = both[: left.nrows], both[left.nrows :]

    left_null = _null_mask(left_cols)
    right_null = _null_mask(right_cols)
    if right_null is not None:
        keep = right_null
        right_keys = right_keys[keep]
        right_map = np.flatnonzero(keep)
    else:
        right_map = None

    pairs = how in ("inner", "left")
    counts, left_idx, right_idx, kernel = _match(left_keys, right_keys, pairs)
    if left_null is not None:
        # NULL left keys match nothing.
        counts = counts * left_null
        if pairs:
            matched_null = left_null[left_idx]
            left_idx, right_idx = left_idx[matched_null], right_idx[matched_null]
    if right_map is not None and pairs and len(right_idx):
        right_idx = right_map[right_idx]

    # Work accounting: hash build over the (smaller, by convention right)
    # side plus a random probe per left row, plus per-match output.
    ctx.work.tuples_in += left.nrows + right.nrows
    ctx.work.seq_bytes += sum(c.nbytes for c in left_cols) + sum(c.nbytes for c in right_cols)
    ctx.work.ops += left.nrows + 2 * right.nrows  # probe + build/hash
    ctx.work.rand_accesses += left.nrows + int(counts.sum())
    # The build-side hash structure (key + bucket pointer per row) is
    # part of the operator's resident working set.
    ctx.work.out_bytes += right.nrows * 16

    if how == "inner":
        out = _materialize_pair(left, right, left_idx, right_idx, right_on)
    elif how == "left":
        miss = np.flatnonzero(counts == 0)
        all_left = np.concatenate([left_idx, miss]) if len(miss) else left_idx
        all_right = (
            np.concatenate([right_idx, np.full(len(miss), -1, dtype=np.int64)])
            if len(miss)
            else right_idx
        )
        out = _materialize_pair(left, right, all_left, all_right, right_on)
    elif how == "semi":
        mask = counts > 0
        out = left.filter(mask)
    elif how == "anti":
        mask = counts == 0
        out = left.filter(mask)
    else:
        raise ValueError(f"unknown join type {how!r}")

    # Key-column gathers on late inputs are the join's materialization
    # price; charge them as random access.
    ctx.work.gather_bytes += left.drain_gather_debt() + right.drain_gather_debt()
    ctx.work.tuples_out += out.nrows
    ctx.work.out_bytes += out.nbytes
    note(
        ctx, how=how, left_rows=left.nrows, right_rows=right.nrows,
        matches=out.nrows, kernel=kernel,
    )
    return out


def _stack(left_col: Column, right_col: Column, ctx) -> Column:
    """Concatenate two key columns (for shared factorization) without
    decoding strings: same-dictionary sides concatenate codes, differing
    dictionaries remap through the union dictionary first."""
    if left_col.dtype is STRING:
        if left_col.dictionary is right_col.dictionary:
            codes = np.concatenate([left_col.values, right_col.values])
            return Column(STRING, codes, dictionary=left_col.dictionary)
        union, left_codes, right_codes = _union_dictionary_codes(left_col, right_col)
        ctx.work.ops += len(left_col.dictionary) + len(right_col.dictionary)
        return Column.from_string_codes(
            np.concatenate([left_codes, right_codes]).astype(np.int32), union
        )
    values = np.concatenate([left_col.values, right_col.values])
    return Column(left_col.dtype, values)


def _materialize_pair(
    left: Frame,
    right: Frame,
    left_idx: np.ndarray,
    right_idx: np.ndarray,
    right_on: list[str],
) -> Frame:
    """Gather the matched rows of both sides into one dense frame. Late
    inputs compose their selection with the match indices so every
    payload column is gathered exactly once, straight from the base."""
    left_idx = left.row_ids(left_idx)
    right_idx = right.row_ids(right_idx)
    columns = {name: col.take(left_idx) for name, col in left.columns.items()}
    for name, col in right.columns.items():
        if name in columns:
            if name in right_on:
                continue  # equal-named key column: keep the left copy
            raise ValueError(f"join output would duplicate column {name!r}")
        columns[name] = col.take(right_idx)
    return Frame(columns, len(left_idx))
