"""Out-of-core execution: memory budgets and Grace spill-to-disk.

The paper's wimpy nodes live on the edge of a memory-capacity cliff:
Table III *models* SF10+ but the engine could not *execute* it, because
every hash join and grouped aggregation assumed its build state fits in
RAM. This module removes that assumption with the classic Grace
recipe — hash-partition both inputs to disk, then solve each partition
independently — pinned to a :class:`MemoryBudget` that all operators of
one query (including morsel workers and the parallel merge phase) share.

Dispatch is a three-way split per operator:

* estimate fits the budget → run the ordinary in-memory operator under
  :meth:`MemoryBudget.charge` (the state really is resident);
* estimate exceeds the budget and spilling is enabled → Grace: partition
  both inputs by a depth-salted hash of the join/group keys into spill
  files (integer payloads re-use the column codecs; floats and validity
  masks stay raw because the fixed-point codec is only almost-exact),
  then recurse into any partition that still exceeds the budget;
* spilling disabled → raise :class:`MemoryBudgetExceeded`, the modeled
  "wimpy node OOM" the serve layer used to have to shed.

Recursion terminates unconditionally: a partition re-partitions only
while it is strictly smaller than its parent (adversarial single-key
skew makes no progress and executes in memory — always correct, merely
over budget) and never beyond :data:`MAX_SPILL_DEPTH`.

Bit-identity with the in-memory operators is engineered, not hoped for:

* join outputs carry transient row-id columns and are restored to the
  exact serial emission order ((left row, right row) ascending, outer
  misses last, semi/anti by left row) before the row-ids are dropped;
* all rows of one group land in one partition in their original
  relative order (stable partition sort), so ``np.bincount`` float
  accumulation order — and therefore the last ulp of every SUM/AVG —
  matches the serial kernel exactly;
* spilled string columns re-attach the *same* dictionary object on read
  (:class:`SpillSet` keeps an identity registry), so dictionary-code
  collation and ``Column.concat``'s shared-dictionary fast path behave
  as if the frame had never left memory;
* integer codecs are verified round-trip at write time and fall back to
  raw storage on any mismatch.

Temp files live in a per-operator :class:`SpillSet` directory removed in
a ``finally`` — fault injection (:class:`SpillFaultPlan`, following the
``cluster/faults.py`` idiom) and cooperative cancellation both leave no
orphans behind.
"""

from __future__ import annotations

import os
import pickle
import shutil
import struct
import tempfile
import threading
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from repro.obs.metrics import metrics
from repro.obs.trace import note

from .column import Column
from .compression import ALL_ENCODINGS
from .frame import Frame
from .keycache import HASH_ENTRY_BYTES, combine_codes, stable_order
from .operators.aggregate import _key_codes, execute_aggregate
from .operators.join import _combine_keys, _encode_key_pair, _stack, execute_join
from .types import BOOL, DATE, FLOAT64, INT64, STRING

__all__ = [
    "MAX_SPILL_DEPTH",
    "MemoryBudget",
    "MemoryBudgetExceeded",
    "SpillCorrupt",
    "SpillDiskFull",
    "SpillError",
    "SpillFaultPlan",
    "SpillFile",
    "SpillSet",
    "aggregate_estimate",
    "choose_partitions",
    "join_build_estimate",
    "maybe_spill_aggregate",
    "maybe_spill_join",
]

# Deepest recursive re-partition level. Level 0 is the first partition
# pass; a partition at level MAX_SPILL_DEPTH - 1 that still exceeds the
# budget executes in memory instead of splitting again.
MAX_SPILL_DEPTH = 4

# Fan-out bounds: wide at the first level (one pass should usually be
# enough), narrow when recursing (each level multiplies the file count).
MAX_FANOUT = 64
MAX_RECURSIVE_FANOUT = 4

# No point cutting partitions below this many rows — the per-file
# constant costs would dominate the memory saved.
MIN_PARTITION_ROWS = 4096

_MAGIC = b"RSPL"
_HEADER = struct.Struct("<Q")

_LROW = "__spill_lrow__"
_RROW = "__spill_rrow__"

_DTYPES = {t.name: t for t in (INT64, FLOAT64, DATE, STRING, BOOL)}
_ENCODINGS_BY_NAME = {e.name: e for e in ALL_ENCODINGS}

_partitions_counter = metrics.counter("spill.partitions")
_bytes_written_counter = metrics.counter("spill.bytes_written")
_bytes_read_counter = metrics.counter("spill.bytes_read")
_respills_counter = metrics.counter("spill.respills")
_operators_counter = metrics.counter("spill.operators")
_errors_counter = metrics.counter("spill.errors")
_cleanups_counter = metrics.counter("spill.cleanups")


class SpillError(RuntimeError):
    """Base for spill I/O failures. Spill reads and writes either succeed
    or raise one of these — never a silent wrong answer."""


class SpillDiskFull(SpillError):
    """The spill device ran out of space (or refused the write)."""


class SpillCorrupt(SpillError):
    """A spill partition file is truncated or fails to decode."""


class MemoryBudgetExceeded(RuntimeError):
    """An operator's state would exceed the memory budget and spilling is
    disabled — the modeled wimpy-node OOM."""


@dataclass(frozen=True)
class SpillFaultPlan:
    """Deterministic fault injection for spill I/O, following the
    ``cluster/faults.py`` idiom: a frozen value object the writer
    consults, never wall-clock or randomness at injection time.

    Attributes:
        disk_full_after_bytes: writes that would push the budget's total
            spilled bytes past this raise :class:`SpillDiskFull` (the
            SD card filled up).
        truncate_file: the Nth spill file written through the budget
            (0-based) is written with half its payload missing, so the
            reader must detect the truncation and raise
            :class:`SpillCorrupt`.
    """

    disk_full_after_bytes: int | None = None
    truncate_file: int | None = None

    def __post_init__(self):
        if self.disk_full_after_bytes is not None and self.disk_full_after_bytes < 0:
            raise ValueError("disk_full_after_bytes must be non-negative")
        if self.truncate_file is not None and self.truncate_file < 0:
            raise ValueError("truncate_file must be non-negative")


class MemoryBudget:
    """Thread-safe tracker of one query's operator-state memory.

    ``limit_bytes=None`` means unlimited (every operator runs in memory
    and nothing here costs more than a lock). With a limit, in-memory
    operators :meth:`charge` their estimated state while they run and the
    Grace paths consult :meth:`available` to size partition fan-out.

    Admission is optimistic: reservations serialize through the lock,
    but concurrent ``available()`` checks may overlap, so morsel workers
    can transiently overcommit by at most one morsel's state each — the
    budget is a modeled constraint, not an allocator.

    Attributes:
        limit_bytes: the budget, or ``None`` for unlimited.
        spill_dir: base directory for spill files (``None`` = system tmp).
        faults: optional :class:`SpillFaultPlan` injected into writes.
    """

    def __init__(
        self,
        limit_bytes: int | None = None,
        spill_dir: str | None = None,
        faults: SpillFaultPlan | None = None,
    ):
        if limit_bytes is not None and limit_bytes < 0:
            raise ValueError("limit_bytes must be non-negative")
        self.limit_bytes = None if limit_bytes is None else int(limit_bytes)
        self.spill_dir = spill_dir
        self.faults = faults
        self._lock = threading.Lock()
        self._used = 0.0
        self._peak = 0.0
        self._spilled = 0
        self._file_counter = 0

    @property
    def used_bytes(self) -> float:
        with self._lock:
            return self._used

    @property
    def peak_bytes(self) -> float:
        with self._lock:
            return self._peak

    @property
    def spilled_bytes(self) -> int:
        with self._lock:
            return self._spilled

    def available(self) -> float:
        """Bytes still unreserved (``inf`` when unlimited; can go
        negative under transient overcommit)."""
        if self.limit_bytes is None:
            return float("inf")
        with self._lock:
            return self.limit_bytes - self._used

    def reserve(self, nbytes: float) -> None:
        with self._lock:
            self._used += nbytes
            if self._used > self._peak:
                self._peak = self._used

    def release(self, nbytes: float) -> None:
        with self._lock:
            self._used = max(0.0, self._used - nbytes)

    @contextmanager
    def charge(self, nbytes: float):
        """Reserve ``nbytes`` for the duration of the block."""
        self.reserve(nbytes)
        try:
            yield
        finally:
            self.release(nbytes)

    def next_file_index(self) -> int:
        """Query-global spill-file ordinal (fault plans index by it)."""
        with self._lock:
            index = self._file_counter
            self._file_counter += 1
            return index

    def record_spill(self, nbytes: int) -> None:
        with self._lock:
            self._spilled += int(nbytes)


# ----------------------------------------------------------------------
# Spill files
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SpillFile:
    """Handle to one written partition."""

    path: str
    nrows: int
    nbytes: int


def _encode_values(values: np.ndarray):
    """Pick the smallest column codec for an integer-kind value array,
    *verified* to round-trip bit-identically; everything else (floats,
    bools) stays raw — the fixed-point float codec is only
    ``allclose``-exact, which is not good enough for spill files."""
    if values.dtype.kind != "i":
        return ("raw", values)
    v = np.ascontiguousarray(values).astype(np.int64, copy=False)
    best = None
    best_size = v.nbytes
    for encoding in ALL_ENCODINGS:
        try:
            payload = encoding.encode(v)
            size = encoding.encoded_nbytes(payload)
            if size < best_size and np.array_equal(
                encoding.decode(payload, len(v), np.dtype(np.int64)), v
            ):
                best, best_size = (encoding.name, payload), size
        except Exception:
            continue  # e.g. shift-width overflow on extreme int64 ranges
    if best is None:
        return ("raw", values)
    return ("codec", best[0], best[1], len(v))


def _decode_values(payload) -> np.ndarray:
    kind = payload[0]
    if kind == "raw":
        return payload[1]
    if kind == "codec":
        _, name, encoded, n = payload
        return _ENCODINGS_BY_NAME[name].decode(encoded, n, np.dtype(np.int64))
    raise ValueError(f"unknown spill value payload kind {kind!r}")


class SpillSet:
    """One operator's spill files: a private temp directory, a
    dictionary-identity registry (so read-back string columns reattach
    the *same* dictionary object they were written with), and a
    ``cleanup()`` the owner calls in ``finally``."""

    def __init__(self, budget: MemoryBudget | None = None):
        base = budget.spill_dir if budget is not None else None
        self.directory = tempfile.mkdtemp(prefix="repro-spill-", dir=base)
        self._budget = budget
        self._dictionaries: dict[int, np.ndarray] = {}
        self._counter = 0
        self._closed = False

    def write_frame(self, frame: Frame, ctx=None) -> SpillFile:
        """Serialize one frame to a new spill file.

        Raises :class:`SpillDiskFull` on write failure (real or
        injected); charges ``spilled_bytes``/``spill_partitions`` to the
        operator's work profile.
        """
        work = getattr(ctx, "work", None)
        frame = frame.dense(work)
        specs = []
        for name, column in frame.columns.items():
            dict_key = None
            if column.dictionary is not None:
                dict_key = id(column.dictionary)
                self._dictionaries[dict_key] = column.dictionary
            valid = None
            if column.valid is not None:
                valid = np.asarray(column.valid, dtype=np.bool_)
            specs.append(
                (name, column.dtype.name, _encode_values(column.values), dict_key, valid)
            )
        blob = pickle.dumps(
            {"nrows": frame.nrows, "columns": specs},
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        budget = self._budget
        index = 0 if budget is None else budget.next_file_index()
        faults = budget.faults if budget is not None else None
        if (
            faults is not None
            and faults.disk_full_after_bytes is not None
            and budget.spilled_bytes + len(blob) > faults.disk_full_after_bytes
        ):
            _errors_counter.inc()
            raise SpillDiskFull(
                f"spill device full: partition {index} needs {len(blob)} bytes "
                f"past the {faults.disk_full_after_bytes}-byte capacity"
            )
        payload = blob
        if faults is not None and faults.truncate_file == index:
            payload = blob[: len(blob) // 2]
        path = os.path.join(
            self.directory, f"part-{index:06d}-{self._counter:06d}.spill"
        )
        self._counter += 1
        try:
            with open(path, "wb") as f:
                f.write(_MAGIC + _HEADER.pack(len(blob)) + payload)
        except OSError as exc:
            _errors_counter.inc()
            raise SpillDiskFull(f"spill write to {path!r} failed: {exc}") from exc
        if budget is not None:
            budget.record_spill(len(blob))
        if work is not None:
            work.spilled_bytes += len(blob)
            work.spill_partitions += 1
        _partitions_counter.inc()
        _bytes_written_counter.inc(len(blob))
        return SpillFile(path, frame.nrows, len(blob))

    def read_frame(self, ref: SpillFile, ctx=None) -> Frame:
        """Read one partition back, bit-identical to what was written.

        Any failure — unreadable file, truncation, undecodable payload,
        length mismatch — raises a typed :class:`SpillError`; a corrupt
        partition can never become a silent wrong answer.
        """
        try:
            with open(ref.path, "rb") as f:
                raw = f.read()
        except OSError as exc:
            _errors_counter.inc()
            raise SpillError(
                f"cannot read spill partition {ref.path!r}: {exc}"
            ) from exc
        if len(raw) < 4 + _HEADER.size or raw[:4] != _MAGIC:
            _errors_counter.inc()
            raise SpillCorrupt(f"spill partition {ref.path!r} is missing its header")
        (expected,) = _HEADER.unpack(raw[4 : 4 + _HEADER.size])
        body = raw[4 + _HEADER.size :]
        if len(body) != expected:
            _errors_counter.inc()
            raise SpillCorrupt(
                f"spill partition {ref.path!r} is truncated "
                f"({len(body)} of {expected} payload bytes)"
            )
        try:
            doc = pickle.loads(body)
            nrows = doc["nrows"]
            columns: dict[str, Column] = {}
            for name, dtype_name, payload, dict_key, valid in doc["columns"]:
                dtype = _DTYPES[dtype_name]
                values = _decode_values(payload).astype(dtype.numpy_dtype, copy=False)
                dictionary = None
                if dict_key is not None:
                    dictionary = self._dictionaries[dict_key]
                if len(values) != nrows or (valid is not None and len(valid) != nrows):
                    raise ValueError(f"column {name!r} length mismatch")
                columns[name] = Column(dtype, values, dictionary=dictionary, valid=valid)
            frame = Frame(columns, nrows)
        except Exception as exc:
            _errors_counter.inc()
            raise SpillCorrupt(
                f"spill partition {ref.path!r} failed to decode: {exc}"
            ) from exc
        _bytes_read_counter.inc(ref.nbytes)
        return frame

    def cleanup(self) -> None:
        """Remove every spill file and the directory (idempotent)."""
        if self._closed:
            return
        self._closed = True
        shutil.rmtree(self.directory, ignore_errors=True)
        _cleanups_counter.inc()


# ----------------------------------------------------------------------
# Hash partitioning
# ----------------------------------------------------------------------

_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_GOLDEN = 0x9E3779B97F4A7C15


def _to_uint64(values: np.ndarray) -> np.ndarray:
    """View key values as uint64 hash input. Floats normalize -0.0 to
    +0.0 and canonicalize every NaN payload to one bit pattern first,
    because the in-memory join's ``searchsorted`` matching treats all
    NaNs (and both zeros) as equal — partitioning must agree."""
    values = np.asarray(values)
    if values.dtype.kind == "f":
        v = values.astype(np.float64, copy=True)
        v[v == 0.0] = 0.0
        nan = np.isnan(v)
        if nan.any():
            v[nan] = np.nan
        return v.view(np.uint64)
    if values.dtype.kind == "b":
        return values.astype(np.uint64)
    return np.ascontiguousarray(values.astype(np.int64, copy=False)).view(np.uint64)


def _partition_ids(keys: np.ndarray, n_partitions: int, depth: int) -> np.ndarray:
    """splitmix64-style finalizer over depth-salted keys; the salt makes
    every recursion level an independent hash function, so a partition
    that was 1/P of its parent splits again instead of collapsing into
    one child."""
    seed = np.uint64(((2 * depth + 1) * _GOLDEN) & 0xFFFFFFFFFFFFFFFF)
    z = keys + seed
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    z = z ^ (z >> np.uint64(31))
    return ((z >> np.uint64(32)) % np.uint64(n_partitions)).astype(np.int64)


def _partition_frame(frame: Frame, pids: np.ndarray, n_partitions: int) -> list[Frame]:
    """Split a dense frame by partition id, preserving original relative
    row order inside each partition (stable sort — the float-summation
    order guarantee depends on this)."""
    order = stable_order(pids, n_partitions)
    bounds = np.zeros(n_partitions + 1, dtype=np.int64)
    np.cumsum(np.bincount(pids, minlength=n_partitions), out=bounds[1:])
    return [
        frame.take(order[bounds[i] : bounds[i + 1]]) for i in range(n_partitions)
    ]


def _pow2_ceil(n: int) -> int:
    p = 2
    while p < n:
        p *= 2
    return p


def choose_partitions(
    estimate: float, available: float, nrows: int, depth: int
) -> int:
    """Partition fan-out: enough that each child *should* fit the
    available budget, capped by level and by useful partition size."""
    cap = MAX_FANOUT if depth == 0 else MAX_RECURSIVE_FANOUT
    cap = min(cap, _pow2_ceil(max(2, -(-nrows // MIN_PARTITION_ROWS))))
    want = _pow2_ceil(max(2, int(np.ceil(estimate / max(1.0, float(available))))))
    return int(max(2, min(want, cap)))


# ----------------------------------------------------------------------
# Estimates and dispatch
# ----------------------------------------------------------------------


def join_build_estimate(right: Frame) -> int:
    """Resident state of an in-memory hash join: the build side's values
    plus a hash entry per build row."""
    return int(right.nbytes + right.nrows * HASH_ENTRY_BYTES)


def aggregate_estimate(frame: Frame, group_by, aggs) -> int:
    """Upper bound on grouped-aggregation state: worst case every row is
    its own group, each holding its keys and accumulators."""
    width = 8 * (len(group_by) + max(1, len(aggs)))
    return int(frame.nrows * (width + HASH_ENTRY_BYTES))


def _check_cancel(ctx) -> None:
    cancel = getattr(ctx, "cancel", None)
    if cancel is not None:
        cancel.check()


def maybe_spill_join(left, right, left_on, right_on, how, ctx) -> Frame:
    """Budget-aware join dispatch (see module docstring for the
    three-way split). Without a budget this is exactly ``execute_join``."""
    budget = getattr(ctx, "budget", None)
    if budget is None or budget.limit_bytes is None:
        return execute_join(left, right, list(left_on), list(right_on), how, ctx)
    estimate = join_build_estimate(right)
    available = budget.available()
    if estimate <= available:
        with budget.charge(estimate):
            return execute_join(left, right, list(left_on), list(right_on), how, ctx)
    if not getattr(ctx, "spilling", True):
        raise MemoryBudgetExceeded(
            f"hash join build side needs ~{estimate:,} bytes but only "
            f"{max(0, int(available)):,} of the {budget.limit_bytes:,}-byte "
            f"memory budget are free, and spilling is disabled"
        )
    return _grace_join(left, right, list(left_on), list(right_on), how, ctx)


def maybe_spill_aggregate(frame, group_by, aggs, ctx) -> Frame:
    """Budget-aware aggregation dispatch. Global aggregates (no group
    keys) carry O(1) state and never spill."""
    budget = getattr(ctx, "budget", None)
    if budget is None or budget.limit_bytes is None or not group_by:
        return execute_aggregate(frame, list(group_by), dict(aggs), ctx)
    estimate = aggregate_estimate(frame, group_by, aggs)
    available = budget.available()
    if estimate <= available:
        with budget.charge(estimate):
            return execute_aggregate(frame, list(group_by), dict(aggs), ctx)
    if not getattr(ctx, "spilling", True):
        raise MemoryBudgetExceeded(
            f"grouped aggregation needs ~{estimate:,} bytes but only "
            f"{max(0, int(available)):,} of the {budget.limit_bytes:,}-byte "
            f"memory budget are free, and spilling is disabled"
        )
    return _grace_aggregate(frame, list(group_by), dict(aggs), ctx)


# ----------------------------------------------------------------------
# Grace hash join
# ----------------------------------------------------------------------


def _join_partition_keys(left: Frame, right: Frame, left_on, right_on, ctx):
    """Hashable key arrays for both sides, encoded *jointly* (the same
    shared-dictionary / union-remap paths the join itself uses), so equal
    keys land in the same partition by construction."""
    left_cols = [left.column(n) for n in left_on]
    right_cols = [right.column(n) for n in right_on]
    if len(left_cols) == 1:
        lk, rk = _encode_key_pair(left_cols[0], right_cols[0], ctx)
    else:
        both = _combine_keys(
            [_stack(lc, rc, ctx) for lc, rc in zip(left_cols, right_cols)]
        )
        lk, rk = both[: left.nrows], both[left.nrows :]
    return _to_uint64(lk), _to_uint64(rk)


def _concat(frames: list[Frame]) -> Frame:
    if len(frames) == 1:
        return frames[0]
    names = list(frames[0].columns)
    columns = {n: Column.concat([f.columns[n] for f in frames]) for n in names}
    return Frame(columns, sum(f.nrows for f in frames))


def _load(spills: SpillSet, ref, ctx):
    return spills.read_frame(ref, ctx) if isinstance(ref, SpillFile) else ref


def _grace_join(left, right, left_on, right_on, how, ctx) -> Frame:
    budget = ctx.budget
    work = ctx.work
    bytes0, depth0 = work.spilled_bytes, work.respill_depth
    left = left.dense(work)
    right = right.dense(work)
    left = left.with_columns(
        {_LROW: Column(INT64, np.arange(left.nrows, dtype=np.int64))}
    )
    keep_rrow = how in ("inner", "left")
    if keep_rrow:
        right = right.with_columns(
            {_RROW: Column(INT64, np.arange(right.nrows, dtype=np.int64))}
        )
    _operators_counter.inc()
    spills = SpillSet(budget)
    try:
        out = _grace_join_level(
            left, right, left_on, right_on, how, ctx, spills, 0
        )
    finally:
        spills.cleanup()
    out = _restore_join_order(out, how, keep_rrow, ctx)
    note(
        ctx,
        spill="grace-join",
        spilled_bytes=work.spilled_bytes - bytes0,
        respills=work.respill_depth - depth0,
    )
    return out


def _grace_join_level(
    left, right, left_on, right_on, how, ctx, spills, depth
) -> Frame:
    budget = ctx.budget
    n_parts = choose_partitions(
        join_build_estimate(right),
        budget.available(),
        max(left.nrows, right.nrows),
        depth,
    )
    lkeys, rkeys = _join_partition_keys(left, right, left_on, right_on, ctx)
    lpids = _partition_ids(lkeys, n_parts, depth)
    rpids = _partition_ids(rkeys, n_parts, depth)
    ctx.work.ops += left.nrows + right.nrows  # hash + scatter
    ctx.work.seq_bytes += left.nbytes + right.nbytes  # partition pass streams both
    lparts = _partition_frame(left, lpids, n_parts)
    rparts = _partition_frame(right, rpids, n_parts)
    parent_rows = right.nrows
    pairs = []
    for lp, rp in zip(lparts, rparts):
        _check_cancel(ctx)
        pairs.append(
            (
                spills.write_frame(lp, ctx) if lp.nrows else lp,
                spills.write_frame(rp, ctx) if rp.nrows else rp,
            )
        )
    del left, right, lparts, rparts  # partitions now live on disk

    outputs = []
    for lref, rref in pairs:
        _check_cancel(ctx)
        lp = _load(spills, lref, ctx)
        rp = _load(spills, rref, ctx)
        child_estimate = join_build_estimate(rp)
        if (
            child_estimate > budget.available()
            and depth + 1 < MAX_SPILL_DEPTH
            and 0 < rp.nrows < parent_rows
        ):
            ctx.work.respill_depth += 1
            _respills_counter.inc()
            outputs.append(
                _grace_join_level(
                    lp, rp, left_on, right_on, how, ctx, spills, depth + 1
                )
            )
        else:
            with budget.charge(child_estimate):
                outputs.append(execute_join(lp, rp, left_on, right_on, how, ctx))
    return _concat(outputs)


def _restore_join_order(out: Frame, how: str, keep_rrow: bool, ctx) -> Frame:
    """Reorder the concatenated partition outputs into the serial join's
    exact emission order, then drop the transient row-id columns.

    The serial join emits match pairs ascending in (left row, right row)
    — its probe walks left rows in order and the build side's stable
    sort yields each key's matches ascending in right row — with outer
    misses appended last, ascending in left row, and semi/anti outputs
    simply filtered in left order.
    """
    lrow = out.column(_LROW).values
    if not keep_rrow:  # semi / anti
        order = np.argsort(lrow, kind="stable")
    else:
        rrow = out.column(_RROW)
        if rrow.valid is None:  # inner, or left outer with no misses
            order = np.lexsort((rrow.values, lrow))
        else:
            matched = rrow.valid
            m = np.flatnonzero(matched)
            u = np.flatnonzero(~matched)
            order = np.concatenate(
                [
                    m[np.lexsort((rrow.values[m], lrow[m]))],
                    u[np.argsort(lrow[u], kind="stable")],
                ]
            )
    out = out.take(order)
    ctx.work.ops += out.nrows  # the restoration sort
    columns = {
        name: col
        for name, col in out.columns.items()
        if name not in (_LROW, _RROW)
    }
    return Frame(columns, out.nrows)


# ----------------------------------------------------------------------
# Grace hash aggregation
# ----------------------------------------------------------------------


def _group_partition_keys(frame: Frame, group_by) -> np.ndarray:
    """Combined per-row group codes for partitioning. Uses the aggregate
    operator's own ``_key_codes`` (NULL is its own group, code 0), so a
    group can never straddle partitions — not ``_combine_keys``, which
    ignores validity masks."""
    code_arrays = []
    cards = []
    for name in group_by:
        codes, card, _ = _key_codes(frame.column(name))
        code_arrays.append(codes)
        cards.append(card)
    combined = combine_codes(code_arrays, cards)
    return _to_uint64(combined)


def _grace_aggregate(frame, group_by, aggs, ctx) -> Frame:
    budget = ctx.budget
    work = ctx.work
    bytes0, depth0 = work.spilled_bytes, work.respill_depth
    frame = frame.dense(work)
    _operators_counter.inc()
    spills = SpillSet(budget)
    try:
        out = _grace_aggregate_level(frame, group_by, aggs, ctx, spills, 0)
    finally:
        spills.cleanup()
    if out.nrows > 1:
        # Restore the serial group order: every group appears exactly
        # once, so re-ranking the output keys (same per-column NULL-first
        # collation as the serial factorization) and sorting reproduces
        # `np.unique`'s ascending combined-code order.
        code_arrays = []
        cards = []
        for name in group_by:
            codes, card, _ = _key_codes(out.column(name))
            code_arrays.append(codes)
            cards.append(card)
        order = np.argsort(combine_codes(code_arrays, cards), kind="stable")
        out = out.take(order)
        ctx.work.ops += out.nrows
    note(
        ctx,
        spill="grace-aggregate",
        spilled_bytes=work.spilled_bytes - bytes0,
        respills=work.respill_depth - depth0,
    )
    return out


def _grace_aggregate_level(frame, group_by, aggs, ctx, spills, depth) -> Frame:
    budget = ctx.budget
    n_parts = choose_partitions(
        aggregate_estimate(frame, group_by, aggs),
        budget.available(),
        frame.nrows,
        depth,
    )
    pids = _partition_ids(_group_partition_keys(frame, group_by), n_parts, depth)
    ctx.work.ops += frame.nrows
    ctx.work.seq_bytes += frame.nbytes
    parts = _partition_frame(frame, pids, n_parts)
    parent_rows = frame.nrows
    refs = []
    for part in parts:
        _check_cancel(ctx)
        refs.append(spills.write_frame(part, ctx) if part.nrows else part)
    del frame, parts

    outputs = []
    for ref in refs:
        _check_cancel(ctx)
        part = _load(spills, ref, ctx)
        child_estimate = aggregate_estimate(part, group_by, aggs)
        if (
            child_estimate > budget.available()
            and depth + 1 < MAX_SPILL_DEPTH
            and 0 < part.nrows < parent_rows
        ):
            ctx.work.respill_depth += 1
            _respills_counter.inc()
            outputs.append(
                _grace_aggregate_level(part, group_by, aggs, ctx, spills, depth + 1)
            )
        else:
            with budget.charge(child_estimate):
                outputs.append(
                    execute_aggregate(part, list(group_by), dict(aggs), ctx)
                )
    return _concat(outputs)
