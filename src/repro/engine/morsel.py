"""Morsel partitioning for intra-query parallelism.

A *morsel* is a contiguous horizontal slice of a base table (Leis et
al., "Morsel-Driven Parallelism"). The parallel executor runs a query's
scan → filter → project → partial-aggregate pipeline once per morsel on
a thread pool (the numpy kernels release the GIL), then merges the
partial states with :mod:`repro.engine.merge`. Each morsel gets its own
:class:`MorselContext` so operator work accounting never contends across
threads; the per-morsel profiles are coalesced afterwards.

Every morsel costs a fixed slice of Python time (zone-map
classification, a context, frames, a thread handoff), so the executor
cuts one range per worker by default rather than many small morsels;
:mod:`repro.engine.parallel` decides per segment whether splitting pays
at all. An explicit ``morsel_rows`` forces an N-row split, which the
differential tests use to exercise every merge path on small data.
"""

from __future__ import annotations

from repro.obs.trace import NULL_TRACER, OperatorSpanScope

from .compression import CompressedColumn
from .frame import Frame
from .profile import WorkProfile
from .table import Database, Table

__all__ = [
    "MorselContext",
    "morsel_ranges",
    "scan_morsel",
    "table_is_morselable",
]


def morsel_ranges(nrows: int, morsel_rows: int) -> list[tuple[int, int]]:
    """Split ``[0, nrows)`` into contiguous ``(start, stop)`` morsels."""
    if morsel_rows < 1:
        raise ValueError("morsel_rows must be >= 1")
    return [(start, min(start + morsel_rows, nrows))
            for start in range(0, nrows, morsel_rows)]


# Encodings with true random access: a morsel can decode (or evaluate)
# exactly its own rows. Delta stays serial — its prefix sums make every
# morsel pay for all rows before it.
_SLICEABLE_ENCODINGS = frozenset({"bitpack", "for", "rle"})


def table_is_morselable(
    table: Table, columns: list[str] | None, allow_encoded: bool = False
) -> bool:
    """Whether every needed column supports positional slicing.

    Plain columns always do. Compressed columns keep such scans serial
    unless ``allow_encoded`` (compressed execution is on) and the
    encoding has random access — then :func:`scan_morsel` decodes or
    encoded-evaluates exactly its own row range.
    """
    names = columns if columns is not None else table.column_names
    for n in names:
        col = table.column(n)
        if not isinstance(col, CompressedColumn):
            continue
        if not allow_encoded or col.encoding_name not in _SLICEABLE_ENCODINGS:
            return False
    return True


class MorselContext:
    """Execution context scoped to one morsel.

    Operators charge work into a private :class:`WorkProfile`; scalar
    subqueries delegate to the parent query's context (whose cache the
    parallel executor pre-warms on the main thread, so worker-thread
    lookups never re-enter the executor), and so do dictionary passes,
    so all morsels of a query share one memo.
    """

    def __init__(self, db: Database, parent, tracer=None, span=None):
        self.db = db
        self._parent = parent
        # Morsels inherit the query's cancel token: the scan re-checks
        # it so a cancellation that lands between scheduling and
        # execution still stops the morsel before it streams any bytes.
        self.cancel = getattr(parent, "cancel", None)
        # Morsels also inherit the query's memory budget and spill
        # policy, so every worker's partial state charges one shared
        # budget (and spills against it when over).
        self.budget = getattr(parent, "budget", None)
        self.spilling = getattr(parent, "spilling", True)
        self.profile = WorkProfile()
        self.work = None
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.span = span
        # Per-morsel operator spans are marked ``fragment`` — their work
        # records are coalesced away by the profile merge, so trace
        # reconciliation counts only the coalesced (profile-resident)
        # operator spans the parallel executor emits at merge time.
        self._ops = (
            OperatorSpanScope(self.tracer, span, fragment=True)
            if self.tracer.enabled
            else None
        )

    def begin_operator(self, name: str):
        work = self.profile.new_operator(name)
        self.work = work
        if self._ops is not None:
            self._ops.begin(name, work)
        return work

    @property
    def op_span(self):
        return self._ops.open_span if self._ops is not None else None

    def close_op_span(self) -> None:
        if self._ops is not None:
            self._ops.close()

    def scalar(self, plan) -> object:
        return self._parent.scalar(plan)

    def dictionary_memo(self, key: tuple, dictionary, compute):
        return self._parent.dictionary_memo(key, dictionary, compute)


def scan_morsel(
    table: Table,
    columns: list[str] | None,
    start: int,
    stop: int,
    ctx,
    predicate=None,
    skipping: bool = True,
    late: bool = False,
    compressed: bool = False,
    blocks=None,
) -> Frame:
    """Materialize one morsel of a table scan (zero-copy column slices).

    Delegates to :func:`~repro.engine.operators.scan.scan_range` — the
    exact code path the serial executor uses — so pushed-down predicates
    and zone-map skipping behave identically per morsel, and the
    per-morsel profiles sum to the serial scan's profile. With ``late``
    the morsel comes back as a selection over the full base columns
    (row ids are absolute), so downstream late kernels compose across
    morsels exactly as they do serially.
    """
    from .operators.scan import scan_range

    cancel = getattr(ctx, "cancel", None)
    if cancel is not None:
        cancel.check()
    return scan_range(
        table, columns, start, stop, ctx, predicate, skipping,
        late=late, compressed=compressed, blocks=blocks,
    )
