"""Morsel-driven parallel plan executor.

:class:`ParallelExecutor` is a drop-in for
:class:`~repro.engine.executor.Executor` that keeps a wimpy node's cores
busy where that pays (the paper's Table I point: the Pi 3B+ has four
cores). It works on *parallelizable segments* — maximal scan →
filter/project chains over a base table, optionally capped by a
decomposable aggregate or a fused top-k. Everything outside a segment
(joins, sorts, DISTINCT, non-decomposable aggregates) runs serially over
the segments' outputs, so *every* plan executes correctly; parallelism
is an optimization, never a semantics change.

Each segment runs one of two ways, chosen per segment by a work gate
(:meth:`ParallelExecutor._split`): serially, through exactly the
operator calls the serial executor makes, or pooled — once per morsel
on a shared ``ThreadPoolExecutor`` (the numpy kernels release the GIL),
with the partial states merged by :mod:`repro.engine.merge`. A morsel
costs fixed Python time, so a pooled segment cuts one contiguous range
per worker, and it pools only when its work (rows x per-row expression
operations) repays the handoff and, for an aggregate, when per-worker
partials shrink the input. Late morsel frames over the same base columns merge by
concatenating their row ids, so a pooled chain hands the next operator
the same selection vector a serial scan would.

Performance-model reproductions (Table II/III) price *serial* work
profiles, so the gate changes host wall time only, never the modeled
Pi numbers.

Repeated plans are served from a plan-fingerprint
:class:`~repro.engine.cache.ResultCache` (single-flight), which is what
the Fig. 3 / Table II sweeps hit when they re-run the same 22 queries
per platform.
"""

from __future__ import annotations

import math
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor as _ThreadPool

from repro.obs.metrics import HitMissStats

from .cache import ResultCache
from .executor import ExecContext, Executor, _annotate_rollups
from .expr import ColRef, Expr, Literal, ScalarSubquery
from .fingerprint import plan_fingerprint
from .frame import Frame
from .merge import (
    concat_frames,
    decompose_aggregates,
    merge_partial_aggregates,
    merge_profiles,
    merge_topk,
)
from .morsel import (
    MorselContext,
    morsel_ranges,
    scan_morsel,
    table_is_morselable,
)
from .operators.aggregate import try_encoded_aggregate
from .operators.filter import execute_filter
from .operators.project import execute_project
from .operators.sort import execute_topk
from .optimizer import OptimizerSettings, optimize_plan
from .profile import WorkProfile
from .plan import (
    AggregateNode,
    FilterNode,
    LimitNode,
    PlanNode,
    ProjectNode,
    Q,
    ScanNode,
    SortNode,
)
from .result import Result
from .spill import aggregate_row_bytes, maybe_spill_aggregate
from .types import STRING
from .zonemap import BLOCK_SKIP, classify_blocks, extract_sargable, split_conjuncts

__all__ = ["MAX_RANGE_BYTES", "POOL_MIN_WORK", "ParallelExecutor"]

# Work (table rows x expression operations per row) a segment needs
# before pooling it pays. Pooling costs about 1 ms per segment on a
# 2-core x86 host (CPython 3.11): per-range zone-map classification,
# morsel contexts and frames, the thread handoff, the profile merge, and
# the consumer reading rows another core wrote. One vectorized operation
# costs about 0.5 ns per row there (0.1 for a mask AND, 1.6 for a float
# multiply, over 600K rows), and two workers save at most half of
# the serial time, so a split breaks even near 1 ms / (0.5 ns / 2) =
# 4M row-operations. At SF 0.1 that pools Q1's, Q6's and Q12's lineitem
# segments (9 to 15 operations per row) and leaves cheap chains such as
# Q3's one compare, and every table smaller than lineitem, serial.
POOL_MIN_WORK = 4_000_000

# Largest working set one range may hold. A worker holds its range's
# streamed columns (rewritten densely when a scan keeps most rows) and
# one array per computed expression at once, and every pooled range of
# every running query is resident together: Q1's lineitem segment at SF
# 0.1 peaks at 13 MiB with 64K-row morsels but at 39 MiB with two
# 300K-row ranges, which left a server about 30 MiB larger after one pass
# over the 22 TPC-H queries. A worker whose share would exceed this splits it into equal
# ranges (Q1 at SF 0.1 on two workers: four 150K-row ranges; Q6, whose
# rows are narrower, keeps two).
MAX_RANGE_BYTES = 16 << 20

# Pool decisions per candidate segment: a hit pooled it, a miss ran it
# serially (the span's ``reason`` attr says which gate decided).
pool_stats = HitMissStats("engine.parallel.pool")


def _collect_scalar_subqueries(obj, found: list[ScalarSubquery]) -> None:
    """Find every ScalarSubquery reachable from an expression tree."""
    if isinstance(obj, ScalarSubquery):
        found.append(obj)
        return
    if isinstance(obj, Expr):
        for value in vars(obj).values():
            _collect_scalar_subqueries(value, found)
    elif isinstance(obj, (list, tuple)):
        for value in obj:
            _collect_scalar_subqueries(value, found)


def _expr_ops(obj) -> int:
    """Vectorized operations an expression tree applies per row (column
    references, literals and scalar subqueries cost none)."""
    if isinstance(obj, (ColRef, Literal, ScalarSubquery)):
        return 0
    if isinstance(obj, Expr):
        return 1 + sum(_expr_ops(value) for value in vars(obj).values())
    if isinstance(obj, (list, tuple)):
        return sum(_expr_ops(value) for value in obj)
    return 0


def _column_domain(table, name: str) -> float:
    """Upper bound on the distinct values of a base column: a string's
    dictionary size, an integer's or date's zone-map span (NULL counts
    as one more value); ``inf`` otherwise."""
    column = table.column(name)
    if column.dtype is STRING:
        return len(column.dictionary) + (getattr(column, "valid", None) is not None)
    zone = table.zone_map(name)
    if zone is None or zone.nblocks == 0 or zone.mins.dtype.kind not in "iu":
        return math.inf
    return int(zone.maxs.max()) - int(zone.mins.min()) + 1 + bool(zone.null_counts.any())


class _Segment:
    """A parallelizable plan fragment: a scan chain plus an optional cap."""

    __slots__ = ("kind", "chain", "node")

    def __init__(self, kind: str, chain: list[PlanNode], node: PlanNode):
        self.kind = kind  # "chain" | "aggregate" | "topk"
        self.chain = chain  # [ScanNode, Filter/Project, ...] bottom-up
        self.node = node  # the plan node the segment replaces

    def row_ops(self) -> int:
        """Expression operations the segment applies per scanned row: its
        predicates and computed columns, one per aggregate or sort key
        plus the aggregates' input expressions."""
        exprs: list = [self.chain[0].predicate]
        for op in self.chain[1:]:
            exprs += [op.predicate] if isinstance(op, FilterNode) else [e for _, e in op.exprs]
        if self.kind == "aggregate":
            exprs += [spec.expr for _, spec in self.node.aggs]
            return _expr_ops(exprs) + len(self.node.aggs)
        if self.kind == "topk":
            return _expr_ops(exprs) + len(self.node.child.keys)
        return _expr_ops(exprs)

    def row_bytes(self, table) -> int:
        """Working-set bytes per row of a range: every column the scan
        streams, plus an 8-byte array per computed expression."""
        scan = self.chain[0]
        names = set(scan.columns) if scan.columns is not None else set(table.column_names)
        if scan.predicate is not None:
            names |= scan.predicate.references()
        exprs = [e for op in self.chain[1:] if isinstance(op, ProjectNode) for _, e in op.exprs]
        if self.kind == "aggregate":
            exprs += [spec.expr for _, spec in self.node.aggs]
        computed = sum(1 for e in exprs if e is not None and not isinstance(e, ColRef))
        return sum(table.column(n).dtype.width for n in names) + 8 * computed

    def group_domain(self, table) -> float:
        """Upper bound on an aggregate's groups: the product of its keys'
        base-column domains (``inf`` when a key is computed)."""
        total = 1
        for name in self.node.group_by:
            for op in reversed(self.chain[1:]):
                if isinstance(op, ProjectNode):
                    expr = dict(op.exprs).get(name)
                    if not isinstance(expr, ColRef):
                        return math.inf
                    name = expr.name
            total *= _column_domain(table, name)
        return total


class ParallelExecutor(Executor):
    """Executes plans with intra-query (morsel) parallelism.

    Args:
        db: the database catalog.
        workers: thread count (default: all host cores).
        morsel_rows: ``None`` (the default) lets the work gate decide
            each segment and cuts one range per worker; an explicit
            value forces every segment into morsels of at most that many
            rows (and at least one per worker), even with one worker —
            tests use it to drive every merge path on small data.
        cache_size: LRU capacity of the plan-fingerprint result cache;
            ``0`` disables caching.
    """

    def __init__(
        self,
        db,
        workers: int | None = None,
        morsel_rows: int | None = None,
        cache_size: int = 64,
        settings: OptimizerSettings | None = None,
        tracer=None,
        memory_budget=None,
    ):
        super().__init__(db, settings, tracer=tracer, memory_budget=memory_budget)
        self.workers = max(1, workers if workers is not None else (os.cpu_count() or 1))
        self.morsel_rows = None if morsel_rows is None else max(1, morsel_rows)
        self.cache: ResultCache | None = ResultCache(cache_size) if cache_size else None
        # Semantic layer: caches literal-free finer aggregates so shape
        # re-runs with new filter literals re-slice instead of re-scan.
        # Tied to cache_size so "caching off" disables both layers.
        self.semantic: ResultCache | None = (
            ResultCache(capacity=16, stats_name="rollup.semantic_cache")
            if cache_size
            else None
        )
        self._pool: _ThreadPool | None = None
        self._pool_lock = threading.Lock()

    # -- lifecycle ------------------------------------------------------

    def _ensure_pool(self) -> _ThreadPool:
        with self._pool_lock:
            if self._pool is None:
                self._pool = _ThreadPool(
                    max_workers=self.workers, thread_name_prefix="morsel"
                )
            return self._pool

    def close(self) -> None:
        """Shut down the worker pool (idempotent)."""
        with self._pool_lock:
            if self._pool is not None:
                self._pool.shutdown(wait=True)
                self._pool = None

    def __enter__(self) -> "ParallelExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - interpreter-shutdown best effort
        try:
            self.close()
        except Exception:
            pass

    # -- entry point ----------------------------------------------------

    def execute(
        self,
        plan: "Q | PlanNode",
        optimize: bool = True,
        label: str | None = None,
        parent_span=None,
        cancel=None,
    ) -> Result:
        node = plan.node if isinstance(plan, Q) else plan
        if node is None:
            raise ValueError("cannot execute an empty plan")
        if cancel is not None:
            cancel.check()
        if optimize:
            node = optimize_plan(node, self.db, self.settings)

        tracer = self.tracer
        qspan = (
            tracer.start("query", label or "query", parent=parent_span)
            if tracer.enabled
            else None
        )
        if qspan is not None:
            _annotate_rollups(qspan, node, self.settings)
        start = time.perf_counter()
        try:
            if self.cache is None:
                frame, profile = self._run(node, qspan, cancel)
                was_cached = False
            else:
                key = plan_fingerprint(node, self.settings)
                (frame, profile), was_cached = self.cache.get_or_run(
                    key, lambda: self._run(node, qspan, cancel), cancel=cancel
                )
        except BaseException:
            if qspan is not None:
                qspan.annotate(error=True)
                tracer.finish(qspan)
                tracer.finalize(qspan)
            raise
        if qspan is not None:
            # A cache hit leaves the span childless: the observation is
            # "this execution was served from the result cache".
            qspan.annotate(
                cached=was_cached, rows=frame.nrows,
                operators=len(profile.operators),
            )
            tracer.finish(qspan)
            tracer.finalize(qspan)
        return Result(
            frame, profile,
            wall_seconds=time.perf_counter() - start,
            cached=was_cached,
        )

    def _run(self, node: PlanNode, qspan=None, cancel=None) -> tuple[Frame, "object"]:
        """Execute an optimized plan, preferring the semantic cache.

        When the plan splits into a literal-free finer aggregate plus a
        re-slice (:mod:`repro.rollup.semantic`), the finer aggregate is
        cached once and every literal variation of the shape answers
        from it. Anything unsplittable executes directly.
        """
        split = None
        if (
            self.semantic is not None
            and self.settings.rollups
            and getattr(self.db, "rollups", None) is not None
        ):
            from repro.rollup.semantic import semantic_plan

            try:
                split = semantic_plan(node, self.db)
            except Exception:
                split = None
        if split is None:
            return self._run_direct(node, qspan, cancel)

        from repro.rollup.semantic import MAX_SEMANTIC_CELLS, run_residual

        key = plan_fingerprint(split.finer, self.settings) + split.cache_suffix

        def build():
            finer = optimize_plan(split.finer, self.db, self.settings)
            frame, profile = self._run_direct(finer, qspan, cancel)
            if frame.nrows > MAX_SEMANTIC_CELLS:
                # Negative-cache oversized shapes: a re-slice over this
                # many cells would rival the base scan.
                return None
            return frame, profile

        value, was_cached = self.semantic.get_or_run(key, build, cancel=cancel)
        if value is None:
            return self._run_direct(node, qspan, cancel)
        finer_frame, build_profile = value
        residual = run_residual(split, finer_frame, self.settings)
        if qspan is not None:
            qspan.annotate(semantic="hit" if was_cached else "build")
        if was_cached:
            # The only real work this execution did was the re-slice.
            return residual.frame, residual.profile
        combined = WorkProfile()
        combined.absorb(build_profile)
        combined.absorb(residual.profile)
        return residual.frame, combined

    def _run_direct(
        self, node: PlanNode, qspan=None, cancel=None
    ) -> tuple[Frame, "object"]:
        tracer = self.tracer
        pspan = (
            tracer.start("pipeline", "main", parent=qspan)
            if qspan is not None
            else None
        )
        ctx = ExecContext(self.db, self, tracer=tracer, parent_span=pspan, cancel=cancel)
        frame = self._exec(node, ctx)
        if frame.is_late:
            frame = frame.dense(
                ctx.profile.operators[-1] if ctx.profile.operators else None
            )
        if pspan is not None:
            ctx.close_op_span()
            tracer.finish(pspan)
        return frame, ctx.profile

    # -- segment detection ---------------------------------------------

    def _exec(self, node: PlanNode, ctx: ExecContext) -> Frame:
        if (
            isinstance(node, AggregateNode)
            and self.settings.compressed_execution
            and isinstance(node.child, ScanNode)
            and node.child.predicate is None
        ):
            # Run-level aggregation touches one value per RLE run; even a
            # perfect morsel split cannot beat that, so it pre-empts
            # segment matching.
            frame = try_encoded_aggregate(node, self.db, ctx)
            if frame is not None:
                return frame
        segment = self._match_segment(node)
        if segment is not None:
            return self._exec_segment(segment, ctx)
        return super()._exec(node, ctx)

    def _scan_chain(self, node: PlanNode) -> list[PlanNode] | None:
        """Bottom-up [scan, op, ...] if ``node`` is a morselable chain."""
        ops: list[PlanNode] = []
        current = node
        while isinstance(current, (FilterNode, ProjectNode)):
            ops.append(current)
            current = current.child
        if not isinstance(current, ScanNode):
            return None
        table = self.db.table(current.table)
        columns = list(current.columns) if current.columns is not None else None
        # The morselable check must cover every column the scan streams,
        # including predicate-only columns it never emits.
        needed = columns
        if current.predicate is not None:
            needed = list(table.column_names) if columns is None else list(columns)
            for ref in sorted(current.predicate.references()):
                if ref not in needed:
                    needed.append(ref)
        if not table_is_morselable(
            table, needed, allow_encoded=self.settings.compressed_execution
        ):
            return None
        return [current] + ops[::-1]

    def _match_segment(self, node: PlanNode) -> _Segment | None:
        if isinstance(node, AggregateNode):
            chain = self._scan_chain(node.child)
            if chain is not None and decompose_aggregates(dict(node.aggs)) is not None:
                return _Segment("aggregate", chain, node)
            return None
        if isinstance(node, LimitNode) and isinstance(node.child, SortNode):
            chain = self._scan_chain(node.child.child)
            if chain is not None and node.n > 0:
                return _Segment("topk", chain, node)
            return None
        if isinstance(node, (FilterNode, ProjectNode)):
            chain = self._scan_chain(node)
            if chain is not None:
                return _Segment("chain", chain, node)
        if isinstance(node, ScanNode) and node.predicate is not None:
            # A scan with a pushed-down predicate carries real per-row
            # work (and skipping), so it parallelizes like scan+filter.
            chain = self._scan_chain(node)
            if chain is not None:
                return _Segment("chain", chain, node)
        # Bare predicate-free scans stay serial: slicing + re-concatenating
        # columns would copy every array for zero computational gain.
        return None

    # -- segment execution ---------------------------------------------

    def _split(
        self, segment: _Segment, table, partial_aggs
    ) -> tuple[str, list[tuple[int, int]]]:
        """The work gate: ``(reason, ranges)`` for a candidate segment;
        fewer than two ranges runs it serially. ``reason`` names the rule
        that decided:

        * ``forced`` — an explicit ``morsel_rows`` splits every segment.
        * ``budget`` — under a memory budget the serial aggregate would
          overflow, a grouped aggregate pools in ranges small enough
          that one partial fits its worker's share of the budget, so
          partials pre-aggregate in memory and only the merge spills.
        * ``rows`` — below :data:`POOL_MIN_WORK` (rows x per-row
          operations) the segment runs serially; above it, one range
          per worker (or equal ranges of at most
          :data:`MAX_RANGE_BYTES` each).
        * ``domain`` — an aggregate whose group keys may have more
          distinct values than a range has rows runs serially: partials
          would not shrink the input, so the merge would redo its work.
        """
        nrows = table.nrows
        per_worker = -(-nrows // self.workers)
        if self.morsel_rows is not None:
            return "forced", morsel_ranges(nrows, max(1, min(self.morsel_rows, per_worker)))
        grouped = segment.kind == "aggregate" and bool(segment.node.group_by)
        budget = self.memory_budget
        if self.workers > 1 and grouped and budget is not None and budget.limit_bytes is not None:
            row_bytes = aggregate_row_bytes(segment.node.group_by, partial_aggs)
            if nrows * row_bytes > budget.limit_bytes:
                bound = max(1, budget.limit_bytes // self.workers // row_bytes)
                return "budget", morsel_ranges(nrows, min(per_worker, bound))
        if self.workers < 2 or nrows * segment.row_ops() < POOL_MIN_WORK:
            return "rows", [(0, nrows)]
        splits = -(-per_worker * segment.row_bytes(table) // MAX_RANGE_BYTES)
        range_rows = -(-nrows // (self.workers * splits))
        if grouped and segment.group_domain(table) > range_rows:
            return "domain", [(0, nrows)]
        return "rows", morsel_ranges(nrows, range_rows)

    def _run_pipeline(
        self, segment: _Segment, bounds: tuple[int, int], ctx, aggs, blocks=None
    ) -> Frame:
        """Run the segment over rows ``[lo, hi)`` of its table with the
        serial executor's operator calls, charging ``ctx``; ``aggs`` are
        the final aggregates serially, the partial ones per morsel, and
        ``blocks`` the range's zone-map classification if known."""
        scan = segment.chain[0]
        late = self.settings.late_materialization
        ctx.begin_operator("scan")
        frame = scan_morsel(
            self.db.table(scan.table),
            list(scan.columns) if scan.columns is not None else None,
            bounds[0], bounds[1], ctx,
            predicate=scan.predicate,
            skipping=self.settings.zone_map_skipping,
            late=late,
            compressed=self.settings.compressed_execution,
            blocks=blocks,
        )
        for op in segment.chain[1:]:
            if isinstance(op, FilterNode):
                ctx.begin_operator("filter")
                frame = execute_filter(frame, op.predicate, ctx, late=late)
            else:
                ctx.begin_operator("project")
                frame = execute_project(frame, dict(op.exprs), ctx)
        if segment.kind == "aggregate":
            ctx.begin_operator("aggregate")
            # Budget-aware: each worker's partial state charges the
            # query's shared MemoryBudget and spills when over.
            frame = maybe_spill_aggregate(frame, list(segment.node.group_by), aggs, ctx)
        elif segment.kind == "topk":
            ctx.begin_operator("topk")
            frame = execute_topk(
                frame, list(segment.node.child.keys), segment.node.n, ctx
            )
        return frame

    def _preskip_morsels(
        self, table, scan: ScanNode, ranges: list[tuple[int, int]]
    ) -> tuple[list[tuple[int, int]], dict, dict | None]:
        """Drop morsels the zone maps prove entirely empty before they are
        ever scheduled — skipped work should not even cost a thread handoff.

        Returns the surviving ranges, their block classifications (keyed
        by range; each worker's scan reuses its range's instead of
        classifying again, and charges its probes), and the accounting
        for the dropped ranges (zone probes spent, bytes and blocks
        skipped). At least one range is always kept so the segment still
        produces a well-formed (possibly empty) frame through the normal
        path.
        """
        conjuncts = split_conjuncts(scan.predicate)
        sargable = [s for s in (extract_sargable(c) for c in conjuncts) if s is not None]
        if not sargable:
            return ranges, {}, None
        names = list(scan.columns) if scan.columns is not None else list(table.column_names)
        for ref in sorted(scan.predicate.references()):
            if ref not in names:
                names.append(ref)
        row_width = sum(table.column(n).dtype.width for n in names)
        kept: list[tuple[int, int]] = []
        dropped: list[tuple[int, int, int, int]] = []
        blocks: dict[tuple[int, int], tuple] = {}
        for lo, hi in ranges:
            codes, probes = classify_blocks(table, sargable, lo, hi)
            blocks[lo, hi] = (codes, probes)
            if len(codes) and bool((codes == BLOCK_SKIP).all()):
                dropped.append((lo, hi, probes, len(codes)))
            else:
                kept.append((lo, hi))
        if not kept and dropped:
            lo, hi, _, _ = dropped.pop(0)
            kept.append((lo, hi))  # its worker charges the skip itself
        if not dropped:
            return kept, blocks, None
        stats = {
            "skipped_bytes": float(sum((hi - lo) * row_width for lo, hi, _, _ in dropped)),
            "zone_probes": sum(p for _, _, p, _ in dropped),
            "blocks_skipped": sum(b for _, _, _, b in dropped),
        }
        return kept, blocks, stats

    def _exec_segment(self, segment: _Segment, ctx: ExecContext) -> Frame:
        scan = segment.chain[0]
        table = self.db.table(scan.table)

        # Resolve scalar subqueries on the main thread so morsel workers
        # only ever hit the warm cache — a worker re-entering the executor
        # could otherwise deadlock the pool on itself. Serial segments
        # resolve them here too, so a subquery's own segments never nest
        # inside this one's span.
        subqueries: list[ScalarSubquery] = []
        if scan.predicate is not None:
            _collect_scalar_subqueries(scan.predicate, subqueries)
        for op in segment.chain[1:]:
            if isinstance(op, FilterNode):
                _collect_scalar_subqueries(op.predicate, subqueries)
            else:
                _collect_scalar_subqueries([e for _, e in op.exprs], subqueries)
        if segment.kind == "aggregate":
            for _, spec in segment.node.aggs:
                _collect_scalar_subqueries(spec.expr, subqueries)
        for sub in subqueries:
            ctx.scalar(sub.plan)

        partial_aggs = None
        if segment.kind == "aggregate":
            partial_aggs, _ = decompose_aggregates(dict(segment.node.aggs))
        reason, ranges = self._split(segment, table, partial_aggs)
        name = f"segment:{segment.kind}:{scan.table}"
        if len(ranges) < 2:
            pool_stats.miss()
            with ctx.pipeline(name, parallel="serial", reason=reason):
                aggs = dict(segment.node.aggs) if segment.kind == "aggregate" else None
                return self._run_pipeline(segment, (0, table.nrows), ctx, aggs)
        pool_stats.hit()
        with ctx.pipeline(
            name, parallel="pool", reason=reason, workers=self.workers
        ) as seg_span:
            return self._exec_pooled(segment, ctx, ranges, partial_aggs, seg_span)

    def _exec_pooled(
        self, segment: _Segment, ctx: ExecContext, ranges, partial_aggs, seg_span
    ) -> Frame:
        """Run a segment once per morsel on the pool and merge."""
        scan = segment.chain[0]
        table = self.db.table(scan.table)
        pre_skip, blocks = None, {}
        if scan.predicate is not None and self.settings.zone_map_skipping:
            ranges, blocks, pre_skip = self._preskip_morsels(table, scan, ranges)
        if seg_span is not None:
            seg_span.annotate(morsels=len(ranges))

        tracer = ctx.tracer
        tracing = tracer.enabled
        cancel = ctx.cancel

        def run_morsel(bounds: tuple[int, int]) -> tuple[Frame, "object"]:
            # Morsel boundaries are the parallel engine's preemption
            # points: a cancelled query never starts another morsel, so
            # its worker slots free within one in-flight morsel's work.
            if cancel is not None:
                cancel.check()
            if tracing:
                mspan = tracer.start(
                    "morsel", f"{scan.table}[{bounds[0]}:{bounds[1]})",
                    parent=seg_span,
                )
                mctx = MorselContext(self.db, ctx, tracer=tracer, span=mspan)
            else:
                mspan = None
                mctx = MorselContext(self.db, ctx)
            frame = self._run_pipeline(
                segment, bounds, mctx, partial_aggs, blocks.get(bounds)
            )
            if segment.kind != "chain":
                # Partial aggregates and local top-k merge by physical
                # concatenation; gather late morsels here, charged to the
                # morsel's last operator. Chains stay late: their row ids
                # merge without a copy.
                frame = frame.dense(mctx.work)
            if mspan is not None:
                mctx.close_op_span()
                mspan.annotate(rows=frame.nrows)
                tracer.finish(mspan)
            return frame, mctx.profile

        if self.workers > 1:
            results = list(self._ensure_pool().map(run_morsel, ranges))
        else:
            results = [run_morsel(bounds) for bounds in ranges]

        frames = [frame for frame, _ in results]
        merged = merge_profiles([profile for _, profile in results])
        if pre_skip is not None and merged.operators:
            # Morsels dropped before scheduling charge their skip
            # accounting onto the coalesced scan operator.
            scan_op = merged.operators[0]
            scan_op.skipped_bytes += pre_skip["skipped_bytes"]
            scan_op.zone_probes += pre_skip["zone_probes"]
            scan_op.blocks_skipped += pre_skip["blocks_skipped"]
        ctx.profile.absorb(merged)
        # Merge-phase work is charged onto the segment's last (coalesced)
        # operator so the profile keeps the serial operator count.
        ctx.work = ctx.profile.operators[-1] if ctx.profile.operators else None

        if tracing:
            # One operator span per coalesced profile operator: zero-length
            # markers referencing the very OperatorWork objects absorbed
            # into the final profile, so the end-of-query snapshot also
            # captures post-merge charges (merge-phase work, pre-skip
            # accounting, the result-boundary gather). These — not the
            # per-morsel fragment spans — are what reconciles 1:1 against
            # the WorkProfile.
            for op_work in merged.operators:
                mark = tracer.start(
                    "operator", op_work.operator, parent=seg_span, work=op_work
                )
                mark.attrs["coalesced"] = True
                tracer.finish(mark, end_s=mark.start_s)

        if segment.kind == "aggregate":
            return merge_partial_aggregates(
                frames, list(segment.node.group_by), dict(segment.node.aggs), ctx
            )
        if segment.kind == "topk":
            return merge_topk(
                frames, list(segment.node.child.keys), segment.node.n, ctx
            )
        return concat_frames(frames, ctx.work)
