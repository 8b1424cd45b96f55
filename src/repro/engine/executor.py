"""Full-materialization (MonetDB-style) plan executor with profiling."""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager

from repro.obs.trace import NULL_TRACER, OperatorSpanScope

from .frame import Frame
from .optimizer import DEFAULT_SETTINGS, OptimizerSettings, optimize_plan
from .plan import (
    AggregateNode,
    DistinctNode,
    FilterNode,
    JoinNode,
    LimitNode,
    PlanNode,
    ProjectNode,
    Q,
    ScanNode,
    SortNode,
    UnionAllNode,
)
from .profile import OperatorWork, WorkProfile
from .result import Result
from .table import Database
from .operators.aggregate import try_encoded_aggregate
from .operators.distinct import execute_distinct
from .operators.filter import execute_filter
from .operators.limit import execute_limit
from .operators.project import execute_project
from .operators.scan import execute_scan
from .operators.sort import execute_sort, execute_topk
from .operators.unionall import execute_union_all
from .spill import MemoryBudget, maybe_spill_aggregate, maybe_spill_join

__all__ = ["ExecContext", "Executor", "execute"]


def _annotate_rollups(qspan, node: PlanNode, settings: OptimizerSettings) -> None:
    """Tag a query span with the rollup tables its (optimized) plan
    scans, so routing decisions are visible in traces."""
    if not settings.rollups:
        return
    from repro.rollup.router import routed_tables

    routed = routed_tables(node)
    if routed:
        qspan.annotate(rollup=",".join(routed))


class ExecContext:
    """Per-query execution state: the accumulating profile, the operator
    currently charging work, the scalar-subquery cache, and the
    dictionary memo."""

    def __init__(
        self,
        db: Database,
        executor: "Executor",
        tracer=None,
        parent_span=None,
        cancel=None,
    ):
        self.db = db
        self._executor = executor
        self.cancel = cancel
        # Budget-aware operator dispatch (spill.py) reads these; morsel
        # contexts inherit both so workers share one budget.
        self.budget = getattr(executor, "memory_budget", None)
        self.spilling = executor.settings.spilling
        self.profile = WorkProfile()
        self.work: OperatorWork | None = None
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.pipeline_span = parent_span
        # Span bookkeeping exists only when tracing: the disabled hot
        # path pays a single ``is not None`` check per operator.
        self._ops = (
            OperatorSpanScope(self.tracer, parent_span)
            if self.tracer.enabled
            else None
        )
        self._scalar_cache: dict[int, object] = {}
        # Reentrant: a scalar subquery's plan may itself reference another
        # scalar subquery. Morsel workers share this context, so cache
        # fills must be serialized.
        self._scalar_lock = threading.RLock()
        # (key, id(dictionary)) -> (dictionary, value). The entry holds
        # the dictionary itself so its id cannot be recycled while the
        # query runs; the memo dies with the context, so it never serves
        # a later query.
        self._dictionary_memo: dict[tuple, tuple] = {}
        self._dictionary_lock = threading.Lock()

    def begin_operator(self, name: str) -> OperatorWork:
        """Open a new operator: append its work record to the profile
        and (when tracing) start its span, closing the previous one."""
        work = self.profile.new_operator(name)
        self.work = work
        if self._ops is not None:
            self._ops.begin(name, work)
        return work

    @property
    def op_span(self):
        """The currently open operator span (None when not tracing)."""
        return self._ops.open_span if self._ops is not None else None

    def close_op_span(self) -> None:
        if self._ops is not None:
            self._ops.close()

    @contextmanager
    def pipeline(self, name: str, **attrs):
        """Run a block as a child pipeline span annotated with ``attrs``;
        operators begun inside nest under it. Yields the span, or
        ``None`` when not tracing."""
        if self._ops is None:
            yield None
            return
        self._ops.close()
        outer = self._ops.parent
        span = self.tracer.start("pipeline", name, parent=outer)
        span.annotate(**attrs)
        self._ops.parent = span
        try:
            yield span
        finally:
            self._ops.close()
            self._ops.parent = outer
            self.tracer.finish(span)

    def dictionary_memo(self, key: tuple, dictionary, compute):
        """``compute(dictionary)`` once per query for each ``key``.

        String kernels run over a column's whole dictionary, and every
        slice of a column shares it, so without the memo each morsel
        would redo the same pass. The lock makes the memo single-flight:
        concurrent morsels wait for the first computation instead of all
        missing at once (the passes are GIL-bound, so waiting costs
        nothing a parallel miss would have saved)."""
        slot = (key, id(dictionary))
        with self._dictionary_lock:
            entry = self._dictionary_memo.get(slot)
            if entry is None:
                entry = (dictionary, compute(dictionary))
                self._dictionary_memo[slot] = entry
            return entry[1]

    def scalar(self, plan) -> object:
        """Evaluate an uncorrelated scalar subquery once, merging its work
        into this query's profile."""
        key = id(plan)
        with self._scalar_lock:
            if key not in self._scalar_cache:
                saved = self.work
                node = plan.node if isinstance(plan, Q) else plan
                frame = self._executor._exec(node, self)
                self.work = saved
                if frame.nrows != 1 or len(frame.columns) != 1:
                    raise ValueError("scalar subquery must produce a 1x1 result")
                name = next(iter(frame.columns))
                self._scalar_cache[key] = frame.column(name).to_list()[0]
            return self._scalar_cache[key]


class Executor:
    """Executes logical plans against a database catalog."""

    def __init__(
        self,
        db: Database,
        settings: OptimizerSettings | None = None,
        tracer=None,
        memory_budget: "MemoryBudget | int | None" = None,
    ):
        self.db = db
        self.settings = settings if settings is not None else DEFAULT_SETTINGS
        self.tracer = tracer if tracer is not None else NULL_TRACER
        if memory_budget is not None and not isinstance(memory_budget, MemoryBudget):
            memory_budget = MemoryBudget(limit_bytes=int(memory_budget))
        self.memory_budget = memory_budget

    def execute(
        self,
        plan: "Q | PlanNode",
        optimize: bool = True,
        label: str | None = None,
        parent_span=None,
        cancel=None,
    ) -> Result:
        """Run a plan and return its :class:`Result` (rows + profile).

        With a tracer attached, the execution contributes one "query"
        root span (or a child of ``parent_span`` — the cluster drivers
        nest per-node executions under their shard spans), labeled
        ``label`` when given. ``cancel`` is an optional
        :class:`~repro.engine.cancel.CancelToken` checked at every
        operator dispatch.
        """
        node = plan.node if isinstance(plan, Q) else plan
        if node is None:
            raise ValueError("cannot execute an empty plan")
        if cancel is not None:
            cancel.check()
        if optimize:
            node = optimize_plan(node, self.db, self.settings)

        tracer = self.tracer
        qspan = pspan = None
        if tracer.enabled:
            qspan = tracer.start("query", label or "query", parent=parent_span)
            _annotate_rollups(qspan, node, self.settings)
            pspan = tracer.start("pipeline", "main", parent=qspan)
        ctx = ExecContext(self.db, self, tracer=tracer, parent_span=pspan, cancel=cancel)
        start = time.perf_counter()
        try:
            frame = self._exec(node, ctx)
            if frame.is_late:
                # The result boundary is the last pipeline breaker: gather
                # the surviving rows and charge it to the final operator.
                frame = frame.dense(
                    ctx.profile.operators[-1] if ctx.profile.operators else None
                )
        except BaseException:
            if qspan is not None:
                qspan.annotate(error=True)
                ctx.close_op_span()
                tracer.finish(pspan)
                tracer.finish(qspan)
                tracer.finalize(qspan)
            raise
        elapsed = time.perf_counter() - start
        if qspan is not None:
            ctx.close_op_span()
            tracer.finish(pspan)
            qspan.annotate(
                rows=frame.nrows, operators=len(ctx.profile.operators)
            )
            tracer.finish(qspan)
            tracer.finalize(qspan)
        return Result(frame, ctx.profile, wall_seconds=elapsed)

    # ------------------------------------------------------------------

    def _exec(self, node: PlanNode, ctx: ExecContext) -> Frame:
        if ctx.cancel is not None:
            ctx.cancel.check()
        if isinstance(node, ScanNode):
            ctx.begin_operator("scan")
            cols = list(node.columns) if node.columns is not None else None
            return execute_scan(
                self.db.table(node.table),
                cols,
                ctx,
                predicate=node.predicate,
                skipping=self.settings.zone_map_skipping,
                late=self.settings.late_materialization,
                compressed=self.settings.compressed_execution,
            )
        if isinstance(node, FilterNode):
            child = self._exec(node.child, ctx)
            ctx.begin_operator("filter")
            return execute_filter(
                child, node.predicate, ctx,
                late=self.settings.late_materialization,
            )
        if isinstance(node, ProjectNode):
            child = self._exec(node.child, ctx)
            ctx.begin_operator("project")
            return execute_project(child, dict(node.exprs), ctx)
        if isinstance(node, JoinNode):
            left = self._exec(node.left, ctx)
            right = self._exec(node.right, ctx)
            ctx.begin_operator("hashjoin")
            return maybe_spill_join(
                left, right, list(node.left_on), list(node.right_on), node.how, ctx
            )
        if isinstance(node, AggregateNode):
            if (
                self.settings.compressed_execution
                and isinstance(node.child, ScanNode)
                and node.child.predicate is None
            ):
                frame = try_encoded_aggregate(node, self.db, ctx)
                if frame is not None:
                    return frame
            child = self._exec(node.child, ctx)
            ctx.begin_operator("aggregate")
            return maybe_spill_aggregate(
                child, list(node.group_by), dict(node.aggs), ctx
            )
        if isinstance(node, SortNode):
            child = self._exec(node.child, ctx)
            ctx.begin_operator("sort")
            return execute_sort(child, list(node.keys), ctx)
        if isinstance(node, LimitNode):
            if isinstance(node.child, SortNode):
                # Physical top-k: fuse ORDER BY + LIMIT (partition select
                # instead of a full sort).
                child = self._exec(node.child.child, ctx)
                ctx.begin_operator("topk")
                return execute_topk(child, list(node.child.keys), node.n, ctx)
            child = self._exec(node.child, ctx)
            ctx.begin_operator("limit")
            return execute_limit(child, node.n, ctx)
        if isinstance(node, UnionAllNode):
            left = self._exec(node.left, ctx)
            right = self._exec(node.right, ctx)
            ctx.begin_operator("unionall")
            return execute_union_all(left, right, ctx)
        if isinstance(node, DistinctNode):
            child = self._exec(node.child, ctx)
            ctx.begin_operator("distinct")
            return execute_distinct(
                child, list(node.columns) if node.columns else None, ctx
            )
        raise TypeError(f"unknown plan node {type(node).__name__}")


def execute(
    db: Database,
    plan: "Q | PlanNode",
    optimize: bool = True,
    settings: OptimizerSettings | None = None,
    tracer=None,
    label: str | None = None,
    cancel=None,
    memory_budget: "MemoryBudget | int | None" = None,
) -> Result:
    """Convenience wrapper: ``Executor(db).execute(plan)``."""
    return Executor(db, settings, tracer=tracer, memory_budget=memory_budget).execute(
        plan, optimize=optimize, label=label, cancel=cancel
    )
