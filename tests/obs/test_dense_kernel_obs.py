"""Which join / group-by kernel ran is visible in the metrics registry
(``engine.dense.*`` hit/miss counters) and on the operator spans of a
trace (``kernel`` attr, also printed by the span-tree renderer)."""

import numpy as np

from repro.engine import Database, Executor, Q, Table, agg, col
from repro.engine.column import Column
from repro.obs import render_tree
from repro.obs.metrics import metrics
from repro.obs.trace import Tracer, iter_spans


def _db() -> Database:
    rng = np.random.default_rng(11)
    keys = rng.integers(0, 50, 2_000)
    db = Database("dense-obs")
    db.add(Table("fact", {
        "k": Column.from_ints(keys.tolist()),
        # The same keys spread over 10^12: no dense domain for either kernel.
        "sparse": Column.from_ints((keys * 10**10).tolist()),
        "v": Column.from_floats(rng.random(len(keys)).tolist()),
    }))
    db.add(Table("dim", {
        "dk": Column.from_ints(list(range(50))),
        "dsparse": Column.from_ints([i * 10**10 for i in range(50)]),
    }))
    return db


DB = _db()


def _counts(prefix: str) -> tuple[float, float]:
    return (metrics.counter(prefix + ".hits").value,
            metrics.counter(prefix + ".misses").value)


def _kernels(tracer: Tracer, name: str) -> list[str]:
    return [
        span.attrs["kernel"]
        for span in iter_spans(tracer.roots[-1])
        if span.kind == "operator" and span.name == name
    ]


def _run(plan: Q, tracer: Tracer | None = None):
    return Executor(DB, tracer=tracer).execute(plan)


class TestDenseMetrics:
    def test_dense_join_counts_a_hit(self):
        before = _counts("engine.dense.join")
        _run(Q(DB).scan("fact").join(Q(DB).scan("dim"), on=[("k", "dk")]))
        hits, misses = _counts("engine.dense.join")
        assert (hits, misses) == (before[0] + 1, before[1])

    def test_sparse_join_counts_a_miss(self):
        before = _counts("engine.dense.join")
        _run(Q(DB).scan("fact").join(Q(DB).scan("dim"), on=[("sparse", "dsparse")]))
        hits, misses = _counts("engine.dense.join")
        assert (hits, misses) == (before[0], before[1] + 1)

    def test_group_by_counts_dense_and_sorted(self):
        before = _counts("engine.dense.group")
        _run(Q(DB).scan("fact").aggregate(by=["k"], s=agg.sum(col("v"))))
        assert _counts("engine.dense.group") == (before[0] + 1, before[1])
        _run(Q(DB).scan("fact").aggregate(by=["sparse"], s=agg.sum(col("v"))))
        assert _counts("engine.dense.group") == (before[0] + 1, before[1] + 1)

    def test_distinct_counts_a_group_kernel(self):
        before = _counts("engine.dense.group")
        _run(Q(DB).scan("fact").distinct("k"))
        assert _counts("engine.dense.group") == (before[0] + 1, before[1])


class TestKernelInTrace:
    def test_join_and_aggregate_spans_carry_kernel(self):
        tracer = Tracer()
        plan = (
            Q(DB).scan("fact")
            .join(Q(DB).scan("dim"), on=[("k", "dk")])
            .aggregate(by=["sparse"], s=agg.sum(col("v")))
        )
        _run(plan, tracer)
        assert _kernels(tracer, "hashjoin") == ["dense"]
        assert _kernels(tracer, "aggregate") == ["sorted"]
        tree = render_tree(tracer)
        assert "kernel=dense" in tree and "kernel=sorted" in tree

    def test_kernel_choice_does_not_change_rows(self):
        dense = _run(Q(DB).scan("fact").aggregate(by=["k"], n=agg.count_star()))
        sparse = _run(Q(DB).scan("fact").aggregate(by=["sparse"], n=agg.count_star()))
        assert [r[1] for r in dense.rows] == [r[1] for r in sparse.rows]
