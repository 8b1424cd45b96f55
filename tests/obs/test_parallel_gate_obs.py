"""Which way the parallel executor ran each candidate segment is visible
in the metrics registry (``engine.parallel.pool`` hit/miss counters: a
hit pooled the segment, a miss ran it serially) and on the segment's
pipeline span (``parallel`` and ``reason`` attrs)."""

import numpy as np
import pytest

from repro.engine import Column, Database, Q, Table, agg, col
from repro.engine.parallel import ParallelExecutor
from repro.obs import render_tree
from repro.obs.metrics import metrics
from repro.obs.trace import Tracer, iter_spans

N_ROWS = 2_000


def _db() -> Database:
    rng = np.random.default_rng(3)
    db = Database("pool-obs")
    db.add(Table("t", {
        "k": Column.from_ints(rng.integers(0, 10, N_ROWS).tolist()),
        "v": Column.from_floats(rng.random(N_ROWS).tolist()),
    }))
    db.build_zone_maps()
    return db


DB = _db()
PLAN = Q(DB).scan("t").filter(col("v") < 0.5).aggregate(["k"], s=agg.sum(col("v")))


def _counts() -> tuple[float, float]:
    return (metrics.counter("engine.parallel.pool.hits").value,
            metrics.counter("engine.parallel.pool.misses").value)


def _segments(tracer: Tracer) -> list:
    return [
        span for span in iter_spans(tracer.roots[-1])
        if span.kind == "pipeline" and span.name.startswith("segment:")
    ]


@pytest.mark.parametrize(
    "morsel_rows, decision, delta",
    [
        (None, ("serial", "rows"), (0, 1)),  # far below the work gate
        (256, ("pool", "forced"), (1, 0)),  # an explicit size always splits
    ],
)
def test_segment_decision_is_counted_and_annotated(morsel_rows, decision, delta):
    before = _counts()
    with ParallelExecutor(
        DB, workers=2, morsel_rows=morsel_rows, cache_size=0, tracer=Tracer()
    ) as ex:
        ex.execute(PLAN)
        (segment,) = _segments(ex.tracer)
        rendered = render_tree(ex.tracer)
    hits, misses = _counts()
    assert (hits - before[0], misses - before[1]) == delta
    assert f"parallel={decision[0]}, reason={decision[1]}" in rendered
    assert segment.name == "segment:aggregate:t"
    assert (segment.attrs["parallel"], segment.attrs["reason"]) == decision
    morsels = [s for s in iter_spans(segment) if s.kind == "morsel"]
    if decision[0] == "pool":
        assert segment.attrs["morsels"] == len(morsels) == -(-N_ROWS // morsel_rows)
    else:
        # A serial segment's operators nest under its span, unfragmented.
        assert not morsels
        assert [s.name for s in segment.children] == ["scan", "filter", "aggregate"]


def test_untraced_runs_still_count():
    before = _counts()
    with ParallelExecutor(DB, workers=2, cache_size=0) as ex:
        ex.execute(PLAN)
        ex.execute(PLAN)
    assert _counts() == (before[0], before[1] + 2)
