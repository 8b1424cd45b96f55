"""The parallel executor's work gate and late-preserving merge.

With the default configuration (no explicit ``morsel_rows``) every
candidate segment is pooled or run serially by the work gate. These
tests pin which path each segment shape takes on a table large enough
to pool, that both paths return the serial rows, that a pooled late
chain hands on exactly the serial selection vector, that compressed
inputs fall back to the dense concatenation, and that a memory budget
bounds each partial aggregate to its worker's share.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.engine import (
    Column,
    Database,
    Executor,
    MemoryBudget,
    Q,
    Table,
    agg,
    col,
    compress_table,
    optimize_plan,
)
from repro.engine.compression import BitPackedEncoding, FrameOfReferenceEncoding
from repro.engine.executor import ExecContext
from repro.engine.frame import Frame
from repro.engine.merge import concat_frames, decompose_aggregates
from repro.engine.parallel import ParallelExecutor
from repro.engine.spill import aggregate_row_bytes
from repro.engine.types import DATE, FLOAT64, INT64
from repro.obs.trace import Tracer, iter_spans

N_ROWS = 500_000
WORKERS = 2


def _strings(rng, values: list[str], n: int) -> Column:
    dictionary = np.asarray(sorted(values), dtype=object)
    return Column.from_string_codes(rng.integers(0, len(values), n), dictionary)


def _build_db() -> Database:
    rng = np.random.default_rng(2021)
    n = N_ROWS
    d1 = rng.integers(0, 2500, n).astype(np.int32)
    d2 = (d1 + rng.integers(1, 60, n)).astype(np.int32)
    d3 = (d2 + rng.integers(-20, 40, n)).astype(np.int32)
    db = Database("gate")
    db.add(Table("fact", {
        "key": Column(INT64, rng.permutation(n).astype(np.int64)),
        "mid": Column(INT64, rng.integers(0, 100_000, n)),
        "fk": Column(INT64, rng.integers(0, 1000, n)),
        "flag": _strings(rng, ["A", "N", "R"], n),
        "status": _strings(rng, ["F", "O"], n),
        "mode": _strings(rng, ["AIR", "MAIL", "RAIL", "SHIP", "TRUCK", "FOB", "REG"], n),
        "comment": _strings(rng, [f"note {i} {'x' * (i % 7)}" for i in range(3000)], n),
        "qty": Column(FLOAT64, rng.integers(1, 51, n).astype(np.float64)),
        "price": Column(FLOAT64, np.round(rng.random(n) * 1000, 2)),
        "disc": Column(FLOAT64, np.round(rng.random(n) * 0.1, 2)),
        "tax": Column(FLOAT64, np.round(rng.random(n) * 0.08, 2)),
        "d1": Column(DATE, d1),
        "d2": Column(DATE, d2),
        "d3": Column(DATE, d3),
    }))
    db.add(Table("dim", {
        "dk": Column(INT64, np.arange(1000, dtype=np.int64)),
        "grp": Column(INT64, np.arange(1000, dtype=np.int64) % 10),
    }))
    db.build_zone_maps()
    return db


DB = _build_db()


def _q1_like() -> Q:
    disc_price = col("price") * (1 - col("disc"))
    return Q(DB).scan("fact").filter(col("d1") <= 2400).aggregate(
        ["flag", "status"],
        sum_qty=agg.sum(col("qty")),
        sum_base=agg.sum(col("price")),
        sum_disc_price=agg.sum(disc_price),
        sum_charge=agg.sum(disc_price * (1 + col("tax"))),
        avg_qty=agg.avg(col("qty")),
        avg_price=agg.avg(col("price")),
        avg_disc=agg.avg(col("disc")),
        n=agg.count_star(),
    )


def _q6_like() -> Q:
    return Q(DB).scan("fact").filter(
        (col("d1") >= 365) & (col("d1") < 730)
        & (col("disc") >= 0.05) & (col("disc") <= 0.07) & (col("qty") < 24)
    ).aggregate(revenue=agg.sum(col("price") * col("disc")))


def _q12_chain() -> Q:
    return Q(DB).scan("fact").filter(
        col("mode").isin(["MAIL", "SHIP"])
        & (col("d2") < col("d3")) & (col("d1") < col("d2"))
        & (col("d3") >= 100) & (col("d3") < 2000)
    ).select("fk", "mode", "price")


def _q12_like() -> Q:
    return _q12_chain().join("dim", on=[("fk", "dk")]).aggregate(
        ["mode"], n=agg.count_star(), s=agg.sum(col("price"))
    )


def _high_cardinality() -> Q:
    return Q(DB).scan("fact").filter(col("d1") < 2400).aggregate(
        ["key"],
        net=agg.sum(col("price") * (1 - col("disc"))),
        gross=agg.sum(col("price") * (1 + col("tax"))),
        n=agg.count_star(),
        top=agg.max(col("qty")),
    )


def _small_table() -> Q:
    return Q(DB).scan("dim").filter(col("grp") < 5).aggregate(["grp"], n=agg.count_star())


def _string_predicate() -> Q:
    return Q(DB).scan("fact").filter(col("comment").like("%3 x%")).aggregate(
        ["flag"], n=agg.count_star()
    )


CASES = {
    "q1_like": (_q1_like, "segment:aggregate:fact", ("pool", "rows")),
    "q6_like": (_q6_like, "segment:aggregate:fact", ("pool", "rows")),
    "q12_like": (_q12_like, "segment:chain:fact", ("pool", "rows")),
    "high_cardinality": (_high_cardinality, "segment:aggregate:fact", ("serial", "domain")),
    "small_table": (_small_table, "segment:aggregate:dim", ("serial", "rows")),
    "string_predicate": (_string_predicate, "segment:aggregate:fact", ("serial", "rows")),
}


def _sorted_rows(rows):
    return sorted(rows, key=lambda r: tuple(str(v) for v in r))


def _assert_rows_close(got, want):
    assert len(got) == len(want)
    for g, w in zip(_sorted_rows(got), _sorted_rows(want)):
        assert len(g) == len(w)
        for a, b in zip(g, w):
            if isinstance(b, float):
                assert math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)
            else:
                assert a == b


def _segment_decisions(tracer: Tracer) -> dict[str, tuple[str, str]]:
    return {
        span.name: (span.attrs["parallel"], span.attrs["reason"])
        for span in iter_spans(tracer.roots[-1])
        if span.kind == "pipeline" and span.name.startswith("segment:")
    }


@pytest.fixture(scope="module")
def pooled():
    with ParallelExecutor(DB, workers=WORKERS, cache_size=0, tracer=Tracer()) as ex:
        yield ex


class TestGateDecisions:
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_default_config_matches_serial_and_takes_expected_path(self, pooled, case):
        build, segment, expected = CASES[case]
        plan = build()
        want = Executor(DB).execute(plan).rows
        got = pooled.execute(plan).rows
        _assert_rows_close(got, want)
        assert _segment_decisions(pooled.tracer)[segment] == expected

    def test_pooled_ranges_are_one_per_worker_within_the_byte_cap(self, pooled):
        pooled.execute(_q6_like())
        span = next(
            s for s in iter_spans(pooled.tracer.roots[-1])
            if s.kind == "pipeline" and s.name == "segment:aggregate:fact"
        )
        assert span.attrs["morsels"] == WORKERS

    def test_one_worker_never_pools_by_default(self):
        with ParallelExecutor(DB, workers=1, cache_size=0, tracer=Tracer()) as ex:
            got = ex.execute(_q1_like()).rows
            assert _segment_decisions(ex.tracer)["segment:aggregate:fact"] == (
                "serial", "rows",
            )
        _assert_rows_close(got, Executor(DB).execute(_q1_like()).rows)


# ----------------------------------------------------------------------
# Late-preserving merge
# ----------------------------------------------------------------------


def _exec_frame(executor, plan: Q):
    node = optimize_plan(plan.node, DB, executor.settings)
    return executor._exec(node, ExecContext(DB, executor))


class TestLateMerge:
    def test_pooled_chain_selection_is_bit_identical_to_serial(self, pooled):
        serial = _exec_frame(Executor(DB), _q12_chain())
        merged = _exec_frame(pooled, _q12_chain())
        assert serial.is_late and merged.is_late
        assert merged.selection.dtype == serial.selection.dtype
        assert np.array_equal(merged.selection, serial.selection)
        fact = DB.table("fact")
        for name, column in merged.columns.items():
            assert column is fact.column(name)

    def test_gather_bytes_are_charged_once(self, pooled):
        serial = Executor(DB).execute(_q12_like()).profile
        parallel = pooled.execute(_q12_like()).profile
        assert _segment_decisions(pooled.tracer)["segment:chain:fact"][0] == "pool"
        assert parallel.gather_bytes == serial.gather_bytes > 0
        assert [op.operator for op in parallel.operators] == [
            op.operator for op in serial.operators
        ]

    def test_compressed_inputs_fall_back_to_dense_concat(self):
        # Compressed columns decode per morsel, so morsel frames are late
        # over different base arrays and must be gathered and stacked.
        db = Database("gate-compressed")
        db.add(compress_table(
            DB.table("fact"), encodings=(BitPackedEncoding(), FrameOfReferenceEncoding())
        ))
        db.add(DB.table("dim"))
        db.build_zone_maps()
        chain = Q(db).scan("fact").filter(
            col("mode").isin(["MAIL", "SHIP"])
            & (col("d2") < col("d3")) & (col("d1") < col("d2"))
            & (col("d3") >= 100) & (col("d3") < 2000)
        ).select("fk", "d1", "price")
        node = optimize_plan(chain.node, db, Executor(db).settings)
        serial = Executor(db)._exec(node, ExecContext(db, Executor(db))).dense()
        with ParallelExecutor(db, workers=WORKERS, cache_size=0, tracer=Tracer()) as ex:
            merged = ex._exec(node, ExecContext(db, ex))
            ex.execute(chain)
            decision = _segment_decisions(ex.tracer)["segment:chain:fact"]
        assert decision == ("pool", "rows")
        assert not merged.is_late
        for name in serial.columns:
            assert merged.column(name).to_list() == serial.column(name).to_list()

    def test_concat_keeps_late_frames_over_one_base(self):
        base = DB.table("dim")
        cols = {"dk": base.column("dk"), "grp": base.column("grp")}
        a = Frame(cols, selection=np.array([1, 5, 9], dtype=np.int32))
        b = Frame(cols, selection=np.array([20, 21], dtype=np.int32))
        merged = concat_frames([a, b])
        assert merged.is_late and merged.columns["dk"] is cols["dk"]
        assert merged.selection.tolist() == [1, 5, 9, 20, 21]
        # A frame over different column objects forces the dense path.
        copies = {n: Column(c.dtype, c.values.copy()) for n, c in cols.items()}
        other = Frame(copies, selection=np.array([3], dtype=np.int32))
        dense = concat_frames([a, other])
        assert not dense.is_late
        assert dense.column("dk").to_list() == [1, 5, 9, 3]


# ----------------------------------------------------------------------
# Budget-derived morsel bound
# ----------------------------------------------------------------------


class TestBudgetBound:
    LIMIT = 4 * 1024 * 1024

    def _plan(self) -> Q:
        return Q(DB).scan("fact").aggregate(["mid"], s=agg.sum(col("price")))

    def test_each_partial_fits_its_share_of_the_budget(self, tmp_path):
        plan = self._plan()
        budget = MemoryBudget(self.LIMIT, spill_dir=str(tmp_path))
        with ParallelExecutor(
            DB, workers=WORKERS, cache_size=0, tracer=Tracer(), memory_budget=budget,
        ) as ex:
            got = ex.execute(plan).rows
            root = ex.tracer.roots[-1]
        segment = next(
            s for s in iter_spans(root)
            if s.kind == "pipeline" and s.name == "segment:aggregate:fact"
        )
        assert (segment.attrs["parallel"], segment.attrs["reason"]) == ("pool", "budget")
        partial, _ = decompose_aggregates(dict(plan.node.aggs))
        row_bytes = aggregate_row_bytes(["mid"], partial)
        share = self.LIMIT // WORKERS
        morsels = [s for s in iter_spans(root) if s.kind == "morsel"]
        assert len(morsels) == segment.attrs["morsels"] > WORKERS
        for span in morsels:
            lo, hi = span.name[len("fact["):-1].split(":")
            assert (int(hi) - int(lo)) * row_bytes <= share
        _assert_rows_close(got, Executor(DB).execute(plan).rows)

    def test_budget_the_serial_aggregate_fits_leaves_the_gate_alone(self, tmp_path):
        budget = MemoryBudget(1 << 40, spill_dir=str(tmp_path))
        with ParallelExecutor(
            DB, workers=WORKERS, cache_size=0, tracer=Tracer(), memory_budget=budget,
        ) as ex:
            ex.execute(self._plan())
            assert _segment_decisions(ex.tracer)["segment:aggregate:fact"] == (
                "serial", "rows",
            )
