"""The per-query dictionary memo.

String kernels (LIKE, SUBSTRING, UPPER/LOWER, string-literal
comparisons) run once per dictionary entry, and every morsel of a column
shares the column's dictionary. The memo on the query's execution
context makes that pass happen exactly once per query however many
morsels and threads evaluate the kernel, never carries a result into a
later query, and leaves every work charge as it was.
"""

from __future__ import annotations

import collections
import threading
import time

import numpy as np
import pytest

from repro.engine import Column, Database, Executor, Q, Table, agg, col
from repro.engine.executor import ExecContext
from repro.engine.parallel import ParallelExecutor
from repro.engine.types import INT64

N_ROWS = 40_000
THREADS = 8


def _build_db() -> Database:
    rng = np.random.default_rng(5)
    names = np.asarray(sorted(f"name {i:05d} {'green' if i % 9 == 0 else 'blue'}"
                              for i in range(2000)), dtype=object)
    phones = np.asarray(sorted(f"{10 + i % 25}-{i:06d}" for i in range(3000)), dtype=object)
    db = Database("memo")
    db.add(Table("t", {
        "k": Column(INT64, rng.integers(0, 50, N_ROWS)),
        "name": Column.from_string_codes(rng.integers(0, len(names), N_ROWS), names),
        "phone": Column.from_string_codes(rng.integers(0, len(phones), N_ROWS), phones),
    }))
    db.build_zone_maps()
    return db


DB = _build_db()

# Each plan applies one string kernel; the kinds its dictionary passes
# are memoized under (LIKE also derives the average string length).
PLANS = {
    "like": (
        lambda: Q(DB).scan("t").filter(col("name").like("%green%"))
        .aggregate(["k"], n=agg.count_star()),
        {"like": 1, "avg_len": 1},
    ),
    "substring": (
        lambda: Q(DB).scan("t").filter(col("k") < 40)
        .project(prefix=col("phone").substring(1, 2), k="k")
        .aggregate(["prefix"], n=agg.count_star()),
        {"substring": 1},
    ),
    "compare": (
        lambda: Q(DB).scan("t").filter(col("name") < "name 01000")
        .aggregate(["k"], n=agg.count_star()),
        {"cmp": 1},
    ),
    "upper": (
        lambda: Q(DB).scan("t").filter(col("k") < 45)
        .project(u=col("name").upper(), k="k")
        .aggregate(["u"], n=agg.count_star()),
        {"case": 1},
    ),
}


@pytest.fixture
def passes(monkeypatch):
    """Count dictionary passes by memo kind. Each pass sleeps briefly so
    concurrent morsels would overlap inside it without the memo's lock."""
    counts: collections.Counter = collections.Counter()
    lock = threading.Lock()
    real = ExecContext.dictionary_memo

    def memo(self, key, dictionary, compute):
        def counted(d):
            with lock:
                counts[key[0]] += 1
            time.sleep(0.005)
            return compute(d)

        return real(self, key, dictionary, counted)

    monkeypatch.setattr(ExecContext, "dictionary_memo", memo)
    return counts


def _rows(result):
    return sorted(result.rows, key=lambda r: tuple(str(v) for v in r))


@pytest.mark.parametrize("morsels", [2, 4, 8])
@pytest.mark.parametrize("case", sorted(PLANS))
def test_one_dictionary_pass_per_query(passes, case, morsels):
    build, expected = PLANS[case]
    plan = build()
    want = Executor(DB).execute(plan)
    passes.clear()
    with ParallelExecutor(
        DB, workers=THREADS, morsel_rows=-(-N_ROWS // morsels), cache_size=0
    ) as ex:
        got = ex.execute(plan)
        assert dict(passes) == expected
        # A second query recomputes: the memo never outlives its query.
        ex.execute(plan)
        assert dict(passes) == {kind: 2 * n for kind, n in expected.items()}
    assert _rows(got) == _rows(want)


def _profiles_without_memo(monkeypatch, run):
    with monkeypatch.context() as patch:
        patch.setattr(
            ExecContext, "dictionary_memo",
            lambda self, key, dictionary, compute: compute(dictionary),
        )
        return run()


def _charges(profile):
    return [vars(op) for op in profile.operators]


@pytest.mark.parametrize("case", sorted(PLANS))
def test_work_charges_do_not_depend_on_the_memo(monkeypatch, case):
    plan = PLANS[case][0]()

    def serial():
        return Executor(DB).execute(plan).profile

    def parallel():
        with ParallelExecutor(
            DB, workers=THREADS, morsel_rows=N_ROWS // 4, cache_size=0
        ) as ex:
            return ex.execute(plan).profile

    for run in (serial, parallel):
        assert _charges(run()) == _charges(_profiles_without_memo(monkeypatch, run))
