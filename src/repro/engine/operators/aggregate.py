"""Hash group-by aggregation.

Supports SUM, AVG, MIN, MAX, COUNT (non-null), COUNT(*), and
COUNT(DISTINCT expr), with zero or more grouping keys. Grouping keys are
factorized per column and mixed into a single group id, after which each
aggregate reduces with ``np.bincount`` / ``ufunc.at``.

Factorization takes the dense-domain kernel of
:func:`~repro.engine.keycache.factorize` (``bincount`` presence mask +
``cumsum`` rank) whenever a key's integer domain is at most the input
row count, and ``np.unique`` otherwise; both number groups in the same
ascending order. The kernel that ran is noted on the operator span
(``kernel="dense"|"sorted"``) and counted in ``engine.dense.group``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.obs.trace import note

from ..column import Column
from ..expr import Expr
from ..frame import Frame
from ..keycache import (
    combine_codes,
    dense_factorized,
    dense_group_stats,
    factorize,
    first_rows,
    key_cache,
)
from ..types import FLOAT64, INT64, STRING

__all__ = ["AggSpec", "execute_aggregate", "try_encoded_aggregate", "sum_", "avg", "count", "count_star", "count_distinct", "min_", "max_"]


@dataclass(frozen=True)
class AggSpec:
    """One aggregate: a function name and (for all but COUNT(*)) an input
    expression."""

    func: str
    expr: Expr | None = None


def sum_(expr: Expr) -> AggSpec:
    return AggSpec("sum", expr)


def avg(expr: Expr) -> AggSpec:
    return AggSpec("avg", expr)


def count(expr: Expr) -> AggSpec:
    return AggSpec("count", expr)


def count_star() -> AggSpec:
    return AggSpec("count_star")


def count_distinct(expr: Expr) -> AggSpec:
    return AggSpec("count_distinct", expr)


def min_(expr: Expr) -> AggSpec:
    return AggSpec("min", expr)


def max_(expr: Expr) -> AggSpec:
    return AggSpec("max", expr)


def try_encoded_aggregate(node, db, ctx) -> Frame | None:
    """Run-level fast path for ``AggregateNode(ScanNode)`` without a
    predicate: group by an RLE key's runs and reduce aggregate inputs
    over ``(value, run_length)`` segments (:mod:`repro.engine.encoded`).

    Returns ``None`` — and the caller executes the ordinary
    scan-then-hash pipeline — whenever the compiled plan cannot prove
    bit-identical output. Dispatch outcomes land in the
    ``engine.encoded.aggregate`` hit/miss metrics, with misses counted
    only when the aggregation actually reads compressed columns.
    """
    from ..compression import CompressedColumn
    from ..encoded import aggregate_stats, prepare_aggregate

    table = db.table(node.child.table)
    plan = prepare_aggregate(table, list(node.group_by), dict(node.aggs))
    if plan is None:
        refs = set(node.group_by)
        for spec in dict(node.aggs).values():
            if spec.expr is not None:
                refs |= spec.expr.references()
        if any(
            isinstance(table.columns.get(n), CompressedColumn) for n in refs
        ):
            aggregate_stats.miss()
        return None
    aggregate_stats.hit()
    return plan.execute(ctx)


def _key_codes(column: Column) -> tuple[np.ndarray, int, bool]:
    """Dense factorization codes for one grouping column, with NULL as
    its own group (SQL GROUP BY semantics).

    Returns ``(codes, cardinality, dense)``; ``dense`` reports whether
    the dense-domain kernel produced the codes. NULL gets the reserved
    code 0 and valid values shift up by one — never a
    ``values.min() - 1`` sentinel, which collides with real data (or
    wraps) when the column already holds the dtype minimum. NULLs keep
    sorting before every valid value, exactly where the old sentinel
    placed them, so group output order is unchanged.
    """
    values = column.values
    if column.valid is not None and not bool(column.valid.all()):
        valid_values = values[column.valid]
        uniques, valid_codes = factorize(valid_values)
        codes = np.zeros(len(values), dtype=np.int64)
        codes[column.valid] = valid_codes + 1
        dense = dense_factorized(uniques, len(valid_values))
        return codes, len(uniques) + 1, dense
    uniques, codes = key_cache.factorize(values)
    return codes, max(1, len(uniques)), dense_factorized(uniques, len(values))


def _group_ids(
    frame: Frame, keys: list[str]
) -> tuple[np.ndarray, int, np.ndarray, bool]:
    """Factorize key columns into dense group ids, numbered in ascending
    key order (the ``np.unique`` order of the combined codes).

    Returns ``(gids, n_groups, first_row_of_group, dense)``, where
    ``dense`` reports that no step fell back to a sorting kernel.
    """
    if not keys:
        gids = np.zeros(frame.nrows, dtype=np.int64)
        return gids, 1, np.zeros(1, dtype=np.int64), True
    code_arrays: list[np.ndarray] = []
    cards: list[int] = []
    dense = True
    for name in keys:
        codes, card, key_dense = _key_codes(frame.column(name))
        code_arrays.append(codes)
        cards.append(card)
        dense = dense and key_dense
    if len(keys) == 1 and frame.nrows:
        # One key's codes already number every group 0..card-1.
        gids, n_groups = code_arrays[0], cards[0]
    else:
        uniques, gids = factorize(combine_codes(code_arrays, cards))
        n_groups = len(uniques)
        dense = dense and dense_factorized(uniques, frame.nrows)
    return gids, n_groups, first_rows(gids, n_groups), dense


def _distinct_counts(gids: np.ndarray, key: np.ndarray, n_groups: int) -> np.ndarray:
    """Number of distinct ``key`` values in each group.

    Integer keys factorize (dense kernel when their domain allows) and
    mix with the group id into one int64 pair code, so a single
    ``np.sort`` finds the distinct pairs. Other keys — and pair codes
    that would overflow int64 — sort the ``(gid, key)`` pairs with
    ``lexsort``, which also keeps every NaN distinct, as before.
    """
    if key.dtype.kind in "iu" and len(key):
        uniques, codes = factorize(key)
        card = len(uniques)
        if n_groups * card < 2**63:
            pairs = np.sort(gids * card + codes)
            distinct = pairs[np.concatenate(([True], pairs[1:] != pairs[:-1]))]
            return np.bincount(distinct // card, minlength=n_groups)
    order = np.lexsort((key, gids))
    sg, sk = gids[order], key[order]
    if not len(sg):
        return np.zeros(n_groups, dtype=np.int64)
    new = np.ones(len(sg), dtype=bool)
    new[1:] = (sg[1:] != sg[:-1]) | (sk[1:] != sk[:-1])
    return np.bincount(sg[new], minlength=n_groups)


def _input(spec: AggSpec, frame: Frame, ctx) -> Column:
    assert spec.expr is not None
    return spec.expr.evaluate(frame, ctx)


def _global_aggregate(frame: Frame, aggs: dict[str, AggSpec], ctx) -> Frame:
    """Grouping-free fast path: reduce each aggregate input directly with
    ``np.sum``/``np.min``/``np.max`` instead of building group ids and
    ``bincount``-ing against them.

    This is the tail of the fused filter+aggregate pipeline for Q6-class
    queries: the input is typically a late frame, so each aggregate
    input gathers only the surviving rows of the columns it reads, and
    COUNT(*) reads nothing at all. Output rows/dtypes/NaN semantics
    match the grouped path with one group exactly; sums reduce through
    the same ``bincount`` kernel so float accumulation order (and thus
    the last ulp) is identical to the grouped path.
    """
    zeros: np.ndarray | None = None

    def _total(weights: np.ndarray) -> float:
        nonlocal zeros
        if zeros is None:
            zeros = np.zeros(frame.nrows, dtype=np.intp)
        return float(np.bincount(zeros, weights=weights, minlength=1)[0])

    out_columns: dict[str, Column] = {}
    for name, spec in aggs.items():
        if spec.func == "count_star":
            out_columns[name] = Column(INT64, np.asarray([frame.nrows], dtype=np.int64))
            continue
        column = _input(spec, frame, ctx)
        values = column.values.astype(np.float64, copy=False)
        valid = column.valid
        if spec.func == "sum":
            weights = values if valid is None else np.where(valid, values, 0.0)
            out_columns[name] = Column(FLOAT64, np.asarray([_total(weights)]))
        elif spec.func == "avg":
            weights = values if valid is None else np.where(valid, values, 0.0)
            total = _total(weights)
            count = float(frame.nrows) if valid is None else float(valid.sum())
            with np.errstate(invalid="ignore", divide="ignore"):
                out_columns[name] = Column(FLOAT64, np.asarray([total]) / count if count else np.asarray([np.nan]))
        elif spec.func == "count":
            count = frame.nrows if valid is None else int(valid.sum())
            out_columns[name] = Column(INT64, np.asarray([count], dtype=np.int64))
        elif spec.func == "isum":
            weights = values if valid is None else np.where(valid, values, 0.0)
            out_columns[name] = Column(
                INT64, np.asarray([round(_total(weights))], dtype=np.int64)
            )
        elif spec.func in ("min", "max"):
            target = values if valid is None else values[valid]
            if len(target):
                extreme = float(target.min() if spec.func == "min" else target.max())
            else:
                extreme = np.nan
            out = np.asarray([extreme])
            if column.dtype is INT64:
                safe = np.where(np.isnan(out), 0, out)
                out_columns[name] = Column(
                    INT64, safe.astype(np.int64),
                    valid=~np.isnan(out) if np.isnan(out).any() else None,
                )
            else:
                out_columns[name] = Column(FLOAT64, out)
        elif spec.func == "count_distinct":
            key = column.decoded() if column.dtype is STRING else column.values
            if valid is not None:
                key = key[valid]
            out_columns[name] = Column(INT64, np.asarray([len(np.unique(key))], dtype=np.int64))
        else:
            raise ValueError(f"unknown aggregate {spec.func!r}")

    out = Frame(out_columns, 1)
    ctx.work.tuples_in += frame.nrows
    ctx.work.tuples_out += 1
    ctx.work.ops += frame.nrows * max(1, len(aggs))
    ctx.work.seq_bytes += frame.nrows * 8 * max(1, len(aggs))
    ctx.work.out_bytes += out.nbytes
    ctx.work.gather_bytes += frame.drain_gather_debt()
    note(ctx, groups=1, aggs=len(aggs))
    return out


def execute_aggregate(
    frame: Frame,
    group_by: list[str],
    aggs: dict[str, AggSpec],
    ctx,
) -> Frame:
    """Group ``frame`` by ``group_by`` and compute ``aggs``.

    With no grouping keys the result has exactly one row (global
    aggregate), even over empty input (COUNT=0, SUM=0, MIN/MAX=NaN).
    """
    if not group_by:
        return _global_aggregate(frame, aggs, ctx)
    gids, n_groups, first, dense = _group_ids(frame, group_by)
    if dense:
        dense_group_stats.hit()
    else:
        dense_group_stats.miss()

    out_columns: dict[str, Column] = {}
    for name in group_by:
        out_columns[name] = frame.column(name).take(first)

    for name, spec in aggs.items():
        if spec.func == "count_star":
            counts = np.bincount(gids, minlength=n_groups)
            out_columns[name] = Column(INT64, counts.astype(np.int64))
            continue
        column = _input(spec, frame, ctx)
        values = column.values.astype(np.float64, copy=False)
        valid = column.valid
        if spec.func == "sum":
            weights = values if valid is None else np.where(valid, values, 0.0)
            out = np.bincount(gids, weights=weights, minlength=n_groups)
            out_columns[name] = Column(FLOAT64, out)
        elif spec.func == "avg":
            weights = values if valid is None else np.where(valid, values, 0.0)
            sums = np.bincount(gids, weights=weights, minlength=n_groups)
            if valid is None:
                counts = np.bincount(gids, minlength=n_groups)
            else:
                counts = np.bincount(gids, weights=valid.astype(np.float64), minlength=n_groups)
            with np.errstate(invalid="ignore", divide="ignore"):
                out_columns[name] = Column(FLOAT64, sums / counts)
        elif spec.func == "count":
            if valid is None:
                counts = np.bincount(gids, minlength=n_groups)
            else:
                counts = np.bincount(gids, weights=valid.astype(np.float64), minlength=n_groups)
            out_columns[name] = Column(INT64, counts.astype(np.int64))
        elif spec.func == "isum":
            # Exact integer sum: recombines COUNT-valued partial states
            # (rollup cells, two-phase merges). Inputs are integral and
            # far below 2**53, so the float accumulator is exact.
            weights = values if valid is None else np.where(valid, values, 0.0)
            out = np.bincount(gids, weights=weights, minlength=n_groups)
            out_columns[name] = Column(INT64, np.rint(out).astype(np.int64))
        elif spec.func in ("min", "max"):
            init = np.inf if spec.func == "min" else -np.inf
            out = np.full(n_groups, init, dtype=np.float64)
            target = values if valid is None else values[valid]
            target_gids = gids if valid is None else gids[valid]
            if spec.func == "min":
                np.minimum.at(out, target_gids, target)
            else:
                np.maximum.at(out, target_gids, target)
            out[~np.isfinite(out)] = np.nan
            if column.dtype is INT64:
                safe = np.where(np.isnan(out), 0, out)
                out_columns[name] = Column(
                    INT64, safe.astype(np.int64), valid=~np.isnan(out) if np.isnan(out).any() else None
                )
            else:
                out_columns[name] = Column(FLOAT64, out)
        elif spec.func == "count_distinct":
            key = column.decoded() if column.dtype is STRING else column.values
            pair_gids = gids
            if valid is not None:
                key, pair_gids = key[valid], gids[valid]
            counts = _distinct_counts(pair_gids, key, n_groups)
            out_columns[name] = Column(INT64, counts.astype(np.int64))
        else:
            raise ValueError(f"unknown aggregate {spec.func!r}")

    out = Frame(out_columns, n_groups)
    # Work accounting: one hash insert (random access) per input row per
    # grouped aggregate pass, plus streaming the aggregate inputs.
    ctx.work.tuples_in += frame.nrows
    ctx.work.tuples_out += n_groups
    ctx.work.ops += frame.nrows * max(1, len(aggs))
    ctx.work.rand_accesses += frame.nrows if group_by else 0
    ctx.work.seq_bytes += frame.nrows * 8 * max(1, len(aggs))
    ctx.work.out_bytes += out.nbytes
    ctx.work.gather_bytes += frame.drain_gather_debt()
    note(
        ctx, groups=n_groups, aggs=len(aggs), kernel="dense" if dense else "sorted"
    )
    return out
