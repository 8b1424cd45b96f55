"""DISTINCT over the frame's columns (or a subset).

Rows are grouped with the aggregate operator's kernels: per-column
:func:`~repro.engine.keycache.factorize` (dense-domain or ``np.unique``),
mixed-radix code combination, then one more factorization of the
combined codes. The kernel that ran is noted on the operator span and
counted in ``engine.dense.group``.
"""

from __future__ import annotations

import numpy as np

from repro.obs.trace import note

from ..frame import Frame
from ..keycache import (
    combine_codes,
    dense_factorized,
    dense_group_stats,
    factorize,
    first_rows,
    key_cache,
)
from ..types import STRING

__all__ = ["execute_distinct"]


def execute_distinct(frame: Frame, columns: list[str] | None, ctx) -> Frame:
    """Keep the first row of each distinct combination of ``columns``
    (default: all columns)."""
    names = columns if columns is not None else list(frame.columns)
    code_arrays: list[np.ndarray] = []
    cards: list[int] = []
    dense = True
    for name in names:
        column = frame.column(name)
        if column.dtype is STRING:
            # Dictionary codes are already a dense factorization.
            code_arrays.append(column.values.astype(np.int64, copy=False))
            cards.append(max(1, len(column.dictionary)))
        else:
            uniques, codes = key_cache.factorize(column.values)
            code_arrays.append(codes)
            cards.append(max(1, len(uniques)))
            dense = dense and dense_factorized(uniques, frame.nrows)
    uniques, gids = factorize(combine_codes(code_arrays, cards))
    dense = dense and dense_factorized(uniques, frame.nrows)
    if dense:
        dense_group_stats.hit()
    else:
        dense_group_stats.miss()
    out = frame.take(np.sort(first_rows(gids, len(uniques))))
    ctx.work.tuples_in += frame.nrows
    ctx.work.tuples_out += out.nrows
    ctx.work.rand_accesses += frame.nrows
    ctx.work.ops += frame.nrows
    ctx.work.out_bytes += out.nbytes
    ctx.work.gather_bytes += frame.drain_gather_debt()
    note(
        ctx, distinct=out.nrows, on=len(names),
        kernel="dense" if dense else "sorted",
    )
    return out
