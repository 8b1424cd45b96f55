"""Differential wall for the dense-domain join and group-by kernels.

Every dense kernel must be bit-identical to the sorted reference it
replaces: ``np.unique`` factorization, and sort + binary-search join
matching. The references below are written out independently of the
engine code, so a kernel that drifts from them fails here even when the
engine's own fallback drifts with it.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Column, Frame
from repro.engine.keycache import (
    HASH_ENTRY_BYTES,
    combine_codes,
    dense_factorized,
    factorize,
    key_cache,
    stable_order,
)
from repro.engine.operators.aggregate import _distinct_counts, _group_ids
from repro.engine.operators.distinct import execute_distinct
from repro.engine.operators.join import _build_index, _match, execute_join
from repro.engine.profile import WorkProfile
from repro.engine.spill import join_build_estimate
from repro.engine.types import DATE, INT64

INT_DTYPES = [
    np.int8, np.int16, np.int32, np.int64,
    np.uint8, np.uint16, np.uint32, np.uint64,
]


class _Ctx:
    def __init__(self):
        self.profile = WorkProfile()
        self.work = self.profile.new_operator("test")


# ----------------------------------------------------------------------
# Reference (sorted) kernels
# ----------------------------------------------------------------------


def _ref_match(probe: np.ndarray, build: np.ndarray):
    order = np.argsort(build, kind="stable")
    sorted_keys = build[order]
    lo = np.searchsorted(sorted_keys, probe, side="left")
    hi = np.searchsorted(sorted_keys, probe, side="right")
    counts = hi - lo
    total = int(counts.sum())
    left_idx = np.repeat(np.arange(len(probe)), counts)
    starts = np.repeat(lo, counts)
    offsets = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
    right_idx = order[starts + offsets] if total else np.empty(0, dtype=np.int64)
    return counts, left_idx, right_idx


def _ref_key_codes(values: np.ndarray, valid: np.ndarray | None):
    if valid is not None and not bool(valid.all()):
        uniques = np.unique(values[valid])
        codes = np.searchsorted(uniques, values) + 1
        codes[~valid] = 0
        return codes.astype(np.int64), len(uniques) + 1
    uniques, codes = np.unique(values, return_inverse=True)
    return codes.astype(np.int64).reshape(values.shape), max(1, len(uniques))


def _ref_group_ids(columns: list[tuple[np.ndarray, np.ndarray | None]]):
    code_arrays, cards = [], []
    for values, valid in columns:
        codes, card = _ref_key_codes(values, valid)
        code_arrays.append(codes)
        cards.append(card)
    combined = combine_codes(code_arrays, cards)
    uniques, gids = np.unique(combined, return_inverse=True)
    n = len(combined)
    first = np.full(len(uniques), -1, dtype=np.int64)
    first[gids[::-1]] = np.arange(n - 1, -1, -1)
    return gids, len(uniques), first


def _assert_same(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype, (got.dtype, want.dtype)
    np.testing.assert_array_equal(got, want)


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------


@st.composite
def key_arrays(draw, min_size=0, max_size=60, dtypes=INT_DTYPES):
    """Integer keys of one dtype inside a narrow window placed anywhere
    in the dtype's range — including flush against either extreme."""
    dtype = np.dtype(draw(st.sampled_from(dtypes)))
    info = np.iinfo(dtype)
    width = draw(st.integers(0, 90))
    base = draw(
        st.one_of(
            st.just(int(info.min)),
            st.just(int(info.max) - width),
            st.integers(int(info.min), int(info.max) - width),
        )
    )
    n = draw(st.integers(min_size, max_size))
    values = draw(st.lists(st.integers(base, base + width), min_size=n, max_size=n))
    arr = np.asarray(values, dtype=dtype)
    if draw(st.booleans()):
        arr = np.sort(arr, kind="stable")
    return arr


@st.composite
def probe_for(draw, build: np.ndarray, max_size=60):
    """Probe keys of the build's dtype: hits, misses just outside the
    build domain, and values at the dtype's extremes."""
    info = np.iinfo(build.dtype)
    lo = int(build.min()) if len(build) else 0
    hi = int(build.max()) if len(build) else 0
    candidates = st.one_of(
        st.integers(max(int(info.min), lo - 3), min(int(info.max), hi + 3)),
        st.sampled_from([int(info.min), int(info.max)]),
    )
    n = draw(st.integers(0, max_size))
    return np.asarray(draw(st.lists(candidates, min_size=n, max_size=n)), dtype=build.dtype)


# ----------------------------------------------------------------------
# Factorization and group ids
# ----------------------------------------------------------------------


class TestFactorize:
    @settings(max_examples=300, deadline=None)
    @given(key_arrays())
    def test_matches_np_unique(self, values):
        uniques, codes = factorize(values)
        want_uniques, want_codes = np.unique(values, return_inverse=True)
        _assert_same(uniques, want_uniques)
        _assert_same(codes, want_codes.astype(np.int64).reshape(values.shape))
        if len(values):
            span = int(values.max()) - int(values.min()) + 1
            assert dense_factorized(uniques, len(values)) == (span <= len(values))

    @pytest.mark.parametrize("dtype", INT_DTYPES)
    def test_full_dtype_span_has_no_overflow(self, dtype):
        info = np.iinfo(dtype)
        values = np.asarray([info.max, info.min, info.max, 0], dtype=dtype)
        uniques, codes = factorize(values)
        want_uniques, want_codes = np.unique(values, return_inverse=True)
        _assert_same(uniques, want_uniques)
        _assert_same(codes, want_codes.astype(np.int64))

    def test_domain_at_limit_is_dense_and_one_over_is_not(self):
        at = np.asarray([10, 13, 11, 10], dtype=np.int64)  # span 4 == rows
        over = np.asarray([10, 14, 11, 10], dtype=np.int64)  # span 5 > rows
        assert dense_factorized(factorize(at)[0], len(at))
        assert not dense_factorized(factorize(over)[0], len(over))
        for values in (at, over):
            _assert_same(factorize(values)[0], np.unique(values))

    def test_floats_and_empty_use_np_unique(self):
        for values in (np.asarray([2.5, np.nan, 2.5]), np.empty(0, dtype=np.int64)):
            uniques, _ = factorize(values)
            _assert_same(uniques, np.unique(values))
            assert not dense_factorized(uniques, len(values))


@st.composite
def group_frames(draw):
    n = draw(st.integers(1, 50))
    columns = []
    for _ in range(draw(st.integers(1, 3))):
        dtype = draw(st.sampled_from([INT64, DATE]))
        info = np.iinfo(dtype.numpy_dtype)
        width = draw(st.sampled_from([0, 3, 40, 10_000]))
        base = draw(st.integers(int(info.min), int(info.max) - width))
        values = np.asarray(
            draw(st.lists(st.integers(base, base + width), min_size=n, max_size=n)),
            dtype=dtype.numpy_dtype,
        )
        valid = None
        if draw(st.booleans()):
            valid = np.asarray(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        columns.append(Column(dtype, values, valid=valid))
    return Frame({f"k{i}": c for i, c in enumerate(columns)}, n)


class TestGroupIds:
    @settings(max_examples=300, deadline=None)
    @given(group_frames())
    def test_matches_np_unique_reference(self, frame):
        names = list(frame.columns)
        gids, n_groups, first, _ = _group_ids(frame, names)
        want_gids, want_n, want_first = _ref_group_ids(
            [(frame.column(n).values, frame.column(n).valid) for n in names]
        )
        _assert_same(gids, want_gids.astype(np.int64))
        assert n_groups == want_n
        _assert_same(first, want_first)

    def test_kernel_reported(self):
        dense = Frame({"k": Column.from_ints([5, 6, 5, 7])}, 4)
        sparse = Frame({"k": Column.from_ints([5, 600, 5, 7])}, 4)
        assert _group_ids(dense, ["k"])[3] is True
        assert _group_ids(sparse, ["k"])[3] is False

    @settings(max_examples=150, deadline=None)
    @given(group_frames())
    def test_distinct_keeps_first_occurrences(self, frame):
        names = list(frame.columns)
        combined = combine_codes(
            [np.unique(frame.column(n).values, return_inverse=True)[1].astype(np.int64)
             for n in names],
            [len(np.unique(frame.column(n).values)) for n in names],
        )
        _, first = np.unique(combined, return_index=True)
        got = execute_distinct(frame, names, _Ctx())
        want = frame.take(np.sort(first))
        for name in names:
            _assert_same(got.column(name).values, want.column(name).values)


def _ref_distinct_counts(gids, key, n_groups):
    order = np.lexsort((key, gids))
    sg, sk = gids[order], key[order]
    if not len(sg):
        return np.zeros(n_groups, dtype=np.int64)
    new = np.ones(len(sg), dtype=bool)
    new[1:] = (sg[1:] != sg[:-1]) | (sk[1:] != sk[:-1])
    return np.bincount(sg[new], minlength=n_groups)


class TestDistinctCounts:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_lexsort_reference(self, data):
        key = data.draw(key_arrays())
        if data.draw(st.booleans()):  # float keys, NaNs stay distinct
            key = key.astype(np.float64)
            key[:: data.draw(st.integers(2, 5))] = np.nan
        n_groups = data.draw(st.integers(1, 6))
        gids = np.asarray(
            data.draw(st.lists(st.integers(0, n_groups - 1),
                               min_size=len(key), max_size=len(key))),
            dtype=np.int64,
        )
        _assert_same(
            _distinct_counts(gids, key, n_groups),
            _ref_distinct_counts(gids, key, n_groups),
        )


# ----------------------------------------------------------------------
# Join matching
# ----------------------------------------------------------------------


@st.composite
def join_inputs(draw):
    build = draw(key_arrays())
    if draw(st.booleans()):
        build = np.unique(build)  # unique build keys: the lookup-table path
        if draw(st.booleans()):
            build = build[np.random.default_rng(len(build)).permutation(len(build))]
    return build, draw(probe_for(build))


class TestJoinMatch:
    @settings(max_examples=400, deadline=None)
    @given(join_inputs())
    def test_matches_sorted_reference(self, inputs):
        build, probe = inputs
        want_counts, want_left, want_right = _ref_match(probe, build)
        for index in (_build_index(build), None):
            if index is None:
                counts, left_idx, right_idx, _ = _match(probe, build)
            else:
                counts, left_idx, right_idx = index.match(probe, True)
            _assert_same(counts, want_counts)
            _assert_same(left_idx, want_left)
            _assert_same(right_idx, want_right)
            counts_only, none_left, none_right, _ = _match(probe, build, pairs=False)
            _assert_same(counts_only, want_counts)
            assert none_left is None and none_right is None

    @settings(max_examples=200, deadline=None)
    @given(key_arrays(min_size=1))
    def test_dense_rule(self, build):
        span = int(build.max()) - int(build.min()) + 1
        want = "dense" if 8 * span <= HASH_ENTRY_BYTES * len(build) else "sorted"
        assert _build_index(build).kernel == want

    def test_domain_at_limit_is_dense_and_one_over_is_not(self):
        at = np.asarray([0, 5, 2], dtype=np.int64)  # span 6 == 2 x 3 rows
        over = np.asarray([0, 6, 2], dtype=np.int64)  # span 7 > 2 x 3 rows
        assert _build_index(at).kernel == "dense"
        assert _build_index(over).kernel == "sorted"
        probe = np.asarray([6, 5, 0, -1, 2, 7], dtype=np.int64)
        for build in (at, over):
            got = _match(probe, build)
            for g, w in zip(got[:3], _ref_match(probe, build)):
                _assert_same(g, w)

    def test_empty_sides(self):
        empty = np.empty(0, dtype=np.int64)
        some = np.asarray([1, 2, 2], dtype=np.int64)
        for probe, build in ((empty, some), (some, empty), (empty, empty)):
            got = _match(probe, build)
            for g, w in zip(got[:3], _ref_match(probe, build)):
                _assert_same(g, w)

    def test_mixed_width_probe(self):
        """int32 (DATE) probe against int64 build keys and vice versa."""
        build = np.asarray([3, 1, 2, 2, 7], dtype=np.int64)
        probe = np.asarray([2, 7, 9, -5, 1, 2**31 - 1], dtype=np.int32)
        for p, b in ((probe, build), (build, probe[:4].copy())):
            got = _match(p, b)
            for g, w in zip(got[:3], _ref_match(p, b)):
                _assert_same(g, w)

    def test_float_probe_falls_back(self):
        build = np.asarray([1, 2, 2, 3], dtype=np.int64)
        probe = np.asarray([2.0, 2.5, np.nan, 3.0])
        counts, left_idx, right_idx, kernel = _match(probe, build)
        assert kernel == "sorted"
        for g, w in zip((counts, left_idx, right_idx), _ref_match(probe, build)):
            _assert_same(g, w)

    def test_stable_order_matches_argsort(self):
        rng = np.random.default_rng(5)
        for span in (1, 2, 65_536, 65_537, 300_000):
            offsets = rng.integers(0, span, size=5_000)
            _assert_same(
                stable_order(offsets, span), np.argsort(offsets, kind="stable")
            )


class TestSharedIndexStress:
    def test_concurrent_probes_share_cached_indexes(self):
        """Eight threads probe the same build arrays through the shared
        key cache (building, caching and re-using the join index) and
        must all see the sorted reference's pairs."""
        rng = np.random.default_rng(9)
        builds = [
            rng.integers(0, 3_000, size=2_000),  # duplicates, unsorted
            np.sort(rng.integers(0, 3_000, size=2_000)),  # duplicates, sorted
            rng.permutation(4_000)[:2_500],  # unique keys
        ]
        probe = rng.integers(-10, 4_010, size=3_000)
        expected = [_ref_match(probe, b) for b in builds]
        errors: list[BaseException] = []

        def worker(seed: int) -> None:
            try:
                for step in range(30):
                    j = (seed + step) % len(builds)
                    got = _match(probe, builds[j], pairs=True)
                    for g, w in zip(got[:3], expected[j]):
                        _assert_same(g, w)
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors, errors[0]


# ----------------------------------------------------------------------
# Resident state stays inside the priced build estimate
# ----------------------------------------------------------------------


@st.composite
def build_frames(draw):
    n = draw(st.integers(1, 80))
    width = draw(st.integers(0, 2 * n))
    base = draw(st.integers(-(2**62), 2**62))
    keys = draw(st.lists(st.integers(base, base + width), min_size=n, max_size=n))
    if draw(st.booleans()):
        keys = sorted(keys)
    return Frame({"rk": Column.from_ints(keys)}, n)


class TestDenseStateIsPriced:
    @settings(max_examples=300, deadline=None)
    @given(build_frames())
    def test_index_fits_build_estimate(self, right):
        keys = right.column("rk").values
        left = Frame({"lk": Column.from_ints(keys[::-1].tolist())}, right.nrows)
        execute_join(left, right, ["lk"], ["rk"], "inner", _Ctx())
        index = key_cache.memo("join_index", keys, _build_index)
        if index.kernel != "dense":
            return
        assert index.nbytes <= HASH_ENTRY_BYTES * right.nrows
        assert index.nbytes <= join_build_estimate(right)

    @settings(max_examples=300, deadline=None)
    @given(key_arrays(min_size=1))
    def test_any_dtype_index_fits_hash_entry_charge(self, keys):
        index = _build_index(keys)
        if index.kernel == "dense":
            assert index.nbytes <= HASH_ENTRY_BYTES * len(keys)
