"""Concurrency stress for the engine's two shared caches.

Morsel workers and serving threads hammer :class:`ResultCache` and
:class:`KeyCache` simultaneously; these tests drive both with thread
storms well past their capacities and assert the invariants that keep
them safe to share: values are always correct, single-flight really is
single-flight, bounds hold, and the accounting (hits + misses, byte
totals) stays exact under interleaving.
"""

from __future__ import annotations

import random
import threading

import numpy as np
import pytest

from repro.engine.cache import ResultCache
from repro.engine.keycache import KeyCache


def _stable_argsort(array: np.ndarray) -> np.ndarray:
    return np.argsort(array, kind="stable")


def _run_threads(n: int, target) -> None:
    barrier = threading.Barrier(n)

    def wrapped(i):
        barrier.wait()
        target(i)

    threads = [threading.Thread(target=wrapped, args=(i,)) for i in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


class TestResultCacheStress:
    N_THREADS = 8
    N_KEYS = 16
    ROUNDS = 60
    CAPACITY = 4

    def test_storm_returns_correct_values_and_exact_accounting(self):
        cache = ResultCache(capacity=self.CAPACITY)
        runs_per_key = [0] * self.N_KEYS
        runs_lock = threading.Lock()
        errors = []

        def compute(k: int):
            def run():
                with runs_lock:
                    runs_per_key[k] += 1
                return ("value", k * 10)

            return run

        def client(i: int):
            rng = random.Random(1000 + i)
            try:
                for _ in range(self.ROUNDS):
                    k = rng.randrange(self.N_KEYS)
                    value, _ = cache.get_or_run(f"k{k}", compute(k))
                    assert value == ("value", k * 10)
            except BaseException as exc:  # pragma: no cover - diagnostics
                errors.append(exc)

        _run_threads(self.N_THREADS, client)
        assert not errors

        stats = cache.stats()
        total_calls = self.N_THREADS * self.ROUNDS
        # Every call recorded exactly one hit or one miss...
        assert stats["hits"] + stats["misses"] == total_calls
        # ...and every miss corresponds to exactly one run() execution
        # (single-flight: concurrent requests for a key share one run).
        assert stats["misses"] == sum(runs_per_key)

        # One quiet insert lets eviction settle; the bound then holds.
        cache.get_or_run("settle", lambda: None)
        assert len(cache) <= self.CAPACITY

    def test_single_flight_under_contention(self):
        """All threads ask for ONE key at once: exactly one run."""
        cache = ResultCache(capacity=4)
        runs = []
        release = threading.Event()

        def slow_run():
            runs.append(1)
            assert release.wait(timeout=10)
            return "shared"

        results = [None] * self.N_THREADS
        barrier = threading.Barrier(self.N_THREADS + 1)

        def client(i):
            barrier.wait()
            results[i] = cache.get_or_run("hot", slow_run)

        threads = [
            threading.Thread(target=client, args=(i,))
            for i in range(self.N_THREADS)
        ]
        for t in threads:
            t.start()
        barrier.wait()  # all clients racing for the same key
        release.set()
        for t in threads:
            t.join(timeout=10)

        assert len(runs) == 1
        assert all(value == "shared" for value, _ in results)
        # Exactly one miss (the owner); everyone else piggybacked.
        assert [r for _, r in results].count(False) == 1

    def test_in_flight_entries_survive_eviction_pressure(self):
        """A slow in-flight entry must not be evicted by faster keys
        churning the LRU past capacity around it."""
        cache = ResultCache(capacity=2)
        release = threading.Event()
        outcome = {}

        def slow_run():
            assert release.wait(timeout=10)
            return "slow"

        def slow_client():
            outcome["slow"] = cache.get_or_run("slow-key", slow_run)

        thread = threading.Thread(target=slow_client)
        thread.start()
        # Churn many completed entries through the cache meanwhile.
        for i in range(20):
            cache.get_or_run(f"churn-{i}", lambda i=i: i)
        release.set()
        thread.join(timeout=10)
        assert outcome["slow"] == ("slow", False)
        # And the hot key is still servable (recompute or hit, both fine).
        value, _ = cache.get_or_run("slow-key", lambda: "slow")
        assert value == "slow"


class TestKeyCacheStress:
    N_THREADS = 8
    ROUNDS = 40

    @pytest.fixture()
    def arrays(self):
        rng = np.random.default_rng(7)
        return [
            rng.integers(0, 50, size=200 + 37 * i, dtype=np.int64)
            for i in range(12)
        ]

    def test_concurrent_factorize_matches_numpy(self, arrays):
        cache = KeyCache(max_entries=4, max_bytes=1 << 20)
        expected = [np.unique(a, return_inverse=True) for a in arrays]
        errors = []

        def client(i: int):
            rng = random.Random(i)
            try:
                for _ in range(self.ROUNDS):
                    j = rng.randrange(len(arrays))
                    uniques, codes = cache.factorize(arrays[j])
                    exp_uniques, exp_codes = expected[j]
                    np.testing.assert_array_equal(uniques, exp_uniques)
                    np.testing.assert_array_equal(
                        codes, exp_codes.reshape(arrays[j].shape)
                    )
            except BaseException as exc:  # pragma: no cover - diagnostics
                errors.append(exc)

        _run_threads(self.N_THREADS, client)
        assert not errors

        stats = cache.stats()
        assert stats["entries"] <= 4
        assert stats["hits"] + stats["misses"] == self.N_THREADS * self.ROUNDS

    def test_concurrent_memo_matches_numpy(self, arrays):
        cache = KeyCache(max_entries=4, max_bytes=1 << 20)
        expected = [np.argsort(a, kind="stable") for a in arrays]
        errors = []

        def client(i: int):
            rng = random.Random(100 + i)
            try:
                for _ in range(self.ROUNDS):
                    j = rng.randrange(len(arrays))
                    np.testing.assert_array_equal(
                        cache.memo("argsort", arrays[j], _stable_argsort), expected[j]
                    )
            except BaseException as exc:  # pragma: no cover - diagnostics
                errors.append(exc)

        _run_threads(self.N_THREADS, client)
        assert not errors
        assert cache.stats()["entries"] <= 4

    def test_mixed_kinds_share_the_bound(self, arrays):
        cache = KeyCache(max_entries=6, max_bytes=1 << 20)
        errors = []

        def client(i: int):
            rng = random.Random(200 + i)
            try:
                for _ in range(self.ROUNDS):
                    j = rng.randrange(len(arrays))
                    if rng.random() < 0.5:
                        cache.factorize(arrays[j])
                    else:
                        cache.memo("argsort", arrays[j], _stable_argsort)
            except BaseException as exc:  # pragma: no cover - diagnostics
                errors.append(exc)

        _run_threads(self.N_THREADS, client)
        assert not errors
        stats = cache.stats()
        assert stats["entries"] <= 6
        assert stats["bytes"] <= 1 << 20

    def test_byte_accounting_is_exact_after_storm(self, arrays):
        """bytes must equal the recomputed payload sizes of the
        surviving entries — no drift from concurrent insert/evict."""
        cache = KeyCache(max_entries=4, max_bytes=1 << 20)
        errors = []

        def client(i: int):
            rng = random.Random(300 + i)
            try:
                for _ in range(self.ROUNDS):
                    cache.factorize(arrays[rng.randrange(len(arrays))])
            except BaseException as exc:  # pragma: no cover - diagnostics
                errors.append(exc)

        _run_threads(self.N_THREADS, client)
        assert not errors
        with cache._lock:
            recomputed = sum(
                cache._payload_bytes(source(), value)
                for source, value, _ in cache._entries.values()
            )
            assert cache._bytes == recomputed

    def test_oversized_payload_is_not_cached(self):
        cache = KeyCache(max_entries=4, max_bytes=128)
        big = np.arange(1000, dtype=np.int64)
        order = cache.memo("argsort", big, _stable_argsort)
        np.testing.assert_array_equal(order, np.argsort(big, kind="stable"))
        assert cache.stats()["entries"] == 0
