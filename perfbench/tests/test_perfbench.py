"""Self-tests of the benchmark's own machinery.

Run::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import time

import pytest

from perfbench.dashboard import generate_requests, mix_shares, poisson_schedule
from perfbench.loadgen import Req, Sample, closed_loop, open_loop
from perfbench.measure import geomean, rows_match, tail
from perfbench.workloads import _passes, failures


# -- the tail-percentile rule ------------------------------------------------

def test_tail_leaves_exactly_ten_samples_beyond():
    value, percentile, samples = tail(list(range(1, 101)))
    assert value == 90
    assert percentile == pytest.approx(90.0)
    assert samples == 100
    assert sum(v > value for v in range(1, 101)) == 10


def test_tail_is_order_insensitive_and_tracks_sample_count():
    values = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 10.0, 0.5, 11.0]
    value, percentile, samples = tail(values)
    assert value == 1.0  # 12 samples: only the two smallest are not beyond
    assert samples == 12
    assert percentile == pytest.approx(100.0 * 2 / 12)


def test_tail_refuses_too_few_samples():
    with pytest.raises(ValueError):
        tail([1.0] * 10)


def test_geomean():
    assert geomean([1.0, 100.0]) == pytest.approx(10.0)
    with pytest.raises(ValueError):
        geomean([1.0, 0.0])


# -- due-time latency under a stalled server -----------------------------------

def _fake_server(stall_s: float, stall_index: int = 0):
    def send(req):
        if req.payload == stall_index:
            time.sleep(stall_s)
        else:
            time.sleep(0.001)
        return [(req.payload,)], False

    return send


def test_stall_inflates_later_requests_and_generator_lateness():
    requests = [Req("q", i) for i in range(12)]
    due = [0.01 * i for i in range(12)]
    calm, _ = open_loop(_fake_server(0.001), requests, due, clients=1)
    stalled, _ = open_loop(_fake_server(0.2), requests, due, clients=1)
    # Requests queued behind the stall were sent late and their latency,
    # timed from when they were due, carries the wait.
    for index in range(1, 6):
        assert stalled[index].late_s > 0.1
        assert stalled[index].latency_s > 0.1
        assert stalled[index].latency_s > calm[index].latency_s + 0.05
    assert sum(s.late_s for s in stalled) > sum(s.late_s for s in calm) + 0.5
    assert all(s.error is None for s in stalled)


def test_closed_loop_does_not_charge_the_stall_to_later_requests():
    requests = [Req("q", i) for i in range(6)]
    samples, wall = closed_loop(_fake_server(0.1), requests, clients=1)
    assert samples[0].latency_s >= 0.1
    assert all(s.latency_s < 0.05 for s in samples[1:])
    assert wall >= 0.1


def test_a_raising_server_is_a_failed_sample_not_a_crash():
    def send(req):
        raise RuntimeError("shed")

    samples, _ = closed_loop(send, [Req("q", 0)], clients=1)
    assert samples[0].error == "RuntimeError: shed"


# -- generator determinism ---------------------------------------------------

def test_same_seed_same_requests_and_schedule():
    assert generate_requests(3, 300) == generate_requests(3, 300)
    assert poisson_schedule(3, 100.0, 300) == poisson_schedule(3, 100.0, 300)
    base = [Req(f"Q{i}", i) for i in range(22)]
    assert _passes(base, 3, "t", 3) == _passes(base, 3, "t", 3)


def test_other_seed_other_requests_and_schedule():
    assert generate_requests(3, 300) != generate_requests(4, 300)
    assert poisson_schedule(3, 100.0, 300) != poisson_schedule(4, 100.0, 300)
    base = [Req(f"Q{i}", i) for i in range(22)]
    assert _passes(base, 3, "t", 3) != _passes(base, 3, "t", 4)


def test_request_mix_has_repeats_variants_and_first_sightings():
    shares = mix_shares(generate_requests(3, 1000))
    assert shares["exact_repeat_share"] > 0
    assert shares["literal_variant_share"] > 0
    assert shares["first_seen_share"] > 0
    assert sum(
        shares[k] for k in ("exact_repeat_share", "literal_variant_share", "first_seen_share")
    ) == pytest.approx(1.0)


# -- the row checker --------------------------------------------------------

EXPECTED = [("a", 1, 2.5), ("b", 2, 3.25), ("c", 3, 1e6 / 3)]


def test_reordered_rows_and_float_noise_match():
    noisy = [("c", 3, 1e6 / 3 * (1 + 1e-12)), ("a", 1, 2.5), ("b", 2, 3.25)]
    assert rows_match(EXPECTED, noisy)


def test_one_corrupted_row_counts_as_one_failure():
    corrupted = [("a", 1, 2.5), ("b", 2, 3.5), ("c", 3, 1e6 / 3)]
    checked = [
        (Sample(0.01, rows=list(EXPECTED)), Req("q", "q")),
        (Sample(0.01, rows=corrupted), Req("q", "q")),
        (Sample(0.01, rows=list(EXPECTED)), Req("q", "q")),
    ]
    bad = failures(checked, lambda req: EXPECTED)
    assert len(bad) == 1 and bad[0][0] is checked[1][0]


def test_missing_or_extra_rows_and_errors_fail():
    assert not rows_match(EXPECTED, EXPECTED[:2])
    assert not rows_match(EXPECTED, EXPECTED + [("d", 4, 0.0)])
    checked = [(Sample(0.01, error="Overloaded: shed"), Req("q", "q"))]
    assert len(failures(checked, lambda req: EXPECTED)) == 1
