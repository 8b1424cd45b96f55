"""Load generators: closed loops and a due-time open loop.

Both drive a ``send(request) -> (rows, cached)`` callable from at most a few
client threads of one process. A closed-loop client sends its next
request only after the previous one returned; the open loop sends on a
fixed schedule and times every request from when it was *due*, so a
stall shows up in the latency of the requests queued behind it and in
how late the generator ran.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

__all__ = ["Req", "Sample", "closed_loop", "open_loop", "timed"]


@dataclass(frozen=True)
class Req:
    """One request: ``key`` names the query (per-query medians group by
    it), ``payload`` is what the workload's ``send`` takes."""

    key: str
    payload: object


@dataclass
class Sample:
    """One request's outcome. ``latency_s`` runs from the due time (open
    loop) or the send time (closed loop) to the reply; ``late_s`` is how
    long after its due time the request was actually sent."""

    latency_s: float
    late_s: float = 0.0
    error: str | None = None
    rows: list | None = field(default=None, repr=False)
    cached: bool = False


def _call(send, request) -> tuple[list | None, bool, str | None]:
    try:
        rows, cached = send(request)
    except Exception as exc:  # a failed or shed request is a sample, not a crash
        return None, False, f"{type(exc).__name__}: {exc}"
    return rows, cached, None


def timed(send, request) -> Sample:
    """Send one request and time it from the call to the reply."""
    start = time.perf_counter()
    rows, cached, error = _call(send, request)
    return Sample(time.perf_counter() - start, error=error, rows=rows, cached=cached)


def closed_loop(send, requests, clients: int) -> tuple[list[Sample], float]:
    """Send ``requests`` from ``clients`` threads, each taking the next
    unsent request when its previous one returned. Returns the samples
    (in request order) and the phase's wall time."""
    samples: list[Sample | None] = [None] * len(requests)
    cursor = iter(range(len(requests)))
    lock = threading.Lock()

    def client():
        while True:
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            samples[index] = timed(send, requests[index])

    started = time.perf_counter()
    _run_threads(client, clients)
    return samples, time.perf_counter() - started


def open_loop(send, requests, due_s, clients: int) -> tuple[list[Sample], float]:
    """Send ``requests[i]`` at ``due_s[i]`` seconds after the phase start
    from ``clients`` threads. A request whose due time passed while every
    client was busy is sent late, and its latency still counts from its
    due time."""
    if len(due_s) != len(requests):
        raise ValueError("one due time per request")
    samples: list[Sample | None] = [None] * len(requests)
    cursor = iter(range(len(requests)))
    lock = threading.Lock()
    origin = time.perf_counter()

    def client():
        while True:
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            due = origin + due_s[index]
            wait = due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            sent = time.perf_counter()
            rows, cached, error = _call(send, requests[index])
            samples[index] = Sample(
                time.perf_counter() - due, late_s=max(0.0, sent - due),
                error=error, rows=rows, cached=cached,
            )

    _run_threads(client, clients)
    return samples, time.perf_counter() - origin


def _run_threads(target, count: int) -> None:
    threads = [
        threading.Thread(target=target, name=f"perfbench-client-{i}", daemon=True)
        for i in range(max(1, count))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
