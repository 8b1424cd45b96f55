"""The workloads: data, set-up, requests, reference rows and the measured
phases of an untraced run.

Every workload drives a public entry point from outside the program:
``QueryServer.query`` with SQL text, or ``WimPiCluster.run_query``. A
workload's request lists, orders and schedules come from the run's seed;
the program only ever sees the generated data and requests.
"""

from __future__ import annotations

import math
import os
import random
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

from repro.adevents import generate as generate_adevents
from repro.cluster import WimPiCluster
from repro.engine import DEFAULT_SETTINGS, Executor, MemoryBudget, optimize_plan
from repro.engine.sql import sql as parse_sql
from repro.rollup import enable_rollups, routed_tables
from repro.serve import QueryServer
from repro.tpch import generate as generate_tpch
from repro.tpch import get_query
from repro.tpch.sqltext import SQL_QUERY_NUMBERS, sql_text

from .dashboard import generate_requests, mix_shares, poisson_schedule
from .loadgen import Req, Sample, closed_loop, open_loop
from .measure import TAIL_BEYOND, geomean, median, rows_match, tail

__all__ = ["NPROC", "WORKLOADS", "Served", "failures"]

# Client threads and server workers both follow the host's core count.
NPROC = len(os.sched_getaffinity(0))


@dataclass
class Served:
    """A set-up workload: ``send(req) -> (rows, cached)`` and what it
    runs against."""

    send: object
    db: object
    handle: object  # the QueryServer, or {n_nodes: WimPiCluster}
    rollup_build_s: float = 0.0

    def close(self) -> None:
        if isinstance(self.handle, QueryServer):
            self.handle.close()


def failures(checked: list[tuple[Sample, Req]], expected) -> list[tuple[Sample, Req]]:
    """The (sample, request) pairs that failed, were shed, or returned
    rows that differ from ``expected(req)``. A mismatch is counted, never
    raised."""
    return [
        (sample, req) for sample, req in checked
        if sample.error is not None or not rows_match(expected(req), sample.rows)
    ]


def _serve(db, check=None, **kwargs) -> tuple[QueryServer, object]:
    """A server with ``NPROC`` workers and its ``send``; ``check(result)``
    may raise to turn a reply into a failed request."""
    server = QueryServer(db, workers=NPROC, **kwargs)

    def send(req):
        result = server.query(req.payload)
        if check is not None:
            check(result)
        return result.rows, result.cached

    return server, send


class NotSpilled(Exception):
    """A request of the spill workload ran without spilling."""


def _passes(base: list[Req], count: int, tag: str, seed: int) -> list[Req]:
    """``count`` passes over ``base``, each in its own seeded order."""
    out = []
    for index in range(count):
        order = list(base)
        random.Random(f"{tag}-{seed}-{index}").shuffle(order)
        out.extend(order)
    return out


class Workload:
    """Base: subclasses define set-up, requests, references and phases."""

    name = ""
    # Called on each reply's Result; raising turns it into a failed request.
    check = None

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self._expected: dict = {}
        self._reference_db = None
        # (sample, request) pairs of every set-up's warm-up, row-checked
        # with the measured requests.
        self.setup_samples: list = []

    def expected(self, req: Req):
        """Reference rows for ``req``, computed once per payload."""
        if req.payload not in self._expected:
            self._expected[req.payload] = self.reference(req)
        return self._expected[req.payload]

    def setup(self, tracer=None) -> Served:
        # Drop the previous set-up's data first, so repeated set-ups do
        # not hold two databases at once.
        self._reference_db = None
        served = self.build(tracer)
        self._reference_db = served.db
        warm = self.warmup_requests()
        samples, _ = closed_loop(served.send, warm, clients=1)
        self.setup_samples.extend(zip(samples, warm))
        return served

    def open_loop_requests(self, seconds: float):
        """``(requests, due_s)`` of the traced run's open-loop phase, or
        ``None`` for a workload without an arrival schedule."""
        return None

    def cleanup(self) -> None:
        """Remove anything the workload wrote inside the checkout."""


class ClosedLoopWorkload(Workload):
    """A fixed request pass, driven by one client (per-query medians) and
    then by ``NPROC`` clients (throughput and latency)."""

    # Passes per measured second, one client and NPROC clients: they fix
    # each phase's request count, so every run measures the same mix.
    # There is one round per single-client pass.
    single_passes_per_s = 0.2
    loaded_passes_per_s = 0.4
    traced_passes_per_s = 0.15

    def base_requests(self) -> list[Req]:
        raise NotImplementedError

    def warmup_requests(self) -> list[Req]:
        return self.base_requests()

    def rounds(self, seconds: float) -> list[dict[str, list[Req]]]:
        """Rounds of one single-client pass and an equal share of the
        loaded passes, so slow drift on the host falls on both phases."""
        base = self.base_requests()
        count = max(1, round(self.single_passes_per_s * seconds))
        # Enough loaded samples for a tail even on a short run.
        enough = -(-(TAIL_BEYOND + 1) // len(base))
        loaded = max(count, enough, round(self.loaded_passes_per_s * seconds))
        return [
            {
                "single": _passes(base, 1, f"{self.name}-single-{index}", self.seed),
                "loaded": _passes(
                    base, -(-loaded // count), f"{self.name}-loaded-{index}", self.seed
                ),
            }
            for index in range(count)
        ]

    def traced_requests(self, seconds: float) -> list[Req]:
        passes = max(1, round(self.traced_passes_per_s * seconds))
        return _passes(self.base_requests(), passes, f"{self.name}-traced", self.seed)

    def measure(self, served: Served, seconds: float) -> tuple[dict, dict, list]:
        per_query: dict[str, list[float]] = {}
        latencies, rates, checked = [], [], []
        done, busy = 0, 0.0
        for phase in self.rounds(seconds):
            single, _ = closed_loop(served.send, phase["single"], clients=1)
            loaded, wall = closed_loop(served.send, phase["loaded"], clients=NPROC)
            for sample, req in zip(single, phase["single"]):
                per_query.setdefault(req.key, []).append(sample.latency_s)
            latencies += [s.latency_s for s in loaded]
            rates.append(len(loaded) / wall)
            done, busy = done + len(loaded), busy + wall
            checked += list(zip(single, phase["single"])) + list(zip(loaded, phase["loaded"]))
        # Every round carries whole passes, so the pooled loaded samples
        # hold each query equally often.
        tail_s, tail_pct, tail_n = tail(latencies)
        metrics = {
            "latency_p50_ms": median(latencies) * 1e3,
            "latency_tail_ms": tail_s * 1e3,
            "geomean_ms": geomean(median(v) for v in per_query.values()) * 1e3,
            "throughput_qps": done / busy,
        }
        detail = {
            "latency_tail_percentile": tail_pct,
            "latency_tail_samples": tail_n,
            "clients": NPROC,
            "round_throughput_qps": rates,
            "single_client_requests": sum(len(v) for v in per_query.values()),
            "loaded_requests": len(latencies),
        }
        return metrics, detail, checked


class TpchAdhoc(ClosedLoopWorkload):
    """The 22 TPC-H SQL texts at SF 0.1, result cache off: every request
    pays execution."""

    name = "tpch-adhoc"
    sf = 0.1
    queries = SQL_QUERY_NUMBERS

    def server_kwargs(self) -> dict:
        return {"cache_size": 0}

    def build(self, tracer=None) -> Served:
        db = generate_tpch(self.sf, seed=self.seed)
        server, send = _serve(db, check=self.check, tracer=tracer, **self.server_kwargs())
        return Served(send, db, server)

    def base_requests(self) -> list[Req]:
        return [Req(f"Q{q}", sql_text(q, {"sf": self.sf})) for q in self.queries]

    def reference(self, req: Req):
        number = int(req.key[1:])
        db = self._reference_db
        return Executor(db).execute(get_query(number).build(db, {"sf": self.sf})).rows


class TpchSpill(TpchAdhoc):
    """Q3, Q9, Q13, Q18 and Q21 under a 4 MB memory budget: joins and
    aggregates run per spill partition."""

    name = "tpch-spill"
    queries = (3, 9, 13, 18, 21)
    budget_bytes = 4 * 1024 * 1024
    single_passes_per_s = 0.1
    loaded_passes_per_s = 0.4

    @property
    def spill_dir(self) -> Path:
        return self.workdir / ".perfbench_spill"

    def server_kwargs(self) -> dict:
        self.spill_dir.mkdir(parents=True, exist_ok=True)
        budget = MemoryBudget(self.budget_bytes, spill_dir=str(self.spill_dir))
        return {"cache_size": 0, "memory_budget": budget}

    @staticmethod
    def check(result) -> None:
        # A query that fits the budget would measure the in-memory path;
        # it counts as a failed request instead.
        if not any(op.spilled_bytes > 0 for op in result.profile.operators):
            raise NotSpilled("query ran within the memory budget")

    def cleanup(self) -> None:
        shutil.rmtree(self.spill_dir, ignore_errors=True)


class ClusterWorkload(ClosedLoopWorkload):
    """All 22 queries on ``WimPiCluster`` at 8 and 24 nodes, base SF
    0.05, on the default driver."""

    name = "wimpi-cluster"
    sf = 0.05
    sizes = (8, 24)
    single_passes_per_s = 0.07
    loaded_passes_per_s = 0.13

    def build(self, tracer=None) -> Served:
        db = generate_tpch(self.sf, seed=self.seed)
        clusters = {
            n: WimPiCluster(n, base_sf=self.sf, seed=self.seed, db=db, tracer=tracer)
            for n in self.sizes
        }

        def send(req):
            n, number = req.payload
            return clusters[n].run_query(number).result.rows, False

        return Served(send, db, clusters)

    def base_requests(self) -> list[Req]:
        return [Req(f"{n}:Q{q}", (n, q)) for n in self.sizes for q in range(1, 23)]

    def warmup_requests(self) -> list[Req]:
        return [Req(f"{n}:Q6", (n, 6)) for n in self.sizes]

    def traced_requests(self, seconds: float) -> list[Req]:
        return self.base_requests()

    def reference(self, req: Req):
        number = req.payload[1]
        db = self._reference_db
        return Executor(db).execute(get_query(number).build(db, {"sf": self.sf})).rows


class Dashboard(Workload):
    """Ad-events templates with drawn literals over rollups and the
    result cache, under open-loop Poisson arrivals."""

    name = "dashboard"
    scale = 2
    warmup = 100
    base_rate_qps = 60.0
    # The phases interleave in rounds spread over the whole run, so a
    # few seconds of host noise fall on every metric alike.
    round_count = 6
    # The rate ladder and the latency limit its rungs must meet.
    rungs_qps = (60.0, 100.0, 140.0, 180.0)
    limit_ms = 50.0

    def build(self, tracer=None) -> Served:
        db = generate_adevents(self.scale, seed=self.seed)
        started = time.perf_counter()
        enable_rollups(db)
        build_s = time.perf_counter() - started
        server, send = _serve(db, check=self.check, tracer=tracer)
        return Served(send, db, server, rollup_build_s=build_s)

    def sizes(self, seconds: float) -> dict[str, int]:
        """Requests per round of each phase, and milliseconds per rung."""
        rounds = self.round_count
        open_requests = round(self.base_rate_qps * 0.45 * seconds / rounds)
        # Every round and every rung needs enough samples for a tail.
        rung_ms = (TAIL_BEYOND + 1) * 1e3 / min(self.rungs_qps)
        return {
            "single": max(1, round(15 * seconds / rounds)),
            "loaded": max(NPROC, round(25 * seconds / rounds)),
            "open": max(TAIL_BEYOND + 1, open_requests),
            "rung": max(round(0.05 * seconds * 1e3), math.ceil(rung_ms)),
        }

    def stream(self, seconds: float) -> list[Req]:
        sizes = self.sizes(seconds)
        rung_requests = sum(round(r * sizes["rung"] / 1e3) for r in self.rungs_qps)
        per_round = sizes["single"] + sizes["loaded"] + sizes["open"]
        total = self.warmup + self.round_count * per_round + rung_requests
        return generate_requests(self.seed, total)

    def warmup_requests(self) -> list[Req]:
        return self.stream(1)[: self.warmup]

    def traced_requests(self, seconds: float) -> list[Req]:
        return self.stream(seconds)[self.warmup:self.warmup + max(1, round(20 * seconds))]

    def open_loop_requests(self, seconds: float):
        count = max(1, round(self.base_rate_qps * 0.15 * seconds))
        requests = self.stream(seconds)[-count:]
        return requests, poisson_schedule(self.seed, self.base_rate_qps, count)

    def reference(self, req: Req):
        db = self._reference_db
        settings = DEFAULT_SETTINGS.without_rollups()
        return Executor(db, settings).execute(parse_sql(db, req.payload)).rows

    def routed(self, text: str) -> bool:
        db = self._reference_db
        return bool(routed_tables(optimize_plan(parse_sql(db, text).node, db, DEFAULT_SETTINGS)))

    def measure(self, served: Served, seconds: float) -> tuple[dict, dict, list]:
        sizes = self.sizes(seconds)
        stream = self.stream(seconds)
        cursor = self.warmup

        def take(count):
            nonlocal cursor
            part = stream[cursor:cursor + count]
            cursor += count
            return part

        per_template: dict[str, list[float]] = {}
        latencies, tails, late, checked = [], [], [], []
        done, busy = 0, 0.0
        due_all = poisson_schedule(
            self.seed, self.base_rate_qps, self.round_count * sizes["open"]
        )
        for index in range(self.round_count):
            phase_single = take(sizes["single"])
            phase_loaded = take(sizes["loaded"])
            phase_open = take(sizes["open"])
            due = due_all[index * sizes["open"]:(index + 1) * sizes["open"]]
            due = [t - due[0] for t in due]
            single, _ = closed_loop(served.send, phase_single, clients=1)
            loaded, wall = closed_loop(served.send, phase_loaded, clients=NPROC)
            opened, _ = open_loop(served.send, phase_open, due, clients=NPROC)
            for sample, req in zip(single, phase_single):
                per_template.setdefault(req.key, []).append(sample.latency_s)
            latencies += [s.latency_s for s in opened]
            tails.append(tail([s.latency_s for s in opened]))
            done, busy = done + len(loaded), busy + wall
            late += [s.late_s for s in opened]
            checked += (
                list(zip(single, phase_single)) + list(zip(loaded, phase_loaded))
                + list(zip(opened, phase_open))
            )

        ladder = []
        for rate in self.rungs_qps:
            rung_reqs = take(round(rate * sizes["rung"] / 1e3))
            rung_due = poisson_schedule(self.seed, rate, len(rung_reqs))
            rung, rung_wall = open_loop(served.send, rung_reqs, rung_due, clients=NPROC)
            checked.extend(zip(rung, rung_reqs))
            ladder.append(self._rung(rate, rung, rung_wall))
        passing = [r["rate_qps"] for r in ladder if r["meets_limit"]]

        # The tail of a few-millisecond request under Poisson arrivals is
        # set by a handful of rare expensive misses; the median of the
        # rounds' tails keeps one round's cluster of them from setting it.
        metrics = {
            "latency_p50_ms": median(latencies) * 1e3,
            "latency_tail_ms": median(t[0] for t in tails) * 1e3,
            "geomean_ms": geomean(median(v) for v in per_template.values()) * 1e3,
            "throughput_qps": done / busy,
        }
        measured = [req for _, req in checked]
        routed = {text: self.routed(text) for text in {req.payload for req in measured}}
        detail = {
            "latency_tail_percentile": median(t[1] for t in tails),
            "latency_tail_samples": median(t[2] for t in tails),
            "round_latency_tail_ms": [t[0] * 1e3 for t in tails],
            "rounds": self.round_count,
            "clients": NPROC,
            "base_rate_qps": self.base_rate_qps,
            "loadgen_late_ms": sum(late) / len(late) * 1e3,
            "latency_limit_ms": self.limit_ms,
            "max_rate_qps": max(passing) if passing else 0.0,
            "ladder": ladder,
            "mix": mix_shares(measured),
            "routed_share": sum(routed[req.payload] for req in measured) / len(measured),
            "result_cache_hit_share": sum(s.cached for s, _ in checked) / len(checked),
        }
        return metrics, detail, checked

    def _rung(self, rate: float, samples: list[Sample], wall: float) -> dict:
        latencies = [s.latency_s for s in samples]
        tail_s, tail_pct, tail_n = tail(latencies)
        quarter = max(1, len(samples) // 4)
        late_first = sum(s.late_s for s in samples[:quarter]) / quarter
        late_last = sum(s.late_s for s in samples[-quarter:]) / quarter
        # A backlog grows when the generator falls further behind over the
        # rung by more than half the latency limit.
        growing = (late_last - late_first) * 1e3 > self.limit_ms / 2
        errors = sum(s.error is not None for s in samples)
        return {
            "rate_qps": rate,
            "latency_tail_ms": tail_s * 1e3,
            "latency_tail_percentile": tail_pct,
            "latency_tail_samples": tail_n,
            "errors": errors,
            "backlog_growing": growing,
            "meets_limit": tail_s * 1e3 <= self.limit_ms and not growing and errors == 0,
            "achieved_qps": len(samples) / wall,
        }


WORKLOADS = {w.name: w for w in (TpchAdhoc, Dashboard, TpchSpill, ClusterWorkload)}
