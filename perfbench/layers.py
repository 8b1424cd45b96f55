"""The traced run: per-layer numbers for one workload.

The benchmark opens its own spans around the public functions of each
front-end layer (``tokenize``, ``parse_statement``, ``plan_statement``,
``optimize_plan``, ``estimate_service_cost``), calling them on the very
text it then sends, and reads the rest from what the program exposes:
the spans its ``tracer=`` argument records (request → query → pipeline
→ operator → morsel, and shard spans on the cluster), counter deltas in
:data:`repro.obs.metrics.metrics`, and each ``Result.profile``.

Per request, the layer times are reconciled against the request's
latency; what no span covers is ``trace.unattributed_frac``. The same
requests also run through an untraced twin of the set-up, and the
latency difference is ``trace.overhead_frac``.
"""

from __future__ import annotations

import time
from collections import defaultdict

from repro.engine import WorkProfile, optimize_plan
from repro.engine.sql import parse_statement, plan_statement, tokenize
from repro.hardware import PI_KEY, PLATFORMS, PerformanceModel
from repro.obs import Tracer, iter_spans, metrics as registry
from repro.serve.admission import estimate_service_cost

from .loadgen import Sample, open_loop, timed
from .workloads import NPROC, ClusterWorkload, failures

__all__ = ["OP_KINDS", "PER_LAYER_UNITS", "self_time", "traced_run"]

OP_KINDS = ("scan", "filter", "project", "hashjoin", "aggregate", "sort", "topk")

PER_LAYER_UNITS = {
    "sql.lex_ms": "ms",
    "sql.parse_ms": "ms",
    "sql.plan_ms": "ms",
    "optimizer.optimize_ms": "ms",
    "optimizer.plan_nodes": "count",
    "serve.estimate_ms": "ms",
    "serve.overhead_ms": "ms",
    "serve.queued_ms": "ms",
    "serve.shed": "count",
    **{f"op.{kind}_ms": "ms" for kind in OP_KINDS},
    "work.seq_bytes": "bytes",
    "work.rand_accesses": "count",
    "work.gather_bytes": "bytes",
    "keycache.hit_ratio": "ratio",
    "parallel.morsels": "count",
    "parallel.morsel_ms": "ms",
    "cache.hit_ratio": "ratio",
    "rollup.route_ratio": "ratio",
    "rollup.semantic_hit_ratio": "ratio",
    "rollup.build_s": "s",
    "spill.bytes": "bytes",
    "spill.partitions": "count",
    "spill.respill_depth": "count",
    "cluster.shard_ms": "ms",
    "cluster.merge_ms": "ms",
    "cluster.wrong_queries": "count",
    "cluster.modeled_s": "s",
    "model.pi_s": "s",
    **{f"model.residual.{kind}": "ratio" for kind in OP_KINDS},
    "trace.unattributed_frac": "ratio",
    "trace.overhead_frac": "ratio",
    "loadgen.late_ms": "ms",
}

# Hit/miss counter pairs in the metrics registry, by the ratio they feed.
_HIT_RATIOS = {
    "keycache.hit_ratio": "engine.key_cache",
    "cache.hit_ratio": "engine.result_cache",
    "rollup.semantic_hit_ratio": "rollup.semantic_cache",
}


def self_time(span) -> float:
    """A span's duration minus the part its children cover."""
    return span.duration_s - sum(child.duration_s for child in span.children)


def _plan_nodes(node) -> int:
    return 1 + sum(_plan_nodes(child) for child in node.children())


class _Layers:
    """Benchmark-side spans around the front-end layers' public calls."""

    def __init__(self, tracer: Tracer, db, settings):
        self.tracer = tracer
        self.db = db
        self.settings = settings

    def _timed(self, parent, name, fn, *args):
        span = self.tracer.start("layer", name, parent=parent)
        try:
            return fn(*args)
        finally:
            self.tracer.finish(span)

    def probe(self, text: str):
        """Run each front-end layer once on ``text``; returns the root
        span (children: one span per layer) and the optimized plan."""
        root = self.tracer.start("bench", "front-end")
        self._timed(root, "sql.lex", tokenize, text)
        stmt = self._timed(root, "sql.parse", parse_statement, text)
        plan = self._timed(root, "sql.plan", plan_statement, self.db, stmt)
        node = self._timed(
            root, "optimizer.optimize", optimize_plan, plan.node, self.db, self.settings
        )
        self._timed(
            root, "serve.estimate", estimate_service_cost, self.db, text, self.settings
        )
        self.tracer.finish(root)
        return root, node


def _counter(name: str) -> float:
    metric = registry.get(name)
    return metric.value if metric is not None else 0.0


def _hit_counts() -> dict[str, tuple[float, float]]:
    return {
        ratio: (_counter(prefix + ".hits"), _counter(prefix + ".misses"))
        for ratio, prefix in _HIT_RATIOS.items()
    }


def _modeled_s(perf, pi, op) -> float:
    one = WorkProfile()
    one.operators.append(op)
    return perf.predict(one, pi)


class _Tally:
    """Per-request sums that become per-layer means."""

    def __init__(self):
        self.sums = defaultdict(float)
        self.requests = 0
        self.executed = 0  # requests that ran operators (not result-cache hits)
        self.latency_s = 0.0
        self.attributed_s = 0.0
        self.measured_op_s = defaultdict(float)
        self.modeled_op_s = defaultdict(float)
        self.routed = 0
        self.modeled_cluster_s = 0.0
        # ratio name -> [hits, lookups] over the traced requests only
        self.hits = {ratio: [0.0, 0.0] for ratio in _HIT_RATIOS}

    def add_hits(self, before: dict, after: dict) -> None:
        for ratio, (hits, misses) in after.items():
            self.hits[ratio][0] += hits - before[ratio][0]
            self.hits[ratio][1] += hits + misses - sum(before[ratio])

    def bases(self) -> dict:
        out = {r: {"hits": h, "lookups": n} for r, (h, n) in self.hits.items()}
        out["rollup.route_ratio"] = {"routed": self.routed, "requests": self.requests}
        return out

    def add_spans(self, root) -> dict:
        """Fold one span tree's operator, morsel, shard and merge time in."""
        found = {"query": None, "queued_s": root.attrs.get("queued_s", 0.0)}
        for span in iter_spans(root):
            if span.kind == "query" and found["query"] is None and span is not root:
                found["query"] = span
            if span.kind == "operator" and not span.attrs.get("coalesced"):
                self.measured_op_s[span.name] += self_time(span)
            elif span.kind == "morsel":
                self.sums["parallel.morsels"] += 1
                self.sums["parallel.morsel_ms"] += span.duration_s * 1e3
            elif span.kind == "shard":
                self.sums["cluster.shard_ms"] += span.duration_s * 1e3
            elif span.kind == "query" and span.name.startswith("merge:"):
                self.sums["cluster.merge_ms"] += span.duration_s * 1e3
        return found

    def add_profile(self, profile, perf, pi) -> None:
        for op in profile.operators:
            self.sums["work.seq_bytes"] += op.seq_bytes
            self.sums["work.rand_accesses"] += op.rand_accesses
            self.sums["work.gather_bytes"] += op.gather_bytes
            self.sums["spill.bytes"] += op.spilled_bytes
            self.sums["spill.partitions"] += op.spill_partitions
            self.sums["spill.respill_depth"] += op.respill_depth
            modeled = _modeled_s(perf, pi, op)
            self.sums["model.pi_s"] += modeled
            self.modeled_op_s[op.operator] += modeled

    def metrics(self) -> dict:
        n = max(1, self.requests)
        out = {name: 0.0 for name in PER_LAYER_UNITS}
        for name, total in self.sums.items():
            out[name] = total / n
        for kind in OP_KINDS:
            out[f"op.{kind}_ms"] = self.measured_op_s[kind] * 1e3 / n
            modeled = self.modeled_op_s[kind]
            out[f"model.residual.{kind}"] = (
                self.measured_op_s[kind] / modeled if modeled > 0 else 0.0
            )
        for ratio, (hits, lookups) in self.hits.items():
            out[ratio] = hits / lookups if lookups else 0.0
        out["rollup.route_ratio"] = self.routed / n
        if self.latency_s > 0:
            out["trace.unattributed_frac"] = (
                (self.latency_s - self.attributed_s) / self.latency_s
            )
        return out


def _server_request(tally, layers, server, tracer, req, perf, pi, check) -> Sample:
    before = len(tracer.roots)
    counts = _hit_counts()
    started = time.perf_counter()
    try:
        result = server.query(req.payload)
        replied = time.perf_counter()
        rows = result.rows
        if check is not None:
            check(result)
    except Exception as exc:  # counted as a failed request
        return Sample(time.perf_counter() - started, error=f"{type(exc).__name__}: {exc}")
    latency = time.perf_counter() - started
    tally.add_hits(counts, _hit_counts())
    request = next(r for r in tracer.roots[before:] if r.kind == "request")
    # The layers run on the same text after the request, so they do not
    # warm its caches. Each runs twice and keeps its faster call, so a
    # cold first call does not land on whichever layer happens to go first.
    probes = [layers.probe(req.payload) for _ in range(2)]
    front = {
        child.name: min(
            c.duration_s for p, _ in probes for c in p.children if c.name == child.name
        )
        for child in probes[0][0].children
    }
    node = probes[-1][1]
    # parse_statement tokenizes internally: its self time excludes lexing.
    front["sql.parse"] = max(0.0, front["sql.parse"] - front["sql.lex"])
    found = tally.add_spans(request)
    query = found["query"]
    query_s = query.duration_s if query is not None else 0.0
    tally.requests += 1
    for name, seconds in front.items():
        tally.sums[name + "_ms"] += seconds * 1e3
    tally.sums["optimizer.plan_nodes"] += _plan_nodes(node)
    tally.sums["serve.queued_ms"] += found["queued_s"] * 1e3
    tally.sums["serve.overhead_ms"] += (request.duration_s - query_s) * 1e3
    if query is not None and query.attrs.get("rollup"):
        tally.routed += 1
    if not result.cached:
        tally.executed += 1
        tally.add_profile(result.profile, perf, pi)
    # The server stamps a request's enqueue time before its admission
    # estimate (which parses, plans and optimizes), so ``queued_s`` covers
    # the estimate and the queue wait. Then the worker parses and
    # optimizes, the query executes, and the result becomes rows.
    attributed = (
        found["queued_s"]
        + front["sql.lex"] + front["sql.parse"] + front["sql.plan"]
        + front["optimizer.optimize"] + query_s + (latency - (replied - started))
    )
    tally.latency_s += latency
    tally.attributed_s += attributed
    return Sample(latency, rows=rows, cached=result.cached)


def _cluster_request(tally, clusters, tracer, req, perf, pi) -> Sample:
    n_nodes, number = req.payload
    before = len(tracer.roots)
    started = time.perf_counter()
    try:
        run = clusters[n_nodes].run_query(number)
        rows = run.result.rows
    except Exception as exc:
        return Sample(time.perf_counter() - started, error=f"{type(exc).__name__}: {exc}")
    latency = time.perf_counter() - started
    attributed = 0.0
    for root in tracer.roots[before:]:
        tally.add_spans(root)
        attributed += root.duration_s
    tally.requests += 1
    tally.executed += 1
    tally.modeled_cluster_s += run.total_seconds
    for profile in run.run.node_profiles:
        tally.add_profile(profile, perf, pi)
    if run.run.merge_profile is not None:
        tally.add_profile(run.run.merge_profile, perf, pi)
    tally.latency_s += latency
    tally.attributed_s += attributed
    return Sample(latency, rows=rows)


def traced_run(workload, seconds: float):
    """Per-layer metrics for ``workload``: ``(metrics, units, detail,
    checked)`` where ``checked`` pairs every sample with its request.

    Each request goes once through an untraced set-up and once through a
    traced twin, alternating which goes first, so drift and cache warmth
    fall on both sides alike.
    """
    tracer = Tracer()
    plain = workload.setup()
    traced = workload.setup(tracer=tracer)
    tracer.reset()
    perf, pi = PerformanceModel(), PLATFORMS[PI_KEY]
    tally = _Tally()
    cluster = isinstance(workload, ClusterWorkload)
    if cluster:
        def call(req):
            return _cluster_request(tally, traced.handle, tracer, req, perf, pi)
    else:
        layers = _Layers(tracer, traced.db, traced.handle.executor.settings)

        def call(req):
            return _server_request(
                tally, layers, traced.handle, tracer, req, perf, pi, workload.check
            )

    requests = workload.traced_requests(seconds)
    shed0 = _counter("serve.shed")
    checked, untraced_s, traced_s = [], 0.0, 0.0
    for index, req in enumerate(requests):
        if index % 2:
            plain_sample = timed(plain.send, req)
            traced_sample = call(req)
        else:
            traced_sample = call(req)
            plain_sample = timed(plain.send, req)
        untraced_s += plain_sample.latency_s
        traced_s += traced_sample.latency_s
        checked += [(traced_sample, req), (plain_sample, req)]
    out = tally.metrics()
    out["serve.shed"] = _counter("serve.shed") - shed0
    out["rollup.build_s"] = traced.rollup_build_s
    out["trace.overhead_frac"] = (traced_s - untraced_s) / untraced_s
    if cluster:
        wrong = {r.key for _, r in failures(checked, workload.expected)}
        out["cluster.wrong_queries"] = float(len(wrong))
        out["cluster.modeled_s"] = tally.modeled_cluster_s

    schedule = workload.open_loop_requests(seconds)
    if schedule is not None:
        reqs, due = schedule
        opened, _ = open_loop(plain.send, reqs, due, clients=NPROC)
        out["loadgen.late_ms"] = sum(s.late_s for s in opened) / len(opened) * 1e3
        checked.extend(zip(opened, reqs))
    plain.close()
    traced.close()
    detail = {
        "ratio_bases": tally.bases(),
        "traced_requests": tally.requests,
        "executed_requests": tally.executed,
        "traced_latency_s": traced_s,
        "untraced_latency_s": untraced_s,
    }
    return out, PER_LAYER_UNITS, detail, checked
