"""One measured run: a cold set-up, then the closed-loop dispatch client.

Run in a fresh interpreter by ``run.py``, never imported by it, so the
program's module-level caches (scenario LRU, subgraph LRU, memo tables)
start empty.  ``run.py`` also hands it an empty artifact store and the
pinned environment.  Prints one JSON object as its last stdout line.

The closed loop is the way a real-time dispatch client drives the
service: submit the next request in release order, pump the kernel up
to that request's release time (the events due by "now"), and after the
last request ``finish()``.  ``DispatchService.replay(pump_every=1)`` is
deliberately not used: it pumps without a bound, which runs the kernel
past the next release and gets every later request rejected as late
(README.md, "Why not replay()").

Usage: ``python3 perfbench/client.py --workload NAME --seed N [--trace]``

A traced run writes its spans, when it ends, to
``.perfbench_spans/<workload>.npz`` at the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Any

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracing import Tracer, install  # noqa: E402
from workloads import SCENARIO_SEED, WORKLOADS, Workload  # noqa: E402

#: Where a traced run writes its spans, one file per workload.
SPANS_DIR = Path(__file__).resolve().parent.parent / ".perfbench_spans"


def build(workload: Workload, seed: int) -> tuple[Any, list]:
    """Cold set-up through the public API: scenario, requests, scheme, fleet, service."""
    from repro.core.payment import PaymentModel
    from repro.service import DispatchService
    from repro.sim.engine import Simulator
    from repro.sim.scenario import ScenarioSpec, get_scenario

    scenario = get_scenario(ScenarioSpec(seed=SCENARIO_SEED, **workload.spec))
    requests = scenario.requests(seed=seed)
    config = scenario.default_config(**workload.config)
    scheme = scenario.make_scheme(workload.scheme, config=config)
    fleet = scenario.make_fleet(workload.taxis, seed=seed)
    sim = Simulator(scheme, fleet, [], payment=PaymentModel())
    return DispatchService(sim), requests


def closed_loop(service: Any, requests: list, tracer: Tracer | None) -> dict[str, Any]:
    """Submit in release order, pump to each release, then finish."""
    ordered = sorted(requests, key=lambda r: (r.release_time, r.request_id))
    perf = time.perf_counter
    samples: list[float] = []
    pending_max = 0
    t_start = perf()
    for request in ordered:
        if tracer is not None:
            tracer.request_id = request.request_id
        t0 = perf()
        service.submit(request)
        pending_max = max(pending_max, service.pending)
        service.pump(until=request.release_time)
        samples.append(perf() - t0)
    if tracer is not None:
        tracer.request_id = -1
    metrics = service.finish()
    run_s = perf() - t_start
    return {
        "metrics": metrics,
        "samples": samples,
        "run_s": run_s,
        "run_start": t_start,
        "pending_max": pending_max,
    }


def check_outputs(service: Any, metrics: Any, requests: list) -> list[str]:
    """Output checks; returns one message per violation (empty when correct).

    * the request accounting identity closes (``check_balance``);
    * every submitted request got its decision: admitted online requests
      exactly one first-look (``kind == "online"``) record, rejected
      requests exactly one ``rejected`` record;
    * no request was matched twice, and the matched records add up to
      the served counts.  Offline street hails get a record only when a
      taxi picks them up (or they are redispatched), so an unserved
      offline request has none.
    """
    problems: list[str] = []
    try:
        metrics.check_balance()
    except ValueError as exc:
        problems.append(f"check_balance: {exc}")
    first_look: dict[int, int] = {}
    rejected: dict[int, int] = {}
    matched: dict[int, int] = {}
    for record in service.decisions:
        rid = record.request_id
        if record.status == "rejected":
            rejected[rid] = rejected.get(rid, 0) + 1
            continue
        if record.kind == "online":
            first_look[rid] = first_look.get(rid, 0) + 1
        if record.status == "matched":
            matched[rid] = matched.get(rid, 0) + 1
    for request in requests:
        rid = request.request_id
        if rid in rejected:
            if rejected[rid] != 1 or rid in first_look or rid in matched:
                problems.append(f"request {rid}: rejected and also decided")
        elif not request.offline and first_look.get(rid, 0) != 1:
            problems.append(f"request {rid}: {first_look.get(rid, 0)} first-look decisions")
    twice = sorted(rid for rid, n in matched.items() if n > 1)
    if twice:
        problems.append(f"{len(twice)} requests matched more than once, e.g. {twice[:5]}")
    if sum(matched.values()) != metrics.served_online + metrics.served_offline:
        problems.append(
            f"{sum(matched.values())} matched records vs "
            f"{metrics.served_online + metrics.served_offline} served"
        )
    return problems


def fingerprint(service: Any, metrics: Any) -> str:
    """Hash of everything the run decided; wall-clock figures excluded."""
    h = hashlib.sha256()
    for d in service.decisions:
        h.update(repr((d.request_id, d.time, d.status, d.kind, d.taxi_id)).encode())
    h.update(
        repr(
            (
                metrics.num_requests,
                metrics.served_online,
                metrics.served_offline,
                metrics.completed,
                tuple(metrics.waiting_times_s),
                tuple(metrics.detour_times_s),
                tuple(metrics.candidate_counts),
                metrics.shared_fares,
                metrics.driver_incomes,
                metrics.counters.get("match.insertions_evaluated"),
            )
        ).encode()
    )
    return h.hexdigest()[:16]


def _ratio(num: float, den: float) -> float:
    return float(num) / float(den) if den else 0.0


def layer_metrics(
    tracer: Tracer, loop: dict[str, Any], service: Any, artifact_stats: dict
) -> dict[str, float]:
    """The per-layer metrics of a traced run (README.md has the table)."""
    setup = tracer.summary()
    run = tracer.summary(since=loop["run_start"])
    counters = loop["metrics"].counters

    def total(name: str, table: dict = setup) -> float:
        return table[name]["total_s"]

    def calls(name: str) -> int:
        return run[name]["calls"]

    def own(name: str) -> float:
        return run[name]["self_s"]

    top = sum(total(n, run) for n in ("service.submit", "sim.pump", "sim.finish"))
    leg_lookups = counters.get("kernel.legcache_hits", 0) + counters.get("kernel.legcache_misses", 0)
    sub_lookups = counters.get("kernel.subgraph_hits", 0) + counters.get("kernel.subgraph_builds", 0)
    ch_queries = counters.get("sp.ch.queries", 0)
    batched = counters.get("window.batched_requests", 0)
    out: dict[str, float] = {
        "demand.generate_days.s": total("demand.generate_days"),
        "demand.predictor_fit.s": total("demand.predictor_fit"),
        "demand.to_requests.s": total("demand.to_requests"),
        "network.engine_build.s": total("network.engine_build"),
        "network.ch_build.s": total("network.ch_build"),
        "network.landmarks_build.s": total("network.landmarks_build"),
        "partitioning.partition.s": total("partitioning.partition"),
        "artifacts.builds": sum(s["builds"] for s in artifact_stats.values()),
        "artifacts.loads": sum(s["loads"] for s in artifact_stats.values()),
        "service.submit.calls": calls("service.submit"),
        "service.submit.self_s": own("service.submit"),
        "service.rejected": sum(service.rejections.values()),
        "service.pending_max": loop["pending_max"],
        "sim.pump.self_s": own("sim.pump"),
        "sim.finish.s": total("sim.finish", run),
        "sim.events": counters.get("kernel.events_processed", 0),
        "run.unattributed_s": loop["run_s"] - top,
        "fleet.advance.calls": calls("fleet.advance"),
        "fleet.advance.self_s": own("fleet.advance"),
        "fleet.advance.useful_ratio": _ratio(
            counters.get("sim.taxi_advances", 0), calls("fleet.advance")
        ),
        "baselines.maybe_cruise.calls": calls("baselines.maybe_cruise"),
        "baselines.maybe_cruise.self_s": own("baselines.maybe_cruise"),
        "index.on_taxi_advanced.calls": calls("index.on_taxi_advanced"),
        "index.on_taxi_advanced.self_s": own("index.on_taxi_advanced"),
        "core.dispatch.calls": calls("core.dispatch"),
        "core.dispatch.self_s": own("core.dispatch"),
        "core.dispatch.matched_ratio": _ratio(
            run["core.dispatch"]["tally"], calls("core.dispatch")
        ),
        "core.matching.candidates.calls": calls("core.matching.candidates"),
        "core.matching.candidates.self_s": own("core.matching.candidates"),
        "core.matching.candidates.per_request": _ratio(
            run["core.matching.candidates"]["tally"], calls("core.matching.candidates")
        ),
        "core.matching.score_insertions.calls": calls("core.matching.score_insertions"),
        "core.matching.score_insertions.self_s": own("core.matching.score_insertions"),
        "core.matching.insertions_evaluated": counters.get("match.insertions_evaluated", 0),
        "core.install.self_s": own("core.install"),
        "core.try_offline.calls": calls("core.try_offline"),
        "core.try_offline.self_s": own("core.try_offline"),
        "core.try_offline.hit_ratio": _ratio(
            run["core.try_offline"]["tally"], calls("core.try_offline")
        ),
        "core.routing.basic_route.calls": calls("core.routing.basic_route"),
        "core.routing.basic_route.self_s": own("core.routing.basic_route"),
        "core.routing.legcache_lookups": leg_lookups,
        "core.routing.legcache_hit_ratio": _ratio(
            counters.get("kernel.legcache_hits", 0), leg_lookups
        ),
        "core.routing.prob_route.calls": calls("core.routing.prob_route"),
        "core.routing.prob_route.self_s": own("core.routing.prob_route"),
        "core.routing.cruise_route.calls": calls("core.routing.cruise_route"),
        "core.routing.cruise_route.self_s": own("core.routing.cruise_route"),
        "core.routing.cruise_installed_ratio": _ratio(
            run["baselines.maybe_cruise"]["tally"], calls("core.routing.cruise_route")
        ),
        "network.cost_matrix.calls": calls("network.cost_matrix"),
        "network.cost_matrix.self_s": own("network.cost_matrix"),
        "network.cost_matrix.entries": run["network.cost_matrix"]["tally"],
        "network.dist_row.calls": calls("network.dist_row"),
        "network.dist_row.self_s": own("network.dist_row"),
        "network.path.self_s": own("network.path"),
        "network.dijkstra_restricted.calls": calls("network.dijkstra_restricted"),
        "network.dijkstra_restricted.self_s": own("network.dijkstra_restricted"),
        "network.subgraph_lookups": sub_lookups,
        "network.subgraph_hit_ratio": _ratio(counters.get("kernel.subgraph_hits", 0), sub_lookups),
        "network.ch.queries": ch_queries,
        "network.ch.settled_per_query": _ratio(counters.get("sp.ch.settled", 0), ch_queries),
        "core.window.match_window.calls": calls("core.window.match_window"),
        "core.window.match_window.self_s": own("core.window.match_window"),
        "core.window.build_cost_matrix.self_s": own("core.window.build_cost_matrix"),
        "core.window.lap_solve.self_s": own("core.window.lap_solve"),
        "core.window.batched_requests": batched,
        "core.window.matched_ratio": _ratio(counters.get("window.matched", 0), batched),
    }
    return {k: float(v) for k, v in out.items()}


def measure(workload: Workload, seed: int, traced: bool) -> dict:
    """Set up cold, run the closed loop, check the outputs."""
    from repro import artifacts

    tracer = Tracer() if traced else None
    if tracer is not None:
        install(tracer)
    t0 = time.perf_counter()
    service, requests = build(workload, seed)
    setup_s = time.perf_counter() - t0
    artifact_stats = artifacts.stats()
    loop = closed_loop(service, requests, tracer)
    metrics = loop["metrics"]
    problems = check_outputs(service, metrics, requests)
    submitted = service.submitted
    rejected = sum(service.rejections.values())
    result: dict[str, Any] = {
        "ok": not problems,
        "problems": problems[:20],
        "fingerprint": fingerprint(service, metrics),
        "submitted": submitted,
        "failed": rejected,
        "setup_s": setup_s,
        "run_s": loop["run_s"],
        "requests_per_s": submitted / loop["run_s"],
        "decision_ms": [1000.0 * t for t in loop["samples"]],
        "served_rate": metrics.served / metrics.num_requests,
        "mean_wait_s": statistics.fmean(metrics.waiting_times_s),
        "mean_detour_s": statistics.fmean(metrics.detour_times_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "artifacts": artifact_stats,
    }
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, loop, service, artifact_stats)
        result["spans"] = len(tracer)
        SPANS_DIR.mkdir(exist_ok=True)
        spans_file = SPANS_DIR / f"{workload.name}.npz"
        tracer.save(str(spans_file))
        result["spans_file"] = str(spans_file.relative_to(SPANS_DIR.parent))
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    # Import the program before any clock starts: import time is not set-up.
    import repro.core.window  # noqa: F401
    import repro.demand.prediction  # noqa: F401
    import repro.service  # noqa: F401
    import repro.sim.scenario  # noqa: F401

    try:
        result = measure(WORKLOADS[args.workload], args.seed, args.trace)
    except Exception as exc:  # a crashed run is reported, not hidden
        import traceback

        traceback.print_exc()
        result = {"ok": False, "problems": [f"{type(exc).__name__}: {exc}"], "crashed": True}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
