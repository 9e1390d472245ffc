"""Tests of the benchmark client itself (not part of the tier-1 suite).

Run from the repository root: ``PYTHONPATH=src python -m pytest perfbench -q``.

The closed-loop client must make exactly the decisions batch
``Simulator.run`` makes over the same workload, for every scheme the
benchmark drives, and tracing must not change a single decision.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from client import check_outputs, closed_loop, fingerprint  # noqa: E402
from run import check_runs, count_operations, tail_percentile  # noqa: E402
from tracing import Tracer, install  # noqa: E402

from repro.core.payment import PaymentModel  # noqa: E402
from repro.service import DispatchService  # noqa: E402
from repro.sim.engine import Simulator  # noqa: E402
from repro.sim.scenario import ScenarioSpec, clear_scenarios, get_scenario  # noqa: E402

SMALL = dict(
    grid_rows=8,
    grid_cols=8,
    hourly_requests=150,
    history_days=2,
    num_partitions=9,
    offline_count=15,
    seed=3,
)
CELLS = [("peak", "mt-share"), ("nonpeak", "mt-share-pro"), ("peak", "window-lap")]


@pytest.fixture(autouse=True)
def _isolated_store(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_ARTIFACT_DIR", str(tmp_path / "store"))
    monkeypatch.setenv("REPRO_SP_MODE", "auto")
    yield
    clear_scenarios()


def _setup(kind: str, scheme: str, requests: list | None = None):
    scenario = get_scenario(ScenarioSpec(kind=kind, **SMALL))
    workload = scenario.requests(seed=1)
    sim = Simulator(
        scenario.make_scheme(scheme),
        scenario.make_fleet(20, seed=1),
        workload if requests is None else requests,
        payment=PaymentModel(),
    )
    return sim, workload


def _decisions(metrics, log) -> tuple:
    trips = sorted(
        (rid, t.taxi_id, t.assign_time, t.pickup_time, t.dropoff_time)
        for rid, t in log.trips.items()
    )
    return (
        metrics.num_requests,
        metrics.served_online,
        metrics.served_offline,
        metrics.unserved_online,
        metrics.expired_offline,
        metrics.completed,
        tuple(metrics.waiting_times_s),
        tuple(metrics.detour_times_s),
        tuple(metrics.candidate_counts),
        metrics.shared_fares,
        metrics.driver_incomes,
        metrics.counters.get("match.insertions_evaluated"),
        tuple(trips),
    )


@pytest.mark.parametrize(("kind", "scheme"), CELLS)
def test_closed_loop_matches_batch_run(kind, scheme):
    batch_sim, workload = _setup(kind, scheme)
    batch = batch_sim.run()
    stream_sim, _ = _setup(kind, scheme, requests=[])
    service = DispatchService(stream_sim)
    loop = closed_loop(service, workload, tracer=None)
    assert service.rejections == {}
    assert _decisions(loop["metrics"], stream_sim.log) == _decisions(batch, batch_sim.log)
    assert check_outputs(service, loop["metrics"], workload) == []
    if kind == "nonpeak":
        assert batch.num_offline > 0


@pytest.mark.parametrize(("kind", "scheme"), CELLS)
def test_tracing_changes_no_decision(kind, scheme):
    plain_sim, workload = _setup(kind, scheme, requests=[])
    plain = DispatchService(plain_sim)
    plain_loop = closed_loop(plain, workload, tracer=None)
    clear_scenarios()

    tracer = Tracer()
    uninstall = install(tracer)
    try:
        traced_sim, workload2 = _setup(kind, scheme, requests=[])
        traced = DispatchService(traced_sim)
        traced_loop = closed_loop(traced, workload2, tracer)
    finally:
        uninstall()
    assert fingerprint(traced, traced_loop["metrics"]) == fingerprint(plain, plain_loop["metrics"])
    summary = tracer.summary(since=traced_loop["run_start"])
    assert summary["service.submit"]["calls"] == len(workload)
    assert summary["sim.finish"]["calls"] == 1
    for stats in summary.values():
        # Self time never exceeds the span's own duration, nor drops far
        # below zero (only clock granularity can make it negative).
        assert -1e-3 <= stats["self_s"] <= stats["total_s"] + 1e-9


def test_uninstall_restores_every_wrapped_function():
    from repro.core import routing
    from repro.network.ch import ContractionHierarchy

    before = (routing.dijkstra_restricted, ContractionHierarchy.__dict__["build"])
    uninstall = install(Tracer())
    assert routing.dijkstra_restricted is not before[0]
    assert isinstance(ContractionHierarchy.__dict__["build"], classmethod)
    uninstall()
    assert (routing.dijkstra_restricted, ContractionHierarchy.__dict__["build"]) == before


def test_output_check_reports_a_missing_decision():
    sim, workload = _setup("peak", "mt-share", requests=[])
    service = DispatchService(sim)
    loop = closed_loop(service, workload, tracer=None)
    service.decisions.pop(0)
    problems = check_outputs(service, loop["metrics"], workload)
    assert problems and "first-look" in problems[0]


def test_span_self_time_subtracts_children(tmp_path):
    tracer = Tracer()

    def inner():
        return None

    inner_traced = tracer.wrap(inner, "inner")

    def outer():
        inner_traced()
        inner_traced()

    tracer.wrap(outer, "outer")()
    cols = tracer.arrays()
    assert list(cols["parent"]) == [-1, 0, 0]
    summary = tracer.summary()
    assert summary["outer"]["calls"] == 1 and summary["inner"]["calls"] == 2
    assert summary["outer"]["self_s"] == pytest.approx(
        summary["outer"]["total_s"] - summary["inner"]["total_s"]
    )
    tracer.save(str(tmp_path / "spans.npz"))
    saved = np.load(tmp_path / "spans.npz")
    assert list(saved["names"]) == ["inner", "outer"]
    assert list(saved["parent"]) == [-1, 0, 0]


@pytest.mark.parametrize(("n", "pct"), [(1142, 99.0), (583, 98.0), (20000, 99.9), (15, 50.0)])
def test_tail_percentile_keeps_ten_samples_above(n, pct):
    assert tail_percentile(n) == pct


def test_fingerprint_mismatch_fails_the_run_and_its_operations():
    def run(fp: str, cold: bool) -> dict:
        store = {"builds": 1, "loads": 0} if cold else {"builds": 0, "loads": 1}
        return {"ok": True, "problems": [], "cold": cold, "fingerprint": fp,
                "artifacts": {"apsp": store}, "submitted": 100, "failed": 2}

    runs = [run("a", cold=True), run("a", cold=False), run("b", cold=False)]
    check_runs(runs)
    assert [r["ok"] for r in runs] == [True, True, False]
    assert "fingerprint" in runs[2]["problems"][0]
    assert count_operations(runs) == (300, 2 + 2 + 100)
