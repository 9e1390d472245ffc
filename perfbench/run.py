"""The repository's benchmark: one workload, cold set-up, closed-loop client.

Usage (from the repository root)::

    python3 perfbench/run.py --workload peak-fleet --seed 1 --seconds 10 --trace 0

Every measured run is a fresh interpreter (``client.py``) in a pinned
environment, against an artifact store that starts empty in a
temporary directory under ``.perfbench_tmp/``.

* ``--trace 0``: the first run sets up cold and gives ``setup_s`` and
  ``peak_rss_mb``; warm runs then load what it built and replay the
  same requests until their closed loops have measured ``--seconds``
  seconds (at least two warm runs).  Throughput and decision times
  come from the warm runs only.
* ``--trace 1``: one traced run on the empty store, then one untraced
  run on a second empty store as the baseline of ``trace.overhead_s``;
  the per-layer metrics come from the traced run, which also writes its
  spans to ``.perfbench_spans/<workload>.npz``.

Every run's outputs are checked, and all runs of one invocation must
make the same decisions (one fingerprint).  The last stdout line is one
JSON object (``correct``, ``attempted``, ``failed``, ``metrics``); the
exit code is 0 only when every check passed.  README.md has the details.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

#: End-to-end metrics and their units, in report order.
END_TO_END = {
    "setup_s": "s",
    "requests_per_s": "req/s",
    "decision_p50_ms": "ms",
    "decision_tail_ms": "ms",
    "served_rate": "ratio",
    "mean_wait_s": "s",
    "mean_detour_s": "s",
    "peak_rss_mb": "MB",
}
#: Percentiles tried for the tail, highest first; the first that leaves
#: at least :data:`TAIL_MIN_ABOVE` of one run's decisions above it is
#: the workload's tail percentile.
TAIL_PERCENTILES = (99.9, 99.5, 99.0, 98.0, 97.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_ABOVE = 10
#: Warm runs per untraced invocation, at least: the per-decision
#: minimum behind the tail needs two runs to drop one paused run.
MIN_WARM_RUNS = 2
#: A measured run may not outlive this.
CHILD_TIMEOUT_S = 170.0
#: No further run starts once this much of the invocation has passed,
#: so an invocation stays within its 180 s even on a slow machine.
REPEAT_DEADLINE_S = 100.0


def tail_percentile(n: int) -> float:
    """Highest of :data:`TAIL_PERCENTILES` leaving ≥10 of ``n`` samples above it."""
    for pct in TAIL_PERCENTILES:
        if n - math.ceil(pct / 100.0 * n) >= TAIL_MIN_ABOVE:
            return pct
    return TAIL_PERCENTILES[-1]


def nearest_rank(values: list[float], pct: float) -> float:
    """The nearest-rank ``pct`` percentile of ``values``."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(pct / 100.0 * len(ordered))) - 1]


def decision_metrics(runs: list[dict]) -> tuple[float, float, float, int]:
    """``(p50_ms, tail_ms, tail_pct, decisions_per_run)`` of ``runs``.

    The p50 is over all runs' samples pooled.  Every run makes the same
    decisions in the same order, so the tail is taken over each
    decision's fastest time across the runs: a decision that is slow in
    every run counts, one that a pause on the host slowed in one run
    does not.  The tail percentile is fixed by one run's decision count
    (p99 at 1,142, p98 at 583).
    """
    per_run = len(runs[0]["decision_ms"])
    pooled = [t for run in runs for t in run["decision_ms"]]
    per_decision = [min(ts) for ts in zip(*(run["decision_ms"] for run in runs))]
    pct = tail_percentile(per_run)
    return statistics.median(pooled), nearest_rank(per_decision, pct), pct, per_run


def child_env(store: Path) -> dict[str, str]:
    """The pinned environment of one measured run."""
    env = dict(os.environ)
    env.update(
        {
            "PYTHONPATH": str(ROOT / "src"),
            "REPRO_ARTIFACT_DIR": str(store),
            "REPRO_SP_MODE": "auto",
            "REPRO_SCENARIO_CACHE": "1",
            "REPRO_CONTRACTS": "0",
            "TMPDIR": str(store.parent),
            "OMP_NUM_THREADS": "1",
            "OPENBLAS_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1",
        }
    )
    return env


def run_child(args: argparse.Namespace, store: Path, traced: bool) -> dict:
    """One measured run in a fresh interpreter against ``store``.

    The result's ``cold`` is whether ``store`` was empty when it started.
    """
    cold = not store.exists()
    cmd = [
        sys.executable, str(HERE / "client.py"),
        "--workload", args.workload, "--seed", str(args.seed),
    ]
    if traced:
        cmd.append("--trace")
    try:
        proc = subprocess.run(
            cmd,
            cwd=ROOT,
            env=child_env(store),
            stdout=subprocess.PIPE,
            text=True,
            timeout=CHILD_TIMEOUT_S,
            check=False,
        )
    except subprocess.TimeoutExpired:
        result = {"ok": False, "problems": [f"run exceeded {CHILD_TIMEOUT_S:.0f} s"], "crashed": True}
    else:
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            result = {"ok": False, "problems": [f"client exit code {proc.returncode}"], "crashed": True}
        else:
            result = json.loads(lines[-1])
    result["cold"] = cold
    return result


def measure(args: argparse.Namespace, run_dir: Path) -> list[dict]:
    """All runs of one invocation, in order; stops at the first crash."""
    if args.trace:
        # Both runs on an empty store of their own, so the traced run's
        # set-up spans see a cold build and its baseline the same state.
        traced = run_child(args, run_dir / "store-traced", traced=True)
        if traced.get("crashed"):
            return [traced]
        return [traced, run_child(args, run_dir / "store", traced=False)]
    started = time.perf_counter()
    store = run_dir / "store"
    runs = [run_child(args, store, traced=False)]
    measured_s = 0.0
    while not runs[-1].get("crashed"):
        if len(runs) > 1:
            measured_s += runs[-1]["run_s"]
            enough = len(runs) > MIN_WARM_RUNS and measured_s >= args.seconds
            if enough or time.perf_counter() - started > REPEAT_DEADLINE_S:
                break
        runs.append(run_child(args, store, traced=False))
    return runs


def check_runs(runs: list[dict]) -> None:
    """Cross-run checks: mark a run not ``ok`` when one fails.

    A cold run must build every artifact and load none, a warm run load
    and build none, and every run must have the first run's fingerprint.
    """
    reference = runs[0].get("fingerprint")
    for run in runs:
        if run.get("crashed"):
            continue
        builds = sum(s["builds"] for s in run["artifacts"].values())
        loads = sum(s["loads"] for s in run["artifacts"].values())
        as_expected = (builds > 0 and loads == 0) if run["cold"] else (builds == 0 and loads > 0)
        if not as_expected:
            run["problems"].append(f"store use: {builds} builds, {loads} loads")
            run["ok"] = False
        if run["fingerprint"] != reference:
            run["problems"].append(
                f"decision fingerprint {run['fingerprint']} differs from the first run's {reference}"
            )
            run["ok"] = False


def count_operations(runs: list[dict]) -> tuple[int, int]:
    """``(attempted, failed)`` over all runs.

    A rejected request is a failed operation.  A run that crashed or
    failed a check counts every request it submitted, or would have
    submitted, as failed.
    """
    per_run = max((run.get("submitted", 0) for run in runs), default=0) or 1
    attempted = failed = 0
    for run in runs:
        n = run.get("submitted", per_run)
        attempted += n
        failed += run["failed"] if run["ok"] else n
    return attempted, failed


def layer_unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith((".per_request", ".settled_per_query")):
        return "count/op"
    return "count"


def report_runs(runs: list[dict], args: argparse.Namespace) -> None:
    """Human-readable lines before the JSON result."""
    for i, run in enumerate(runs):
        if "fingerprint" in run:
            kind = ("traced, " if "layers" in run else "") + ("cold" if run["cold"] else "warm")
            p50, tail, pct, n = decision_metrics([run])
            print(
                f"run {i} ({kind}): setup {run['setup_s']:.2f} s, run {run['run_s']:.2f} s, "
                f"{n} decisions: p50 {p50:.3f} ms, p{pct:g} {tail:.3f} ms, "
                f"served {run['served_rate']:.4f}, fingerprint {run['fingerprint']}"
            )
        for problem in run["problems"]:
            print(f"run {i}: CHECK FAILED: {problem}")
    prints = sorted({run["fingerprint"] for run in runs if "fingerprint" in run})
    print(f"fingerprint {args.workload} seed={args.seed}: {', '.join(prints) or 'none'}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="mT-Share dispatch-service benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated invocation still stops its run and removes its files.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: the program's sources are missing under {ROOT / 'src'}", file=sys.stderr)
        return 2

    tmp_root = ROOT / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix="run-", dir=tmp_root))
    try:
        runs = measure(args, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass  # another invocation still uses it

    check_runs(runs)
    report_runs(runs, args)
    attempted, failed = count_operations(runs)
    correct = all(run["ok"] for run in runs)

    metrics: dict[str, dict] = {}
    if correct and args.trace:
        traced, baseline = runs
        layers = dict(traced["layers"])
        layers["trace.overhead_s"] = traced["run_s"] - baseline["run_s"]
        print(f"traced run: {traced['spans']} spans, written to {traced['spans_file']}")
        for name, value in layers.items():
            print(f"  {name:42s} {value:16.6f} {layer_unit(name)}")
        metrics = {name: {"value": v, "unit": layer_unit(name)} for name, v in layers.items()}
    elif correct:
        # Set-up and memory come from the cold first run, throughput and
        # decision times from the warm runs; the quality figures are the
        # same in every run (one fingerprint).
        cold, warm = runs[0], runs[1:]
        values = {name: cold[name] for name in END_TO_END if name in cold}
        values["decision_p50_ms"], values["decision_tail_ms"], pct, n = decision_metrics(warm)
        values["requests_per_s"] = statistics.median(run["requests_per_s"] for run in warm)
        print(f"{len(warm)} warm runs; tail percentile p{pct:g} of {n} decisions a run")
        for name, unit in END_TO_END.items():
            metrics[name] = {"value": values[name], "unit": unit}
            print(f"{name:18s} {values[name]:16.6f} {unit}")
    print(f"operations attempted {attempted}, failed {failed}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
