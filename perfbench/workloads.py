"""The benchmark's workloads: one scenario, scheme and fleet each.

Why each was chosen is in README.md and BENCHMARK.json.  ``--seed``
chooses the fleet's starting vertices and the offline-request sample;
the city and its demand trace are always built from
:data:`SCENARIO_SEED`, so the spread over seeds measures the program,
not the luck of one synthetic city (README.md, "Seeds").
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: The ``ScenarioSpec`` seed every workload's city and trace is built from.
SCENARIO_SEED = 7


@dataclass(frozen=True)
class Workload:
    """One named benchmark input."""

    name: str
    #: ``ScenarioSpec`` keyword arguments (the seed is added per run).
    spec: dict = field(default_factory=dict)
    scheme: str = "mt-share"
    taxis: int = 200
    #: ``SystemConfig`` overrides applied on top of the scenario defaults.
    config: dict = field(default_factory=dict)


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(name="peak-fleet", spec={"kind": "peak"}, scheme="mt-share", taxis=1600),
        Workload(name="nonpeak-pro", spec={"kind": "nonpeak"}, scheme="mt-share-pro", taxis=200),
        Workload(
            name="city-window",
            spec={"kind": "peak", "grid_rows": 80, "grid_cols": 80, "num_partitions": 64},
            scheme="window-lap",
            taxis=400,
            config={"dispatch_window_s": 30.0},
        ),
    )
}
