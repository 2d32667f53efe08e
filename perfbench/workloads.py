"""The benchmark's workloads: one paper sweep each, run through the same
public figure entry points the ``greenenvy`` subcommands call.

Each :class:`Workload` knows how to

* build its scenarios (what a fresh interpreter does before the first
  work item; timed by ``setup_probe.py`` as ``setup_s``),
* run its sweep from the call to finished figure tables (``wall_s``),
* check the sweep's outputs against the paper's claims and the
  simulator's own invariants (``failed``), and
* digest every run's deterministic outputs, so repeated runs of one
  seed and the traced run can be compared bit for bit.

Only the standard library is imported at module level; ``repro`` is
imported inside the functions, after ``run.py`` has put ``src`` on the
path, so the setup probe times exactly the imports the sweep needs.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: Fig. 1's headline: full-speed-then-idle saves ~16 % vs fair; 15.7 %
#: was measured at 12.5 MB/flow for seeds 0, 7 and 123
FIG1_SAVINGS_BAND_PERCENT = (12.0, 20.0)


@dataclass(frozen=True)
class Check:
    """One output check: a name, whether it held, and what was seen."""

    name: str
    ok: bool
    detail: str = ""


@dataclass
class SweepOutcome:
    """What one sweep produced, with its wall time."""

    wall_s: float
    #: perf_counter() when the tables were finished
    done_at: float
    result: Any
    runs: List[Any]
    tables: str
    #: the TracingObserver directory, for workloads that journal
    trace_dir: Optional[Path] = None


def run_digest(runs: Sequence[Any]) -> str:
    """sha256 over every run's counters(), energy_j and extras.

    Floats are written with ``repr`` (shortest round-trip form), so the
    digest changes exactly when some output bit changes.
    """
    rows = [
        {
            "scenario": run.scenario,
            "seed": run.seed,
            "counters": run.counters(),
            "energy_j": repr(run.energy_j),
            "extras": {k: repr(v) for k, v in sorted(run.extras.items())},
        }
        for run in runs
    ]
    blob = json.dumps(rows, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def delivered_bytes(runs: Sequence[Any]) -> int:
    """Application bytes delivered across every flow of every run."""
    return sum(r.bytes_transferred for run in runs for r in run.flow_results)


def _rel_close(a: float, b: float, rel: float = 1e-9) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def _flows_delivered(runs: Sequence[Any], transfer_bytes: int, flows: int) -> Check:
    short = [
        f"{run.scenario}/flow{r.flow_id}={r.bytes_transferred}"
        for run in runs
        for r in run.flow_results
        if r.bytes_transferred != transfer_bytes
    ]
    counts = {len(run.flow_results) for run in runs}
    ok = not short and counts == {flows}
    return Check(
        "flows_delivered", ok,
        f"{len(short)} short flows {short[:3]}, flows/run {sorted(counts)}",
    )


class Workload:
    """Base class: subclasses define the sweep and its checks."""

    name = ""
    #: whether sweep() journals to a trace directory (its ``observer``
    #: is then a factory over that directory)
    journals = False
    #: parameter sets by size; "full" is what the benchmark measures,
    #: "tiny" is for the benchmark's own smoke tests
    sizes: Dict[str, Dict[str, Any]] = {}

    def __init__(self, size: str = "full", jobs: Optional[int] = None):
        self.size = size
        self.params = dict(self.sizes[size])
        if jobs is not None:
            self.params["jobs"] = jobs

    @property
    def claims(self) -> bool:
        """Paper-claim checks hold only at the measured scale."""
        return bool(self.params.get("claims", False))

    @property
    def items(self) -> int:
        """Work items one sweep runs (scenario x repetition)."""
        raise NotImplementedError

    def import_modules(self) -> Tuple[str, ...]:
        """Modules the sweep needs, as the CLI subcommand imports them."""
        raise NotImplementedError

    def build_scenarios(self) -> List[Any]:
        """The scenario objects the sweep will hand to the harness."""
        raise NotImplementedError

    def sweep(
        self, seed: int, observer: Any = None, workdir: Optional[Path] = None
    ) -> SweepOutcome:
        """Run the sweep and build its tables; ``wall_s`` spans both."""
        raise NotImplementedError

    def checks(self, outcome: SweepOutcome) -> List[Check]:
        """Every output check; run on the first sweep of a process."""
        raise NotImplementedError

    def per_sweep_checks(self, outcome: SweepOutcome) -> List[Check]:
        """Checks of what differs between sweeps of one seed (the digest
        covers the rest); run on every sweep."""
        return []


class Fig1Paper(Workload):
    name = "fig1-paper"
    sizes = {
        "full": {"transfer_bytes": 12_500_000, "repetitions": 1, "claims": True},
        "tiny": {"transfer_bytes": 150_000, "repetitions": 1, "claims": False},
    }

    @property
    def items(self) -> int:
        return 10 * self.params["repetitions"]

    def import_modules(self) -> Tuple[str, ...]:
        return ("repro", "repro.cli", "repro.figures.fig1")

    def build_scenarios(self) -> List[Any]:
        from repro.core.allocation import fig1_allocations
        from repro.figures.fig1 import DEFAULT_CAPACITY_BPS
        from repro.harness.experiment import scenario_from_plan

        return [
            scenario_from_plan(f"fig1-{plan.name}", plan, cca="cubic")
            for plan in fig1_allocations(
                self.params["transfer_bytes"], DEFAULT_CAPACITY_BPS
            )
        ]

    def sweep(
        self, seed: int, observer: Any = None, workdir: Optional[Path] = None
    ) -> SweepOutcome:
        from repro.figures.fig1 import run_fig1

        t0 = time.perf_counter()
        result = run_fig1(
            transfer_bytes=self.params["transfer_bytes"],
            repetitions=self.params["repetitions"],
            base_seed=seed,
            observer=observer,
        )
        tables = result.format_table()
        done_at = time.perf_counter()
        runs = [run for point in result.points for run in point.result.runs]
        return SweepOutcome(done_at - t0, done_at, result, runs, tables)

    def checks(self, outcome: SweepOutcome) -> List[Check]:
        from repro.core.allocation import FSTI_PLAN_NAME

        result = outcome.result
        checks = [
            _flows_delivered(outcome.runs, self.params["transfer_bytes"], 2),
            Check("arms", len(result.points) == 10, f"{len(result.points)} arms"),
        ]
        if self.claims:
            saving = result.savings_vs_fair_percent(result.fsti_point)
            low, high = FIG1_SAVINGS_BAND_PERCENT
            checks.append(Check(
                "fsti_savings_in_paper_band", low <= saving <= high,
                f"{saving:.2f}% vs band [{low}, {high}]",
            ))
            fair = result.fair_point.mean_energy_j
            costlier = [
                p.label for p in result.points
                if p.label != FSTI_PLAN_NAME and p.mean_energy_j > fair
            ]
            cheapest_fsti = result.fsti_point.mean_energy_j < fair
            checks.append(Check(
                "fair_most_expensive", not costlier and cheapest_fsti,
                f"arms above fair: {costlier}",
            ))
        return checks


class Fabric1k(Workload):
    name = "fabric-1k"
    sizes = {
        # two repetitions (seeds s, s+1) per arm halve the spread that
        # one random 1000-flow draw puts on wall_s across seeds
        "full": {"n_flows": 1000, "ccas": ("dctcp", "dcqcn"), "mix": "rpc",
                 "repetitions": 2},
        "tiny": {"n_flows": 40, "ccas": ("dctcp", "dcqcn"), "mix": "rpc",
                 "repetitions": 1},
    }
    policies = ("fair", "serialized")

    @property
    def items(self) -> int:
        return (
            len(self.params["ccas"]) * len(self.policies)
            * self.params["repetitions"]
        )

    def import_modules(self) -> Tuple[str, ...]:
        return ("repro", "repro.cli", "repro.figures.fabric")

    def build_scenarios(self) -> List[Any]:
        from repro.figures.fabric import fabric_scenario_name
        from repro.harness.experiment import FabricScenario

        return [
            FabricScenario(
                name=fabric_scenario_name(cca, policy), cca=cca, policy=policy,
                n_flows=self.params["n_flows"], mix=self.params["mix"],
            )
            for cca in self.params["ccas"]
            for policy in self.policies
        ]

    def sweep(
        self, seed: int, observer: Any = None, workdir: Optional[Path] = None
    ) -> SweepOutcome:
        from repro.figures.fabric import run_fabric_figure

        t0 = time.perf_counter()
        result = run_fabric_figure(
            ccas=self.params["ccas"],
            n_flows=self.params["n_flows"],
            mix=self.params["mix"],
            repetitions=self.params["repetitions"],
            base_seed=seed,
            policies=self.policies,
            observer=observer,
        )
        tables = result.format_table()
        done_at = time.perf_counter()
        runs = [
            run
            for point in result.points
            for policy in self.policies
            for run in point.arm(policy).runs
        ]
        return SweepOutcome(done_at - t0, done_at, result, runs, tables)

    def checks(self, outcome: SweepOutcome) -> List[Check]:
        from repro.obs.attrib import attribute_measurement

        n_flows = self.params["n_flows"]
        runs = outcome.runs
        incomplete = [
            run.scenario for run in runs if len(run.flow_results) != n_flows
        ]
        unsplit = [
            run.scenario for run in runs
            if not _rel_close(
                run.energy_j,
                run.extras["host_energy_j"] + run.extras["switch_energy_j"],
            )
        ]
        unattributed = [
            run.scenario for run in runs
            if not _rel_close(
                sum(attribute_measurement(run).values()), run.energy_j
            )
        ]
        return [
            Check("arms", len(runs) == self.items, f"{len(runs)} runs"),
            Check("all_flows_complete", not incomplete, f"incomplete: {incomplete}"),
            Check("fleet_is_host_plus_switch", not unsplit, f"mismatch: {unsplit}"),
            Check("attribution_sums_to_energy", not unattributed,
                  f"mismatch: {unattributed}"),
        ]


class GridTraced(Workload):
    name = "grid-traced"
    #: sweep() takes an observer factory over a trace directory
    journals = True
    sizes = {
        # serial: with jobs=2 the workers fill both cores of a 2-core
        # host, and the in-sweep host-speed samples of hostspeed.py
        # would time the scheduler (normalized spread 24 % vs 4 % serial)
        "full": {"transfer_bytes": 8_000_000, "mtus": (1500, 9000),
                 "repetitions": 1, "jobs": 1, "claims": True},
        "tiny": {"transfer_bytes": 200_000, "mtus": (1500, 9000),
                 "repetitions": 1, "jobs": 1, "claims": False},
    }

    @property
    def items(self) -> int:
        return 10 * len(self.params["mtus"]) * self.params["repetitions"]

    def import_modules(self) -> Tuple[str, ...]:
        return (
            "repro", "repro.cli", "repro.figures.grid", "repro.figures.fig5",
            "repro.figures.fig6", "repro.figures.fig7", "repro.figures.fig8",
            "repro.obs.observer",
        )

    def build_scenarios(self) -> List[Any]:
        from repro.cc.registry import PAPER_ALGORITHMS
        from repro.harness.experiment import FlowSpec, Scenario

        return [
            Scenario(
                name=f"grid-{cca}-mtu{mtu}",
                flows=[FlowSpec(self.params["transfer_bytes"], cca=cca)],
                mtu_bytes=mtu,
                packages=1,
                time_limit_s=600.0,
            )
            for cca in PAPER_ALGORITHMS
            for mtu in self.params["mtus"]
        ]

    def sweep(
        self, seed: int, observer: Any = None, workdir: Optional[Path] = None
    ) -> SweepOutcome:
        """Run the grid with a fresh trace directory under ``workdir``.

        ``observer`` is a factory taking the trace directory (so the
        traced run can add its ledger to the TracingObserver); by
        default the plain :class:`TracingObserver` the CLI's ``--trace``
        builds.
        """
        from repro.figures.fig5 import fig5_from_grid
        from repro.figures.fig6 import fig6_from_grid
        from repro.figures.fig7 import fig7_from_grid
        from repro.figures.fig8 import fig8_from_grid
        from repro.figures.grid import run_cca_mtu_grid
        from repro.obs.observer import TracingObserver

        if workdir is None:
            raise ValueError("grid-traced needs a work directory for its trace")
        trace_dir = workdir / "grid-trace"
        shutil.rmtree(trace_dir, ignore_errors=True)
        factory: Callable[[Path], Any] = observer or TracingObserver
        mtus = self.params["mtus"]
        t0 = time.perf_counter()
        with factory(trace_dir) as obs:
            grid = run_cca_mtu_grid(
                transfer_bytes=self.params["transfer_bytes"],
                mtus=mtus,
                repetitions=self.params["repetitions"],
                base_seed=seed,
                jobs=self.params["jobs"],
                observer=obs,
            )
        fig5 = fig5_from_grid(grid)
        fig6 = fig6_from_grid(grid)
        fig7 = fig7_from_grid(grid)
        fig8 = fig8_from_grid(grid)
        lines = [
            fig5.format_table(),
            fig6.format_table(),
            fig7.format_table(),
            fig8.format_table(),
            f"bbr2 vs bbr @{mtus[-1]}: {fig5.bbr2_vs_bbr_fraction(mtus[-1]):.3f}",
        ]
        if self.claims:
            # the CLI's correlation lines; undefined at tiny sizes, where
            # no flow retransmits
            lines += [
                f"corr(energy, power) @{mtus[0]}: "
                f"{fig6.energy_power_correlation(mtus[0]):.3f}",
                f"corr(energy, fct): {fig7.energy_fct_correlation():.3f}",
                f"corr(energy, retx) excl bbr2: {fig8.correlation():.3f}",
            ]
        tables = "\n".join(lines)
        done_at = time.perf_counter()
        runs = [run for cell in grid.cells for run in cell.result.runs]
        return SweepOutcome(
            done_at - t0, done_at, grid, runs, tables, trace_dir=trace_dir
        )

    def per_sweep_checks(self, outcome: SweepOutcome) -> List[Check]:
        from repro.obs.journal import read_journal

        trace_dir = outcome.trace_dir
        events = (
            [record["event"] for record in read_journal(trace_dir)]
            if trace_dir is not None and trace_dir.exists() else []
        )
        return [Check(
            "journal_terminal_no_worker_error",
            "batch_finished" in events and "worker_error" not in events,
            f"{len(events)} events, last {events[-1:]}",
        )]

    def checks(self, outcome: SweepOutcome) -> List[Check]:
        grid = outcome.result
        small, big = self.params["mtus"][0], self.params["mtus"][-1]
        checks = [
            Check("cells", len(grid.cells) == 10 * len(self.params["mtus"]),
                  f"{len(grid.cells)} cells"),
            _flows_delivered(outcome.runs, self.params["transfer_bytes"], 1),
            *self.per_sweep_checks(outcome),
        ]
        if self.claims:
            from repro.figures.fig5 import fig5_from_grid

            fig5 = fig5_from_grid(grid)
            worse = [
                cca for cca in grid.ccas()
                if not fig5.energy_j(cca, big) < fig5.energy_j(cca, small)
            ]
            checks.append(Check(
                "big_mtu_cheaper_every_cca", not worse, f"not cheaper: {worse}"
            ))
            overhead = fig5.bbr2_vs_bbr_fraction(big)
            checks.append(Check(
                "bbr2_costlier_than_bbr", overhead > 0,
                f"bbr2 vs bbr @{big}: {100 * overhead:+.1f}%",
            ))
        return checks


WORKLOADS: Dict[str, type] = {
    w.name: w for w in (Fig1Paper, Fabric1k, GridTraced)
}


def make_workload(
    name: str, size: str = "full", jobs: Optional[int] = None
) -> Workload:
    try:
        cls = WORKLOADS[name]
    except KeyError:
        raise ValueError(
            f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}"
        ) from None
    return cls(size=size, jobs=jobs)
