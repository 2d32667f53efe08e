#!/usr/bin/env python3
"""Green scheduling for a batch of datacenter transfers.

The workload the paper's intro motivates: a rack-level host has a batch
of bulk transfers (backup shards, ML training data, VM images) to push
through one 10 Gb/s uplink. The :class:`EnergyAdvisor` predicts the
energy of fair sharing vs SRPT-serialized line-rate execution, and the
simulation backs the prediction with a measured run of both schedules.
"""

from repro.core.advisor import EnergyAdvisor
from repro.harness import FlowSpec, Scenario, run_once
from repro.units import megabytes

#: the batch: mixed transfer sizes, as a real rack sees them
BATCH_MB = (25, 5, 15, 10)


def simulate(schedule: str) -> float:
    """Measure one schedule's energy end-to-end in the simulator."""
    sizes = [megabytes(mb) for mb in BATCH_MB]
    if schedule == "fair":
        # Plain TCP: all flows compete, each gets ~C/n, and capacity is
        # reallocated as flows finish — processor sharing in practice.
        scenario = Scenario(
            "batch-fair", flows=[FlowSpec(size, cca="cubic") for size in sizes]
        )
    else:
        # Serialized shortest first (SRPT): the serialized policy chains
        # the flows in declaration order, so declare them sorted.
        scenario = Scenario(
            "batch-srpt",
            flows=[FlowSpec(size, cca="cubic") for size in sorted(sizes)],
            policy="serialized",
        )
    return run_once(scenario, seed=3).energy_j


def main() -> None:
    advisor = EnergyAdvisor(capacity_gbps=10.0)
    sizes = [megabytes(mb) for mb in BATCH_MB]

    print(f"batch: {', '.join(f'{mb} MB' for mb in BATCH_MB)}\n")
    print("analytic prediction (power-model arithmetic):")
    rec = advisor.recommend(sizes)
    print(f"  schedule:          {' -> '.join(rec.schedule)}")
    print(f"  fair-share energy: {rec.fair_energy_j:9.3f} J")
    print(f"  serialized energy: {rec.serialized_energy_j:9.3f} J")
    print(f"  predicted saving:  {rec.savings_fraction:9.1%}")

    print("\nsimulated confirmation (full TCP + energy stack):")
    fair_j = simulate("fair")
    serialized_j = simulate("srpt")
    measured = 1 - serialized_j / fair_j
    print(f"  fair-share energy: {fair_j:9.3f} J")
    print(f"  serialized energy: {serialized_j:9.3f} J")
    print(f"  measured saving:   {measured:9.1%}")

    dollars = advisor.annualized_value(measured)
    print(
        f"\nif this saving held fleet-wide at 100k racks: "
        f"${dollars / 1e6:.0f}M/year"
    )


if __name__ == "__main__":
    main()
