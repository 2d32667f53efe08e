"""Tests for the FCT-vs-energy Pareto evaluator."""

import pytest

from repro.errors import ExperimentError
from repro.figures.pareto import WORKLOADS, pareto_scenario_name, run_pareto
from repro.sched import policy_names

LINK_BATCH = (2_000_000, 1_000_000, 500_000)


@pytest.fixture(scope="module")
def pareto():
    return run_pareto(
        link_batch=LINK_BATCH,
        n_flows=40,
        mix="rpc",
        leaves=2,
        spines=1,
        hosts_per_leaf=4,
    )


class TestParetoSweep:
    def test_covers_every_policy_on_both_workloads(self, pareto):
        assert tuple(pareto.policies) == policy_names()
        for workload in WORKLOADS:
            points = pareto.workload_points(workload)
            assert {p.policy for p in points} == set(policy_names())

    def test_scenario_naming_convention(self):
        assert pareto_scenario_name("link", "srpt") == "pareto_link-srpt"

    def test_points_carry_energy_and_fct_percentiles(self, pareto):
        for point in pareto.points:
            assert point.energy_j > 0
            assert 0 < point.fct_p50_s <= point.fct_p99_s

    def test_fair_savings_are_zero_by_definition(self, pareto):
        for workload in WORKLOADS:
            assert pareto.savings_vs_fair_percent(workload, "fair") == 0.0

    def test_link_serialization_saves_energy(self, pareto):
        assert pareto.savings_vs_fair_percent("link", "serialized") > 0

    def test_point_resolves_policy_spelling(self, pareto):
        point = pareto.point("link", "srpt")
        assert point.policy == "srpt"
        assert pareto.point("link", " SRPT ") is point

    def test_unknown_workload_rejected(self, pareto):
        with pytest.raises(ExperimentError, match="unknown workload"):
            pareto.workload_points("wan")


class TestFrontier:
    def test_frontier_is_nonempty_and_sorted_by_fct(self, pareto):
        for workload in WORKLOADS:
            front = pareto.frontier(workload)
            assert front
            fcts = [p.fct_p50_s for p in front]
            assert fcts == sorted(fcts)

    def test_frontier_energies_strictly_improve(self, pareto):
        for workload in WORKLOADS:
            energies = [p.energy_j for p in pareto.frontier(workload)]
            assert all(b < a for a, b in zip(energies, energies[1:]))

    def test_frontier_points_are_undominated(self, pareto):
        for workload in WORKLOADS:
            points = pareto.workload_points(workload)
            for front_point in pareto.frontier(workload):
                dominators = [
                    p
                    for p in points
                    if p.fct_p50_s <= front_point.fct_p50_s
                    and p.energy_j <= front_point.energy_j
                    and (
                        p.fct_p50_s < front_point.fct_p50_s
                        or p.energy_j < front_point.energy_j
                    )
                ]
                assert not dominators

    def test_tail_frontier_uses_p99(self, pareto):
        for workload in WORKLOADS:
            front = pareto.frontier(workload, tail=True)
            fcts = [p.fct_p99_s for p in front]
            assert fcts == sorted(fcts)

    def test_table_marks_the_frontier(self, pareto):
        table = pareto.format_table()
        assert "link workload" in table
        assert "fabric workload" in table
        assert "*" in table


class TestValidation:
    def test_fair_is_required(self):
        with pytest.raises(ExperimentError, match="fair"):
            run_pareto(policies=["serialized", "srpt"], link_batch=LINK_BATCH)
