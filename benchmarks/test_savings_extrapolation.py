"""§4.2's headline dollars: measured savings extrapolated to a datacenter.

Runs the fair vs full-speed-then-idle comparison end-to-end (simulation,
not the analytic model), then feeds the measured saving through the
paper's cost model ($10k/rack/year x 100k racks).
"""

import pytest

from benchmarks.conftest import BENCH_REPS, TWO_FLOW_BYTES, run_benchmarked
from repro.core.savings import DatacenterCostModel, savings_fraction
from repro.harness.experiment import FlowSpec, Scenario
from repro.harness.runner import run_repeated
from repro.units import gbps


def test_savings_extrapolation(benchmark):
    def measure():
        fair = Scenario(
            "fair",
            flows=[
                FlowSpec(TWO_FLOW_BYTES, cca="cubic", target_rate_bps=gbps(5.0)),
                FlowSpec(TWO_FLOW_BYTES, cca="cubic", target_rate_bps=gbps(5.0)),
            ],
        )
        fsti = Scenario(
            "fsti",
            flows=[
                FlowSpec(TWO_FLOW_BYTES, cca="cubic"),
                FlowSpec(TWO_FLOW_BYTES, cca="cubic"),
            ],
            policy="serialized",
        )
        return (
            run_repeated(fair, repetitions=BENCH_REPS),
            run_repeated(fsti, repetitions=BENCH_REPS),
        )

    fair, fsti = run_benchmarked(benchmark, measure)
    saving = savings_fraction(fair.mean_energy_j, fsti.mean_energy_j)
    cost_model = DatacenterCostModel()
    idle_dollars = cost_model.annual_savings_usd(saving)
    loaded_dollars = cost_model.annual_savings_usd(0.01)

    print("\n== §4.2 extrapolation ==")
    print(f"fair energy:      {fair.mean_energy_j:.3f} J "
          f"(power {fair.mean_power_w:.1f} W)")
    print(f"serialized energy:{fsti.mean_energy_j:.3f} J "
          f"(power {fsti.mean_power_w:.1f} W)")
    print(f"measured saving:  {100 * saving:.1f}% (paper: 16%)")
    print(f"at idle-host scale:   ${idle_dollars / 1e6:.0f}M/year")
    print(f"at 1% (loaded hosts): ${loaded_dollars / 1e6:.0f}M/year "
          f"(paper: ~$10M/year)")

    assert saving == pytest.approx(0.16, abs=0.03)
    assert loaded_dollars == pytest.approx(10e6)
