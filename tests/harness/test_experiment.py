"""Unit tests for scenario descriptions and validation."""

import json

import pytest

from repro.core.allocation import fig1_allocations, full_speed_then_idle
from repro.errors import ExperimentError
from repro.harness.experiment import FlowSpec, Scenario, scenario_from_plan
from repro.units import gbps


class TestFlowSpec:
    def test_defaults(self):
        flow = FlowSpec(1000)
        assert flow.cca == "cubic"
        assert flow.target_rate_bps is None
        assert flow.uncap_after is None

    def test_size_validation(self):
        with pytest.raises(ExperimentError):
            FlowSpec(0)


class TestCacheKey:
    def test_equal_scenarios_serialize_identically(self):
        a = Scenario("k", flows=[FlowSpec(1000)], mtu_bytes=1500)
        b = Scenario("k", flows=[FlowSpec(1000)], mtu_bytes=1500)
        assert a.cache_key() == b.cache_key()

    def test_every_field_is_present(self):
        key = json.loads(Scenario("k", flows=[FlowSpec(1000)]).cache_key())
        assert set(key) == set(Scenario.__dataclass_fields__)
        assert key["flows"][0]["total_bytes"] == 1000

    def test_flow_changes_change_the_key(self):
        base = Scenario("k", flows=[FlowSpec(1000)])
        other = Scenario("k", flows=[FlowSpec(1000, cca="bbr")])
        assert base.cache_key() != other.cache_key()

    def test_key_is_json_canonical(self):
        key = Scenario("k", flows=[FlowSpec(1000)]).cache_key()
        parsed = json.loads(key)
        assert key == json.dumps(
            parsed, sort_keys=True, separators=(",", ":")
        )


class TestScenarioValidation:
    def test_needs_flows(self):
        with pytest.raises(ExperimentError):
            Scenario("empty", flows=[])

    def test_load_bounds(self):
        with pytest.raises(ExperimentError):
            Scenario("x", flows=[FlowSpec(1000)], background_load=1.5)

    def test_baseline_cannot_share_bottleneck(self):
        """Paper footnote 2: the no-CC module would cause collapse."""
        with pytest.raises(ExperimentError, match="footnote 2"):
            Scenario(
                "bad",
                flows=[FlowSpec(1000, cca="baseline"), FlowSpec(1000, cca="cubic")],
            )

    def test_baseline_alone_allowed(self):
        Scenario("ok", flows=[FlowSpec(1000, cca="baseline")])

    def test_baseline_serialized_allowed(self):
        """Chained flows never share the link, so baseline is fine."""
        scenario = Scenario(
            "ok",
            flows=[FlowSpec(1000, cca="baseline"), FlowSpec(1000, cca="cubic")],
            policy="serialized",
        )
        assert scenario.policy == "serialized"

    def test_chain_bounds_checked(self):
        """``uncap_after`` must name a flow of the same scenario."""
        flows = [FlowSpec(1000), FlowSpec(1000, uncap_after=5)]
        with pytest.raises(ExperimentError, match="nonexistent flow 5"):
            Scenario("bad", flows=flows)

    def test_negative_uncap_index_rejected(self):
        """-1 would otherwise index from the end: the last flow."""
        flows = [FlowSpec(1000), FlowSpec(1000, uncap_after=-1)]
        with pytest.raises(ExperimentError, match="nonexistent flow -1"):
            Scenario("bad", flows=flows)

    def test_self_chain_rejected(self):
        """A flow cannot uncap on its own completion."""
        flows = [FlowSpec(1000), FlowSpec(1000, uncap_after=1)]
        with pytest.raises(ExperimentError, match="itself"):
            Scenario("bad", flows=flows)

    def test_with_name(self):
        s = Scenario("a", flows=[FlowSpec(1000)])
        assert s.with_name("b").name == "b"
        assert s.name == "a"


class TestScenarioFromPlan:
    def test_fsti_plan_chains(self):
        plan = full_speed_then_idle(1000, gbps(10.0))
        scenario = scenario_from_plan("x", plan)
        assert scenario.policy == "serialized"
        assert [f.start_time_s for f in scenario.flows] == [0.0, 0.0]

    def test_fsti_plan_takes_an_explicit_policy(self):
        plan = full_speed_then_idle(1000, gbps(10.0))
        scenario = scenario_from_plan("x", plan, policy="fair")
        assert scenario.policy == "fair"
        assert [f.start_time_s for f in scenario.flows] == [0.0, 0.0]

    def test_limited_plan_keeps_caps_and_uncap(self):
        plans = fig1_allocations(1000, gbps(10.0), fractions=(0.8,))
        scenario = scenario_from_plan("x", plans[0])
        capped = scenario.flows[1]
        assert capped.target_rate_bps == pytest.approx(0.2 * gbps(10))
        assert capped.uncap_after == 0

    def test_kwargs_forwarded(self):
        plan = full_speed_then_idle(1000, gbps(10.0))
        scenario = scenario_from_plan("x", plan, mtu_bytes=1500)
        assert scenario.mtu_bytes == 1500
