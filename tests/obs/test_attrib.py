"""Per-flow energy attribution: additivity, ledgers, telemetry round-trip.

The load-bearing property is *exact* additivity: attributed joules sum
to the measured total (fleet total for fabric runs) within 1e-9, so the
ledger never invents or loses energy relative to the meter. The sweep
in ``attribute_energy`` is held per entity against the direct
window-by-window split kept here as the reference.
"""

from typing import Dict, Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ObservabilityError
from repro.harness.experiment import FabricScenario, FlowSpec, Scenario
from repro.harness.fabric import run_fabric_once
from repro.harness.runner import run_once
from repro.obs.attrib import (
    FLOW_ENERGY_CHANNEL,
    IDLE_ENTITY,
    FlowActivity,
    attribute_energy,
    attribute_measurement,
    attribution_from_telemetry,
    measurement_activities,
    record_flow_energy,
    summarize_flow_energy,
    top_energy_flows,
    top_flow_share_percent,
)
from repro.sim.probe import ProbeSink

ADDITIVITY_TOL = 1e-9


class _RecordingSink(ProbeSink):
    enabled = True

    def __init__(self):
        self.samples = []

    def sample(self, time_s, channel, entity, value):
        self.samples.append((time_s, channel, entity, value))


def _reference_attribute_energy(
    activities: Sequence[FlowActivity],
    total_energy_j: float,
    duration_s: float,
) -> Dict[str, float]:
    """The direct O(windows x flows) split: every window scans every flow.

    The oracle for ``attribute_energy``: slow, but each window's
    weight sum is recomputed from scratch, so no cancellation can
    build up across windows.
    """
    if duration_s <= 0:
        raise ObservabilityError(
            f"cannot attribute energy over a {duration_s}s window"
        )
    result: Dict[str, float] = {a.entity: 0.0 for a in activities}
    if len(result) != len(activities):
        raise ObservabilityError("duplicate flow entities in attribution")
    result[IDLE_ENTITY] = 0.0

    bounds = {0.0, duration_s}
    for activity in activities:
        bounds.add(min(max(activity.start_s, 0.0), duration_s))
        bounds.add(min(max(activity.end_s, 0.0), duration_s))
    edges = sorted(bounds)

    remaining = total_energy_j
    for i in range(len(edges) - 1):
        t0, t1 = edges[i], edges[i + 1]
        if t1 <= t0:
            continue
        if i == len(edges) - 2:
            window_j = remaining  # the residual: windows sum exactly
        else:
            window_j = total_energy_j * (t1 - t0) / duration_s
            remaining -= window_j
        active = [
            a for a in activities if a.start_s < t1 and a.end_s > t0
        ]
        if not active:
            result[IDLE_ENTITY] += window_j
            continue
        weight_sum = sum(a.rate_weight for a in active)
        assigned = 0.0
        for activity in active[:-1]:
            if weight_sum > 0:
                share = activity.rate_weight / weight_sum
            else:
                share = 1.0 / len(active)  # zero-byte flows split evenly
            share_j = window_j * share
            result[activity.entity] += share_j
            assigned += share_j
        result[active[-1].entity] += window_j - assigned
    return result


def _assert_matches_reference(activities, total_j, duration_s):
    ledger = attribute_energy(activities, total_j, duration_s)
    reference = _reference_attribute_energy(activities, total_j, duration_s)
    assert ledger.keys() == reference.keys()
    tolerance = ADDITIVITY_TOL * total_j
    for entity, joules in reference.items():
        assert abs(ledger[entity] - joules) <= tolerance, (entity, ledger)
    assert min(ledger.values()) >= -tolerance


_TIME = st.floats(-2.0, 12.0, allow_nan=False)
_BYTES = st.one_of(st.just(0), st.integers(1, 10**9))


@st.composite
def _flow_spans(draw):
    """(start, end, bytes) shaped to stress the sweep's sums.

    Spans reach past both ends of the measurement window; zero-length
    flows never get a share, and zero-byte flows only split windows
    where no active flow moved a byte; a sub-nanosecond flow moving
    ~1 GB carries a rate weight ~1e18-1e21 beside long flows moving a
    few bytes, the case a plain float running sum gets wrong.
    """
    shape = draw(
        st.sampled_from(["span", "zero_length", "sub_ns_bulk", "long_small"])
    )
    if shape == "span":
        a, b = draw(_TIME), draw(_TIME)
        return (min(a, b), max(a, b), draw(_BYTES))
    if shape == "zero_length":
        t = draw(_TIME)
        return (t, t, draw(_BYTES))
    if shape == "sub_ns_bulk":
        t = draw(st.floats(-1.0, 11.0, allow_nan=False))
        length = draw(st.floats(1e-13, 1e-9, allow_nan=False))
        return (t, t + length, draw(st.integers(5 * 10**8, 10**9)))
    return (
        draw(st.floats(-2.0, 1.0, allow_nan=False)),
        draw(st.floats(8.0, 12.0, allow_nan=False)),
        draw(st.integers(0, 100)),
    )


def _activities(raw):
    return [
        FlowActivity(
            entity=f"flow-{i}",
            start_s=min(a, b),
            end_s=max(a, b),
            transferred_bytes=size,
        )
        for i, (a, b, size) in enumerate(raw)
    ]


class TestAdditivity:
    @settings(max_examples=200, deadline=None)
    @given(
        raw=st.lists(
            st.tuples(
                st.floats(0.0, 10.0, allow_nan=False),
                st.floats(0.0, 10.0, allow_nan=False),
                st.integers(0, 10**9),
            ),
            max_size=8,
        ),
        total_j=st.floats(1e-6, 1e6, allow_nan=False),
        duration_s=st.floats(0.01, 100.0, allow_nan=False),
    )
    def test_ledger_sums_to_total(self, raw, total_j, duration_s):
        ledger = attribute_energy(_activities(raw), total_j, duration_s)
        assert abs(sum(ledger.values()) - total_j) <= ADDITIVITY_TOL

    def test_link_run_sums_to_measured_energy(self):
        scenario = Scenario(
            name="attrib-link",
            flows=[FlowSpec(200_000), FlowSpec(100_000)],
            packages=1,
        )
        measurement = run_once(scenario, seed=0)
        ledger = attribute_measurement(measurement)
        assert abs(
            sum(ledger.values()) - measurement.energy_j
        ) <= ADDITIVITY_TOL

    def test_fabric_run_sums_to_fleet_total(self):
        scenario = FabricScenario(
            name="attrib-fabric",
            cca="dctcp",
            policy="fair",
            n_flows=40,
            mix="rpc",
        )
        measurement = run_fabric_once(scenario, seed=0)
        ledger = attribute_measurement(measurement)
        # energy_j is the FleetEnergyReport total (hosts + switches)...
        assert abs(
            measurement.extras["host_energy_j"]
            + measurement.extras["switch_energy_j"]
            - measurement.energy_j
        ) <= ADDITIVITY_TOL
        # ...and the ledger reproduces it exactly
        assert abs(
            sum(ledger.values()) - measurement.energy_j
        ) <= ADDITIVITY_TOL
        assert len(ledger) == 41  # 40 flows + idle


class TestReferenceOracle:
    @settings(max_examples=300, deadline=None)
    @given(
        raw=st.lists(_flow_spans(), max_size=40),
        total_j=st.floats(1e-6, 1e6, allow_nan=False),
        duration_s=st.floats(0.01, 10.0, allow_nan=False),
    )
    def test_every_entity_matches_reference(self, raw, total_j, duration_s):
        _assert_matches_reference(_activities(raw), total_j, duration_s)

    def test_sub_ns_bulk_flow_beside_small_flows(self):
        # a running float sum loses the 10 and 20 B/s weights for good
        # once the ~1e19 B/s flow has entered and left it
        activities = [
            FlowActivity("flow-1", 0.0, 10.0, 100),
            FlowActivity("flow-2", 5.0, 5.0 + 1e-10, 10**9),
            FlowActivity("flow-3", 0.0, 10.0, 200),
        ]
        _assert_matches_reference(activities, 10.0, 10.0)
        ledger = attribute_energy(activities, 10.0, 10.0)
        assert ledger["flow-3"] == pytest.approx(2 * ledger["flow-1"])

    def test_zero_byte_flows_split_evenly(self):
        activities = [
            FlowActivity("flow-1", 0.0, 2.0, 0),
            FlowActivity("flow-2", 1.0, 2.0, 0),
        ]
        ledger = attribute_energy(activities, 4.0, 2.0)
        assert ledger["flow-1"] == pytest.approx(3.0)
        assert ledger["flow-2"] == pytest.approx(1.0)
        _assert_matches_reference(activities, 4.0, 2.0)


class TestCostShape:
    def test_reads_each_rate_weight_at_most_twice(self, monkeypatch):
        reads = [0]
        rate_weight = FlowActivity.rate_weight.fget

        def counting(activity):
            reads[0] += 1
            return rate_weight(activity)

        monkeypatch.setattr(FlowActivity, "rate_weight", property(counting))
        n = 2000
        # staggered starts and ends: 2n windows, each with ~n active flows
        activities = [
            FlowActivity(f"flow-{i}", i * 1e-4, 10.0 + i * 1e-4, 1000 + i)
            for i in range(n)
        ]
        ledger = attribute_energy(activities, 50.0, 11.0)
        assert len(ledger) == n + 1
        assert reads[0] <= 2 * n


class TestWindows:
    def test_no_flows_attributes_everything_to_idle(self):
        ledger = attribute_energy([], 5.0, 2.0)
        assert ledger == {IDLE_ENTITY: 5.0}

    def test_idle_tail_accrues_to_idle(self):
        flow = FlowActivity("flow-1", 0.0, 1.0, 1000)
        ledger = attribute_energy([flow], 10.0, 2.0)
        assert ledger["flow-1"] == pytest.approx(5.0)
        assert ledger[IDLE_ENTITY] == pytest.approx(5.0)

    def test_concurrent_flows_split_by_rate(self):
        fast = FlowActivity("flow-1", 0.0, 1.0, 3000)
        slow = FlowActivity("flow-2", 0.0, 1.0, 1000)
        ledger = attribute_energy([fast, slow], 4.0, 1.0)
        assert ledger["flow-1"] == pytest.approx(3.0)
        assert ledger["flow-2"] == pytest.approx(1.0)

    def test_serialized_flows_pay_for_their_own_window(self):
        first = FlowActivity("flow-1", 0.0, 1.0, 1000)
        second = FlowActivity("flow-2", 1.0, 3.0, 1000)
        ledger = attribute_energy([first, second], 3.0, 3.0)
        assert ledger["flow-1"] == pytest.approx(1.0)
        assert ledger["flow-2"] == pytest.approx(2.0)
        assert ledger[IDLE_ENTITY] == pytest.approx(0.0)

    def test_zero_duration_raises(self):
        with pytest.raises(ObservabilityError):
            attribute_energy([], 1.0, 0.0)

    def test_duplicate_entities_raise(self):
        dup = [
            FlowActivity("flow-1", 0.0, 1.0, 10),
            FlowActivity("flow-1", 0.5, 2.0, 10),
        ]
        with pytest.raises(ObservabilityError):
            attribute_energy(dup, 1.0, 2.0)


class TestLedgerViews:
    def test_measurement_activities_are_id_ordered(self):
        scenario = Scenario(
            name="attrib-order",
            flows=[FlowSpec(150_000), FlowSpec(150_000)],
            packages=1,
        )
        measurement = run_once(scenario, seed=0)
        activities = measurement_activities(measurement)
        assert [a.entity for a in activities] == ["flow-1", "flow-2"]

    def test_top_energy_flows_ranks_by_joules(self):
        rows = top_energy_flows(
            {"flow-1": 1.0, "flow-2": 3.0, IDLE_ENTITY: 0.0}, top=2
        )
        assert [r[0] for r in rows] == ["flow-2", "flow-1"]
        assert rows[0][2] == pytest.approx(75.0)

    def test_top_flow_share_excludes_idle(self):
        scenario = Scenario(
            name="attrib-share", flows=[FlowSpec(200_000)], packages=1
        )
        measurement = run_once(scenario, seed=0)
        share = top_flow_share_percent(measurement)
        assert 0.0 < share <= 100.0


class TestTelemetryRoundTrip:
    def test_record_flow_energy_emits_one_sample_per_entity(self):
        scenario = Scenario(
            name="attrib-sink",
            flows=[FlowSpec(150_000), FlowSpec(100_000)],
            packages=1,
        )
        measurement = run_once(scenario, seed=0)
        sink = _RecordingSink()
        record_flow_energy(sink, measurement)
        entities = [entity for _, _, entity, _ in sink.samples]
        assert entities == sorted(entities)
        assert set(entities) == {"flow-1", "flow-2", IDLE_ENTITY}
        channels = {channel for _, channel, _, _ in sink.samples}
        assert channels == {FLOW_ENERGY_CHANNEL}
        # stamped with virtual time: the end of the measurement window
        assert all(t == measurement.duration_s for t, _, _, _ in sink.samples)

    def test_disabled_sink_is_untouched(self):
        scenario = Scenario(
            name="attrib-noop", flows=[FlowSpec(150_000)], packages=1
        )
        measurement = run_once(scenario, seed=0)
        record_flow_energy(ProbeSink(), measurement)  # must not raise

    def test_attribution_from_telemetry_rebuilds_ledgers(self):
        records = [
            {
                "scenario": "s",
                "seed": 0,
                "channel": FLOW_ENERGY_CHANNEL,
                "entity": "flow-1",
                "values": [1.5],
            },
            {
                "scenario": "s",
                "seed": 0,
                "channel": FLOW_ENERGY_CHANNEL,
                "entity": IDLE_ENTITY,
                "values": [0.5],
            },
            {
                "scenario": "s",
                "seed": 0,
                "channel": "cwnd_bytes",
                "entity": "flow-1",
                "values": [1.0, 2.0],
            },
        ]
        ledgers = attribution_from_telemetry(records)
        assert ledgers == {("s", 0): {"flow-1": 1.5, IDLE_ENTITY: 0.5}}

    def test_summarize_flow_energy_renders_totals(self):
        records = [
            {
                "scenario": "s",
                "seed": seed,
                "channel": FLOW_ENERGY_CHANNEL,
                "entity": entity,
                "values": [value],
            }
            for seed in (0, 1)
            for entity, value in (("flow-1", 2.0), (IDLE_ENTITY, 1.0))
        ]
        text = summarize_flow_energy(records)
        assert "2 runs" in text
        assert "flow-1" in text and IDLE_ENTITY in text

    def test_summarize_flow_energy_empty_without_attribution(self):
        assert summarize_flow_energy([]) == ""
