"""The one run-until-complete loop every runner shares.

``step_until_complete`` ends the measurement window of every
experiment. These tests pin its failure paths through each runner that
reaches it, and its cost shape: completion is counted by hooks, so the
loop never re-reads every flow after every event.
"""

import pytest

from repro.apps.iperf import (
    STUCK_IDS_SHOWN,
    IperfSession,
    run_until_complete,
    step_until_complete,
)
from repro.errors import ExperimentError
from repro.figures.incast import run_incast_point
from repro.harness.experiment import FabricScenario, FlowSpec, Scenario
from repro.harness.fabric import run_fabric_once
from repro.harness.runner import run_once
from repro.net.topology import build_testbed
from repro.sim.engine import Simulator
from repro.tcp.sender import TcpSender

#: virtual seconds no run below can finish in
TINY_LIMIT_S = 1e-6


def small_fabric(name="loop-fabric", n_flows=20, **overrides):
    defaults = dict(
        name=name,
        n_flows=n_flows,
        mix="rpc",
        leaves=2,
        spines=1,
        hosts_per_leaf=4,
    )
    defaults.update(overrides)
    return FabricScenario(**defaults)


def _single_link():
    scenario = Scenario(
        name="loop-link",
        flows=[FlowSpec(2_000_000), FlowSpec(2_000_000)],
        time_limit_s=TINY_LIMIT_S,
    )
    return lambda: run_once(scenario)


def _fabric():
    scenario = small_fabric(time_limit_s=TINY_LIMIT_S)
    return lambda: run_fabric_once(scenario)


def _incast():
    return lambda: run_incast_point(
        4, 4_000_000, time_limit_s=TINY_LIMIT_S
    )


class TestTimeLimit:
    @pytest.mark.parametrize(
        "make_run, label",
        [
            (_single_link, "loop-link"),
            (_fabric, "loop-fabric"),
            (_incast, "incast fan-in 4"),
        ],
        ids=["run_once", "run_fabric_once", "run_incast_point"],
    )
    def test_overrun_names_the_run_and_its_stuck_flows(
        self, make_run, label
    ):
        with pytest.raises(ExperimentError) as excinfo:
            make_run()()
        message = str(excinfo.value)
        assert message.startswith(f"{label}: ")
        assert f"incomplete after {TINY_LIMIT_S}s virtual" in message
        assert " flows [" in message

    def test_many_stuck_flows_are_counted_not_listed(self):
        scenario = small_fabric(n_flows=200, time_limit_s=TINY_LIMIT_S)
        with pytest.raises(ExperimentError) as excinfo:
            run_fabric_once(scenario)
        message = str(excinfo.value)
        stuck, rest = message.split(": ", 1)[1].split(" of 200 flows [", 1)
        assert int(stuck) > STUCK_IDS_SHOWN
        listed = rest.split("]", 1)[0]
        assert listed.endswith(", ...")
        assert len(listed.split(", ")) == STUCK_IDS_SHOWN + 1


class TestDrainedQueue:
    def test_a_sender_that_never_starts_drains_the_queue(self):
        sim = Simulator()
        testbed = build_testbed(sim)
        dormant = IperfSession(
            testbed, total_bytes=1000, start_time=None, flow_id=7
        )
        with pytest.raises(ExperimentError) as excinfo:
            step_until_complete(sim, [dormant.sender], 1.0, "dormant")
        assert str(excinfo.value) == (
            "dormant: event queue drained with 1 of 1 flows [7] incomplete"
        )

    def test_an_empty_sender_list_needs_no_events(self):
        sim = Simulator()
        step_until_complete(sim, [], 1.0, "empty")
        assert sim.events_executed == 0

    def test_already_complete_senders_need_no_events(self):
        sim = Simulator()
        testbed = build_testbed(sim)
        session = IperfSession(testbed, total_bytes=100_000, flow_id=3)
        run_until_complete(testbed, [session])
        executed = sim.events_executed
        step_until_complete(sim, [session.sender], 1.0, "again")
        assert sim.events_executed == executed


class TestCostShape:
    def test_loop_reads_grow_with_flows_not_events(self, monkeypatch):
        # Count the completion reads made outside event dispatch: those
        # are the run loop's own. Reads inside a step are the sender's
        # per-event work and identical however the loop is written.
        loop_reads = 0
        steps = 0
        dispatching = False
        complete = TcpSender.complete.fget
        step = Simulator.step

        def counted_complete(sender):
            nonlocal loop_reads
            loop_reads += not dispatching
            return complete(sender)

        def counted_step(sim):
            nonlocal steps, dispatching
            steps += 1
            dispatching = True
            try:
                return step(sim)
            finally:
                dispatching = False

        monkeypatch.setattr(TcpSender, "complete", property(counted_complete))
        monkeypatch.setattr(Simulator, "step", counted_step)
        n_flows = 200
        measurement = run_fabric_once(small_fabric(n_flows=n_flows))
        assert len(measurement.flow_results) == n_flows
        # Polling after every event would read at least once per step.
        assert steps > 10 * n_flows
        assert loop_reads <= 2 * n_flows
