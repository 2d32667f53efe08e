"""Per-flow energy attribution: which flows burn the joules.

The paper's §4 argument is that *when* flows run decides what the
fleet pays — an unfair full-speed-then-idle allocation shortens active
periods and saves energy. This module makes that visible per flow: it
splits a run's measured joules (host CPU plus switch ports for fabric
runs, via :class:`~repro.energy.fleet.FleetEnergyReport` totals) across
concurrent flows by throughput share on virtual-time windows.

The ledger is a pure post-run computation over a
:class:`~repro.harness.runner.RunMeasurement` — it never touches the
simulation (``obs-profile-no-sim-import`` bans the reverse import):

1. flow start/end times tile the measurement window into maximal
   intervals on which the set of active flows is constant;
2. each window carries energy proportional to its share of the
   measured duration;
3. a window's energy splits across its active flows proportionally to
   their mean transfer rate; windows with no active flow accrue to the
   ``idle`` pseudo-entity.

The split is one O(n log n) sweep over the sorted window edges with
exact weight and prefix sums, and the last window's owner takes the
final residual, so the attributed joules sum to the measured total
*exactly* (the energy-additivity property test holds this to 1e-9).
Results persist as one ``flow_energy_j`` telemetry sample per entity,
stamped with virtual time like every other probe channel.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate
from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple

from repro.errors import ObservabilityError
from repro.sim.probe import ProbeSink

if TYPE_CHECKING:
    from repro.harness.runner import RunMeasurement

#: telemetry channel carrying one attributed-joules sample per entity
FLOW_ENERGY_CHANNEL = "flow_energy_j"

#: the pseudo-entity windows with no active flow accrue to
IDLE_ENTITY = "idle"

#: guards rate computation for degenerate zero-duration flows
_FLOW_DURATION_EPS = 1e-12


@dataclass(frozen=True)
class FlowActivity:
    """One flow's active interval and bytes moved, for attribution."""

    entity: str
    start_s: float
    end_s: float
    transferred_bytes: int

    @property
    def rate_weight(self) -> float:
        """Mean transfer rate (the throughput-share weight)."""
        duration = max(self.end_s - self.start_s, _FLOW_DURATION_EPS)
        return self.transferred_bytes / duration


def measurement_activities(
    measurement: "RunMeasurement",
) -> List[FlowActivity]:
    """The measurement's flows as attribution inputs, id-ordered."""
    return [
        FlowActivity(
            entity=f"flow-{result.flow_id}",
            start_s=result.start_time,
            end_s=result.end_time,
            transferred_bytes=result.bytes_transferred,
        )
        for result in sorted(
            measurement.flow_results, key=lambda r: r.flow_id
        )
    ]


def _fixed_point(values: Sequence[float]) -> Tuple[List[int], int]:
    """``values`` times one power-of-two ``scale``, as exact ints.

    A float is an int over a power of two, so scaling by the largest
    denominator among ``values`` leaves every one a whole number. Sums
    of these ints are exact; dividing one by ``scale`` rounds it once.
    """
    scale = max((value.as_integer_ratio()[1] for value in values), default=1)
    fixed = [
        num * scale // den
        for num, den in (value.as_integer_ratio() for value in values)
    ]
    return fixed, scale


def attribute_energy(
    activities: Sequence[FlowActivity],
    total_energy_j: float,
    duration_s: float,
) -> Dict[str, float]:
    """Split ``total_energy_j`` across flows by windowed throughput share.

    Returns joules per entity (plus :data:`IDLE_ENTITY`). One sweep over
    the sorted window edges keeps the active set's weight sum, so the
    cost is O(n log n) in the flow count: a flow's joules are its rate
    weight times the sum of ``window_j / weight_sum`` over its windows,
    read off a prefix sum. Weight and prefix sums are exact (fixed-point
    ints): a sub-nanosecond flow's huge rate weight entering and leaving
    the sum cannot wipe out the small weights beside it, and an exact
    zero sum means every active flow moved zero bytes. The owner of the
    last window (its last active flow, or idle) takes the residual, so
    no floating-point drift accumulates in the total.
    """
    if duration_s <= 0:
        raise ObservabilityError(
            f"cannot attribute energy over a {duration_s}s window"
        )
    result: Dict[str, float] = {a.entity: 0.0 for a in activities}
    if len(result) != len(activities):
        raise ObservabilityError("duplicate flow entities in attribution")

    spans = [
        (
            min(max(a.start_s, 0.0), duration_s),
            min(max(a.end_s, 0.0), duration_s),
        )
        for a in activities
    ]
    edges = sorted({0.0, duration_s, *(t for span in spans for t in span)})
    windows = len(edges) - 1

    # each flow is active on windows [lo, hi); zero-length flows and
    # flows clipped out of the window are active on none
    placed = [
        (activity, bisect_left(edges, start), bisect_left(edges, end))
        for activity, (start, end) in zip(activities, spans)
        if start < end
    ]
    weights = [activity.rate_weight for activity, _, _ in placed]
    fixed_weights, weight_scale = _fixed_point(weights)
    weight_delta = [0] * (windows + 1)
    count_delta = [0] * (windows + 1)
    owner = IDLE_ENTITY  # takes the residual: the last window's last flow
    for (activity, lo, hi), weight in zip(placed, fixed_weights):
        weight_delta[lo] += weight
        weight_delta[hi] -= weight
        count_delta[lo] += 1
        count_delta[hi] -= 1
        if hi == windows:
            owner = activity.entity

    idle_j = 0.0
    share_terms = [0.0] * windows  # window_j / weight_sum
    even_terms = [0.0] * windows  # window_j / active, all-zero-byte windows
    sweep = zip(
        edges, edges[1:], accumulate(weight_delta), accumulate(count_delta)
    )
    for j, (t0, t1, weight_sum, active) in enumerate(sweep):
        window_j = total_energy_j * (t1 - t0) / duration_s
        if not active:
            idle_j += window_j
        elif weight_sum > 0:
            share_terms[j] = window_j / (weight_sum / weight_scale)
        else:
            even_terms[j] = window_j / active  # zero-byte flows split evenly
    fixed_shares, share_scale = _fixed_point(share_terms)
    fixed_evens, even_scale = _fixed_point(even_terms)
    share_prefix = [0, *accumulate(fixed_shares)]
    even_prefix = [0, *accumulate(fixed_evens)]

    for (activity, lo, hi), weight in zip(placed, weights):
        result[activity.entity] = (
            weight * ((share_prefix[hi] - share_prefix[lo]) / share_scale)
            + (even_prefix[hi] - even_prefix[lo]) / even_scale
        )
    result[IDLE_ENTITY] = idle_j
    result[owner] = total_energy_j - math.fsum(
        joules for entity, joules in result.items() if entity != owner
    )
    return result


def attribute_measurement(measurement: "RunMeasurement") -> Dict[str, float]:
    """Per-entity joules for one run's measured total.

    For fabric runs ``measurement.energy_j`` is already the
    :class:`~repro.energy.fleet.FleetEnergyReport` fleet total (host
    CPUs plus switches), so the ledger covers both pools; the
    ``host_energy_j``/``switch_energy_j`` extras scale any entity's
    share into its per-pool split (shares are pool-independent).
    """
    return attribute_energy(
        measurement_activities(measurement),
        total_energy_j=measurement.energy_j,
        duration_s=measurement.duration_s,
    )


def record_flow_energy(
    sink: ProbeSink, measurement: "RunMeasurement"
) -> None:
    """Persist a run's attribution ledger into its telemetry sink.

    One ``flow_energy_j`` sample per entity, stamped with the end of
    the measurement window (virtual time, like every probe sample).
    No-op for disabled sinks and zero-length windows.
    """
    if not sink.enabled or measurement.duration_s <= 0:
        return
    attribution = attribute_measurement(measurement)
    for entity in sorted(attribution):
        sink.sample(
            measurement.duration_s,
            FLOW_ENERGY_CHANNEL,
            entity,
            attribution[entity],
        )


def top_energy_flows(
    attribution: Dict[str, float], top: int = 5
) -> List[Tuple[str, float, float]]:
    """The ``top`` hungriest entities as (entity, joules, share-percent).

    The idle bucket competes like any flow — an idle-dominated run
    *should* show ``idle`` on top; that is the paper's §4 story.
    """
    total = sum(attribution.values())
    if total <= 0:
        return []
    ranked = sorted(attribution.items(), key=lambda kv: (-kv[1], kv[0]))
    return [
        (entity, joules, 100.0 * joules / total)
        for entity, joules in ranked[:top]
    ]


def top_flow_share_percent(measurement: "RunMeasurement") -> float:
    """Share of a run's energy attributed to its hungriest *flow*.

    Excludes the idle bucket: this is the figure-table number that
    shows how concentrated a policy leaves the energy bill (a
    serialized schedule concentrates it; fair sharing flattens it).
    """
    attribution = attribute_measurement(measurement)
    attribution.pop(IDLE_ENTITY, None)
    total = measurement.energy_j
    if total <= 0 or not attribution:
        return 0.0
    return 100.0 * max(attribution.values()) / total


def summarize_flow_energy(
    records: Sequence[Dict[str, object]], top: int = 5
) -> str:
    """The ``obs report`` view: hungriest entities across a whole trace.

    Sums each entity's attributed joules over every run in the
    telemetry file and ranks the ``top``; empty string when the trace
    carries no attribution samples (telemetry recorded without flows,
    or an older trace).
    """
    ledgers = attribution_from_telemetry(records)
    if not ledgers:
        return ""
    totals: Dict[str, float] = {}
    for ledger in ledgers.values():
        for entity, joules in ledger.items():
            totals[entity] = totals.get(entity, 0.0) + joules
    ranked = top_energy_flows(totals, top=top)
    lines = [
        f"energy attribution: {len(ledgers)} runs, "
        f"{sum(totals.values()):.3f} J attributed"
    ]
    for entity, joules, share in ranked:
        lines.append(f"  {entity:<24} {joules:>10.4f} J  {share:>5.1f}%")
    return "\n".join(lines)


def attribution_from_telemetry(
    records: Sequence[Dict[str, object]],
) -> Dict[Tuple[str, int], Dict[str, float]]:
    """Rebuild per-run attribution ledgers from telemetry records.

    Filters a telemetry file's records down to the
    :data:`FLOW_ENERGY_CHANNEL` samples and groups them by
    (scenario, seed); each entity's ledger value is its final sample.
    """
    ledgers: Dict[Tuple[str, int], Dict[str, float]] = {}
    for record in records:
        if record.get("channel") != FLOW_ENERGY_CHANNEL:
            continue
        values = record.get("values") or []
        if not isinstance(values, list) or not values:
            continue
        key = (str(record.get("scenario", "")), int(record.get("seed", 0)))  # type: ignore[call-overload]
        ledgers.setdefault(key, {})[str(record.get("entity", ""))] = float(
            values[-1]  # type: ignore[arg-type]
        )
    return ledgers
