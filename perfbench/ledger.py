"""The traced run's per-layer ledger, recorded from outside ``src/``.

Nothing here edits the program. The ledger reaches each layer through
its public seams:

* the ``Observer`` span protocol (``testbed_build``/``fabric_build``,
  ``sim_loop``, ``measurement``) gives the harness phases;
* the ``Simulator.profiler`` hook (``enter``/``exit`` around every
  event callback) gives per-layer dispatch time, each callback charged
  to the ``repro`` package that defines it, minus the time spent in
  nested frames of other layers: the program's own component marks
  (queue enqueue/dequeue, the TCP sender's ACK path) and frames this
  module opens around the CPU energy model's per-packet hooks and the
  TCP receiver's data path;
* wrappers installed by :class:`Patches` around public functions and
  methods (``Simulator.step``/``schedule_at``, ``Host.send``,
  ``Interface.enqueue``, the ``CongestionControl`` hooks, workload
  generation, scheduling plans, energy metering, attribution and the
  journal writers/mergers) give the remaining counts and times.

The patches are installed only around the traced sweep and removed
afterwards, so the untraced sweeps of the same process run unmodified
code. Every wrapper records, then calls the original with the original
arguments: the simulation's outputs are unchanged, which the digest
comparison between traced and untraced sweeps verifies.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import repro.cc.registry  # noqa: F401  (loads every CongestionControl)
import repro.sched.policies  # noqa: F401  (loads every SchedulingPolicy)
from repro.apps import workload as apps_workload
from repro.cc.base import CongestionControl
from repro.energy import fleet, meter
from repro.energy.cpu import CpuModel
from repro.harness.sweep import Sweep
from repro.net.host import Host
from repro.net.link import Interface
from repro.obs import attrib, journal, profile, telemetry
from repro.obs.observer import Observer, Span, TracingObserver
from repro.sched.policy import SchedulingPolicy
from repro.sim import timer
from repro.sim.engine import Simulator
from repro.sim.profile import DISPATCH_PREFIX, HotPathProfiler
from repro.tcp.receiver import TcpReceiver

perf = time.perf_counter
_DISPATCH = DISPATCH_PREFIX + "."

#: layers whose event callbacks the dispatch ledger names
DISPATCH_LAYERS = ("net", "tcp", "energy", "apps")

#: the ``CongestionControl`` methods the TCP sender calls into
CC_HOOKS = (
    "on_ack", "on_dupack", "on_congestion_event", "on_ecn", "on_rto",
    "on_recovery_exit", "on_sent", "pacing_rate_bps",
)

#: the per-packet ``HostListener`` hooks the CPU energy model implements
ENERGY_HOOKS = ("on_packet_sent", "on_packet_received", "on_retransmit", "on_cc_op")

#: counts that are a pure function of (workload, seed): two traced runs
#: must report them identically
EXACT = (
    "cli.modules_loaded", "harness.items", "sim.events", "sim.heap_pushes",
    "net.events", "tcp.events", "energy.events", "apps.events", "net.pkts",
    "net.link_tx", "net.drops", "net.ecn_marks", "tcp.retransmissions",
    "cc.calls", "obs.attrib_calls", "ledger.digest",
)

#: per-layer times reported as a share of the traced sweep's wall
SHARES = (
    "apps.workload_gen", "sched.plan", "obs.attrib", "obs.trace_write",
    "obs.merge",
)

_PHASES = {
    "testbed_build": "harness.build_s",
    "fabric_build": "harness.build_s",
    "sim_loop": "harness.loop_s",
    "measurement": "harness.measurement_s",
}


def layer_of_module(module: str) -> str:
    """``repro.net.link`` -> ``net``; anything outside repro -> ``unknown``."""
    parts = module.split(".")
    if len(parts) >= 2 and parts[0] == "repro":
        return parts[1]
    return "unknown"


class Ledger:
    """Counts (``n``) and seconds (``t``) keyed by metric name."""

    def __init__(self) -> None:
        self.n: Dict[str, int] = defaultdict(int)
        self.t: Dict[str, float] = defaultdict(float)
        self.profiler = LedgerProfiler(self)
        self._owners: Optional[Dict[str, str]] = None
        self._key_layers: Dict[str, str] = {}
        #: when ``Sweep.run`` last returned (start of figure post-processing)
        self.sweep_returned_at = 0.0

    # -- dispatch keys -> layers ----------------------------------------

    def _owner_map(self) -> Dict[str, str]:
        """Top-level name -> layer, over every loaded ``repro`` module.

        A dispatch key carries only the callback's qualname, whose first
        component is a class or function defined at module level; names
        defined in two layers map to ``unknown`` and so show up as an
        accounting gap instead of being charged to a guess.
        """
        owners: Dict[str, str] = {}
        for modname, module in list(sys.modules.items()):
            if not modname.startswith("repro.") or module is None:
                continue
            for value in list(vars(module).values()):
                if getattr(value, "__module__", None) != modname:
                    continue
                qualname = getattr(value, "__qualname__", None)
                if not isinstance(qualname, str):
                    continue
                layer = layer_of_module(modname)
                prior = owners.setdefault(qualname, layer)
                if prior != layer:
                    owners[qualname] = "unknown"
        return owners

    def layer_for_key(self, key: str) -> str:
        layer = self._key_layers.get(key)
        if layer is None:
            if self._owners is None:
                self._owners = self._owner_map()
            owner = key[len(_DISPATCH):].split(".")[0]
            layer = self._owners.get(owner, "unknown")
            if layer == "unknown":
                # a class or function first seen after the map was built
                self._owners = self._owner_map()
                layer = self._owners.get(owner, "unknown")
            self._key_layers[key] = layer
        return layer

    def wrap_timer_callback(self, callback: Callable[..., Any]) -> Callable[..., Any]:
        """Wrap a timer callback so its event is charged to its own layer.

        ``Timer``/``PeriodicTimer`` are ``sim``-layer trampolines: the
        engine dispatches ``Timer._fire`` but the work is the callback's
        (a TCP RTO, an energy sample...).
        """
        func = getattr(callback, "__func__", callback)
        layer = layer_of_module(getattr(func, "__module__", "") or "")
        profiler = self.profiler

        def relabeled(*args: Any) -> Any:
            profiler.relabel(layer)
            return callback(*args)

        return relabeled

    # -- spans ------------------------------------------------------------

    def span_done(self, phase: str, wall_s: float) -> None:
        metric = _PHASES.get(phase)
        if metric is None:
            return
        self.t[metric] += wall_s
        if metric == "harness.build_s":
            self.n["harness.items"] += 1

    # -- results ------------------------------------------------------------

    def add_runs(self, runs: List[Any]) -> None:
        """Fold in the sweep's ``RunMeasurement.counters()``."""
        for run in runs:
            counters = run.counters()
            self.n["net.drops"] += int(counters["bottleneck_drops"])
            self.n["net.ecn_marks"] += int(counters["ecn_marks"])
            self.n["tcp.retransmissions"] += int(counters["retransmissions"])

    def metrics(self, sweep_wall_s: float, tables_done_at: float) -> Dict[str, float]:
        """Every per-layer number this ledger can give for one sweep."""
        n, t = self.n, self.t
        loop = t["harness.loop_s"]
        step_total = t["sim.step_total_s"]
        callbacks = sum(v for k, v in t.items() if k.endswith(".dispatch_s"))
        named = sum(t[f"{layer}.dispatch_s"] for layer in DISPATCH_LAYERS)
        residual = loop - step_total
        step_self = step_total - callbacks
        out: Dict[str, float] = {
            "harness.build_s": t["harness.build_s"],
            "harness.loop_s": loop,
            "harness.measurement_s": t["harness.measurement_s"],
            "harness.residual_s": residual,
            "harness.items": n["harness.items"],
            "sim.events": n["sim.events"],
            "sim.heap_pushes": n["sim.heap_pushes"],
            "sim.wasted_push_ratio": (
                (n["sim.heap_pushes"] - n["sim.events"]) / n["sim.heap_pushes"]
                if n["sim.heap_pushes"] else 0.0
            ),
            "sim.step_s": step_self,
            "sim.events_per_pkt": (
                n["sim.events"] / n["net.pkts"] if n["net.pkts"] else 0.0
            ),
            "net.pkts": n["net.pkts"],
            "net.link_tx": n["net.link_tx"],
            "net.drops": n["net.drops"],
            "net.ecn_marks": n["net.ecn_marks"],
            "tcp.retransmissions": n["tcp.retransmissions"],
            "cc.calls": n["cc.calls"],
            "cc.busy_s": t["cc.busy_s"],
            "energy.meter_s": t["energy.meter_s"],
            "obs.attrib_calls": n["obs.attrib_calls"],
            "figures.post_s": max(0.0, tables_done_at - self.sweep_returned_at),
            # loop wall minus its parts: the harness residual, the heap's
            # self time and every named layer's dispatch time. Non-zero
            # means a callback was charged to no named layer.
            "ledger.loop_gap_s": loop - (residual + step_self + named),
            "ledger.harness_share": (
                (residual + t["obs.attrib_s"]) / sweep_wall_s
                if sweep_wall_s > 0 else 0.0
            ),
        }
        for layer in DISPATCH_LAYERS:
            out[f"{layer}.events"] = n[f"{layer}.events"]
            out[f"{layer}.dispatch_s"] = t[f"{layer}.dispatch_s"]
        # Layers some workloads never enter are reported as shares of the
        # sweep wall: a seconds figure there would read 0.0 on every run.
        for name in SHARES:
            seconds = t[name + "_s"]
            out[name + "_share"] = seconds / sweep_wall_s if sweep_wall_s > 0 else 0.0
        return out


class LedgerProfiler(HotPathProfiler):
    """Charges event-dispatch wall time to layers, as self time.

    The engine marks each callback with a dispatch key; the layer that
    defines the callback owns that frame. The hook's nested component
    marks (``net.queue.enqueue``, ``tcp.sender.handle_packet``...) open
    frames owned by the layer their key names, and their time is taken
    out of the enclosing frame, so the layers' times add up to the
    total callback time exactly.
    """

    enabled = True

    def __init__(self, ledger: Ledger):
        self.ledger = ledger
        #: open frames: [layer, start, time spent in child frames]
        self.stack: List[List[Any]] = []

    def enter(self, component: str) -> None:
        if component.startswith(_DISPATCH):
            layer = self.ledger.layer_for_key(component)
        else:
            layer = component.split(".", 1)[0]
        self.stack.append([layer, 0.0, 0.0])
        self.stack[-1][1] = perf()

    def exit(self, component: str) -> None:
        now = perf()
        layer, start, children = self.stack.pop()
        elapsed = now - start
        counts, times = self.ledger.n, self.ledger.t
        times[layer + ".dispatch_s"] += elapsed - children
        if self.stack:
            self.stack[-1][2] += elapsed
        else:
            counts[layer + ".events"] += 1
            counts["sim.events"] += 1

    def relabel(self, layer: str) -> None:
        """Hand the running callback's frame to ``layer``."""
        if self.stack:
            self.stack[-1][0] = layer


class LedgerSpan(Span):
    """Times one harness phase for the ledger, around the inner span."""

    __slots__ = ("ledger", "phase", "inner", "wall_s", "_t0")

    def __init__(self, ledger: Ledger, phase: str, inner: Span):
        self.ledger = ledger
        self.phase = phase
        self.inner = inner
        self.wall_s = 0.0
        self._t0 = 0.0

    def add(self, **fields: Any) -> None:
        self.inner.add(**fields)

    def __enter__(self) -> "LedgerSpan":
        self.inner.__enter__()
        self._t0 = perf()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.wall_s = perf() - self._t0
        self.inner.__exit__(*exc_info)
        self.ledger.span_done(self.phase, self.wall_s)


class _LedgerHooks:
    ledger: Ledger

    def span(self, phase: str, **fields: Any) -> Span:
        inner = super().span(phase, **fields)  # type: ignore[misc]
        return LedgerSpan(self.ledger, phase, inner)

    def profiler(self, scenario: str, seed: int) -> HotPathProfiler:
        return self.ledger.profiler


class LedgerObserver(_LedgerHooks, Observer):
    """Stands in for "no tracing" on fig1/fabric, feeding only the ledger."""

    # enabled, so the executor hands this observer to run_once
    enabled = True

    def __init__(self, ledger: Ledger):
        self.ledger = ledger


class LedgerTracingObserver(_LedgerHooks, TracingObserver):
    """The grid's ``TracingObserver`` with the ledger added: the traced
    grid still writes, merges and canonicalizes its journal."""

    def __init__(self, trace_dir: Any, ledger: Ledger):
        self.ledger = ledger
        super().__init__(trace_dir)


class Patches:
    """Install benchmark-owned wrappers around public functions; undo them.

    Module-level functions are replaced wherever a loaded ``repro``
    module binds them (``from x import f`` copies the binding), and the
    originals are restored the same way, including in modules first
    imported while the patches were live.
    """

    def __init__(self, ledger: Ledger):
        self.ledger = ledger
        self._methods: List[Tuple[type, str, Any]] = []
        self._functions: List[Tuple[Any, Any]] = []

    # -- installing ------------------------------------------------------

    def method(self, cls: type, name: str, make: Callable[[Any], Any]) -> None:
        original = cls.__dict__[name]
        self._methods.append((cls, name, original))
        setattr(cls, name, make(original))

    def function(self, original: Any, wrapper: Any) -> None:
        self._functions.append((original, wrapper))
        for module in _repro_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)

    def timed(self, metric: str, calls: Optional[str] = None) -> Callable[[Any], Any]:
        """Wrapper factory adding outermost-call wall time to ``metric``.

        Nested calls of the same metric (a subclass hook calling
        ``super()``) are neither timed nor counted twice.
        """
        ledger = self.ledger
        depth = [0]

        def make(original: Any) -> Any:
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                if depth[0]:
                    return original(*args, **kwargs)
                depth[0] = 1
                t0 = perf()
                try:
                    return original(*args, **kwargs)
                finally:
                    ledger.t[metric] += perf() - t0
                    depth[0] = 0
                    if calls is not None:
                        ledger.n[calls] += 1

            wrapper.__wrapped__ = original  # type: ignore[attr-defined]
            return wrapper

        return make

    def framed(self, layer: str) -> Callable[[Any], Any]:
        """Wrapper factory opening a ``layer`` frame inside event dispatch,
        for per-packet work that the program's own marks do not delimit."""
        profiler = self.ledger.profiler
        key = f"{layer}.hook"

        def make(original: Any) -> Any:
            def wrapper(*args: Any) -> Any:
                if not profiler.stack:
                    return original(*args)
                profiler.enter(key)
                try:
                    return original(*args)
                finally:
                    profiler.exit(key)

            return wrapper

        return make

    def counted(self, metric: str) -> Callable[[Any], Any]:
        counts = self.ledger.n

        def make(original: Any) -> Any:
            def wrapper(*args: Any) -> Any:
                counts[metric] += 1
                return original(*args)

            return wrapper

        return make

    def install(self) -> None:
        """Wrap every layer boundary the ledger measures."""
        ledger = self.ledger

        def step(original: Any) -> Any:
            def wrapper(sim: Any) -> bool:
                t0 = perf()
                try:
                    return original(sim)
                finally:
                    ledger.t["sim.step_total_s"] += perf() - t0

            return wrapper

        self.method(Simulator, "step", step)
        self.method(Simulator, "schedule_at", self.counted("sim.heap_pushes"))
        self.method(Host, "send", self.counted("net.pkts"))
        self.method(Interface, "enqueue", self.counted("net.link_tx"))

        def timer_init(original: Any) -> Any:
            def wrapper(self_: Any, sim: Any, callback: Any, *args: Any) -> None:
                original(self_, sim, ledger.wrap_timer_callback(callback), *args)

            return wrapper

        def periodic_init(original: Any) -> Any:
            def wrapper(
                self_: Any, sim: Any, interval: float, callback: Any, *args: Any
            ) -> None:
                original(self_, sim, interval, ledger.wrap_timer_callback(callback), *args)

            return wrapper

        energy_frame = self.framed("energy")
        for name in ENERGY_HOOKS:
            self.method(CpuModel, name, energy_frame)
        self.method(TcpReceiver, "handle_packet", self.framed("tcp"))

        self.method(timer.Timer, "__init__", timer_init)
        self.method(timer.PeriodicTimer, "__init__", periodic_init)

        cc_timed = self.timed("cc.busy_s", calls="cc.calls")
        for cls in [CongestionControl, *_subclasses(CongestionControl)]:
            for name in CC_HOOKS:
                if inspect.isfunction(cls.__dict__.get(name)):
                    self.method(cls, name, cc_timed)
        plan_timed = self.timed("sched.plan_s")
        for cls in [SchedulingPolicy, *_subclasses(SchedulingPolicy)]:
            if inspect.isfunction(cls.__dict__.get("plan")):
                self.method(cls, "plan", plan_timed)

        self.method(meter.EnergyMeter, "stop", self.timed("energy.meter_s"))
        self._function_timed(fleet.fleet_energy_report, "energy.meter_s")
        self._function_timed(
            apps_workload.generate_fabric_workload, "apps.workload_gen_s"
        )
        self._function_timed(
            attrib.attribute_energy, "obs.attrib_s", calls="obs.attrib_calls"
        )
        write_timed = self.timed("obs.trace_write_s")
        self.method(journal.JournalWriter, "write", write_timed)
        self.method(journal.JournalWriter, "write_record", write_timed)
        self.method(telemetry.TelemetryWriter, "write_record", write_timed)
        merge_timed = self.timed("obs.merge_s")
        for merge in (
            journal.merge_worker_journals,
            telemetry.merge_worker_telemetry,
            profile.merge_worker_profiles,
        ):
            self.function(merge, merge_timed(merge))

        def sweep_run(original: Any) -> Any:
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                try:
                    return original(*args, **kwargs)
                finally:
                    ledger.sweep_returned_at = perf()

            return wrapper

        self.method(Sweep, "run", sweep_run)

    def _function_timed(
        self, original: Any, metric: str, calls: Optional[str] = None
    ) -> None:
        self.function(original, self.timed(metric, calls=calls)(original))

    # -- removing --------------------------------------------------------

    def remove(self) -> None:
        for cls, name, original in reversed(self._methods):
            setattr(cls, name, original)
        self._methods.clear()
        for original, wrapper in self._functions:
            for module in _repro_modules():
                for attr, value in list(vars(module).items()):
                    if value is wrapper:
                        setattr(module, attr, original)
        self._functions.clear()

    def __enter__(self) -> "Patches":
        try:
            self.install()
        except BaseException:
            self.remove()
            raise
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.remove()


def _repro_modules() -> Iterator[Any]:
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "repro" or name.startswith("repro.")):
            yield module


def _subclasses(cls: type) -> List[type]:
    found: List[type] = []
    stack = list(cls.__subclasses__())
    while stack:
        sub = stack.pop()
        if sub not in found:
            found.append(sub)
            stack.extend(sub.__subclasses__())
    return found
