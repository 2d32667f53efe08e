"""The repository's benchmark: three paper sweeps, timed end to end.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig1-paper --seed 0 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off:

* ``setup_s``  median over fresh interpreters of the time from launch
  to the first work item (imports plus scenario construction);
* ``wall_s``  median over repeated sweeps of one seed of the time from
  the sweep call to finished figure tables;
* ``sim_bytes_per_s``  application bytes the sweep delivers / ``wall_s``;
* ``peak_rss_mb``  peak resident memory of this process or any child;
* ``checks_ok_frac``  1 - (items that raised + failed checks) / attempted.

``setup_s`` and ``wall_s`` (and so ``sim_bytes_per_s``) are host-speed
normalized: each launch and each sweep is rescaled by the reference loop
of ``hostspeed.py``, timed right before and after it and, within a
sweep, every 20 ms, so they read in seconds of a nominal host and a
shared host's drifting speed cancels. The raw medians are printed as
``#`` comment lines.

``--trace 1`` runs the same sweep serially with the per-layer ledger of
``ledger.py`` attached, alternating with untraced sweeps, and prints the
per-layer metrics named in ``BENCHMARK.json``.

Every metric is printed as ``name value unit``; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. The exit code is 0 when every check held,
1 when one failed, and 2 when the benchmark could not run at all (for
example, outside a checkout that holds ``src/repro``).
"""

from __future__ import annotations

import argparse
import functools
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: scratch space for the grid's trace directories, removed on exit
WORKDIR = ROOT / ".perfbench_work"

#: fresh interpreters timed per run for ``setup_s`` (after one warm-up)
SETUP_PROBES = 7
#: timed sweeps per run, at least, whatever ``--seconds`` says
MIN_SWEEPS = 2
#: the accounting identity of the loop ledger must close to this share
LOOP_GAP_TOLERANCE = 1e-6

sys.path.insert(0, str(ROOT))

from perfbench import hostspeed  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    WORKLOADS,
    Check,
    SweepOutcome,
    Workload,
    delivered_bytes,
    make_workload,
    run_digest,
)


class BenchError(Exception):
    """The benchmark itself could not run (not a failed output check)."""


class Tally:
    """Attempted and failed work items and checks, with failure notes."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: List[str] = []

    def items(self, n: int, failed: bool = False) -> None:
        self.attempted += n
        if failed:
            self.failed += n

    def check(self, check: Check) -> None:
        self.attempted += 1
        if not check.ok:
            self.failed += 1
            self.notes.append(f"check {check.name} failed: {check.detail}")

    def checks(self, checks: List[Check]) -> None:
        for check in checks:
            self.check(check)


def load_spec() -> Dict[str, Any]:
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {path.name}: {exc}") from exc


def setup_probes(workload: Workload, n: int = SETUP_PROBES) -> List[Dict[str, Any]]:
    """Launch ``n + 1`` fresh interpreters; time the last ``n``.

    The first launch compiles bytecode in a fresh checkout and is
    discarded. Each record is the child's own report plus ``setup_s``,
    the parent's launch-to-report wall time, and ``setup_norm_s``, that
    time at the nominal host speed (reference loop sampled around it).
    """
    cmd = [sys.executable, str(HERE / "setup_probe.py"), workload.name, workload.size]
    records = []
    speed = 0.0
    for i in range(n + 1):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            cmd, cwd=str(ROOT), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True,
        )
        try:
            line = proc.stdout.readline() if proc.stdout is not None else ""
            elapsed = time.perf_counter() - t0
            _, err = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0 or not line:
            raise BenchError(f"setup probe failed ({proc.returncode}): {err.strip()}")
        before, speed = speed, hostspeed.sample()
        if i:
            record = json.loads(line)
            record["setup_s"] = elapsed
            record["setup_norm_s"] = elapsed * hostspeed.scale(before, speed)
            records.append(record)
    return records


def peak_rss_mb() -> float:
    """Largest resident set of this process or any finished child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # Linux reports KiB


def timed_sweep(
    workload: Workload, seed: int, tally: Tally, observer: Any = None
) -> Optional[SweepOutcome]:
    """One sweep, its items tallied; None (items failed) if it raised."""
    try:
        outcome = workload.sweep(seed, observer=observer, workdir=WORKDIR)
    except Exception:  # the boundary: report and count, never hide
        tally.items(workload.items, failed=True)
        tally.notes.append(traceback.format_exc())
        return None
    tally.items(workload.items)
    return outcome


def reference_sweep(
    workload: Workload, seed: int, tally: Tally
) -> Optional[SweepOutcome]:
    """Warm-up sweep: untimed, fully checked; later sweeps of the seed
    are compared with its digest."""
    outcome = timed_sweep(workload, seed, tally)
    if outcome is not None:
        tally.checks(workload.checks(outcome))
        print(f"# digest {run_digest(outcome.runs)}")
    return outcome


def repeat_checks(
    workload: Workload, outcome: SweepOutcome, digest: str, tally: Tally, label: str
) -> None:
    tally.check(Check(
        f"digest_matches_reference_{label}", run_digest(outcome.runs) == digest,
        "outputs differ from the first sweep of this seed",
    ))
    tally.checks(workload.per_sweep_checks(outcome))


def measure_end_to_end(
    workload: Workload, seed: int, seconds: float, tally: Tally
) -> Dict[str, float]:
    setup = setup_probes(workload)
    reference = reference_sweep(workload, seed, tally)
    if reference is None:
        return {}
    digest = run_digest(reference.runs)
    payload = delivered_bytes(reference.runs)
    walls: List[float] = []
    norm_walls: List[float] = []
    speed = hostspeed.sample()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(walls) < MIN_SWEEPS:
        with hostspeed.Sampler() as sampler:
            repeat = timed_sweep(workload, seed, tally)
        before, speed = speed, hostspeed.sample()
        if repeat is None:
            return {}
        repeat_checks(workload, repeat, digest, tally, "timed")
        t0 = repeat.done_at - repeat.wall_s
        walls.append(repeat.wall_s - sampler.handler_s(t0, repeat.done_at))
        norm_walls.append(sampler.normalize(t0, repeat.done_at, before, speed))
    wall_s = statistics.median(norm_walls)
    print(
        f"# {len(walls)} timed sweeps, raw wall_s median "
        f"{statistics.median(walls):.4f} min {min(walls):.4f} max {max(walls):.4f}; "
        f"normalized min {min(norm_walls):.4f} max {max(norm_walls):.4f}"
    )
    print(f"# raw setup_s median {statistics.median(r['setup_s'] for r in setup):.4f}")
    return {
        "setup_s": statistics.median(r["setup_norm_s"] for r in setup),
        "wall_s": wall_s,
        "sim_bytes_per_s": payload / wall_s,
        "peak_rss_mb": peak_rss_mb(),
        "checks_ok_frac": 1.0 - tally.failed / max(tally.attempted, 1),
    }


def trace_dir_bytes(path: Optional[Path]) -> int:
    if path is None or not path.exists():
        return 0
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def measure_per_layer(
    workload: Workload, seed: int, seconds: float, tally: Tally
) -> Dict[str, float]:
    """Alternate traced and untraced serial sweeps; per-layer medians."""
    from perfbench import ledger as ledger_mod

    setup = setup_probes(workload)
    modules = {r["modules_loaded"] for r in setup}
    tally.check(Check("cli_modules_loaded_exact", len(modules) == 1, f"{modules}"))
    reference = reference_sweep(workload, seed, tally)
    if reference is None:
        return {}
    digest = run_digest(reference.runs)
    traced: List[Dict[str, float]] = []
    untraced_walls: List[float] = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or not traced:
        ledger = ledger_mod.Ledger()
        observer: Any = (
            functools.partial(ledger_mod.LedgerTracingObserver, ledger=ledger)
            if workload.journals else ledger_mod.LedgerObserver(ledger)
        )
        with ledger_mod.Patches(ledger):
            outcome = timed_sweep(workload, seed, tally, observer=observer)
        if outcome is None:
            return {}
        repeat_checks(workload, outcome, digest, tally, "traced")
        ledger.add_runs(outcome.runs)
        metrics = ledger.metrics(outcome.wall_s, outcome.done_at)
        metrics["obs.trace_bytes"] = trace_dir_bytes(outcome.trace_dir)
        metrics["trace.wall_s"] = outcome.wall_s
        gap = abs(metrics["ledger.loop_gap_s"])
        tally.check(Check(
            "loop_accounting_closes",
            gap <= LOOP_GAP_TOLERANCE * max(metrics["harness.loop_s"], 1e-9)
            and metrics["harness.residual_s"] >= 0,
            f"gap {gap:.3g}s of loop {metrics['harness.loop_s']:.3g}s, "
            f"residual {metrics['harness.residual_s']:.3g}s",
        ))
        print(
            f"# accounting: loop {metrics['harness.loop_s']:.6f}s = residual"
            f" + heap self + layer dispatch, gap {metrics['ledger.loop_gap_s']:.3g}s"
        )
        traced.append(metrics)
        plain = timed_sweep(workload, seed, tally)
        if plain is None:
            return {}
        repeat_checks(workload, plain, digest, tally, "untraced")
        untraced_walls.append(plain.wall_s)
    for key in ledger_mod.EXACT:
        values = {m[key] for m in traced if key in m}
        tally.check(Check(
            f"exact_{key}", len(values) <= 1, f"{key} varied: {sorted(values)}"
        ))
    # exact counts were just checked equal; times are medians
    out = {
        key: traced[0][key] if key in ledger_mod.EXACT
        else statistics.median(m[key] for m in traced)
        for key in traced[0]
    }
    out["cli.import_s"] = statistics.median(r["import_s"] for r in setup)
    out["cli.modules_loaded"] = modules.pop()
    out["trace.untraced_wall_s"] = statistics.median(untraced_walls)
    out["trace.overhead"] = out["trace.wall_s"] / out["trace.untraced_wall_s"] - 1.0
    out["ledger.digest"] = int(digest[:12], 16)
    print(f"# {len(traced)} traced / {len(untraced_walls)} untraced sweeps")
    return out


def report(
    spec_metrics: List[Dict[str, Any]], values: Dict[str, float], tally: Tally
) -> Dict[str, Any]:
    """Print each metric with its unit; build the final JSON object."""
    metrics: Dict[str, Dict[str, Any]] = {}
    for entry in spec_metrics:
        name, unit = entry["name"], entry["unit"]
        if name not in values:
            tally.check(Check(f"metric_{name}_measured", False, "not measured"))
            continue
        value = values[name]
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name} {value!r} {unit}")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="'tiny' shrinks every sweep for the benchmark's own smoke tests",
    )
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    tally = Tally()
    try:
        spec = load_spec()
        if args.trace:
            # the ledger's wrappers only see this process: serial
            workload = make_workload(args.workload, size=args.size, jobs=1)
            values = measure_per_layer(workload, args.seed, args.seconds, tally)
            spec_metrics = spec["per_layer"]
        else:
            workload = make_workload(args.workload, size=args.size)
            values = measure_end_to_end(workload, args.seed, args.seconds, tally)
            spec_metrics = spec["end_to_end"]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
    for note in tally.notes:
        print(note, file=sys.stderr)
    result = report(spec_metrics, values, tally)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
