"""Telemetry persistence: probe-sink series as JSONL in a trace dir.

The sim-side half of the telemetry channel is
:mod:`repro.sim.probe` — a neutral sink protocol components emit into.
This module is the obs-side half: it serializes a
:class:`~repro.sim.probe.TimeSeriesProbeSink`'s collected streams into
``telemetry.jsonl`` next to the run journal, one JSON object per
(scenario, seed, channel, entity) series::

    {"scenario": "fig1-fair", "seed": 0, "channel": "cwnd_bytes",
     "entity": "flow-1", "times": [...], "values": [...]}

Process-pool safety mirrors the journal: workers append to their own
``telemetry-worker-<wid>.jsonl`` partial (the name deliberately does
*not* match the journal's ``worker-*.jsonl`` glob) and the coordinator
merges partials into the main file after each batch, sorted by
(scenario, seed, channel, entity) so the merged file is independent of
worker interleaving.

Everything here is stamped with virtual time only — records carry no
wall clock and no process identity, so telemetry files are directly
diffable across runs.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import IO, Any, Dict, List, Optional, Union

from repro.errors import ObservabilityError
from repro.obs.journal import (
    canonicalize_records,
    merge_partials,
    read_records,
    trace_file,
)
from repro.sim.probe import TimeSeriesProbeSink
from repro.sim.trace import TimeSeries
from repro.units import msec

#: filename of the merged telemetry file inside a trace dir
TELEMETRY_FILENAME = "telemetry.jsonl"

#: glob pattern of per-worker telemetry partials awaiting merge
TELEMETRY_WORKER_GLOB = "telemetry-worker-*.jsonl"

#: default downsampling interval for traced runs: 1 ms of virtual time
#: per stream keeps per-ACK channels (microsecond spacing at 10 Gb/s)
#: from dominating the trace while preserving figure-grade resolution
DEFAULT_TELEMETRY_INTERVAL_S = msec(1.0)

#: fields every telemetry record must carry
_REQUIRED_FIELDS = ("scenario", "seed", "channel", "entity", "times", "values")


def telemetry_records(
    sink: TimeSeriesProbeSink, scenario: str, seed: int
) -> List[Dict[str, Any]]:
    """Serialize a probe sink's streams to record dicts, key-ordered."""
    records: List[Dict[str, Any]] = []
    for (channel, entity), series in sink.items():
        records.append(
            {
                "scenario": scenario,
                "seed": seed,
                "channel": channel,
                "entity": entity,
                "times": list(series.times),
                "values": list(series.values),
            }
        )
    return records


class TelemetryWriter:
    """Append-only JSONL writer for telemetry records, flushed eagerly."""

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._file: Optional[IO[str]] = self.path.open("a", encoding="utf-8")
        self.records_written = 0

    def write_record(self, record: Dict[str, Any]) -> None:
        """Append one series record."""
        if self._file is None:
            raise ObservabilityError(f"telemetry file {self.path} is closed")
        self._file.write(json.dumps(record, sort_keys=True) + "\n")
        self._file.flush()
        self.records_written += 1

    def write_sink(
        self, sink: TimeSeriesProbeSink, scenario: str, seed: int
    ) -> int:
        """Append every stream of ``sink``; returns records written."""
        records = telemetry_records(sink, scenario, seed)
        for record in records:
            self.write_record(record)
        return len(records)

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None

    def __enter__(self) -> "TelemetryWriter":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def telemetry_path(target: Union[str, Path]) -> Path:
    """Resolve a telemetry argument: a ``.jsonl`` file or a trace dir."""
    return trace_file(target, TELEMETRY_FILENAME)


def read_telemetry(path: Union[str, Path]) -> List[Dict[str, Any]]:
    """Parse a telemetry JSONL file (or trace directory) into records."""
    return read_records(telemetry_path(path), "telemetry", _REQUIRED_FIELDS)


def series_from_record(record: Dict[str, Any]) -> TimeSeries:
    """Rebuild a :class:`TimeSeries` from one telemetry record."""
    return TimeSeries(
        name=f"{record['entity']}:{record['channel']}",
        times=[float(t) for t in record["times"]],
        values=[float(v) for v in record["values"]],
    )


def _sort_key(_position: int, record: Dict[str, Any]):
    return (
        str(record.get("scenario", "")),
        record.get("seed", 0),
        str(record.get("channel", "")),
        str(record.get("entity", "")),
    )


def canonicalize_telemetry(path: Union[str, Path]) -> int:
    """Sort a telemetry file by (scenario, seed, channel, entity), in place."""
    return canonicalize_records(telemetry_path(path), read_telemetry, _sort_key)


def merge_worker_telemetry(
    trace_dir: Union[str, Path],
    into: Optional[TelemetryWriter] = None,
    remove_partials: bool = True,
) -> List[Dict[str, Any]]:
    """Merge ``telemetry-worker-*.jsonl`` partials in the same key order."""
    return merge_partials(
        trace_dir,
        TELEMETRY_WORKER_GLOB,
        read_telemetry,
        _sort_key,
        into,
        remove_partials,
    )
