"""Structured JSONL run journal: one event stream per sweep.

Every event is one JSON object per line with at least::

    {"event": "run_started", "t_wall": 1723.201, "worker": 4021, ...}

``t_wall`` is a wall-clock timestamp and ``worker`` the emitting
process id — *diagnostic* fields only, excluded from any determinism
contract. Everything else on an event (scenario name, seed, cache key,
item index, simulated duration, measurement counters) is a pure
function of the work item and therefore identical between ``jobs=1``
and ``jobs=N`` runs; ``tests/harness/test_trace_determinism.py`` holds
the pipeline to that.

Process-pool safety: workers never share a file. Each worker process
appends to its own ``worker-<pid>.jsonl`` inside the trace directory
and the coordinator merges the partials into the main ``journal.jsonl``
after the batch, ordered by work-item index (stable within an item).
Results never flow through the journal, so determinism of measurements
is untouched whether tracing is on or off.

Telemetry and profile files follow the same partial-then-merge scheme,
so the JSONL helpers they share with the journal (``trace_file``,
``read_records``, ``merge_partials``, ``canonicalize_records``) live
here, in the one module of the three that imports neither of the others.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import IO, Any, Callable, Dict, List, Optional, Sequence, Union

from repro.errors import ObservabilityError

#: canonical event names emitted by the pipeline (extras are allowed;
#: the report treats unknown events as opaque)
EVENT_NAMES = (
    "sweep_started",
    "sweep_finished",
    "batch_started",
    "batch_finished",
    "batch_aborted",
    "sweep_aborted",
    "cache_hit",
    "cache_miss",
    "run_started",
    "run_finished",
    "worker_error",
    "span",
)

#: filename of the coordinator's merged journal inside a trace dir
JOURNAL_FILENAME = "journal.jsonl"

#: glob pattern of per-worker partial journals awaiting merge
WORKER_GLOB = "worker-*.jsonl"

#: flag file inside a trace dir requesting a cooperative sweep abort;
#: the coordinator polls it between item completions (see
#: :class:`repro.harness.executor.FileCancelToken`), and external
#: watchers (``greenenvy obs watch --abort-on-drift``) create it
ABORT_FILENAME = "abort.requested"

#: event fields that are diagnostic (wall clock / process identity) and
#: therefore excluded from determinism comparisons
VOLATILE_FIELDS = frozenset({"t_wall", "worker", "wall_s", "events_per_s"})


def wall_clock() -> float:
    """Wall-clock timestamp for journal events.

    Isolated here so the determinism lint rule is suppressed exactly
    once: journal timestamps are diagnostics and never reach results.
    """
    return time.time()  # simlint: ignore[det-wall-clock] -- journal timestamps are diagnostics, never results


def perf_clock() -> float:
    """Monotonic wall clock for span durations (same isolation)."""
    return time.perf_counter()  # simlint: ignore[det-wall-clock] -- span timing is diagnostics, never results


def worker_id() -> int:
    """The emitting process id, recorded on every journal event.

    Diagnostic only: it answers "which worker ran this" in a trace but
    must never reach a cache key, a seed, or a measurement (that is what
    ``det-process-identity`` polices everywhere else).
    """
    return os.getpid()  # simlint: ignore[det-process-identity] -- journal diagnostics, never in results


class JournalWriter:
    """Append-only JSONL writer, one line per event, flushed eagerly.

    Eager flushing means a crashed worker still leaves every completed
    event on disk — exactly the runs you want to see when a sweep dies.
    """

    def __init__(self, path: Union[str, Path], worker: Optional[int] = None):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.worker = worker_id() if worker is None else worker
        self._file: Optional[IO[str]] = self.path.open("a", encoding="utf-8")
        self.events_written = 0

    def write(self, event: str, **fields: Any) -> Dict[str, Any]:
        """Append one event; returns the record as written."""
        if self._file is None:
            raise ObservabilityError(f"journal {self.path} is closed")
        record: Dict[str, Any] = {
            "event": event,
            "t_wall": wall_clock(),
            "worker": self.worker,
        }
        record.update(fields)
        self._file.write(json.dumps(record, sort_keys=True) + "\n")
        self._file.flush()
        self.events_written += 1
        return record

    def write_record(self, record: Dict[str, Any]) -> None:
        """Append an already-built record verbatim (used by the merge)."""
        if self._file is None:
            raise ObservabilityError(f"journal {self.path} is closed")
        self._file.write(json.dumps(record, sort_keys=True) + "\n")
        self._file.flush()

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None

    def __enter__(self) -> "JournalWriter":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def trace_file(target: Union[str, Path], filename: str) -> Path:
    """Resolve a ``.jsonl`` file argument, or a trace dir to its ``filename``."""
    path = Path(target)
    return path / filename if path.is_dir() else path


def journal_path(target: Union[str, Path]) -> Path:
    """Resolve a journal argument: a ``.jsonl`` file or a trace dir."""
    return trace_file(target, JOURNAL_FILENAME)


def read_journal(path: Union[str, Path]) -> List[Dict[str, Any]]:
    """Parse a JSONL journal (or trace directory) into event dicts.

    Safe to call while a sweep is still writing: the writer appends
    each record plus its newline in a single buffered write, so a final
    line with no terminating newline is a write in progress — it is
    skipped, not an error. A *terminated* line that fails to parse
    still raises :class:`ObservabilityError` with its location, because
    that means corruption rather than tailing.
    """
    resolved = journal_path(path)
    if not resolved.exists():
        raise ObservabilityError(f"no journal at {resolved}")
    events: List[Dict[str, Any]] = []
    with resolved.open("r", encoding="utf-8") as handle:
        raw_lines = handle.readlines()
    for lineno, raw in enumerate(raw_lines, start=1):
        if lineno == len(raw_lines) and not raw.endswith("\n"):
            # Torn tail: a concurrent writer has not committed this
            # record yet (even if the fragment happens to parse, its
            # trailing fields could still be mid-write). Skip it.
            break
        line = raw.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except ValueError as exc:
            raise ObservabilityError(
                f"{resolved}:{lineno}: bad journal line: {exc}"
            ) from exc
        if not isinstance(record, dict) or "event" not in record:
            raise ObservabilityError(
                f"{resolved}:{lineno}: journal record lacks an 'event'"
            )
        events.append(record)
    return events


def read_records(
    resolved: Path, kind: str, required: Sequence[str]
) -> List[Dict[str, Any]]:
    """Parse a JSONL file of ``kind`` records, each with every ``required`` field."""
    if not resolved.exists():
        raise ObservabilityError(f"no {kind} at {resolved}")
    records: List[Dict[str, Any]] = []
    with resolved.open("r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError as exc:
                raise ObservabilityError(
                    f"{resolved}:{lineno}: bad {kind} line: {exc}"
                ) from exc
            if not isinstance(record, dict) or not all(
                name in record for name in required
            ):
                raise ObservabilityError(
                    f"{resolved}:{lineno}: {kind} record lacks one of "
                    f"{', '.join(required)}"
                )
            records.append(record)
    return records


#: sort key of one record: ``key(position, record)``, where ``position``
#: is the record's index within its own file
MergeKey = Callable[[int, Dict[str, Any]], Any]
RecordReader = Callable[[Path], List[Dict[str, Any]]]


def _sorted_records(
    paths: List[Path], reader: RecordReader, key: MergeKey
) -> List[Dict[str, Any]]:
    """Every record of ``paths`` (in order), stably sorted by ``key``."""
    keyed = [
        (key(position, record), record)
        for path in paths
        for position, record in enumerate(reader(path))
    ]
    keyed.sort(key=lambda pair: pair[0])
    return [record for _key, record in keyed]


def merge_partials(
    trace_dir: Union[str, Path],
    glob: str,
    reader: RecordReader,
    key: MergeKey,
    into: Optional[Any] = None,
    remove_partials: bool = True,
) -> List[Dict[str, Any]]:
    """Merge per-worker partial files of one kind into deterministic order.

    Sorts the records of every ``glob`` match under ``trace_dir`` by
    ``key``, appends them to ``into`` (any writer with ``write_record``)
    when given, deletes the partials unless ``remove_partials`` is
    false, and returns them. The coordinator calls this after each
    batch — also on the error path, so a failed sweep still keeps the
    runs that completed.
    """
    partials = sorted(Path(trace_dir).glob(glob))
    merged = _sorted_records(partials, reader, key)
    if into is not None:
        for record in merged:
            into.write_record(record)
    if remove_partials:
        for path in partials:
            path.unlink()
    return merged


def canonicalize_records(resolved: Path, reader: RecordReader, key: MergeKey) -> int:
    """Sort the closed JSONL file at ``resolved`` by ``key``, in place.

    Serial runs append records in run-completion order while pooled
    runs append merge-sorted batches; sorting the closed file makes the
    two byte-identical, so traces diff cleanly whatever ``jobs=`` was.
    Returns the number of records; a missing file is a no-op (zero).
    """
    if not resolved.exists():
        return 0
    records = _sorted_records([resolved], reader, key)
    resolved.write_text(
        "".join(json.dumps(r, sort_keys=True) + "\n" for r in records),
        encoding="utf-8",
    )
    return len(records)


def _merge_sort_key(position: int, record: Dict[str, Any]):
    # Order by work-item index when present so the merged journal reads
    # in submission order whatever the worker interleaving was; events
    # of one item keep their within-file order (the per-file position
    # tie-break — each item runs entirely inside one worker).
    item = record.get("item")
    return (0 if isinstance(item, int) else 1, item or 0, position)


def merge_worker_journals(
    trace_dir: Union[str, Path],
    into: Optional[JournalWriter] = None,
    remove_partials: bool = True,
) -> List[Dict[str, Any]]:
    """Merge the ``worker-*.jsonl`` partial journals, submission-ordered."""
    return merge_partials(
        trace_dir, WORKER_GLOB, read_journal, _merge_sort_key, into, remove_partials
    )
