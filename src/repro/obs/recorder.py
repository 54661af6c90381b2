"""The flight recorder: a bounded in-memory ring of structured health events.

Every runtime subsystem (the persistent process engine, the kernel-tier
registry, the SDC scheduler, the physics invariant monitors, the observer
fan-out) feeds one process-global :class:`FlightRecorder`.  The recorder
is *always on* and deliberately tiny:

* events land in a ``collections.deque`` ring (default
  :data:`DEFAULT_CAPACITY` slots) — recording is an O(1) append under a
  lock, old events fall off the back, and total/evicted counts survive
  eviction so a summary never under-reports;
* nothing is written to disk until someone asks: :meth:`FlightRecorder.dump`
  emits the ring as an atomic JSONL artifact (``health.jsonl``), and
  :func:`install_excepthook` arranges the same dump on an uncaught
  exception so a crashed run still leaves its last events behind;
* severities are ordered (:data:`SEVERITIES`); categories are an open
  set, with the canonical producers listed in :data:`CATEGORIES`.

The *overhead contract* (DESIGN.md §7.3): with the recorder enabled, a
steady-state MD step records no events at all — subsystems emit only on
state *changes* (pool restarts, arena resizes, a kernel-tier fallback,
invariant threshold crossings, neighbor rebuilds), so the hot path pays
nothing beyond the checks it already performs.  The ``slow`` suite
asserts the end-to-end cost on the medium case stays within 2% of a
recorder-disabled run.

The module-level :func:`record` / :func:`get_recorder` / :func:`count`
helpers operate on the process-global recorder; pass an explicit
:class:`FlightRecorder` for isolated use (tests, the doctor harness).
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import (
    Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple
)

from repro.obs.atomicio import atomic_write_text

__all__ = [
    "CATEGORIES",
    "DEFAULT_CAPACITY",
    "HEALTH_SCHEMA_VERSION",
    "SEVERITIES",
    "FlightRecorder",
    "HealthEvent",
    "count",
    "get_recorder",
    "health_digest",
    "install_excepthook",
    "read_health_jsonl",
    "record",
    "recording_disabled",
    "set_recorder",
    "severity_rank",
    "uninstall_excepthook",
    "validate_health_records",
]

#: bump when the health.jsonl record layout changes incompatibly
HEALTH_SCHEMA_VERSION = 1

#: ring slots of the default process-global recorder (overridable via
#: the ``REPRO_HEALTH_CAPACITY`` environment variable)
DEFAULT_CAPACITY = 4096

ENV_CAPACITY = "REPRO_HEALTH_CAPACITY"

#: ordered severities, least to most urgent
SEVERITIES = ("debug", "info", "warning", "critical")

#: canonical event categories (an open set — these are the producers
#: wired in today; see DESIGN.md §7.3 for the taxonomy)
CATEGORIES = (
    "engine",  # process-backend lifecycle: pool, workers, arena
    "kernel",  # kernel-tier resolution: the C tier's fallback
    "scheduler",  # decomposition cache, neighbor rebuilds, fusion
    "physics",  # invariant monitors: drift, momentum, force sum, pressure
    "observer",  # observer fan-out failures
    "doctor",  # self-check findings
    "process",  # interpreter-level events (uncaught exceptions)
    "resources",  # /proc sampler digests: RSS, CPU%, ctx switches, shm
)

_SEVERITY_RANK = {name: rank for rank, name in enumerate(SEVERITIES)}


def severity_rank(severity: str) -> int:
    """Ordinal of a severity (unknown severities rank as ``info``)."""
    return _SEVERITY_RANK.get(severity, _SEVERITY_RANK["info"])


@dataclass(frozen=True)
class HealthEvent:
    """One structured health event.

    ``t`` is ``time.perf_counter()`` — the repo-wide trace clock, so
    health events interleave meaningfully with run-log records and trace
    spans of the same process.
    """

    t: float
    category: str
    event: str
    severity: str = "info"
    fields: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        """The ``kind: "health"`` JSONL record layout."""
        record: Dict[str, object] = {
            "kind": "health",
            "t": self.t,
            "category": self.category,
            "event": self.event,
            "severity": self.severity,
        }
        for key, value in self.fields.items():
            if key not in record:
                record[key] = value
        return record


class FlightRecorder:
    """Bounded, thread-safe ring buffer of :class:`HealthEvent` records.

    Recording never raises and never blocks beyond a short lock hold;
    once the ring is full the oldest events are evicted (their counts
    survive in :meth:`counts`).  ``enabled=False`` turns :meth:`record`
    and :meth:`count` into near-free no-ops — the comparison point for
    the overhead contract.
    """

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.enabled = True
        self._clock = clock
        self._lock = threading.Lock()
        self._ring: deque = deque(maxlen=capacity)
        self._totals: Dict[Tuple[str, str], int] = {}
        self._counters: Dict[str, int] = {}
        self._n_recorded = 0

    # --- recording -------------------------------------------------------------

    def record(
        self,
        category: str,
        event: str,
        severity: str = "info",
        **fields: object,
    ) -> Optional[HealthEvent]:
        """Append one event; returns it (None when recording is disabled).

        Unknown severities are rejected (a dump containing one would
        fail its own schema validation); categories are an open set.
        """
        if not self.enabled:
            return None
        if severity not in _SEVERITY_RANK:
            raise ValueError(
                f"unknown severity {severity!r} (choose from {SEVERITIES})"
            )
        item = HealthEvent(
            t=self._clock(),
            category=category,
            event=event,
            severity=severity,
            fields=fields,
        )
        key = (category, severity)
        with self._lock:
            self._ring.append(item)
            self._totals[key] = self._totals.get(key, 0) + 1
            self._n_recorded += 1
        return item

    def count(self, name: str, n: int = 1) -> None:
        """Bump a named counter without creating an event.

        This is the hot-path-safe primitive (dispatch counts, observer
        failure totals): one lock hold and one dict increment, no object
        construction, nothing in the ring.
        """
        if not self.enabled:
            return
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + n

    # --- reading ---------------------------------------------------------------

    def events(
        self,
        category: Optional[str] = None,
        min_severity: str = "debug",
    ) -> List[HealthEvent]:
        """Snapshot of the ring, optionally filtered."""
        floor = severity_rank(min_severity)
        with self._lock:
            items = list(self._ring)
        return [
            e
            for e in items
            if (category is None or e.category == category)
            and severity_rank(e.severity) >= floor
        ]

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)

    @property
    def n_recorded(self) -> int:
        """Total events ever recorded (including evicted ones)."""
        with self._lock:
            return self._n_recorded

    @property
    def n_dropped(self) -> int:
        """Events evicted from the ring since creation/clear."""
        with self._lock:
            return self._n_recorded - len(self._ring)

    def counts(self) -> Dict[str, int]:
        """Totals per ``category/severity`` plus the named counters.

        Totals include evicted events — this is the summary surface the
        snapshot API and the report panel read.
        """
        with self._lock:
            out = {
                f"{category}/{severity}": n
                for (category, severity), n in self._totals.items()
            }
            out.update(self._counters)
        return out

    def worst_severity(self) -> Optional[str]:
        """Highest severity ever recorded (None when empty)."""
        with self._lock:
            keys = list(self._totals)
        if not keys:
            return None
        return max((s for _, s in keys), key=severity_rank)

    def snapshot(self) -> Dict[str, object]:
        """Summary dict: counts, bounds, and the last warning+ events."""
        notable = [
            e.to_dict() for e in self.events(min_severity="warning")[-8:]
        ]
        return {
            "capacity": self.capacity,
            "enabled": self.enabled,
            "n_recorded": self.n_recorded,
            "n_dropped": self.n_dropped,
            "worst_severity": self.worst_severity(),
            "counts": self.counts(),
            "notable": notable,
        }

    def clear(self) -> None:
        """Drop all events, totals, and counters."""
        with self._lock:
            self._ring.clear()
            self._totals.clear()
            self._counters.clear()
            self._n_recorded = 0

    # --- persistence -----------------------------------------------------------

    def dump(self, path) -> str:
        """Write the ring as an atomic ``health.jsonl`` artifact.

        The first line is the ``health-meta`` header (schema version,
        ring bounds, counters); every following line is one
        ``kind: "health"`` event record, oldest first.
        """
        lines = [json.dumps(self.meta_record(), sort_keys=True, default=str)]
        for event in self.events():
            lines.append(
                json.dumps(event.to_dict(), sort_keys=True, default=str)
            )
        atomic_write_text(path, "\n".join(lines) + "\n")
        return os.fspath(path)

    def meta_record(self) -> Dict[str, object]:
        """The ``health-meta`` header record of a dump."""
        return {
            "kind": "health-meta",
            "schema_version": HEALTH_SCHEMA_VERSION,
            "t": self._clock(),
            "capacity": self.capacity,
            "n_recorded": self.n_recorded,
            "n_dropped": self.n_dropped,
            "counts": self.counts(),
        }

    def records(self) -> List[Dict[str, object]]:
        """Header + event dicts, the in-memory equivalent of a dump."""
        return [self.meta_record()] + [e.to_dict() for e in self.events()]


# --- the process-global recorder ------------------------------------------------

_GLOBAL: Optional[FlightRecorder] = None
_GLOBAL_LOCK = threading.Lock()


def get_recorder() -> FlightRecorder:
    """The process-global recorder, created lazily on first use."""
    global _GLOBAL
    if _GLOBAL is None:
        with _GLOBAL_LOCK:
            if _GLOBAL is None:
                try:
                    capacity = int(
                        os.environ.get(ENV_CAPACITY, "") or DEFAULT_CAPACITY
                    )
                except ValueError:
                    capacity = DEFAULT_CAPACITY
                _GLOBAL = FlightRecorder(capacity=max(1, capacity))
    return _GLOBAL


def set_recorder(recorder: Optional[FlightRecorder]) -> Optional[FlightRecorder]:
    """Swap the process-global recorder; returns the previous one.

    ``None`` resets to a lazily re-created default (test isolation).
    """
    global _GLOBAL
    with _GLOBAL_LOCK:
        previous, _GLOBAL = _GLOBAL, recorder
    return previous


def record(
    category: str, event: str, severity: str = "info", **fields: object
) -> Optional[HealthEvent]:
    """Record on the process-global recorder (never raises)."""
    try:
        return get_recorder().record(category, event, severity, **fields)
    except Exception:  # pragma: no cover - recording must never crash a run
        return None


def count(name: str, n: int = 1) -> None:
    """Bump a named counter on the process-global recorder."""
    try:
        get_recorder().count(name, n)
    except Exception:  # pragma: no cover - recording must never crash a run
        pass


class recording_disabled:
    """Context manager: temporarily disable the global recorder.

    The comparison arm of the overhead measurement, and a way for tests
    to silence instrumented code paths.
    """

    def __enter__(self) -> "recording_disabled":
        self._recorder = get_recorder()
        self._previous = self._recorder.enabled
        self._recorder.enabled = False
        return self

    def __exit__(self, *exc: object) -> None:
        self._recorder.enabled = self._previous


# --- crash dump hook ------------------------------------------------------------

_HOOK_STATE: Dict[str, object] = {}


def install_excepthook(
    path, recorder: Optional[FlightRecorder] = None
) -> None:
    """Dump ``path`` (health.jsonl) when an uncaught exception escapes.

    Chains to the previously installed ``sys.excepthook`` so tracebacks
    still print.  Idempotent: re-installing replaces the dump target.
    """
    uninstall_excepthook()
    previous = sys.excepthook

    def hook(exc_type, exc, tb):
        target = recorder if recorder is not None else get_recorder()
        try:
            target.record(
                "process",
                "uncaught-exception",
                severity="critical",
                exc_type=getattr(exc_type, "__name__", str(exc_type)),
                message=str(exc),
            )
            target.dump(path)
        except Exception:  # pragma: no cover - the dump must not mask the crash
            pass
        previous(exc_type, exc, tb)

    _HOOK_STATE["previous"] = previous
    _HOOK_STATE["hook"] = hook
    sys.excepthook = hook


def uninstall_excepthook() -> None:
    """Restore the pre-install ``sys.excepthook`` (idempotent)."""
    hook = _HOOK_STATE.pop("hook", None)
    previous = _HOOK_STATE.pop("previous", None)
    if hook is not None and sys.excepthook is hook and previous is not None:
        sys.excepthook = previous


# --- reading dumps back ---------------------------------------------------------


def read_health_jsonl(
    path,
) -> Tuple[Dict[str, object], List[Dict[str, object]]]:
    """Parse a ``health.jsonl`` dump into ``(meta, events)``.

    Validates the stream (:func:`validate_health_records`) so a reader
    fails loudly on an incompatible or truncated artifact.
    """
    from repro.obs.rundir import read_jsonl

    return validate_health_records(read_jsonl(path))


def validate_health_records(
    records: Iterable[Mapping[str, object]],
) -> Tuple[Dict[str, object], List[Dict[str, object]]]:
    """Check a health record stream; returns ``(meta, events)``.

    Raises ``ValueError`` on a missing/incompatible header or a
    malformed event record — the contract the CI health-smoke job
    asserts.
    """
    records = [dict(r) for r in records]
    if not records or records[0].get("kind") != "health-meta":
        raise ValueError("health stream must start with a health-meta record")
    meta = records[0]
    version = meta.get("schema_version")
    if version != HEALTH_SCHEMA_VERSION:
        raise ValueError(
            f"unsupported health schema_version {version!r} "
            f"(expected {HEALTH_SCHEMA_VERSION})"
        )
    events: List[Dict[str, object]] = []
    for record_ in records[1:]:
        if record_.get("kind") != "health":
            raise ValueError(f"unexpected record kind {record_.get('kind')!r}")
        for key in ("t", "category", "event", "severity"):
            if key not in record_:
                raise ValueError(f"health event missing {key!r}: {record_}")
        if record_["severity"] not in SEVERITIES:
            raise ValueError(
                f"unknown severity {record_['severity']!r}: {record_}"
            )
        events.append(record_)
    return meta, events


def health_digest(
    records: Sequence[Mapping[str, object]],
) -> Dict[str, object]:
    """What a reader says about a health stream (header + events).

    The one join behind ``repro health`` and the report's health panel:
    the header's bounds and integer counters, the worst severity among
    the events still in the ring, and the warning-or-worse events with
    their extra fields folded into a ``detail`` string.
    """
    meta = next((r for r in records if r.get("kind") == "health-meta"), {})
    events = [r for r in records if r.get("kind") == "health"]
    severities = [str(e.get("severity", "info")) for e in events]
    counts = meta.get("counts")
    if not isinstance(counts, Mapping):
        counts = {}
    notable = [
        {
            **e,
            "detail": ", ".join(
                f"{k}={v}"
                for k, v in sorted(e.items())
                if k not in ("kind", "t", "category", "event", "severity")
            ),
        }
        for e, severity in zip(events, severities)
        if severity_rank(severity) >= _SEVERITY_RANK["warning"]
    ]
    return {
        "n_events": len(events),
        "n_recorded": meta.get("n_recorded", 0),
        "n_dropped": meta.get("n_dropped", 0),
        "counts": {
            k: v for k, v in sorted(counts.items()) if isinstance(v, int)
        },
        "worst": max(severities, key=severity_rank, default="info"),
        "notable": notable,
    }
