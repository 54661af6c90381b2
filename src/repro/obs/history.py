"""Performance history: an append-only store of run artifacts over time.

The artifacts of a run directory (:mod:`repro.obs.rundir`) each describe
one invocation; the :class:`RunStore` strings them into a trajectory.
Every ingested artifact becomes one JSONL line (a :class:`HistoryEntry`)
in the store file (default ``.repro/history.jsonl``), carrying:

* a monotonically increasing ``seq`` number (append order);
* the ``kind`` discriminator — the artifact's kind in the run-directory
  table (``bench`` / ``reordering`` / ``scaling`` / ``metrics`` /
  ``runlog`` / ``health``);
* the run's ``meta`` environment block (hostname, git SHA, thread count,
  Python/NumPy versions) preserved verbatim;
* the artifact's records.

Bench records are addressable by :class:`RunKey` — (git SHA, case,
strategy, backend, n_workers) — which is what the regression gate
(:mod:`repro.obs.regress`) and the trend panels of the HTML report
(:mod:`repro.obs.report`) join on.

Appends are atomic (:func:`repro.obs.atomicio.atomic_append_text`): an
interrupted ingest leaves the store at its previous complete state.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.obs.atomicio import atomic_append_text
from repro.obs.rundir import (
    ARTIFACTS,
    check_schema,
    read_jsonl,
    read_run_dir,
    runlog_meta,
)

__all__ = [
    "HISTORY_SCHEMA",
    "DEFAULT_STORE_PATH",
    "HistoryEntry",
    "RunKey",
    "RunStore",
    "bench_cells",
    "bench_series",
]

HISTORY_SCHEMA = "repro-history-v1"

#: default store location, relative to the working directory
DEFAULT_STORE_PATH = os.path.join(".repro", "history.jsonl")


@dataclass(frozen=True)
class RunKey:
    """The identity of one bench measurement series.

    Two records with equal keys are the *same* measurement repeated over
    time (possibly at different commits — drop ``git_sha`` via
    :meth:`series` to follow one cell across history).
    """

    git_sha: Optional[str]
    case: str
    strategy: str
    backend: str
    n_workers: int
    #: resolved kernel tier; pre-tier records default to "numpy" (the
    #: only tier that existed when they were written)
    kernel_tier: str = "numpy"

    def series(self) -> Tuple[str, str, str, int, str]:
        """The commit-independent part (case, strategy, backend, workers,
        kernel tier)."""
        return (
            self.case,
            self.strategy,
            self.backend,
            self.n_workers,
            self.kernel_tier,
        )


@dataclass
class HistoryEntry:
    """One ingested artifact: meta block + its records."""

    seq: int
    kind: str
    source: str
    meta: Dict[str, object] = field(default_factory=dict)
    records: List[Dict[str, object]] = field(default_factory=list)

    @property
    def git_sha(self) -> Optional[str]:
        sha = self.meta.get("git_sha")
        return sha if isinstance(sha, str) else None

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema": HISTORY_SCHEMA,
            "seq": self.seq,
            "kind": self.kind,
            "source": self.source,
            "meta": self.meta,
            "records": self.records,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "HistoryEntry":
        schema = payload.get("schema")
        if schema != HISTORY_SCHEMA:
            raise ValueError(
                f"unsupported history schema {schema!r} "
                f"(expected {HISTORY_SCHEMA!r})"
            )
        return cls(
            seq=int(payload["seq"]),  # type: ignore[arg-type]
            kind=str(payload["kind"]),
            source=str(payload.get("source", "")),
            meta=dict(payload.get("meta", {})),  # type: ignore[arg-type]
            records=list(payload.get("records", [])),  # type: ignore[arg-type]
        )


def bench_cells(
    entry: HistoryEntry,
) -> Dict[Tuple[RunKey, str], Dict[str, object]]:
    """Index a bench entry's records by (RunKey, phase).

    Records without the sweep-cell fields (e.g. the reordering summary
    line) are skipped.
    """
    sha = entry.git_sha
    cells: Dict[Tuple[RunKey, str], Dict[str, object]] = {}
    for record in entry.records:
        try:
            key = RunKey(
                git_sha=sha,
                case=str(record["case"]),
                strategy=str(record["strategy"]),
                backend=str(record["backend"]),
                n_workers=int(record["n_workers"]),  # type: ignore[arg-type]
                kernel_tier=str(record.get("kernel_tier", "numpy")),
            )
            phase = str(record["phase"])
        except (KeyError, TypeError, ValueError):
            continue
        cells[(key, phase)] = record
    return cells


def bench_series(
    entries: Sequence[HistoryEntry],
) -> Dict[
    Tuple[str, str, str, int, str], List[Tuple[int, Dict[str, object]]]
]:
    """Per-cell ``total``-phase trajectory across ``entries``.

    Maps (case, strategy, backend, n_workers, kernel_tier) to the
    time-ordered ``(seq, record)`` list — the data behind the trend
    sparklines.
    """
    out: Dict[
        Tuple[str, str, str, int, str], List[Tuple[int, Dict[str, object]]]
    ] = {}
    for entry in entries:
        for (key, phase), record in bench_cells(entry).items():
            if phase == "total":
                out.setdefault(key.series(), []).append((entry.seq, record))
    return out


class RunStore:
    """Append-only JSONL history of ingested run artifacts.

    The store file is created lazily on first append; reads of a missing
    store return no entries (an empty trajectory, not an error).
    """

    def __init__(self, path=DEFAULT_STORE_PATH) -> None:
        self._path = os.fspath(path)

    @property
    def path(self) -> str:
        return self._path

    # --- reading ---------------------------------------------------------------

    def entries(self, kind: Optional[str] = None) -> List[HistoryEntry]:
        """All stored entries in append order, optionally one kind only."""
        if not os.path.exists(self._path):
            return []
        return [
            entry
            for entry in map(HistoryEntry.from_dict, read_jsonl(self._path))
            if kind is None or entry.kind == kind
        ]

    def __len__(self) -> int:
        return len(self.entries())

    def latest(self, kind: str) -> Optional[HistoryEntry]:
        """The most recently appended entry of ``kind`` (None if none)."""
        found = self.entries(kind)
        return found[-1] if found else None

    def baseline_bench(
        self, exclude_seq: Optional[int] = None
    ) -> Optional[HistoryEntry]:
        """The latest bench entry usable as a comparison baseline.

        ``exclude_seq`` skips the candidate's own entry when it was
        already ingested into the same store.
        """
        for entry in reversed(self.entries("bench")):
            if exclude_seq is not None and entry.seq == exclude_seq:
                continue
            return entry
        return None

    def series(
        self, kind: str = "bench"
    ) -> Dict[
        Tuple[str, str, str, int, str], List[Tuple[int, Dict[str, object]]]
    ]:
        """:func:`bench_series` over the whole store."""
        return bench_series(self.entries(kind))

    # --- appending -------------------------------------------------------------

    def _next_seq(self) -> int:
        existing = self.entries()
        return existing[-1].seq + 1 if existing else 0

    def _append(self, entry: HistoryEntry) -> HistoryEntry:
        directory = os.path.dirname(self._path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        atomic_append_text(
            self._path,
            json.dumps(entry.to_dict(), sort_keys=True, default=str) + "\n",
        )
        return entry

    def append_records(
        self,
        kind: str,
        records: Sequence[Mapping[str, object]],
        meta: Optional[Mapping[str, object]] = None,
        source: Optional[str] = None,
    ) -> HistoryEntry:
        """Ingest one artifact's records under ``kind``.

        ``source`` defaults to the run-directory file name of ``kind``;
        a run log without an explicit ``meta`` contributes its own
        ``meta`` record.
        """
        stored = [dict(r) for r in records]
        meta_block = dict(meta) if meta is not None else {}
        if kind == "runlog" and not meta_block:
            meta_block = runlog_meta(stored)
        if source is None:
            source = ARTIFACTS[kind].filename if kind in ARTIFACTS else ""
        return self._append(
            HistoryEntry(
                seq=self._next_seq(),
                kind=kind,
                source=source,
                meta=meta_block,
                records=stored,
            )
        )

    def append_bench(
        self,
        payload: Mapping[str, object],
        source: Optional[str] = None,
        kind: str = "bench",
    ) -> HistoryEntry:
        """Ingest one ``repro-bench`` payload (meta block preserved)."""
        check_schema(payload, kind)
        return self.append_records(
            kind,
            payload.get("records", []),  # type: ignore[arg-type]
            meta=payload.get("meta", {}),  # type: ignore[arg-type]
            source=source,
        )

    def ingest_dir(self, directory) -> List[HistoryEntry]:
        """Ingest every artifact :func:`~repro.obs.rundir.read_run_dir`
        finds in ``directory``, in table order; returns the appended
        entries (possibly empty)."""
        return [
            self.append_records(kind, records, meta=meta)
            for kind, (meta, records) in read_run_dir(directory).items()
        ]
