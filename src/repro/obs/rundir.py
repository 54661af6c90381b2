"""The run directory: one table of artifacts, one writer, one reader.

Every driver (``repro bench`` / ``trace`` / ``scale`` / ``doctor``) leaves
its evidence in a directory, and every consumer (``repro report`` /
``compare`` / ``health``) reads one back.  This module is the only place
that knows which files such a directory holds: :data:`ARTIFACTS` maps
each artifact *kind* to its file name and its form, either a JSON
payload ``{"schema", "meta", "records"}`` under a schema tag or a JSONL
stream of one record per line.

``trace.json`` is not in the table on purpose: it is a write-only
Perfetto export nothing in the repo reads back.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.obs.atomicio import atomic_write_text
from repro.obs.recorder import validate_health_records

__all__ = [
    "ARTIFACTS",
    "BENCH_SCHEMA",
    "SCALING_SCHEMA",
    "Artifact",
    "artifact_path",
    "check_schema",
    "payload",
    "read_artifact",
    "read_jsonl",
    "read_run_dir",
    "resolve",
    "runlog_meta",
    "write_payload",
]

BENCH_SCHEMA = "repro-bench-v2"
SCALING_SCHEMA = "repro-scaling-v1"


@dataclass(frozen=True)
class Artifact:
    """One row of the run-directory table."""

    kind: str
    filename: str
    #: payload schema tag; None marks a JSONL stream
    schema: Optional[str] = None

    @property
    def family(self) -> Optional[str]:
        """The schema tag without its version (``repro-bench``)."""
        return self.schema.rsplit("-v", 1)[0] if self.schema else None


#: kind -> artifact, in the order drivers write and readers report them
ARTIFACTS: Dict[str, Artifact] = {
    a.kind: a
    for a in (
        Artifact("bench", "BENCH_forces.json", BENCH_SCHEMA),
        Artifact("reordering", "BENCH_reordering.json", BENCH_SCHEMA),
        Artifact("scaling", "scaling.json", SCALING_SCHEMA),
        Artifact("metrics", "metrics.jsonl"),
        Artifact("runlog", "run.jsonl"),
        Artifact("health", "health.jsonl"),
    )
}

Records = List[Dict[str, object]]


def artifact_path(directory, kind: str) -> str:
    """Where a driver writes ``kind`` inside its output directory."""
    return os.path.join(os.fspath(directory), ARTIFACTS[kind].filename)


def resolve(path_or_dir, kind: str) -> str:
    """What a reader was pointed at: a run directory, or the file itself."""
    path = os.fspath(path_or_dir)
    return artifact_path(path, kind) if os.path.isdir(path) else path


def payload(
    kind: str,
    records: Sequence[Mapping[str, object]],
    meta: Mapping[str, object],
) -> Dict[str, object]:
    """The JSON payload of a ``kind`` artifact under its schema tag."""
    return {
        "schema": ARTIFACTS[kind].schema,
        "meta": dict(meta),
        "records": list(records),
    }


def write_payload(path, body: Mapping[str, object]) -> None:
    """Atomically write one payload (tmp file + ``os.replace``)."""
    atomic_write_text(path, json.dumps(body, indent=2, sort_keys=True) + "\n")


def check_schema(body: Mapping[str, object], kind: str, where: str = "") -> None:
    """Raise ``ValueError`` unless ``body`` is of ``kind``'s schema family."""
    family = ARTIFACTS[kind].family
    schema = str(body.get("schema", ""))
    if not schema.startswith(f"{family}-v"):
        prefix = f"{where}: " if where else ""
        raise ValueError(
            f"{prefix}not a {family} payload (schema {schema!r})"
        )


def read_jsonl(path) -> Records:
    """Every record of a JSONL stream; a bad line is named, not raised bare.

    A run killed mid-write or a hand-copied file can end in half a
    line: that surfaces as ``ValueError("<path>:<line>: ...")``.
    """
    path = os.fspath(path)
    records: Records = []
    with open(path, "r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{number}: {exc.msg}") from None
            if not isinstance(record, dict):
                raise ValueError(f"{path}:{number}: not a JSON object")
            records.append(record)
    return records


def runlog_meta(records: Sequence[Mapping[str, object]]) -> Dict[str, object]:
    """The environment block a run log opens with (its ``meta`` record)."""
    for record in records:
        if record.get("kind") == "meta":
            return {k: v for k, v in record.items() if k not in ("kind", "t")}
    return {}


def read_artifact(path_or_dir, kind: str) -> Tuple[Dict[str, object], Records]:
    """Read and check one artifact; returns ``(meta, records)``.

    ``meta`` is the environment block the artifact carries (a payload's
    ``meta``, a run log's ``meta`` record, else empty); ``records`` is
    the payload's record list or every line of the stream.  Payloads
    are checked against their schema family, health streams through
    :func:`~repro.obs.recorder.validate_health_records`.  A missing
    file raises ``FileNotFoundError``; anything unreadable raises
    ``ValueError`` naming the file (and line).
    """
    path = resolve(path_or_dir, kind)
    if not os.path.exists(path):
        if kind == "runlog" and os.path.exists(path + ".tmp"):
            raise ValueError(
                f"{path}: run did not close its log ({path}.tmp is still there)"
            )
        raise FileNotFoundError(path)
    if ARTIFACTS[kind].schema is None:
        records = read_jsonl(path)
        if kind == "health":
            try:
                validate_health_records(records)
            except ValueError as exc:
                raise ValueError(f"{path}: {exc}") from None
        return (runlog_meta(records) if kind == "runlog" else {}), records
    with open(path, "r", encoding="utf-8") as handle:
        try:
            body = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}:{exc.lineno}: {exc.msg}") from None
    if not isinstance(body, dict):
        raise ValueError(f"{path}: not a JSON object")
    check_schema(body, kind, where=path)
    return dict(body.get("meta", {})), list(body.get("records", []))


def read_run_dir(
    directory,
) -> Dict[str, Tuple[Dict[str, object], Records]]:
    """Every artifact ``directory`` holds: kind -> ``(meta, records)``."""
    found: Dict[str, Tuple[Dict[str, object], Records]] = {}
    for kind in ARTIFACTS:
        try:
            found[kind] = read_artifact(directory, kind)
        except FileNotFoundError:
            continue
    return found
