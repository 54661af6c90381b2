"""Atomic file writes: tmp file in the target directory + ``os.replace``.

Every exporter in the observability layer (``trace.json``,
``metrics.jsonl``, ``run.jsonl``, ``BENCH_*.json`` and ``report.html``)
funnels through these helpers so an interrupted run can
never leave a truncated artifact at the final path: readers either see
the previous complete file or the new complete file, never a partial
write.  The tmp file lives next to the target (same filesystem) so the
final ``os.replace`` is a single atomic rename.
"""

from __future__ import annotations

import os
import tempfile
from contextlib import contextmanager
from typing import Iterator, TextIO

__all__ = ["atomic_write", "atomic_write_text"]


@contextmanager
def atomic_write(path, encoding: str = "utf-8") -> Iterator[TextIO]:
    """Open a tmp file for writing; rename it over ``path`` on success.

    On any exception inside the block the tmp file is removed and the
    target is left untouched (previous content, or still absent).
    """
    target = os.fspath(path)
    directory = os.path.dirname(target) or "."
    fd, tmp = tempfile.mkstemp(
        prefix=os.path.basename(target) + ".", suffix=".tmp", dir=directory
    )
    handle = os.fdopen(fd, "w", encoding=encoding)
    try:
        yield handle
        handle.flush()
        os.fsync(handle.fileno())
        handle.close()
        os.replace(tmp, target)
    except BaseException:
        handle.close()
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_text(path, text: str, encoding: str = "utf-8") -> None:
    """Atomically replace ``path`` with ``text``."""
    with atomic_write(path, encoding=encoding) as handle:
        handle.write(text)
