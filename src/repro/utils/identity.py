"""Cache keys by object identity that survive ``id()`` reuse."""

from __future__ import annotations

import weakref
from typing import Optional


class IdentityKey:
    """Remembers which object a cache was built for, without owning it.

    ``id(obj)`` is only unique among *live* objects: once the caller
    drops a neighbor list, the next one can be allocated at the same
    address and a cache keyed on the bare id serves the stale entry.  A
    weak reference cannot be fooled that way — it goes dead with its
    referent — and it does not extend the referent's lifetime.
    """

    __slots__ = ("_ref",)

    def __init__(self) -> None:
        self._ref: Optional[weakref.ref] = None

    def set(self, obj: object) -> None:
        self._ref = weakref.ref(obj)

    def clear(self) -> None:
        self._ref = None

    def matches(self, obj: object) -> bool:
        """True only for the very object last passed to :meth:`set`."""
        return self._ref is not None and self._ref() is obj
