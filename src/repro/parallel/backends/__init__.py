"""Real execution backends for strategy task closures."""

from repro.parallel.backends.base import BackendError, ExecutionBackend
from repro.parallel.backends.serial import SerialBackend
from repro.parallel.backends.sharded import (
    ShardedSDCCalculator,
    ShardGrid,
    make_shard_grid,
)
from repro.parallel.backends.threads import ThreadBackend

__all__ = [
    "BackendError",
    "ExecutionBackend",
    "SerialBackend",
    "ShardGrid",
    "ShardedSDCCalculator",
    "ThreadBackend",
    "make_shard_grid",
]
