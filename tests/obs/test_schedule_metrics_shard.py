"""The shard dimension's absence on schedule metrics.

The sharded engine's per-shard gauges (``shard=<id>``) come from its own
``halo_stats()`` in ``harness/tracing.py``; ``record_schedule_metrics``
describes one unsharded decomposition.  This pins the compatibility
contract: its records carry exactly the pre-shard keys in the JSONL
serialization, so history rows written before the shard dimension
existed keep parsing and comparing cleanly, and ``repro report`` keys
them by the bare run.
"""

from __future__ import annotations

import json

import pytest

from repro.core.coloring import lattice_coloring
from repro.core.domain import decompose_balanced
from repro.core.partition import build_pair_partition, build_partition
from repro.core.schedule import build_schedule
from repro.obs.metrics import MetricsRegistry, record_schedule_metrics


@pytest.fixture(scope="module")
def pairs_and_schedule(potential, sdc_atoms, sdc_nlist):
    reach = sdc_nlist.cutoff + sdc_nlist.skin
    grid = decompose_balanced(sdc_atoms.box, reach, 2, 2)
    partition = build_partition(
        sdc_atoms.box.wrap(sdc_atoms.positions), grid
    )
    pairs = build_pair_partition(partition, sdc_nlist)
    schedule = build_schedule(lattice_coloring(grid))
    return pairs, schedule


class TestShardDimension:
    def test_default_shape_is_byte_identical(self, pairs_and_schedule):
        """Unsharded records serialize with the pre-shard key set only."""
        pairs, schedule = pairs_and_schedule
        registry = MetricsRegistry()
        record_schedule_metrics(registry, pairs, schedule, run="cell")
        lines = registry.to_jsonl().splitlines()
        assert lines, "schedule metrics must emit records"
        base = {"metric", "kind", "value", "run"}
        for line in lines:
            record = json.loads(line)
            assert "shard" not in record
            extra = {"color", "n_subdomains"}
            assert base <= set(record) <= base | extra
