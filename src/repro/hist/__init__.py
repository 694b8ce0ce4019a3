"""Columnar, time-partitioned telemetry store — the deployment's DSOS.

The paper's DataGenerator reads DSOS; here :class:`HistStore` serves that
ingest/query surface, built for millions-of-rows history: immutable
mmap-read segments with zone maps, typed cumulative/delta/gauge meters
driving compression and downsampling, and retention tiers.  Its queries
are bit-identical to the legacy in-process store kept as the parity oracle
(``tests/oracles/dsos.py``).  See DESIGN.md "Historical store".
"""

from repro.hist.feeds import dashboard_rollup
from repro.hist.meters import CUMULATIVE, DELTA, GAUGE, resolve_meters
from repro.hist.retention import RetentionPolicy, TIER_RAW, TIERS
from repro.hist.segment import Segment, write_segment
from repro.hist.store import HistContainer, HistStore, Schema

__all__ = [
    "CUMULATIVE",
    "DELTA",
    "GAUGE",
    "HistContainer",
    "HistStore",
    "RetentionPolicy",
    "Schema",
    "Segment",
    "TIERS",
    "TIER_RAW",
    "dashboard_rollup",
    "resolve_meters",
    "write_segment",
]
