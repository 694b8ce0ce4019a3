"""Per-node telemetry ring buffer for the streaming hot path.

The legacy ``StreamingDetector`` buffered each node's telemetry as a
*list of chunk arrays* and rebuilt the evaluation window on every due
evaluation with ``np.concatenate`` + ``np.vstack`` + a boolean age mask —
O(buffered) allocation and copy per window.  :class:`NodeRingBuffer`
replaces that with one preallocated ``(capacity, M)`` float64 block and a
matching ``(capacity,)`` timestamp vector, written with wraparound:

* **append** is a vectorised scatter of the chunk rows (the buffer grows
  geometrically and re-linearises only when a window outgrows capacity);
* **evict** is a pointer advance over the aged-out prefix;
* **window materialisation** is a zero-copy slice while the live region
  is contiguous and a single two-segment stitch after wraparound — never
  a per-chunk concatenation.
"""

from __future__ import annotations

import numpy as np

__all__ = ["NodeRingBuffer"]


class NodeRingBuffer:
    """Preallocated ``(capacity, M)`` float64 ring with wraparound views."""

    __slots__ = (
        "capacity", "n_metrics", "_ts", "_vals", "_head", "size",
        "total_evicted", "grows", "unwrap_copies",
    )

    def __init__(self, n_metrics: int, capacity: int = 64):
        if n_metrics < 1:
            raise ValueError(f"n_metrics must be >= 1, got {n_metrics}")
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self.n_metrics = int(n_metrics)
        self._ts = np.empty(self.capacity, dtype=np.float64)
        self._vals = np.empty((self.capacity, self.n_metrics), dtype=np.float64)
        self._head = 0  # physical slot of the oldest live row
        self.size = 0
        #: rows dropped by :meth:`evict_before` over the ring's lifetime
        self.total_evicted = 0
        self.grows = 0
        self.unwrap_copies = 0

    # -- introspection -------------------------------------------------------

    @property
    def last_timestamp(self) -> float:
        if self.size == 0:
            raise IndexError("ring buffer is empty")
        return float(self._ts[(self._head + self.size - 1) % self.capacity])

    @property
    def duration(self) -> float:
        """Wall-clock span of the live region (0 for < 2 rows)."""
        if self.size < 2:
            return 0.0
        first = float(self._ts[self._head])
        return self.last_timestamp - first

    @property
    def wrapped(self) -> bool:
        return self._head + self.size > self.capacity

    # -- mutation ------------------------------------------------------------

    def append(self, timestamps: np.ndarray, values: np.ndarray) -> None:
        """Admit chunk rows at the tail (grows the ring if needed)."""
        c = int(timestamps.shape[0])
        if c == 0:
            return
        if self.size + c > self.capacity:
            self._grow(self.size + c)
        idx = (self._head + self.size + np.arange(c)) % self.capacity
        self._ts[idx] = timestamps
        self._vals[idx] = values
        self.size += c

    def evict_before(self, cutoff: float) -> int:
        """Drop rows with ``timestamp < cutoff``; return how many were dropped."""
        if self.size == 0:
            return 0
        # Rows are time-ordered, so the evicted set is a prefix.
        e = int(np.searchsorted(self.timestamps_view(), cutoff, side="left"))
        self._head = (self._head + e) % self.capacity
        self.size -= e
        self.total_evicted += e
        return e

    def _grow(self, needed: int) -> None:
        new_cap = max(self.capacity * 2, needed)
        ts = np.empty(new_cap, dtype=np.float64)
        vals = np.empty((new_cap, self.n_metrics), dtype=np.float64)
        if self.size:
            ts[: self.size] = self.timestamps_view()
            vals[: self.size] = self.values_view()
        self._ts, self._vals = ts, vals
        self.capacity = new_cap
        self._head = 0
        self.grows += 1

    # -- views ---------------------------------------------------------------

    def timestamps_view(self) -> np.ndarray:
        """Live timestamps ``(size,)`` — zero-copy unless wrapped."""
        lo, hi = self._head, self._head + self.size
        if hi <= self.capacity:
            return self._ts[lo:hi]
        self.unwrap_copies += 1
        return np.concatenate((self._ts[lo:], self._ts[: hi - self.capacity]))

    def values_view(self) -> np.ndarray:
        """Live values ``(size, M)`` — zero-copy unless wrapped."""
        lo, hi = self._head, self._head + self.size
        if hi <= self.capacity:
            return self._vals[lo:hi]
        return np.concatenate((self._vals[lo:], self._vals[: hi - self.capacity]))

    def window(self) -> tuple[np.ndarray, np.ndarray]:
        """Snapshot ``(timestamps, values)`` of the live region (copies).

        Evaluation windows outlive the ring slots backing them (feature
        caches, lifecycle healthy buffers, shadow harnesses all retain the
        window), so materialisation copies exactly once.
        """
        return np.array(self.timestamps_view()), np.array(self.values_view())
