"""Immutable columnar segments: on-disk format, codecs, mmap reads.

One segment holds the rows of one container (sampler) whose timestamps
fall inside one time partition, laid out column-major:

* index columns — ``job``/``component`` (dictionary-encoded against the
  segment's sorted id dictionaries, which double as zone maps),
  ``timestamp`` (delta-of-delta when exactly integral), and ``seq`` (the
  container-global ingest row number that makes query results bit-identical
  to the legacy append-order store);
* metric columns — one contiguous array each; ``cumulative`` meters are
  counter-differenced to small integer deltas when that round-trips
  exactly, everything else stays raw ``float64``.

Every lossy-looking codec is **verified at write time**: the encoder
decodes its own output and falls back to ``raw`` unless the bits match, so
reads are always exact regardless of what the data looked like.

File layout (single file, written to a temp name and ``os.replace``\\ d so
readers only ever see complete segments)::

    magic "RPHSEG1\\n" | u64 header length | JSON header | pad to 64
    column blob 0 (64-byte aligned) | column blob 1 | ...

The JSON header carries the schema (column names, codecs, dtypes, byte
offsets), the zone map (min/max time, job/component dictionaries), meter
kinds, and the retention tier.  Readers :func:`np.memmap` the file once
and slice per-column views out of it — a scan touches only the pages of
the columns it decodes, so historical queries never materialise the full
history.
"""

from __future__ import annotations

import json
import os
import tempfile
from collections import Counter
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from repro.hist.meters import CUMULATIVE

__all__ = ["Segment", "write_segment", "encode_column", "decode_column"]

_MAGIC = b"RPHSEG1\n"
_ALIGN = 64

#: Exact-integer window of float64: integral values beyond 2**53 may have
#: rounded, so integer codecs refuse them and fall back to raw.
_EXACT_INT = float(2**53)


# -- codecs -------------------------------------------------------------------


def _pack_ints(values: np.ndarray) -> np.ndarray:
    """Narrow an int64 array to the smallest integer dtype that holds it."""
    if values.size == 0:
        return values.astype(np.int8)
    lo, hi = int(values.min()), int(values.max())
    for dtype in (np.int8, np.int16, np.int32):
        info = np.iinfo(dtype)
        if info.min <= lo and hi <= info.max:
            return values.astype(dtype)
    return values


def _as_exact_int64(values: np.ndarray) -> np.ndarray | None:
    """*values* as int64 when the float64 -> int64 cast is exact, else None."""
    if values.dtype == np.int64:
        return values
    if not np.all(np.isfinite(values)):
        return None
    if np.any(np.abs(values) >= _EXACT_INT):
        return None
    ints = values.astype(np.int64)
    if not np.array_equal(ints.astype(np.float64), values):
        return None
    return ints


def encode_column(values: np.ndarray) -> tuple[dict, np.ndarray]:
    """(codec descriptor, blob) for one column; decode is verified exact.

    Exactly-integral sequences (timestamps on a sampling grid, ``seq``,
    raw cumulative counters) are stored as delta (``i-delta``) or
    delta-of-delta (``i-dod``) packed integers, whichever is narrower;
    anything non-integral, non-finite, or outside the exact-int window of
    float64 stays ``raw``.
    """
    values = np.asarray(values)
    raw = {"codec": "raw", "dtype": values.dtype.str}
    ints = _as_exact_int64(values)
    if ints is None or ints.size < 3:
        return raw, values
    deltas = np.diff(ints)
    candidates = [
        ("i-delta", {"first": int(ints[0])}, _pack_ints(deltas)),
        (
            "i-dod",
            {"first": int(ints[0]), "d0": int(deltas[0])},
            _pack_ints(np.diff(deltas)),
        ),
    ]
    name, params, blob = min(candidates, key=lambda c: c[2].itemsize)
    if blob.itemsize >= values.dtype.itemsize:
        return raw, values  # no win over raw storage
    desc = {
        "codec": name,
        "dtype": blob.dtype.str,
        "out_dtype": values.dtype.str,
        **params,
    }
    if not np.array_equal(decode_column(desc, blob, values.shape[0]), values):
        return raw, values  # codec would not round-trip: store raw
    return desc, blob


def decode_column(desc: Mapping, blob: np.ndarray, n_rows: int) -> np.ndarray:
    """Reconstruct the exact original column from its descriptor + blob."""
    codec = desc["codec"]
    if codec == "raw":
        return blob
    if codec == "dict":
        return np.asarray(desc["values"], dtype=np.int64)[blob.astype(np.int64)]
    out_dtype = np.dtype(desc["out_dtype"])
    if codec == "i-delta":
        deltas = blob.astype(np.int64)
        out = np.empty(n_rows, dtype=np.int64)
        out[0] = desc["first"]
        np.cumsum(deltas, out=out[1:])
        out[1:] += desc["first"]
        return out.astype(out_dtype, copy=False)
    if codec == "i-dod":
        dod = blob.astype(np.int64)
        deltas = np.empty(n_rows - 1, dtype=np.int64)
        deltas[0] = desc["d0"]
        np.cumsum(dod, out=deltas[1:])
        deltas[1:] += desc["d0"]
        out = np.empty(n_rows, dtype=np.int64)
        out[0] = desc["first"]
        np.cumsum(deltas, out=out[1:])
        out[1:] += desc["first"]
        return out.astype(out_dtype, copy=False)
    raise ValueError(f"unknown column codec {codec!r}")


def _encode_dictionary(ids: np.ndarray) -> tuple[dict, np.ndarray]:
    """Dictionary-encode an id column; the dictionary doubles as zone map."""
    uniques, codes = np.unique(ids, return_inverse=True)
    blob = _pack_ints(codes.astype(np.int64))
    desc = {
        "codec": "dict",
        "dtype": blob.dtype.str,
        "values": [int(u) for u in uniques],
    }
    return desc, blob


# -- write --------------------------------------------------------------------


def write_segment(
    path: str | Path,
    *,
    sampler: str,
    tier: str,
    job_id: np.ndarray,
    component_id: np.ndarray,
    timestamp: np.ndarray,
    seq: np.ndarray,
    values: np.ndarray,
    metric_names: Sequence[str],
    meters: Mapping[str, str],
    raw_sources: Sequence[str] | None = None,
) -> "Segment":
    """Write one immutable segment atomically and return its reader.

    Rows may arrive in any order; they are stored sorted by ``seq`` (ingest
    order) so the delta codecs see the smoothest sequences and scans can
    re-establish legacy ordering with a single stable job sort.
    """
    job_id = np.asarray(job_id, dtype=np.int64)
    component_id = np.asarray(component_id, dtype=np.int64)
    timestamp = np.asarray(timestamp, dtype=np.float64)
    seq = np.asarray(seq, dtype=np.int64)
    values = np.asarray(values, dtype=np.float64)
    n = job_id.shape[0]
    if n == 0:
        raise ValueError("refusing to write an empty segment")
    if not (component_id.shape[0] == timestamp.shape[0] == seq.shape[0] == values.shape[0] == n):
        raise ValueError("segment index columns and values must have equal length")
    order = np.argsort(seq, kind="stable")
    if not np.array_equal(order, np.arange(n)):
        job_id, component_id = job_id[order], component_id[order]
        timestamp, seq, values = timestamp[order], seq[order], values[order]

    columns: list[dict] = []
    blobs: list[np.ndarray] = []

    def add(name: str, role: str, desc: dict, blob: np.ndarray) -> None:
        columns.append({"name": name, "role": role, **desc})
        blobs.append(np.ascontiguousarray(blob))

    for name, ids in (("job_id", job_id), ("component_id", component_id)):
        add(name, "index", *_encode_dictionary(ids))
    add("timestamp", "index", *encode_column(timestamp))
    add("seq", "index", *encode_column(seq))
    for m, name in enumerate(metric_names):
        kind = meters.get(name, "gauge")
        col = np.ascontiguousarray(values[:, m])
        if kind == CUMULATIVE:
            # Counter differencing: running totals become small bounded
            # per-row increments, which the integer codecs pack tightly.
            desc, blob = encode_column(col)
        else:
            desc, blob = {"codec": "raw", "dtype": col.dtype.str}, col
        add(name, "metric", desc, blob)

    offset = 0
    payload_parts: list[bytes] = []
    for colmeta, blob in zip(columns, blobs):
        pad = (-offset) % _ALIGN
        payload_parts.append(b"\x00" * pad)
        offset += pad
        raw = blob.tobytes()
        colmeta["offset"] = offset
        colmeta["nbytes"] = len(raw)
        payload_parts.append(raw)
        offset += len(raw)

    header = {
        "sampler": sampler,
        "tier": tier,
        "n_rows": int(n),
        "t_min": float(timestamp.min()),
        "t_max": float(timestamp.max()),
        "seq_min": int(seq.min()),
        "seq_max": int(seq.max()),
        "metric_names": list(metric_names),
        "meters": {name: meters.get(name, "gauge") for name in metric_names},
        "columns": columns,
    }
    if raw_sources is not None:
        # Provenance for downsampled tiers: the raw-tier segment file names
        # whose rows were aggregated into this segment.  Retention uses it to
        # decide when raw is safely represented, compaction to decide which
        # tier segments are re-derivable and which are the only copy left.
        header["raw_sources"] = sorted(raw_sources)
    header_bytes = json.dumps(header, separators=(",", ":")).encode()
    prefix = _MAGIC + np.uint64(len(header_bytes)).tobytes() + header_bytes
    pad = (-len(prefix)) % _ALIGN

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(prefix)
            fh.write(b"\x00" * pad)
            for part in payload_parts:
                fh.write(part)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        Path(tmp_name).unlink(missing_ok=True)
        raise
    return Segment(path)


# -- read ---------------------------------------------------------------------


class Segment:
    """Reader over one immutable segment file.

    Construction parses only the JSON header (zone map, codecs, offsets);
    the data region is memory-mapped lazily on the first column access and
    decoded per column on demand.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        with open(self.path, "rb") as fh:
            magic = fh.read(len(_MAGIC))
            if magic != _MAGIC:
                raise ValueError(f"{self.path}: not a segment file (bad magic {magic!r})")
            (header_len,) = np.frombuffer(fh.read(8), dtype=np.uint64)
            header = json.loads(fh.read(int(header_len)).decode())
            #: file size in bytes (the file never changes once written)
            self.nbytes = os.fstat(fh.fileno()).st_size
        self._header = header
        prefix = len(_MAGIC) + 8 + int(header_len)
        self._data_start = prefix + ((-prefix) % _ALIGN)
        self._columns = {c["name"]: c for c in header["columns"]}
        #: columns per codec, counted once for layout stats
        self.codec_counts = dict(Counter(c["codec"] for c in header["columns"]))
        self._mm: np.memmap | None = None

    # -- zone map / metadata ---------------------------------------------------

    @property
    def sampler(self) -> str:
        return self._header["sampler"]

    @property
    def tier(self) -> str:
        return self._header["tier"]

    @property
    def n_rows(self) -> int:
        return int(self._header["n_rows"])

    @property
    def t_min(self) -> float:
        return float(self._header["t_min"])

    @property
    def t_max(self) -> float:
        return float(self._header["t_max"])

    @property
    def seq_min(self) -> int:
        return int(self._header["seq_min"])

    @property
    def seq_max(self) -> int:
        return int(self._header["seq_max"])

    @property
    def raw_sources(self) -> tuple[str, ...]:
        """Raw-tier segment names this downsampled segment was derived from."""
        return tuple(self._header.get("raw_sources", ()))

    @property
    def jobs(self) -> np.ndarray:
        """Sorted job ids present (the job dictionary — exact, not a sketch)."""
        return np.asarray(self._columns["job_id"]["values"], dtype=np.int64)

    @property
    def components(self) -> np.ndarray:
        return np.asarray(self._columns["component_id"]["values"], dtype=np.int64)

    @property
    def metric_names(self) -> tuple[str, ...]:
        return tuple(self._header["metric_names"])

    @property
    def meters(self) -> dict[str, str]:
        return dict(self._header["meters"])

    def codec_of(self, name: str) -> str:
        return self._columns[name]["codec"]

    def may_contain(
        self,
        *,
        job_id: int | None = None,
        component_id: int | None = None,
        t0: float | None = None,
        t1: float | None = None,
    ) -> bool:
        """Zone-map pruning: False means no row can match the filters."""
        if t0 is not None and t1 is not None and t0 > t1:
            return False  # inverted window selects nothing anywhere
        if t0 is not None and self.t_max < t0:
            return False
        if t1 is not None and self.t_min > t1:
            return False
        if job_id is not None:
            jobs = self.jobs
            i = int(np.searchsorted(jobs, job_id))
            if i >= jobs.size or jobs[i] != job_id:
                return False
        if component_id is not None:
            comps = self.components
            i = int(np.searchsorted(comps, component_id))
            if i >= comps.size or comps[i] != component_id:
                return False
        return True

    # -- column access ---------------------------------------------------------

    def _memmap(self) -> np.memmap:
        if self._mm is None:
            self._mm = np.memmap(self.path, dtype=np.uint8, mode="r")
        return self._mm

    def column(self, name: str) -> np.ndarray:
        """Decoded column; ``raw`` codecs return a zero-copy memmap view."""
        try:
            meta = self._columns[name]
        except KeyError:
            raise KeyError(
                f"segment {self.path.name} has no column {name!r}; "
                f"available: {sorted(self._columns)}"
            ) from None
        mm = self._memmap()
        start = self._data_start + meta["offset"]
        blob = mm[start : start + meta["nbytes"]].view(np.dtype(meta["dtype"]))
        return decode_column(meta, blob, self.n_rows)

    def scan(
        self,
        *,
        job_id: int | None = None,
        component_id: int | None = None,
        t0: float | None = None,
        t1: float | None = None,
        metrics: Sequence[str] | None = None,
    ) -> dict[str, np.ndarray]:
        """Filtered row gather: index arrays + a row-major ``values`` block.

        Index columns are decoded first and build the row mask; metric
        columns are only decoded (only *their* pages touched) when some row
        survives the filters.
        """
        names = tuple(metrics) if metrics is not None else self.metric_names
        mask: np.ndarray | None = None

        def narrow(m: np.ndarray) -> None:
            nonlocal mask
            mask = m if mask is None else (mask & m)

        if job_id is not None:
            narrow(self.column("job_id") == job_id)
        if component_id is not None:
            narrow(self.column("component_id") == component_id)
        if t0 is not None or t1 is not None:
            ts = self.column("timestamp")
            if t0 is not None:
                narrow(ts >= t0)
            if t1 is not None:
                narrow(ts <= t1)
        if mask is None:
            idx = slice(None)
            n_out = self.n_rows
        else:
            idx = np.flatnonzero(mask)
            n_out = int(idx.size)
        out = {
            "job_id": np.ascontiguousarray(self.column("job_id")[idx]),
            "component_id": np.ascontiguousarray(self.column("component_id")[idx]),
            "timestamp": np.ascontiguousarray(self.column("timestamp")[idx]),
            "seq": np.ascontiguousarray(self.column("seq")[idx]),
        }
        if n_out == 0:
            out["values"] = np.empty((0, len(names)))
            return out
        vals = np.empty((n_out, len(names)))
        for j, name in enumerate(names):
            vals[:, j] = self.column(name)[idx]
        out["values"] = vals
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Segment({self.path.name}, tier={self.tier}, rows={self.n_rows}, "
            f"t=[{self.t_min:.0f}, {self.t_max:.0f}], jobs={self.jobs.size})"
        )
