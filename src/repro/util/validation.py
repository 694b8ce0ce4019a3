"""Input-validation helpers shared across the library.

These mirror the defensive checks a user-facing scientific library needs:
array coercion with dtype/shape enforcement, fitted-state checks, and
human-readable errors that name the offending argument.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

__all__ = [
    "check_array",
    "check_matrix",
    "check_vector",
    "check_labels",
    "check_fitted",
    "check_consistent_length",
    "check_ingest_timestamps",
    "NotFittedError",
]


class NotFittedError(RuntimeError):
    """Raised when ``predict``/``transform`` is called before ``fit``."""


def check_array(
    x: Any,
    *,
    name: str = "X",
    ndim: int | None = None,
    dtype: Any = np.float64,
    allow_empty: bool = False,
    finite: bool = True,
) -> np.ndarray:
    """Coerce *x* to an ndarray and validate its basic properties.

    Parameters
    ----------
    x:
        Array-like input.
    name:
        Argument name used in error messages.
    ndim:
        Required dimensionality, or ``None`` to accept any.
    dtype:
        Target dtype (``None`` keeps the input dtype).
    allow_empty:
        Whether zero-size arrays are acceptable.
    finite:
        Whether NaN/inf values are rejected.
    """
    arr = np.asarray(x, dtype=dtype)
    if ndim is not None and arr.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    if not allow_empty and arr.size == 0:
        raise ValueError(f"{name} must not be empty")
    if finite and arr.dtype.kind == "f" and not np.isfinite(arr).all():
        n_bad = int(np.sum(~np.isfinite(arr)))
        raise ValueError(f"{name} contains {n_bad} non-finite value(s)")
    return arr


def check_matrix(x: Any, *, name: str = "X", **kwargs: Any) -> np.ndarray:
    """Coerce *x* to a 2-D float matrix (samples x features)."""
    return check_array(x, name=name, ndim=2, **kwargs)


def check_vector(x: Any, *, name: str = "x", **kwargs: Any) -> np.ndarray:
    """Coerce *x* to a 1-D float vector."""
    return check_array(x, name=name, ndim=1, **kwargs)


def check_labels(y: Any, *, name: str = "y", n_samples: int | None = None) -> np.ndarray:
    """Coerce binary anomaly labels to an int64 vector of 0/1 values."""
    arr = np.asarray(y)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be 1-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"{name} must not be empty")
    out = arr.astype(np.int64, copy=False)
    if not np.array_equal(out, arr):
        raise ValueError(f"{name} must contain integer labels")
    bad = set(np.unique(out)) - {0, 1}
    if bad:
        raise ValueError(f"{name} must contain only 0 (healthy) / 1 (anomalous); got extra {sorted(bad)}")
    if n_samples is not None and out.shape[0] != n_samples:
        raise ValueError(f"{name} has {out.shape[0]} entries but expected {n_samples}")
    return out


def check_ingest_timestamps(timestamps: np.ndarray, *, sampler: str) -> None:
    """Reject non-finite or negative timestamps at store ingest.

    Epoch-style telemetry timestamps are always finite and non-negative; a
    NaN/inf/negative value means a corrupted extract or a unit bug upstream,
    and silently storing it poisons every time-window query that follows.
    The error names the first offending row and the sampler so the operator
    can find the bad extract.
    """
    ts = np.asarray(timestamps, dtype=np.float64)
    bad = ~np.isfinite(ts) | (ts < 0)
    if bad.any():
        row = int(np.argmax(bad))
        raise ValueError(
            f"sampler {sampler!r}: row {row} has invalid timestamp "
            f"{float(ts[row])!r} (ingest timestamps must be finite and >= 0)"
        )


def check_fitted(obj: Any, attributes: Sequence[str]) -> None:
    """Raise :class:`NotFittedError` unless *obj* defines all *attributes* (non-None)."""
    missing = [a for a in attributes if getattr(obj, a, None) is None]
    if missing:
        raise NotFittedError(
            f"{type(obj).__name__} is not fitted; call fit() first "
            f"(missing attributes: {', '.join(missing)})"
        )


def check_consistent_length(**named_arrays: Any) -> None:
    """Validate that all named arrays share the same first-axis length."""
    lengths = {name: len(arr) for name, arr in named_arrays.items() if arr is not None}
    if len(set(lengths.values())) > 1:
        detail = ", ".join(f"{k}={v}" for k, v in lengths.items())
        raise ValueError(f"inconsistent sample counts: {detail}")
