"""Sparse-aware alignment of per-schema feature groups.

Heterogeneous fleets extract features per schema partition: all nodes
sharing a column layout are batched together (the dense fast path), and the
per-group matrices are then aligned onto the *union* feature axis.  A GPU
node contributes per-card feature columns a CPU node simply does not have —
that absence is not a zero measurement, so the 0-filled aligned matrix
comes with an explicit boolean ``present`` mask (a
:class:`~repro.telemetry.sampleset.SampleSet` carries both).
Downstream consumers (Chi-square selection, min-max scaling, masked VAE
scoring) treat absent cells as "no evidence", never as an observed value.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["align_feature_groups"]


def align_feature_groups(
    groups: Sequence[tuple[Sequence[int], np.ndarray, Sequence[str]]],
    n_rows: int,
) -> tuple[np.ndarray, tuple[str, ...], np.ndarray]:
    """Scatter per-schema feature groups onto the union feature axis.

    Returns ``(features, feature_names, present)``: the 0-filled
    ``(n_rows, F)`` matrix, its union column names, and the boolean mask of
    the cells some group extracted.

    Parameters
    ----------
    groups:
        ``(row_indices, features, feature_names)`` triples — one per schema
        partition.  ``row_indices`` give each group row's position in the
        output table; together the groups must cover ``0..n_rows-1`` exactly
        once.
    n_rows:
        Total number of output rows.

    The union feature axis lists columns in first-appearance order across
    groups, so a homogeneous input (one group covering all rows) keeps the
    group's exact column order and gets an all-True mask.
    """
    if not groups:
        raise ValueError("need at least one feature group")
    union: list[str] = []
    pos: dict[str, int] = {}
    for _, feats, names in groups:
        feats = np.asarray(feats)
        if feats.ndim != 2 or feats.shape[1] != len(names):
            raise ValueError(
                f"group features shape {feats.shape} does not match "
                f"{len(names)} feature names"
            )
        for name in names:
            if name not in pos:
                pos[name] = len(union)
                union.append(name)

    features = np.zeros((n_rows, len(union)))
    present = np.zeros((n_rows, len(union)), dtype=bool)
    seen = np.zeros(n_rows, dtype=bool)
    for rows, feats, names in groups:
        rows = np.asarray(rows, dtype=np.int64)
        if rows.size and (rows.min() < 0 or rows.max() >= n_rows):
            raise ValueError(f"row indices out of range for {n_rows} rows")
        if np.any(seen[rows]):
            raise ValueError("feature groups overlap: a row appears in two groups")
        seen[rows] = True
        cols = np.array([pos[n] for n in names], dtype=np.int64)
        features[np.ix_(rows, cols)] = np.asarray(feats, dtype=np.float64)
        present[np.ix_(rows, cols)] = True
    if not seen.all():
        raise ValueError(
            f"feature groups cover {int(seen.sum())} of {n_rows} rows"
        )
    return features, tuple(union), present
