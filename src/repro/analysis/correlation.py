"""Workload correlation and peak-clustering analysis.

Stochastic semi-static consolidation (the PCP algorithm of Verma et al.,
USENIX ATC 2009, which the paper uses as its *Stochastic* representative)
rests on two workload properties the paper re-confirms:

* pairwise correlation between workloads is **stable over time**, and
* workloads can be grouped into *peak clusters* — sets of servers whose
  demand peaks co-occur.  Placing members of the same cluster on
  different hosts lets each host be sized near the sum of *bodies*
  (90th percentiles) instead of the sum of peaks.

This module provides the correlation matrix, peak-envelope extraction,
and a greedy envelope-similarity clustering used by
:mod:`repro.core.stochastic`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.exceptions import TraceError
from repro.workloads.trace import TraceSet

__all__ = [
    "correlation_matrix",
    "correlation_stability",
    "peak_envelope",
    "envelope_similarity",
    "PeakClusters",
    "cluster_by_peaks",
]


def correlation_matrix(demand_matrix: np.ndarray) -> np.ndarray:
    """Pairwise Pearson correlation between server demand rows.

    Constant rows (zero variance) get correlation 0 with everything —
    a flat server neither reinforces nor offsets anyone's peaks.
    """
    matrix = np.asarray(demand_matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[1] < 2:
        raise TraceError(
            "correlation_matrix expects (n_servers, n_points>=2) input"
        )
    stds = matrix.std(axis=1)
    safe = np.where(stds > 0, stds, 1.0)
    centered = matrix - matrix.mean(axis=1, keepdims=True)
    normalized = centered / safe[:, None]
    corr = normalized @ normalized.T / matrix.shape[1]
    corr[stds == 0, :] = 0.0
    corr[:, stds == 0] = 0.0
    np.fill_diagonal(corr, 1.0)
    return np.clip(corr, -1.0, 1.0)


def correlation_stability(trace_set: TraceSet) -> float:
    """How stable pairwise correlations are across the trace window.

    Observation 5's stated premise: "correlation between workloads is
    stable over time" — the property that lets a PCP plan computed on
    one window keep holding on the next.  Measured as the Pearson
    correlation between the upper-triangle entries of the pairwise
    correlation matrices of the window's two halves: 1.0 means the
    correlation structure carried over perfectly.
    """
    if len(trace_set) < 3:
        raise TraceError(
            "correlation_stability needs at least 3 servers"
        )
    n_points = trace_set.n_points
    if n_points < 4:
        raise TraceError("correlation_stability needs at least 4 samples")
    half = n_points // 2
    matrix = trace_set.cpu_rpe2_matrix()
    first = correlation_matrix(matrix[:, :half])
    second = correlation_matrix(matrix[:, half:2 * half])
    index = np.triu_indices_from(first, k=1)
    a, b = first[index], second[index]
    if a.std() == 0 or b.std() == 0:
        return 0.0
    return float(np.corrcoef(a, b)[0, 1])


def peak_envelope(values: np.ndarray, body_quantile: float = 0.9) -> np.ndarray:
    """Boolean mask of the samples above the body quantile.

    The envelope marks *when* a server peaks; two servers whose envelopes
    overlap heavily peak together and belong in the same peak cluster.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or values.size == 0:
        raise TraceError("peak_envelope expects a non-empty 1-D series")
    if not 0 < body_quantile < 1:
        raise TraceError(
            f"body_quantile must be in (0, 1), got {body_quantile}"
        )
    threshold = np.quantile(values, body_quantile)
    if threshold <= values.min():
        # Flat series: nothing is a peak.
        return np.zeros(values.size, dtype=bool)
    return values > threshold


def envelope_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """Jaccard similarity of two peak envelopes (1.0 = identical peaks)."""
    a = np.asarray(a, dtype=bool)
    b = np.asarray(b, dtype=bool)
    if a.shape != b.shape:
        raise TraceError(
            f"envelope shapes differ: {a.shape} vs {b.shape}"
        )
    union = np.logical_or(a, b).sum()
    if union == 0:
        return 0.0
    return float(np.logical_and(a, b).sum() / union)


@dataclass(frozen=True)
class PeakClusters:
    """Result of peak clustering: cluster index per VM."""

    vm_ids: Tuple[str, ...]
    cluster_of: Tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.vm_ids) != len(self.cluster_of):
            raise TraceError("vm_ids and cluster_of must have equal length")

    @property
    def n_clusters(self) -> int:
        return max(self.cluster_of) + 1 if self.cluster_of else 0

    def members(self, cluster: int) -> Tuple[str, ...]:
        return tuple(
            vm
            for vm, c in zip(self.vm_ids, self.cluster_of)
            if c == cluster
        )

    def cluster_for(self, vm_id: str) -> int:
        try:
            return self.cluster_of[self.vm_ids.index(vm_id)]
        except ValueError:
            raise TraceError(f"unknown vm_id {vm_id!r} in clusters") from None


def cluster_by_peaks(
    trace_set: TraceSet,
    *,
    body_quantile: float = 0.9,
    similarity_threshold: float = 0.25,
    engine: str = "auto",
) -> PeakClusters:
    """Greedy peak clustering on CPU demand envelopes.

    Servers are visited in descending demand order; each joins the first
    existing cluster whose *representative* (first member) envelope is at
    least ``similarity_threshold`` similar, otherwise it founds a new
    cluster.  Greedy single-pass clustering is what keeps PCP linear in
    the number of servers — the property that made it deployable on
    thousand-server engagements.

    ``engine="matrix"`` (what ``"auto"`` picks) derives every envelope
    from one row-wise quantile over the CPU matrix and every pairwise
    envelope intersection from one 0/1 matrix product; the greedy scan
    then only indexes those integer counts (union = |a| + |b| - |a∩b|),
    so the decisions are bit-identical to the scalar
    :func:`envelope_similarity` scan (``"scalar"``).
    """
    if len(trace_set) == 0:
        raise TraceError(f"trace set {trace_set.name!r} is empty")
    if not 0 < similarity_threshold <= 1:
        raise TraceError(
            f"similarity_threshold must be in (0, 1], got "
            f"{similarity_threshold}"
        )
    if engine not in ("auto", "matrix", "scalar"):
        raise TraceError(
            f"unknown engine {engine!r}; expected 'auto', 'matrix' or "
            "'scalar'"
        )
    if engine == "scalar":
        return _cluster_scalar(
            trace_set, body_quantile, similarity_threshold
        )
    matrix = trace_set.cpu_rpe2_matrix()
    n_vms = matrix.shape[0]
    envelopes = _peak_envelopes(matrix, body_quantile)
    # Sums of 0/1 products are exact integers in float32 for series
    # shorter than 2**24 samples (~1,900 years hourly).
    indicator = envelopes.astype(np.float32)
    intersections = indicator @ indicator.T
    sizes = np.count_nonzero(envelopes, axis=1)
    peaks = matrix.max(axis=1).tolist()
    order = sorted(range(n_vms), key=peaks.__getitem__, reverse=True)
    cluster_of = [0] * n_vms
    representatives = np.empty(n_vms, dtype=np.intp)
    n_reps = 0
    for row in order:
        chosen = n_reps
        if n_reps:
            block = representatives[:n_reps]
            intersection = intersections[row, block].astype(np.int64)
            union = sizes[row] + sizes[block] - intersection
            # Same integer counts as envelope_similarity, so the
            # quotient (0.0 on empty union) matches it bit for bit.
            similarity = np.where(
                union == 0, 0.0, intersection / np.maximum(union, 1)
            )
            hits = similarity >= similarity_threshold
            first = int(np.argmax(hits))
            if hits[first]:
                chosen = first
        if chosen == n_reps:
            representatives[n_reps] = row
            n_reps += 1
        cluster_of[row] = chosen
    return PeakClusters(
        vm_ids=tuple(trace_set.vm_ids), cluster_of=tuple(cluster_of)
    )


def _peak_envelopes(matrix: np.ndarray, body_quantile: float) -> np.ndarray:
    """:func:`peak_envelope` of every row, from one row-wise quantile."""
    if not 0 < body_quantile < 1:
        raise TraceError(
            f"body_quantile must be in (0, 1), got {body_quantile}"
        )
    thresholds = np.quantile(matrix, body_quantile, axis=1)
    # A flat row (threshold at its minimum) has no peaks.
    flat = thresholds <= matrix.min(axis=1)
    return (matrix > thresholds[:, None]) & ~flat[:, None]


def _cluster_scalar(
    trace_set: TraceSet, body_quantile: float, similarity_threshold: float
) -> PeakClusters:
    """Per-trace reference scan of :func:`cluster_by_peaks`."""
    envelopes = {
        trace.vm_id: peak_envelope(trace.cpu_rpe2, body_quantile)
        for trace in trace_set
    }
    order = sorted(
        trace_set,
        key=lambda trace: float(trace.cpu_rpe2.max()),
        reverse=True,
    )
    assignment: dict = {}
    representative_envelopes: List[np.ndarray] = []
    for trace in order:
        envelope = envelopes[trace.vm_id]
        chosen = None
        for index, representative in enumerate(representative_envelopes):
            if envelope_similarity(envelope, representative) >= (
                similarity_threshold
            ):
                chosen = index
                break
        if chosen is None:
            chosen = len(representative_envelopes)
            representative_envelopes.append(envelope)
        assignment[trace.vm_id] = chosen
    vm_ids = tuple(trace.vm_id for trace in trace_set)
    return PeakClusters(
        vm_ids=vm_ids,
        cluster_of=tuple(assignment[vm] for vm in vm_ids),
    )
