"""Array stochastic (PCP) engine == scalar reference, bit for bit.

The array engine prefilters candidate hosts with vectorized pooled-tail
lower bounds and verifies survivors with a single-pass pooled sum; it
must make exactly the decisions of the retained per-bin scan — same
assignment or the same no-fit failure — across overlap factors, I/O
models, and workload textures.  The greedy peak clustering both engines
share has the same contract between its matrix and scalar scans.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.correlation import (
    _peak_envelopes,
    cluster_by_peaks,
    peak_envelope,
)
from repro.constraints.affinity import AntiColocate
from repro.constraints.manager import ConstraintSet
from repro.core.base import PlanningConfig, PlanningContext
from repro.core.stochastic import StochasticConsolidation
from repro.exceptions import ConfigurationError, TraceError
from repro.sizing.network import DiskDemandModel, NetworkDemandModel
from repro.workloads.trace import TraceSet
from tests.conftest import make_server_trace


def _context(small_pool, *, n_vms=16, days=3, config=None, seed=9):
    """Servers with clustered peak phases: PCP's intended input."""
    rng = np.random.default_rng(seed)
    hours = days * 24
    history = TraceSet(name="h")
    evaluation = TraceSet(name="e")
    for i in range(n_vms):
        util = np.full(hours, 0.06) + rng.uniform(0.0, 0.04, hours)
        phase = (i % 3) * 8
        for day in range(days):
            start = day * 24 + phase
            util[start:start + 6] += rng.uniform(0.25, 0.55)
        memory = np.full(hours, 0.8 + 0.05 * i) + rng.uniform(0, 0.3, hours)
        for ts in (history, evaluation):
            ts.add(
                make_server_trace(
                    f"vm{i}", np.clip(util, 0, 1), memory, cpu_rpe2=4000.0
                )
            )
    return PlanningContext(
        history=history,
        evaluation=evaluation,
        datacenter=small_pool,
        config=config or PlanningConfig(),
    )


def _assert_plans_identical(small_pool, context, **kwargs):
    scalar = StochasticConsolidation(engine="scalar", **kwargs).plan(context)
    array = StochasticConsolidation(engine="array", **kwargs).plan(context)
    auto = StochasticConsolidation(**kwargs).plan(context)
    assert scalar.segments[0].placement == array.segments[0].placement
    assert scalar.segments[0].placement == auto.segments[0].placement


@pytest.mark.parametrize("overlap", [0.0, 0.55, 1.0])
def test_engines_agree_across_overlap_factors(small_pool, overlap) -> None:
    context = _context(small_pool)
    _assert_plans_identical(
        small_pool, context, tail_overlap_factor=overlap
    )


def test_engines_agree_with_io_models(small_pool) -> None:
    config = PlanningConfig(
        network=NetworkDemandModel(), disk=DiskDemandModel()
    )
    context = _context(small_pool, config=config)
    _assert_plans_identical(small_pool, context)


def test_engines_agree_on_generated_texture(
    small_pool, generated_trace_set
) -> None:
    hours = generated_trace_set.n_points
    context = PlanningContext(
        history=generated_trace_set.window(0, hours // 2),
        evaluation=generated_trace_set.window(hours // 2, hours),
        datacenter=small_pool,
        config=PlanningConfig(),
    )
    _assert_plans_identical(small_pool, context)


def test_engines_agree_under_tight_bound(small_pool) -> None:
    context = _context(small_pool, n_vms=20, seed=13)
    _assert_plans_identical(
        small_pool, context, utilization_bound=0.7, body_percentile=95.0
    )


def test_unknown_engine_rejected(small_pool) -> None:
    context = _context(small_pool, days=2)
    with pytest.raises(ConfigurationError):
        StochasticConsolidation(engine="gpu").plan(context)


def test_array_engine_rejects_constraints(small_pool) -> None:
    context = _context(small_pool, days=2)
    constrained = PlanningContext(
        history=context.history,
        evaluation=context.evaluation,
        datacenter=context.datacenter,
        constraints=ConstraintSet([AntiColocate("vm0", "vm1")]),
        config=context.config,
    )
    with pytest.raises(ConfigurationError):
        StochasticConsolidation(engine="array").plan(constrained)
    # auto falls back to the scalar engine and honours the constraint.
    placement = StochasticConsolidation().plan(constrained).segments[0].placement
    assert placement.host_of("vm0") != placement.host_of("vm1")


# ----------------------------------------------------------------------
# Peak clustering: matrix Jaccard scan == scalar envelope_similarity scan.


@pytest.mark.parametrize("threshold", [0.1, 0.25, 0.6, 1.0])
def test_cluster_engines_agree(small_pool, threshold) -> None:
    context = _context(small_pool, n_vms=24, seed=17)
    scalar = cluster_by_peaks(
        context.history, similarity_threshold=threshold, engine="scalar"
    )
    matrix = cluster_by_peaks(
        context.history, similarity_threshold=threshold, engine="matrix"
    )
    auto = cluster_by_peaks(context.history, similarity_threshold=threshold)
    assert scalar == matrix == auto


def test_cluster_engines_agree_on_flat_envelopes() -> None:
    """Flat series make empty envelopes (union == 0): both engines 0.0."""
    traces = TraceSet(name="flat")
    for i in range(6):
        traces.add(
            make_server_trace(
                f"vm{i}", np.full(48, 0.2), np.full(48, 1.0)
            )
        )
    scalar = cluster_by_peaks(traces, engine="scalar")
    matrix = cluster_by_peaks(traces, engine="matrix")
    assert scalar == matrix


def test_cluster_unknown_engine_rejected(flat_trace_set) -> None:
    with pytest.raises(TraceError):
        cluster_by_peaks(flat_trace_set, engine="gpu")


def _assert_cluster_engines_agree(traces, **kwargs):
    scalar = cluster_by_peaks(traces, engine="scalar", **kwargs)
    matrix = cluster_by_peaks(traces, engine="matrix", **kwargs)
    assert scalar == matrix
    return matrix


@pytest.mark.parametrize("threshold", [0.25, 1.0])
def test_cluster_engines_agree_on_flat_and_tied_peaks(threshold) -> None:
    """Flat rows (empty unions), equal peaks and duplicated envelopes."""
    hours = 48
    traces = TraceSet(name="ties")
    burst = np.full(hours, 0.1)
    burst[[3, 9, 17, 22, 30, 35, 40, 44]] = np.linspace(0.4, 0.7, 8)
    for i in range(4):
        traces.add(make_server_trace(f"dup{i}", burst, np.full(hours, 1.0)))
    for i in range(3):
        traces.add(
            make_server_trace(
                f"flat{i}", np.full(hours, 0.7), np.full(hours, 1.0)
            )
        )
    shifted = np.roll(burst, 5)
    traces.add(make_server_trace("shifted", shifted, np.full(hours, 1.0)))
    clusters = _assert_cluster_engines_agree(
        traces, similarity_threshold=threshold
    )
    # Identical envelopes reach even a 1.0 threshold; empty ones never do.
    assert len({clusters.cluster_for(f"dup{i}") for i in range(4)}) == 1
    assert len({clusters.cluster_for(f"flat{i}") for i in range(3)}) == 3


def test_cluster_engines_agree_when_most_vms_found_clusters() -> None:
    """Uncorrelated bursts: nearly every VM founds its own cluster."""
    rng = np.random.default_rng(41)
    hours = 72
    traces = TraceSet(name="peaked")
    for i in range(120):
        util = rng.uniform(0.05, 0.1, hours)
        util[rng.choice(hours, size=8, replace=False)] += 0.5
        traces.add(make_server_trace(f"vm{i:03d}", util, np.ones(hours)))
    clusters = _assert_cluster_engines_agree(
        traces, similarity_threshold=0.6
    )
    assert clusters.n_clusters >= 0.9 * len(traces)


@pytest.mark.parametrize("quantile", [0.5, 0.9, 0.95, 0.99])
def test_rowwise_envelopes_equal_peak_envelope(
    generated_trace_set, quantile
) -> None:
    """One axis=1 quantile gives every row's peak_envelope exactly."""
    flat = TraceSet(name="flat-mix")
    for trace in generated_trace_set:
        flat.add(trace)
    hours = generated_trace_set.n_points
    # Rare bursts on a flat floor put the quantile at the minimum:
    # peak_envelope calls that row flat despite samples above it.
    sparse = np.full(hours, 0.3)
    sparse[[5, 50]] = 0.9
    for name, util in (("flat", np.full(hours, 0.3)), ("sparse", sparse)):
        flat.add(make_server_trace(name, util, np.ones(hours)))
    matrix = flat.cpu_rpe2_matrix()
    envelopes = _peak_envelopes(matrix, quantile)
    for row, trace in enumerate(flat):
        np.testing.assert_array_equal(
            envelopes[row], peak_envelope(trace.cpu_rpe2, quantile)
        )
    assert not envelopes[-2].any()
