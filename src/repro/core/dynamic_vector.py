"""Array-backed dynamic consolidation planner (``engine="array"``).

:func:`plan_dynamic_array` reproduces
:meth:`repro.core.dynamic.DynamicConsolidation.plan` *bit-identically*
while replacing its per-VM object churn with columnar kernels:

* prediction + sizing happen **once per plan** — a full
  ``(n_vms, n_intervals)`` peak table
  (:func:`~repro.sizing.prediction.build_peak_table`) pushed through
  :meth:`~repro.sizing.estimator.SizeEstimator.estimate_matrix`, so the
  per-interval loop only reads columns;
* the sticky FFD pack keeps its per-host running totals in an
  :class:`~repro.core.incremental.IncrementalPlan` carried across
  intervals (the delta-pack state, shared with the online controller in
  :mod:`repro.service`) instead of rebuilding ``Bin`` objects 360 times;
* vacate sweeps share one fit index per sweep (rebuilt after each
  commit): the fullest-first candidate order plus each VM row's first
  admissible position in it, from NumPy masks, so each VM's exact
  scalar scan starts where a fit is first possible.

Exactness contract (see ``docs/PERFORMANCE.md``): every float the
reference computes is recomputed here by the *same* IEEE-754 operations
in the *same* order — elementwise numpy ops mirror scalar arithmetic
exactly, comparisons use the identical ``capacity + 1e-9`` slack, and
all per-host accumulations replay the reference's left folds (the
plan's append-fold discipline, :meth:`IncrementalPlan.assign`).  The
only reference behaviours intentionally *not* replayed are pure
no-state-change shortcuts (failing a vacate attempt at once when one of
its VMs fits no candidate — an outcome the reference also discards).
Dynamic sizing is :class:`~repro.sizing.functions.MaxSizing`, so every
demand tail is exactly ``0.0`` and ``x + max(0.0, 0.0)`` reduces to
``x`` — the two-term fit checks below match the reference's four-term
expressions bit for bit.

This module must not import :mod:`repro.core.dynamic` (the algorithm
object is passed in), keeping the dispatch one-directional.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from repro.core.base import PlanningContext
from repro.core.incremental import HostCapacities, IncrementalPlan
from repro.emulator.schedule import PlacementSchedule
from repro.exceptions import PlacementError
from repro.placement.binpacking import _no_fit_error
from repro.placement.plan import Placement
from repro.sizing.estimator import SizeEstimator
from repro.sizing.functions import MaxSizing
from repro.sizing.prediction import build_peak_table

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.dynamic import DynamicConsolidation

__all__ = ["plan_dynamic_array"]

#: Same admission slack as :class:`repro.placement.binpacking.Bin`.
_SLACK = 1e-9


class _HostArrays:
    """Host objects, capacity vectors, and idle power, fixed per plan."""

    def __init__(self, algorithm: "DynamicConsolidation", context) -> None:
        hosts = list(context.datacenter.hosts)
        self.caps = HostCapacities(
            hosts, context.config.utilization_bound
        )
        self.hosts = hosts
        self.host_ids = self.caps.host_ids
        self.n = self.caps.n
        self.idle_watts = [algorithm._idle_watts(h) for h in hosts]


def plan_dynamic_array(
    algorithm: "DynamicConsolidation", context: PlanningContext
) -> PlacementSchedule:
    """Vectorized twin of ``DynamicConsolidation.plan`` (no constraints)."""
    points = context.points_per_interval
    history_points = context.history.n_points
    vm_ids = list(context.evaluation.vm_ids)
    class_of = {
        trace.vm_id: trace.vm.workload_class
        for trace in context.evaluation
    }
    cpu_full = np.hstack(
        [
            context.history.cpu_rpe2_matrix(),
            context.evaluation.cpu_rpe2_matrix(),
        ]
    )
    memory_full = np.hstack(
        [
            context.history.memory_gb_matrix(),
            context.evaluation.memory_gb_matrix(),
        ]
    )
    estimator = SizeEstimator(
        sizing=MaxSizing(),
        overhead=context.config.overhead,
        network=context.config.network,
        disk=context.config.disk,
    )
    n_intervals = context.n_intervals
    starts = [history_points + i * points for i in range(n_intervals)]
    # Whole-plan peak tables: one kernel call instead of 2 × n_intervals
    # per-interval predictions.  The burst premium is an elementwise
    # scalar multiply — identical to scaling each column on its own.
    cpu_table = algorithm.cpu_burst_factor * build_peak_table(
        algorithm.predictor, cpu_full, points, starts
    )
    memory_table = build_peak_table(
        algorithm.predictor, memory_full, points, starts
    )
    table = estimator.estimate_matrix(
        vm_ids,
        cpu_table,
        memory_table,
        [class_of.get(vm_id) for vm_id in vm_ids],
    )

    host_arrays = _HostArrays(algorithm, context)
    n_vms = len(vm_ids)
    # FFD tie-break: ascending vm_id among equal scores.
    id_rank = np.empty(n_vms, dtype=np.intp)
    id_rank[np.argsort(np.array(vm_ids))] = np.arange(n_vms)

    placements: List[Placement] = []
    prev_rows: Optional[List[int]] = None
    prev_active: Optional[List[bool]] = None
    bound = context.config.utilization_bound
    for interval in range(n_intervals):
        plan, order, appearance = _pack_interval(
            table, interval, host_arrays, id_rank,
            prev_rows, prev_active, vm_ids, bound,
        )
        _vacate_intervals_hosts(
            algorithm, context, host_arrays, plan, appearance
        )
        assignment = {
            vm_ids[row]: host_arrays.host_ids[plan.assignment_rows[row]]
            for row in order
        }
        placements.append(Placement(assignment=assignment))
        prev_rows = plan.assignment_rows
        prev_active = [bool(rows) for rows in plan.vm_rows_of_host]
    return PlacementSchedule.periodic(
        placements, context.config.interval_hours
    )


def _pack_interval(
    table,
    interval: int,
    host_arrays: _HostArrays,
    id_rank: np.ndarray,
    prev_rows: Optional[List[int]],
    prev_active: Optional[List[bool]],
    vm_ids: List[str],
    utilization_bound: float,
) -> Tuple[IncrementalPlan, List[int], List[int]]:
    """Sticky FFD pack of one interval column, delta from ``prev_rows``.

    Replays ``pack(..., strategy="ffd", preferred=previous.assignment)``
    exactly: per VM in FFD order, the previous host is tried first and
    a warm-first host scan runs only for displaced VMs.  Returns the
    packed :class:`IncrementalPlan`, the FFD order, and the host
    appearance order (the vacate sweeps' bin order).
    """
    caps = host_arrays.caps
    n_hosts = host_arrays.n
    cpu_col = table.cpu_rpe2[:, interval]
    mem_col = table.memory_gb[:, interval]

    # Warm-first host order; the FFD reference host is its head.
    if prev_active is None:
        scan_hosts = list(range(n_hosts))
    else:
        scan_hosts = (
            [h for h in range(n_hosts) if prev_active[h]]
            + [h for h in range(n_hosts) if not prev_active[h]]
        )
    reference = host_arrays.hosts[scan_hosts[0]]
    scores = np.maximum(
        cpu_col / reference.cpu_rpe2, mem_col / reference.memory_gb
    )
    order = np.lexsort((id_rank, -scores)).tolist()

    # Saturation skip (same optimization as the scalar engine): the
    # smallest body demand still to come, per FFD position.
    ordered_cpu = cpu_col[order]
    ordered_mem = mem_col[order]
    sufmin_cpu = np.minimum.accumulate(ordered_cpu[::-1])[::-1].tolist()
    sufmin_mem = np.minimum.accumulate(ordered_mem[::-1])[::-1].tolist()

    plan = IncrementalPlan(
        caps,
        vm_ids,
        cpu_col.tolist(),
        mem_col.tolist(),
        table.network_mbps[:, interval].tolist(),
        table.disk_mbps[:, interval].tolist(),
    )
    cpu = plan.cpu
    mem = plan.mem
    net = plan.net
    dsk = plan.dsk
    eps_cpu = caps.eps_cpu
    eps_mem = caps.eps_mem
    eps_net = caps.eps_net
    eps_dsk = caps.eps_dsk
    cap_cpu = caps.cap_cpu
    cap_mem = caps.cap_mem
    body_cpu = plan.body_cpu
    body_mem = plan.body_mem
    body_net = plan.body_net
    body_dsk = plan.body_dsk
    vm_rows_of_host = plan.vm_rows_of_host
    appearance: List[int] = []
    dead = [False] * n_hosts

    for position, row in enumerate(order):
        d_cpu = cpu[row]
        d_mem = mem[row]
        d_net = net[row]
        d_dsk = dsk[row]
        target = -1
        if prev_rows is not None:
            hint = prev_rows[row]
            if (
                body_cpu[hint] + d_cpu <= eps_cpu[hint]
                and body_mem[hint] + d_mem <= eps_mem[hint]
                and body_net[hint] + d_net <= eps_net[hint]
                and body_dsk[hint] + d_dsk <= eps_dsk[hint]
            ):
                target = hint
        if target < 0:
            min_cpu = sufmin_cpu[position]
            min_mem = sufmin_mem[position]
            for host in scan_hosts:
                if dead[host]:
                    continue
                if (
                    body_cpu[host] + d_cpu <= eps_cpu[host]
                    and body_mem[host] + d_mem <= eps_mem[host]
                    and body_net[host] + d_net <= eps_net[host]
                    and body_dsk[host] + d_dsk <= eps_dsk[host]
                ):
                    target = host
                    break
                if (
                    min_cpu > cap_cpu[host] - body_cpu[host] + _SLACK
                    or min_mem > cap_mem[host] - body_mem[host] + _SLACK
                ):
                    dead[host] = True
            if target < 0:
                raise _no_fit_error(
                    table.demand(row, interval), utilization_bound
                )
        if not vm_rows_of_host[target]:
            appearance.append(target)
        plan.assign(row, target)
    return plan, order, appearance


def _vacate_intervals_hosts(
    algorithm: "DynamicConsolidation",
    context: PlanningContext,
    host_arrays: _HostArrays,
    plan: IncrementalPlan,
    appearance: List[int],
) -> None:
    """Array-backed twin of ``DynamicConsolidation._vacate_hosts``.

    Plan state changes only when a vacate commits, so every attempt
    between two commits sees the same fullest-first candidate order;
    the :class:`_FitIndex` for it is built on the sweep's first attempt
    and again after each commit.
    """
    caps = host_arrays.caps
    vm_rows_of_host = plan.vm_rows_of_host
    body_cpu = plan.body_cpu
    # (bodies, demands, eps) per resource the fit index checks.
    resources = [
        (body_cpu, np.array(plan.cpu), caps.eps_cpu_np),
        (plan.body_mem, np.array(plan.mem), caps.eps_mem_np),
    ]
    for body, values, eps in (
        (plan.body_net, plan.net, caps.eps_net_np),
        (plan.body_dsk, plan.dsk, caps.eps_dsk_np),
    ):
        # All-zero I/O demand keeps every body at 0.0, and
        # 0.0 + 0.0 <= eps admits every row on every host.
        if any(values):
            resources.append((body, np.array(values), eps))
    interval_hours = context.config.interval_hours
    live = appearance
    for _ in range(algorithm.max_vacate_sweeps):
        if len(live) <= 1:
            break
        changed = False
        # Snapshot source order: (vm count, used cpu), appearance-stable.
        sources = sorted(
            live, key=lambda h: (len(vm_rows_of_host[h]), body_cpu[h])
        )
        index: Optional[_FitIndex] = None
        for position, source in enumerate(sources):
            if not vm_rows_of_host[source]:
                continue
            if index is None:
                index = _FitIndex(caps, plan, live, resources, sources)
            index.cover(position)
            if _try_vacate_array(
                algorithm, host_arrays, plan, source, index, interval_hours
            ):
                changed = True
                index = None
        live = [h for h in live if vm_rows_of_host[h]]
        if not changed:
            break


class _FitIndex:
    """A sweep's candidate order and its VM rows' first admissible positions.

    ``order`` is the live non-empty hosts sorted by the reference's
    ``Bin.residual`` (min normalized slack), stable on appearance — each
    source's candidate list is this order minus the source itself.
    ``first[row]`` is the position of the first host in ``order`` whose
    committed body admits the row (``len(order)`` if none): no host
    before it can take the row, pending loads only make a fit harder.

    Valid until the next commit.  :meth:`cover` fills ``first`` for the
    rows of a run of upcoming sources whose length doubles per call, so
    a sweep with few commits pays a handful of mask builds, and a commit
    (which discards the index) wastes at most the rows of the sources
    covered but not yet tried — never the whole fleet.
    """

    __slots__ = (
        "order", "first", "_plan", "_sources", "_columns",
        "_covered", "_span",
    )

    def __init__(
        self,
        caps: HostCapacities,
        plan: IncrementalPlan,
        live: List[int],
        resources: List[Tuple[List[float], np.ndarray, np.ndarray]],
        sources: List[int],
    ) -> None:
        nonempty = [h for h in live if plan.vm_rows_of_host[h]]
        hosts = np.array(nonempty, dtype=np.intp)
        body_cpu = np.array([plan.body_cpu[h] for h in nonempty])
        body_mem = np.array([plan.body_mem[h] for h in nonempty])
        cap_cpu = caps.cap_cpu_np[hosts]
        cap_mem = caps.cap_mem_np[hosts]
        residual = np.minimum(
            (cap_cpu - body_cpu) / cap_cpu, (cap_mem - body_mem) / cap_mem
        )
        hosts = hosts[np.argsort(residual, kind="stable")]
        self.order: List[int] = hosts.tolist()
        self.first: Dict[int, int] = {}
        self._plan = plan
        self._sources = sources
        # Per resource, bodies and capacity + 1e-9 in candidate order.
        self._columns = [
            (np.array([body[h] for h in self.order]), demand, eps[hosts])
            for body, demand, eps in resources
        ]
        self._covered = 0
        self._span = 1

    def cover(self, position: int) -> None:
        """Make ``first`` hold the rows of ``sources[position]``."""
        if position < self._covered:
            return
        self._covered = position + self._span
        self._span *= 2
        vm_rows_of_host = self._plan.vm_rows_of_host
        rows = [
            row
            for host in self._sources[position:self._covered]
            for row in vm_rows_of_host[host]
        ]
        # One (rows x hosts) body-only admission mask: the same
        # ``body + demand <= capacity + 1e-9`` the scan checks per host.
        picked = np.array(rows, dtype=np.intp)
        fits = np.ones((picked.size, len(self.order)), dtype=bool)
        for body, demand, eps in self._columns:
            fits &= body + demand[picked, None] <= eps
        starts = np.where(
            fits.any(axis=1), fits.argmax(axis=1), len(self.order)
        )
        self.first.update(zip(rows, starts.tolist()))


def _try_vacate_array(
    algorithm: "DynamicConsolidation",
    host_arrays: _HostArrays,
    plan: IncrementalPlan,
    source: int,
    index: _FitIndex,
    interval_hours: float,
) -> bool:
    """Array-backed twin of ``_try_vacate`` for one source host.

    Each VM's scan starts at its first admissible position in the
    sweep's :class:`_FitIndex` and replays the reference's exact
    pending-load folds from there; an attempt with a VM no host admits
    fails before any scan (the reference would fail at that VM, and a
    failed attempt changes no state).
    """
    caps = host_arrays.caps
    cpu = plan.cpu
    mem = plan.mem
    net = plan.net
    dsk = plan.dsk
    move_rows = sorted(
        plan.vm_rows_of_host[source], key=cpu.__getitem__, reverse=True
    )
    order = index.order
    first = index.first
    n_order = len(order)
    if max(map(first.__getitem__, move_rows)) == n_order:
        return False

    body_cpu = plan.body_cpu
    body_mem = plan.body_mem
    body_net = plan.body_net
    body_dsk = plan.body_dsk
    eps_cpu = caps.eps_cpu
    eps_mem = caps.eps_mem
    eps_net = caps.eps_net
    eps_dsk = caps.eps_dsk
    # Pending loads per candidate host: exact left folds in move order,
    # matching the reference's per-check recomputation.
    pend_cpu: Dict[int, float] = {}
    pend_mem: Dict[int, float] = {}
    pend_net: Dict[int, float] = {}
    pend_dsk: Dict[int, float] = {}
    moves: List[Tuple[int, int]] = []
    for row in move_rows:
        d_cpu = cpu[row]
        d_mem = mem[row]
        d_net = net[row]
        d_dsk = dsk[row]
        target = -1
        for host in order[first[row]:]:
            # Body-only prefilter: pending loads are non-negative and
            # the float fold is monotone, so failing without pending
            # implies failing with it.  The exact pending fold runs only
            # on prefilter survivors.
            if host == source or not (
                body_cpu[host] + d_cpu <= eps_cpu[host]
                and body_mem[host] + d_mem <= eps_mem[host]
                and body_net[host] + d_net <= eps_net[host]
                and body_dsk[host] + d_dsk <= eps_dsk[host]
            ):
                continue
            if host not in pend_cpu or (
                body_cpu[host] + pend_cpu[host] + d_cpu <= eps_cpu[host]
                and body_mem[host] + pend_mem[host] + d_mem <= eps_mem[host]
                and body_net[host] + pend_net[host] + d_net <= eps_net[host]
                and body_dsk[host] + pend_dsk[host] + d_dsk <= eps_dsk[host]
            ):
                target = host
                break
        if target < 0:
            return False
        moves.append((row, target))
        pend_cpu[target] = pend_cpu.get(target, 0.0) + d_cpu
        pend_mem[target] = pend_mem.get(target, 0.0) + d_mem
        pend_net[target] = pend_net.get(target, 0.0) + d_net
        pend_dsk[target] = pend_dsk.get(target, 0.0) + d_dsk

    # The reference's cost gate, after the target search as there.
    if algorithm.consider_migration_cost:
        cost_wh = sum(algorithm._cached_cost(mem[row]) for row, _ in moves)
        benefit_wh = host_arrays.idle_watts[source] * interval_hours
        if benefit_wh <= cost_wh:
            return False

    # Commit: sequential per-move adds with the reference's re-check
    # (Bin.add validates against the *committed* state, whose folds can
    # differ from body + pending in the last ulp).
    for row, target in moves:
        if not (
            body_cpu[target] + cpu[row] <= eps_cpu[target]
            and body_mem[target] + mem[row] <= eps_mem[target]
            and body_net[target] + net[row] <= eps_net[target]
            and body_dsk[target] + dsk[row] <= eps_dsk[target]
        ):
            raise PlacementError(
                f"{plan.vm_ids[row]} does not fit on "
                f"{host_arrays.host_ids[target]}"
            )
        plan.assign(row, target)
    plan.clear_host(source)
    return True
