"""Runner fan-out for sharded planning.

One ``shard-plan`` task plans one shard: it resolves only its own VM
rows (for chunked sources, a contiguous row range of a memory-mapped
store — the worker never touches the rest of the fleet's pages), builds
the shard's planning context, and runs the dynamic planner.  Shard tasks
are ordinary :class:`~repro.runner.task.ExperimentTask` specs, so the
process pool, the content-addressed result cache, and the determinism
guarantees of :mod:`repro.runner` all apply unchanged — a warm rerun of
a 100k-server plan is ``n_shards`` cache hits.

:func:`run_sharded_plan` is the orchestrator: partition in the parent,
fan the shard tasks out, then merge + reconcile through
:class:`~repro.sharding.planner.ShardedConsolidation` (whose
``plan_shards`` hook is where the pool plugs in).

Sources are declarative documents so cache keys cover them:

* ``{"kind": "preset", "datacenter": ..., "scale": ..., "days": ...,
  "seed": ...}`` — a calibrated preset resolved through the shared
  ``trace-set`` sub-task,
* ``{"kind": "generated", ...}`` — the same preset parameters, but each
  worker synthesizes *only its own rows* through the array engine's
  ``vm_range`` (bit-identical to the full fleet's rows by construction),
  so per-shard generation cost is proportional to the shard,
* ``{"kind": "chunked", "path": ...}`` — a chunked store directory
  (:mod:`repro.workloads.chunked`); the manifest's content hash is
  pinned into the task params so a rewritten store can never satisfy a
  stale cache entry.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Mapping, Optional, Sequence, Tuple, Union

from repro.core.base import PlanningConfig, PlanningContext
from repro.core.dynamic import DynamicConsolidation
from repro.core.planner import split_window
from repro.emulator.schedule import PlacementSchedule
from repro.exceptions import ConfigurationError
from repro.infrastructure.datacenter import Datacenter, build_target_pool
from repro.runner.registry import RunnerContext, register_task_kind
from repro.runner.runner import ExperimentRunner, RunReport
from repro.runner.task import ExperimentTask
from repro.runner.tasks import trace_task
from repro.sharding.partition import ShardSpec
from repro.sharding.planner import ShardedConsolidation, ShardedPlanReport
from repro.workloads.chunked import MANIFEST_NAME, open_chunked_trace_set
from repro.workloads.trace import TraceSet

__all__ = [
    "KIND_SHARD_PLAN",
    "ShardedPlanRun",
    "chunked_source",
    "generated_source",
    "preset_source",
    "run_sharded_plan",
    "shard_plan_task",
]

KIND_SHARD_PLAN = "shard-plan"


# ----------------------------------------------------------------------
# Source documents

def preset_source(
    datacenter: str,
    *,
    scale: float,
    days: int = 30,
    seed: Optional[int] = None,
) -> Dict[str, object]:
    """Source document for a calibrated datacenter preset."""
    return {
        "kind": "preset",
        "datacenter": str(datacenter),
        "scale": float(scale),
        "days": int(days),
        "seed": None if seed is None else int(seed),
    }


def generated_source(
    datacenter: str,
    *,
    scale: float,
    days: int = 30,
    seed: Optional[int] = None,
) -> Dict[str, object]:
    """Source document generating each shard's rows on demand.

    Same parameters as :func:`preset_source`, different resolution: a
    shard worker calls the array engine with its ``vm_range`` and
    synthesizes only its own rows — bit-identical to the matching rows
    of the full fleet, per-VM streams being keyed by global index.  No
    worker ever generates (or caches) the whole fleet, which is the
    difference that matters at 100k servers.
    """
    return {
        "kind": "generated",
        "datacenter": str(datacenter),
        "scale": float(scale),
        "days": int(days),
        "seed": None if seed is None else int(seed),
    }


def chunked_source(directory: Union[str, Path]) -> Dict[str, object]:
    """Source document for a chunked on-disk store.

    The manifest hash rides in the document: it addresses the store's
    *content*, since the manifest holds the VM roster, the geometry and
    a SHA-256 of every matrix's bytes.  Shard-task cache entries are
    therefore invalidated when the store is rewritten with other data,
    and never by a mere path change.
    """
    path = Path(directory)
    manifest = path / MANIFEST_NAME
    if not manifest.is_file():
        raise ConfigurationError(f"no chunked store at {path}")
    return {
        "kind": "chunked",
        "path": str(path),
        "fingerprint": hashlib.sha256(manifest.read_bytes()).hexdigest(),
    }


def _resolve_shard_traces(
    source: Mapping[str, object],
    vm_start: int,
    vm_stop: int,
    ctx: RunnerContext,
) -> TraceSet:
    """A shard's VM rows as a trace set, through the shared cache."""
    kind = source.get("kind")
    if kind == "chunked":
        return open_chunked_trace_set(
            str(source["path"]), start=vm_start, stop=vm_stop
        )
    if kind == "generated":
        from repro.workloads.datacenters import generate_datacenter

        seed = source.get("seed")
        return generate_datacenter(
            str(source["datacenter"]),
            scale=float(source["scale"]),  # type: ignore[arg-type]
            days=int(source["days"]),  # type: ignore[arg-type]
            seed=None if seed is None else int(seed),  # type: ignore[arg-type]
            vm_range=(vm_start, vm_stop),
        )
    if kind == "preset":
        seed = source.get("seed")
        task = trace_task(
            str(source["datacenter"]),
            scale=float(source["scale"]),  # type: ignore[arg-type]
            days=int(source["days"]),  # type: ignore[arg-type]
            seed=None if seed is None else int(seed),  # type: ignore[arg-type]
        )
        full = ctx.run_task(task)
        assert isinstance(full, TraceSet)
        return full.subset(full.vm_ids[vm_start:vm_stop])
    raise ConfigurationError(
        f"unknown trace source kind {kind!r}; expected 'preset', "
        "'generated', or 'chunked'"
    )


# ----------------------------------------------------------------------
# Task factory + executor

def shard_plan_task(
    source: Mapping[str, object],
    shard: ShardSpec,
    *,
    pool_name: str,
    pool_hosts: int,
    hosts_per_rack: int = 14,
    utilization_bound: float = 0.8,
    interval_hours: float = 2.0,
    evaluation_days: int = 14,
) -> ExperimentTask:
    """Task planning one shard of a sharded consolidation run.

    The shard geometry travels as the VM row range plus the explicit
    host-id list — everything a worker needs to rebuild exactly the
    sub-problem :func:`repro.sharding.planner.shard_context` would hand
    an in-process shard.
    """
    return ExperimentTask(
        kind=KIND_SHARD_PLAN,
        params={
            "source": dict(source),
            "vm_start": int(shard.vm_start),
            "vm_stop": int(shard.vm_stop),
            "host_ids": list(shard.host_ids),
            "pool_name": str(pool_name),
            "pool_hosts": int(pool_hosts),
            "hosts_per_rack": int(hosts_per_rack),
            "utilization_bound": float(utilization_bound),
            "interval_hours": float(interval_hours),
            "evaluation_days": int(evaluation_days),
        },
        label=f"shard-plan:{shard.index}[{shard.vm_start}:{shard.vm_stop}]",
    )


@register_task_kind(KIND_SHARD_PLAN)
def _execute_shard_plan(
    params: Mapping[str, object], ctx: RunnerContext
) -> PlacementSchedule:
    traces = _resolve_shard_traces(
        params["source"],  # type: ignore[arg-type]
        int(params["vm_start"]),  # type: ignore[arg-type]
        int(params["vm_stop"]),  # type: ignore[arg-type]
        ctx,
    )
    history, evaluation = split_window(
        traces, int(params["evaluation_days"])  # type: ignore[arg-type]
    )
    pool = build_target_pool(
        str(params["pool_name"]),
        host_count=int(params["pool_hosts"]),  # type: ignore[arg-type]
        hosts_per_rack=int(params["hosts_per_rack"]),  # type: ignore[arg-type]
    )
    datacenter = Datacenter(name=f"{params['pool_name']}-shard")
    for host_id in params["host_ids"]:  # type: ignore[union-attr]
        datacenter.add_host(pool.host(str(host_id)))
    context = PlanningContext(
        history=history,
        evaluation=evaluation,
        datacenter=datacenter,
        config=PlanningConfig(
            utilization_bound=float(params["utilization_bound"]),  # type: ignore[arg-type]
            interval_hours=float(params["interval_hours"]),  # type: ignore[arg-type]
        ),
    )
    return DynamicConsolidation().plan(context)


# ----------------------------------------------------------------------
# Orchestrator

@dataclass(frozen=True)
class ShardedPlanRun:
    """Everything one :func:`run_sharded_plan` call produced."""

    schedule: PlacementSchedule
    report: ShardedPlanReport
    run_report: RunReport


def run_sharded_plan(
    source: Mapping[str, object],
    *,
    n_shards: int,
    pool_hosts: int,
    hosts_per_rack: int = 14,
    pool_name: str = "pool",
    by: str = "rack",
    utilization_bound: float = 0.8,
    interval_hours: float = 2.0,
    evaluation_days: int = 14,
    reconcile: bool = True,
    fill_threshold: float = 0.5,
    max_reconcile_sweeps: int = 2,
    runner: Optional[ExperimentRunner] = None,
) -> ShardedPlanRun:
    """Plan a fleet sharded across the runner's process pool.

    The parent resolves the fleet once (for chunked sources: memory-
    mapped, nothing resident), partitions it, and submits one
    ``shard-plan`` task per shard; merge and cross-shard reconciliation
    then run in the parent on the pooled results.  Serial runners give
    the same schedule as parallel ones — shard tasks are pure and
    results come back in input order.
    """
    if runner is None:
        runner = ExperimentRunner()
    if source.get("kind") == "chunked":
        traces = open_chunked_trace_set(str(source["path"]))
    else:
        # "preset" and "generated" resolve identically in the parent —
        # the full fleet through the array engine; they differ only in
        # how workers resolve their rows.
        from repro.workloads.datacenters import generate_datacenter

        seed = source.get("seed")
        traces = generate_datacenter(
            str(source["datacenter"]),
            scale=float(source["scale"]),  # type: ignore[arg-type]
            days=int(source["days"]),  # type: ignore[arg-type]
            seed=None if seed is None else int(seed),  # type: ignore[arg-type]
        )
    history, evaluation = split_window(traces, evaluation_days)
    pool = build_target_pool(
        pool_name, host_count=pool_hosts, hosts_per_rack=hosts_per_rack
    )
    context = PlanningContext(
        history=history,
        evaluation=evaluation,
        datacenter=pool,
        config=PlanningConfig(
            utilization_bound=utilization_bound,
            interval_hours=interval_hours,
        ),
    )

    captured: Dict[str, RunReport] = {}

    def fan_out(
        shards: Tuple[ShardSpec, ...], _context: PlanningContext
    ) -> Sequence[PlacementSchedule]:
        tasks = [
            shard_plan_task(
                source,
                shard,
                pool_name=pool_name,
                pool_hosts=pool_hosts,
                hosts_per_rack=hosts_per_rack,
                utilization_bound=utilization_bound,
                interval_hours=interval_hours,
                evaluation_days=evaluation_days,
            )
            for shard in shards
        ]
        report = runner.run(tasks)
        captured["run"] = report
        schedules = []
        for task, result in zip(tasks, report.results):
            if not isinstance(result, PlacementSchedule):
                raise ConfigurationError(
                    f"{task.name} returned {type(result).__name__}, "
                    "expected PlacementSchedule"
                )
            schedules.append(result)
        return schedules

    algorithm = ShardedConsolidation(
        n_shards=n_shards,
        by=by,
        reconcile=reconcile,
        fill_threshold=fill_threshold,
        max_reconcile_sweeps=max_reconcile_sweeps,
        plan_shards=fan_out,
    )
    schedule = algorithm.plan(context)
    assert algorithm.last_report is not None
    return ShardedPlanRun(
        schedule=schedule,
        report=algorithm.last_report,
        run_report=captured["run"],
    )
