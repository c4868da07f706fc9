"""The three benchmark workloads: set-up, timed region, checks, metrics.

Each workload is a class with the same life cycle, driven by
``child.py`` in a fresh process:

``setup()``
    Build every input from the seed (traces, chunked store, feed,
    bootstrap).  Counted in ``setup_s``.
``run()``
    The timed region (``time_to_result_s``).
``violations()``
    Correctness checks on the outputs; an empty list means correct.
``quality()``
    The deterministic quality metrics (energy, active hosts,
    migrations, contention).  They repeat exactly for a seed.
``counts()``
    Per-layer work counts read from the program's own reports.

The program receives only the generated inputs; the seed never reaches
a planner or the controller except through the data it generated.
"""

from __future__ import annotations

import shutil
import statistics
import time
import traceback
from pathlib import Path
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

from repro.core.incremental import IncrementalPlan
from repro.core.planner import ConsolidationPlanner, split_window
from repro.emulator.emulator import ConsolidationEmulator
from repro.emulator.results import EmulationResult
from repro.emulator.schedule import PlacementSchedule, ScheduledPlacement
from repro.exceptions import ServiceError
from repro.experiments.comparison import default_algorithms
from repro.experiments.settings import ExperimentSettings
from repro.infrastructure.datacenter import build_target_pool
from repro.placement.plan import Placement
from repro.runner import ExperimentRunner
from repro.service.clock import MonotonicClock
from repro.service.controller import (
    ConsolidationController,
    ControllerConfig,
    MonitoringSample,
)
from repro.service.harness import FaultInjector, FaultSpec, ScriptedFeed
from repro.sharding import chunked_source, run_sharded_plan
from repro.workloads import datacenters
from repro.workloads.chunked import open_chunked_trace_set
from repro.workloads.rolling import RollingTraceStore

__all__ = ["WORKLOADS", "prime"]

#: Paper split (Table 3): 16-day plan, 14-day evaluation, 2 h intervals.
DAYS = 30
EVALUATION_DAYS = 14
BANKING_SERVERS = 816


def prime() -> None:
    """Compile and verify the generation fast paths once, untimed.

    The compiled kernel lands in ``$XDG_CACHE_HOME``; later processes
    only load and re-verify it, which is part of their set-up.
    """
    datacenters.generate_datacenter("banking", scale=0.02, days=2, seed=1)


def _quantile(values: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), 100.0 * q))


def _mean_active_hosts(schedule: PlacementSchedule) -> float:
    """Hour-weighted mean of active hosts over the schedule's segments."""
    hours = np.array([s.duration_hours for s in schedule.segments])
    active = np.array(
        [s.placement.active_host_count for s in schedule.segments]
    )
    return float((hours * active).sum() / hours.sum())


def _schedule_violations(
    label: str,
    schedule: PlacementSchedule,
    roster: Sequence[str],
    pool_hosts: frozenset,
    end_hour: float,
) -> List[str]:
    """Every segment places every roster VM exactly once, on a pool host."""
    problems: List[str] = []
    if schedule.start_hour != 0 or schedule.end_hour != end_hour:
        problems.append(
            f"{label}: schedule covers [{schedule.start_hour}, "
            f"{schedule.end_hour}), expected [0, {end_hour})"
        )
    expected = set(roster)
    for index, segment in enumerate(schedule.segments):
        assignment = segment.placement.assignment
        if len(assignment) != len(roster) or set(assignment) != expected:
            problems.append(
                f"{label}: segment {index} places {len(assignment)} VMs, "
                f"expected the {len(roster)}-VM roster"
            )
            break
        stray = set(assignment.values()) - pool_hosts
        if stray:
            problems.append(
                f"{label}: segment {index} uses non-pool hosts "
                f"{sorted(stray)[:3]}"
            )
            break
    return problems


def _pooled_quality(results: Sequence[EmulationResult]) -> Dict[str, float]:
    """Quality over several emulations: sums, and pooled contention."""
    if not results:
        return {}
    contended = sum(
        r.contention_time_fraction() * r.cpu_demand.size for r in results
    )
    host_hours = sum(r.cpu_demand.size for r in results)
    return {
        "energy_kwh": float(sum(r.energy_kwh for r in results)),
        "active_hosts_mean": float(
            statistics.fmean(_mean_active_hosts(r.schedule) for r in results)
        ),
        "migrations": float(sum(r.total_migrations() for r in results)),
        "contention_pct": 100.0 * contended / host_hours,
    }


class Workload:
    """Defaults for the optional parts of a workload's life cycle."""

    def counts(self) -> Dict[str, float]:
        return {}

    def timing(self, time_to_result_s: float) -> Dict[str, float]:
        return {}

    def close(self) -> None:
        pass


class PaperGrid(Workload):
    """The paper's Section-5 experiment over its four datacenters."""

    name = "paper-grid"

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.settings = ExperimentSettings(scale=1.0)
        self.planners: List[ConsolidationPlanner] = []
        self.results: List[Tuple[ConsolidationPlanner, EmulationResult]] = []
        self.attempted = 0
        self.failed = 0

    def setup(self) -> None:
        for config in datacenters.ALL_DATACENTERS:
            # Seed 0 is the paper's preset realization of each datacenter.
            traces = datacenters.generate_datacenter(
                config.key, scale=1.0, days=DAYS, seed=config.seed + self.seed
            )
            self.planners.append(
                ConsolidationPlanner(
                    traces=traces,
                    datacenter=self.settings.build_pool(traces),
                    config=self.settings.planning_config(),
                    evaluation_days=self.settings.evaluation_days,
                )
            )

    def run(self) -> None:
        for planner in self.planners:
            for algorithm in default_algorithms():
                self.attempted += 1
                try:
                    self.results.append((planner, planner.run(algorithm)))
                except Exception:  # counted; the checks then fail the run
                    self.failed += 1
                    traceback.print_exc()

    def violations(self) -> List[str]:
        problems: List[str] = []
        if len(self.results) != self.attempted:
            problems.append(
                f"{self.attempted - len(self.results)} plan/emulate calls raised"
            )
        for planner, result in self.results:
            context = planner.context
            problems += _schedule_violations(
                f"{planner.traces.name}/{result.scheme}",
                result.schedule,
                context.evaluation.vm_ids,
                frozenset(h.host_id for h in context.datacenter.hosts),
                EVALUATION_DAYS * 24,
            )
        return problems

    def quality(self) -> Dict[str, float]:
        return _pooled_quality([r for _, r in self.results])


class ShardedFleet(Workload):
    """One banking-calibrated fleet planned in 8 shards, then emulated.

    ~312 VMs per shard, the shard size of a 5,000-server, 16-shard plan,
    at half the fleet so that one run fits three times in a measurement.
    """

    name = "sharded-fleet"
    n_servers = 2500
    n_shards = 8
    pool_hosts = 1250

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.store_dir = workdir / "store"
        self.run_result = None
        self.result: "EmulationResult | None" = None
        self.roster: Tuple[str, ...] = ()
        self.pool_ids: frozenset = frozenset()
        self.attempted = 0
        self.failed = 0

    def setup(self) -> None:
        datacenters.generate_datacenter_chunked(
            "banking",
            self.store_dir,
            scale=self.n_servers / BANKING_SERVERS,
            days=DAYS,
            seed=self.seed,
        )
        self.source = chunked_source(self.store_dir)
        # The emulator's input: the evaluation window, as run_sharded_plan
        # splits it.
        traces = open_chunked_trace_set(self.store_dir)
        _, self.evaluation = split_window(traces, EVALUATION_DAYS)
        self.roster = self.evaluation.vm_ids

    def run(self) -> None:
        self.attempted += 1
        try:
            self.run_result = run_sharded_plan(
                self.source,
                n_shards=self.n_shards,
                pool_hosts=self.pool_hosts,
                evaluation_days=EVALUATION_DAYS,
                runner=ExperimentRunner(serial=True, use_cache=False),
            )
        except Exception:
            self.failed += 1
            traceback.print_exc()
            return
        self.attempted += 1
        try:
            pool = build_target_pool("pool", self.pool_hosts)
            self.pool_ids = frozenset(h.host_id for h in pool.hosts)
            self.result = ConsolidationEmulator(
                trace_set=self.evaluation, datacenter=pool
            ).evaluate(self.run_result.schedule, scheme="sharded-dynamic")
        except Exception:
            self.failed += 1
            traceback.print_exc()

    def violations(self) -> List[str]:
        if self.result is None:
            return ["the sharded plan or its emulation raised"]
        schedule = self.run_result.schedule
        problems = _schedule_violations(
            self.name,
            schedule,
            self.roster,
            self.pool_ids,
            EVALUATION_DAYS * 24,
        )
        interval = 2.0
        expected = [
            (i * interval, (i + 1) * interval)
            for i in range(int(EVALUATION_DAYS * 24 / interval))
        ]
        got = [(s.start_hour, s.end_hour) for s in schedule.segments]
        if got != expected:
            problems.append(
                f"{self.name}: {len(got)} segments do not tile the window "
                f"in {interval:g} h intervals"
            )
        return problems

    def quality(self) -> Dict[str, float]:
        return _pooled_quality([self.result] if self.result else [])

    def counts(self) -> Dict[str, float]:
        if self.run_result is None:
            return {}
        report = self.run_result.report
        stats = self.run_result.run_report.stats
        task_seconds = [s.seconds for s in stats]
        freed = sum(report.active_hosts_before) - sum(report.active_hosts_after)
        return {
            "workloads.chunked_bytes": float(
                sum(p.stat().st_size for p in self.store_dir.rglob("*"))
            ),
            "sharding.reconcile_moves": float(report.reconcile_moves),
            "sharding.hosts_freed": float(freed),
            "sharding.moves_per_host_freed": (
                report.reconcile_moves / freed if freed else 0.0
            ),
            "runner.task_s": float(sum(task_seconds)),
            "runner.tasks": float(len(stats)),
            "runner.parallel_bound": sum(task_seconds) / max(task_seconds),
        }

    def close(self) -> None:
        shutil.rmtree(self.store_dir, ignore_errors=True)


class ControllerStream(Workload):
    """Closed-loop replay of four weeks of hourly ticks through the service.

    One caller delivers a tick's samples, flushes, replans and only then
    moves to the next tick.  The first 48 h seed the rolling store and
    the remaining 672 hourly ticks are replayed, so 33 ticks lie beyond
    the 95th latency percentile.
    """

    name = "controller-stream"
    warmup_hours = 48
    replay_hours = DAYS * 24 - warmup_hours
    retention_points = 168
    pool_hosts = 408

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.latencies: List[float] = []
        self.reports = []
        self.snapshots: List[List[int]] = []
        self.delivered = 0
        self.rejected = 0
        self.errors = 0
        self.result: "EmulationResult | None" = None

    def setup(self) -> None:
        traces = datacenters.generate_datacenter(
            "banking",
            scale=1.0,
            days=(self.warmup_hours + self.replay_hours) // 24,
            seed=self.seed,
        )
        store = traces.store
        warm = self.warmup_hours
        rolling = RollingTraceStore(
            store.vm_ids,
            [trace.source_spec.cpu_rpe2 for trace in traces],
            interval_hours=store.interval_hours,
            retention_points=self.retention_points,
        )
        rolling.append_samples(store.cpu_util[:, :warm], store.memory_gb[:, :warm])
        self.pool = build_target_pool("pool", self.pool_hosts)
        self.controller = ConsolidationController(
            list(self.pool.hosts),
            rolling,
            config=ControllerConfig(utilization_bound=0.8),
            clock=MonotonicClock(),
        )
        self.controller.bootstrap()
        feed = ScriptedFeed(
            store.vm_ids,
            store.cpu_util[:, warm:],
            store.memory_gb[:, warm:],
            start_tick=warm,
        )
        injector = FaultInjector(
            FaultSpec(
                drop_rate=0.02,
                duplicate_rate=0.02,
                delay_rate=0.02,
                seed=self.seed,
            )
        )
        # Samples still delayed after the last tick are never delivered.
        self.batches = [injector.mangle(batch) for batch in feed.batches()]
        self.evaluation = traces.window(warm, traces.duration_hours)

    def run(self) -> None:
        controller = self.controller
        clock = time.perf_counter
        for batch in self.batches:
            self.snapshots.append(list(controller.plan.assignment_rows))
            started = clock()
            self.deliver(batch)
            try:
                controller.flush_pending()
                self.reports.append(controller.replan_cycle())
            except Exception:  # counted; the checks then fail the run
                self.errors += 1
                traceback.print_exc()
            self.latencies.append(clock() - started)
            self.delivered += len(batch)

    def deliver(self, batch: Sequence[MonitoringSample]) -> None:
        """One tick's samples, one ``ingest`` call each, in feed order."""
        ingest = self.controller.ingest
        for sample in batch:
            try:
                ingest(sample)
            except ServiceError:
                self.rejected += 1
            except Exception:
                self.errors += 1
                traceback.print_exc()

    @property
    def attempted(self) -> int:
        return self.delivered

    @property
    def failed(self) -> int:
        stats = self.controller.stats
        return (
            self.rejected
            + self.errors
            + stats.placement_failures
            + stats.detector_errors
            + stats.deadline_aborts
        )

    def _schedule(self) -> PlacementSchedule:
        """The controller's decisions as hourly segments.

        Hour ``i`` runs on the assignment in force when tick ``i``
        arrived; runs of identical assignments share one segment.
        """
        host_ids = self.controller.caps.host_ids
        vm_ids = self.controller.plan.vm_ids
        segments: List[ScheduledPlacement] = []
        start = 0
        for hour in range(1, len(self.snapshots) + 1):
            if (
                hour < len(self.snapshots)
                and self.snapshots[hour] == self.snapshots[start]
            ):
                continue
            rows = self.snapshots[start]
            segments.append(
                ScheduledPlacement(
                    placement=Placement(
                        assignment={
                            vm: host_ids[row] for vm, row in zip(vm_ids, rows)
                        }
                    ),
                    start_hour=float(start),
                    end_hour=float(hour),
                )
            )
            start = hour
        return PlacementSchedule(segments=tuple(segments))

    def violations(self) -> List[str]:
        """Plan checks; a consistent replay is then emulated for quality()."""
        problems: List[str] = []
        if self.errors:
            problems.append(f"{self.name}: {self.errors} controller calls raised")
        if any(row < 0 for snapshot in self.snapshots for row in snapshot):
            problems.append(f"{self.name}: a VM was unassigned during the replay")
        plan = self.controller.plan
        if any(row < 0 for row in plan.assignment_rows):
            problems.append(f"{self.name}: a VM is unassigned at the end")
        rebuilt = IncrementalPlan.from_assignment(
            plan.caps,
            plan.vm_ids,
            plan.cpu,
            plan.mem,
            plan.assignment(),
            plan.net,
            plan.dsk,
        )
        for field in (
            "assignment_rows",
            "vm_rows_of_host",
            "body_cpu",
            "body_mem",
            "body_net",
            "body_dsk",
        ):
            if getattr(plan, field) != getattr(rebuilt, field):
                problems.append(
                    f"{self.name}: live plan {field} differs from its "
                    "from_assignment rebuild"
                )
        if not problems:
            schedule = self._schedule()
            try:
                self.result = ConsolidationEmulator(
                    trace_set=self.evaluation, datacenter=self.pool
                ).evaluate(schedule, scheme="controller")
            except Exception:
                traceback.print_exc()
                return [f"{self.name}: emulating the replay raised"]
            problems += _schedule_violations(
                self.name,
                schedule,
                plan.vm_ids,
                frozenset(plan.caps.host_ids),
                float(len(self.batches)),
            )
        return problems

    def quality(self) -> Dict[str, float]:
        if self.result is None:
            return {}
        pooled = _pooled_quality([self.result])
        pooled["active_hosts_mean"] = statistics.fmean(
            len(set(snapshot)) for snapshot in self.snapshots
        )
        pooled["migrations"] = float(self.controller.stats.migrations_total)
        return pooled

    def timing(self, time_to_result_s: float) -> Dict[str, float]:
        """Per-tick latency and ingest rate of the replay."""
        return {
            "cycle_p50_ms": 1e3 * _quantile(self.latencies, 0.50),
            "cycle_p95_ms": 1e3 * _quantile(self.latencies, 0.95),
            "cycles": float(len(self.latencies)),
            "samples_per_s": self.delivered / time_to_result_s,
        }

    def counts(self) -> Dict[str, float]:
        stats = self.controller.stats
        vacates = sum(len(r.underloaded_hosts) for r in self.reports)
        return {
            "workloads.rolling_compactions": float(
                self.controller.store.n_compactions
            ),
            "service.ingest_calls": float(self.delivered),
            "service.replan_calls": float(len(self.reports)),
            "service.hosts_flagged": float(
                sum(
                    len(r.overloaded_hosts) + len(r.underloaded_hosts)
                    for r in self.reports
                )
            ),
            "service.touched_hosts": float(
                sum(len(r.touched_hosts) for r in self.reports)
            ),
            "service.duplicates_ignored": float(stats.duplicates_ignored),
            "service.late_dropped": float(stats.late_dropped),
            "service.gaps_filled": float(stats.gaps_filled),
            "service.vacate_failures": float(stats.vacate_failures),
            "service.vacate_success_ratio": (
                (vacates - stats.vacate_failures) / vacates if vacates else 0.0
            ),
        }


WORKLOADS: Mapping[str, type] = {
    cls.name: cls for cls in (PaperGrid, ShardedFleet, ControllerStream)
}
