"""Array dynamic planner == retained scalar planner, schedule for schedule.

``DynamicConsolidation(engine="array")`` must reproduce the scalar
reference's every placement decision — same assignments in every
interval, hence the same migrations, host counts, and downstream
figures.  Covered across predictors, I/O sizing models, the migration
cost gate, and generated workload texture.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.core.dynamic_vector as dynamic_vector
from repro.constraints.affinity import AntiColocate
from repro.constraints.manager import ConstraintSet
from repro.core.base import PlanningConfig, PlanningContext
from repro.core.dynamic import DynamicConsolidation
from repro.core.powercap import PowerBudgetedConsolidation
from repro.exceptions import ConfigurationError
from repro.migration.cost import MigrationCostModel
from repro.sizing.network import DiskDemandModel, NetworkDemandModel
from repro.sizing.prediction import (
    EwmaPredictor,
    LastIntervalPredictor,
    OraclePredictor,
    PeriodicPeakPredictor,
)
from repro.workloads.trace import TraceSet
from tests.conftest import make_server_trace


def _context(small_pool, *, n_vms=14, days=4, config=None, seed=5):
    """Diurnal + noisy VMs so repack/vacate decisions actually trigger."""
    rng = np.random.default_rng(seed)
    hours = days * 24
    history = TraceSet(name="h")
    evaluation = TraceSet(name="e")
    for i in range(n_vms):
        util = np.full(hours, 0.05) + rng.uniform(0.0, 0.03, hours)
        for day in range(days):
            start = day * 24 + 8
            util[start:start + 10] += rng.uniform(0.3, 0.6)
        memory = np.full(hours, 1.0 + 0.02 * i) + rng.uniform(0, 0.2, hours)
        for ts, jitter in ((history, 0.0), (evaluation, 0.01)):
            ts.add(
                make_server_trace(
                    f"vm{i}", np.clip(util + jitter, 0, 1), memory,
                    cpu_rpe2=4000.0,
                )
            )
    return PlanningContext(
        history=history,
        evaluation=evaluation,
        datacenter=small_pool,
        config=config or PlanningConfig(),
    )


def _assert_schedules_identical(scalar, array):
    assert len(scalar) == len(array)
    for left, right in zip(scalar.segments, array.segments):
        assert left.placement.assignment == right.placement.assignment


@pytest.mark.parametrize(
    "predictor",
    [
        PeriodicPeakPredictor(),
        LastIntervalPredictor(),
        EwmaPredictor(),
        OraclePredictor(),
    ],
    ids=lambda p: type(p).__name__,
)
def test_engines_agree_across_predictors(small_pool, predictor) -> None:
    context = _context(small_pool)
    kwargs = {"predictor": predictor}
    if isinstance(predictor, OraclePredictor):
        kwargs["cpu_burst_factor"] = 1.0
    scalar = DynamicConsolidation(engine="scalar", **kwargs).plan(context)
    array = DynamicConsolidation(engine="array", **kwargs).plan(context)
    _assert_schedules_identical(scalar, array)


def test_engines_agree_with_io_models(small_pool) -> None:
    config = PlanningConfig(
        network=NetworkDemandModel(), disk=DiskDemandModel()
    )
    context = _context(small_pool, config=config)
    scalar = DynamicConsolidation(engine="scalar").plan(context)
    array = DynamicConsolidation(engine="array").plan(context)
    _assert_schedules_identical(scalar, array)


@pytest.mark.parametrize("consider_cost", [False, True])
def test_engines_agree_with_cost_gate(small_pool, consider_cost) -> None:
    context = _context(small_pool, seed=11)
    scalar = DynamicConsolidation(
        engine="scalar", consider_migration_cost=consider_cost
    ).plan(context)
    array = DynamicConsolidation(
        engine="array", consider_migration_cost=consider_cost
    ).plan(context)
    _assert_schedules_identical(scalar, array)


def test_auto_equals_scalar_reference(small_pool) -> None:
    """The default engine is the array path — pinned to the reference."""
    context = _context(small_pool, seed=23)
    auto = DynamicConsolidation().plan(context)
    scalar = DynamicConsolidation(engine="scalar").plan(context)
    _assert_schedules_identical(scalar, auto)


def test_generated_texture_agrees(small_pool, generated_trace_set) -> None:
    hours = generated_trace_set.n_points
    context = PlanningContext(
        history=generated_trace_set.window(0, hours // 3),
        evaluation=generated_trace_set.window(hours // 3, hours),
        datacenter=small_pool,
        config=PlanningConfig(),
    )
    scalar = DynamicConsolidation(engine="scalar").plan(context)
    array = DynamicConsolidation(engine="array").plan(context)
    _assert_schedules_identical(scalar, array)


def test_unknown_engine_rejected(small_pool) -> None:
    context = _context(small_pool, days=2)
    with pytest.raises(ConfigurationError):
        DynamicConsolidation(engine="gpu").plan(context)


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
        DynamicConsolidation(engine="array").plan(constrained)
    # auto falls back to the scalar path and still honours constraints.
    schedule = DynamicConsolidation().plan(constrained)
    for segment in schedule:
        assert segment.placement.host_of("vm0") != (
            segment.placement.host_of("vm1")
        )


def test_powercap_subclass_keeps_override_under_auto(small_pool) -> None:
    """auto must not route subclasses around their ``_place_interval``."""
    context = _context(small_pool, seed=31)
    budgeted_auto = PowerBudgetedConsolidation(budget_watts=2500.0)
    budgeted_scalar = PowerBudgetedConsolidation(
        budget_watts=2500.0, engine="scalar"
    )
    _assert_schedules_identical(
        budgeted_scalar.plan(context), budgeted_auto.plan(context)
    )


class _VacateSpy:
    """Records which array vacate paths run, sweep by sweep.

    Per planned interval a list of sweeps; per sweep the fit-index
    builds, committed vacates, and attempts the cost gate rejected (an
    attempt that priced its moves yet returned False — the gate runs
    only after every VM found a target).  ``resources`` collects how
    many resources each index build checked (4 once I/O is non-zero).
    """

    def __init__(self, monkeypatch) -> None:
        self.intervals: list = []
        self.resources: set = set()
        self.cost_calls = 0
        self._live = None
        spy = self
        vacate = dynamic_vector._vacate_intervals_hosts
        attempt = dynamic_vector._try_vacate_array
        fit_index = dynamic_vector._FitIndex
        cached_cost = DynamicConsolidation._cached_cost

        def spy_vacate(*args):
            spy.intervals.append([])
            spy._live = None
            return vacate(*args)

        class SpyIndex(fit_index):
            __slots__ = ()

            def __init__(self, caps, plan, live, resources, sources) -> None:
                # Each sweep scans a fresh ``live`` list; the spy keeps
                # a reference, so identity marks sweep boundaries.
                if live is not spy._live:
                    spy._live = live
                    spy.intervals[-1].append(
                        {"builds": 0, "commits": 0, "cost_rejects": 0}
                    )
                spy.intervals[-1][-1]["builds"] += 1
                spy.resources.add(len(resources))
                super().__init__(caps, plan, live, resources, sources)

        def spy_attempt(*args):
            priced = spy.cost_calls
            committed = attempt(*args)
            sweep = spy.intervals[-1][-1]
            if committed:
                sweep["commits"] += 1
            elif spy.cost_calls > priced:
                sweep["cost_rejects"] += 1
            return committed

        def spy_cost(algorithm, memory_gb):
            spy.cost_calls += 1
            return cached_cost(algorithm, memory_gb)

        for name, spy_fn in (
            ("_vacate_intervals_hosts", spy_vacate),
            ("_try_vacate_array", spy_attempt),
            ("_FitIndex", SpyIndex),
        ):
            monkeypatch.setattr(dynamic_vector, name, spy_fn)
        monkeypatch.setattr(DynamicConsolidation, "_cached_cost", spy_cost)

    @property
    def sweeps(self) -> list:
        return [sweep for interval in self.intervals for sweep in interval]


@pytest.mark.parametrize("seed, sla_cost", [(5, 3.0), (23, 3.5)])
def test_every_vacate_path_runs_and_agrees(
    small_pool, monkeypatch, seed, sla_cost
) -> None:
    """Index rebuilds, cost-gate rejects and I/O checks, pinned to scalar.

    A pricier SLA term makes the cost gate reject some attempts while
    cheaper vacates still commit, several per sweep, so the fit index is
    rebuilt mid-sweep and intervals run a second sweep.
    """
    config = PlanningConfig(
        network=NetworkDemandModel(), disk=DiskDemandModel()
    )
    context = _context(small_pool, n_vms=24, config=config, seed=seed)
    cost = MigrationCostModel(sla_cost_per_second=sla_cost)
    scalar = DynamicConsolidation(
        engine="scalar", migration_cost=cost
    ).plan(context)
    spy = _VacateSpy(monkeypatch)
    array = DynamicConsolidation(
        engine="array", migration_cost=cost
    ).plan(context)
    _assert_schedules_identical(scalar, array)

    sweeps = spy.sweeps
    assert spy.resources == {4}, "net/disk demands must reach the index"
    assert sum(sweep["cost_rejects"] for sweep in sweeps) >= 1
    assert max(sweep["commits"] for sweep in sweeps) >= 2
    assert max(sweep["builds"] for sweep in sweeps) >= 2
    assert max(len(interval) for interval in spy.intervals) >= 2
