"""Span recording around the program's public layer calls.

The benchmark wraps each layer's public functions from here, with no
change to the program: a wrapped call records one span (name, start,
end, parent) in memory, and a few very hot calls only bump a counter.
Spans are written out once, when the process ends.

A span's *self time* is its duration minus the time its child spans
cover.  Children are strictly nested (one thread), so that is the
duration minus the sum of the children's durations.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

__all__ = ["Recorder", "install", "layer_metrics", "write_spans"]

#: (module, attribute path, span name).  Each public call gets a span.
SPANNED: Tuple[Tuple[str, str, str], ...] = (
    ("repro.workloads.datacenters", "generate_datacenter", "workloads.generate"),
    (
        "repro.workloads.datacenters",
        "generate_datacenter_chunked",
        "workloads.generate",
    ),
    (
        "repro.workloads.rolling",
        "RollingTraceStore.append_samples",
        "workloads.rolling_append",
    ),
    (
        "repro.workloads.chunked",
        "open_chunked_trace_set",
        "workloads.open_chunked",
    ),
    ("repro.core.planner", "split_window", "core.split_window"),
    ("repro.sizing.prediction", "build_peak_table", "sizing.peak_table"),
    ("repro.placement.binpacking", "pack", "placement.pack"),
    (
        "repro.core.semistatic",
        "SemiStaticConsolidation.plan",
        "core.semistatic.plan",
    ),
    (
        "repro.core.stochastic",
        "StochasticConsolidation.plan",
        "core.stochastic.plan",
    ),
    ("repro.core.dynamic", "DynamicConsolidation.plan", "core.dynamic.plan"),
    (
        "repro.core.incremental",
        "IncrementalPlan.from_assignment",
        "core.incremental.from_assignment",
    ),
    (
        "repro.emulator.emulator",
        "ConsolidationEmulator.evaluate",
        "emulator.evaluate",
    ),
    ("repro.sharding.partition", "partition_fleet", "sharding.partition"),
    ("repro.sharding.planner", "ShardedConsolidation.plan", "sharding.plan"),
    ("repro.sharding.planner", "merge_shard_schedules", "sharding.merge"),
    ("repro.sharding.planner", "build_demand_table", "sharding.demand_table"),
    (
        "repro.sharding.reconcile",
        "reconcile_assignment",
        "sharding.reconcile",
    ),
    ("repro.runner.runner", "ExperimentRunner.run", "runner.run"),
    # A tick's ingest calls share one span: a span per sample would
    # more than double the replay's time.
    ("pipeline", "ControllerStream.deliver", "service.ingest"),
    (
        "repro.service.controller",
        "ConsolidationController.flush_pending",
        "service.flush",
    ),
    (
        "repro.service.controller",
        "ConsolidationController.replan_cycle",
        "service.replan",
    ),
    (
        "repro.service.detectors",
        "MHODOverloadDetector.detect",
        "service.detect",
    ),
)

#: Calls too frequent for a span: only counted.
COUNTED: Tuple[Tuple[str, str, str], ...] = (
    (
        "repro.core.incremental",
        "IncrementalPlan.apply_delta",
        "core.incremental.apply_delta_calls",
    ),
    ("repro.migration.cost", "MigrationCostModel.cost_wh", "migration.cost_wh_calls"),
)


class Recorder:
    """Spans and counters of one process, kept in flat arrays."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.counts: Counter = Counter()
        self.active = False
        self._stack: List[int] = []

    def spanned(
        self,
        name: str,
        fn: Callable,
        on_result: Optional[Callable[[object], None]] = None,
    ) -> Callable:
        """``fn`` wrapped to record one span per call while active."""
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self._name_ids[name]
        stack, clock = self._stack, time.perf_counter
        name_id, start, end, parent = self.name_id, self.start, self.end, self.parent

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(index)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[index] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def counted(self, key: str, fn: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.active:
                counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def on_plan(self, schedule) -> None:
        self.counts["core.intervals"] += len(schedule)

    def on_evaluate(self, result) -> None:
        self.counts["emulator.host_hours"] += int(result.cpu_demand.size)


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *outer, attribute = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attribute


def _replace(owner, attribute: str, wrap: Callable[[Callable], Callable]) -> None:
    """Swap one function for its wrapper, everywhere it was imported."""
    if isinstance(owner, type):
        raw = owner.__dict__[attribute]
        if isinstance(raw, classmethod):
            setattr(owner, attribute, classmethod(wrap(raw.__func__)))
        else:
            setattr(owner, attribute, wrap(raw))
        return
    original = getattr(owner, attribute)
    wrapped = wrap(original)
    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", None)
        if (
            namespace is not None
            and getattr(module, "__name__", "").startswith("repro")
            and namespace.get(attribute) is original
        ):
            setattr(module, attribute, wrapped)


def install(recorder: Recorder) -> None:
    """Wrap every listed call; the recorder starts inactive."""
    hooks = {
        "core.semistatic.plan": recorder.on_plan,
        "core.stochastic.plan": recorder.on_plan,
        "core.dynamic.plan": recorder.on_plan,
        "emulator.evaluate": recorder.on_evaluate,
    }
    for module_name, path, name in SPANNED:
        owner, attribute = _resolve(module_name, path)
        _replace(
            owner,
            attribute,
            lambda fn, name=name: recorder.spanned(name, fn, hooks.get(name)),
        )
    for module_name, path, key in COUNTED:
        owner, attribute = _resolve(module_name, path)
        _replace(owner, attribute, lambda fn, key=key: recorder.counted(key, fn))


def _self_times(recorder: Recorder) -> Tuple[List[float], List[float]]:
    durations = [e - s for s, e in zip(recorder.start, recorder.end)]
    child = [0.0] * len(durations)
    for index, parent in enumerate(recorder.parent):
        if parent >= 0:
            child[parent] += durations[index]
    return durations, [d - c for d, c in zip(durations, child)]


#: Call counts and the span they count.
CALL_METRICS: Tuple[Tuple[str, str], ...] = (
    ("workloads.rolling_append_calls", "workloads.rolling_append"),
    ("sizing.peak_table_calls", "sizing.peak_table"),
    ("placement.pack_calls", "placement.pack"),
    ("core.dynamic.plan_calls", "core.dynamic.plan"),
    ("core.incremental.from_assignment_calls", "core.incremental.from_assignment"),
    ("emulator.evaluate_calls", "emulator.evaluate"),
    ("sharding.reconcile_calls", "sharding.reconcile"),
    ("service.detect_calls", "service.detect"),
)

#: Counters bumped by the wrappers themselves.
COUNTER_METRICS: Tuple[str, ...] = (
    "core.intervals",
    "core.incremental.apply_delta_calls",
    "migration.cost_wh_calls",
    "emulator.host_hours",
)


def layer_metrics(
    recorder: Recorder, region: Tuple[float, float]
) -> Dict[str, float]:
    """Self time and call count per layer, plus unattributed time.

    Only spans inside the timed ``region`` count, except generation,
    which only ever runs in set-up.  A dynamic plan under a sharded plan
    is a shard plan: its self time goes to ``sharding.shard_plan_s`` and
    not to ``core.dynamic.plan_s``, so no second is counted twice.
    """
    begin, finish = region
    durations, self_times = _self_times(recorder)
    names = recorder.names
    under_shard = [False] * len(durations)
    by_name: Dict[str, float] = Counter()
    calls: Dict[str, int] = Counter()
    shard_self: List[float] = []
    shard_total: List[float] = []
    top_level = 0.0
    for index, nid in enumerate(recorder.name_id):
        name, parent = names[nid], recorder.parent[index]
        if parent >= 0:
            under_shard[index] = under_shard[parent] or (
                names[recorder.name_id[parent]] == "sharding.plan"
            )
        timed = begin <= recorder.start[index] and recorder.end[index] <= finish
        if timed and parent < 0:
            top_level += durations[index]
        if not timed and name != "workloads.generate":
            continue
        calls[name] += 1
        if name == "core.dynamic.plan" and under_shard[index]:
            shard_self.append(self_times[index])
            shard_total.append(durations[index])
        else:
            by_name[name] += self_times[index]
    metrics: Dict[str, float] = {}
    for span in dict.fromkeys(name for _, _, name in SPANNED):
        metrics[f"{span}_s"] = float(by_name[span])
    for metric, span in CALL_METRICS:
        metrics[metric] = float(calls[span])
    for key in COUNTER_METRICS:
        metrics[key] = float(recorder.counts[key])
    metrics["sharding.shard_plan_s"] = float(sum(shard_self))
    metrics["sharding.shard_plan_max_s"] = float(max(shard_total, default=0.0))
    metrics["bench.unattributed_s"] = (finish - begin) - top_level
    return metrics


def write_spans(
    recorder: Recorder, path, header: Dict[str, object]
) -> None:
    """One JSON header line, then ``[id, name, start, end, parent]`` lines."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(header) + "\n")
        names = recorder.names
        for index, nid in enumerate(recorder.name_id):
            handle.write(
                json.dumps(
                    [
                        index,
                        names[nid],
                        recorder.start[index],
                        recorder.end[index],
                        recorder.parent[index],
                    ]
                )
                + "\n"
            )

