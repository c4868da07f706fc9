"""Runner fan-out for sharded planning.

Pins the orchestration contract: a pooled (2-worker) sharded plan from
a chunked on-disk store equals the serial in-process plan from the
preset source — same partition, same schedules — and source documents
carry enough identity (manifest fingerprint) to keep the runner's
content-addressed cache honest.
"""

from __future__ import annotations

import pytest

from repro.exceptions import ConfigurationError
from repro.runner import ExperimentRunner
from repro.sharding import (
    KIND_SHARD_PLAN,
    chunked_source,
    generated_source,
    preset_source,
    run_sharded_plan,
    shard_plan_task,
)
from repro.sharding.partition import partition_fleet
from repro.workloads.chunked import write_trace_set
from repro.workloads.datacenters import generate_datacenter

_SCALE = 100 / 816
_DAYS = 4
_SEED = 23


@pytest.fixture(scope="module")
def small_traces():
    return generate_datacenter("banking", scale=_SCALE, days=_DAYS, seed=_SEED)


@pytest.fixture(scope="module")
def chunk_dir(small_traces, tmp_path_factory):
    directory = tmp_path_factory.mktemp("chunked-fleet")
    write_trace_set(small_traces, directory)
    return directory


def _run(source, runner, n_servers):
    return run_sharded_plan(
        source,
        n_shards=2,
        pool_hosts=max(4, n_servers // 2),
        pool_name="task-pool",
        evaluation_days=_DAYS - 2,
        runner=runner,
    )


class TestSourceDocuments:
    def test_preset_source_shape(self) -> None:
        source = preset_source("banking", scale=0.5, days=8, seed=3)
        assert source == {
            "kind": "preset",
            "datacenter": "banking",
            "scale": 0.5,
            "days": 8,
            "seed": 3,
        }

    def test_chunked_source_fingerprints_manifest(self, chunk_dir) -> None:
        source = chunked_source(chunk_dir)
        assert source["kind"] == "chunked"
        assert source["path"] == str(chunk_dir)
        assert len(source["fingerprint"]) == 64

    def test_chunked_source_requires_manifest(self, tmp_path) -> None:
        with pytest.raises(ConfigurationError, match="no chunked store"):
            chunked_source(tmp_path)

    def test_fingerprint_tracks_content(
        self, chunk_dir, small_traces, tmp_path
    ) -> None:
        rewritten = tmp_path / "copy"
        write_trace_set(small_traces.subset(small_traces.vm_ids[:10]), rewritten)
        assert (
            chunked_source(chunk_dir)["fingerprint"]
            != chunked_source(rewritten)["fingerprint"]
        )

    def test_fingerprint_covers_matrix_bytes(self, tmp_path) -> None:
        """Two seeds share roster and geometry but not demand bytes."""
        import json

        sources = []
        manifests = []
        for seed in (1, 2):
            directory = tmp_path / f"seed{seed}"
            write_trace_set(
                generate_datacenter("banking", scale=0.02, days=2, seed=seed),
                directory,
            )
            sources.append(chunked_source(directory))
            manifest = json.loads((directory / "manifest.json").read_text())
            manifest.pop("sha256")
            manifests.append(manifest)
        assert manifests[0] == manifests[1]
        assert sources[0]["fingerprint"] != sources[1]["fingerprint"]


class TestShardPlanTask:
    def test_task_identity(self, chunk_dir, small_traces) -> None:
        from repro.infrastructure.datacenter import build_target_pool

        pool = build_target_pool(
            "task-pool", host_count=len(small_traces) // 2
        )
        shard = partition_fleet(small_traces.vm_ids, pool, 2)[1]
        task = shard_plan_task(
            chunked_source(chunk_dir),
            shard,
            pool_name="task-pool",
            pool_hosts=len(small_traces) // 2,
        )
        assert task.kind == KIND_SHARD_PLAN
        assert task.params["vm_start"] == shard.vm_start
        assert task.params["vm_stop"] == shard.vm_stop
        assert task.params["host_ids"] == list(shard.host_ids)
        assert str(shard.index) in task.label


class TestRunShardedPlan:
    def test_chunked_pool_equals_preset_serial(
        self, chunk_dir, small_traces
    ) -> None:
        n = len(small_traces)
        pooled = _run(
            chunked_source(chunk_dir),
            ExperimentRunner(workers=2, use_cache=False),
            n,
        )
        serial = _run(
            preset_source("banking", scale=_SCALE, days=_DAYS, seed=_SEED),
            ExperimentRunner(serial=True, use_cache=False),
            n,
        )
        assert len(pooled.schedule) == len(serial.schedule)
        for left, right in zip(pooled.schedule, serial.schedule):
            assert left.placement.assignment == right.placement.assignment
        assert pooled.report.shards == serial.report.shards
        assert pooled.run_report.workers >= 1
        assert len(pooled.run_report.results) == pooled.report.n_shards

    def test_generated_source_equals_preset(self, small_traces) -> None:
        """Workers synthesizing only their own rows via the array
        engine's vm_range must reproduce the preset plan exactly."""
        n = len(small_traces)
        generated = _run(
            generated_source("banking", scale=_SCALE, days=_DAYS, seed=_SEED),
            ExperimentRunner(serial=True, use_cache=False),
            n,
        )
        preset = _run(
            preset_source("banking", scale=_SCALE, days=_DAYS, seed=_SEED),
            ExperimentRunner(serial=True, use_cache=False),
            n,
        )
        assert len(generated.schedule) == len(preset.schedule)
        for left, right in zip(generated.schedule, preset.schedule):
            assert left.placement.assignment == right.placement.assignment
        assert generated.report.shards == preset.report.shards

    def test_generated_source_document_shape(self) -> None:
        source = generated_source("banking", scale=0.5, days=8, seed=3)
        assert source == {
            "kind": "generated",
            "datacenter": "banking",
            "scale": 0.5,
            "days": 8,
            "seed": 3,
        }

    def test_run_records_reconciliation_report(self, chunk_dir, small_traces) -> None:
        run = _run(
            chunked_source(chunk_dir),
            ExperimentRunner(serial=True, use_cache=False),
            len(small_traces),
        )
        assert run.report.n_shards == 2
        assert run.report.reconcile_moves >= 0
        vm_ids = set(small_traces.vm_ids)
        for segment in run.schedule:
            assert segment.placement.assignment.keys() == vm_ids
