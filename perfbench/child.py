"""One measured run of one workload, in a process of its own.

``run.py`` starts this script once per measurement with the pinned
environment; it prints one JSON object on its last stdout line.  The
spawn time comes from the parent (``CLOCK_MONOTONIC`` is system-wide),
so ``setup_s`` covers interpreter start, imports, input generation and
the fast paths' first-use verification, up to the first timed call.

An untraced run also samples the host's speed (``HostSpeed``) and
reports ``setup_s`` and ``time_to_result_s`` scaled to a host of fixed
speed, next to the plain wall times ``wall_setup_s`` and
``wall_time_to_result_s``.

Usage::

    python3 perfbench/child.py --workload NAME --seed N --spawned T \
        --workdir DIR [--spans FILE]
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import statistics
import time
from pathlib import Path
from typing import List, Tuple

#: How long the probe loop takes on the reference host.  A time scaled
#: by ``HostSpeed`` reads as if the whole run had gone at that speed.
REFERENCE_PROBE_S = 200e-6
#: Wall time between two probes.
PROBE_PERIOD_S = 0.05


def _probe_loop() -> int:
    """A fixed pure-Python loop of about 0.2 ms: integer and dict work."""
    total = 0
    table = {}
    for i in range(1000):
        total += i * i % 7
        table[i & 255] = total
    return total


class HostSpeed:
    """Samples how fast this process's CPU runs, while the workload runs.

    The shared host's speed drifts by a third within seconds (other
    tenants), and that drift, not the program, dominated the spread of
    plain wall times.  Every ``PROBE_PERIOD_S`` of wall time a SIGALRM
    runs ``_probe_loop`` in the main thread and records how long it
    took.  A stretch of wall time then counts as ``REFERENCE_PROBE_S``
    / probe time reference seconds: the work done is the same, the
    speed it ran at is divided out.  The probes' own time is taken out
    of the stretch first.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.spent = 0.0

    def _sample(self, signum: int, frame: object) -> None:
        start = time.perf_counter()
        _probe_loop()
        took = time.perf_counter() - start
        self.samples.append(took)
        self.spent += took

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> Tuple[int, float]:
        return len(self.samples), self.spent

    def scale(
        self, wall: float, first: Tuple[int, float], last: Tuple[int, float]
    ) -> Tuple[float, float, float]:
        """Wall time between two marks: (own wall s, speed, reference s).

        ``speed`` is the mean of ``REFERENCE_PROBE_S`` / probe time over
        the probes taken between the marks; above 1 the host ran faster
        than the reference host.
        """
        samples = self.samples[first[0] : last[0]]
        if not samples:
            raise RuntimeError(f"no host-speed probe in {wall:.3f} s")
        own = wall - (last[1] - first[1])
        speed = statistics.fmean(REFERENCE_PROBE_S / s for s in samples)
        return own, speed, own * speed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument(
        "--spawned",
        type=float,
        default=time.monotonic(),
        help="CLOCK_MONOTONIC reading taken just before this process started",
    )
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--spans", type=Path, default=None)
    parser.add_argument("--prime", action="store_true")
    args = parser.parse_args()

    speed = None
    if args.spans is None and not args.prime:
        speed = HostSpeed()
        speed.start()

    import pipeline

    if args.prime:
        pipeline.prime()
        print(json.dumps({"primed": True}))
        return 0

    recorder = None
    if args.spans is not None:
        import spans

        recorder = spans.Recorder()
        spans.install(recorder)
        recorder.active = True

    args.workdir.mkdir(parents=True, exist_ok=True)
    workload = pipeline.WORKLOADS[args.workload](args.seed, args.workdir)
    try:
        workload.setup()
        if recorder is not None:
            recorder.counts.clear()  # counters cover the timed region only
        begin = time.perf_counter()
        setup_s = time.monotonic() - args.spawned
        begin_mark = speed.mark() if speed else None
        workload.run()
        finish = time.perf_counter()
        if speed is not None:
            finish_mark = speed.mark()
            speed.stop()
        if recorder is not None:
            recorder.active = False
        time_to_result_s = finish - begin
        scaled = {}
        if speed is not None:
            _, _, scaled["setup_s"] = speed.scale(setup_s, (0, 0.0), begin_mark)
            time_to_result_s, scaled["host_speed"], scaled["time_to_result_s"] = (
                speed.scale(time_to_result_s, begin_mark, finish_mark)
            )
        violations = workload.violations()
        result = {
            "workload": args.workload,
            "seed": args.seed,
            "wall_setup_s": setup_s,
            "wall_time_to_result_s": time_to_result_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            / 1024.0,
            "attempted": workload.attempted,
            "failed": workload.failed,
            "violations": violations,
            "quality": workload.quality(),
            "timing": workload.timing(time_to_result_s),
            **scaled,
        }
        if recorder is not None:
            layers = spans.layer_metrics(recorder, (begin, finish))
            layers.update(workload.counts())
            layers["bench.setup_s"] = setup_s
            result["layers"] = layers
            spans.write_spans(
                recorder,
                args.spans,
                {
                    "workload": args.workload,
                    "seed": args.seed,
                    "timed_region": [begin, finish],
                    "columns": ["id", "name", "start", "end", "parent"],
                },
            )
    finally:
        if speed is not None:
            speed.stop()
        workload.close()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
