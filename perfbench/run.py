"""Pipeline benchmark: paper-grid, sharded-fleet and controller-stream.

Runs one workload (or ``all``) and prints every metric by name with its
unit; the last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  See ``perfbench/README.md``.

Each measurement is a fresh single-threaded process (``child.py``).
Without tracing, the workload is run again and again until ``--seconds``
would be exceeded (at least three times), and each end-to-end metric is
the median over those runs.  ``setup_s`` and ``time_to_result_s`` are
wall times scaled to a host of fixed speed (``child.HostSpeed``); the
plain wall times are printed beside them.  With ``--trace 1`` it runs once untraced
and once traced; the metrics are then the per-layer breakdown of the
traced run, and the quality metrics of both runs must be equal.

Usage::

    python3 perfbench/run.py --workload paper-grid --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --trace 1

Exits 1 when a correctness check fails (the JSON line then says
``"correct": false``) or a measured process dies or times out (no JSON
line), and 2 when the program's sources are not there.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

WORKLOADS = ("paper-grid", "sharded-fleet", "controller-stream")
#: Seeds used unless ``--seed`` is given.  paper-grid adds its seed to
#: each datacenter's preset seed, so 0 is the paper's own traces.  The
#: holdout seeds are in the README.
DEFAULT_SEEDS = {"paper-grid": 0, "sharded-fleet": 7, "controller-stream": 11}


def _metric_units(section: str) -> Dict[str, str]:
    """Metric name -> unit, in ``BENCHMARK.json``'s order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[section]}


MIN_RUNS = 3
CHILD_TIMEOUT_S = 150

#: One thread everywhere, and every cache inside the checkout.
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class RunFailed(Exception):
    """A measured process exited non-zero or printed no result."""


def _env() -> Dict[str, str]:
    env = dict(os.environ)
    # Imports read cached bytecode, as they do for a user; the unmeasured
    # priming run writes it.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["XDG_CACHE_HOME"] = str(OUT / "cache")
    return env


def _child(
    workload: str, seed: int, *, spans: "Path | None" = None, prime: bool = False
) -> Dict[str, object]:
    workdir = OUT / "work" / f"{workload}-{os.getpid()}"
    command = [
        sys.executable,
        str(BENCH / "child.py"),
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--workdir",
        str(workdir),
    ]
    if spans is not None:
        command += ["--spans", str(spans)]
    if prime:
        command.append("--prime")
    command += ["--spawned", repr(time.monotonic())]
    try:
        proc = subprocess.run(
            command,
            cwd=ROOT,
            env=_env(),
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise RunFailed(f"{workload}: run exceeded {CHILD_TIMEOUT_S}s") from exc
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise RunFailed(f"{workload}: run exited with code {proc.returncode}")
    return json.loads(lines[-1])


def _check(
    workload: str, seed: int, runs: List[Dict[str, object]]
) -> List[str]:
    """Every run's own violations, quality equal across runs and pinned.

    ``expected.json`` holds the quality metrics of seeds 0-9 and 11
    and the holdout seeds; a run of one of those seeds must
    reproduce them (counts exactly, floats to 1e-9).
    """
    problems = list(dict.fromkeys(v for run in runs for v in run["violations"]))
    first = runs[0]["quality"]
    for run in runs[1:]:
        if run["quality"] != first:
            problems.append(
                f"quality differs between runs of one seed: {first} vs "
                f"{run['quality']}"
            )
    pinned = json.loads((BENCH / "expected.json").read_text())
    expected = pinned.get(workload, {}).get(str(seed))
    if expected is not None and first:
        for key, want in expected.items():
            got = first.get(key)
            if got is None or not math.isclose(got, want, rel_tol=1e-9):
                problems.append(
                    f"{key} = {got!r} at seed {seed}, expected {want!r} "
                    "(perfbench/expected.json)"
                )
    return problems


def _median(runs: List[Dict[str, object]], key: str) -> float:
    return float(statistics.median(float(run[key]) for run in runs))


def measure(workload: str, seed: int, seconds: float) -> Dict[str, object]:
    """Untraced runs until ``seconds`` is spent; medians of each metric."""
    started = time.monotonic()
    runs: List[Dict[str, object]] = []
    while True:
        runs.append(_child(workload, seed))
        elapsed = time.monotonic() - started
        per_run = elapsed / len(runs)
        if len(runs) >= MIN_RUNS and elapsed + per_run > seconds:
            break
    units = _metric_units("end_to_end")
    quality = runs[0]["quality"]
    # A quality metric is missing only from a run that failed its checks.
    metrics = {
        name: _median(runs, name) if name in runs[0] else quality.get(name, 0.0)
        for name in units
    }
    timing = {
        key: float(statistics.median(run["timing"][key] for run in runs))
        for key in runs[0]["timing"]
    }
    per_run = {
        key: [float(run[key]) for run in runs]
        for key in ("time_to_result_s", "wall_time_to_result_s", "host_speed")
    }
    return {
        "metrics": metrics,
        "units": units,
        "timing": timing,
        "per_run": per_run,
        "quality": quality,
        "runs": len(runs),
        "problems": _check(workload, seed, runs),
        "attempted": sum(run["attempted"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
    }


def trace(workload: str, seed: int) -> Dict[str, object]:
    """One untraced and one traced run; the traced run's layer metrics."""
    untraced = _child(workload, seed)
    (OUT / "spans").mkdir(parents=True, exist_ok=True)
    span_file = OUT / "spans" / f"{workload}-seed{seed}.jsonl"
    traced = _child(workload, seed, spans=span_file)
    units = _metric_units("per_layer")
    layers = dict.fromkeys(units, 0.0)
    unknown = set(traced["layers"]) - set(layers)
    if unknown:
        raise RunFailed(
            f"{workload}: layer metrics missing from BENCHMARK.json: {unknown}"
        )
    layers.update(traced["layers"])
    timing = untraced["timing"]
    if timing:
        layers["service.samples_per_s"] = timing["samples_per_s"]
        layers["service.cycle_p50_ms"] = timing["cycle_p50_ms"]
        layers["service.cycle_p95_ms"] = timing["cycle_p95_ms"]
    for key, value in traced["quality"].items():
        if f"quality.{key}" in layers:
            layers[f"quality.{key}"] = value
    layers["bench.time_to_result_s"] = traced["wall_time_to_result_s"]
    layers["bench.trace_overhead_s"] = (
        traced["wall_time_to_result_s"] - untraced["wall_time_to_result_s"]
    )
    return {
        "metrics": layers,
        "units": units,
        "timing": timing,
        "quality": traced["quality"],
        "runs": 2,
        "problems": _check(workload, seed, [untraced, traced]),
        "attempted": untraced["attempted"] + traced["attempted"],
        "failed": untraced["failed"] + traced["failed"],
        "span_file": str(span_file.relative_to(ROOT)),
    }


def _report(workload: str, seed: int, outcome: Dict[str, object]) -> None:
    print(f"# {workload} seed={seed} runs={outcome['runs']}")
    units = outcome["units"]
    for name, value in outcome["metrics"].items():
        print(f"{workload} {name} = {value:.6g} {units[name]}")
    if "span_file" not in outcome:
        # Quality metrics without a bound: per-layer ``quality.*`` metrics.
        layer_units = _metric_units("per_layer")
        for name, value in outcome["quality"].items():
            if name not in units:
                unit = layer_units[f"quality.{name}"]
                print(f"{workload} {name} = {value:.6g} {unit} (not bounded)")
    for name, values in outcome.get("per_run", {}).items():
        listed = ", ".join(f"{value:.4g}" for value in values)
        print(f"{workload} per run {name} = {listed}")
    timing = outcome["timing"]
    if timing:
        print(
            f"{workload} cycle_p50_ms = {timing['cycle_p50_ms']:.6g} ms, "
            f"cycle_p95_ms = {timing['cycle_p95_ms']:.6g} ms over "
            f"{int(timing['cycles'])} cycles; samples_per_s = "
            f"{timing['samples_per_s']:.6g} 1/s (untraced)"
        )
    if "span_file" in outcome:
        metrics = outcome["metrics"]
        for name, value in metrics.items():
            if units[name] == "s" and value and not name.startswith("bench."):
                base = "setup" if name == "workloads.generate_s" else "time_to_result"
                share = 100.0 * value / metrics[f"bench.{base}_s"]
                print(f"{workload} share {name} = {share:.1f} % of {base}_s")
        print(f"{workload} spans written to {outcome['span_file']}")
    for problem in outcome["problems"]:
        print(f"{workload} CHECK FAILED: {problem}", file=sys.stderr)


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Pipeline benchmark (see perfbench/README.md)."
    )
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument(
        "--seed", type=int, default=None, help=f"default: {DEFAULT_SEEDS}"
    )
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        _child(names[0], 0, prime=True)
        outcomes = {}
        for name in names:
            seed = DEFAULT_SEEDS[name] if args.seed is None else args.seed
            outcome = (
                trace(name, seed) if args.trace else measure(name, seed, args.seconds)
            )
            _report(name, seed, outcome)
            outcomes[name] = outcome
    except RunFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    correct = not any(o["problems"] for o in outcomes.values())
    if len(names) == 1:
        outcome = outcomes[names[0]]
        metrics = {
            key: {"value": value, "unit": outcome["units"][key]}
            for key, value in outcome["metrics"].items()
        }
    else:
        metrics = {
            f"{name}/{key}": {"value": value, "unit": outcome["units"][key]}
            for name, outcome in outcomes.items()
            for key, value in outcome["metrics"].items()
        }
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": sum(o["attempted"] for o in outcomes.values()),
                "failed": sum(o["failed"] for o in outcomes.values()),
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
