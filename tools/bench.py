"""Record the benchmark's end-to-end metrics and the default runs' times in one file.

usage:
    python tools/bench.py --label NAME [--rounds 3] [--seconds S]

Each round runs ``perfbench/run.py --workload W --seed 0 --trace 0
--seconds S`` once per workload of ``BENCHMARK.json``, each in its own
subprocess, and keeps the JSON object on the last line of its output.
Then the six default CLI experiments run in this process, as
``tools/default_hashes.py`` runs them, ``--rounds`` times in turn.

``BENCH_<label>.json`` at the repository root holds:

* ``commit``: ``git rev-parse HEAD``, and ``dirty``: whether ``src/``
  differs from it;
* ``machine``: the platform, ``os.cpu_count()`` and the numpy version;
* ``rounds``: per workload, each round's result object;
* ``workloads``: per workload and end-to-end metric, the median and the
  quartiles over the rounds of perfbench's per-round median;
* ``default_runs_s``: per experiment, the median wall time of its runs
  and every run's time.

Compare two files only when they were written on the same machine with
the same ``--rounds`` and ``--seconds``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from default_hashes import EXPERIMENTS, run_default

ROOT = Path(__file__).resolve().parents[1]
METRICS = ("wall_s", "setup_s", "peak_rss_mb")


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout.strip()


def spread(values: list[float]) -> dict:
    """Median and quartiles of ``values``, within their range."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def perfbench_round(workload: str, seconds: float) -> dict:
    """One ``perfbench/run.py`` process on ``workload``: its result object."""
    command = [
        sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
        "--seed", "0", "--trace", "0", "--seconds", str(seconds),
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(
            f"{workload}: perfbench exited {done.returncode}\n{done.stdout}{done.stderr}"
        )
    return json.loads(done.stdout.splitlines()[-1])


def default_run_times(rounds: int) -> dict:
    """experiment -> the wall time in seconds of each of ``rounds`` runs."""
    times = {experiment: [] for experiment in EXPERIMENTS}
    with tempfile.TemporaryDirectory() as work:
        for round_ in range(rounds):
            for experiment in EXPERIMENTS:
                out = Path(work) / f"{experiment}-{round_}"
                start = time.perf_counter()
                run_default(experiment, out)
                times[experiment].append(time.perf_counter() - start)
    return times


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--seconds", type=float, default=10.0, help="perfbench --seconds")
    args = parser.parse_args(argv)
    if args.rounds < 2 or args.seconds <= 0:
        parser.error("--rounds must be at least 2 (quartiles) and --seconds positive")

    workloads = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    rounds = {workload: [] for workload in workloads}
    for round_ in range(args.rounds):
        for workload in workloads:
            result = perfbench_round(workload, args.seconds)
            rounds[workload].append(result)
            print(f"round {round_ + 1}, {workload}: " + json.dumps(result["metrics"]["wall_s"]),
                  file=sys.stderr)
    times = default_run_times(args.rounds)

    record = {
        "label": args.label,
        "commit": git("rev-parse", "HEAD"),
        "dirty": bool(git("status", "--porcelain", "--", "src")),
        "machine": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
            "numpy": np.__version__,
        },
        "settings": {"rounds": args.rounds, "seconds": args.seconds, "seed": 0},
        "rounds": rounds,
        "workloads": {
            workload: {
                metric: spread([r["metrics"][metric]["value"] for r in results])
                for metric in METRICS
            }
            for workload, results in rounds.items()
        },
        "default_runs_s": {
            experiment: {"median": statistics.median(samples), "runs": samples}
            for experiment, samples in times.items()
        },
    }
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
