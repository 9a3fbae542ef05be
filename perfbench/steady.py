"""Steadiness mode: the whole suite over ten seeds, run twice, with spreads.

usage: python3 perfbench/steady.py

Runs ``run.py`` untraced, for ``run_seconds`` of ``BENCHMARK.json``, for
each of two sets, ten seeds (0 to 9) and every workload, in that nesting,
so slow drift of the machine spreads over all workloads.  For each
workload and end-to-end metric it prints, per set, the distance between the
first and third quartile of the per-seed values (``statistics.quantiles``
with n=4) as a share of their median, and, for the second set, how much
worse that set's median is than the first set's.  A spread of a third of
the metric's bound or more is flagged ``WIDE``; a spread or a shift above
the bound is flagged ``FAIL``.
The raw results go to ``.perfbench-work/steady.json``.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys

from run import HERE, ROOT, WORK, load_spec
from workloads import WORKLOADS

SEEDS = 10
SETS = 2


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worsening(first, second, better: str) -> float:
    """How much worse the median of ``second`` is than that of ``first``, as a share."""
    before, after = statistics.median(first), statistics.median(second)
    change = (after - before) / before
    return change if better == "lower" else -change


def run_once(workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=900,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = load_spec()
    runs = {}
    for set_index in range(SETS):
        for seed in range(SEEDS):
            for workload in WORKLOADS:
                result = run_once(workload, seed, spec["run_seconds"])
                runs.setdefault(workload, []).append({"set": set_index, "seed": seed, **result})
                print(f"set {set_index} seed {seed} {workload}: correct={result['correct']} "
                      + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                      flush=True)
    (WORK / "steady.json").write_text(json.dumps(runs, indent=1))

    ok = all(r["correct"] for results in runs.values() for r in results)
    print(f"\n{'workload':14} {'metric':12} {'bound':>6}  spread per set / shift from set 0")
    for workload, results in runs.items():
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sets = [
                [r["metrics"][name]["value"] for r in results if r["set"] == s]
                for s in range(SETS)
            ]
            cells = []
            for index, values in enumerate(sets):
                share = spread(values)
                flag = ""
                if share > bound:
                    flag, ok = " FAIL", False
                elif share >= bound / 3:
                    flag = " WIDE"
                cells.append(f"{share:.3f}{flag}")
                if index:
                    worse = worsening(sets[0], values, metric["better"])
                    cells.append(f"shift {worse:+.3f}{' FAIL' if worse > bound else ''}")
                    ok = ok and worse <= bound
            print(f"{workload:14} {name:12} {bound:6.2f}  " + "  ".join(cells))
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
