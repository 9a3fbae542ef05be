"""The symloss benchmark: three CLI workloads, end-to-end and per-layer metrics.

usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py                 # every workload, seed 0, untraced

A run writes the workload's inputs from ``--seed`` (see ``workloads.py``),
then, for ``--seconds``, runs ``symloss.cli.main`` in fresh processes one
after another: a closed loop with one client and no added concurrency.
Every process's artifacts are checked: its exit status, the workload's
own output checks, and the sha256 map in ``manifest.json``.  For seed 0
that map must equal ``reference_hashes.json``; for any other seed it must
be the same in every process of the run.  A process failing any check
counts as one failed run.

``--trace 0`` reports the ``end_to_end`` metrics of ``BENCHMARK.json`` as
medians over the processes: ``wall_s`` (time in ``cli.main``), ``setup_s``
(process start until ``symloss.cli`` is imported) and ``peak_rss_mb``.
``--trace 1`` alternates untraced and traced processes and reports the
``per_layer`` metrics: span totals and counts from ``tracer.py``, a
``python -X importtime`` split of the set-up time by module, the CPU time
of the untraced processes and the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The machine record
and every sample go to ``.perfbench-work/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import layer_metrics
from workloads import WORKLOADS, write_inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
REFERENCE_SEED = 0
REFERENCE_FILE = HERE / "reference_hashes.json"
# a run, its set-up included, must end within 180 s
RUN_LIMIT_S = 165.0
MIN_ROUNDS = {0: 3, 1: 2}
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "OMP_DYNAMIC", "OMP_PROC_BIND",
)


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def machine_record() -> dict:
    import numpy
    import scipy

    cpu = {}
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                key, _, value = line.partition(":")
                cpu.setdefault(key.strip(), value.strip())
    except OSError:
        pass

    def blas(module):
        config = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{config.get('name')} {config.get('version')}"

    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu.get("model name"),
        "cache_size": cpu.get("cache size"),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "numpy_simd": numpy.show_config(mode="dicts").get("SIMD Extensions"),
        "thread_env": {name: os.environ[name] for name in THREAD_VARS if name in os.environ},
    }


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_child(workload, config: Path, out: Path, run_id: str, spans, deadline: float) -> dict:
    """One fresh process running the workload's CLI command; its checked sample."""
    result_path = out.with_name(out.name + "-result.json")
    argv = [
        sys.executable, str(HERE / "child.py"), str(result_path),
        str(spans) if spans else "-", run_id,
        workload.command, "--config", str(config), "--out", str(out),
    ]
    sample = {"run": run_id, "traced": spans is not None, "problems": []}
    try:
        proc = subprocess.run(
            argv, cwd=ROOT, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        sample["problems"].append("timed out")
        return sample
    if result_path.is_file():
        sample.update(json.loads(result_path.read_text()))
    if proc.returncode != 0:
        detail = sample.get("error") or proc.stderr.strip()[-2000:]
        sample["problems"].append(f"exit status {proc.returncode}: {detail}")
        return sample

    try:
        manifest = json.loads((out / "manifest.json").read_text())
        sample["hashes"] = manifest["artifacts"]
        for name, digest in manifest["artifacts"].items():
            if _sha256(out / name) != digest:
                sample["problems"].append(f"{name} does not match its manifest hash")
        sample["problems"].extend(workload.check(out))
        sample["bytes_written"] = sum(path.stat().st_size for path in out.iterdir())
    except (OSError, ValueError, KeyError) as exc:
        sample["problems"].append(f"unreadable artifacts: {exc!r}")
    return sample


def import_times(deadline: float) -> dict:
    """Cumulative import time of each ``symloss`` module, from ``-X importtime``."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import symloss.cli"
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", code], cwd=ROOT,
        capture_output=True, text=True, check=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    times = {}
    for line in proc.stderr.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) == 3 and fields[1].strip().isdigit():
            name = fields[2].strip()
            if name == "symloss" or name.startswith("symloss."):
                times[f"setup.import.{name}_s"] = int(fields[1]) / 1e6
    return times


def _median(samples, key) -> float:
    return statistics.median(sample[key] for sample in samples)


def _check_hashes(samples, reference) -> None:
    expected = reference
    for sample in samples:
        if "hashes" not in sample:
            continue
        if expected is None:
            expected = sample["hashes"]
        elif sample["hashes"] != expected:
            which = "the seed-0 reference" if reference is not None else "the run's first process"
            sample["problems"].append(f"artifact hashes differ from {which}")


def measure(workload, seed: int, seconds: float, trace: int, started: float) -> dict:
    """Generate inputs, run the closed loop, check outputs; return the raw record."""
    deadline = started + RUN_LIMIT_S
    run_dir = WORK / "runs" / f"{workload.name}-seed{seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        begin = time.perf_counter()
        config = write_inputs(workload.name, seed, run_dir)
        inputs_s = time.perf_counter() - begin
        imports = import_times(deadline) if trace else {}

        samples = []
        loop_start = time.monotonic()
        rounds = 0
        while True:
            for traced in ((False, True) if trace else (False,)):
                index = len(samples)
                run_id = f"{workload.name}-seed{seed}-{index}"
                spans = run_dir / f"spans-{index}.json" if traced else None
                sample = run_child(workload, config, run_dir / f"out-{index}", run_id, spans, deadline)
                if traced and not sample["problems"]:
                    records = json.loads(spans.read_text())
                    sample["layers"] = layer_metrics(records)
                    shutil.copyfile(spans, WORK / "results" / f"{workload.name}-seed{seed}-spans.json")
                shutil.rmtree(run_dir / f"out-{index}", ignore_errors=True)
                samples.append(sample)
            rounds += 1
            now = time.monotonic()
            per_round = (now - loop_start) / rounds
            if now + per_round > deadline:
                break
            if rounds >= MIN_ROUNDS[trace] and now - loop_start + per_round > seconds:
                break
        reference = None
        if seed == REFERENCE_SEED:
            reference = json.loads(REFERENCE_FILE.read_text())[workload.name]
        _check_hashes(samples, reference)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return {"inputs_s": inputs_s, "imports": imports, "samples": samples}


def metrics_of(record: dict, trace: int) -> dict:
    good = [s for s in record["samples"] if not s["problems"]]
    plain = [s for s in good if not s["traced"]]
    if not trace:
        return {
            "wall_s": _median(plain, "wall_s"),
            "setup_s": _median(plain, "setup_s"),
            "peak_rss_mb": _median(plain, "maxrss_kb") / 1024.0,
        }
    traced = [s for s in good if s["traced"]]
    if not traced:
        raise statistics.StatisticsError("no successful traced run")
    layers = {
        name: statistics.median(s["layers"][name] for s in traced)
        for name in traced[0]["layers"]
    }
    layers.update(record["imports"])
    layers["experiments.bytes_written"] = _median(good, "bytes_written")
    layers["process.cpu_s"] = _median(plain, "cpu_s")
    # each round runs an untraced process and then a traced one; the ratio
    # within a round cancels the machine's slow drift
    samples = record["samples"]
    layers["process.trace_overhead_frac"] = statistics.median(
        pair[1]["wall_s"] / pair[0]["wall_s"]
        for pair in zip(samples[0::2], samples[1::2])
        if not (pair[0]["problems"] or pair[1]["problems"])
    ) - 1.0
    return layers


def report(workload, seed: int, trace: int, spec: dict, record: dict, machine: dict):
    """Print the human-readable lines for one workload; return its result
    object, or None when its metrics cannot be computed."""
    samples = record["samples"]
    failed = sum(1 for s in samples if s["problems"])
    print(f"{workload.name}: {workload.why}")
    print(f"  inputs for seed {seed} written in {record['inputs_s']:.2f} s (not timed)")
    print(f"  {len(samples)} fresh-process runs, {failed} failed")
    for sample in samples:
        for problem in sample["problems"]:
            print(f"  FAILED {sample['run']}: {problem}")
    try:
        produced = metrics_of(record, trace)
    except statistics.StatisticsError:
        print(f"  no successful {'traced and untraced ' if trace else ''}run to measure")
        return None
    wanted = spec["per_layer" if trace else "end_to_end"]
    missing = [metric["name"] for metric in wanted if metric["name"] not in produced]
    if missing:
        print(f"  metrics not produced: {', '.join(missing)}")
        return None
    metrics = {
        metric["name"]: {"value": produced[metric["name"]], "unit": metric["unit"]}
        for metric in wanted
    }
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    result = {
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": metrics,
    }
    results = WORK / "results" / f"{workload.name}-seed{seed}-trace{trace}.json"
    results.write_text(json.dumps(
        {"machine": machine, "seed": seed, "trace": trace, **record, "result": result}, indent=1
    ))
    return result


def main(argv=None) -> int:
    started = time.monotonic()
    # a terminated run raises SystemExit, so subprocess.run kills and reaps its child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "symloss" / "cli.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"perfbench: {ROOT} holds no symloss source tree or BENCHMARK.json", file=sys.stderr)
        return 2
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default=None, help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    # compiles the package's bytecode and warms the file cache, as any
    # earlier CLI call would have, so the first timed process is not a one-off
    import symloss.cli  # noqa: F401

    names = list(WORKLOADS) if args.workload is None else [args.workload]
    if any(name not in WORKLOADS for name in names):
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    machine = machine_record()
    print("machine: " + json.dumps(machine, sort_keys=True))

    results = {}
    for name in names:
        workload = WORKLOADS[name]
        record = measure(workload, args.seed, args.seconds, args.trace, started)
        results[name] = report(workload, args.seed, args.trace, spec, record, machine)
        if results[name] is None:
            return 1
        started = time.monotonic()
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{metric}": value
                for name, r in results.items() for metric, value in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
