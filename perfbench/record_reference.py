"""Record the seed-0 artifact hashes that ``run.py`` compares against.

usage: python3 perfbench/record_reference.py

Runs each workload once with seed 0 and writes the ``artifacts`` sha256 map
of its ``manifest.json`` to ``reference_hashes.json``.  Record it from the
commit whose outputs are the reference, and again only when a workload's
inputs change.
"""

import json
import shutil
import sys
import time

from run import REFERENCE_FILE, REFERENCE_SEED, SRC, WORK, run_child

sys.path.insert(0, str(SRC))

from workloads import WORKLOADS, write_inputs  # noqa: E402


def main() -> int:
    hashes = {}
    for name, workload in WORKLOADS.items():
        run_dir = WORK / "runs" / f"reference-{name}"
        try:
            config = write_inputs(name, REFERENCE_SEED, run_dir)
            sample = run_child(
                workload, config, run_dir / "out", f"reference-{name}", None,
                time.monotonic() + 600,
            )
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
        if sample["problems"]:
            print(f"{name}: {sample['problems']}", file=sys.stderr)
            return 1
        hashes[name] = sample["hashes"]
    REFERENCE_FILE.write_text(json.dumps(hashes, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
