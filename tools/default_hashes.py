"""Print the artifact hashes of the six default CLI runs.

usage:
    python tools/default_hashes.py > hashes.json
    diff tools/default_hashes.json hashes.json

Each experiment runs in this process through ``symloss.cli.main`` with
its bundled default config and ``--out`` pointed into a temporary
directory.  Standard output is only one JSON object, sorted: experiment
name -> the ``artifacts`` map of its ``manifest.json`` (file name ->
sha256).  The CLI's own "ok" lines are kept out of it.  A run that does
not exit 0, or that emits a ``RuntimeWarning`` (an overflow or a NaN in
numpy), is an error, and nothing is printed.

``tools/default_hashes.json`` holds the map of a known-good commit.  A
change that should keep every artifact byte-identical must reproduce it.

The hashes hold for one numpy/BLAS build and one CPU SIMD level, as the
digests of ``tests/test_determinism.py`` do: a different BLAS may sum in
a different order, and numpy picks its ``exp`` kernel by SIMD level.
Re-record the file on such a machine from a known-good commit rather than
reading a difference there as a change in behaviour.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
import warnings
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from symloss.cli import main  # noqa: E402
from symloss.experiments import EXPERIMENTS  # noqa: E402


def run_default(experiment: str, out: Path) -> None:
    """Run ``experiment`` with its bundled default config into ``out``,
    its "ok" line kept off standard output; a nonzero exit is an error, and
    a ``RuntimeWarning`` is raised as one."""
    with contextlib.redirect_stdout(io.StringIO()), warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        status = main([experiment.replace("_", "-"), "--out", str(out)])
    if status != 0:
        raise SystemExit(f"{experiment}: exited {status}")


def default_hashes() -> dict:
    """experiment -> its default run's ``artifacts`` map."""
    hashes = {}
    with tempfile.TemporaryDirectory() as scratch:
        for experiment in EXPERIMENTS:
            out = Path(scratch) / experiment
            run_default(experiment, out)
            manifest = json.loads((out / "manifest.json").read_text())
            hashes[experiment] = manifest["artifacts"]
    return hashes


if __name__ == "__main__":
    print(json.dumps(default_hashes(), sort_keys=True, indent=2))
