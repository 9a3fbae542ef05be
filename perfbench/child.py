"""One fresh-process run of the ``symloss`` CLI.

usage: python3 perfbench/child.py RESULT_JSON SPANS_JSON|- RUN_ID CLI_ARGS...

``setup_s`` runs from this file's first statement until ``symloss.cli`` is
imported, the cost every CLI invocation pays.  ``wall_s`` is the time spent
in ``symloss.cli.main``.  With a spans path the outside-in tracer is
installed around that call and its spans are written there afterwards.
Peak RSS and CPU time are this process's own, read at exit.
"""

import time

_T0 = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(_ROOT, "src"))

import symloss.cli  # noqa: E402

_T1 = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402


def main() -> int:
    result_path, spans_path, run_id, *cli_argv = sys.argv[1:]
    tracer = None
    if spans_path != "-":
        from tracer import Tracer

        tracer = Tracer(run_id)
        tracer.install()
    status, error = None, None
    start = time.perf_counter()
    try:
        status = symloss.cli.main(cli_argv)
    except SystemExit as exc:
        status, error = exc.code, f"SystemExit({exc.code!r})"
    except Exception:
        error = traceback.format_exc()
    wall = time.perf_counter() - start
    if tracer is not None:
        tracer.uninstall()
        with open(spans_path, "w") as fh:
            json.dump(tracer.records(), fh)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    with open(result_path, "w") as fh:
        json.dump(
            {
                "setup_s": _T1 - _T0,
                "wall_s": wall,
                "status": status,
                "error": error,
                "maxrss_kb": usage.ru_maxrss,
                "cpu_s": usage.ru_utime + usage.ru_stime,
            },
            fh,
        )
    return 0 if (status == 0 and error is None) else 1


if __name__ == "__main__":
    raise SystemExit(main())
