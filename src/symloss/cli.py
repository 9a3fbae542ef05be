"""The ``symloss`` command: config-driven experiment runner.

Subcommands map one-to-one onto the experiment runners; each reads a flat
key = value config file (a bundled default is used when --config is
omitted) and writes CSV/JSON artifacts plus a manifest to the output
directory.  The exit status is 0 on success, 1 when an acceptance
assertion inside the experiment fails, and 2 on bad input (config,
corpus or keyword file, flag, or a config too big for memory).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .datasets import default_config_path
from .errors import ConfigurationError
from .experiments import EXPERIMENTS, parse_config, run_experiment

_SUBCOMMANDS = {name.replace("_", "-"): name for name in EXPERIMENTS}

# flag -> the (section, key) of the config it overrides, and its help.  A
# flag's value is parsed and checked by the config schema as that key.
_FLAGS = {
    "--out": ("experiment", "output_dir", "override the output directory"),
    "--seed": ("experiment", "seeds", "override the seed list, e.g. 3 or 3,4"),
}
_KEYWORDS_FLAGS = {
    "--threshold-method": (
        "corpus", "threshold_method", "threshold selection method: breakeven, heuristic or default"
    ),
    "--prior": ("corpus", "prior", "known positive-class prior for breakeven"),
    "--loss": ("train", "loss", "training loss name"),
    "--tau": ("corpus", "tau", "pseudo-labeling cosine cutoff"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symloss",
        description=(
            "Robust BER/AUC learning from corrupted labels with symmetric "
            "losses: identity verification, noise sweeps, loss comparisons, "
            "PU/UU demos, and the keyword pipeline."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for command, experiment in _SUBCOMMANDS.items():
        sub = subparsers.add_parser(command, help=f"run the {experiment} experiment")
        sub.add_argument("--config", type=Path, default=None,
                         help="experiment config file (default: bundled)")
        flags = {**_FLAGS, **(_KEYWORDS_FLAGS if experiment == "keywords" else {})}
        for flag, (_, key, help_text) in flags.items():
            sub.add_argument(flag, dest=key, help=help_text)
        sub.set_defaults(experiment=experiment, flags=flags)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config_path = args.config
        if config_path is None:
            config_path = default_config_path(args.experiment)
        overrides = {
            flag: (section, key, getattr(args, key))
            for flag, (section, key, _) in args.flags.items()
            if getattr(args, key) is not None
        }
        config = parse_config(config_path, args.experiment, overrides)
        status = run_experiment(config)
    except (ConfigurationError, MemoryError) as exc:
        if isinstance(exc, MemoryError):
            exc = f"{config_path}: needs more memory than is available ({str(exc) or 'MemoryError'})"
        print(f"symloss: error: {exc}", file=sys.stderr)
        return 2
    if status == 0:
        print(f"{args.experiment}: ok (artifacts in {config.output_dir})")
    else:
        print(
            f"{args.experiment}: FAILED an internal assertion "
            f"(see artifacts in {config.output_dir})",
            file=sys.stderr,
        )
    return status


if __name__ == "__main__":
    raise SystemExit(main())
