"""The ``symloss`` command: config-driven experiment runner.

Subcommands map one-to-one onto the experiment runners; each reads a flat
key = value config file (a bundled default is used when --config is
omitted) and writes CSV/JSON artifacts plus a manifest to the output
directory.  The exit status is nonzero exactly when an acceptance
assertion inside the experiment fails.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from .datasets import default_config_path
from .errors import ConfigurationError
from .experiments import (
    EXPERIMENTS,
    THRESHOLD_ALIASES,
    check_loss_name,
    parse_config,
    run_experiment,
)

_SUBCOMMANDS = {name.replace("_", "-"): name for name in EXPERIMENTS}


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
        sub.add_argument("--out", type=Path, default=None,
                         help="override the output directory")
        sub.add_argument("--seed", type=int, default=None,
                         help="override the seed list with a single seed")
        if experiment == "keywords":
            sub.add_argument("--threshold-method",
                             choices=tuple(THRESHOLD_ALIASES),
                             default=None, help="threshold selection method")
            sub.add_argument("--prior", type=float, default=None,
                             help="known positive-class prior for breakeven")
            sub.add_argument("--loss", type=str, default=None,
                             help="training loss name")
            sub.add_argument("--tau", type=float, default=None,
                             help="pseudo-labeling cosine cutoff")
        sub.set_defaults(experiment=experiment)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config_path = args.config
        if config_path is None:
            config_path = default_config_path(args.experiment)
        config = parse_config(config_path, experiment=args.experiment)

        if args.out is not None:
            config.output_dir = args.out
        if args.seed is not None:
            config.seeds = [args.seed]
        if args.experiment == "keywords":
            if args.threshold_method is not None:
                config.threshold_method = THRESHOLD_ALIASES[args.threshold_method]
            if args.prior is not None:
                config.known_prior = args.prior
            if args.loss is not None:
                loss = check_loss_name(args.loss, "--loss")
                config.train = dataclasses.replace(config.train, loss=loss)
            if args.tau is not None:
                config.tau = args.tau

        status = run_experiment(config)
    except (ConfigurationError, FileNotFoundError) as exc:
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
