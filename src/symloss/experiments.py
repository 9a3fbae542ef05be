"""Config-driven experiment runners.

``_EXPERIMENTS`` declares each experiment once: its runner, the config
sections it reads, and whether it runs a single seed.  :func:`parse_config`
rejects a section the experiment does not read and, for a single-seed
experiment, a seed list longer than one.  Each runner takes a parsed
:class:`ExperimentConfig` and returns its artifacts, ``{file name: CSV
rows or text}``, with a process exit status: nonzero exactly when an
acceptance assertion inside the experiment fails.  A CSV row is a record
``{column: value}``; the first record's keys are the header.
:func:`run_experiment` alone writes to disk: it creates the output
directory only after the runner has returned, then writes the artifacts
and a manifest, so a run that raises leaves no output behind.  Runs are
deterministic given the config, all floats are printed with 12
significant digits, and no timestamps are written, so re-running a
config reproduces byte-identical outputs.
"""

from __future__ import annotations

import configparser
import copy
import csv
import difflib
import hashlib
import json
import math
import os
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path
from typing import Mapping, Optional, Sequence

import numpy as np

from .datasets import load_keywords, load_mini_corpus
from .distributions import (
    DiscreteBinaryDistribution,
    GaussianPairConfig,
    McdParams,
    pu_params,
    sample_mcd,
    uu_params,
)
from .errors import ConfigurationError, cannot_read, not_utf8
from .losses import LOSS_NAMES, get_loss
from .risks import (
    auc_decomposition_check,
    auc_score,
    ber_decomposition_check,
    empirical_ber_risk,
    symmetric_excess_constant,
)
from .textpipe import Corpus, KeywordSet, PipelineConfig, check_tau, run_pipeline
from .threshold import THRESHOLD_METHODS, check_prior
from .training import TrainConfig, train_auc, train_ber, train_many

__all__ = [
    "ExperimentConfig",
    "EXPERIMENTS",
    "THRESHOLD_ALIASES",
    "check_loss_name",
    "check_value",
    "parse_config",
    "run_experiment",
    "run_verify_identities",
    "run_keywords",
]

# user-facing names for the threshold methods
THRESHOLD_ALIASES = {
    "breakeven": "breakeven_known_prior",
    "heuristic": "heuristic_pseudo_ratio",
    "default": "default_zero",
}


def check_loss_name(name: str, where: str, trainable: bool = False) -> str:
    """``name`` if it is a catalog loss, and one with a gradient when
    ``trainable``; else a ConfigurationError naming ``where``."""
    loss = check_value(where, get_loss, name)
    if trainable and not loss.differentiable:
        raise ConfigurationError(f"{where}: cannot train with the {name!r} loss; pick a surrogate")
    return name


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def write_csv(path: Path, rows: Sequence[Mapping]) -> None:
    """One CSV line per record under a header of the first record's keys;
    a record whose keys differ from the header's, in name or order, is a
    ValueError, raised before the file is opened."""
    header = list(rows[0])
    for row in rows:
        if list(row) != header:
            raise ValueError(f"{path.name}: record columns {list(row)} differ from {header}")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(cell) for cell in row.values()])


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    digest.update(path.read_bytes())
    return digest.hexdigest()


def write_manifest(config: "ExperimentConfig", artifacts: Sequence[Path]) -> Path:
    manifest = {
        "experiment": config.experiment,
        "seeds": config.seeds,
        "config": config.echo,
        "artifacts": {path.name: _sha256(path) for path in artifacts},
    }
    path = config.output_dir / "manifest.json"
    with open(path, "w") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return path


_BOOLEANS = configparser.ConfigParser.BOOLEAN_STATES
_LABELS = {int: "an integer", float: "a number", bool: "a boolean", str: "a string"}

def check_value(where: str, build, *args, **kwargs):
    """``build(*args, **kwargs)``, with a ValueError re-raised as a
    ConfigurationError naming ``where``."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ConfigurationError(f"{where}: {exc}") from None


def _unknown(where: str, what: str, name: str, known) -> ConfigurationError:
    close = difflib.get_close_matches(name, known, n=1)
    hint = f"did you mean {close[0]!r}?" if close else f"expected one of {sorted(known)}"
    return ConfigurationError(f"{where}: unknown {what}; {hint}")


def _convert(where: str, text: str, kind, rule=None):
    if isinstance(kind, list):
        items = [item.strip() for item in text.split(",")]
        return [_convert(where, item, kind[0]) for item in items if item]
    if isinstance(kind, tuple):
        if text not in kind:
            raise ConfigurationError(f"{where}: {text!r} is not one of {sorted(kind)}")
        return text
    try:
        value = _BOOLEANS[text.strip().lower()] if kind is bool else kind(text)
    except (KeyError, ValueError):
        raise ConfigurationError(f"{where}: {text!r} is not {_LABELS[kind]}") from None
    if kind is float and not math.isfinite(value):
        raise ConfigurationError(f"{where}: {text!r} is not a finite number")
    if rule is not None:
        check_value(where, rule, value)
    return value


def _at_least(least):
    def check(value):
        if value < least:
            raise ValueError(f"must be at least {least}")
    return check


def _check_score_range(value: float) -> None:
    if not (value > 0 and math.isfinite(2 * value)):
        raise ValueError(f"must be positive with 2 * score_range finite, got {value}")


def _read_sections(parser: configparser.ConfigParser, at) -> dict[str, dict]:
    """Every schema key of every section, converted and range-checked, or
    defaulted; any section or key outside the schema is a ConfigurationError.
    ``at(section, key)`` names a key in conversion and range errors."""
    for name in parser.sections():
        if name not in _SCHEMA:
            raise _unknown(f"[{name}]", "section", name, _SCHEMA)
        for key in parser[name]:
            if key not in _SCHEMA[name]:
                raise _unknown(f"[{name}] {key}", "key", key, _SCHEMA[name])
    return {
        name: {
            key: _convert(at(name, key), parser[name][key], kind, *rule)
            if parser.has_option(name, key) else copy.copy(default)
            for key, (kind, default, *rule) in keys.items()
        }
        for name, keys in _SCHEMA.items()
    }


@dataclass
class ExperimentConfig:
    """Everything one experiment run needs: every schema key's checked value
    (or default) in ``sections``, plus the values built from them.  A runner
    checks the rules of the object it builds: breakeven's prior, ``[uu]``'s order."""

    experiment: str
    output_dir: Path
    seeds: list[int]
    echo: dict[str, dict[str, str]]
    sections: dict[str, dict]
    gaussians: GaussianPairConfig
    noise_grid: list[McdParams]
    losses: list[str]
    loss_order: Optional[tuple[str, str]]
    train: TrainConfig


def _parse_loss_order(order: Optional[str], losses: list[str]) -> Optional[tuple[str, str]]:
    if order is None:
        return None
    parts = [part.strip() for part in order.split("<=")]
    if len(parts) != 2 or not all(parts):
        raise ConfigurationError("[assertions] loss_order: expected 'lossA <= lossB'")
    for part in parts:
        check_loss_name(part, "[assertions] loss_order")
        if part not in losses:
            raise ConfigurationError(
                f"[assertions] loss_order: {part!r} must also be in [losses] names"
            )
    if parts[0] == parts[1]:
        raise ConfigurationError(
            f"[assertions] loss_order: {parts[0]!r} is on both sides, so it can never fail"
        )
    return parts[0], parts[1]


def _read_error(path: Path, exc: configparser.Error) -> str:
    """``path:line: reason`` for a configparser error; configparser's own
    message names the file a second time, as a repr."""
    if isinstance(exc, configparser.DuplicateOptionError):
        return f"{path}:{exc.lineno}: [{exc.section}] {exc.option}: set more than once"
    if isinstance(exc, configparser.DuplicateSectionError):
        return f"{path}:{exc.lineno}: [{exc.section}]: section appears more than once"
    if isinstance(exc, configparser.MissingSectionHeaderError):
        return f"{path}:{exc.lineno}: {exc.line.strip()!r} comes before any [section] header"
    if isinstance(exc, configparser.ParsingError):
        return "; ".join(
            f"{path}:{lineno}: expected 'key = value' or a [section] header"
            for lineno, _ in exc.errors
        )
    return f"{path}: {exc}"


def parse_config(
    path, experiment: Optional[str] = None, overrides: Optional[Mapping] = None
) -> ExperimentConfig:
    """Parse and validate a flat key = value experiment config file.

    ``overrides`` maps a command-line flag to the ``(section, key, text)``
    it sets.  Each is written over the file's value before parsing, so it
    is converted, checked and echoed exactly as that key, and its errors
    name the flag.  Values are literal: ``%`` is not interpolated.
    """
    path = Path(path)
    parser = configparser.ConfigParser(interpolation=None)
    try:
        # configparser.read would skip a file it cannot open
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except configparser.Error as exc:
        raise ConfigurationError(_read_error(path, exc)) from exc
    except UnicodeDecodeError:
        raise not_utf8(path) from None
    except OSError as exc:
        raise cannot_read(path, exc) from None
    flags = {}
    for flag, (section, key, text) in (overrides or {}).items():
        parser.read_dict({section: {key: text}})
        flags[section, key] = flag

    def at(section: str, key: str) -> str:
        return flags.get((section, key), f"[{section}] {key}")

    sections = _read_sections(parser, at)

    name = sections["experiment"]["name"] or experiment
    if name is None:
        raise ConfigurationError("[experiment] name: missing required field")
    if experiment is not None and name != experiment:
        raise ConfigurationError(
            f"[experiment] name: config says {name!r} but the "
            f"{experiment!r} command was invoked"
        )
    _, reads, one_seed = _EXPERIMENTS[name]
    for section in parser.sections():
        if section not in reads:
            raise ConfigurationError(
                f"[{section}]: the {name} experiment does not read this section; "
                f"it reads {list(reads)}"
            )
    seeds = sections["experiment"]["seeds"]
    if not seeds:
        raise ConfigurationError(f"{at('experiment', 'seeds')}: must list at least one seed")
    if one_seed and len(seeds) > 1:
        raise ConfigurationError(
            f"{at('experiment', 'seeds')}: the {name} experiment runs one seed, got {seeds}"
        )
    if min(seeds) < 0:
        raise ConfigurationError(
            f"{at('experiment', 'seeds')}: seeds must be non-negative, got {seeds}"
        )
    if len(set(seeds)) != len(seeds):
        raise ConfigurationError(
            f"{at('experiment', 'seeds')}: a seed appears more than once, got {seeds}"
        )
    if not sections["experiment"]["output_dir"]:
        raise ConfigurationError(f"{at('experiment', 'output_dir')}: must name a directory")
    output_dir = Path(sections["experiment"]["output_dir"])
    # mkdir fails where the directory or its nearest existing ancestor is not one
    nearest = next((p for p in (output_dir, *output_dir.parents) if os.path.exists(p)), None)
    if nearest is not None and not os.path.isdir(nearest):
        raise ConfigurationError(f"{at('experiment', 'output_dir')}: {nearest} is not a directory")

    dataset = sections["dataset"]
    for key, value in (("mean_pos", 1.5), ("mean_neg", -1.5), ("covariance", 1.0)):
        if dataset[key] is None:
            dataset[key] = [value] * dataset["dimension"]
    gaussians = check_value(
        "[dataset]", GaussianPairConfig, dataset["mean_pos"], dataset["mean_neg"],
        dataset["covariance"], dataset["dimension"],
    )

    noise = sections["noise"]
    if len(noise["pi_corr_pos"]) != len(noise["pi_corr_neg"]):
        raise ConfigurationError(
            "[noise] pi_corr_pos and pi_corr_neg must have the same length"
        )
    noise_grid = []
    for a, b in zip(noise["pi_corr_pos"], noise["pi_corr_neg"]):
        params = check_value(f"[noise] ({a}, {b})", McdParams, a, b)
        if params in noise_grid:
            raise ConfigurationError(f"[noise] ({a}, {b}): the cell appears more than once")
        noise_grid.append(params)

    losses = sections["losses"]["names"]
    if not losses:
        raise ConfigurationError("[losses] names: must list at least one loss")
    if losses == ["all"]:
        losses = list(LOSS_NAMES)
    for index, loss_name in enumerate(losses):
        check_loss_name(loss_name, "[losses] names", trainable="train" in reads)
        if loss_name in losses[:index]:
            raise ConfigurationError(f"[losses] names: {loss_name!r} appears more than once")
    loss_order = _parse_loss_order(sections["assertions"]["loss_order"], losses)
    check_loss_name(sections["train"]["loss"], at("train", "loss"), trainable=True)
    if "losses" in reads and parser.has_option("train", "loss"):
        raise ConfigurationError(
            f"{at('train', 'loss')}: the {name} experiment trains each of [losses] names; "
            "list the losses there"
        )
    if name == "keywords" and parser.has_option("train", "objective") and (
        sections["train"]["objective"] != "auc"
    ):
        raise ConfigurationError("[train] objective: the keywords pipeline trains only 'auc'")
    train = check_value("[train]", TrainConfig, **sections["train"])

    method = sections["corpus"]["threshold_method"]
    sections["corpus"]["threshold_method"] = THRESHOLD_ALIASES.get(method, method)

    return ExperimentConfig(
        experiment=name,
        output_dir=output_dir,
        seeds=seeds,
        echo={sec: dict(parser[sec]) for sec in parser.sections()},
        sections=sections,
        gaussians=gaussians,
        noise_grid=noise_grid,
        losses=losses,
        loss_order=loss_order,
        train=train,
    )


def _random_identity_instance(rng, max_support: int, score_range: float):
    m = int(rng.integers(2, max_support + 1))
    support = np.arange(m, dtype=float).reshape(-1, 1)
    dist = DiscreteBinaryDistribution(support, rng.dirichlet(np.ones(m)), rng.dirichlet(np.ones(m)))
    # this draw is unused, but dropping it would shift every later draw and
    # so change residuals.csv
    rng.uniform(0.1, 0.9)
    scores = rng.uniform(-score_range, score_range, size=m)
    b = float(rng.uniform(0.0, 0.8))
    a = float(rng.uniform(b + 0.05, 1.0))
    return dist, scores, McdParams(a, b)


def run_verify_identities(config: ExperimentConfig) -> tuple[dict, int]:
    """Residuals of both risk decompositions over randomized instances."""
    identities = config.sections["identities"]
    tolerance = identities["tolerance"]
    symmetric_tolerance = identities["symmetric_tolerance"]
    rng = np.random.default_rng(config.seeds[0])
    rows = []
    failures = 0
    for loss_name in config.losses:
        loss = get_loss(loss_name)
        for instance in range(identities["instances"]):
            dist, scores, params = _random_identity_instance(
                rng, identities["max_support"], identities["score_range"]
            )
            ber = ber_decomposition_check(loss, dist, scores, params)
            auc = auc_decomposition_check(loss, dist, scores, params)
            ok = ber.residual <= tolerance and auc.residual <= tolerance
            symmetric_excess = ""
            if loss.symmetric:
                expected = symmetric_excess_constant(loss, params)
                symmetric_excess = expected
                ok = ok and (
                    abs(ber.excess - expected) <= symmetric_tolerance
                    and abs(auc.excess - expected) <= symmetric_tolerance
                )
            failures += 0 if ok else 1
            rows.append({
                "loss": loss_name,
                "instance": instance,
                "support_size": dist.size,
                "pi_corr_pos": params.pi_corr_pos,
                "pi_corr_neg": params.pi_corr_neg,
                "ber_lhs": ber.lhs,
                "ber_rhs": ber.rhs,
                "ber_residual": ber.residual,
                "ber_excess": ber.excess,
                "auc_lhs": auc.lhs,
                "auc_rhs": auc.rhs,
                "auc_residual": auc.residual,
                "auc_excess": auc.excess,
                "symmetric_excess": symmetric_excess,
                "status": "ok" if ok else "FAIL",
            })
    return {"residuals.csv": rows}, 0 if failures == 0 else 1


def _test_sets(config: ExperimentConfig) -> dict:
    """Each seed's clean (positive, negative) test set."""
    sampler_pos, sampler_neg = config.gaussians.samplers()
    n_test = config.sections["dataset"]["n_test_per_class"]
    tests = {}
    for seed in config.seeds:
        test_rng = np.random.default_rng(seed + 982_451_653)
        tests[seed] = sampler_pos(test_rng, n_test), sampler_neg(test_rng, n_test)
    return tests


def _run_grid(config: ExperimentConfig, grid: list[McdParams], losses: list[str]) -> list[tuple]:
    """One record (params, loss, seed, trace, clean-test BER, clean-test
    AUC) per run of ``grid``, listed (noise cell, loss, seed): the order in
    which the grid trains, as one stack.  Every loss trains on each (cell,
    seed) sample, and both metrics read one scoring of each test set.  A
    divergence is raised once the stack has run: the one the cell-by-cell
    order of single runs would meet first."""
    sampler_pos, sampler_neg = config.gaussians.samplers()
    n = config.sections["dataset"]["n_train_per_class"]
    sets = {
        (cell, seed): sample_mcd(sampler_pos, sampler_neg, params, n, n, seed=seed)
        for cell, params in enumerate(grid)
        for seed in config.seeds
    }
    runs = [(cell, loss, seed) for cell in range(len(grid)) for loss in losses
            for seed in config.seeds]
    traces = train_many(
        train_ber if config.train.objective == "ber" else train_auc,
        [sets[cell, seed] for cell, _, seed in runs],
        [replace(config.train, loss=loss, seed=seed) for _, loss, seed in runs],
    )
    tests, zero_one = _test_sets(config), get_loss("zero_one")
    records = []
    for (cell, loss, seed), trace in zip(runs, traces):
        scores_pos, scores_neg = (trace.scorer(test) for test in tests[seed])
        ber = empirical_ber_risk(zero_one, scores_pos, scores_neg)
        records.append((grid[cell], loss, seed, trace, ber, auc_score(scores_pos, scores_neg)))
    return records


def _stderr(values: Sequence[float]) -> float:
    return float(np.std(values, ddof=1) / math.sqrt(len(values))) if len(values) > 1 else 0.0


def _run_sweep(config: ExperimentConfig, cells: Optional[int]) -> tuple[dict, int]:
    """Train per (noise cell, loss, seed) on the first ``cells`` cells of
    the noise grid (all of them when None); report clean-test BER/AUC.
    Nonzero when a cell's mean BER breaks ``[assertions] loss_order``."""
    grid = config.noise_grid[:cells]
    if not grid:
        raise ConfigurationError("[noise] pi_corr_pos: noise grid is empty")
    records = _run_grid(config, grid, config.losses)
    rows = [
        {
            "loss": loss,
            "pi_corr_pos": params.pi_corr_pos,
            "pi_corr_neg": params.pi_corr_neg,
            "seed": seed,
            "clean_test_ber": ber,
            "clean_test_auc": auc,
        }
        for params, loss, seed, _, ber, auc in records
    ]
    aggregate, mean_ber, status = [], {}, 0
    # each (cell, loss) is a run of len(seeds) consecutive records
    for start in range(0, len(records), len(config.seeds)):
        params, loss = records[start][:2]
        *_, bers, aucs = zip(*records[start : start + len(config.seeds)])
        mean_ber[params, loss] = float(np.mean(bers))
        aggregate.append({
            "pi_corr_pos": params.pi_corr_pos,
            "pi_corr_neg": params.pi_corr_neg,
            "loss": loss,
            "mean_clean_ber": mean_ber[params, loss],
            "stderr_clean_ber": _stderr(bers),
            "mean_clean_auc": float(np.mean(aucs)),
            "stderr_clean_auc": _stderr(aucs),
        })
    if config.loss_order is not None:
        first, second = config.loss_order
        status = int(any(mean_ber[params, first] > mean_ber[params, second] for params in grid))
    return {"results.csv": rows, "aggregate.csv": aggregate}, status


def _run_reduction_demo(config: ExperimentConfig, reduction: str) -> tuple[dict, int]:
    """PU/UU route vs. the generic corrupted route: their trained parameters
    and final objectives must match; ``reduced`` is built before any sample."""
    if reduction == "pu":
        prior = config.sections["pu"]["class_prior_unlabeled"]
        reduced = pu_params(prior)
        generic = McdParams(1.0, prior)
    else:
        uu = config.sections["uu"]
        reduced = check_value("[uu] pi_u, pi_u_prime", uu_params, uu["pi_u"], uu["pi_u_prime"])
        generic = McdParams(uu["pi_u"], uu["pi_u_prime"])

    records = _run_grid(config, [reduced, generic], [config.train.loss])
    n = len(config.seeds)   # the reduced runs, then as many generic ones
    rows = []
    for (_, _, seed, trace, ber, auc), (*_, generic_trace, _, _) in zip(records[:n], records[n:]):
        identical = trace.objective == generic_trace.objective and np.array_equal(
            trace.scorer.params, generic_trace.scorer.params
        )
        rows.append({
            "seed": seed,
            "reduction": reduction,
            "pi_corr_pos": reduced.pi_corr_pos,
            "pi_corr_neg": reduced.pi_corr_neg,
            "final_objective_reduction": trace.objective,
            "final_objective_generic": generic_trace.objective,
            "clean_test_ber": ber,
            "clean_test_auc": auc,
            "trace_check": "identical" if identical else "MISMATCH",
        })
    return {"results.csv": rows}, int(any(row["trace_check"] == "MISMATCH" for row in rows))


def _load_asset(setting: str, bundled, from_file):
    """The bundled asset, or the one ``from_file`` reads from the file
    ``setting`` names; that reader alone reports a missing or unreadable file."""
    return bundled() if setting == "bundled" else from_file(Path(setting))


def run_keywords(config: ExperimentConfig) -> tuple[dict, int]:
    """The keywords-to-classifier pipeline on a corpus, configured before any read."""
    settings = dict(config.sections["corpus"])
    corpus_path, keywords_path = settings.pop("corpus_path"), settings.pop("keywords_path")
    train = replace(config.train, objective="auc", seed=config.seeds[0])
    pipeline_config = check_value("[corpus] prior", PipelineConfig, train, **settings)
    corpus = _load_asset(corpus_path, load_mini_corpus, Corpus.from_jsonl)
    keywords = _load_asset(keywords_path, load_keywords, KeywordSet.from_file)
    report = run_pipeline(corpus, keywords, pipeline_config)

    # an absent or undefined value is None: an empty cell and JSON null
    metrics = report["test_metrics"] or {}
    pi_pos, pi_neg, auc = report["empirical_pi_pos"], report["empirical_pi_neg"], report["test_auc"]
    row = {
        "n_pseudo_pos": report["n_pseudo_pos"],
        "n_pseudo_neg": report["n_pseudo_neg"],
        "empirical_pi_pos": pi_pos,
        "empirical_pi_neg": pi_neg,
        "threshold_beta": report["threshold"]["beta"],
        "threshold_method": report["threshold"]["method"],
        "test_auc": auc,
        **{key: metrics.get(key) for key in ("cer", "ber", "precision", "recall", "f1")},
    }
    artifacts = {
        "report.json": json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n",
        "metrics.csv": [row],
    }

    informative = pi_pos is None or pi_neg is None or pi_pos > pi_neg
    above_chance = auc is None or auc > 0.5
    return artifacts, 0 if (informative and above_chance) else 1


# name -> (runner, the config sections it reads, whether it runs one seed)
_SWEEP_SECTIONS = ("experiment", "dataset", "noise", "losses", "assertions", "train")
_DEMO_SECTIONS = ("experiment", "dataset", "train")
_EXPERIMENTS = {
    "verify_identities": (run_verify_identities, ("experiment", "losses", "identities"), True),
    "noise_sweep": (partial(_run_sweep, cells=None), _SWEEP_SECTIONS, False),
    "loss_compare": (partial(_run_sweep, cells=1), _SWEEP_SECTIONS, False),
    "pu_demo": (partial(_run_reduction_demo, reduction="pu"), _DEMO_SECTIONS + ("pu",), False),
    "uu_demo": (partial(_run_reduction_demo, reduction="uu"), _DEMO_SECTIONS + ("uu",), False),
    "keywords": (run_keywords, ("experiment", "corpus", "train"), True),
}
EXPERIMENTS = tuple(_EXPERIMENTS)

# section -> key -> (kind, default[, rule]).  A kind is a type, a tuple of
# allowed strings, or a one-type list for comma-separated values.  A rule
# raises ValueError on a given number out of range (defaults are not checked).
# [train] keys are TrainConfig field names; its epochs and batch_size
# defaults are the config-level ones, not TrainConfig's.
_SCHEMA: dict[str, dict[str, tuple]] = {
    "experiment": {
        "name": (EXPERIMENTS, None),  # None: the invoked command's experiment
        "output_dir": (str, "out"),
        "seeds": ([int], [0]),
    },
    "dataset": {
        "dimension": (int, 2),
        "mean_pos": ([float], None),  # None: 1.5 in every coordinate
        "mean_neg": ([float], None),  # None: -1.5 in every coordinate
        "covariance": ([float], None),  # None: 1.0 in every coordinate
        "n_train_per_class": (int, 500, _at_least(1)),
        "n_test_per_class": (int, 2000, _at_least(1)),
    },
    "noise": {"pi_corr_pos": ([float], []), "pi_corr_neg": ([float], [])},
    "losses": {"names": ([str], ["sigmoid"])},  # "all": the whole catalog
    "assertions": {"loss_order": (str, None)},  # "lossA <= lossB"
    "train": {
        "objective": (("ber", "auc"), "ber"),
        "loss": (str, "sigmoid"),
        "step_size": (float, 0.05),
        "adaptive_moments": (bool, True),
        "epochs": (int, 150),
        "batch_size": (int, 128),
        "pair_batch": (int, 256),
        "weight_decay": (float, 0.0),
        "model": (("linear", "mlp"), "linear"),
        "hidden_units": (int, 8),
    },
    "identities": {
        "instances": (int, 100, _at_least(1)),
        "max_support": (int, 5, _at_least(2)),
        "score_range": (float, 3.0, _check_score_range),
        "tolerance": (float, 1e-10, _at_least(0)),
        "symmetric_tolerance": (float, 1e-12, _at_least(0)),
    },
    "pu": {"class_prior_unlabeled": (float, 0.4, pu_params)},
    "uu": {"pi_u": (float, 0.7), "pi_u_prime": (float, 0.3)},
    "corpus": {
        "corpus_path": (str, "bundled"),
        "keywords_path": (str, "bundled"),
        "tau": (float, 0.15, check_tau),
        "scheme": (("tf", "tf_idf"), "tf_idf"),
        "min_doc_freq": (int, 1, _at_least(1)),
        "threshold_method": (tuple(THRESHOLD_ALIASES) + THRESHOLD_METHODS, "breakeven"),
        "prior": (float, None, check_prior),
    },
}


def run_experiment(config: ExperimentConfig) -> int:
    """Run ``config``'s experiment, then write its artifacts and manifest
    into ``config.output_dir``; the exit status is the runner's.  A directory
    that cannot be made, or a file that cannot be written, is a
    ConfigurationError naming it.  The run's files are deleted first: those
    written, and the one that failed after its open, so none is left without
    its manifest and no file is left part written."""
    artifacts, status = _EXPERIMENTS[config.experiment][0](config)
    try:
        config.output_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigurationError(
            f"{config.output_dir}: cannot make the output directory ({exc.strerror})"
        ) from None
    paths = [config.output_dir / name for name in artifacts]
    written = []
    try:
        for path, content in zip(paths, artifacts.values()):
            if isinstance(content, str):
                path.write_text(content)
            else:
                write_csv(path, content)
            written.append(path)
        path = config.output_dir / "manifest.json"
        write_manifest(config, paths)
    except OSError as exc:
        if exc.filename is None:  # a write or close failed: the file was opened
            written.append(path)
        for done in written:
            done.unlink(missing_ok=True)
        raise ConfigurationError(f"{path}: cannot write ({exc.strerror})") from None
    return status
