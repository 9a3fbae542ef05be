"""Config-driven experiment runners.

Each runner takes a parsed :class:`ExperimentConfig`, writes CSV/JSON
artifacts plus a manifest into the output directory, and returns a
process exit status: nonzero exactly when an acceptance assertion inside
the experiment fails.  Runs are deterministic given the config, all
floats are printed with 12 significant digits, and no timestamps are
written, so re-running a config reproduces byte-identical outputs.
"""

from __future__ import annotations

import configparser
import csv
import hashlib
import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional, Sequence

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
from .errors import ConfigurationError
from .losses import LOSS_NAMES, get_loss
from .risks import (
    auc_decomposition_check,
    auc_score,
    ber_decomposition_check,
    empirical_ber_risk,
    symmetric_excess_constant,
)
from .textpipe import Corpus, KeywordSet, PipelineConfig, run_pipeline
from .threshold import THRESHOLD_METHODS
from .training import TrainConfig, train_auc, train_ber

__all__ = [
    "ExperimentConfig",
    "EXPERIMENTS",
    "THRESHOLD_ALIASES",
    "check_loss_name",
    "parse_config",
    "run_experiment",
    "run_verify_identities",
    "run_noise_sweep",
    "run_loss_compare",
    "run_pu_demo",
    "run_uu_demo",
    "run_keywords",
]

EXPERIMENTS = (
    "verify_identities",
    "noise_sweep",
    "loss_compare",
    "pu_demo",
    "uu_demo",
    "keywords",
)

# user-facing names for the threshold methods
THRESHOLD_ALIASES = {
    "breakeven": "breakeven_known_prior",
    "heuristic": "heuristic_pseudo_ratio",
    "default": "default_zero",
}


def check_loss_name(name: str, where: str) -> str:
    """``name`` if it is a catalog loss, else a ConfigurationError naming ``where``."""
    try:
        get_loss(name)
    except ValueError as exc:
        raise ConfigurationError(f"{where}: {exc}") from None
    return name


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def write_csv(path: Path, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(cell) for cell in row])


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


class _Section:
    """Typed access to one config section with field-named errors."""

    def __init__(self, name: str, values: dict[str, str]):
        self.name = name
        self.values = values

    def _raw(self, key: str, default=None, required=False) -> Optional[str]:
        if key in self.values:
            return self.values[key]
        if required:
            raise ConfigurationError(f"[{self.name}] {key}: missing required field")
        return default

    def get_str(self, key: str, default=None, required=False, choices=None) -> Optional[str]:
        value = self._raw(key, default, required)
        if value is not None and choices is not None and value not in choices:
            raise ConfigurationError(
                f"[{self.name}] {key}: {value!r} is not one of {sorted(choices)}"
            )
        return value

    def _convert(self, key: str, value: str, kind, label: str):
        try:
            return kind(value)
        except ValueError:
            raise ConfigurationError(
                f"[{self.name}] {key}: {value!r} is not {label}"
            ) from None

    def get_int(self, key: str, default=None, required=False) -> Optional[int]:
        value = self._raw(key, None, required)
        if value is None:
            return default
        return self._convert(key, value, int, "an integer")

    def get_float(self, key: str, default=None, required=False) -> Optional[float]:
        value = self._raw(key, None, required)
        if value is None:
            return default
        return self._convert(key, value, float, "a number")

    def get_bool(self, key: str, default=None) -> Optional[bool]:
        value = self._raw(key)
        if value is None:
            return default
        lowered = value.strip().lower()
        if lowered in ("true", "yes", "1", "on"):
            return True
        if lowered in ("false", "no", "0", "off"):
            return False
        raise ConfigurationError(f"[{self.name}] {key}: {value!r} is not a boolean")

    def _get_list(self, key: str, default, required, kind, label: str) -> Optional[list]:
        value = self._raw(key, None, required)
        if value is None:
            return default
        items = [item.strip() for item in value.split(",") if item.strip()]
        return [self._convert(key, item, kind, label) for item in items]

    def get_float_list(self, key: str, default=None, required=False) -> Optional[list[float]]:
        return self._get_list(key, default, required, float, "a number")

    def get_int_list(self, key: str, default=None, required=False) -> Optional[list[int]]:
        return self._get_list(key, default, required, int, "an integer")

    def get_str_list(self, key: str, default=None, required=False) -> Optional[list[str]]:
        return self._get_list(key, default, required, str, "a string")


@dataclass
class ExperimentConfig:
    """Everything one experiment run needs, already validated."""

    experiment: str
    output_dir: Path
    seeds: list[int]
    echo: dict[str, dict[str, str]] = field(default_factory=dict)

    # synthetic dataset
    gaussians: Optional[GaussianPairConfig] = None
    n_train_per_class: int = 500
    n_test_per_class: int = 2000

    # noise grid and losses
    noise_grid: list[McdParams] = field(default_factory=list)
    losses: list[str] = field(default_factory=list)
    loss_order: Optional[tuple[str, str]] = None

    # training block
    train: Optional[TrainConfig] = None

    # identity suite
    identity_instances: int = 100
    identity_max_support: int = 5
    identity_score_range: float = 3.0
    identity_tolerance: float = 1e-10
    identity_symmetric_tolerance: float = 1e-12

    # reductions
    pu_class_prior: float = 0.4
    uu_pi: float = 0.7
    uu_pi_prime: float = 0.3

    # keywords pipeline
    corpus_path: Optional[str] = None
    keywords_file: Optional[str] = None
    tau: float = 0.15
    scheme: str = "tf_idf"
    min_doc_freq: int = 1
    threshold_method: str = "breakeven_known_prior"
    known_prior: Optional[float] = None


def _parse_losses(section: _Section, key: str, default: list[str]) -> list[str]:
    names = section.get_str_list(key, default=default)
    if names == ["all"]:
        return list(LOSS_NAMES)
    return [check_loss_name(name, f"[{section.name}] {key}") for name in names]


def _parse_train(section: _Section) -> TrainConfig:
    kwargs = dict(
        objective=section.get_str("objective", default="ber", choices=("ber", "auc")),
        loss=check_loss_name(section.get_str("loss", default="sigmoid"), f"[{section.name}] loss"),
        step_size=section.get_float("step_size", default=0.05),
        adaptive_moments=section.get_bool("adaptive_moments", default=True),
        epochs=section.get_int("epochs", default=150),
        batch_size=section.get_int("batch_size", default=128),
        pair_batch=section.get_int("pair_batch", default=256),
        weight_decay=section.get_float("weight_decay", default=0.0),
        model=section.get_str("model", default="linear", choices=("linear", "mlp")),
        hidden_units=section.get_int("hidden_units", default=8),
    )
    try:
        return TrainConfig(**kwargs)
    except ValueError as exc:
        raise ConfigurationError(f"[{section.name}] {exc}") from exc


def _parse_gaussians(section: _Section) -> GaussianPairConfig:
    dimension = section.get_int("dimension", default=2)
    mean_pos = section.get_float_list("mean_pos", default=[1.5] * dimension)
    mean_neg = section.get_float_list("mean_neg", default=[-1.5] * dimension)
    covariance = section.get_float_list("covariance", default=[1.0] * dimension)
    try:
        return GaussianPairConfig(mean_pos, mean_neg, covariance, dimension)
    except ValueError as exc:
        raise ConfigurationError(f"[{section.name}] {exc}") from exc


def parse_config(path, experiment: Optional[str] = None) -> ExperimentConfig:
    """Parse and validate a flat key = value experiment config file."""
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"config file not found: {path}")
    parser = configparser.ConfigParser()
    try:
        parser.read(path)
    except configparser.Error as exc:
        raise ConfigurationError(f"{path}: {exc}") from exc

    sections = {
        name: _Section(name, dict(parser[name])) for name in parser.sections()
    }

    def section(name: str) -> _Section:
        return sections.get(name, _Section(name, {}))

    exp_section = section("experiment")
    name = exp_section.get_str("name", default=experiment, choices=EXPERIMENTS)
    if name is None:
        raise ConfigurationError("[experiment] name: missing required field")
    if experiment is not None and name != experiment:
        raise ConfigurationError(
            f"[experiment] name: config says {name!r} but the "
            f"{experiment!r} command was invoked"
        )

    seeds = exp_section.get_int_list("seeds", default=[0])
    if not seeds:
        raise ConfigurationError("[experiment] seeds: must list at least one seed")

    config = ExperimentConfig(
        experiment=name,
        output_dir=Path(exp_section.get_str("output_dir", default="out")),
        seeds=seeds,
        echo={sec: dict(parser[sec]) for sec in parser.sections()},
    )

    dataset = section("dataset")
    config.gaussians = _parse_gaussians(dataset)
    config.n_train_per_class = dataset.get_int("n_train_per_class", default=500)
    config.n_test_per_class = dataset.get_int("n_test_per_class", default=2000)

    noise = section("noise")
    pos_list = noise.get_float_list("pi_corr_pos", default=[])
    neg_list = noise.get_float_list("pi_corr_neg", default=[])
    if len(pos_list) != len(neg_list):
        raise ConfigurationError(
            "[noise] pi_corr_pos and pi_corr_neg must have the same length"
        )
    for a, b in zip(pos_list, neg_list):
        try:
            config.noise_grid.append(McdParams(a, b))
        except ValueError as exc:
            raise ConfigurationError(f"[noise] ({a}, {b}): {exc}") from exc

    config.losses = _parse_losses(section("losses"), "names", default=["sigmoid"])

    order = section("assertions").get_str("loss_order")
    if order is not None:
        parts = [part.strip() for part in order.split("<=")]
        if len(parts) != 2 or not all(parts):
            raise ConfigurationError(
                "[assertions] loss_order: expected 'lossA <= lossB'"
            )
        for part in parts:
            check_loss_name(part, "[assertions] loss_order")
            if part not in config.losses:
                raise ConfigurationError(
                    f"[assertions] loss_order: {part!r} must also be in [losses] names"
                )
        config.loss_order = (parts[0], parts[1])

    config.train = _parse_train(section("train"))

    identities = section("identities")
    config.identity_instances = identities.get_int("instances", default=100)
    config.identity_max_support = identities.get_int("max_support", default=5)
    config.identity_score_range = identities.get_float("score_range", default=3.0)
    config.identity_tolerance = identities.get_float("tolerance", default=1e-10)
    config.identity_symmetric_tolerance = identities.get_float(
        "symmetric_tolerance", default=1e-12
    )

    pu = section("pu")
    config.pu_class_prior = pu.get_float("class_prior_unlabeled", default=0.4)
    uu = section("uu")
    config.uu_pi = uu.get_float("pi_u", default=0.7)
    config.uu_pi_prime = uu.get_float("pi_u_prime", default=0.3)

    corpus = section("corpus")
    config.corpus_path = corpus.get_str("corpus_path", default="bundled")
    config.keywords_file = corpus.get_str("keywords_path", default="bundled")
    config.tau = corpus.get_float("tau", default=0.15)
    config.scheme = corpus.get_str("scheme", default="tf_idf", choices=("tf", "tf_idf"))
    config.min_doc_freq = corpus.get_int("min_doc_freq", default=1)
    method = corpus.get_str(
        "threshold_method",
        default="breakeven",
        choices=tuple(THRESHOLD_ALIASES) + THRESHOLD_METHODS,
    )
    config.threshold_method = THRESHOLD_ALIASES.get(method, method)
    config.known_prior = corpus.get_float("prior", default=None)

    return config


def _random_identity_instance(rng, max_support: int, score_range: float):
    m = int(rng.integers(2, max_support + 1))
    support = np.arange(m, dtype=float).reshape(-1, 1)
    dist = DiscreteBinaryDistribution(
        support, rng.dirichlet(np.ones(m)), rng.dirichlet(np.ones(m)),
        float(rng.uniform(0.1, 0.9)),
    )
    scores = rng.uniform(-score_range, score_range, size=m)
    b = float(rng.uniform(0.0, 0.8))
    a = float(rng.uniform(b + 0.05, 1.0))
    return dist, scores, McdParams(a, b)


def run_verify_identities(config: ExperimentConfig) -> int:
    """Residuals of both risk decompositions over randomized instances."""
    config.output_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(config.seeds[0])
    rows = []
    failures = 0
    for loss_name in config.losses:
        loss = get_loss(loss_name)
        for instance in range(config.identity_instances):
            dist, scores, params = _random_identity_instance(
                rng, config.identity_max_support, config.identity_score_range
            )
            ber = ber_decomposition_check(loss, dist, scores, params)
            auc = auc_decomposition_check(loss, dist, scores, params)
            ok = (
                ber.residual <= config.identity_tolerance
                and auc.residual <= config.identity_tolerance
            )
            symmetric_excess = ""
            if loss.symmetric:
                expected = symmetric_excess_constant(loss, params)
                symmetric_excess = expected
                ok = ok and (
                    abs(ber.components["excess"] - expected)
                    <= config.identity_symmetric_tolerance
                    and abs(auc.components["excess"] - expected)
                    <= config.identity_symmetric_tolerance
                )
            failures += 0 if ok else 1
            rows.append(
                [
                    loss_name,
                    instance,
                    dist.size,
                    params.pi_corr_pos,
                    params.pi_corr_neg,
                    ber.lhs,
                    ber.rhs,
                    ber.residual,
                    ber.components["excess"],
                    auc.lhs,
                    auc.rhs,
                    auc.residual,
                    auc.components["excess"],
                    symmetric_excess,
                    "ok" if ok else "FAIL",
                ]
            )
    results = config.output_dir / "residuals.csv"
    write_csv(
        results,
        [
            "loss", "instance", "support_size", "pi_corr_pos", "pi_corr_neg",
            "ber_lhs", "ber_rhs", "ber_residual", "ber_excess",
            "auc_lhs", "auc_rhs", "auc_residual", "auc_excess",
            "symmetric_excess", "status",
        ],
        rows,
    )
    write_manifest(config, [results])
    return 0 if failures == 0 else 1


def _train_and_evaluate(config, loss_name, params, seed):
    sampler_pos, sampler_neg = config.gaussians.samplers()
    n = config.n_train_per_class
    set_pos, set_neg = sample_mcd(sampler_pos, sampler_neg, params, n, n, seed=seed)
    trainer = train_ber if config.train.objective == "ber" else train_auc
    trace = trainer(set_pos, set_neg, replace(config.train, loss=loss_name, seed=seed))

    test_rng = np.random.default_rng(seed + 982_451_653)
    test_pos = sampler_pos(test_rng, config.n_test_per_class)
    test_neg = sampler_neg(test_rng, config.n_test_per_class)
    ber = empirical_ber_risk(get_loss("zero_one"), test_pos, test_neg, trace.scorer).value
    score = auc_score(trace.scorer(test_pos), trace.scorer(test_neg))
    return trace, ber, score


def _sweep(config: ExperimentConfig, grid: list[McdParams]) -> tuple[list, dict]:
    rows = []
    cell_means: dict = {}
    for params in grid:
        for loss_name in config.losses:
            bers, aucs = [], []
            for seed in config.seeds:
                _, ber, score = _train_and_evaluate(config, loss_name, params, seed)
                rows.append(
                    [loss_name, params.pi_corr_pos, params.pi_corr_neg, seed, ber, score]
                )
                bers.append(ber)
                aucs.append(score)
            cell_means[(params, loss_name)] = (
                float(np.mean(bers)),
                float(np.std(bers, ddof=1) / math.sqrt(len(bers))) if len(bers) > 1 else 0.0,
                float(np.mean(aucs)),
                float(np.std(aucs, ddof=1) / math.sqrt(len(aucs))) if len(aucs) > 1 else 0.0,
            )
    return rows, cell_means


def _write_sweep_outputs(config, rows, cell_means) -> list[Path]:
    results = config.output_dir / "results.csv"
    write_csv(
        results,
        ["loss", "pi_corr_pos", "pi_corr_neg", "seed", "clean_test_ber", "clean_test_auc"],
        rows,
    )
    aggregate = config.output_dir / "aggregate.csv"
    agg_rows = [
        [
            params.pi_corr_pos, params.pi_corr_neg, loss_name,
            mean_ber, se_ber, mean_auc, se_auc,
        ]
        for (params, loss_name), (mean_ber, se_ber, mean_auc, se_auc) in cell_means.items()
    ]
    write_csv(
        aggregate,
        [
            "pi_corr_pos", "pi_corr_neg", "loss",
            "mean_clean_ber", "stderr_clean_ber", "mean_clean_auc", "stderr_clean_auc",
        ],
        agg_rows,
    )
    return [results, aggregate]


def _check_loss_order(config, cell_means, grid) -> int:
    if config.loss_order is None:
        return 0
    first, second = config.loss_order
    for params in grid:
        if cell_means[(params, first)][0] > cell_means[(params, second)][0]:
            return 1
    return 0


def _run_sweep(config: ExperimentConfig, grid: list[McdParams]) -> int:
    if not grid:
        raise ConfigurationError("[noise] pi_corr_pos: noise grid is empty")
    config.output_dir.mkdir(parents=True, exist_ok=True)
    rows, cell_means = _sweep(config, grid)
    artifacts = _write_sweep_outputs(config, rows, cell_means)
    write_manifest(config, artifacts)
    return _check_loss_order(config, cell_means, grid)


def run_noise_sweep(config: ExperimentConfig) -> int:
    """Train per (noise cell, loss, seed); report clean-test BER/AUC."""
    return _run_sweep(config, config.noise_grid)


def run_loss_compare(config: ExperimentConfig) -> int:
    """A sweep across many losses on the first noise cell only."""
    return _run_sweep(config, config.noise_grid[:1])


def _run_reduction_demo(config: ExperimentConfig, reduction: str) -> int:
    """PU/UU route vs. the generic corrupted route: traces must match."""
    config.output_dir.mkdir(parents=True, exist_ok=True)
    if reduction == "pu":
        reduced = pu_params(config.pu_class_prior)
        generic = McdParams(1.0, config.pu_class_prior)
    else:
        reduced = uu_params(config.uu_pi, config.uu_pi_prime)
        generic = McdParams(config.uu_pi, config.uu_pi_prime)

    rows = []
    mismatches = 0
    for seed in config.seeds:
        trace_reduced, ber_reduced, auc_reduced = _train_and_evaluate(
            config, config.train.loss, reduced, seed
        )
        trace_generic, ber_generic, auc_generic = _train_and_evaluate(
            config, config.train.loss, generic, seed
        )
        identical = trace_reduced.objectives == trace_generic.objectives and np.array_equal(
            trace_reduced.scorer.params, trace_generic.scorer.params
        )
        mismatches += 0 if identical else 1
        rows.append(
            [
                seed,
                reduction,
                reduced.pi_corr_pos,
                reduced.pi_corr_neg,
                trace_reduced.final_objective(),
                trace_generic.final_objective(),
                ber_reduced,
                auc_reduced,
                "identical" if identical else "MISMATCH",
            ]
        )
    results = config.output_dir / "results.csv"
    write_csv(
        results,
        [
            "seed", "reduction", "pi_corr_pos", "pi_corr_neg",
            "final_objective_reduction", "final_objective_generic",
            "clean_test_ber", "clean_test_auc", "trace_check",
        ],
        rows,
    )
    write_manifest(config, [results])
    return 0 if mismatches == 0 else 1


def run_pu_demo(config: ExperimentConfig) -> int:
    return _run_reduction_demo(config, "pu")


def run_uu_demo(config: ExperimentConfig) -> int:
    return _run_reduction_demo(config, "uu")


def _load_corpus_assets(config: ExperimentConfig) -> tuple[Corpus, KeywordSet]:
    if config.corpus_path in (None, "bundled"):
        corpus = load_mini_corpus()
    else:
        path = Path(config.corpus_path)
        if not path.is_file():
            raise FileNotFoundError(f"corpus file not found: {path}")
        corpus = Corpus.from_jsonl(path)
    if config.keywords_file in (None, "bundled"):
        keywords = load_keywords()
    else:
        path = Path(config.keywords_file)
        if not path.is_file():
            raise FileNotFoundError(f"keyword file not found: {path}")
        keywords = KeywordSet.from_file(path)
    return corpus, keywords


def run_keywords(config: ExperimentConfig) -> int:
    """The full keywords-to-classifier pipeline on a corpus."""
    config.output_dir.mkdir(parents=True, exist_ok=True)
    corpus, keywords = _load_corpus_assets(config)
    pipeline_config = PipelineConfig(
        train=replace(config.train, objective="auc", seed=config.seeds[0]),
        tau=config.tau,
        scheme=config.scheme,
        min_doc_freq=config.min_doc_freq,
        threshold_method=config.threshold_method,
        known_prior=config.known_prior,
    )
    report = run_pipeline(corpus, keywords, pipeline_config)

    report_path = config.output_dir / "report.json"
    with open(report_path, "w") as fh:
        fh.write(report.to_json(indent=2))
        fh.write("\n")

    metrics = report.test_metrics or {}
    metrics_path = config.output_dir / "metrics.csv"
    write_csv(
        metrics_path,
        [
            "n_pseudo_pos", "n_pseudo_neg", "empirical_pi_pos", "empirical_pi_neg",
            "threshold_beta", "threshold_method", "test_auc",
            "cer", "ber", "precision", "recall", "f1",
        ],
        [
            [
                report.n_pseudo_pos,
                report.n_pseudo_neg,
                "" if report.empirical_pi_pos is None else report.empirical_pi_pos,
                "" if report.empirical_pi_neg is None else report.empirical_pi_neg,
                report.threshold.beta,
                report.threshold.method,
                "" if report.test_auc is None else report.test_auc,
                *[metrics.get(key, "") for key in ("cer", "ber", "precision", "recall", "f1")],
            ]
        ],
    )
    write_manifest(config, [report_path, metrics_path])

    informative = (
        report.empirical_pi_pos is None
        or report.empirical_pi_neg is None
        or report.empirical_pi_pos > report.empirical_pi_neg
    )
    above_chance = report.test_auc is None or report.test_auc > 0.5
    return 0 if (informative and above_chance) else 1


_RUNNERS = {
    "verify_identities": run_verify_identities,
    "noise_sweep": run_noise_sweep,
    "loss_compare": run_loss_compare,
    "pu_demo": run_pu_demo,
    "uu_demo": run_uu_demo,
    "keywords": run_keywords,
}


def run_experiment(config: ExperimentConfig) -> int:
    return _RUNNERS[config.experiment](config)
