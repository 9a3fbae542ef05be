"""Config parsing, CLI subcommands, artifacts, and manifest reproducibility."""

import csv
import json
from dataclasses import replace

import pytest

import symloss.experiments
import symloss.textpipe
from symloss.cli import main
from symloss.datasets import default_config_path
from symloss.errors import ConfigurationError
from symloss.experiments import parse_config, run_experiment

SMALL_DATASET = """
[dataset]
dimension = 2
mean_pos = 1.5, 1.5
mean_neg = -1.5, -1.5
covariance = 1.0, 1.0
n_train_per_class = 120
n_test_per_class = 200
"""

SMALL_TRAIN = """
[train]
objective = ber
step_size = 0.05
epochs = 12
batch_size = 64
model = linear
"""


def write_config(tmp_path, text, name="config.ini"):
    path = tmp_path / name
    path.write_text(text)
    return path


def sweep_config(tmp_path):
    return write_config(
        tmp_path,
        f"""
[experiment]
name = noise_sweep
output_dir = {tmp_path / 'out'}
seeds = 0, 1

[noise]
pi_corr_pos = 0.8
pi_corr_neg = 0.3

[losses]
names = sigmoid, logistic
{SMALL_DATASET}
{SMALL_TRAIN}
""",
    )


def read_csv(path):
    with open(path) as fh:
        return list(csv.reader(fh))


class TestParseConfig:
    def test_unknown_loss_names_field(self, tmp_path):
        path = write_config(
            tmp_path,
            "[experiment]\nname = verify_identities\n\n[losses]\nnames = sigmoidd\n",
        )
        with pytest.raises(ConfigurationError, match=r"\[losses\] names.*sigmoidd"):
            parse_config(path)

    def test_bad_noise_grid_lengths(self, tmp_path):
        path = write_config(
            tmp_path,
            "[experiment]\nname = noise_sweep\n\n[noise]\npi_corr_pos = 0.8, 0.7\npi_corr_neg = 0.3\n",
        )
        with pytest.raises(ConfigurationError, match="same length"):
            parse_config(path)

    def test_invalid_noise_cell_named(self, tmp_path):
        path = write_config(
            tmp_path,
            "[experiment]\nname = noise_sweep\n\n[noise]\npi_corr_pos = 0.3\npi_corr_neg = 0.7\n",
        )
        with pytest.raises(ConfigurationError, match=r"\[noise\]"):
            parse_config(path)

    def test_empty_seeds_rejected(self, tmp_path):
        path = write_config(
            tmp_path, "[experiment]\nname = keywords\nseeds =\n"
        )
        with pytest.raises(ConfigurationError, match="seed"):
            parse_config(path)

    def test_experiment_name_mismatch(self, tmp_path):
        path = write_config(tmp_path, "[experiment]\nname = keywords\n")
        with pytest.raises(ConfigurationError, match="command was invoked"):
            parse_config(path, experiment="noise_sweep")

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            parse_config(tmp_path / "nope.ini")

    def test_bad_number_named(self, tmp_path):
        path = write_config(
            tmp_path,
            "[experiment]\nname = keywords\n\n[corpus]\ntau = high\n",
        )
        with pytest.raises(ConfigurationError, match=r"\[corpus\] tau"):
            parse_config(path)

    @pytest.mark.parametrize(
        "text, location",
        [
            ("[train]\nloss = gamma\n", r"\[train\] loss"),
            ("[assertions]\nloss_order = gamma <= sigmoid\n", r"\[assertions\] loss_order"),
        ],
    )
    def test_unknown_loss_names_location_and_choices(self, tmp_path, text, location):
        path = write_config(tmp_path, "[experiment]\nname = noise_sweep\n\n" + text)
        expected = location + r": unknown loss 'gamma'; choose from"
        with pytest.raises(ConfigurationError, match=expected):
            parse_config(path)

    def test_loss_order_outside_loss_names_fails_before_training(self, tmp_path):
        out = tmp_path / "out"
        path = write_config(
            tmp_path,
            f"""
[experiment]
name = noise_sweep
output_dir = {out}

[noise]
pi_corr_pos = 0.8
pi_corr_neg = 0.3

[losses]
names = sigmoid, logistic

[assertions]
loss_order = sigmoid <= hinge
""",
        )
        with pytest.raises(ConfigurationError, match=r"\[assertions\] loss_order.*'hinge'"):
            parse_config(path)
        assert main(["noise-sweep", "--config", str(path)]) == 2
        assert not out.exists()


class TestVerifyIdentitiesCommand:
    def test_small_run_exits_zero(self, tmp_path):
        config = write_config(
            tmp_path,
            f"""
[experiment]
name = verify_identities
output_dir = {tmp_path / 'out'}
seeds = 0

[losses]
names = all

[identities]
instances = 5
""",
        )
        assert main(["verify-identities", "--config", str(config)]) == 0
        rows = read_csv(tmp_path / "out" / "residuals.csv")
        assert len(rows) == 1 + 11 * 5
        header = rows[0]
        residual_col = header.index("ber_residual")
        assert all(float(row[residual_col]) <= 1e-10 for row in rows[1:])

    def test_single_loss_single_instance_is_one_row(self, tmp_path):
        config = write_config(
            tmp_path,
            f"""
[experiment]
name = verify_identities
output_dir = {tmp_path / 'out'}

[losses]
names = sigmoid

[identities]
instances = 1
""",
        )
        assert main(["verify-identities", "--config", str(config)]) == 0
        rows = read_csv(tmp_path / "out" / "residuals.csv")
        assert len(rows) == 2  # header + one data row

    def test_broken_loss_name_is_a_cli_error(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            "[experiment]\nname = verify_identities\n\n[losses]\nnames = sigmoidd\n",
        )
        assert main(["verify-identities", "--config", str(config)]) == 2
        assert "names" in capsys.readouterr().err


class TestNoiseSweepCommand:
    def test_writes_results_and_aggregate(self, tmp_path):
        assert main(["noise-sweep", "--config", str(sweep_config(tmp_path))]) == 0
        results = read_csv(tmp_path / "out" / "results.csv")
        # header + 1 cell x 2 losses x 2 seeds
        assert len(results) == 1 + 4
        aggregate = read_csv(tmp_path / "out" / "aggregate.csv")
        assert len(aggregate) == 1 + 2
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert set(manifest["artifacts"]) == {"results.csv", "aggregate.csv"}

    def test_rerun_is_byte_identical(self, tmp_path):
        config = sweep_config(tmp_path)
        assert main(["noise-sweep", "--config", str(config)]) == 0
        first = {
            name: (tmp_path / "out" / name).read_bytes()
            for name in ("results.csv", "aggregate.csv", "manifest.json")
        }
        assert main(["noise-sweep", "--config", str(config)]) == 0
        for name, blob in first.items():
            assert (tmp_path / "out" / name).read_bytes() == blob

    def test_empty_grid_is_config_error(self, tmp_path):
        config = write_config(
            tmp_path,
            f"[experiment]\nname = noise_sweep\noutput_dir = {tmp_path / 'out'}\n",
        )
        assert main(["noise-sweep", "--config", str(config)]) == 2

    def test_clean_cell_reaches_low_ber_for_both_losses(self, tmp_path):
        config = write_config(
            tmp_path,
            f"""
[experiment]
name = noise_sweep
output_dir = {tmp_path / 'out'}
seeds = 0, 1

[noise]
pi_corr_pos = 1.0
pi_corr_neg = 0.0

[losses]
names = sigmoid, logistic

[dataset]
dimension = 2
mean_pos = 1.5, 1.5
mean_neg = -1.5, -1.5
covariance = 1.0, 1.0
n_train_per_class = 200
n_test_per_class = 500

[train]
objective = ber
epochs = 40
batch_size = 64
""",
        )
        assert main(["noise-sweep", "--config", str(config)]) == 0
        aggregate = read_csv(tmp_path / "out" / "aggregate.csv")
        ber_col = aggregate[0].index("mean_clean_ber")
        assert all(float(row[ber_col]) <= 0.05 for row in aggregate[1:])

    def test_loss_compare_trains_first_cell_and_keeps_grid(self, tmp_path):
        path = write_config(
            tmp_path,
            f"""
[experiment]
name = loss_compare
output_dir = {tmp_path / 'out'}
seeds = 0

[noise]
pi_corr_pos = 0.8, 0.7
pi_corr_neg = 0.3, 0.4

[losses]
names = sigmoid, logistic
{SMALL_DATASET}
{SMALL_TRAIN}
""",
        )
        config = parse_config(path)
        grid = list(config.noise_grid)
        assert run_experiment(config) == 0
        assert config.noise_grid == grid and len(grid) == 2
        results = read_csv(tmp_path / "out" / "results.csv")
        assert len(results) == 1 + 2
        assert {(row[1], row[2]) for row in results[1:]} == {("0.8", "0.3")}

    def test_seed_override(self, tmp_path):
        config = sweep_config(tmp_path)
        assert main(["noise-sweep", "--config", str(config), "--seed", "7"]) == 0
        results = read_csv(tmp_path / "out" / "results.csv")
        assert len(results) == 1 + 2  # one seed only
        assert {row[3] for row in results[1:]} == {"7"}


class TestReductionCommands:
    def test_pu_demo(self, tmp_path):
        config = write_config(
            tmp_path,
            f"""
[experiment]
name = pu_demo
output_dir = {tmp_path / 'out'}
seeds = 0

[pu]
class_prior_unlabeled = 0.4
{SMALL_DATASET}
{SMALL_TRAIN}
""",
        )
        assert main(["pu-demo", "--config", str(config)]) == 0
        rows = read_csv(tmp_path / "out" / "results.csv")
        assert rows[1][rows[0].index("trace_check")] == "identical"

    def test_uu_demo(self, tmp_path):
        config = write_config(
            tmp_path,
            f"""
[experiment]
name = uu_demo
output_dir = {tmp_path / 'out'}
seeds = 0

[uu]
pi_u = 0.7
pi_u_prime = 0.3
{SMALL_DATASET}
{SMALL_TRAIN}
""",
        )
        assert main(["uu-demo", "--config", str(config)]) == 0
        rows = read_csv(tmp_path / "out" / "results.csv")
        assert rows[1][rows[0].index("trace_check")] == "identical"


class TestKeywordsCommand:
    def keywords_config(self, tmp_path, corpus="bundled", keywords="bundled"):
        return write_config(
            tmp_path,
            f"""
[experiment]
name = keywords
output_dir = {tmp_path / 'out'}
seeds = 0

[corpus]
corpus_path = {corpus}
keywords_path = {keywords}
tau = 0.15
threshold_method = breakeven
prior = 0.3

[train]
objective = auc
loss = sigmoid
epochs = 60
batch_size = 64
""",
        )

    def test_bundled_run(self, tmp_path):
        assert main(["keywords", "--config", str(self.keywords_config(tmp_path))]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["test_auc"] > 0.5
        assert report["empirical_pi_pos"] > report["empirical_pi_neg"]
        assert (tmp_path / "out" / "metrics.csv").exists()

    def test_missing_keyword_file_names_path(self, tmp_path, capsys):
        missing = tmp_path / "absent_keywords.txt"
        config = self.keywords_config(tmp_path, keywords=str(missing))
        assert main(["keywords", "--config", str(config)]) == 2
        assert str(missing) in capsys.readouterr().err

    def test_threshold_method_flag(self, tmp_path):
        config = self.keywords_config(tmp_path)
        assert main(
            ["keywords", "--config", str(config), "--threshold-method", "default"]
        ) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["threshold"]["method"] == "default_zero"
        assert report["threshold"]["beta"] == 0.0

    def test_breakeven_f1_at_least_default_f1(self, tmp_path):
        config = self.keywords_config(tmp_path)
        assert main(["keywords", "--config", str(config), "--out", str(tmp_path / "be")]) == 0
        breakeven = json.loads((tmp_path / "be" / "report.json").read_text())
        assert main(
            ["keywords", "--config", str(config), "--out", str(tmp_path / "dz"),
             "--threshold-method", "default"]
        ) == 0
        default = json.loads((tmp_path / "dz" / "report.json").read_text())
        assert breakeven["test_metrics"]["f1"] >= default["test_metrics"]["f1"]

    def test_unknown_loss_flag(self, tmp_path, capsys):
        config = self.keywords_config(tmp_path)
        assert main(["keywords", "--config", str(config), "--loss", "gamma"]) == 2
        assert "gamma" in capsys.readouterr().err


class TestDefaultConfigs:
    @pytest.mark.parametrize(
        "experiment",
        ["verify_identities", "noise_sweep", "loss_compare", "pu_demo", "uu_demo", "keywords"],
    )
    def test_bundled_configs_parse(self, experiment):
        from symloss.datasets import default_config_path

        config = parse_config(default_config_path(experiment), experiment=experiment)
        assert config.experiment == experiment
        assert config.seeds


class TestTrainConfigReachesTrainer:
    """Every TrainConfig field set on a parsed config arrives at the trainer."""

    @staticmethod
    def capture(monkeypatch, module, name):
        received = []
        original = getattr(module, name)

        def recording(set_pos, set_neg, config, *args, **kwargs):
            received.append(config)
            return original(set_pos, set_neg, config, *args, **kwargs)

        monkeypatch.setattr(module, name, recording)
        return received

    @staticmethod
    def with_unparsed_fields(config):
        config.train = replace(config.train, epsilon=1e-6, moment_decay1=0.8, epochs=2)
        return config

    def test_noise_sweep(self, tmp_path, monkeypatch):
        received = self.capture(monkeypatch, symloss.experiments, "train_ber")
        config = self.with_unparsed_fields(parse_config(sweep_config(tmp_path)))
        assert run_experiment(config) == 0
        assert len(received) == 4
        for train in received:
            assert (train.epsilon, train.moment_decay1, train.epochs) == (1e-6, 0.8, 2)

    def test_keywords(self, tmp_path, monkeypatch):
        received = self.capture(monkeypatch, symloss.textpipe, "train_auc")
        config = self.with_unparsed_fields(parse_config(default_config_path("keywords")))
        config.output_dir = tmp_path / "out"
        run_experiment(config)
        [train] = received
        assert (train.epsilon, train.moment_decay1, train.epochs) == (1e-6, 0.8, 2)
        assert (train.objective, train.seed) == ("auc", config.seeds[0])
