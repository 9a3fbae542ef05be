"""Config parsing, CLI subcommands, artifacts, and manifest reproducibility."""

import builtins
import csv
import errno
import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import symloss.experiments
import symloss.textpipe
import symloss.training
from symloss.cli import main
from symloss.datasets import default_config_path, load_mini_corpus, mini_corpus_path
from symloss.distributions import McdParams
from symloss.errors import ConfigurationError
from symloss.experiments import _SCHEMA, parse_config, run_experiment, write_csv
from symloss.textpipe import Corpus
from symloss.training import Scorer, TrainConfig

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
        path = tmp_path / "nope.ini"
        with pytest.raises(ConfigurationError) as caught:
            parse_config(path)
        assert str(caught.value) == f"{path}: cannot read (No such file or directory)"

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

    def test_a_config_too_big_for_memory_exits_two(self, tmp_path, capsys, monkeypatch):
        # stands in for e.g. n_test_per_class = 100000000000, which asks
        # numpy for terabytes
        def runner(config):
            raise MemoryError("Unable to allocate 1.46 TiB for an array")

        experiments = symloss.experiments._EXPERIMENTS
        _, reads, one_seed = experiments["noise_sweep"]
        monkeypatch.setitem(experiments, "noise_sweep", (runner, reads, one_seed))
        config = sweep_config(tmp_path)
        assert main(["noise-sweep", "--config", str(config)]) == 2
        assert capsys.readouterr().err == (
            f"symloss: error: {config}: needs more memory than is available "
            "(Unable to allocate 1.46 TiB for an array)\n"
        )
        assert not (tmp_path / "out").exists()

    def test_any_other_value_error_still_raises(self, tmp_path, monkeypatch):
        def runner(config):
            raise ValueError("a bug")

        experiments = symloss.experiments._EXPERIMENTS
        _, reads, one_seed = experiments["noise_sweep"]
        monkeypatch.setitem(experiments, "noise_sweep", (runner, reads, one_seed))
        with pytest.raises(ValueError, match="a bug"):
            main(["noise-sweep", "--config", str(sweep_config(tmp_path))])

    @pytest.mark.parametrize(
        "key, value",
        [
            ("batch_size = 64", "batch_size = 100000000000000000000"),
            ("objective = ber", "objective = auc\npair_batch = 100000000000000000000"),
            ("n_train_per_class = 120", f"n_train_per_class = {2**62}"),
        ],
        ids=["batch_size", "pair_batch", "n_train_per_class"],
    )
    def test_a_count_numpy_cannot_index_exits_two(self, tmp_path, capsys, key, value):
        config = sweep_config(tmp_path)
        config.write_text(config.read_text().replace(key, value))
        assert main(["noise-sweep", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"symloss: error: {config}: needs more memory than is available (")
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "out").exists()

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

    def test_each_clean_test_set_is_scored_once_per_run(self, tmp_path, monkeypatch):
        # Scorer.__call__ is an alias of Scorer.score, so both are counted
        sizes, score = [], Scorer.score

        def counted(self, x):
            sizes.append(len(x))
            return score(self, x)

        monkeypatch.setattr(Scorer, "score", counted)
        monkeypatch.setattr(Scorer, "__call__", counted)
        config = parse_config(sweep_config(tmp_path))
        records = symloss.experiments._run_grid(config, config.noise_grid, config.losses)
        # 1 cell x 2 losses x 2 seeds, in the (cell, loss, seed) order they train
        cell = McdParams(0.8, 0.3)
        assert [record[:3] for record in records] == [
            (cell, "sigmoid", 0), (cell, "sigmoid", 1), (cell, "logistic", 0), (cell, "logistic", 1)
        ]
        assert [(r[3].config.loss, r[3].config.seed) for r in records] == [r[1:3] for r in records]
        assert sizes == [200] * (4 * 2)  # a positive and a negative test set per run


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

    def test_uu_demo_evaluates_pair_objectives_at_doubling_epochs(self, tmp_path, monkeypatch):
        # a run's full pairwise objective sums all n+ x n- pairs, so it is
        # evaluated after epochs 1, 2, 4, 8, ... and the last, not every epoch
        calls = []
        pairwise = symloss.training.pairwise_mean_loss

        def counted(*args, **kwargs):
            calls.append(None)
            return pairwise(*args, **kwargs)

        monkeypatch.setattr(symloss.training, "pairwise_mean_loss", counted)
        config = write_config(
            tmp_path,
            f"""
[experiment]
name = uu_demo
output_dir = {tmp_path / 'out'}
seeds = 0, 1

[uu]
pi_u = 0.7
pi_u_prime = 0.3
{SMALL_DATASET}
[train]
objective = auc
epochs = 12
batch_size = 64
pair_batch = 32
model = linear
""",
        )
        assert main(["uu-demo", "--config", str(config)]) == 0
        # each seed trains on the reduced and on the generic mixture, and
        # each run evaluates after epochs 1, 2, 4, 8 and 12
        assert len(calls) == 2 * 2 * 5


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

    def test_an_empty_vocabulary_names_min_doc_freq(self, tmp_path, capsys):
        config = self.keywords_config(tmp_path)
        config.write_text(config.read_text().replace("tau = 0.15", "min_doc_freq = 100000"))
        assert main(["keywords", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert "min_doc_freq = 100000" in err and "vocabulary is empty" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("method", ["breakeven", "heuristic"])
    def test_a_corpus_without_validation_documents_exits_two_before_training(
        self, tmp_path, capsys, monkeypatch, method
    ):
        corpus = tmp_path / "no_validation.jsonl"
        Corpus(
            row for row in load_mini_corpus().rows if row[3] != "validation_unlabeled"
        ).to_jsonl(corpus)
        config = self.keywords_config(tmp_path, corpus=str(corpus))
        calls = []
        monkeypatch.setattr(symloss.textpipe, "train_auc", lambda *args: calls.append(args))
        assert main(["keywords", "--config", str(config), "--threshold-method", method]) == 2
        assert "threshold selection needs validation_unlabeled documents" in capsys.readouterr().err
        assert calls == []
        assert not (tmp_path / "out").exists()

    def test_a_misspelled_record_field_exits_two_naming_it(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(
            '{"id": "a", "text": "x y"}\n'
            '{"id": "b", "text": "x y", "splt": "test_labeled", "lable": 1}\n'
        )
        config = self.keywords_config(tmp_path, corpus=str(corpus))
        assert main(["keywords", "--config", str(config)]) == 2
        assert capsys.readouterr().err == f"symloss: error: {corpus}:2: unknown field 'splt'\n"
        assert not (tmp_path / "out").exists()

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

    def test_manifest_echoes_the_flags(self, tmp_path):
        out = tmp_path / "flagged"
        config = self.keywords_config(tmp_path)
        assert main(
            ["keywords", "--config", str(config), "--out", str(out), "--seed", "3",
             "--loss", "ramp", "--tau", "0.2", "--prior", "0.35",
             "--threshold-method", "heuristic"]
        ) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        echo = manifest["config"]
        assert manifest["seeds"] == [3]
        assert echo["experiment"]["output_dir"] == str(out)
        assert echo["experiment"]["seeds"] == "3"
        assert echo["train"]["loss"] == "ramp"
        assert (echo["corpus"]["tau"], echo["corpus"]["prior"]) == ("0.2", "0.35")
        assert echo["corpus"]["threshold_method"] == "heuristic"
        report = json.loads((out / "report.json").read_text())
        assert report["threshold"]["method"] == "heuristic_pseudo_ratio"
        assert not (tmp_path / "out").exists()

    def test_objective_may_be_left_out(self, tmp_path):
        text = self.keywords_config(tmp_path).read_text()
        keyless = write_config(tmp_path, text.replace("objective = auc\n", ""), "keyless.ini")
        auc = write_config(tmp_path, text, "auc.ini")
        runs = []
        for path in (keyless, auc):
            out = tmp_path / path.stem
            assert main(["keywords", "--config", str(path), "--out", str(out)]) == 0
            runs.append(json.loads((out / "manifest.json").read_text())["artifacts"])
        assert runs[0] == runs[1]

    def test_an_undefined_metric_is_written_empty_and_null(self, tmp_path):
        # without negative test documents the test BER has no value
        records = [json.loads(line) for line in mini_corpus_path().read_text().splitlines()]
        corpus = tmp_path / "no_test_negatives.jsonl"
        corpus.write_text("".join(
            json.dumps(record) + "\n" for record in records
            if (record["split"], record["label"]) != ("test_labeled", -1)
        ))
        config = self.keywords_config(tmp_path, corpus=str(corpus))
        assert main(["keywords", "--config", str(config)]) == 0
        text = (tmp_path / "out" / "report.json").read_text()
        metrics = json.loads(text, parse_constant=pytest.fail)["test_metrics"]
        assert metrics["undefined"] == ["ber"]
        assert metrics["ber"] is None and metrics["cer"] is not None
        header, row = read_csv(tmp_path / "out" / "metrics.csv")
        values = dict(zip(header, row))
        assert values["ber"] == "" and values["cer"] != ""

    def test_a_pseudo_split_that_is_not_informative_exits_one(self, tmp_path, capsys):
        # every keyword document is a negative, so the pseudo-positive side
        # holds no true positive and the pseudo-negative side only positives
        keywords = ["orbit", "comet", "planet", "rocket", "galaxy"]
        records = []
        for split, n in (("train_unlabeled", 60), ("validation_unlabeled", 40),
                         ("test_labeled", 40)):
            for i in range(n):
                label = -1 if i < n // 3 else 1
                words = " ".join(keywords) if label == -1 else "recipe bread oven flour"
                records.append({"id": f"{split}-{i}", "text": f"{words} w{i % 5}",
                                "label": label, "split": split})
        corpus, keyword_file = tmp_path / "corpus.jsonl", tmp_path / "keywords.txt"
        corpus.write_text("".join(json.dumps(record) + "\n" for record in records))
        keyword_file.write_text("\n".join(keywords) + "\n")
        config = self.keywords_config(tmp_path, corpus=str(corpus), keywords=str(keyword_file))
        config.write_text(config.read_text().replace("epochs = 60", "epochs = 5"))
        with pytest.warns(UserWarning, match="pseudo split is not informative"):
            assert main(["keywords", "--config", str(config)]) == 1
        out = tmp_path / "out"
        assert capsys.readouterr().err == (
            f"keywords: FAILED an internal assertion (see artifacts in {out})\n"
        )
        assert sorted(path.name for path in out.iterdir()) == [
            "manifest.json", "metrics.csv", "report.json"
        ]
        report = json.loads((out / "report.json").read_text())
        assert (report["empirical_pi_pos"], report["empirical_pi_neg"]) == (0.0, 1.0)
        assert any("pseudo split is not informative" in note for note in report["warnings"])

    @pytest.mark.parametrize(
        "kind, flags, message",
        [
            ("corpus", [], "{path}: cannot read (No such file or directory)"),
            ("keywords", [], "{path}: cannot read (No such file or directory)"),
            ("config", [], "{path}: cannot read (No such file or directory)"),
            ("corpus-directory", [], "{path}: cannot read (Is a directory)"),
            (None, ["--tau", "0.99"],
             "tau=0.99 leaves the pseudo-positive side empty; adjust the threshold"),
        ],
        ids=["missing-corpus", "missing-keywords", "missing-config", "corpus-is-a-directory",
             "tau-0.99"],
    )
    def test_failed_run_leaves_no_output_directory(
        self, tmp_path, capsys, monkeypatch, kind, flags, message
    ):
        path = tmp_path / "absent"
        if kind == "corpus-directory":
            path.mkdir()
            kind = "corpus"
        files = {"corpus": "bundled", "keywords": "bundled"}
        if kind in files:
            files[kind] = str(path)
        config = path if kind == "config" else self.keywords_config(tmp_path, **files)
        # the config's output_dir and the default ./out are one directory
        monkeypatch.chdir(tmp_path)
        assert main(["keywords", "--config", str(config), *flags]) == 2
        assert capsys.readouterr().err == f"symloss: error: {message.format(path=path)}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "kind, data, line, position",
        [
            ("corpus", b'{"id": "a", "text": "x"}\n{"id": "b", "text": "caf\xff"}\n', 2, 24),
            ("keywords", b"orbit\n\nst\xffar\n", 3, 2),
            ("config", b"# caf\xff\n", None, 5),  # a line after the config's own
        ],
        ids=["corpus", "keywords", "config"],
    )
    def test_a_file_that_is_not_utf8_exits_two_naming_its_line(
        self, tmp_path, capsys, kind, data, line, position
    ):
        path = tmp_path / f"{kind}.bad"
        files = {"corpus": "bundled", "keywords": "bundled"}
        if kind in files:
            files[kind] = str(path)
            path.write_bytes(data)
        config = self.keywords_config(tmp_path, **files)
        if kind == "config":
            path = config
            line = config.read_bytes().count(b"\n") + 1
            path.write_bytes(config.read_bytes() + data)
        assert main(["keywords", "--config", str(config)]) == 2
        assert capsys.readouterr().err == (
            f"symloss: error: {path}:{line}: invalid UTF-8 ('utf-8' codec can't decode "
            f"byte 0xff in position {position}: invalid start byte)\n"
        )
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("kind", ["corpus", "keywords", "config"])
    def test_a_file_that_cannot_be_read_exits_two_naming_it(
        self, tmp_path, capsys, monkeypatch, kind
    ):
        path = tmp_path / f"{kind}.txt"
        files = {"corpus": "bundled", "keywords": "bundled"}
        if kind in files:
            files[kind] = str(path)
            path.write_text("unread\n")
        config = self.keywords_config(tmp_path, **files)
        if kind == "config":
            path = config
        real_open = builtins.open

        # root reads a file whatever its mode, so opening this one is made to fail
        def refusing_open(file, *args, **kwargs):
            if isinstance(file, (str, os.PathLike)) and os.fspath(file) == str(path):
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(path))
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", refusing_open)
        # the config's output_dir and the default ./out are one directory
        monkeypatch.chdir(tmp_path)
        assert main(["keywords", "--config", str(config)]) == 2
        assert capsys.readouterr().err == (
            f"symloss: error: {path}: cannot read (Permission denied)\n"
        )
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("where", ["config", "flag"])
def test_percent_sign_is_literal(tmp_path, where):
    out = tmp_path / "100%(done)s"
    path = write_config(
        tmp_path,
        "[experiment]\nname = verify_identities\n"
        + (f"output_dir = {out}\n" if where == "config" else "")
        + "\n[losses]\nnames = sigmoid\n\n[identities]\ninstances = 1\n",
    )
    flags = ["--out", str(out)] if where == "flag" else []
    assert main(["verify-identities", "--config", str(path), *flags]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["experiment"]["output_dir"] == str(out)


@pytest.mark.parametrize(
    "text, message",
    [
        ("[train]\nepochs = 3\nepochs = 4\n", ":6: [train] epochs: set more than once"),
        ("[train]\nepochs = 3\n[train]\n", ":6: [train]: section appears more than once"),
        ("garbage\n", ":4: expected 'key = value' or a [section] header"),
        ("[train]\nepochs = 3\ngarbage\n", ":6: expected 'key = value' or a [section] header"),
    ],
    ids=["key-twice", "section-twice", "no-equals", "no-equals-in-section"],
)
def test_unreadable_config_names_the_path_once_with_the_line(tmp_path, capsys, text, message):
    out = tmp_path / "out"
    path = write_config(tmp_path, f"[experiment]\nname = noise_sweep\noutput_dir = {out}\n{text}")
    assert main(["noise-sweep", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == f"symloss: error: {path}{message}\n"
    assert err.count(str(path)) == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "drifted", [{"b": 2.0, "a": 1}, {"a": 1, "c": 2.0}, {"a": 1}, {"a": 1, "b": 2.0, "c": 3}],
    ids=["order", "name", "missing", "extra"],
)
def test_write_csv_rejects_a_record_whose_columns_differ_from_the_header(tmp_path, drifted):
    good = tmp_path / "good.csv"
    write_csv(good, [{"a": 1, "b": 2.5}, {"a": 3, "b": 4.0}])
    assert read_csv(good) == [["a", "b"], ["1", "2.5"], ["3", "4"]]
    path = tmp_path / "drifted.csv"
    with pytest.raises(ValueError, match=r"drifted.csv: record columns .* differ from \['a', 'b'\]"):
        write_csv(path, [{"a": 1, "b": 2.5}, drifted])
    assert not path.exists()


def test_config_without_a_section_header_names_the_line(tmp_path):
    path = write_config(tmp_path, "name = noise_sweep\n[experiment]\n")
    with pytest.raises(ConfigurationError) as raised:
        parse_config(path)
    assert str(raised.value) == f"{path}:1: 'name = noise_sweep' comes before any [section] header"


def test_cli_import_leaves_scipy_stats_unloaded():
    code = "import sys, symloss.cli; print('scipy.stats' in sys.modules)"
    src = str(Path(symloss.experiments.__file__).parents[1])
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert result.stdout.strip() == "False"


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
        config.train = replace(config.train, step_size=0.01, epochs=2)
        return config

    def test_noise_sweep(self, tmp_path, monkeypatch):
        received = self.capture(monkeypatch, symloss.experiments, "train_ber")
        config = self.with_unparsed_fields(parse_config(sweep_config(tmp_path)))
        assert run_experiment(config) == 0
        assert len(received) == 4
        for train in received:
            assert (train.step_size, train.epochs) == (0.01, 2)

    def test_keywords(self, tmp_path, monkeypatch):
        received = self.capture(monkeypatch, symloss.textpipe, "train_auc")
        config = self.with_unparsed_fields(parse_config(default_config_path("keywords")))
        config.output_dir = tmp_path / "out"
        run_experiment(config)
        [train] = received
        assert (train.step_size, train.epochs) == (0.01, 2)
        assert (train.objective, train.seed) == ("auc", config.seeds[0])


class TestSchema:
    """Every schema key reaches its use; nothing outside the schema parses."""

    # one non-default value per schema key, as written in a config file;
    # [experiment] name is set by the route that reads the config
    VALUES = {
        "experiment": {"name": None, "output_dir": "elsewhere", "seeds": "3, 4"},
        "dataset": {
            "dimension": "3",
            "mean_pos": "1.0, 2.0, 3.0",
            "mean_neg": "-1.0, -2.0, -3.0",
            "covariance": "0.5, 0.25, 2.0",
            "n_train_per_class": "77",
            "n_test_per_class": "88",
        },
        "noise": {"pi_corr_pos": "0.9, 0.8", "pi_corr_neg": "0.1, 0.2"},
        "losses": {"names": "hinge, ramp"},
        "assertions": {"loss_order": "ramp <= hinge"},
        "train": {
            "objective": "auc",
            "loss": "unhinged",
            "step_size": "0.01",
            "adaptive_moments": "false",
            "epochs": "7",
            "batch_size": "16",
            "pair_batch": "32",
            "weight_decay": "0.001",
            "model": "mlp",
            "hidden_units": "4",
        },
        "identities": {
            "instances": "9",
            "max_support": "6",
            "score_range": "2.5",
            "tolerance": "1e-9",
            "symmetric_tolerance": "1e-11",
        },
        "pu": {"class_prior_unlabeled": "0.25"},
        "uu": {"pi_u": "0.8", "pi_u_prime": "0.2"},
        "corpus": {
            "corpus_path": "CORPUS",
            "keywords_path": "KEYWORDS",
            "tau": "0.2",
            "scheme": "tf",
            "min_doc_freq": "2",
            "threshold_method": "heuristic",
            "prior": "0.35",
        },
    }

    # experiment -> the sections it is given besides [experiment]; each
    # section is read through an experiment that uses it.  The sweep trains
    # each of [losses] names, so it is given every [train] key but loss.
    ROUTES = {
        "noise_sweep": ("dataset", "noise", "losses", "assertions", "train"),
        "verify_identities": ("losses", "identities"),
        "pu_demo": ("dataset", "pu", "train"),
        "uu_demo": ("dataset", "uu", "train"),
        "keywords": ("corpus", "train"),
    }
    ONE_SEED = ("verify_identities", "keywords")

    TRAIN = TrainConfig(
        objective="auc", loss="unhinged", step_size=0.01, adaptive_moments=False,
        epochs=7, batch_size=16, pair_batch=32, weight_decay=0.001, model="mlp",
        hidden_units=4,
    )

    def full_config(self, tmp_path, experiment):
        corpus = tmp_path / "corpus.jsonl"
        Corpus(load_mini_corpus().rows[:50]).to_jsonl(corpus)
        keywords = tmp_path / "keywords.txt"
        keywords.write_text("alpha\nbeta\n")
        values = dict(self.VALUES)
        values["experiment"] = {**values["experiment"], "name": experiment}
        if experiment == "noise_sweep":
            values["train"] = {k: v for k, v in values["train"].items() if k != "loss"}
        if experiment in self.ONE_SEED:
            values["experiment"]["seeds"] = "3"
        text = "".join(
            f"[{name}]\n" + "".join(f"{key} = {value}\n" for key, value in values[name].items())
            for name in ("experiment", *self.ROUTES[experiment])
        )
        text = text.replace("CORPUS", str(corpus)).replace("KEYWORDS", str(keywords))
        return write_config(tmp_path, text, f"{experiment}.ini")

    @staticmethod
    def record(monkeypatch, name):
        """The (args, result) of each call of ``symloss.experiments.<name>``."""
        calls = []
        original = getattr(symloss.experiments, name)

        def recording(*args):
            calls.append((args, original(*args)))
            return calls[-1][1]

        monkeypatch.setattr(symloss.experiments, name, recording)
        return calls

    def test_every_key_reaches_its_use(self, tmp_path, monkeypatch):
        assert sum(len(keys) for keys in _SCHEMA.values()) == 38
        assert {name: set(keys) for name, keys in self.VALUES.items()} == {
            name: set(keys) for name, keys in _SCHEMA.items()
        }
        assert {"experiment", *(s for route in self.ROUTES.values() for s in route)} == set(_SCHEMA)
        configs = {name: parse_config(self.full_config(tmp_path, name)) for name in self.ROUTES}
        given = set()
        for experiment, config in configs.items():
            assert config.experiment == experiment
            for name in ("experiment", *self.ROUTES[experiment]):
                for key in config.echo[name]:
                    default = _SCHEMA[name][key][1]
                    assert config.sections[name][key] != default, (experiment, name, key)
                    given.add((name, key))
        assert given == {(name, key) for name, keys in _SCHEMA.items() for key in keys}
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "elsewhere"

        # [experiment], [dataset], [noise], [losses], [assertions], [train]
        # but its loss
        sweep = configs["noise_sweep"]
        assert (str(sweep.output_dir), sweep.seeds) == ("elsewhere", [3, 4])
        assert sweep.gaussians.dimension == 3
        assert sweep.gaussians.mean_pos.tolist() == [1.0, 2.0, 3.0]
        assert sweep.gaussians.mean_neg.tolist() == [-1.0, -2.0, -3.0]
        assert sweep.gaussians.covariance.tolist() == [0.5, 0.25, 2.0]
        assert [(p.pi_corr_pos, p.pi_corr_neg) for p in sweep.noise_grid] == [
            (0.9, 0.1), (0.8, 0.2)
        ]
        assert sweep.losses == ["hinge", "ramp"]
        assert sweep.loss_order == ("ramp", "hinge")
        assert sweep.train == replace(self.TRAIN, loss=_SCHEMA["train"]["loss"][1])
        stacks = self.record(monkeypatch, "train_many")
        tests = self.record(monkeypatch, "_test_sets")
        status = run_experiment(sweep)
        # one stack, cell-major: (cell, loss, seed)
        assert [configs for (_, _, configs), _ in stacks] == [[
            replace(self.TRAIN, loss=loss, seed=seed)
            for _ in range(2) for loss in ("hinge", "ramp") for seed in (3, 4)
        ]]
        assert all(trainer is symloss.experiments.train_auc for (trainer, _, _), _ in stacks)
        for (_, sets, _), _ in stacks:
            assert {side.points.shape for pair in sets for side in pair} == {(77, 3)}
        [(_, test_sets)] = tests
        assert {x.shape for pair in test_sets.values() for x in pair} == {(88, 3)}
        cells = [("0.9", "0.1"), ("0.8", "0.2")]
        results = read_csv(out / "results.csv")[1:]
        assert {(row[1], row[2]) for row in results} == set(cells)
        assert {row[3] for row in results} == {"3", "4"}
        aggregate = read_csv(out / "aggregate.csv")[1:]
        mean_ber = {((row[0], row[1]), row[2]): float(row[3]) for row in aggregate}
        ramp_above = any(mean_ber[cell, "ramp"] > mean_ber[cell, "hinge"] for cell in cells)
        assert status == (1 if ramp_above else 0)

        # [losses], [identities]: residuals shifted to lie between each
        # tolerance's default and its configured value
        identities = configs["verify_identities"]
        assert identities.sections["identities"] == {
            "instances": 9, "max_support": 6, "score_range": 2.5,
            "tolerance": 1e-9, "symmetric_tolerance": 1e-11,
        }
        instances = self.record(monkeypatch, "_random_identity_instance")
        check = symloss.experiments.ber_decomposition_check
        constant = symloss.experiments.symmetric_excess_constant
        monkeypatch.setattr(
            symloss.experiments, "ber_decomposition_check",
            lambda *args: replace(check(*args), rhs=check(*args).rhs + 5e-10),
        )
        monkeypatch.setattr(
            symloss.experiments, "symmetric_excess_constant", lambda *args: constant(*args) + 5e-12
        )
        assert run_experiment(identities) == 0
        assert [args[1:] for args, _ in instances] == [(6, 2.5)] * 18
        rows = read_csv(out / "residuals.csv")[1:]
        assert [row[0] for row in rows] == ["hinge"] * 9 + ["ramp"] * 9
        assert all(1e-10 < float(row[7]) <= 1e-9 for row in rows)
        assert {row[-1] for row in rows} == {"ok"}

        # [pu] and [uu]: the reduced mixture proportions of each demo; and
        # [train] loss, which the sweep does not take, reaches the demo runs
        for experiment, params in (
            ("pu_demo", symloss.experiments.pu_params(0.25)),
            ("uu_demo", symloss.experiments.uu_params(0.8, 0.2)),
        ):
            stacks = self.record(monkeypatch, "train_many")
            assert run_experiment(configs[experiment]) == 0
            [((_, _, train_configs), _)] = stacks
            assert train_configs == [replace(self.TRAIN, seed=seed) for seed in (3, 4, 3, 4)]
            rows = read_csv(out / "results.csv")[1:]
            assert [(float(row[2]), float(row[3])) for row in rows] == [
                (params.pi_corr_pos, params.pi_corr_neg)
            ] * 2

        # [corpus], with one seed
        class Stop(Exception):
            pass

        received = []

        def recording(corpus, keywords, pipeline_config):
            received.append((corpus, keywords, pipeline_config))
            raise Stop

        keywords_config = configs["keywords"]
        monkeypatch.setattr(symloss.experiments, "run_pipeline", recording)
        with pytest.raises(Stop):
            run_experiment(keywords_config)
        [(corpus, keywords, pipeline)] = received
        assert len(corpus) == 50
        assert keywords.words == ("alpha", "beta")
        assert pipeline.train == replace(self.TRAIN, seed=3)
        assert (
            pipeline.tau, pipeline.scheme, pipeline.min_doc_freq,
            pipeline.threshold_method, pipeline.prior,
        ) == (0.2, "tf", 2, "heuristic_pseudo_ratio", 0.35)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[trian]\nepochs = 3\n", "[trian]: unknown section; did you mean 'train'?"),
            ("[train]\nepoch = 3\n", "[train] epoch: unknown key; did you mean 'epochs'?"),
            ("[train]\nlosss = logistic\n", "[train] losss: unknown key; did you mean 'loss'?"),
            ("[pu]\nzzz = 1\n", "[pu] zzz: unknown key; expected one of ['class_prior_"),
        ],
        ids=["section", "key", "key-losss", "key-no-match"],
    )
    def test_unknown_section_or_key_is_rejected(self, tmp_path, text, message):
        path = write_config(tmp_path, "[experiment]\nname = keywords\n\n" + text)
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            parse_config(path)

    def test_keywords_typo_exits_two(self, tmp_path, capsys):
        out = tmp_path / "out"
        path = write_config(
            tmp_path,
            f"[experiment]\nname = keywords\noutput_dir = {out}\n\n"
            "[corpus]\nprior = 0.3\n\n[train]\nepoch = 3\n",
        )
        assert main(["keywords", "--config", str(path)]) == 2
        assert "did you mean 'epochs'?" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize(
    "experiment, text, flags, location",
    [
        ("pu_demo", "[pu]\nclass_prior_unlabeled = 1.5\n", [], "[pu] class_prior_unlabeled"),
        ("uu_demo", "[uu]\npi_u = 0.3\npi_u_prime = 0.7\n", [], "[uu] pi_u"),
        ("keywords", "[corpus]\ntau = 2\n", [], "[corpus] tau"),
        ("keywords", "", ["--tau", "2"], "--tau"),
        ("keywords", "[corpus]\nprior = 1.5\n", [], "[corpus] prior"),
        ("keywords", "", ["--prior", "1.5"], "--prior"),
        ("verify_identities", "[identities]\nmax_support = 1\n", [], "[identities] max_support"),
        ("pu_demo", "[train]\nloss = zero_one\n", [], "[train] loss"),
        ("keywords", "", ["--loss", "zero_one"], "--loss"),
        ("noise_sweep", "[noise]\npi_corr_pos = 0.8\npi_corr_neg = 0.3\n\n"
         "[losses]\nnames = sigmoid, zero_one\n", [], "[losses] names"),
        ("keywords", "", ["--seed", "first"], "--seed"),
        ("keywords", "", ["--threshold-method", "best"], "--threshold-method"),
        ("keywords", "[train]\nobjective = ber\n", [], "[train] objective"),
        ("noise_sweep", "[noise]\npi_corr_pos = 0.8\npi_corr_neg = 0.3\n\n"
         "[losses]\nnames = exponential\n\n[train]\nstep_size = 5.0\n"
         "adaptive_moments = false\n", [], "training diverged"),
        ("keywords", "", ["--seed", "-1"], "--seed: seeds must be non-negative"),
        ("uu_demo", "", ["--seed", "2,-1"], "--seed: seeds must be non-negative"),
        ("pu_demo", "[dataset]\nn_train_per_class = 0\n", [], "[dataset] n_train_per_class"),
        ("uu_demo", "[dataset]\nn_test_per_class = 0\n", [], "[dataset] n_test_per_class"),
        ("verify_identities", "[identities]\nscore_range = -1\n", [], "[identities] score_range"),
        ("verify_identities", "[identities]\nscore_range = inf\n", [], "[identities] score_range"),
        ("verify_identities", "[identities]\nscore_range = 1e308\n", [],
         "[identities] score_range"),
        ("verify_identities", "[identities]\ninstances = 0\n", [], "[identities] instances"),
        ("verify_identities", "[losses]\nnames =\n", [], "[losses] names"),
        ("pu_demo", "[train]\nstep_size = nan\n", [], "[train] step_size"),
        ("pu_demo", "[dataset]\ncovariance = nan, 1.0\n", [], "[dataset] covariance"),
        ("uu_demo", "[dataset]\nmean_pos = inf, 1.5\n", [], "[dataset] mean_pos"),
        ("noise_sweep", "[noise]\npi_corr_pos = 0.8\npi_corr_neg = 0.3\n\n[train]\nloss = hinge\n",
         [], "[train] loss: the noise_sweep experiment trains each of [losses] names"),
        ("loss_compare", "[noise]\npi_corr_pos = 0.8\npi_corr_neg = 0.3\n\n[train]\nloss = hinge\n",
         [], "[train] loss: the loss_compare experiment trains each of [losses] names"),
        ("noise_sweep", "[noise]\npi_corr_pos = 0.8, 0.7, 0.8\npi_corr_neg = 0.3, 0.4, 0.3\n",
         [], "[noise] (0.8, 0.3): the cell appears more than once"),
        ("keywords", "[corpus]\nthreshold_method = breakeven\n", [],
         "[corpus] prior: breakeven thresholding needs the known positive-class prior"),
        ("keywords", "[corpus]\nthreshold_method = heuristic\n", ["--threshold-method", "breakeven"],
         "[corpus] prior: breakeven thresholding needs the known positive-class prior"),
        ("loss_compare", "seeds = 3, 3\n", [],
         "[experiment] seeds: a seed appears more than once, got [3, 3]"),
        ("uu_demo", "", ["--seed", "2,2"], "--seed: a seed appears more than once, got [2, 2]"),
        ("keywords", "[corpus]\nmin_doc_freq = -5\n", [],
         "[corpus] min_doc_freq: must be at least 1"),
        ("verify_identities", "[identities]\ntolerance = -1\n", [],
         "[identities] tolerance: must be at least 0"),
        ("verify_identities", "[identities]\nsymmetric_tolerance = -1e-12\n", [],
         "[identities] symmetric_tolerance: must be at least 0"),
        ("loss_compare", "[noise]\npi_corr_pos = 0.8\npi_corr_neg = 0.3\n\n"
         "[losses]\nnames = sigmoid, logistic, sigmoid\n", [],
         "[losses] names: 'sigmoid' appears more than once"),
        ("noise_sweep", "[noise]\npi_corr_pos = 0.8\npi_corr_neg = 0.3\n\n"
         "[losses]\nnames = sigmoid, logistic\n\n[assertions]\nloss_order = sigmoid <= sigmoid\n",
         [], "[assertions] loss_order: 'sigmoid' is on both sides"),
        ("noise_sweep", "[noise]\npi_corr_pos = 0.8\npi_corr_neg = 0.3\n\n"
         "[losses]\nnames = sigmoid, logistic\n\n[assertions]\nloss_order = sigmoid < logistic\n",
         [], "[assertions] loss_order: expected 'lossA <= lossB'"),
    ],
    ids=["pu-prior", "uu-order", "tau", "tau-flag", "prior", "prior-flag", "max-support",
         "zero-one-train", "zero-one-flag", "zero-one-names", "seed-flag", "method-flag",
         "keywords-objective", "divergence", "seed-negative", "seed-list-negative",
         "n-train-zero", "n-test-zero", "score-range-negative", "score-range-inf",
         "score-range-overflow", "instances-zero", "names-empty", "step-size-nan",
         "covariance-nan", "mean-inf", "sweep-train-loss", "compare-train-loss",
         "repeated-noise-cell", "breakeven-no-prior", "breakeven-flag-no-prior",
         "repeated-seed", "repeated-seed-flag", "min-doc-freq-negative",
         "tolerance-negative", "symmetric-tolerance-negative", "repeated-loss-name",
         "loss-order-one-loss", "loss-order-without-operator"],
)
def test_out_of_range_value_exits_two_before_any_output(
    tmp_path, capsys, experiment, text, flags, location
):
    out = tmp_path / "out"
    path = write_config(
        tmp_path, f"[experiment]\nname = {experiment}\noutput_dir = {out}\n\n{text}"
    )
    command = experiment.replace("_", "-")
    assert main([command, "--config", str(path), *flags]) == 2
    err = capsys.readouterr().err
    assert f"symloss: error: {location}" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "text, flags, location",
    [("output_dir =\n", [], "[experiment] output_dir"), ("", ["--out", ""], "--out")],
    ids=["config", "flag"],
)
def test_an_empty_output_directory_exits_two_and_writes_nothing(
    tmp_path, monkeypatch, capsys, text, flags, location
):
    monkeypatch.chdir(tmp_path)
    path = write_config(tmp_path, f"[experiment]\nname = verify_identities\n{text}")
    assert main(["verify-identities", "--config", str(path), *flags]) == 2
    err = capsys.readouterr().err
    assert f"symloss: error: {location}: must name a directory" in err
    assert [child.name for child in tmp_path.iterdir()] == ["config.ini"]


@pytest.mark.parametrize("out", ["afile", "afile/sub"], ids=["file", "under-file"])
@pytest.mark.parametrize("where", ["config", "flag"])
def test_an_output_directory_at_or_under_a_file_exits_two_before_the_run(
    tmp_path, monkeypatch, capsys, out, where
):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "afile").write_text("kept\n")
    text = f"output_dir = {out}\n" if where == "config" else ""
    flags = ["--out", out] if where == "flag" else []
    location = "[experiment] output_dir" if where == "config" else "--out"
    path = write_config(tmp_path, f"[experiment]\nname = verify_identities\n{text}")
    runs = []
    _, reads, one_seed = symloss.experiments._EXPERIMENTS["verify_identities"]
    monkeypatch.setitem(
        symloss.experiments._EXPERIMENTS, "verify_identities", (runs.append, reads, one_seed)
    )
    assert main(["verify-identities", "--config", str(path), *flags]) == 2
    assert capsys.readouterr().err == f"symloss: error: {location}: afile is not a directory\n"
    assert runs == []
    assert (tmp_path / "afile").read_text() == "kept\n"


def test_an_output_directory_that_cannot_be_made_is_a_configuration_error(tmp_path):
    path = write_config(
        tmp_path,
        f"[experiment]\nname = verify_identities\noutput_dir = {tmp_path / 'out'}\n\n"
        "[losses]\nnames = sigmoid\n\n[identities]\ninstances = 1\n",
    )
    config = parse_config(path)
    (tmp_path / "out").write_text("made after the config was read\n")
    with pytest.raises(ConfigurationError, match="out: cannot make the output directory"):
        run_experiment(config)


@pytest.mark.parametrize("name", ["residuals.csv", "manifest.json"])
def test_an_artifact_that_cannot_be_written_exits_two(tmp_path, capsys, name):
    out = tmp_path / "out"
    (out / name).mkdir(parents=True)
    path = write_config(
        tmp_path,
        "[experiment]\nname = verify_identities\n\n"
        "[losses]\nnames = sigmoid\n\n[identities]\ninstances = 1\n",
    )
    assert main(["verify-identities", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"symloss: error: {out / name}: cannot write (")
    # no residuals.csv is left behind without its manifest
    assert [path.name for path in out.iterdir()] == [name]


@pytest.mark.parametrize("name", ["residuals.csv", "manifest.json"])
@pytest.mark.parametrize("how", ["dev-full", "part-written"])
def test_an_artifact_whose_write_fails_after_its_open_exits_two(
    tmp_path, capsys, monkeypatch, how, name
):
    out = tmp_path / "out"
    if how == "dev-full":
        # /dev/full opens, then fails the write with ENOSPC and no filename
        if not os.path.exists("/dev/full"):
            pytest.skip("needs /dev/full")
        out.mkdir()
        (out / name).symlink_to("/dev/full")
    else:
        # a filling disk: the file takes some bytes, then the write fails
        def filling(path, *args):
            with open(path, "w") as fh:
                fh.write("part of the file\n")
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        if name == "residuals.csv":
            monkeypatch.setattr(symloss.experiments, "write_csv", filling)
        else:
            monkeypatch.setattr(symloss.experiments, "write_manifest",
                                lambda config, paths: filling(config.output_dir / name))
    path = write_config(
        tmp_path,
        "[experiment]\nname = verify_identities\n\n"
        "[losses]\nnames = sigmoid\n\n[identities]\ninstances = 1\n",
    )
    assert main(["verify-identities", "--config", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"symloss: error: {out / name}: cannot write (No space left on device)\n"
    )
    assert list(out.iterdir()) == []


@pytest.mark.parametrize(
    "experiment, text, section",
    [
        ("noise_sweep", "[corpus]\ntau = 0.2\n", "corpus"),
        ("loss_compare", "[pu]\nclass_prior_unlabeled = 0.4\n", "pu"),
        ("pu_demo", "[uu]\npi_u = 0.7\n", "uu"),
        ("uu_demo", "[noise]\npi_corr_pos = 0.8\npi_corr_neg = 0.3\n", "noise"),
        ("verify_identities", "[train]\nepochs = 3\n", "train"),
        ("keywords", "[dataset]\ndimension = 3\n", "dataset"),
        ("keywords", "[pu]\nclass_prior_unlabeled = 0.4\n", "pu"),
    ],
    ids=["sweep-corpus", "compare-pu", "pu-uu", "uu-noise", "identities-train",
         "keywords-dataset", "keywords-pu"],
)
def test_a_section_the_experiment_never_reads_exits_two(
    tmp_path, capsys, experiment, text, section
):
    out = tmp_path / "out"
    path = write_config(
        tmp_path, f"[experiment]\nname = {experiment}\noutput_dir = {out}\n\n{text}"
    )
    assert main([experiment.replace("_", "-"), "--config", str(path)]) == 2
    assert (
        f"symloss: error: [{section}]: the {experiment} experiment does not read this section"
        in capsys.readouterr().err
    )
    assert not out.exists()


@pytest.mark.parametrize("experiment", ["keywords", "verify_identities"])
@pytest.mark.parametrize(
    "seeds, flags, location",
    [("0, 5", [], "[experiment] seeds"), ("0", ["--seed", "3,4"], "--seed")],
    ids=["config", "flag"],
)
def test_a_one_seed_experiment_rejects_a_seed_list(
    tmp_path, capsys, experiment, seeds, flags, location
):
    out = tmp_path / "out"
    path = write_config(
        tmp_path, f"[experiment]\nname = {experiment}\noutput_dir = {out}\nseeds = {seeds}\n"
    )
    assert main([experiment.replace("_", "-"), "--config", str(path), *flags]) == 2
    assert (
        f"symloss: error: {location}: the {experiment} experiment runs one seed"
        in capsys.readouterr().err
    )
    assert not out.exists()

def test_sweep_divergence_reports_the_run_met_first_in_sweep_order(tmp_path, capsys):
    # squared diverges only in the second cell (seed 3, epoch 25), exponential
    # in both cells (epoch 2, but epoch 1 for the second cell's seed 1).  Run
    # one by one, cell after cell, exponential's first cell, seed 0, fails
    # first; the expected line was recorded from that one-by-one sweep.
    out = tmp_path / "out"
    path = write_config(
        tmp_path,
        f"""
[experiment]
name = noise_sweep
output_dir = {out}
seeds = 0, 1, 3

[noise]
pi_corr_pos = 0.6, 0.7
pi_corr_neg = 0.45, 0.4

[losses]
names = squared, exponential
{SMALL_DATASET}
[train]
objective = ber
step_size = 100.0
epochs = 25
batch_size = 64
adaptive_moments = false
model = linear
""",
    )
    assert main(["noise-sweep", "--config", str(path)]) == 2
    assert capsys.readouterr().err == (
        "symloss: error: training diverged: the full-data objective is nan after epoch 2 "
        "of 25 (loss 'exponential', seed 0, step_size 100.0); try a smaller step_size\n"
    )
    assert not out.exists()
