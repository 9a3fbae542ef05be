"""Tests of the benchmark itself: tracer bindings, seeded inputs, traced outputs.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import inspect
import json
import statistics
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import symloss.cli  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from steady import spread, worsening  # noqa: E402


def _bindings():
    """Identity of every function, loss spec and traced method binding."""
    snapshot = {}
    for module in tracer.symloss_modules():
        for attr, obj in vars(module).items():
            if inspect.isfunction(obj):
                snapshot[(module.__name__, attr)] = obj
    losses = sys.modules["symloss.losses"]
    for key, spec in losses.LOSSES.items():
        snapshot[("LOSSES", key)] = spec
    for module_name, class_name, attr in tracer.METHODS:
        cls = getattr(sys.modules[module_name], class_name)
        snapshot[(class_name, attr)] = cls.__dict__[attr]
    return snapshot


def test_install_misses_no_binding_and_uninstall_restores_all():
    before = _bindings()
    originals = {id(fn) for fn in tracer.public_functions(tracer.symloss_modules()).values()}
    assert originals
    trace = tracer.Tracer("test")
    trace.install()
    try:
        for module in tracer.symloss_modules():
            for attr, obj in vars(module).items():
                assert id(obj) not in originals, f"{module.__name__}.{attr} still unwrapped"
        # names the CLI path reaches through another module's namespace
        experiments = sys.modules["symloss.experiments"]
        training = sys.modules["symloss.training"]
        textpipe = sys.modules["symloss.textpipe"]
        for bound in (experiments.train_ber, training.pairwise_mean_loss, textpipe.auc_score):
            assert hasattr(bound, "__wrapped__")
        for spec in sys.modules["symloss.losses"].LOSSES.values():
            assert hasattr(spec.value, "__wrapped__")
            assert spec.grad is None or hasattr(spec.grad, "__wrapped__")
        for module_name, class_name, attr in tracer.METHODS:
            raw = getattr(sys.modules[module_name], class_name).__dict__[attr]
            assert hasattr(getattr(raw, "__func__", raw), "__wrapped__")
        assert hasattr(training._run_steps, "__wrapped__")
    finally:
        trace.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_self_time_excludes_children_and_hot_calls_fold():
    trace = tracer.Tracer("unit")

    def leaf():
        return 1

    def parent(calls):
        return sum(wrapped_leaf() for _ in range(calls))

    wrapped_leaf = trace.wrap(leaf, "unit.leaf")
    wrapped_parent = trace.wrap(parent, "unit.parent")
    wrapped_parent(tracer.INDIVIDUAL_LIMIT + 10)
    records = trace.records()
    root = records[0]
    children = [r for r in records if r["parent"] == root["id"]]
    assert sum(r["count"] for r in children) == tracer.INDIVIDUAL_LIMIT + 10
    assert sum(r["aggregate"] for r in children) == 1
    assert root["self_s"] == pytest.approx(
        root["total_s"] - sum(r["total_s"] for r in children), abs=1e-12
    )
    assert all(r["run"] == "unit" for r in records)


@pytest.mark.parametrize("name", ["ber-sweep", "uu-trace"])
def test_inputs_depend_only_on_the_seed(tmp_path, name):
    texts = []
    for label, seed in (("a", 3), ("b", 3), ("c", 4)):
        directory = tmp_path / label
        workloads.write_inputs(name, seed, directory)
        texts.append((directory / f"{name}.ini").read_text().replace(str(directory), "DIR"))
    assert texts[0] == texts[1]
    assert texts[0] != texts[2]


def test_corpus_depends_only_on_the_seed(tmp_path, monkeypatch):
    monkeypatch.setattr(
        workloads, "CORPUS_SIZES", {"n_train": 60, "n_validation": 40, "n_test": 40}
    )
    corpora = []
    for label, seed in (("a", 3), ("b", 3), ("c", 4)):
        workloads.write_inputs("keywords-text", seed, tmp_path / label)
        corpora.append((tmp_path / label / "corpus.jsonl").read_bytes())
    assert corpora[0] == corpora[1] != corpora[2]


# the generated configs, shrunk so that each experiment takes well under a second
SHRINK = {
    "ber-sweep": [("epochs = 50", "epochs = 2"), ("n_train_per_class = 2000", "n_train_per_class = 200")],
    "uu-trace": [("epochs = 30", "epochs = 3"), ("n_train_per_class = 1000", "n_train_per_class = 100")],
    "keywords-text": [("epochs = 120", "epochs = 5")],
}


def _run_cli(name, config, out, trace=None):
    argv = [workloads.WORKLOADS[name].command, "--config", str(config), "--out", str(out)]
    if trace is not None:
        trace.install()
    try:
        status = symloss.cli.main(argv)
    finally:
        if trace is not None:
            trace.uninstall()
    assert status == 0
    return json.loads((out / "manifest.json").read_text())["artifacts"]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_and_untraced_artifacts_are_identical(tmp_path, monkeypatch, capsys, name):
    monkeypatch.setattr(
        workloads, "CORPUS_SIZES", {"n_train": 400, "n_validation": 300, "n_test": 300}
    )
    config = workloads.write_inputs(name, 1, tmp_path)
    text = config.read_text()
    for old, new in SHRINK[name]:
        assert old in text
        text = text.replace(old, new)
    config.write_text(text)

    plain = _run_cli(name, config, tmp_path / "plain")
    trace = tracer.Tracer("test")
    traced = _run_cli(name, config, tmp_path / "traced", trace)
    assert plain == traced
    assert not workloads.WORKLOADS[name].check(tmp_path / "traced")

    layers = tracer.layer_metrics(trace.records())
    assert layers["process.traced_wall_s"] > 0
    if name == "ber-sweep":
        # 2 cells x 2 losses x 3 seeds, 2 epochs of ceil(200 / 128) steps
        assert layers["training.runs"] == 12
        assert layers["training.steps"] == 12 * 2 * 2
    if name == "uu-trace":
        assert layers["risks.pairs"] == 2 * 3 * 100 * 100
    if name == "keywords-text":
        assert layers["textpipe.docs_read"] == 1000
        assert layers["textpipe.docs_transformed"] == 1000


def test_spread_and_worsening_follow_the_quartile_rule():
    values = [1.0, 2.0, 3.0, 4.0, 5.0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert spread(values) == (q3 - q1) / 3.0
    assert worsening([1.0, 1.0], [1.1, 1.1], "lower") == pytest.approx(0.1)
    assert worsening([1.0, 1.0], [1.1, 1.1], "higher") == pytest.approx(-0.1)


def test_exits_nonzero_without_the_source_tree(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ber-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
