"""Outside-in tracer for the ``symloss`` package.

The tracer changes no file of the package.  It wraps, from outside:

* every public function of every loaded ``symloss`` module, rebound in each
  ``symloss`` module that holds a reference to it (``experiments`` imports
  ``train_ber`` by name, so rebinding only ``training.train_ber`` would miss
  the calls the CLI makes);
* the loss evaluators, by replacing ``losses.LOSSES`` entries with
  ``dataclasses.replace(spec, value=..., grad=...)``;
* a few methods on their classes (:data:`METHODS`);
* ``training._run_steps``, whose step-gradient and full-objective callables
  are wrapped as the ``training.step`` and ``training.trace`` spans.

Spans live in memory with an id, a parent id and a run id.  The first
:data:`INDIVIDUAL_LIMIT` calls of a name under one parent get a span each;
later calls, and every call below an aggregate span, fold into one
aggregate span per (parent, name).  A span's self time is its duration
minus the time its child spans cover.  :meth:`Tracer.uninstall` restores
every original binding.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import os
import sys
import time

import numpy as np

INDIVIDUAL_LIMIT = 64

# (module, class, attribute) of the methods wrapped on their classes
METHODS = (
    ("symloss.training", "Scorer", "score_with_jacobian"),
    ("symloss.textpipe", "Vectorizer", "transform"),
    ("symloss.textpipe", "Corpus", "from_jsonl"),
)


def _argument(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _counter(key, amount):
    def count(counts, args, kwargs, result):
        counts[key] = counts.get(key, 0) + amount(args, kwargs, result)
    return count


_count_elems = _counter("elems", lambda args, kwargs, result: int(np.size(args[0])))


def _count_scores(index, name):
    return _counter(
        "scores", lambda args, kwargs, result: int(np.size(_argument(args, kwargs, index, name)))
    )


def _count_corpus(counts, args, kwargs, result):
    counts["docs"] = counts.get("docs", 0) + len(result)
    counts["bytes"] = counts.get("bytes", 0) + os.path.getsize(_argument(args, kwargs, 1, "path"))


COUNTERS = {
    "losses.value": _count_elems,
    "losses.grad": _count_elems,
    "risks.pairwise_mean_loss": _counter("pairs", lambda args, kwargs, result: int(
        np.size(_argument(args, kwargs, 1, "scores_pos"))
        * np.size(_argument(args, kwargs, 2, "scores_neg"))
    )),
    "distributions.sample_mcd": _counter(
        "points", lambda args, kwargs, result: len(result[0]) + len(result[1])
    ),
    "threshold.select_threshold": _count_scores(0, "scores_validation"),
    "threshold.heuristic_threshold": _count_scores(2, "scores_validation"),
    "threshold.default_threshold": _count_scores(0, "scores_validation"),
    "textpipe.Corpus.from_jsonl": _count_corpus,
    "textpipe.build_vectorizer": _counter("vocab", lambda args, kwargs, result: result.size),
    "textpipe.Vectorizer.transform": _counter("docs", lambda args, kwargs, result: result.shape[0]),
    "textpipe.tokenize": _counter("tokens", lambda args, kwargs, result: len(result)),
}


class Span:
    __slots__ = ("id", "parent", "name", "aggregate", "start", "end", "count", "total", "counts")

    def __init__(self, span_id, parent, name, aggregate):
        self.id = span_id
        self.parent = parent
        self.name = name
        self.aggregate = aggregate
        self.start = None
        self.end = None
        self.count = 0
        self.total = 0.0
        self.counts = {}


def _short(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1]


def symloss_modules() -> list:
    return [
        module for name, module in sorted(sys.modules.items())
        if module is not None and (name == "symloss" or name.startswith("symloss."))
    ]


def public_functions(modules) -> dict:
    """Every public function defined in ``modules``, by its span name."""
    found = {}
    for module in modules:
        for attr, obj in vars(module).items():
            if (
                inspect.isfunction(obj)
                and obj.__module__ == module.__name__
                and not attr.startswith("_")
            ):
                found[f"{_short(module.__name__)}.{attr}"] = obj
    return found


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []
        self._stack = []
        self._individual = {}
        self._folded = {}
        self._restore = []

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        key = (None if parent is None else parent.id, name)
        if (parent is not None and parent.aggregate) or (
            self._individual.get(key, 0) >= INDIVIDUAL_LIMIT
        ):
            span = self._folded.get(key)
            if span is None:
                span = self._folded[key] = Span(len(self.spans), key[0], name, True)
                self.spans.append(span)
            return span
        self._individual[key] = self._individual.get(key, 0) + 1
        span = Span(len(self.spans), key[0], name, False)
        self.spans.append(span)
        return span

    def wrap(self, fn, name: str):
        counter = COUNTERS.get(name)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            stack.append(span)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if span.start is None:
                    span.start = start
                span.end = end
                span.count += 1
                span.total += end - start
            if counter is not None:
                counter(span.counts, args, kwargs, result)
            return result

        return traced

    def _rebind(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every target in the loaded ``symloss`` modules."""
        modules = symloss_modules()
        wrappers = {
            id(fn): self.wrap(fn, name) for name, fn in public_functions(modules).items()
        }
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and id(obj) in wrappers:
                    self._rebind(module, attr, wrappers[id(obj)])

        for module_name, class_name, attr in METHODS:
            cls = getattr(sys.modules.get(module_name), class_name, None)
            if cls is None or attr not in cls.__dict__:
                continue
            raw = cls.__dict__[attr]
            name = f"{_short(module_name)}.{class_name}.{attr}"
            if isinstance(raw, classmethod):
                self._rebind(cls, attr, classmethod(self.wrap(raw.__func__, name)))
            else:
                self._rebind(cls, attr, self.wrap(raw, name))

        losses = sys.modules["symloss.losses"]
        for key, spec in list(losses.LOSSES.items()):
            changes = {"value": self.wrap(spec.value, "losses.value")}
            if spec.grad is not None:
                changes["grad"] = self.wrap(spec.grad, "losses.grad")
            self._restore.append((losses.LOSSES, key, spec))
            losses.LOSSES[key] = dataclasses.replace(spec, **changes)

        training = sys.modules["symloss.training"]
        run_steps = training.__dict__.get("_run_steps")
        if run_steps is not None:
            self._rebind(training, "_run_steps", self.wrap(self._steps_hook(run_steps), "training._run_steps"))

    def _steps_hook(self, run_steps):
        signature = inspect.signature(run_steps)

        @functools.wraps(run_steps)
        def hooked(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            for param, name in (("step_gradient", "training.step"), ("full_objective", "training.trace")):
                if param in bound.arguments:
                    bound.arguments[param] = self.wrap(bound.arguments[param], name)
            return run_steps(*bound.args, **bound.kwargs)

        return hooked

    def uninstall(self) -> None:
        """Put every original binding back, newest first."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    def records(self) -> list:
        """Spans as JSON-ready dicts, with self time computed."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] += span.total
        return [
            {
                "id": span.id,
                "parent": span.parent,
                "run": self.run_id,
                "name": span.name,
                "aggregate": span.aggregate,
                "start": span.start,
                "end": span.end,
                "count": span.count,
                "total_s": span.total,
                "self_s": span.total - covered[span.id],
                "counts": span.counts,
            }
            for span in self.spans
        ]


def layer_metrics(records) -> dict:
    """Per-layer metrics from the span records of one traced run."""
    total, self_time, calls, counts = {}, {}, {}, {}
    for record in records:
        name = record["name"]
        total[name] = total.get(name, 0.0) + record["total_s"]
        self_time[name] = self_time.get(name, 0.0) + record["self_s"]
        calls[name] = calls.get(name, 0) + record["count"]
        for key, value in record["counts"].items():
            counts[(name, key)] = counts.get((name, key), 0) + value

    def t(*names):
        return sum(total.get(name, 0.0) for name in names)

    def n(*names):
        return sum(calls.get(name, 0) for name in names)

    def c(name, key):
        return counts.get((name, key), 0)

    def rate(amount, seconds):
        return amount / seconds if seconds > 0 else 0.0

    writes = ("experiments.write_csv", "experiments.write_manifest")
    experiments_self = sum(
        value for name, value in self_time.items()
        if name.startswith(("experiments.", "cli.")) and name not in writes
    )
    training_self = sum(
        value for name, value in self_time.items()
        if name.startswith("training.") and name != "training.Scorer.score_with_jacobian"
    )
    trainers = ("training.train_ber", "training.train_auc")
    thresholds = (
        "threshold.select_threshold", "threshold.heuristic_threshold", "threshold.default_threshold",
    )
    return {
        "experiments.parse_s": t("experiments.parse_config"),
        "experiments.run_s": t("experiments.run_experiment"),
        "experiments.self_s": experiments_self,
        "experiments.write_s": t(*writes),
        "distributions.sample_s": t("distributions.sample_mcd"),
        "distributions.points": c("distributions.sample_mcd", "points"),
        "training.runs": n(*trainers),
        "training.train_s": t(*trainers),
        "training.self_s": training_self,
        "training.steps": n("training.step"),
        "training.steps_per_s": rate(n("training.step"), t("training.step")),
        "training.jacobian_s": t("training.Scorer.score_with_jacobian"),
        "training.trace_s": t("training.trace"),
        "losses.value_calls": n("losses.value"),
        "losses.value_elems": c("losses.value", "elems"),
        "losses.value_s": t("losses.value"),
        "losses.grad_calls": n("losses.grad"),
        "losses.grad_elems": c("losses.grad", "elems"),
        "losses.grad_s": t("losses.grad"),
        "risks.pairwise_calls": n("risks.pairwise_mean_loss"),
        "risks.pairs": c("risks.pairwise_mean_loss", "pairs"),
        "risks.pairwise_s": t("risks.pairwise_mean_loss"),
        "risks.pairs_per_s": rate(c("risks.pairwise_mean_loss", "pairs"), t("risks.pairwise_mean_loss")),
        "risks.auc_score_s": t("risks.auc_score"),
        "risks.empirical_ber_s": t("risks.empirical_ber_risk"),
        "risks.metrics_s": t("risks.classification_metrics"),
        "threshold.select_s": t(*thresholds),
        "threshold.scores": sum(c(name, "scores") for name in thresholds),
        "textpipe.read_s": t("textpipe.Corpus.from_jsonl"),
        "textpipe.docs_read": c("textpipe.Corpus.from_jsonl", "docs"),
        "textpipe.bytes_read": c("textpipe.Corpus.from_jsonl", "bytes"),
        "textpipe.fit_s": t("textpipe.build_vectorizer"),
        "textpipe.vocab_size": c("textpipe.build_vectorizer", "vocab"),
        "textpipe.transform_s": t("textpipe.Vectorizer.transform"),
        "textpipe.docs_transformed": c("textpipe.Vectorizer.transform", "docs"),
        "textpipe.tokens": c("textpipe.tokenize", "tokens"),
        "textpipe.docs_per_s": rate(
            c("textpipe.Vectorizer.transform", "docs"), t("textpipe.Vectorizer.transform")
        ),
        "textpipe.pseudo_label_s": t("textpipe.pseudo_label"),
        "textpipe.pipeline_s": t("textpipe.run_pipeline"),
        "datasets.load_s": t("datasets.load_keywords", "datasets.load_mini_corpus"),
        "process.traced_wall_s": t("cli.main"),
    }
