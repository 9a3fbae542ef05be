"""Vectorization, pseudo-labeling, and the end-to-end keyword pipeline."""

import numpy as np
import pytest
from scipy.stats import spearmanr

from symloss.datasets import (
    MINI_CORPUS_SEED,
    generate_mini_corpus,
    load_keywords,
    load_mini_corpus,
)
from symloss.errors import ConfigurationError, DegenerateSplitError
from symloss.losses import get_loss
from symloss.risks import pairwise_mean_loss
from symloss.textpipe import (
    Corpus,
    Document,
    KeywordSet,
    PipelineConfig,
    build_vectorizer,
    pseudo_label,
    run_pipeline,
    tokenize,
)
from symloss.training import TrainConfig, train_auc


def make_docs(texts, split="train_unlabeled", labels=None):
    labels = labels or [None] * len(texts)
    return [
        Document(id=f"d{i}", text=text, hidden_label=label, split=split)
        for i, (text, label) in enumerate(zip(texts, labels))
    ]


@pytest.fixture(scope="module")
def bundled():
    return load_mini_corpus(), load_keywords()


class TestTokenize:
    def test_lowercase_and_split(self):
        assert tokenize("Hello, World! x2") == ["hello", "world", "x2"]

    def test_empty(self):
        assert tokenize("...!?") == []


class TestCorpus:
    def test_unique_ids_enforced(self):
        docs = [Document(id="a", text="x"), Document(id="a", text="y")]
        with pytest.raises(ValueError, match="unique"):
            Corpus(docs)

    def test_test_split_needs_labels(self):
        with pytest.raises(ValueError, match="label"):
            Corpus([Document(id="a", text="x", split="test_labeled")])

    def test_jsonl_round_trip(self, tmp_path, bundled):
        corpus, _ = bundled
        path = tmp_path / "corpus.jsonl"
        corpus.to_jsonl(path)
        again = Corpus.from_jsonl(path)
        assert len(again) == len(corpus)
        assert again.documents[0] == corpus.documents[0]

    @pytest.mark.parametrize(
        "record, message",
        [
            ('{"text": "a b"}', "missing field 'id'"),
            ('{"id": "x"}', "missing field 'text'"),
            ('{"id": "x", "text": "a b", "label": "pos"}', "label must be"),
            ('{"id": "x", "text": "a b", "split": "trian"}', "split must be one of"),
            ('["x", "a b"]', "expected a JSON object"),
        ],
        ids=["no-id", "no-text", "label-pos", "split-trian", "not-an-object"],
    )
    def test_bad_record_names_path_and_line(self, tmp_path, record, message):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"id": "ok", "text": "a b"}\n' + record + "\n")
        with pytest.raises(ConfigurationError) as info:
            Corpus.from_jsonl(path)
        assert str(info.value).startswith(f"{path}:2: ")
        assert message in str(info.value)


class TestKeywordSet:
    def test_normalization(self):
        ks = KeywordSet(("Orbit", "orbit", "Gamma-Ray", ""))
        assert ks.words == ("orbit", "gamma", "ray")

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            KeywordSet(("", "..."))

    def test_file_empty_after_normalization_names_path(self, tmp_path):
        path = tmp_path / "keywords.txt"
        path.write_text("!!!\n")
        with pytest.raises(ConfigurationError) as info:
            KeywordSet.from_file(path)
        assert str(info.value) == f"{path}: keyword set is empty after normalization"


class TestBuildVectorizer:
    def test_min_doc_freq_two(self):
        vec = build_vectorizer(make_docs(["a b", "a c"]), scheme="tf", min_doc_freq=2)
        assert set(vec.vocabulary) == {"a"}

    def test_min_doc_freq_one(self):
        vec = build_vectorizer(make_docs(["a b", "a c"]), scheme="tf", min_doc_freq=1)
        assert set(vec.vocabulary) == {"a", "b", "c"}
        # order: frequency descending, then token ascending
        assert vec.vocabulary["a"] == 0

    def test_empty_corpus_rejected(self):
        with pytest.raises(ConfigurationError, match="empty"):
            build_vectorizer([], scheme="tf")

    def test_unreachable_frequency_rejected(self):
        with pytest.raises(ConfigurationError, match="vocabulary is empty"):
            build_vectorizer(make_docs(["a b", "c d"]), scheme="tf", min_doc_freq=3)

    def test_deterministic_ordering(self):
        texts = ["b a", "a c b", "c b"]
        first = build_vectorizer(make_docs(texts), scheme="tf")
        second = build_vectorizer(make_docs(texts), scheme="tf")
        assert first.vocabulary == second.vocabulary


class TestPseudoLabel:
    def test_hand_cosine(self):
        # doc tf vector (2, 1, 0) against indicator of {a}: 2/sqrt(5)
        vec = build_vectorizer(make_docs(["a a b", "a b c"]), scheme="tf")
        docs = make_docs(["a a b"], labels=[1])
        pos, neg = None, None
        with pytest.raises(DegenerateSplitError):
            # cosine = 0.894 > 0.5, so everything is pseudo-positive
            pseudo_label(KeywordSet(("a",)), docs, vec, tau=0.5)
        two = make_docs(["a a b", "c c"], labels=[1, -1])
        pos, neg = pseudo_label(KeywordSet(("a",)), two, vec, tau=0.5)
        assert len(pos) == 1 and len(neg) == 1
        np.testing.assert_allclose(
            pos.points[0, vec.vocabulary["a"]], 2.0
        )

    def test_doc_without_keywords_is_negative(self):
        vec = build_vectorizer(make_docs(["a b", "c d"]), scheme="tf")
        docs = make_docs(["a b", "c d"])
        pos, neg = pseudo_label(KeywordSet(("a",)), docs, vec, tau=0.01)
        assert len(pos) == 1 and len(neg) == 1

    def test_no_vocabulary_overlap(self):
        vec = build_vectorizer(make_docs(["a b", "a c"]), scheme="tf")
        with pytest.raises(ConfigurationError, match="no tokens"):
            pseudo_label(KeywordSet(("zebra",)), make_docs(["a b"]), vec, tau=0.1)

    def test_degenerate_split_names_tau(self):
        vec = build_vectorizer(make_docs(["a b", "a c"]), scheme="tf")
        with pytest.raises(DegenerateSplitError, match="tau=1.0"):
            pseudo_label(KeywordSet(("a",)), make_docs(["a b", "a c"]), vec, tau=1.0)

    def test_partition_and_purity(self, bundled):
        corpus, keywords = bundled
        train = corpus.split("train_unlabeled")
        vec = build_vectorizer(train, "tf_idf", 1)
        pos, neg = pseudo_label(keywords, train, vec, tau=0.15)
        assert len(pos) + len(neg) == len(train)
        assert pos.positive_fraction > neg.positive_fraction

    def test_cosines_in_unit_interval(self, bundled):
        corpus, keywords = bundled
        train = corpus.split("train_unlabeled")
        vec = build_vectorizer(train, "tf_idf", 1)
        from symloss.textpipe import _cosine_rows

        cosines = _cosine_rows(vec.transform(train), vec.keyword_vector(keywords.words))
        assert np.all(cosines >= 0.0) and np.all(cosines <= 1.0)


class TestBundledAssets:
    def test_regeneration_matches_bundle(self, bundled):
        corpus, keywords = bundled
        regenerated, regen_keywords = generate_mini_corpus(seed=MINI_CORPUS_SEED)
        assert regen_keywords.words == keywords.words
        assert len(regenerated) == len(corpus) == 400
        assert regenerated.documents == corpus.documents

    def test_split_sizes_and_prior(self, bundled):
        corpus, _ = bundled
        assert len(corpus.split("train_unlabeled")) == 200
        assert len(corpus.split("validation_unlabeled")) == 100
        test = corpus.split("test_labeled")
        assert len(test) == 100
        assert sum(doc.hidden_label == 1 for doc in test) == 30


def pipeline_config(seed=0, **overrides):
    defaults = dict(
        train=TrainConfig(objective="auc", loss="sigmoid", epochs=120, seed=seed),
        tau=0.15,
        scheme="tf_idf",
        min_doc_freq=1,
        threshold_method="breakeven_known_prior",
        known_prior=0.3,
    )
    defaults.update(overrides)
    return PipelineConfig(**defaults)


class TestRunPipeline:
    def test_bundled_regression(self, bundled):
        corpus, keywords = bundled
        report = run_pipeline(corpus, keywords, pipeline_config(seed=0))
        assert report.test_auc > 0.5
        assert report.empirical_pi_pos > report.empirical_pi_neg
        assert report.n_pseudo_pos + report.n_pseudo_neg == 200
        # frozen at first build (fixed corpus, fixed seed)
        assert report.test_auc == pytest.approx(0.979047619047619, rel=1e-6)
        assert report.test_metrics["f1"] == pytest.approx(0.888888888888889, rel=1e-6)

    def test_pipeline_deterministic(self, bundled):
        corpus, keywords = bundled
        first = run_pipeline(corpus, keywords, pipeline_config(seed=3))
        second = run_pipeline(corpus, keywords, pipeline_config(seed=3))
        assert first.to_dict() == second.to_dict()

    def test_nonsymmetric_loss_warns_but_runs(self, bundled):
        corpus, keywords = bundled
        config = pipeline_config(
            seed=0, train=TrainConfig(objective="auc", loss="logistic", epochs=30, seed=0)
        )
        with pytest.warns(UserWarning, match="not symmetric"):
            report = run_pipeline(corpus, keywords, config)
        assert report.warnings

    def test_missing_prior_for_breakeven(self, bundled):
        corpus, keywords = bundled
        with pytest.raises(ConfigurationError, match="known_prior"):
            run_pipeline(corpus, keywords, pipeline_config(known_prior=None))

    def test_heuristic_and_default_methods(self, bundled):
        corpus, keywords = bundled
        heuristic = run_pipeline(
            corpus, keywords, pipeline_config(threshold_method="heuristic_pseudo_ratio")
        )
        assert heuristic.threshold.method == "heuristic_pseudo_ratio"
        default = run_pipeline(
            corpus, keywords, pipeline_config(threshold_method="default_zero")
        )
        assert default.threshold.beta == 0.0

    def test_breakeven_beats_default_f1(self, bundled):
        # the corpus prior (0.3) sits far from the ranker's natural
        # positive rate at beta = 0, so the known-prior cutoff must win
        corpus, keywords = bundled
        breakeven = run_pipeline(corpus, keywords, pipeline_config(seed=0))
        default = run_pipeline(
            corpus, keywords, pipeline_config(seed=0, threshold_method="default_zero")
        )
        assert breakeven.test_metrics["f1"] > default.test_metrics["f1"]

    def test_guarantee_gate(self, bundled):
        # informative split plus symmetric loss implies an above-chance ranker
        corpus, keywords = bundled
        for seed in (0, 1):
            report = run_pipeline(corpus, keywords, pipeline_config(seed=seed))
            assert report.empirical_pi_pos > report.empirical_pi_neg
            assert report.test_auc > 0.5


class TestTauSweepTrend:
    def test_purer_splits_track_the_clean_reference(self, bundled):
        """Raising tau purifies the split; the clean-risk gap to a
        clean-trained reference must not grow (rank correlation <= 0)."""
        corpus, keywords = bundled
        train = corpus.split("train_unlabeled")
        test = corpus.split("test_labeled")
        vec = build_vectorizer(train, "tf_idf", 1)
        sigmoid = get_loss("sigmoid")

        test_matrix = vec.transform(test)
        truth = np.array([doc.hidden_label for doc in test])
        test_pos, test_neg = test_matrix[truth == 1], test_matrix[truth == -1]

        train_matrix = vec.transform(train)
        train_labels = np.array([doc.hidden_label for doc in train])

        purities, errors = [], []
        for tau in (0.1, 0.3, 0.5):
            pos, neg = pseudo_label(keywords, train, vec, tau)
            purities.append(pos.positive_fraction - neg.positive_fraction)
            per_seed = []
            for seed in range(3):
                config = TrainConfig(objective="auc", loss="sigmoid", epochs=120, seed=seed)
                trace = train_auc(pos, neg, config)
                reference = train_auc(
                    train_matrix[train_labels == 1],
                    train_matrix[train_labels == -1],
                    config,
                )
                gap = pairwise_mean_loss(
                    sigmoid, trace.scorer(test_pos), trace.scorer(test_neg)
                ) - pairwise_mean_loss(
                    sigmoid, reference.scorer(test_pos), reference.scorer(test_neg)
                )
                per_seed.append(gap)
            errors.append(float(np.mean(per_seed)))

        assert purities[0] < purities[1] < purities[2]
        assert spearmanr(purities, errors).statistic <= 0.0
