"""Learning a document classifier from relevant keywords and unlabeled text.

The pipeline has four stages: bag-of-words vectorization, pseudo-labeling
of unlabeled documents by cosine similarity against the keyword set,
pairwise-ranking training with a symmetric loss on the pseudo split, and
threshold selection to turn the ranker into a classifier.

Pseudo-labeling is not expected to split documents cleanly; it only has
to leave the pseudo-positive side with a higher true-positive proportion
than the pseudo-negative side.  Under that single condition a symmetric
loss guarantees the ranking objective has the same minimizer as on
correctly labeled data, so the ranker is trustworthy even when the split
is noisy.  When hidden labels are available the report measures the two
proportions instead of assuming them.
"""

from __future__ import annotations

import json
import re
import warnings
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from .distributions import SampleSet
from .errors import ConfigurationError, DegenerateSplitError
from .losses import get_loss
from .risks import auc_score, classification_metrics
from .threshold import (
    ThresholdResult,
    classify_scores,
    default_threshold,
    heuristic_threshold,
    select_threshold,
)
from .training import Scorer, TrainConfig, train_auc

__all__ = [
    "Document",
    "Corpus",
    "KeywordSet",
    "Vectorizer",
    "PipelineConfig",
    "PipelineReport",
    "build_vectorizer",
    "check_tau",
    "pseudo_label",
    "run_pipeline",
    "tokenize",
    "SPLITS",
]

SPLITS = ("train_unlabeled", "validation_unlabeled", "test_labeled")

_TOKEN_SPLIT = re.compile(r"[^0-9a-z]+")


def tokenize(text: str) -> list[str]:
    """Lowercase and split on runs of non-alphanumeric characters."""
    return [token for token in _TOKEN_SPLIT.split(text.lower()) if token]


@dataclass(frozen=True)
class Document:
    id: str
    text: str
    hidden_label: Optional[int] = None
    split: str = "train_unlabeled"

    def __post_init__(self) -> None:
        if self.split not in SPLITS:
            raise ValueError(f"split must be one of {SPLITS}, got {self.split!r}")
        if self.hidden_label is not None and self.hidden_label not in (-1, 1):
            raise ValueError("document labels must be +1 or -1")


def _read_document(line: str, where: str) -> Document:
    """One JSONL corpus record; any defect is a ConfigurationError naming ``where``."""
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{where}: invalid JSON ({exc})") from None
    if not isinstance(record, dict):
        raise ConfigurationError(f"{where}: expected a JSON object, got {type(record).__name__}")
    label = record.get("label")
    try:
        label = None if label is None else int(label)
    except (TypeError, ValueError):
        raise ConfigurationError(f"{where}: label must be +1 or -1, got {label!r}") from None
    try:
        return Document(
            id=str(record["id"]),
            text=str(record["text"]),
            hidden_label=label,
            split=record.get("split", "train_unlabeled"),
        )
    except KeyError as exc:
        raise ConfigurationError(f"{where}: missing field {exc}") from None
    except ValueError as exc:
        raise ConfigurationError(f"{where}: {exc}") from None


@dataclass
class Corpus:
    """Documents tagged with purpose splits; test documents carry labels."""

    documents: list[Document]

    def __post_init__(self) -> None:
        ids = [doc.id for doc in self.documents]
        if len(set(ids)) != len(ids):
            raise ValueError("document ids must be unique")
        for doc in self.documents:
            if doc.split == "test_labeled" and doc.hidden_label is None:
                raise ValueError(f"test document {doc.id!r} is missing its label")

    def split(self, tag: str) -> list[Document]:
        if tag not in SPLITS:
            raise ValueError(f"unknown split {tag!r}")
        return [doc for doc in self.documents if doc.split == tag]

    def __len__(self) -> int:
        return len(self.documents)

    @classmethod
    def from_jsonl(cls, path) -> "Corpus":
        documents = []
        with open(path, "r", encoding="utf-8") as fh:
            for line_number, line in enumerate(fh, start=1):
                line = line.strip()
                if line:
                    documents.append(_read_document(line, f"{path}:{line_number}"))
        if not documents:
            raise ConfigurationError(f"{path}: corpus is empty")
        try:
            return cls(documents)
        except ValueError as exc:
            raise ConfigurationError(f"{path}: {exc}") from None

    def to_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for doc in self.documents:
                record: dict = {"id": doc.id, "text": doc.text, "split": doc.split}
                if doc.hidden_label is not None:
                    record["label"] = doc.hidden_label
                fh.write(json.dumps(record, sort_keys=True) + "\n")


@dataclass(frozen=True)
class KeywordSet:
    """Lowercase, deduplicated keywords describing the positive class."""

    words: tuple[str, ...]

    def __post_init__(self) -> None:
        normalized: list[str] = []
        seen = set()
        for word in self.words:
            for token in tokenize(word):
                if token not in seen:
                    seen.add(token)
                    normalized.append(token)
        if not normalized:
            raise ValueError("keyword set is empty after normalization")
        object.__setattr__(self, "words", tuple(normalized))

    @classmethod
    def from_file(cls, path) -> "KeywordSet":
        with open(path, "r", encoding="utf-8") as fh:
            words = [line.strip() for line in fh if line.strip()]
        if not words:
            raise ConfigurationError(f"{path}: no keywords found")
        try:
            return cls(tuple(words))
        except ValueError as exc:
            raise ConfigurationError(f"{path}: {exc}") from None

    def __len__(self) -> int:
        return len(self.words)


@dataclass
class Vectorizer:
    """Bag-of-words vectorizer with tf or smoothed tf-idf weighting.

    Vocabulary order is (document frequency descending, token ascending),
    restricted to tokens appearing in at least ``min_doc_freq`` fit
    documents.  The idf is log((1 + N) / (1 + df)) + 1, which keeps all
    weights positive so cosines of non-negative vectors stay in [0, 1].
    """

    vocabulary: dict[str, int]
    document_frequency: np.ndarray
    scheme: str
    min_doc_freq: int
    n_documents: int

    @property
    def size(self) -> int:
        return len(self.vocabulary)

    def _idf(self) -> np.ndarray:
        return np.log((1.0 + self.n_documents) / (1.0 + self.document_frequency)) + 1.0

    def transform(self, docs: Iterable) -> np.ndarray:
        """Row-per-document term matrix under the configured scheme."""
        texts = [doc.text if isinstance(doc, Document) else str(doc) for doc in docs]
        matrix = np.zeros((len(texts), self.size))
        for row, text in enumerate(texts):
            for token in tokenize(text):
                column = self.vocabulary.get(token)
                if column is not None:
                    matrix[row, column] += 1.0
        if self.scheme == "tf_idf":
            matrix *= self._idf()
        return matrix

    def keyword_vector(self, words: Sequence[str]) -> np.ndarray:
        """Binary indicator of the keywords over the vocabulary.

        Keywords arrive as a set and carry no counts, so the vector is an
        unweighted indicator regardless of the document scheme.
        """
        vector = np.zeros(self.size)
        for word in words:
            column = self.vocabulary.get(word)
            if column is not None:
                vector[column] = 1.0
        return vector


def build_vectorizer(corpus, scheme: str = "tf_idf", min_doc_freq: int = 1) -> Vectorizer:
    """Fit the vocabulary and document frequencies on a document slice."""
    if scheme not in ("tf", "tf_idf"):
        raise ConfigurationError(f"scheme must be 'tf' or 'tf_idf', got {scheme!r}")
    docs = corpus.documents if isinstance(corpus, Corpus) else list(corpus)
    if not docs:
        raise ConfigurationError("cannot build a vectorizer from an empty corpus")
    df: dict[str, int] = {}
    for doc in docs:
        text = doc.text if isinstance(doc, Document) else str(doc)
        for token in set(tokenize(text)):
            df[token] = df.get(token, 0) + 1
    kept = [(token, count) for token, count in df.items() if count >= min_doc_freq]
    if not kept:
        raise ConfigurationError(
            f"no token reaches document frequency {min_doc_freq}; vocabulary is empty"
        )
    kept.sort(key=lambda item: (-item[1], item[0]))
    vocabulary = {token: index for index, (token, _) in enumerate(kept)}
    frequencies = np.array([count for _, count in kept], dtype=float)
    return Vectorizer(
        vocabulary=vocabulary,
        document_frequency=frequencies,
        scheme=scheme,
        min_doc_freq=min_doc_freq,
        n_documents=len(docs),
    )


def _cosine_rows(matrix: np.ndarray, vector: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(matrix, axis=1) * np.linalg.norm(vector)
    dots = matrix @ vector
    with np.errstate(invalid="ignore", divide="ignore"):
        cosines = np.where(norms > 0, dots / np.where(norms > 0, norms, 1.0), 0.0)
    return cosines


def check_tau(tau: float) -> float:
    """``tau`` if it is a usable cosine cutoff, i.e. in [0, 1]."""
    if not (0.0 <= tau <= 1.0):
        raise ValueError(f"tau must be in [0, 1], got {tau}")
    return tau


def pseudo_label(
    keywords: KeywordSet,
    documents: Sequence[Document],
    vectorizer: Vectorizer,
    tau: float,
) -> tuple[SampleSet, SampleSet]:
    """Split documents at cosine(document, keywords) > tau.

    Hidden labels ride along for purity accounting when every document
    carries one.  Raises when the keywords miss the vocabulary entirely
    or when either side of the split comes out empty.
    """
    check_tau(tau)
    documents = list(documents)
    if not documents:
        raise ConfigurationError("no documents to pseudo-label")
    keyword_vec = vectorizer.keyword_vector(keywords.words)
    overlap = int(np.count_nonzero(keyword_vec))
    if overlap == 0:
        raise ConfigurationError(
            "keywords share no tokens with the vectorizer vocabulary"
        )
    matrix = vectorizer.transform(documents)
    cosines = _cosine_rows(matrix, keyword_vec)
    mask = cosines > tau
    if not mask.any() or mask.all():
        side = "pseudo-positive" if not mask.any() else "pseudo-negative"
        raise DegenerateSplitError(
            f"tau={tau} leaves the {side} side empty; adjust the threshold"
        )
    labels = None
    if all(doc.hidden_label is not None for doc in documents):
        labels = np.array([doc.hidden_label for doc in documents], dtype=int)
    pos = SampleSet(
        points=matrix[mask],
        origin="pseudo_pos",
        hidden_labels=None if labels is None else labels[mask],
    )
    neg = SampleSet(
        points=matrix[~mask],
        origin="pseudo_neg",
        hidden_labels=None if labels is None else labels[~mask],
    )
    return pos, neg


@dataclass
class PipelineConfig:
    """Settings for the keywords-to-classifier pipeline."""

    train: TrainConfig
    tau: float = 0.15
    scheme: str = "tf_idf"
    min_doc_freq: int = 1
    threshold_method: str = "breakeven_known_prior"
    known_prior: Optional[float] = None


@dataclass
class PipelineReport:
    """Everything measured in one pipeline run."""

    n_pseudo_pos: int
    n_pseudo_neg: int
    empirical_pi_pos: Optional[float]
    empirical_pi_neg: Optional[float]
    scorer: Scorer
    threshold: ThresholdResult
    test_metrics: Optional[dict]
    test_auc: Optional[float]
    warnings: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "n_pseudo_pos": self.n_pseudo_pos,
            "n_pseudo_neg": self.n_pseudo_neg,
            "empirical_pi_pos": self.empirical_pi_pos,
            "empirical_pi_neg": self.empirical_pi_neg,
            "threshold": self.threshold.to_dict(),
            "test_metrics": self.test_metrics,
            "test_auc": self.test_auc,
            "warnings": self.warnings,
            "scorer": {
                "kind": self.scorer.kind,
                "dimension": self.scorer.dimension,
                "parameters": [float(p) for p in self.scorer.params],
            },
        }


def run_pipeline(corpus: Corpus, keywords: KeywordSet, config: PipelineConfig) -> PipelineReport:
    """Pseudo-label, train the ranker, pick a threshold, evaluate.

    The vectorizer is fit on the training slice only; validation and test
    documents are transformed with the fitted vocabulary.  A non-symmetric
    training loss is allowed (for comparison experiments) but warned
    about, since the noisy-split guarantee needs symmetry.
    """
    notes: list[str] = []
    loss = get_loss(config.train.loss)
    if not loss.symmetric:
        message = (
            f"loss {loss.name!r} is not symmetric: the pseudo-label split gives "
            "no minimizer guarantee for it"
        )
        warnings.warn(message)
        notes.append(message)

    train_docs = corpus.split("train_unlabeled")
    validation_docs = corpus.split("validation_unlabeled")
    test_docs = corpus.split("test_labeled")
    if not train_docs:
        raise ConfigurationError("corpus has no train_unlabeled documents")

    vectorizer = build_vectorizer(train_docs, config.scheme, config.min_doc_freq)
    pseudo_pos, pseudo_neg = pseudo_label(keywords, train_docs, vectorizer, config.tau)

    pi_pos = pi_neg = None
    if pseudo_pos.hidden_labels is not None and pseudo_neg.hidden_labels is not None:
        pi_pos = pseudo_pos.positive_fraction
        pi_neg = pseudo_neg.positive_fraction
        if pi_pos <= pi_neg:
            message = (
                f"pseudo split is not informative: empirical proportions "
                f"{pi_pos:.3f} <= {pi_neg:.3f}; the minimizer guarantee is void"
            )
            warnings.warn(message)
            notes.append(message)

    trace = train_auc(pseudo_pos, pseudo_neg, config.train)
    scorer = trace.scorer

    if config.threshold_method == "default_zero":
        threshold_scores = validation_docs or train_docs
        threshold = default_threshold(scorer(vectorizer.transform(threshold_scores)))
    else:
        if not validation_docs:
            raise ConfigurationError(
                "threshold selection needs validation_unlabeled documents"
            )
        validation_scores = scorer(vectorizer.transform(validation_docs))
        if config.threshold_method == "breakeven_known_prior":
            if config.known_prior is None:
                raise ConfigurationError(
                    "breakeven thresholding needs known_prior in the pipeline config"
                )
            threshold = select_threshold(validation_scores, config.known_prior)
        elif config.threshold_method == "heuristic_pseudo_ratio":
            threshold = heuristic_threshold(
                len(pseudo_pos), len(train_docs), validation_scores
            )
        else:
            raise ConfigurationError(
                f"unknown threshold method {config.threshold_method!r}"
            )

    test_metrics = None
    test_auc = None
    if test_docs:
        test_matrix = vectorizer.transform(test_docs)
        test_scores = scorer(test_matrix)
        truth = np.array([doc.hidden_label for doc in test_docs], dtype=int)
        predicted = classify_scores(test_scores, threshold.beta)
        test_metrics = classification_metrics(predicted, truth)
        if (truth == 1).any() and (truth == -1).any():
            test_auc = auc_score(test_scores[truth == 1], test_scores[truth == -1])

    return PipelineReport(
        n_pseudo_pos=len(pseudo_pos),
        n_pseudo_neg=len(pseudo_neg),
        empirical_pi_pos=pi_pos,
        empirical_pi_neg=pi_neg,
        scorer=scorer,
        threshold=threshold,
        test_metrics=test_metrics,
        test_auc=test_auc,
        warnings=notes,
    )
