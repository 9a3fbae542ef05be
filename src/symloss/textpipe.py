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
import warnings
from dataclasses import dataclass, field
from itertools import repeat
from typing import Iterable, Optional, Sequence

import numpy as np

from .distributions import SampleSet
from .errors import ConfigurationError, DegenerateSplitError, not_utf8
from .losses import get_loss
from .risks import auc_score, classification_metrics
from .threshold import (
    THRESHOLD_METHODS,
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

# an ASCII byte's lowercase if that is in [0-9a-z], else a space
_ASCII_TOKEN_BYTES = bytes(
    ord(char.lower()) if char.lower() in "0123456789abcdefghijklmnopqrstuvwxyz" else 0x20
    for char in map(chr, range(256))
)
# documents counted per bincount in Vectorizer.transform; bounds its scratch memory
_ROW_BLOCK = 512
# json.loads without its leading-BOM and trailing-data checks, nor raw_decode's
# wrapper; it raises StopIteration where no value starts
_scan_once = json.JSONDecoder().scan_once


def tokenize(text: str) -> list[str]:
    """Lowercase and split on runs of characters outside [0-9a-z].

    The lowered text is encoded to ASCII with every other code point as
    ``?``; one byte translate then turns each byte outside [0-9a-z] into a
    space, and a whitespace split cuts the tokens.
    """
    return _joined_tokens([text])


def _joined_tokens(texts: Sequence[str]) -> list[str]:
    """The tokens of each text in turn, with a ``|`` token between two texts.

    Each text is lowered, encoded and translated alone; the translate maps
    ``|`` to a space, so only a separator yields that token.  The texts are
    joined with ``b" | "``, then decoded and split once.
    """
    return b" | ".join([
        text.lower().encode("ascii", "replace").translate(_ASCII_TOKEN_BYTES) for text in texts
    ]).decode("ascii").split()


def _record(
    doc_id, text, label=None, split="train_unlabeled"
) -> tuple[str, str, Optional[int], str]:
    """One record's normalized fields ``(id, text, label, split)``, or a
    ValueError naming the first field that breaks its rule:

    * ``id`` is a string, or an integer, which becomes its string;
    * ``text`` is a string;
    * ``label`` is None or +1/-1, not a bool, and becomes an int;
    * ``split`` is one of ``SPLITS``, and a ``test_labeled`` record has
      a label.
    """
    # str() would turn None into "None" and a list into its repr
    if isinstance(doc_id, int) and not isinstance(doc_id, bool):
        doc_id = str(doc_id)
    elif not isinstance(doc_id, str):
        raise ValueError(f"id must be a string or an integer, got {type(doc_id).__name__}")
    if not isinstance(text, str):
        raise ValueError(f"text must be a string, got {type(text).__name__}")
    if label is not None:
        # a bool or a fraction is not a label, though int() would make one of it
        if isinstance(label, bool) or label not in (-1, 1):
            raise ValueError(f"label must be +1 or -1, got {label!r}")
        if type(label) is not int:
            label = int(label)
    if split not in SPLITS:
        raise ValueError(f"split must be one of {SPLITS}, got {split!r}")
    if split == "test_labeled" and label is None:
        raise ValueError(f"test document {doc_id!r} is missing its label")
    return doc_id, text, label, split


@dataclass(frozen=True)
class Document:
    """One corpus record, checked and normalized at construction by the
    record rule (:func:`_record`) that ``Corpus.from_jsonl`` applies too."""

    id: str
    text: str
    hidden_label: Optional[int] = None
    split: str = "train_unlabeled"

    def __post_init__(self) -> None:
        doc_id, _, label, _ = _record(self.id, self.text, self.hidden_label, self.split)
        object.__setattr__(self, "id", doc_id)
        object.__setattr__(self, "hidden_label", label)


def _stripped_lines(path):
    """(line number, stripped line) for each non-blank line of a UTF-8 file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line_number, line in enumerate(fh, start=1):
                line = line.strip()
                if line:
                    yield line_number, line
    except UnicodeDecodeError:
        raise not_utf8(path) from None


def _loads(line: str, where: str):
    """``json.loads(line)``; its complaint is a ConfigurationError naming ``where``."""
    try:
        return json.loads(line)
    except (ValueError, RecursionError) as exc:
        raise ConfigurationError(f"{where}: invalid JSON ({exc})") from None


class Corpus:
    """Documents tagged with purpose splits; test documents carry labels.

    The corpus stores each record once, as the row ``(id, text, label,
    split)`` of its normalized fields, in the order given.  ``Document``s
    come in through ``Corpus(documents)`` and out through ``documents``;
    everything downstream reads a split's texts and labels (``columns``).
    """

    def __init__(self, documents: Iterable[Document]) -> None:
        rows = [(doc.id, doc.text, doc.hidden_label, doc.split) for doc in documents]
        if len({row[0] for row in rows}) != len(rows):
            raise ValueError("document ids must be unique")
        self._rows = rows

    @property
    def documents(self) -> list[Document]:
        return [Document(*row) for row in self._rows]

    def columns(self, tag: str) -> tuple[list[str], list[Optional[int]]]:
        """The texts and the labels of the ``tag`` split, in corpus order."""
        if tag not in SPLITS:
            raise ValueError(f"unknown split {tag!r}")
        rows = [row for row in self._rows if row[3] == tag]
        return [row[1] for row in rows], [row[2] for row in rows]

    def __len__(self) -> int:
        return len(self._rows)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Corpus):
            return NotImplemented
        return self._rows == other._rows

    def __repr__(self) -> str:
        return f"Corpus(documents={self.documents!r})"

    @classmethod
    def from_jsonl(cls, path) -> "Corpus":
        """Read one record per non-blank line; a bad record, or an id seen
        on an earlier line (the integer 7 and the string "7" are one id),
        is a ConfigurationError naming ``path:line``.

        Each stripped line is decoded by one call of the JSON scanner
        (``scan_once``), which must consume the whole line, so a line is
        accepted exactly when ``json.loads`` accepts it alone, and an
        object split across two lines is rejected at its first.  A line the
        scanner rejects goes to ``json.loads`` for the message (it alone
        names a leading BOM).  An integer past Python's digit limit and
        nesting past its recursion limit are invalid JSON too, and bytes
        that are not UTF-8 name the first line that does not decode.  The
        ``path:line`` text is formatted only for a rejected line.

        Each record passes the record rule (:func:`_record`) and is stored
        as its row of normalized fields; no ``Document`` is built.
        """
        rows = []
        first_line: dict[str, int] = {}
        for line_number, line in _stripped_lines(path):
            try:
                record, end = _scan_once(line, 0)
            except (StopIteration, ValueError, RecursionError):
                end = None
            if end != len(line):
                record = _loads(line, f"{path}:{line_number}")
            if not isinstance(record, dict):
                raise ConfigurationError(
                    f"{path}:{line_number}: expected a JSON object, got {type(record).__name__}"
                )
            try:
                row = _record(
                    record["id"], record["text"], record.get("label"),
                    record.get("split", "train_unlabeled"),
                )
            except KeyError as exc:
                raise ConfigurationError(f"{path}:{line_number}: missing field {exc}") from None
            except ValueError as exc:
                raise ConfigurationError(f"{path}:{line_number}: {exc}") from None
            doc_id = row[0]
            if doc_id in first_line:
                raise ConfigurationError(
                    f"{path}:{line_number}: duplicate document id {doc_id!r}, "
                    f"first at {path}:{first_line[doc_id]}"
                )
            first_line[doc_id] = line_number
            rows.append(row)
        if not rows:
            raise ConfigurationError(f"{path}: corpus is empty")
        # every row has passed the record rule and its id is unique
        corpus = cls.__new__(cls)
        corpus._rows = rows
        return corpus

    def to_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for doc_id, text, label, split in self._rows:
                record: dict = {"id": doc_id, "text": text, "split": split}
                if label is not None:
                    record["label"] = label
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
        words = [line for _, line in _stripped_lines(path)]
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
    documents, the threshold :func:`build_vectorizer` takes.  The idf is
    log((1 + N) / (1 + df)) + 1, which keeps all weights positive so
    cosines of non-negative vectors stay in [0, 1].
    """

    vocabulary: dict[str, int]
    document_frequency: np.ndarray
    scheme: str
    n_documents: int

    @property
    def size(self) -> int:
        return len(self.vocabulary)

    def _idf(self) -> np.ndarray:
        return np.log((1.0 + self.n_documents) / (1.0 + self.document_frequency)) + 1.0

    def transform(self, texts: Sequence[str]) -> np.ndarray:
        """Row-per-text term matrix under the configured scheme.

        Documents are counted in blocks of 512 rows (``_ROW_BLOCK``).  Each
        block is tokenized by one split of its documents joined with a
        ``|`` token between them (:func:`_joined_tokens`), and its tokens
        are mapped to columns once: unknown tokens go to spare column
        ``size`` and separators to spare column ``size + 1``.  A token's
        row is the count of separators up to it, taken by one ``cumsum``,
        and the block's (row, column) cells go through one ``np.bincount``;
        the spare columns are dropped.  The counts are exact integers, so the
        matrix equals a per-token loop's; the block bounds the scratch
        memory to one block's tokens and counts.  The idf is applied to the
        whole matrix afterwards.
        """
        size = self.size
        separator = size + 1
        width = size + 2
        matrix = np.empty((len(texts), size))
        column_of = {**self.vocabulary, "|": separator}.get
        for start in range(0, len(texts), _ROW_BLOCK):
            block = texts[start:start + _ROW_BLOCK]
            rows = len(block)
            tokens = _joined_tokens(block)
            columns = np.fromiter(
                map(column_of, tokens, repeat(size)), dtype=np.int64, count=len(tokens)
            )
            cells = np.cumsum(columns == separator) * width + columns
            counts = np.bincount(cells, minlength=rows * width).reshape(rows, width)
            matrix[start:start + rows] = counts[:, :size]
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


def build_vectorizer(texts, scheme: str = "tf_idf", min_doc_freq: int = 1) -> Vectorizer:
    """Fit the vocabulary and document frequencies on a slice of texts."""
    if scheme not in ("tf", "tf_idf"):
        raise ConfigurationError(f"scheme must be 'tf' or 'tf_idf', got {scheme!r}")
    if not texts:
        raise ConfigurationError("cannot build a vectorizer from an empty corpus")
    df: dict[str, int] = {}
    for text in texts:
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
        n_documents=len(texts),
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
    matrix: np.ndarray,
    vectorizer: Vectorizer,
    tau: float,
    hidden_labels: Optional[Sequence[Optional[int]]] = None,
) -> tuple[SampleSet, SampleSet]:
    """Split the rows of ``matrix``, texts transformed by ``vectorizer``,
    at cosine(text, keywords) > tau.

    ``hidden_labels``, aligned with the rows, ride along for purity
    accounting when none of them is None.  Raises when the labels and the
    rows differ in length, when the keywords miss the vocabulary entirely
    or when either side of the split comes out empty.
    """
    check_tau(tau)
    if len(matrix) == 0:
        raise ConfigurationError("no documents to pseudo-label")
    if hidden_labels is not None and len(hidden_labels) != len(matrix):
        raise ValueError(f"{len(hidden_labels)} hidden labels for {len(matrix)} texts")
    keyword_vec = vectorizer.keyword_vector(keywords.words)
    overlap = int(np.count_nonzero(keyword_vec))
    if overlap == 0:
        raise ConfigurationError(
            "keywords share no tokens with the vectorizer vocabulary"
        )
    cosines = _cosine_rows(matrix, keyword_vec)
    mask = cosines > tau
    if not mask.any() or mask.all():
        side = "pseudo-positive" if not mask.any() else "pseudo-negative"
        raise DegenerateSplitError(
            f"tau={tau} leaves the {side} side empty; adjust the threshold"
        )
    labels = None
    if hidden_labels is not None and None not in hidden_labels:
        labels = np.array(hidden_labels, dtype=int)
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

    def __post_init__(self) -> None:
        if self.threshold_method not in THRESHOLD_METHODS:
            raise ConfigurationError(f"unknown threshold method {self.threshold_method!r}")
        if self.threshold_method == "breakeven_known_prior" and self.known_prior is None:
            raise ConfigurationError(
                "breakeven thresholding needs known_prior in the pipeline config"
            )


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

    The vectorizer is fit on the training slice only; each slice is then
    transformed once with the fitted vocabulary.  All three slices are
    read from the corpus as text and label lists (``Corpus.columns``), so
    no ``Document`` is built.  A non-symmetric
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

    train_texts, train_labels = corpus.columns("train_unlabeled")
    validation_texts, _ = corpus.columns("validation_unlabeled")
    test_texts, test_labels = corpus.columns("test_labeled")
    if not train_texts:
        raise ConfigurationError("corpus has no train_unlabeled documents")

    vectorizer = build_vectorizer(train_texts, config.scheme, config.min_doc_freq)
    train_matrix = vectorizer.transform(train_texts)
    pseudo_pos, pseudo_neg = pseudo_label(
        keywords, train_matrix, vectorizer, config.tau, train_labels
    )

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
        threshold = default_threshold(scorer(
            vectorizer.transform(validation_texts) if validation_texts else train_matrix
        ))
    else:
        if not validation_texts:
            raise ConfigurationError(
                "threshold selection needs validation_unlabeled documents"
            )
        validation_scores = scorer(vectorizer.transform(validation_texts))
        if config.threshold_method == "breakeven_known_prior":
            threshold = select_threshold(validation_scores, config.known_prior)
        else:
            threshold = heuristic_threshold(
                len(pseudo_pos), len(train_texts), validation_scores
            )
    del train_matrix  # not held through the test slice's transform

    test_metrics = None
    test_auc = None
    if test_texts:
        test_matrix = vectorizer.transform(test_texts)
        test_scores = scorer(test_matrix)
        truth = np.array(test_labels, dtype=int)
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
