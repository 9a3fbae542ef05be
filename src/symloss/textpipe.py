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
from dataclasses import asdict, dataclass
from functools import cached_property
from itertools import compress
from typing import Iterable, Optional, Sequence

import numpy as np

from .distributions import SampleSet
from .errors import ConfigurationError, DegenerateSplitError, cannot_read, not_utf8
from .losses import get_loss
from .risks import auc_score, classification_metrics
from .threshold import THRESHOLD_METHODS, classify_scores, select_threshold
from .training import Scorer, TrainConfig, train_auc

__all__ = [
    "Corpus",
    "KeywordSet",
    "Vectorizer",
    "PipelineConfig",
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
# documents counted per bincount in Vectorizer.transform, and transformed and
# scored per block by _score_texts; bounds both one's scratch memory.  Keep it a
# multiple of 4: blocks of 2, 3, 5 or 7 rows change a linear score's last bits
_ROW_BLOCK = 256
# _LOW_BYTES[k] keeps the low k bytes of a uint64
_LOW_BYTES = np.array([(1 << 8 * k) - 1 for k in range(9)], dtype=np.uint64)
# json.loads without its leading-BOM and trailing-data checks, nor raw_decode's
# wrapper; it raises StopIteration where no value starts
_scan_once = json.JSONDecoder().scan_once


def tokenize(text: str) -> list[str]:
    """Lowercase and split on runs of characters outside [0-9a-z].

    The text goes through the token byte rule (:func:`_token_bytes`), and a
    whitespace split cuts the tokens.
    """
    return _token_bytes(text).decode("ascii").split()


def _token_bytes(text: str) -> bytes:
    """The token byte rule: the lowered text encoded to ASCII with every other
    code point as ``?``, then each byte outside [0-9a-z] translated to a space.
    A token is a run of non-space bytes, so it never holds a space or a NUL."""
    return text.lower().encode("ascii", "replace").translate(_ASCII_TOKEN_BYTES)


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
    try:
        # the constant itself, so the split column of a corpus shares three strings
        split = SPLITS[SPLITS.index(split)]
    except ValueError:
        raise ValueError(f"split must be one of {SPLITS}, got {split!r}") from None
    if split == "test_labeled" and label is None:
        raise ValueError(f"test document {doc_id!r} is missing its label")
    return doc_id, text, label, split


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
    except OSError as exc:
        raise cannot_read(path, exc) from None


def _loads(line: str, where: str):
    """``json.loads(line)``; its complaint is a ConfigurationError naming ``where``."""
    try:
        return json.loads(line)
    except (ValueError, RecursionError) as exc:
        raise ConfigurationError(f"{where}: invalid JSON ({exc})") from None


class Corpus:
    """Documents tagged with purpose splits; test documents carry labels.

    The corpus stores its records' normalized fields as four parallel
    columns (ids, texts, labels, splits), in the order given, so it holds
    no object per record beyond the fields themselves; ``rows`` builds the
    ``(id, text, label, split)`` tuples on demand.  ``Corpus(records)``
    takes ``(id, text[, label[, split]])`` tuples and passes each through
    the record rule (:func:`_record`), as :meth:`from_jsonl` does its
    lines; everything downstream reads a split's texts and labels
    (``columns``).
    """

    def __init__(self, records: Iterable[tuple]) -> None:
        self._columns = ids, texts, labels, splits = [], [], [], []
        for record in records:
            doc_id, text, label, split = _record(*record)
            ids.append(doc_id)
            texts.append(text)
            labels.append(label)
            splits.append(split)
        if len(set(ids)) != len(ids):
            raise ValueError("document ids must be unique")

    @property
    def rows(self) -> list[tuple[str, str, Optional[int], str]]:
        return list(zip(*self._columns))

    def columns(self, tag: str) -> tuple[list[str], list[Optional[int]]]:
        """The texts and the labels of the ``tag`` split, in corpus order."""
        if tag not in SPLITS:
            raise ValueError(f"unknown split {tag!r}")
        _, texts, labels, splits = self._columns
        kept = [split == tag for split in splits]
        return list(compress(texts, kept)), list(compress(labels, kept))

    def __len__(self) -> int:
        return len(self._columns[0])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Corpus):
            return NotImplemented
        return self._columns == other._columns

    @classmethod
    def from_jsonl(cls, path) -> "Corpus":
        """Read one record per non-blank line; a bad record, a field other
        than ``id``, ``text``, ``label`` and ``split``, or an id seen on an
        earlier line (the integer 7 and the string "7" are one id), is a
        ConfigurationError naming ``path:line``.

        Each stripped line is decoded by one call of the JSON scanner
        (``scan_once``), which must consume the whole line, so a line is
        accepted exactly when ``json.loads`` accepts it alone, and an
        object split across two lines is rejected at its first.  A line the
        scanner rejects goes to ``json.loads`` for the message (it alone
        names a leading BOM).  An integer past Python's digit limit and
        nesting past its recursion limit are invalid JSON too, and bytes
        that are not UTF-8 name the first line that does not decode.  The
        ``path:line`` text is formatted only for a rejected line.

        Each record passes the record rule (:func:`_record`), and its length
        must be the count of the four fields it holds; the unknown field is
        named only for a rejected line.  Its normalized fields are appended
        to the four columns.
        """
        # filled here, not by __init__: the loop checks each record and its id
        corpus = cls.__new__(cls)
        corpus._columns = ids, texts, labels, splits = [], [], [], []
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
                doc_id, text, label, split = _record(
                    record["id"], record["text"], record.get("label"),
                    record.get("split", "train_unlabeled"),
                )
            except KeyError as exc:
                raise ConfigurationError(f"{path}:{line_number}: missing field {exc}") from None
            except ValueError as exc:
                raise ConfigurationError(f"{path}:{line_number}: {exc}") from None
            # id and text are present: a longer record holds a field besides the four
            if len(record) != 2 + ("label" in record) + ("split" in record):
                field = next(key for key in record if key not in ("id", "text", "label", "split"))
                raise ConfigurationError(f"{path}:{line_number}: unknown field {field!r}")
            if doc_id in first_line:
                raise ConfigurationError(
                    f"{path}:{line_number}: duplicate document id {doc_id!r}, "
                    f"first at {path}:{first_line[doc_id]}"
                )
            first_line[doc_id] = line_number
            ids.append(doc_id)
            texts.append(text)
            labels.append(label)
            splits.append(split)
        if not ids:
            raise ConfigurationError(f"{path}: corpus is empty")
        return corpus

    def to_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for doc_id, text, label, split in zip(*self._columns):
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


def _token_columns(texts: Sequence[str], column_of, unknown: int) -> np.ndarray:
    """``column_of(token, unknown)`` for each token of the texts, with a ``|``
    token between two texts (see :meth:`Vectorizer.transform`).  The scratch
    arrays are freed on return, before the next block's exist."""
    # a space before and 8 after: every token is bounded by spaces, and 8 bytes
    # can be read where any token starts
    joined = b"".join((b" ", b" | ".join([_token_bytes(text) for text in texts]), b" " * 8))
    buffer = np.frombuffer(joined, dtype=np.uint8)
    edges = np.flatnonzero(np.diff(buffer != 0x20)) + 1
    starts, stops = edges[0::2], edges[1::2]
    lengths = stops - starts
    # the 8 bytes from each token start as one little-endian integer
    keys = np.ndarray((len(buffer) - 7,), dtype="<u8", buffer=buffer, strides=(1,))[starts]
    keys &= _LOW_BYTES[np.minimum(lengths, 8)]
    distinct, inverse = np.unique(keys, return_inverse=True)
    # an S8 item drops its trailing NULs, so a key of at most 8 bytes becomes its token
    columns = np.array(
        [column_of(word, unknown) for word in distinct.view("S8").tolist()], dtype=np.int64
    )[inverse]
    longer = np.flatnonzero(lengths > 8)
    columns[longer] = [
        column_of(joined[a:b], unknown)
        for a, b in zip(starts[longer].tolist(), stops[longer].tolist())
    ]
    return columns


@dataclass(eq=False)
class Vectorizer:
    """Bag-of-words vectorizer: a vocabulary and, under tf-idf, its column
    weights ``idf`` (None under tf).

    :func:`build_vectorizer` fits both.  Vocabulary order is (document
    frequency descending, token ascending), restricted to tokens appearing
    in at least ``min_doc_freq`` fit documents.  The idf is
    log((1 + N) / (1 + df)) + 1 over the N fit documents, which keeps all
    weights positive so cosines of non-negative vectors stay in [0, 1].
    """

    vocabulary: dict[str, int]
    idf: Optional[np.ndarray]

    @property
    def size(self) -> int:
        return len(self.vocabulary)

    @cached_property
    def _by_bytes(self) -> dict[bytes, int]:
        """The vocabulary's columns by word bytes, and spare column
        ``size + 1`` for ``|``; built on the first transform."""
        # a word outside ASCII gets a ``?``, which no token holds
        by_bytes = {
            word.encode("ascii", "replace"): column for word, column in self.vocabulary.items()
        }
        by_bytes[b"|"] = self.size + 1
        return by_bytes

    def transform(self, texts: Sequence[str]) -> np.ndarray:
        """Row-per-text term matrix: counts, times ``idf`` when it is set.

        Documents are counted in blocks of 256 rows (``_ROW_BLOCK``), and no
        per-token Python object is made.  A block's documents pass the token
        byte rule (:func:`_token_bytes`) and are joined with a ``|`` token
        between them; tokens start and stop where the bytes change between
        space and non-space.  A token's word key is its first 8 bytes read as
        one little-endian integer and masked to its length, which is the
        token itself when it is at most 8 bytes long, as no token holds a NUL.
        The block's distinct keys are looked up once each, by their bytes, in
        a dict of the vocabulary's words and ``|`` (built once per vectorizer),
        and mapped back to the tokens; a token longer than 8 bytes is looked
        up alone by its bytes.
        Unknown tokens go to spare column ``size`` and separators to spare
        column ``size + 1``.  A token's row is the count of separators up to
        it, taken by one ``cumsum``, and the block's (row, column) cells go
        through one ``np.bincount``; the spare columns are dropped.  The
        counts are exact integers, so the matrix equals a per-token loop's;
        the block bounds the scratch memory.  The idf is applied afterwards.
        """
        size = self.size
        separator = size + 1
        width = size + 2
        matrix = np.empty((len(texts), size))
        column_of = self._by_bytes.get
        for start in range(0, len(texts), _ROW_BLOCK):
            block = texts[start:start + _ROW_BLOCK]
            rows = len(block)
            columns = _token_columns(block, column_of, size)
            cells = np.cumsum(columns == separator) * width + columns
            counts = np.bincount(cells, minlength=rows * width).reshape(rows, width)
            matrix[start:start + rows] = counts[:, :size]
        if self.idf is not None:
            matrix *= self.idf
        return matrix


def build_vectorizer(texts, scheme: str = "tf_idf", min_doc_freq: int = 1) -> Vectorizer:
    """Fit the vocabulary and, under ``tf_idf``, its idf on a slice of texts."""
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
            f"no token is in at least min_doc_freq = {min_doc_freq} documents; vocabulary is empty"
        )
    kept.sort(key=lambda item: (-item[1], item[0]))
    vocabulary = {token: index for index, (token, _) in enumerate(kept)}
    if scheme == "tf":
        return Vectorizer(vocabulary, None)
    frequencies = np.array([count for _, count in kept], dtype=float)
    return Vectorizer(vocabulary, np.log((1.0 + len(texts)) / (1.0 + frequencies)) + 1.0)


def _score_texts(vectorizer: Vectorizer, scorer: Scorer, texts: Sequence[str]) -> np.ndarray:
    """``scorer(vectorizer.transform(texts))``, transformed and scored
    ``_ROW_BLOCK`` rows at a time, so no (len(texts), size) matrix is held.

    A lone last row joins the block before it: numpy scores a one-row matrix
    by a dot product, whose summation order differs from BLAS's matrix-vector
    product.  So a linear scorer's scores equal whole-matrix scoring bit for
    bit, while an ``mlp`` scorer's matrix product rounds per block.
    """
    stops = list(range(_ROW_BLOCK, len(texts), _ROW_BLOCK))
    if stops and stops[-1] == len(texts) - 1:
        stops.pop()
    scores = np.empty(len(texts))
    for start, stop in zip([0, *stops], [*stops, len(texts)]):
        scores[start:stop] = scorer(vectorizer.transform(texts[start:stop]))
    return scores


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
    # keywords arrive as a set and carry no counts, so their vector is an
    # unweighted indicator over the vocabulary whatever the document scheme
    vocabulary = vectorizer.vocabulary
    keyword_vec = np.zeros(vectorizer.size)
    keyword_vec[[vocabulary[word] for word in keywords.words if word in vocabulary]] = 1.0
    if not keyword_vec.any():
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
    pos = SampleSet(matrix[mask], None if labels is None else labels[mask])
    neg = SampleSet(matrix[~mask], None if labels is None else labels[~mask])
    return pos, neg


@dataclass
class PipelineConfig:
    """Settings for the keywords-to-classifier pipeline: each field but
    ``train`` is the ``[corpus]`` key of its name.  A breakeven config needs ``prior``."""

    train: TrainConfig
    tau: float = 0.15
    scheme: str = "tf_idf"
    min_doc_freq: int = 1
    threshold_method: str = "breakeven_known_prior"
    prior: Optional[float] = None

    def __post_init__(self) -> None:
        if self.threshold_method not in THRESHOLD_METHODS:
            raise ConfigurationError(f"unknown threshold method {self.threshold_method!r}")
        if self.threshold_method == "breakeven_known_prior" and self.prior is None:
            raise ConfigurationError(
                "breakeven thresholding needs the known positive-class prior; "
                "set it, or pick another threshold_method"
            )


def run_pipeline(corpus: Corpus, keywords: KeywordSet, config: PipelineConfig) -> dict:
    """Pseudo-label, train the ranker, pick a threshold, evaluate.

    The threshold is picked in one :func:`select_threshold` call on the
    validation scores (the train scores for ``default_zero`` without them;
    other methods fail before vectorizing), given the known prior, the
    train split's pseudo-positive fraction or no prior, by method.

    The result is the run's ``report.json`` object: the pseudo-split sizes,
    the measured proportions ``empirical_pi_pos`` and ``empirical_pi_neg``
    (None without hidden labels), the ``threshold``, the ``test_metrics``
    (a metric listed as undefined is None, not NaN) and ``test_auc`` (None
    without test documents of both classes), the ``warnings`` and the
    ``scorer``'s kind, dimension and parameters.

    The vectorizer is fit on the training slice only; each slice is then
    transformed once with the fitted vocabulary.  Only the training slice
    is held as a matrix: validation and test are transformed and scored in
    256-row blocks (:func:`_score_texts`), so each costs O(256 * vocabulary)
    memory beyond the corpus columns.  All three slices are read from the
    corpus as text and label lists (``Corpus.columns``).
    A non-symmetric training loss is allowed (for comparison experiments)
    but warned about, since the noisy-split guarantee needs symmetry.
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
    if not validation_texts and config.threshold_method != "default_zero":
        raise ConfigurationError("threshold selection needs validation_unlabeled documents")

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

    method = config.threshold_method
    if validation_texts:
        scores = _score_texts(vectorizer, scorer, validation_texts)
    else:
        scores = scorer(train_matrix)
    prior = {
        "breakeven_known_prior": config.prior,
        "heuristic_pseudo_ratio": len(pseudo_pos) / len(train_texts),
    }.get(method)
    threshold = select_threshold(scores, prior, method)
    del train_matrix  # not held through the test slice's transform

    test_metrics = None
    test_auc = None
    if test_texts:
        test_scores = _score_texts(vectorizer, scorer, test_texts)
        truth = np.array(test_labels, dtype=int)
        predicted = classify_scores(test_scores, threshold.beta)
        metrics = classification_metrics(predicted, truth)
        test_metrics = {
            key: None if key in metrics["undefined"] else value for key, value in metrics.items()
        }
        if (truth == 1).any() and (truth == -1).any():
            test_auc = auc_score(test_scores[truth == 1], test_scores[truth == -1])

    return {
        "n_pseudo_pos": len(pseudo_pos),
        "n_pseudo_neg": len(pseudo_neg),
        "empirical_pi_pos": pi_pos,
        "empirical_pi_neg": pi_neg,
        "threshold": asdict(threshold),
        "test_metrics": test_metrics,
        "test_auc": test_auc,
        "warnings": notes,
        "scorer": {
            "kind": scorer.kind,
            "dimension": scorer.dimension,
            "parameters": [float(p) for p in scorer.params],
        },
    }
