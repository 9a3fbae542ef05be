"""Vectorization, pseudo-labeling, and the end-to-end keyword pipeline."""

import gc
import json
import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
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
import symloss.textpipe
from symloss.textpipe import (
    SPLITS,
    Corpus,
    KeywordSet,
    PipelineConfig,
    build_vectorizer,
    pseudo_label,
    run_pipeline,
    tokenize,
)
from symloss.training import Scorer, TrainConfig, train_auc


@pytest.fixture(scope="module")
def bundled():
    return load_mini_corpus(), load_keywords()


def regex_tokenize(text):
    """Oracle: the tokenizer's rule as one regex split."""
    return [token for token in re.split(r"[^0-9a-z]+", text.lower()) if token]


def loop_transform(vectorizer, texts, scheme, fit_texts):
    """Oracle: the per-token counting loop that ``Vectorizer.transform``
    replaced, weighted under ``tf_idf`` by the smoothed idf of the vocabulary's
    document frequencies, counted here over the ``fit_texts``."""
    matrix = np.zeros((len(texts), vectorizer.size))
    for row, text in enumerate(texts):
        for token in regex_tokenize(text):
            column = vectorizer.vocabulary.get(token)
            if column is not None:
                matrix[row, column] += 1.0
    if scheme == "tf_idf":
        df = np.zeros(vectorizer.size)
        for text in fit_texts:
            for token in set(regex_tokenize(text)):
                if token in vectorizer.vocabulary:
                    df[vectorizer.vocabulary[token]] += 1.0
        matrix *= np.log((1.0 + len(fit_texts)) / (1.0 + df)) + 1.0
    return matrix


def _read_record(line, where):
    """Oracle: one JSONL record by ``json.loads``, as the reader did before
    ``Corpus.from_jsonl`` moved to one ``raw_decode`` per line, checked by
    the record rule through a one-record ``Corpus``, then for a field
    besides the four."""
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{where}: invalid JSON ({exc})") from None
    if not isinstance(record, dict):
        raise ConfigurationError(f"{where}: expected a JSON object, got {type(record).__name__}")
    try:
        doc_id, text = record["id"], record["text"]
    except KeyError as exc:
        raise ConfigurationError(f"{where}: missing field {exc}") from None
    fields = (doc_id, text, record.get("label"), record.get("split", "train_unlabeled"))
    try:
        row = Corpus([fields]).rows[0]
    except ValueError as exc:
        raise ConfigurationError(f"{where}: {exc}") from None
    unknown = [key for key in record if key not in ("id", "text", "label", "split")]
    if unknown:
        raise ConfigurationError(f"{where}: unknown field {unknown[0]!r}")
    return row


def loop_read(path):
    """Oracle: the per-line ``json.loads`` loop that ``Corpus.from_jsonl`` replaced."""
    rows = []
    first_line = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_number, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            row = _read_record(line, f"{path}:{line_number}")
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
    return Corpus(rows)


def read_outcome(reader, path):
    """The corpus a reader returns, or the text of the ConfigurationError it raises."""
    try:
        return reader(path)
    except ConfigurationError as exc:
        return str(exc)


_CHARS = st.characters(blacklist_categories=("Cs",))
_GOOD_RECORDS = st.fixed_dictionaries(
    {
        "id": st.text("ab7", min_size=1, max_size=3) | st.integers(0, 99),
        "text": st.text(_CHARS, max_size=8),
    },
    optional={"label": st.sampled_from([1, -1]), "split": st.sampled_from(SPLITS[:2])},
)
# every field present or not, each with good and bad values
_ANY_RECORDS = st.fixed_dictionaries({}, optional={
    "id": st.sampled_from(["a", "7", 7, 1.5, True, None, ["a"]]),
    "text": st.sampled_from(["x y", "", 7, None, ["x"]]),
    "label": st.sampled_from([1, -1, 1.0, 2, 0.5, True, None, "pos"]),
    "split": st.sampled_from([*SPLITS, "trian", None]),
    "splt": st.sampled_from(["test_labeled", None]),
})
_PADDING = st.sampled_from(["", " ", "\t", "\u00a0", "\u2003", "\r", "\x0c"])
_GOOD_LINES = st.builds(json.dumps, _GOOD_RECORDS, ensure_ascii=st.booleans())
_CLEAN_LINES = st.tuples(_PADDING, _GOOD_LINES, _PADDING).map("".join) | _PADDING
_DEFECT_LINES = st.one_of(
    st.builds(json.dumps, _ANY_RECORDS, ensure_ascii=st.booleans()),
    st.tuples(_GOOD_LINES, st.integers(0, 40)).map(lambda cut: cut[0][:cut[1]]),
    st.tuples(_GOOD_LINES, st.sampled_from([" ", ", ", ""]), _GOOD_LINES).map("".join),
    st.builds(json.dumps, st.lists(st.integers(), max_size=2) | st.text(_CHARS, max_size=3)
              | st.none() | st.integers() | st.floats(allow_nan=False)),
    st.sampled_from(["\ufeff", "{", "}", "nul", "[1] [2]"]),
    _GOOD_LINES.map("\ufeff".__add__),
)


def _insert(lines, at, line):
    return lines if line is None else [*lines[:at], line, *lines[at:]]


# clean corpora, and clean corpora with one defect line
_JSONL = st.builds(
    _insert, st.lists(_CLEAN_LINES, max_size=8), st.integers(0, 8), st.none() | _DEFECT_LINES
)
# records with unique ids, each a string or an integer; a test record always
# has a label
_RECORDS = st.lists(
    st.builds(
        lambda doc_id, text, labeled: (doc_id, text, *labeled),
        st.text("ab7", min_size=1, max_size=3) | st.integers(0, 99),
        st.text(_CHARS, max_size=8),
        st.sampled_from([
            (None, "train_unlabeled"), (1, "train_unlabeled"), (None, "validation_unlabeled"),
            (-1, "validation_unlabeled"), (1, "test_labeled"), (-1, "test_labeled"),
        ]),
    ),
    max_size=8,
    unique_by=lambda record: str(record[0]),
)


class TestTokenize:
    def test_lowercase_and_split(self):
        assert tokenize("Hello, World! x2") == ["hello", "world", "x2"]

    def test_empty(self):
        assert tokenize("...!?") == []

    @given(st.text() | st.text(st.characters(max_codepoint=127)))
    @example("\u212a")  # Kelvin sign: lowercases to an ASCII k
    @example("\u212aelvin \u0130stanbul")  # dotted capital I: lowercases to i + U+0307
    @example("\uff11\uff12 3\u00b2")  # full-width and superscript digits are not [0-9]
    @example("a\u00a0b\u2003c")  # no-break and em spaces
    @example("tab\tsplit\x0bvertical\x1cfile")
    @example("ab\ud800cd?ef")  # a lone surrogate and a literal ?: both separators
    @example("")
    @settings(max_examples=300, deadline=None)
    def test_equals_the_regex_oracle(self, text):
        assert tokenize(text) == regex_tokenize(text)

    def test_non_ascii_splits_by_the_same_rule(self):
        assert tokenize("\u212aelvin \u0130stanbul caf\u00e9 \uff11") == [
            "kelvin", "i", "stanbul", "caf"
        ]


class TestCorpus:
    def test_unique_ids_enforced(self):
        with pytest.raises(ValueError, match="unique"):
            Corpus([("a", "x"), ("a", "y")])

    def test_test_split_needs_labels(self):
        with pytest.raises(ValueError, match="label"):
            Corpus([("a", "x", None, "test_labeled")])

    @given(_RECORDS)
    @settings(max_examples=100, deadline=None)
    def test_store_gives_back_its_documents(self, tmp_path_factory, records):
        corpus = Corpus(records)
        rows = [(str(doc_id), *fields) for doc_id, *fields in records]
        assert len(corpus) == len(records)
        assert corpus.rows == rows
        for tag in SPLITS:
            kept = [row for row in rows if row[3] == tag]
            assert corpus.columns(tag) == ([row[1] for row in kept], [row[2] for row in kept])
        if records:
            path = tmp_path_factory.mktemp("jsonl") / "corpus.jsonl"
            corpus.to_jsonl(path)
            assert Corpus.from_jsonl(path) == corpus

    def test_holds_no_object_per_record(self, tmp_path):
        records = [(f"doc{i}", "x y", 1 - 2 * (i % 2), SPLITS[i % 3]) for i in range(2000)]
        path = tmp_path / "corpus.jsonl"
        Corpus(records).to_jsonl(path)
        gc.collect()
        gc.disable()
        try:
            before = len(gc.get_objects())
            read = Corpus.from_jsonl(path)
            after_read = len(gc.get_objects())
            built = Corpus(records)
            after_build = len(gc.get_objects())
        finally:
            gc.enable()
        # a handful of containers, not one tuple per record
        assert after_read - before < 50
        assert after_build - after_read < 50
        assert read == built

    def test_rows_is_a_fresh_list(self):
        corpus = Corpus([("a", "x"), ("b", "y", -1, "test_labeled")])
        rows = corpus.rows
        assert rows is not corpus.rows
        rows.append(("c", "z", None, "train_unlabeled"))
        del rows[0]
        assert corpus.rows == [("a", "x", None, "train_unlabeled"), ("b", "y", -1, "test_labeled")]
        assert len(corpus) == 2

    def test_unknown_split_is_named(self):
        corpus = Corpus([("a", "x")])
        with pytest.raises(ValueError, match="unknown split 'trian'"):
            corpus.columns("trian")

    def test_every_row_shares_a_split_constant(self, tmp_path, bundled):
        corpus, _ = bundled
        path = tmp_path / "corpus.jsonl"
        corpus.to_jsonl(path)
        built = "".join(["validation", "_unlabeled"])  # equal to the constant, not it
        assert built is not SPLITS[1]
        for rows in (Corpus.from_jsonl(path).rows, Corpus([("a", "x", None, built)]).rows):
            assert all(any(row[3] is tag for tag in SPLITS) for row in rows)

    def test_jsonl_round_trip(self, tmp_path, bundled):
        corpus, _ = bundled
        path = tmp_path / "corpus.jsonl"
        corpus.to_jsonl(path)
        again = Corpus.from_jsonl(path)
        assert len(again) == len(corpus)
        assert again.rows[0] == corpus.rows[0]

    @pytest.mark.parametrize(
        "record, message",
        [
            ('{"text": "a b"}', "missing field 'id'"),
            ('{"id": "x"}', "missing field 'text'"),
            ('{"id": "x", "text": "a b", "label": "pos"}', "label must be"),
            ('{"id": "x", "text": "a b", "label": 1.9}', "label must be +1 or -1, got 1.9"),
            ('{"id": "x", "text": "a b", "label": -1.2}', "label must be +1 or -1, got -1.2"),
            ('{"id": "x", "text": "a b", "label": true}', "label must be +1 or -1, got True"),
            ('{"id": "x", "text": "a b", "split": "trian"}', "split must be one of"),
            ('["x", "a b"]', "expected a JSON object"),
            ('{"id": "x", "text": null}', "text must be a string, got NoneType"),
            ('{"id": "x", "text": ["a", "b"]}', "text must be a string, got list"),
            ('{"id": "x", "text": 7}', "text must be a string, got int"),
            ('{"id": null, "text": "a b"}', "id must be a string or an integer, got NoneType"),
            ('{"id": ["x"], "text": "a b"}', "id must be a string or an integer, got list"),
            ('{"id": 1.5, "text": "a b"}', "id must be a string or an integer, got float"),
            ('{"id": true, "text": "a b"}', "id must be a string or an integer, got bool"),
            ('{"id": "x", "text": "a b", "split": "test_labeled"}',
             "test document 'x' is missing its label"),
            ('{"id": ' + "1" * 5000 + ', "text": "a b"}',
             "invalid JSON (Exceeds the limit (4300 digits) for integer string conversion"),
            ("[" * 100_000, "invalid JSON (maximum recursion depth exceeded"),
            ('{"id": "x", "text": "a b", "splt": "test_labeled", "lable": 1}',
             "unknown field 'splt'"),
            ('{"id": "x", "text": "a b", "label": 1, "split": "test_labeled", "": 0}',
             "unknown field ''"),
        ],
        ids=["no-id", "no-text", "label-pos", "label-fraction", "label-negative-fraction",
             "label-true", "split-trian", "not-an-object", "text-null", "text-list",
             "text-number", "id-null", "id-list", "id-fraction", "id-true", "test-unlabeled",
             "integer-past-digit-limit", "nested-past-recursion-limit", "field-misspelled",
             "field-beside-all-four"],
    )
    def test_bad_record_names_path_and_line(self, tmp_path, record, message):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"id": "ok", "text": "a b"}\n' + record + "\n")
        with pytest.raises(ConfigurationError) as info:
            Corpus.from_jsonl(path)
        assert str(info.value).startswith(f"{path}:2: ")
        assert message in str(info.value)

    @given(_JSONL)
    @example(['{"id": "a", "text": "x"} {"id": "b", "text": "y"}'])
    @example(['{"id": "a", "text": "x"}, {"id": "b", "text": "y"}'])
    @example(['{"id": "a", "text": "x"}', '{"id": "b",', '"text": "y"}'])
    @example(['\ufeff{"id": "a", "text": "x"}', '{"id": "b", "text": "y"}'])
    @example(['\u00a0\u00a0{"id": "a", "text": "x"}\u00a0', '{"id": 7, "text": "y"}\u00a0'])
    @example(['{"id": "a", "text": "x"}', "", "  ", '{"id": "a", "text": "y"}'])
    @example(["", "\t"])
    # only file iteration's newlines split lines: a \r\n or a lone \r does;
    # U+2028, U+0085 and U+001C, which str.splitlines splits at, do not
    @example([
        '{"id": "a", "text": "x\u2028y\x85z"}\r',
        '\x1c{"id": "b", "text": "w"}\u2028\r{"id": "c", "text": "v\u2028"}\x85',
    ])
    @example(['{"id": "a", "text": "x"}', '{"id": "b", "text": "y\x1cz"}'])
    @example(['{"id": "a", "text": "x\ty"}'])  # a literal tab: the scanner's JSONDecodeError
    @example(['{"id": "a", "text": "x"}', '{"id": "b", "text": "y", "lable": 1}'])
    @example(['{"id": "a", "text": "x"}', '{"id": ' + "7" * 5000 + ', "text": "y"}'])
    @settings(max_examples=300, deadline=None)
    def test_equals_the_per_line_loads_loop(self, tmp_path_factory, lines):
        path = tmp_path_factory.mktemp("jsonl") / "corpus.jsonl"
        path.write_bytes("\n".join(lines).encode("utf-8"))
        outcome = read_outcome(Corpus.from_jsonl, path)
        try:
            assert outcome == read_outcome(loop_read, path)
        except ValueError as exc:
            # the loop leaves json.loads's error for an integer past the
            # digit limit unwrapped; the reader calls it invalid JSON
            assert re.fullmatch(
                rf"{re.escape(str(path))}:\d+: invalid JSON \({re.escape(str(exc))}\)", outcome
            )

    def test_integer_id_is_read_as_its_string(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"id": 7, "text": "a b"}\n')
        assert Corpus.from_jsonl(path).rows[0][0] == "7"

    @pytest.mark.parametrize(
        "first, again, doc_id",
        [('"a"', '"a"', "a"), ("7", '"7"', "7")],
        ids=["repeated-string", "integer-and-its-string"],
    )
    def test_duplicate_id_names_both_lines(self, tmp_path, first, again, doc_id):
        # 7 and "7" are one id: both load as "7"
        path = tmp_path / "corpus.jsonl"
        path.write_text(
            f'{{"id": {first}, "text": "a"}}\n{{"id": "b", "text": "b"}}\n\n'
            f'{{"id": {again}, "text": "c"}}\n'
        )
        with pytest.raises(ConfigurationError) as info:
            Corpus.from_jsonl(path)
        assert str(info.value) == (
            f"{path}:4: duplicate document id {doc_id!r}, first at {path}:1"
        )


class TestDocument:
    """A record given to ``Corpus`` passes the record rule, as a JSONL line does."""

    @pytest.mark.parametrize(
        "fields, message",
        [
            (("a", "x y", True, "test_labeled"), "label must be \\+1 or -1, got True"),
            (("a", None), "text must be a string, got NoneType"),
            ((None, "x"), "id must be a string or an integer, got NoneType"),
        ],
        ids=["label-true", "text-none", "id-none"],
    )
    def test_bad_field_rejected_at_construction(self, fields, message):
        with pytest.raises(ValueError, match=message):
            Corpus([fields])

    def test_integer_id_and_label_stored_as_str_and_int_and_read_back(self, tmp_path):
        corpus = Corpus([(7, "x y", np.int64(-1), "test_labeled"), ("b", "z", 1.0)])
        rows = corpus.rows
        assert rows == [("7", "x y", -1, "test_labeled"), ("b", "z", 1, "train_unlabeled")]
        assert [type(label) for _, _, label, _ in rows] == [int, int]
        path = tmp_path / "corpus.jsonl"
        corpus.to_jsonl(path)
        assert Corpus.from_jsonl(path) == corpus


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
        vec = build_vectorizer(["a b", "a c"], scheme="tf", min_doc_freq=2)
        assert set(vec.vocabulary) == {"a"}

    def test_min_doc_freq_one(self):
        vec = build_vectorizer(["a b", "a c"], scheme="tf", min_doc_freq=1)
        assert set(vec.vocabulary) == {"a", "b", "c"}
        # order: frequency descending, then token ascending
        assert vec.vocabulary["a"] == 0

    def test_empty_corpus_rejected(self):
        with pytest.raises(ConfigurationError, match="empty"):
            build_vectorizer([], scheme="tf")

    def test_unreachable_frequency_rejected(self):
        with pytest.raises(ConfigurationError, match="vocabulary is empty"):
            build_vectorizer(["a b", "c d"], scheme="tf", min_doc_freq=3)

    def test_deterministic_ordering(self):
        texts = ["b a", "a c b", "c b"]
        first = build_vectorizer(texts, scheme="tf")
        second = build_vectorizer(texts, scheme="tf")
        assert first.vocabulary == second.vocabulary

    def test_idf_by_hand(self):
        # a is in all 3 documents: log(4 / 4) + 1; b and c in one: log(4 / 2) + 1
        vec = build_vectorizer(["a b", "a c", "a"], scheme="tf_idf")
        assert vec.vocabulary == {"a": 0, "b": 1, "c": 2}
        np.testing.assert_allclose(vec.idf, [1.0, 1.0 + np.log(2.0), 1.0 + np.log(2.0)])
        np.testing.assert_allclose(
            vec.transform(["b a b", "z"]), [[1.0, 2.0 * (1.0 + np.log(2.0)), 0.0], [0.0] * 3]
        )

    def test_tf_keeps_raw_counts(self):
        vec = build_vectorizer(["a b", "a c", "a"], scheme="tf")
        assert vec.idf is None
        assert vec.transform(["b a b", "c c c", ""]).tolist() == [
            [1.0, 2.0, 0.0], [0.0, 0.0, 3.0], [0.0, 0.0, 0.0]
        ]


_WORDS = ("alpha", "Beta", "gamma", "delta", "x2", "42", "\u212a", "zeta", "caf\u00e9", "...")


# documents of vocabulary words and strangers, or arbitrary text
_TEXTS = st.lists(st.sampled_from(_WORDS), max_size=12).map(" ".join) | st.text(max_size=20)


_TOKEN = st.text(alphabet="0123456789abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=20)


@st.composite
def _long_token_texts(draw):
    """A vocabulary of up to 2,000 tokens of 1 to 20 bytes, and texts of its
    tokens and strangers, joined by bytes outside the token alphabet."""
    words = draw(st.lists(_TOKEN, min_size=1, max_size=2000, unique=True))
    token = st.sampled_from(words) | _TOKEN
    joiner = st.sampled_from([" ", "|", ", ", "\u00e9"])
    text = st.lists(st.tuples(token, joiner), max_size=30).map(
        lambda pairs: "".join(word + glue for word, glue in pairs)
    )
    return words, draw(st.lists(text, max_size=40))


_PREFIXED = ["abcdefgh", "abcdefghi", "abcdefghij"]


def _wide_vocabulary_texts():
    """A tf-idf vectorizer of 120 tokens and 5,000 short documents of its
    tokens and 40 strangers."""
    rng = np.random.default_rng(9)
    words = np.array([f"w{i}" for i in range(160)])
    vectorizer = build_vectorizer(
        [" ".join(words[i:i + 4]) for i in range(0, 120, 4)], scheme="tf_idf"
    )
    assert vectorizer.size == 120
    return vectorizer, [" ".join(rng.choice(words, size=8)) for _ in range(5000)]


class TestTransform:
    FIT = ["alpha beta gamma", "beta delta 42", "gamma K x2 beta", "alpha alpha zeta"]

    @given(
        st.lists(_TEXTS, max_size=40),
        st.sampled_from(["tf", "tf_idf"]),
        st.sampled_from([1, 3, 512]),
    )
    @example([], "tf", 512)
    @example(["omega !!", "", "\u0130"], "tf_idf", 512)
    @example(["alpha|beta", "|", "| gamma |", "||42||"], "tf", 512)  # | is a separator
    @example(["", "alpha", "", "", "beta x2", ""], "tf", 3)  # empty at block ends
    @example(["alpha beta", "gamma", "42", "", "", "", "zeta"], "tf_idf", 3)  # empty block
    @example(["", "alpha|alpha", "", "beta"], "tf", 1)
    @example(["", "", ""], "tf", 1)
    @settings(max_examples=200, deadline=None)
    def test_equals_the_per_token_loop(self, texts, scheme, block):
        vectorizer = build_vectorizer(self.FIT, scheme=scheme)
        with mock.patch.object(symloss.textpipe, "_ROW_BLOCK", block):
            matrix = vectorizer.transform(texts)
        expected = loop_transform(vectorizer, texts, scheme, self.FIT)
        assert matrix.shape == (len(texts), vectorizer.size)
        assert matrix.dtype == expected.dtype
        assert matrix.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("scheme", ["tf", "tf_idf"])
    def test_crosses_row_blocks_at_the_real_block_size(self, scheme):
        rng = np.random.default_rng(5)
        texts = [" ".join(rng.choice(_WORDS, size=int(rng.integers(0, 9)))) for _ in range(1100)]
        vectorizer = build_vectorizer(self.FIT, scheme=scheme)
        assert len(texts) > 2 * symloss.textpipe._ROW_BLOCK
        expected = loop_transform(vectorizer, texts, scheme, self.FIT)
        assert vectorizer.transform(texts).tobytes() == expected.tobytes()

    def test_scratch_memory_is_bounded_by_the_block(self):
        # counting every row in one bincount would need 5,000 * 121 int64
        # counts (4.8 MB) of scratch
        vectorizer, texts = _wide_vocabulary_texts()
        tracemalloc.start()
        try:
            matrix = vectorizer.transform(texts)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - matrix.nbytes < 2_000_000

    # a token of at most 8 bytes is looked up by its 8-byte key, a longer one by its bytes
    @given(_long_token_texts(), st.sampled_from(["tf", "tf_idf"]), st.sampled_from([1, 3, 256]))
    @example(
        (["abcdefgh", "abcdefghi", "abcdefghijklmnop", "abcdefghijklmnopq"],
         ["abcdefgh abcdefghi", "abcdefghijklmnop|abcdefghijklmnopq", "abcdefghijklmno"]),
        "tf", 256,
    )  # 8, 9, 16 and 17 bytes, and 15
    @example(
        (_PREFIXED, ["abcdefghij abcdefgh", "abcdefghi abcdefghijk abcdefg", "ABCDEFGHIJ"]),
        "tf_idf", 256,
    )  # one 8-byte prefix
    @example((["abcdefghi", "x"], ["abcdefgh abcdefghij abcdefghi"]), "tf", 1)  # prefix strangers
    @example((_PREFIXED, ["x" * 100_000, "abcdefgh " + "y" * 100_000 + " abcdefgh"]), "tf", 256)
    @example((_PREFIXED, ["abcdefghij abcdefghi", "abcdefghijk", "abcdefghi"]), "tf", 1)
    @example((["abcdefghijklmnopqrst"], ["abcdefghijklmnopqrst " * 3]), "tf", 256)  # only long
    @settings(max_examples=100, deadline=None)
    def test_long_tokens_equal_the_per_token_loop(self, words_and_texts, scheme, block):
        words, texts = words_and_texts
        vectorizer = build_vectorizer(words, scheme=scheme)
        with mock.patch.object(symloss.textpipe, "_ROW_BLOCK", block):
            matrix = vectorizer.transform(texts)
        assert matrix.tobytes() == loop_transform(vectorizer, texts, scheme, words).tobytes()


# 62 vocabulary words, so a one-row dot product and BLAS's matrix-vector
# product sum a row in different orders
_SCORED_WORDS = [f"v{i}" for i in range(62)]
_SCORED_TEXTS = st.lists(
    st.lists(st.sampled_from([*_SCORED_WORDS, "stranger"]), max_size=40).map(" ".join)
    | st.text(max_size=20),
    min_size=1, max_size=12,
)


def _random_texts(words, count, seed):
    """``count`` documents of 0 to 39 words drawn from ``words``."""
    rng = np.random.default_rng(seed)
    return [" ".join(rng.choice(words, size=int(rng.integers(0, 40)))) for _ in range(count)]


class TestScoreTexts:
    VECTORIZER = build_vectorizer(
        [" ".join(_SCORED_WORDS[i:i + 5]) for i in range(0, 62, 2)], scheme="tf_idf"
    )
    TEXTS = _random_texts([*_SCORED_WORDS, "stranger"], 600, seed=11)
    # without the lone-row fold these parameters change the score at n = 257 and 513
    LINEAR = Scorer("linear", 62, np.random.default_rng(13).normal(size=63))

    def test_scratch_memory_is_bounded_by_the_block(self):
        # the 5,000 * 120 tf-idf matrix alone would be 4.8 MB
        vectorizer, texts = _wide_vocabulary_texts()
        scorer = Scorer("linear", 120, np.random.default_rng(3).normal(size=121))
        tracemalloc.start()
        try:
            symloss.textpipe._score_texts(vectorizer, scorer, texts)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000

    # one block, a lone row after one or two full blocks, and its neighbours
    @pytest.mark.parametrize("n", [*range(0, 41), *range(250, 271), *range(508, 521)])
    def test_linear_scores_equal_the_whole_matrix(self, n):
        assert self.VECTORIZER.size == 62
        texts = self.TEXTS[:n]
        scores = symloss.textpipe._score_texts(self.VECTORIZER, self.LINEAR, texts)
        assert scores.tobytes() == self.LINEAR(self.VECTORIZER.transform(texts)).tobytes()

    @given(_SCORED_TEXTS, st.integers(1, 600))
    @example(["v0 v1 v2 v3 v4 v5"], 257)  # a lone row of six words
    @settings(max_examples=60, deadline=None)
    def test_drawn_texts_score_as_the_whole_matrix(self, drawn, n):
        texts = [drawn[i % len(drawn)] for i in range(n)]
        scores = symloss.textpipe._score_texts(self.VECTORIZER, self.LINEAR, texts)
        assert scores.tobytes() == self.LINEAR(self.VECTORIZER.transform(texts)).tobytes()

    @pytest.mark.parametrize("n", [1, 255, 256, 257, 258, 513, 600])
    def test_mlp_scores_round_per_block(self, n):
        # the hidden layer's matrix product rounds per block, not row by row
        scorer = Scorer.mlp(62, 8, np.random.default_rng(14))
        texts = self.TEXTS[:n]
        scores = symloss.textpipe._score_texts(self.VECTORIZER, scorer, texts)
        whole = scorer(self.VECTORIZER.transform(texts))
        bound = 8 * np.finfo(float).eps * np.max(np.abs(whole))
        assert scores.shape == whole.shape
        assert np.max(np.abs(scores - whole)) <= bound


class TestPseudoLabel:
    def test_hand_cosine(self):
        # doc tf vector (2, 1, 0) against indicator of {a}: 2/sqrt(5)
        vec = build_vectorizer(["a a b", "a b c"], scheme="tf")
        with pytest.raises(DegenerateSplitError):
            # cosine = 0.894 > 0.5, so everything is pseudo-positive
            pseudo_label(
                KeywordSet(("a",)), vec.transform(["a a b"]), vec, tau=0.5, hidden_labels=[1]
            )
        pos, neg = pseudo_label(
            KeywordSet(("a",)), vec.transform(["a a b", "c c"]), vec, tau=0.5,
            hidden_labels=[1, -1],
        )
        assert len(pos) == 1 and len(neg) == 1
        assert (pos.hidden_labels.tolist(), neg.hidden_labels.tolist()) == ([1], [-1])
        np.testing.assert_allclose(
            pos.points[0, vec.vocabulary["a"]], 2.0
        )

    def test_doc_without_keywords_is_negative(self):
        vec = build_vectorizer(["a b", "c d"], scheme="tf")
        pos, neg = pseudo_label(KeywordSet(("a",)), vec.transform(["a b", "c d"]), vec, tau=0.01)
        assert len(pos) == 1 and len(neg) == 1

    def test_one_missing_label_drops_them_all(self):
        vec = build_vectorizer(["a b", "c d"], scheme="tf")
        pos, neg = pseudo_label(
            KeywordSet(("a",)), vec.transform(["a b", "c d", "a c"]), vec, tau=0.01,
            hidden_labels=[1, None, -1],
        )
        assert (len(pos), len(neg)) == (2, 1)
        assert pos.hidden_labels is None and neg.hidden_labels is None

    def test_label_count_must_match_the_texts(self):
        vec = build_vectorizer(["a b", "c d"], scheme="tf")
        with pytest.raises(ValueError, match="^1 hidden labels for 2 texts$"):
            pseudo_label(
                KeywordSet(("a",)), vec.transform(["a b", "c d"]), vec, tau=0.01, hidden_labels=[1]
            )

    def test_no_vocabulary_overlap(self):
        vec = build_vectorizer(["a b", "a c"], scheme="tf")
        with pytest.raises(ConfigurationError, match="no tokens"):
            pseudo_label(KeywordSet(("zebra",)), vec.transform(["a b"]), vec, tau=0.1)

    def test_degenerate_split_names_tau(self):
        vec = build_vectorizer(["a b", "a c"], scheme="tf")
        with pytest.raises(DegenerateSplitError, match="tau=1.0"):
            pseudo_label(KeywordSet(("a",)), vec.transform(["a b", "a c"]), vec, tau=1.0)

    def test_partition_and_purity(self, bundled):
        corpus, keywords = bundled
        train, labels = corpus.columns("train_unlabeled")
        vec = build_vectorizer(train, "tf_idf", 1)
        pos, neg = pseudo_label(keywords, vec.transform(train), vec, tau=0.15, hidden_labels=labels)
        assert len(pos) + len(neg) == len(train)
        assert pos.positive_fraction > neg.positive_fraction

    def test_cosines_in_unit_interval(self, bundled):
        corpus, keywords = bundled
        train, _ = corpus.columns("train_unlabeled")
        vec = build_vectorizer(train, "tf_idf", 1)
        from symloss.textpipe import _cosine_rows

        keyword_vec = np.zeros(vec.size)
        keyword_vec[[vec.vocabulary[word] for word in keywords.words if word in vec.vocabulary]] = 1
        cosines = _cosine_rows(vec.transform(train), keyword_vec)
        assert np.all(cosines >= 0.0) and np.all(cosines <= 1.0)


class TestBundledAssets:
    def test_regeneration_matches_bundle(self, bundled):
        corpus, keywords = bundled
        regenerated, regen_keywords = generate_mini_corpus(seed=MINI_CORPUS_SEED)
        assert regen_keywords.words == keywords.words
        assert len(regenerated) == len(corpus) == 400
        assert regenerated == corpus

    def test_split_sizes_and_prior(self, bundled):
        corpus, _ = bundled
        assert len(corpus.columns("train_unlabeled")[0]) == 200
        assert len(corpus.columns("validation_unlabeled")[0]) == 100
        _, test_labels = corpus.columns("test_labeled")
        assert len(test_labels) == 100
        assert test_labels.count(1) == 30


def pipeline_config(seed=0, **overrides):
    defaults = dict(
        train=TrainConfig(objective="auc", loss="sigmoid", epochs=120, seed=seed),
        tau=0.15,
        scheme="tf_idf",
        min_doc_freq=1,
        threshold_method="breakeven_known_prior",
        prior=0.3,
    )
    defaults.update(overrides)
    return PipelineConfig(**defaults)


class TestRunPipeline:
    def test_bundled_regression(self, bundled):
        corpus, keywords = bundled
        report = run_pipeline(corpus, keywords, pipeline_config(seed=0))
        assert report["test_auc"] > 0.5
        assert report["empirical_pi_pos"] > report["empirical_pi_neg"]
        assert report["n_pseudo_pos"] + report["n_pseudo_neg"] == 200
        # frozen at first build (fixed corpus, fixed seed)
        assert report["test_auc"] == pytest.approx(0.979047619047619, rel=1e-6)
        assert report["test_metrics"]["f1"] == pytest.approx(0.888888888888889, rel=1e-6)

    def test_pipeline_deterministic(self, bundled):
        corpus, keywords = bundled
        first = run_pipeline(corpus, keywords, pipeline_config(seed=3))
        second = run_pipeline(corpus, keywords, pipeline_config(seed=3))
        assert first == second

    def test_nonsymmetric_loss_warns_but_runs(self, bundled):
        corpus, keywords = bundled
        config = pipeline_config(
            seed=0, train=TrainConfig(objective="auc", loss="logistic", epochs=30, seed=0)
        )
        with pytest.warns(UserWarning, match="not symmetric"):
            report = run_pipeline(corpus, keywords, config)
        assert report["warnings"]

    def test_unknown_threshold_method_fails_before_training(self, bundled):
        corpus, keywords = bundled
        trained = AssertionError("the pipeline trained before rejecting its config")
        with mock.patch.object(symloss.textpipe, "train_auc", side_effect=trained):
            with pytest.raises(ConfigurationError, match="unknown threshold method 'oracle'"):
                run_pipeline(corpus, keywords, pipeline_config(threshold_method="oracle"))

    @pytest.mark.parametrize("method", ["breakeven_known_prior", "heuristic_pseudo_ratio"])
    def test_a_missing_validation_split_fails_before_training(self, bundled, method):
        corpus, keywords = bundled
        kept = Corpus(row for row in corpus.rows if row[3] != "validation_unlabeled")
        with mock.patch.object(symloss.textpipe, "train_auc") as spy:
            with pytest.raises(
                ConfigurationError, match="^threshold selection needs validation_unlabeled documents$"
            ):
                run_pipeline(kept, keywords, pipeline_config(threshold_method=method))
        spy.assert_not_called()

    def test_missing_prior_for_breakeven(self, bundled):
        corpus, keywords = bundled
        with pytest.raises(ConfigurationError, match="needs the known positive-class prior"):
            run_pipeline(corpus, keywords, pipeline_config(prior=None))

    def test_heuristic_and_default_methods(self, bundled):
        corpus, keywords = bundled
        heuristic = run_pipeline(
            corpus, keywords, pipeline_config(threshold_method="heuristic_pseudo_ratio")
        )
        assert heuristic["threshold"]["method"] == "heuristic_pseudo_ratio"
        # the cutoff matches the pseudo-positive ratio (140/200 = 0.7 here),
        # not the known prior (0.3)
        n_train = len(corpus.columns("train_unlabeled")[0])
        n_val = len(corpus.columns("validation_unlabeled")[0])
        ratio = heuristic["n_pseudo_pos"] / n_train
        fraction = math.floor(ratio * n_val + 0.5) / n_val
        assert heuristic["threshold"]["achieved_positive_fraction"] == fraction
        assert not heuristic["threshold"]["degenerate"]
        default = run_pipeline(
            corpus, keywords, pipeline_config(threshold_method="default_zero")
        )
        assert default["threshold"]["beta"] == 0.0

    def test_breakeven_beats_default_f1(self, bundled):
        # the corpus prior (0.3) sits far from the ranker's natural
        # positive rate at beta = 0, so the known-prior cutoff must win
        corpus, keywords = bundled
        breakeven = run_pipeline(corpus, keywords, pipeline_config(seed=0))
        default = run_pipeline(
            corpus, keywords, pipeline_config(seed=0, threshold_method="default_zero")
        )
        assert breakeven["test_metrics"]["f1"] > default["test_metrics"]["f1"]

    def test_default_threshold_reuses_the_train_matrix(self, bundled):
        # without a validation split the default cutoff scores the train
        # slice, which pseudo-labeling has transformed already
        corpus, keywords = bundled
        kept = Corpus(row for row in corpus.rows if row[3] != "validation_unlabeled")
        rows, transform = [], symloss.textpipe.Vectorizer.transform

        def counted(self, texts):
            rows.append(len(texts))
            return transform(self, texts)

        config = pipeline_config(seed=0, threshold_method="default_zero")
        with mock.patch.object(symloss.textpipe.Vectorizer, "transform", counted):
            report = run_pipeline(kept, keywords, config)
        assert rows == [200, 100]  # the train slice, then the test slice
        assert report["threshold"]["beta"] == 0.0

    def test_guarantee_gate(self, bundled):
        # informative split plus symmetric loss implies an above-chance ranker
        corpus, keywords = bundled
        for seed in (0, 1):
            report = run_pipeline(corpus, keywords, pipeline_config(seed=seed))
            assert report["empirical_pi_pos"] > report["empirical_pi_neg"]
            assert report["test_auc"] > 0.5


class TestTauSweepTrend:
    def test_purer_splits_track_the_clean_reference(self, bundled):
        """Raising tau purifies the split; the clean-risk gap to a
        clean-trained reference must not grow (rank correlation <= 0)."""
        corpus, keywords = bundled
        train, labels = corpus.columns("train_unlabeled")
        test, test_labels = corpus.columns("test_labeled")
        vec = build_vectorizer(train, "tf_idf", 1)
        sigmoid = get_loss("sigmoid")

        test_matrix = vec.transform(test)
        truth = np.array(test_labels)
        test_pos, test_neg = test_matrix[truth == 1], test_matrix[truth == -1]

        train_matrix = vec.transform(train)
        train_labels = np.array(labels)

        purities, errors = [], []
        for tau in (0.1, 0.3, 0.5):
            pos, neg = pseudo_label(keywords, train_matrix, vec, tau, labels)
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
