"""Bundled assets: mini corpus, keyword list, and default experiment configs.

The mini corpus is synthetic: two vocabulary "topics" (astronomy-flavored
positives, cooking-flavored negatives) plus shared filler words, with a
bleed of off-topic words so pseudo-labeling is realistically noisy.  It
is small enough for second-scale experiments while still giving the
keyword pipeline a non-trivial split.  ``generate_mini_corpus`` is the
deterministic generator the bundled files were written with, so the
assets can be regenerated and verified byte for byte.
"""

from __future__ import annotations

from importlib import resources

import numpy as np

from .textpipe import SPLITS, Corpus, KeywordSet

__all__ = [
    "generate_mini_corpus",
    "load_mini_corpus",
    "load_keywords",
    "mini_corpus_path",
    "keywords_path",
    "default_config_path",
    "MINI_CORPUS_SEED",
]

MINI_CORPUS_SEED = 20240501

MINI_KEYWORDS = (
    "telescope", "orbit", "nebula", "galaxy", "comet",
    "stellar", "cosmic", "planet", "eclipse", "quasar",
)

# the ten keywords plus two uncovered topic words, so positive documents
# are keyword-dense but not keyword-only
_TOPIC_POS = MINI_KEYWORDS + ("lunar", "meteor")

_TOPIC_NEG = (
    "recipe", "oven", "spice", "butter", "saute", "dough", "simmer",
    "garlic", "roast", "flavor", "pepper", "skillet", "vinegar", "basil",
    "bake", "whisk", "broth", "marinade", "caramel", "zest",
)

_FILLER = (
    "the", "a", "of", "and", "to", "in", "about", "notes", "report",
    "today", "group", "people", "story", "question", "idea", "program",
    "week", "study", "point", "world", "new", "long", "first", "last",
    "good", "small", "work", "part", "place", "found",
)


def _draw_document(rng: np.random.Generator, positive: bool) -> str:
    # asymmetric bleed: positives stay keyword-dense while negatives get a
    # moderate tail of positive-topic words, so raising the cosine cutoff
    # steadily purifies the pseudo-positive side
    length = int(rng.integers(12, 29))
    words = []
    for _ in range(length):
        roll = rng.random()
        if positive:
            if roll < 0.70:
                pool = _TOPIC_POS
            elif roll < 0.75:
                pool = _TOPIC_NEG
            else:
                pool = _FILLER
        else:
            if roll < 0.50:
                pool = _TOPIC_NEG
            elif roll < 0.70:
                pool = _TOPIC_POS
            else:
                pool = _FILLER
        words.append(pool[int(rng.integers(0, len(pool)))])
    return " ".join(words)


def generate_mini_corpus(
    seed: int = MINI_CORPUS_SEED,
    n_train: int = 200,
    n_validation: int = 100,
    n_test: int = 100,
    positive_fraction: float = 0.3,
) -> tuple[Corpus, KeywordSet]:
    """Deterministically build the two-topic corpus and its keyword set.

    Split after split, in ``SPLITS`` order, the positive flags are
    shuffled and then each document's words drawn.  The records go to
    ``Corpus`` as they are drawn, so no list of them is held beside the
    corpus columns.
    """
    rng = np.random.default_rng(seed)

    def records():
        counter = 0
        for split, count in zip(SPLITS, (n_train, n_validation, n_test)):
            flags = np.zeros(count, dtype=bool)
            flags[: int(round(positive_fraction * count))] = True
            rng.shuffle(flags)
            for positive in flags.tolist():
                yield f"doc{counter:04d}", _draw_document(rng, positive), 1 if positive else -1, split
                counter += 1

    return Corpus(records()), KeywordSet(MINI_KEYWORDS)


def _asset(name: str):
    return resources.files("symloss").joinpath("data", name)


def mini_corpus_path():
    return _asset("mini_corpus.jsonl")


def keywords_path():
    return _asset("keywords.txt")


def default_config_path(experiment: str):
    return _asset(f"configs/{experiment}.ini")


def load_mini_corpus() -> Corpus:
    return Corpus.from_jsonl(mini_corpus_path())


def load_keywords() -> KeywordSet:
    return KeywordSet.from_file(keywords_path())
