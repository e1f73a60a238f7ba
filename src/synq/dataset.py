"""Two-topic sentence dataset generated from a small context-free grammar.

Sentences follow SENT -> [ADJ] NOUN_subj VERB [ADJ] NOUN_obj with fully
disjoint food and IT vocabularies, so the classes are linearly separable by
content words. Because the pipeline ingests derivations rather than calling
a statistical parser, the generator also emits the CCG derivation of every
sentence in AUTO format (the grammar makes them mechanical).
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

FOOD = {
    "subjects": ("chef", "cook", "baker", "waiter", "gourmet"),
    "verbs": ("prepares", "cooks", "bakes", "serves", "tastes"),
    "objects": ("meal", "dinner", "soup", "sauce", "dessert"),
    "adjectives": ("delicious", "tasty", "fresh", "savory"),
}
IT = {
    "subjects": ("programmer", "developer", "engineer", "hacker", "analyst"),
    "verbs": ("creates", "writes", "debugs", "designs", "runs"),
    "objects": ("software", "code", "program", "algorithm", "application"),
    "adjectives": ("skillful", "clever", "efficient", "innovative"),
}
# label 1 is the IT topic, label 0 the food topic
SEED_SENTENCES = {
    "skillful programmer creates software": 1,
    "chef prepares delicious meal": 0,
}

TOTAL = 130
SPLIT_SIZES = (70, 30, 30)
SPLITS = ("train", "dev", "test")  # the splits of a LabeledDataset


class UnknownSplit(ValueError):
    """A split name outside SPLITS."""


class EmptySplit(ValueError):
    """A split that must hold sentences holds none."""


@dataclass(frozen=True)
class LabeledDataset:
    items: tuple[tuple[str, int], ...]
    train: tuple[int, ...]
    dev: tuple[int, ...]
    test: tuple[int, ...]

    def labels(self, split: str) -> list[int]:
        if split not in SPLITS:
            raise UnknownSplit(f"unknown split {split!r}; allowed: "
                               f"{', '.join(SPLITS)}")
        return [self.items[i][1] for i in getattr(self, split)]


def _sentence(rng: np.random.Generator, vocab: dict) -> str:
    words = []
    if rng.random() < 0.5:
        words.append(str(rng.choice(vocab["adjectives"])))
    words.append(str(rng.choice(vocab["subjects"])))
    words.append(str(rng.choice(vocab["verbs"])))
    if rng.random() < 0.5:
        words.append(str(rng.choice(vocab["adjectives"])))
    words.append(str(rng.choice(vocab["objects"])))
    return " ".join(words)


def _coverage(vocab: dict) -> list[str]:
    """A few sentences jointly mentioning every word of the vocabulary.

    Pinning these to the training split means no test word is ever an
    untrained parameter.
    """
    subj, verb, obj = vocab["subjects"], vocab["verbs"], vocab["objects"]
    adj = vocab["adjectives"]
    out = [f"{s} {v} {o}" for s, v, o in zip(subj, verb, obj)]
    for j, a in enumerate(adj):
        out.append(f"{a} {subj[(j + 1) % len(subj)]} "
                   f"{verb[(j + 2) % len(verb)]} {obj[(j + 3) % len(obj)]}")
    return out


def generate_dataset(seed: int) -> LabeledDataset:
    """130 unique sentences, 65 per topic, balanced 70/30/30 splits.

    The training split always contains a covering set of sentences so that
    every vocabulary word is seen during training.
    """
    rng = np.random.default_rng(seed)
    per_class = TOTAL // 2
    pools: dict[int, list[str]] = {0: [], 1: []}
    pinned: dict[int, int] = {}
    for label, vocab in ((0, FOOD), (1, IT)):
        for text in _coverage(vocab):
            if text not in pools[label]:
                pools[label].append(text)
    for text, label in SEED_SENTENCES.items():
        if text not in pools[label]:
            pools[label].append(text)
    for label in (0, 1):
        pinned[label] = len(pools[label])
    while len(pools[0]) < per_class or len(pools[1]) < per_class:
        label = int(rng.integers(0, 2))
        if len(pools[label]) >= per_class:
            label = 1 - label
        text = _sentence(rng, IT if label else FOOD)
        if text not in pools[label]:
            pools[label].append(text)

    # pinned sentences go to the training split; the rest shuffle over all
    items: list[tuple[str, int]] = []
    train, dev, test = [], [], []
    half = [s // 2 for s in SPLIT_SIZES]
    for cls in (0, 1):
        free = list(range(pinned[cls], per_class))
        order = list(range(pinned[cls])) + [
            free[i] for i in rng.permutation(len(free))]
        bounds = np.cumsum(half)
        for rank, j in enumerate(order):
            idx = len(items)
            items.append((pools[cls][j], cls))
            if rank < bounds[0]:
                train.append(idx)
            elif rank < bounds[1]:
                dev.append(idx)
            else:
                test.append(idx)
    return LabeledDataset(tuple(items), tuple(train), tuple(dev), tuple(test))


# ---------------------------------------------------------------------------
# AUTO derivations for the grammar's four sentence shapes.
# ---------------------------------------------------------------------------


def _leaf(cat: str, pos: str, token: str) -> str:
    return f"(<L {cat} {pos} {pos} {token} {cat}>)"


def _np(noun: str, adjective: str | None) -> str:
    inner = _leaf("N", "NN", noun)
    if adjective is not None:
        inner = f"(<T N 1 2> {_leaf('N/N', 'JJ', adjective)} {inner})"
    return f"(<T NP 0 1> {inner})"


class OutOfGrammar(ValueError):
    """A sentence that the dataset grammar does not derive."""

    def __init__(self, text: str, reason: str):
        super().__init__(f"{text!r} is outside the dataset grammar: {reason}")
        self.text = text
        self.reason = reason


# the words of each role, over both topics
_VOCABULARY = {role: frozenset(FOOD[role] + IT[role]) for role in FOOD}


def sentence_to_auto(text: str) -> str:
    """Derivation line for one sentence of the dataset grammar.

    Raises OutOfGrammar for text that is not [ADJ] SUBJ VERB [ADJ] OBJ over
    the grammar's vocabulary.
    """
    words = text.split()
    adjectives = _VOCABULARY["adjectives"]
    subj_adj = words[0] if words and words[0] in adjectives else None
    rest = words[1:] if subj_adj else words
    obj_adj = rest[2] if len(rest) > 2 and rest[2] in adjectives else None
    tail = rest[3:] if obj_adj else rest[2:]
    if len(tail) != 1:
        raise OutOfGrammar(
            text, f"{len(words)} words do not fit the shape "
                  "[adjective] subject verb [adjective] object")
    subj, verb, obj = rest[0], rest[1], tail[0]
    for word, role in ((subj, "subjects"), (verb, "verbs"), (obj, "objects")):
        if word not in _VOCABULARY[role]:
            raise OutOfGrammar(text, f"{word!r} is not one of its {role}")
    subj_np = _np(subj, subj_adj)
    obj_np = _np(obj, obj_adj)
    verb_leaf = _leaf("(S[dcl]\\NP)/NP", "VBZ", verb)
    vp = f"(<T S[dcl]\\NP 0 2> {verb_leaf} {obj_np})"
    return f"(<T S[dcl] 1 2> {subj_np} {vp})"


def write_auto(ds: LabeledDataset, path: str | Path) -> None:
    lines = []
    for i, (text, _) in enumerate(ds.items):
        lines.append(f"ID={i}")
        lines.append(sentence_to_auto(text))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
