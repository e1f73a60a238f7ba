"""Syntax-light sentence-to-diagram converters.

``spiders_read`` treats a sentence as a bag of words merged by one spider;
``cups_read`` chains words left to right into a tensor train. Both produce
diagrams with empty domain and codomain [s].
"""
from __future__ import annotations

import string
from dataclasses import dataclass

from .diagram import Builder, Diagram, Spider, Word
from .types import SENTENCE, ts

_PUNCT = str.maketrans("", "", string.punctuation)


@dataclass(frozen=True)
class Sentence:
    tokens: tuple[str, ...]

    def __post_init__(self):
        if not self.tokens or any(not t for t in self.tokens):
            raise ValueError("a sentence needs at least one non-empty token")


def tokenize(text: str) -> Sentence:
    """Whitespace tokenization: strip ASCII punctuation, lowercase."""
    tokens = tuple(
        t for t in (raw.translate(_PUNCT).lower() for raw in text.split()) if t
    )
    return Sentence(tokens)


def spiders_read(s: Sentence) -> Diagram:
    """Bag of words: every token is an s-state, one spider merges them all."""
    b = Builder()
    for i, token in enumerate(s.tokens):
        b.add(Word(token, cod=ts("s")), i)
    return b.add(Spider(SENTENCE, 0, len(s.tokens), 1), 0).diagram()


def cups_read(s: Sentence) -> Diagram:
    """Left-to-right word chain: s.l wires cup with the next word's s."""
    b = Builder()
    for i, token in enumerate(s.tokens):
        cod = ts("s") if i == len(s.tokens) - 1 else ts("s", "s.l")
        b.add(Word(token, cod=cod), len(b.wires))
    # rightmost cancelling pair first keeps every cup's legs adjacent
    for _ in range(len(s.tokens) - 1):
        b.cup(len(b.wires) - 2)
    return b.diagram()
