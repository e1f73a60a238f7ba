"""Named rewrite rules replacing function words with cap-based wirings.

Each rule matches word boxes by token membership in a word list plus an
exact codomain shape, and substitutes a fragment with identical dom/cod,
so a rewritten diagram always type-checks with its boundary unchanged.
Callers usually follow ``apply`` with ``Diagram.normal_form()`` to yank
the freshly introduced caps against existing cups.
"""
from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Callable, Iterable

from .diagram import Builder, Cap, Diagram, Word
from .types import NOUN, TypeSeq, ts


def load_wordlist(name_or_path: str) -> frozenset[str]:
    """Load a word list: a bundled name ("determiners") or a file path."""
    path = Path(name_or_path)
    if path.suffix == ".txt" and path.exists():
        text = path.read_text(encoding="utf-8")
    else:
        ref = resources.files("synq").joinpath(f"wordlists/{name_or_path}.txt")
        text = ref.read_text(encoding="utf-8")
    return frozenset(t.strip().lower() for t in text.splitlines() if t.strip())


@dataclass(frozen=True)
class RewriteRule:
    name: str
    matcher: Callable[[Word], bool]
    transformer: Callable[[Word], Diagram]


class Rewriter:
    """Applies an ordered rule list to every word box, first match wins."""

    def __init__(self, rules: Iterable[RewriteRule | str]):
        resolved = [make_rule(r) if isinstance(r, str) else r for r in rules]
        names = [r.name for r in resolved]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate rule names in {names}")
        self.rules = tuple(resolved)

    def __call__(self, d: Diagram) -> Diagram:
        return apply(self, d)


def apply(rw: Rewriter, d: Diagram) -> Diagram:
    """Replace every matched word box in place by its transformer output."""
    layers = []
    for box, offset in d.layers:
        fragment = None
        if isinstance(box, Word):
            for rule in rw.rules:
                if rule.matcher(box):
                    fragment = rule.transformer(box)
                    break
        if fragment is None:
            layers.append((box, offset))
            continue
        if fragment.dom != box.dom or fragment.cod != box.cod:
            raise ValueError(
                f"rule fragment for {box.token!r} changes the boundary")
        layers.extend((b, o + offset) for b, o in fragment.layers)
    return Diagram._typed(d.dom, d.cod, tuple(layers))


def _nested_caps(cod: TypeSeq) -> Diagram | None:
    """Caps pairing wire i with wire 2k-1-i, for cod of shape T.r ++ T."""
    if len(cod) % 2 or not cod:
        return None
    k = len(cod) // 2
    for i in range(k):
        a, b = cod[i], cod[len(cod) - 1 - i]
        if a.base != b.base or a.z != b.z + 1:
            return None
    b = Builder()
    for j in range(k):  # outermost pair first, each next cap nests inside
        partner = cod[len(cod) - 1 - j]
        b.add(Cap(partner.base, partner.z), j)
    d = b.diagram()
    return d if d.cod == cod else None


def _listed(token: str, words: frozenset[str]) -> bool:
    return token.lower() in words


def _nested_caps_rule(name: str, wordlist: str
                      ) -> Callable[[frozenset[str] | None], RewriteRule]:
    """Factory of a rule removing listed words shaped T.r ++ T by caps."""

    def factory(words: frozenset[str] | None = None) -> RewriteRule:
        words = words if words is not None else load_wordlist(wordlist)

        def matcher(w: Word) -> bool:
            return (not w.dom and _listed(w.token, words)
                    and _nested_caps(w.cod) is not None)

        return RewriteRule(name, matcher, lambda w: _nested_caps(w.cod))

    return factory


auxiliary_rule = _nested_caps_rule("auxiliary", "auxiliaries")
connector_rule = _nested_caps_rule("connector", "connectors")


def determiner_rule(words: frozenset[str] | None = None) -> RewriteRule:
    """Remove determiners typed n @ n.l by replacing them with a cap."""
    words = words if words is not None else load_wordlist("determiners")
    shape = ts("n", "n.l")

    def matcher(w: Word) -> bool:
        return not w.dom and _listed(w.token, words) and w.cod == shape

    return RewriteRule(
        "determiner", matcher,
        lambda w: Diagram.from_box(Cap(NOUN, -1)))


_PREADVERB_SHAPE = ts("n.r", "s", "s.l", "n")
_POSTADVERB_SHAPE = ts("s.r", "n.rr", "n.r", "s")


def preadverb_rule(words: frozenset[str] | None = None) -> RewriteRule:
    """Pass the noun wire through a pre-verb adverb with a cap."""
    words = words if words is not None else load_wordlist("adverbs")

    def matcher(w: Word) -> bool:
        return (not w.dom and _listed(w.token, words)
                and w.cod == _PREADVERB_SHAPE)

    def transformer(w: Word) -> Diagram:
        # cap (n.r, n) wraps around the reduced word (s, s.l)
        inner = Word(w.token, cod=ts("s", "s.l"))
        return Builder().add(Cap(NOUN, 0), 0).add(inner, 1).diagram()

    return RewriteRule("preadverb", matcher, transformer)


def postadverb_rule(words: frozenset[str] | None = None) -> RewriteRule:
    """Pass the noun wire through a post-verb adverb with a cap."""
    words = words if words is not None else load_wordlist("adverbs")

    def matcher(w: Word) -> bool:
        return (not w.dom and _listed(w.token, words)
                and w.cod == _POSTADVERB_SHAPE)

    def transformer(w: Word) -> Diagram:
        inner = Word(w.token, cod=ts("s.r", "s"))
        return Builder().add(inner, 0).add(Cap(NOUN, 1), 1).diagram()

    return RewriteRule("postadverb", matcher, transformer)


_PREPOSITION_SHAPE = ts("s.r", "n.rr", "n.r", "s", "n.l")


def prepositional_phrase_rule(words: frozenset[str] | None = None) -> RewriteRule:
    """Bridge the subject noun wire through an order-5 preposition."""
    words = words if words is not None else load_wordlist("prepositions")

    def matcher(w: Word) -> bool:
        return (not w.dom and _listed(w.token, words)
                and w.cod == _PREPOSITION_SHAPE)

    def transformer(w: Word) -> Diagram:
        inner = Word(w.token, cod=ts("s.r", "s", "n.l"))
        return Builder().add(inner, 0).add(Cap(NOUN, 1), 1).diagram()

    return RewriteRule("prepositional_phrase", matcher, transformer)


_FACTORIES = {
    "auxiliary": auxiliary_rule,
    "connector": connector_rule,
    "determiner": determiner_rule,
    "preadverb": preadverb_rule,
    "postadverb": postadverb_rule,
    "prepositional_phrase": prepositional_phrase_rule,
}

RULE_NAMES = tuple(_FACTORIES)


def make_rule(name: str) -> RewriteRule:
    if name not in _FACTORIES:
        raise ValueError(f"unknown rewrite rule {name!r}; "
                         f"available: {', '.join(RULE_NAMES)}")
    return _FACTORIES[name]()
