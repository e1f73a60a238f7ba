"""Named rewrite rules replacing function words with cap-based wirings.

Every rule is one row of ``_RULES``: its bundled word list, the codomain it
matches and its fragment. A rule matches a word box with no domain whose
lowercased token is in the list and whose codomain equals the row's. A
codomain of ``None`` matches any T.r ++ T shape, and a fragment of ``None``
replaces the word by nested caps (``_nested_caps``). Any other fragment is
a layer list in which a ``TypeSeq`` stands for the word retyped to that
codomain. Every fragment keeps the word's dom/cod, so a rewritten diagram
always type-checks with its boundary unchanged. Callers usually follow
``apply`` with ``Diagram.normal_form()`` to yank the freshly introduced caps
against existing cups.
"""
from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from typing import Callable, Iterable, Optional

from .diagram import Builder, Cap, Diagram, Word
from .types import NOUN, TypeSeq, ts

# name -> (word list, matched codomain, fragment)
_RULES: dict[str, tuple[str, Optional[TypeSeq], Optional[tuple]]] = {
    "auxiliary": ("auxiliaries", None, None),
    "connector": ("connectors", None, None),
    "determiner": ("determiners", ts("n", "n.l"), None),
    # the cap (n.r, n) wraps around the reduced word (s, s.l)
    "preadverb": ("adverbs", ts("n.r", "s", "s.l", "n"),
                  ((Cap(NOUN, 0), 0), (ts("s", "s.l"), 1))),
    "postadverb": ("adverbs", ts("s.r", "n.rr", "n.r", "s"),
                   ((ts("s.r", "s"), 0), (Cap(NOUN, 1), 1))),
    # bridges the subject noun wire through an order-5 preposition
    "prepositional_phrase": (
        "prepositions", ts("s.r", "n.rr", "n.r", "s", "n.l"),
        ((ts("s.r", "s", "n.l"), 0), (Cap(NOUN, 1), 1))),
}

RULE_NAMES = tuple(_RULES)


def load_wordlist(name: str) -> frozenset[str]:
    """The bundled word list ``name`` (such as "determiners"), lowercased."""
    ref = resources.files("synq").joinpath(f"wordlists/{name}.txt")
    text = ref.read_text(encoding="utf-8")
    return frozenset(t.strip().lower() for t in text.splitlines() if t.strip())


@dataclass(frozen=True)
class RewriteRule:
    name: str
    matcher: Callable[[Word], bool]
    transformer: Callable[[Word], Diagram]


def make_rule(name: str, words: frozenset[str] | None = None) -> RewriteRule:
    """The rule of row ``name``, over ``words`` in place of its bundled list."""
    if name not in _RULES:
        raise ValueError(f"unknown rewrite rule {name!r}; "
                         f"available: {', '.join(RULE_NAMES)}")
    wordlist, shape, fragment = _RULES[name]
    words = words if words is not None else load_wordlist(wordlist)

    def matcher(w: Word) -> bool:
        if w.dom or w.token.lower() not in words:
            return False
        if shape is None:
            return _nested_caps(w.cod) is not None
        return w.cod == shape

    def transformer(w: Word) -> Diagram:
        if fragment is None:
            return _nested_caps(w.cod)
        b = Builder()
        for box, offset in fragment:
            if isinstance(box, TypeSeq):
                box = Word(w.token, cod=box)
            b.add(box, offset)
        return b.diagram()

    return RewriteRule(name, matcher, transformer)


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
