"""Each layer is checked once, by ``Builder.add``, and copied O(1) times.

Composition, tensor, interchange and yank build their results without a
check, so these tests rebuild every such result through the public
constructor, which scans it in full (the oracle). They count the layers
checked, and the layers frozen into ``Diagram`` objects, while a sentence
is built, rewritten and normalised (linearity).
"""
import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from synq import ccg
from synq.ccg import parse_auto, scan_auto, tree_to_diagram
from synq.dataset import FOOD
from synq.diagram import (
    Builder, Cap, Cup, Diagram, IllTyped, ParseError, Swap, Word,
    _interchange, _remove_one_snake,
)
from synq.pipeline import PipelineConfig, sentence_to_diagram
from synq.readers import Sentence, cups_read, spiders_read
from synq.rewrite import RULE_NAMES, Rewriter
from synq.types import PType, TypeSeq

FIXTURES = Path(__file__).parent / "data" / "fixtures.auto"

ptypes = st.builds(PType, st.sampled_from(["n", "s"]),
                   st.integers(min_value=-1, max_value=1))
typeseqs = st.lists(ptypes, max_size=3).map(lambda ts: TypeSeq(tuple(ts)))


def rebuild(d: Diagram) -> Diagram:
    """The oracle: a full scan of d's layers by the public constructor."""
    return Diagram(d.dom, d.cod, d.layers)


@st.composite
def diagrams(draw, dom=None):
    """Grow a diagram layer by layer with words, caps, cups and swaps."""
    d = Diagram.identity(draw(typeseqs) if dom is None else dom)
    for step in range(draw(st.integers(min_value=0, max_value=10))):
        wires = d.cod
        kind = draw(st.sampled_from(["word", "cap", "cup", "swap"]))
        if kind == "word":
            lo = draw(st.integers(min_value=0, max_value=len(wires)))
            hi = draw(st.integers(min_value=lo,
                                  max_value=min(lo + 2, len(wires))))
            box = Word(f"w{step}", wires[lo:hi], draw(typeseqs))
        elif kind == "cap":
            p = draw(ptypes)
            lo = draw(st.integers(min_value=0, max_value=len(wires)))
            box = Cap(p.base, p.z)
        else:
            pairs = [i for i in range(len(wires) - 1) if kind == "swap"
                     or (wires[i].base == wires[i + 1].base
                         and wires[i].z + 1 == wires[i + 1].z)]
            if not pairs:
                continue
            lo = draw(st.sampled_from(pairs))
            a, b = wires[lo], wires[lo + 1]
            box = Swap(a, b) if kind == "swap" else Cup(a.base, a.z)
        cod = wires[:lo] @ box.cod @ wires[lo + len(box.dom):]
        d = d >> Diagram(wires, cod, ((box, lo),))
    return d


def long_derivation(words: int) -> tuple[str, str]:
    """(text, AUTO line) of 'the ADJ* N V the ADJ* N' with ``words`` words."""
    adjectives = [FOOD["adjectives"][i % 4] for i in range(words - 5)]
    half = len(adjectives) // 2

    def noun_phrase(adjs, noun):
        tree = f"(<L N NN NN {noun} N>)"
        for adj in reversed(adjs):
            tree = f"(<T N 1 2> (<L N/N JJ JJ {adj} N/N>) {tree})"
        return f"(<T NP 0 2> (<L NP/N DT DT the NP/N>) {tree})"

    verb = "(<L (S[dcl]\\NP)/NP VBZ VBZ cooks (S[dcl]\\NP)/NP>)"
    line = (f"(<T S[dcl] 1 2> {noun_phrase(adjectives[:half], 'chef')} "
            f"(<T S[dcl]\\NP 0 2> {verb} "
            f"{noun_phrase(adjectives[half:], 'meal')}))")
    text = " ".join(["the", *adjectives[:half], "chef", "cooks", "the",
                     *adjectives[half:], "meal"])
    return text, line


class TestOracle:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def test_compose_tensor_normal_form(self, data):
        top = data.draw(diagrams())
        below = data.draw(diagrams(dom=top.cod))
        right = data.draw(diagrams())
        for d in (top, top >> below, top @ right, right @ top,
                  (top >> below) @ right):
            assert rebuild(d) == d
            for k in range(len(d.layers) - 1):
                layers = list(d.layers)
                if _interchange(layers, k):
                    swapped = Diagram._typed(d.dom, d.cod, tuple(layers))
                    assert rebuild(swapped) == swapped
            layers = d.layers
            while layers is not None:  # every yank of normal_form
                step = Diagram._typed(d.dom, d.cod, tuple(layers))
                assert rebuild(step) == step
                layers = _remove_one_snake(layers)
            nf = d.normal_form()
            assert rebuild(nf) == nf
            assert nf.dom == d.dom and nf.cod == d.cod

    def test_fixture_derivations_and_rewrites(self):
        rewriter = Rewriter(list(RULE_NAMES))
        for deriv_id, _, line in scan_auto(FIXTURES.read_text()):
            (tree,) = parse_auto(line)
            d = tree_to_diagram(tree)
            assert rebuild(d) == d, deriv_id
            rewritten = rewriter(d)
            assert rebuild(rewritten) == rewritten, deriv_id
            nf = rewritten.normal_form()
            assert rebuild(nf) == nf, deriv_id

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=5, max_value=60))
    def test_long_derivations(self, words):
        _, line = long_derivation(words)
        (tree,) = parse_auto(line)
        d = tree_to_diagram(tree)
        rewritten = Rewriter(["determiner"])(d)
        nf = rewritten.normal_form()
        for out in (d, rewritten, nf):
            assert rebuild(out) == out
        assert nf.cod == d.cod

    @given(st.lists(st.sampled_from(["red", "cat", "runs"]),
                    min_size=1, max_size=12))
    def test_readers(self, tokens):
        for reader in (cups_read, spiders_read):
            d = reader(Sentence(tuple(tokens)))
            assert rebuild(d) == d


def test_raw_layers_are_still_scanned():
    _, line = long_derivation(40)
    (tree,) = parse_auto(line)
    d = tree_to_diagram(tree)
    box, offset = d.layers[-1]
    bad = d.layers[:-1] + ((box, offset + 1),)  # the last cup shifted right
    with pytest.raises(IllTyped):
        Diagram(d.dom, d.cod, bad)
    doc = json.loads(d.to_json())
    doc["layers"][-1]["offset"] += 1
    with pytest.raises(ParseError):
        Diagram.from_json(json.dumps(doc))


def scanned_layers(monkeypatch, words: int) -> int:
    """Layers Builder.add checks while one sentence is built, rewritten
    and normalised."""
    scanned = 0
    add = Builder.add

    def counting(self, box, offset):
        nonlocal scanned
        scanned += 1
        return add(self, box, offset)

    text, line = long_derivation(words)
    cfg = PipelineConfig(reader="ccg", rewrites=("determiner",))
    with monkeypatch.context() as m:
        m.setattr(Builder, "add", counting)
        sentence_to_diagram(cfg, text, line)
    return scanned


def frozen_layers(monkeypatch, words: int) -> int:
    """Layers copied into Diagram objects, checked or not, while one
    sentence is built, rewritten and normalised."""
    frozen = 0
    typed = Diagram._typed.__func__
    check = Diagram._check

    def counting_typed(cls, dom, cod, layers):
        nonlocal frozen
        frozen += len(layers)
        return typed(cls, dom, cod, layers)

    def counting_check(self):
        nonlocal frozen
        frozen += len(self.layers)
        check(self)

    text, line = long_derivation(words)
    cfg = PipelineConfig(reader="ccg", rewrites=("determiner",))
    with monkeypatch.context() as m:
        m.setattr(Diagram, "_typed", classmethod(counting_typed))
        m.setattr(Diagram, "_check", counting_check)
        sentence_to_diagram(cfg, text, line)
    return frozen


def assert_linear(sizes, counts, per_word):
    slopes = [(c1 - c0) / (n1 - n0) for (n0, c0), (n1, c1)
              in zip(zip(sizes, counts), zip(sizes[1:], counts[1:]))]
    # a fixed number of layers per added word, at every size
    assert max(slopes) == pytest.approx(min(slopes), rel=0.05), counts
    assert max(slopes) <= per_word, counts


def test_scans_grow_linearly(monkeypatch):
    sizes = (25, 50, 100, 200)
    assert_linear(sizes, [scanned_layers(monkeypatch, n) for n in sizes], 10)


def test_layer_copies_grow_linearly(monkeypatch):
    # composing one-layer diagrams with >> copied the whole layer tuple at
    # every step: 69 007 layers at 100 words and 278 007 at 200
    sizes = (25, 50, 100, 200)
    assert_linear(sizes, [frozen_layers(monkeypatch, n) for n in sizes], 10)


def test_too_deep_derivation_is_named():
    # long_derivation nests one tree level per adjective
    _, line = long_derivation(1000)
    with pytest.raises(ccg.ParseError, match="too deep"):
        parse_auto(line)
    noun, adj = ccg.parse_category("N"), ccg.parse_category("N/N")
    tree = ccg.Leaf("meal", noun)
    for _ in range(5000):
        tree = ccg.Node(noun, "FA", (ccg.Leaf("red", adj), tree))
    with pytest.raises(ccg.DerivationError, match="too deep"):
        tree_to_diagram(tree)
