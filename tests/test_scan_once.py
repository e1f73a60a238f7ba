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

from synq import ccg, diagram
from synq.ccg import parse_auto, scan_auto, tree_to_diagram
from synq.dataset import FOOD
from synq.diagram import (
    Builder, Cap, Cup, Diagram, IllTyped, ParseError, Swap, Word,
    _follow_wire, _interchange,
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


def _reference_yank(layers: list, cap: int, cup: int, leg: int,
                    lefts: list[int], rights: list[int]) -> list | None:
    """Yank the snake in ``layers``, a copy the caller gives up."""
    below, near = (lefts, rights) if leg == 1 else (rights, lefts)
    for idx in reversed(below):
        for k in range(idx, cup):
            if not _interchange(layers, k):
                return None
        cup -= 1
    for _ in near:
        if not _interchange(layers, cap):
            return None
        cap += 1
    if cup != cap + 1:
        return None
    (_, o_cap), (_, o_cup) = layers[cap], layers[cup]
    if abs(o_cup - o_cap) != 1:
        return None
    del layers[cap:cap + 2]
    return layers


def reference_remove_one_snake(layers) -> list | None:
    """The oracle of normal_form's scan: the layers with the first cap's
    snake yanked, as a new list, or None. Its caller restarts at layer 0
    after every yank, and each yank copies the whole layer list."""
    for i, (box, off) in enumerate(layers):
        if not isinstance(box, Cap):
            continue
        for leg, want_slot in ((1, 0), (0, 1)):
            hit = _follow_wire(layers, i, off + leg)
            if hit is None:
                continue
            j, _, slot, lefts, rights = hit
            cup_box = layers[j][0]
            if not isinstance(cup_box, Cup) or slot != want_slot:
                continue
            if cup_box.base != box.base or cup_box.z != box.z:
                continue
            result = _reference_yank(list(layers), i, j, leg, lefts, rights)
            if result is not None:
                return result
    return None


def reference_normal_form(d: Diagram) -> tuple:
    """The layers of d.normal_form() by the oracle's fixed-point loop."""
    layers = d.layers
    while (nxt := reference_remove_one_snake(layers)) is not None:
        layers = nxt
    return tuple(layers)


@st.composite
def diagrams(draw, dom=None, kinds=("word", "cap", "cup", "swap"),
             max_layers=10):
    """Grow a diagram layer by layer with words, caps, cups and swaps."""
    d = Diagram.identity(draw(typeseqs) if dom is None else dom)
    for step in range(draw(st.integers(min_value=0, max_value=max_layers))):
        wires = d.cod
        kind = draw(st.sampled_from(kinds))
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
            while layers is not None:  # every yank of the oracle's loop
                step = Diagram._typed(d.dom, d.cod, tuple(layers))
                assert rebuild(step) == step
                layers = reference_remove_one_snake(layers)
            nf = d.normal_form()
            assert rebuild(nf) == nf
            assert nf.dom == d.dom and nf.cod == d.cod
            assert nf.layers == reference_normal_form(d)

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(diagrams(kinds=("cap", "cap", "cup", "cup", "word"),
                    max_layers=30))
    def test_snaky_normal_form_equals_oracle(self, d):
        # mostly caps and cups: chains of snakes, nested and zigzag ones
        nf = d.normal_form()
        assert nf.layers == reference_normal_form(d)
        assert rebuild(nf) == nf

    def test_fixture_derivations_and_rewrites(self):
        rewriters = [Rewriter(list(RULE_NAMES))]
        rewriters += [Rewriter([rule]) for rule in RULE_NAMES]
        for deriv_id, _, line in scan_auto(FIXTURES.read_text()):
            (tree,) = parse_auto(line)
            d = tree_to_diagram(tree)
            assert rebuild(d) == d, deriv_id
            for rewriter in rewriters:
                rewritten = rewriter(d)
                assert rebuild(rewritten) == rewritten, deriv_id
                nf = rewritten.normal_form()
                assert rebuild(nf) == nf, deriv_id
                assert nf.layers == reference_normal_form(rewritten), deriv_id

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
        assert nf.layers == reference_normal_form(rewritten)

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
    # a derivation of a shape converted before would only be re-labelled
    ccg._line_templates.cache_clear()
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
    ccg._line_templates.cache_clear()
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


def noun_phrases(n: int, bare_caps: bool = False) -> Diagram:
    """n tensored 'the flower' phrases rewritten by the determiner rule: n
    snakes. With ``bare_caps``, each phrase is followed by a cap whose legs
    run to the codomain, which no yank removes."""
    (tree,) = parse_auto("(<T NP 0 2> (<L NP/N DT DT the NP/N>) "
                         "(<L N NN NN flower N>))")
    phrase = tree_to_diagram(tree)
    if bare_caps:
        phrase = phrase @ Diagram.from_box(Cap("n", 0))
    d = phrase
    for _ in range(n - 1):
        d = d @ phrase
    return Rewriter(["determiner"])(d)


def test_long_chain_normal_form_equals_oracle():
    d = noun_phrases(800)
    nf = d.normal_form()
    assert len(nf.layers) == 800  # only the nouns are left
    assert nf.layers == reference_normal_form(d)


def snake_work(monkeypatch, n: int) -> tuple[int, int]:
    """_follow_wire and _interchange calls of one normal_form of
    noun_phrases(n, bare_caps=True)."""
    counts = {"_follow_wire": 0, "_interchange": 0}
    d = noun_phrases(n, bare_caps=True)
    with monkeypatch.context() as m:
        for name in counts:
            def counting(*args, _name=name, _fn=getattr(diagram, name)):
                counts[_name] += 1
                return _fn(*args)
            m.setattr(diagram, name, counting)
        nf = d.normal_form()
    assert len(nf.layers) == 2 * n  # the nouns and the bare caps
    return counts["_follow_wire"], counts["_interchange"]


def test_snake_work_grows_linearly(monkeypatch):
    # restarting at layer 0 after each yank traced every bare cap above
    # it again: 10 200 _follow_wire calls at 100 phrases, 40 400 at 200
    sizes = (25, 50, 100, 200)
    follows, interchanges = zip(*(snake_work(monkeypatch, n) for n in sizes))
    # one trace of each determiner cap's leg, two of each bare cap; one
    # interchange slides each determiner cap past its noun
    assert list(follows) == [3 * n for n in sizes]
    assert list(interchanges) == list(sizes)


def test_deep_derivations_convert():
    # the parse and the conversion keep their nodes on lists, not on the
    # interpreter's stack, so a derivation of any depth converts
    text, line = long_derivation(1005)  # 1000 adjectives, 500 levels a side
    d = ccg.line_to_diagram(line)
    assert [box.token for box, _ in d.layers if isinstance(box, Word)] \
        == text.split()
    # a cup per adjective and determiner, two for the verb
    assert sum(isinstance(box, Cup) for box, _ in d.layers) == 1004
    assert d.cod == TypeSeq((PType("s"),))
    (tree,) = parse_auto(line)
    assert tree_to_diagram(tree) == d
    noun, adj = ccg.parse_category("N"), ccg.parse_category("N/N")
    tree = ccg.Leaf("meal", noun)
    for _ in range(5000):
        tree = ccg.Node(noun, "FA", (ccg.Leaf("red", adj), tree))
    d = tree_to_diagram(tree)
    assert [box.token for box, _ in d.layers if isinstance(box, Word)] \
        == ["red"] * 5000 + ["meal"]
    assert sum(isinstance(box, Cup) for box, _ in d.layers) == 5000
    assert d.cod == TypeSeq((PType("n"),))
