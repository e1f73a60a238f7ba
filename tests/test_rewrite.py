from pathlib import Path

import pytest

from synq.ccg import parse_auto, tree_to_diagram
from synq.diagram import Cap, Cup, Diagram, Word, word
from synq.rewrite import (
    RULE_NAMES, Rewriter, apply, load_wordlist, make_rule,
)
from synq.types import EMPTY, ts

FIXTURES = Path(__file__).parent / "data" / "fixtures.auto"


def fixture_diagram(fid: str) -> Diagram:
    lines = FIXTURES.read_text().splitlines()
    for i, line in enumerate(lines):
        if line.startswith(f"ID={fid} "):
            (tree,) = parse_auto(lines[i + 1])
            return tree_to_diagram(tree)
    raise KeyError(fid)


def test_empty_rule_list_is_identity():
    d = fixture_diagram("fix.1")
    assert Rewriter([])(d) == d


def test_unknown_rule_name():
    with pytest.raises(ValueError):
        make_rule("coordination")
    with pytest.raises(ValueError):
        Rewriter(["determiner", "determiner"])


def test_determiner_replaced_by_cap():
    the = word("the", ts("n", "n.l"))
    out = Rewriter(["determiner"])(the)
    assert out.boxes == [Cap("n", -1)]
    assert out.dom == the.dom and out.cod == the.cod


def test_determiner_then_normal_form_yanks():
    d = word("the", ts("n", "n.l")) @ word("flower", ts("n"))
    from synq.diagram import cup_at
    d = cup_at(d, 1)
    out = Rewriter(["determiner"])(d).normal_form()
    assert out == word("flower", ts("n"))


def test_prepositional_phrase_order_drop():
    rule = make_rule("prepositional_phrase")
    box = Word("in", cod=ts("s.r", "n.rr", "n.r", "s", "n.l"))
    assert rule.matcher(box)
    frag = rule.transformer(box)
    assert frag.cod == box.cod and frag.dom == EMPTY
    inner = [b for b in frag.boxes if isinstance(b, Word)]
    caps = [b for b in frag.boxes if isinstance(b, Cap)]
    assert len(inner) == 1 and len(caps) == 1
    assert len(inner[0].cod) == len(box.cod) - 2  # order 5 -> 3
    assert caps[0] == Cap("n", 1)


def test_preposition_in_sentence_keeps_boundary():
    d = fixture_diagram("fix.2")  # john walks in the park
    rw = Rewriter(["prepositional_phrase"])
    out = rw(d)
    assert out.dom == d.dom and out.cod == d.cod
    ins = [b for b in out.boxes if isinstance(b, Word) and b.token == "in"]
    assert len(ins[0].cod) == 3


def test_auxiliary_nested_caps():
    rule = make_rule("auxiliary")
    does = Word("does", cod=ts("n.r", "s", "s.l", "n"))
    assert rule.matcher(does)
    frag = rule.transformer(does)
    assert frag.cod == does.cod
    assert frag.boxes == [Cap("n", 0), Cap("s", -1)]


def test_connector_caps():
    rule = make_rule("connector")
    that = Word("that", cod=ts("s", "s.l"))
    assert rule.matcher(that)
    assert rule.transformer(that).boxes == [Cap("s", -1)]


def test_adverb_rules():
    pre = make_rule("preadverb")
    quickly = Word("quickly", cod=ts("n.r", "s", "s.l", "n"))
    assert pre.matcher(quickly)
    frag = pre.transformer(quickly)
    assert frag.cod == quickly.cod
    assert sum(isinstance(b, Cap) for b in frag.boxes) == 1

    post = make_rule("postadverb")
    loudly = Word("quickly", cod=ts("s.r", "n.rr", "n.r", "s"))
    assert post.matcher(loudly)
    frag = post.transformer(loudly)
    assert frag.cod == loudly.cod
    inner = [b for b in frag.boxes if isinstance(b, Word)][0]
    assert inner.cod == ts("s.r", "s")


def test_first_match_wins():
    # "that" matches connector before a hypothetical later rule
    rw = Rewriter(["connector", "auxiliary"])
    that = word("that", ts("s", "s.l"))
    out = rw(that)
    assert out.boxes == [Cap("s", -1)]


def test_word_lists_overridable():
    rule = make_rule("determiner")
    assert rule.matcher(Word("the", cod=ts("n", "n.l")))
    custom = make_rule("determiner", frozenset({"yonder"}))
    assert not custom.matcher(Word("the", cod=ts("n", "n.l")))
    assert custom.matcher(Word("yonder", cod=ts("n", "n.l")))


def test_load_bundled_wordlists():
    for name in ["determiners", "auxiliaries", "connectors", "prepositions",
                 "adverbs"]:
        words = load_wordlist(name)
        assert words and all(w == w.lower() for w in words)


@pytest.mark.parametrize("fid", [f"fix.{i}" for i in range(1, 25)])
def test_all_rules_preserve_boundaries_on_fixtures(fid):
    d = fixture_diagram(fid)
    rw = Rewriter(list(RULE_NAMES))
    out = apply(rw, d)
    assert out.dom == d.dom and out.cod == d.cod
    nf = out.normal_form()
    assert nf.dom == d.dom and nf.cod == d.cod
