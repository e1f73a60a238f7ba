import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synq.ccg import (
    Atomic, Backward, DerivationError, Forward, Leaf, Node, ParseError,
    UnknownCategory, _strip_conj, cat_to_typeseq, parse_auto, parse_category,
    scan_auto, section_to_diagrams, tree_to_diagram,
)
from synq.diagram import Cap, Cup, Swap, Word
from synq.rewrite import RULE_NAMES, Rewriter
from synq.types import EMPTY, reduce, reduces_to, ts

FIXTURES = Path(__file__).parent / "data" / "fixtures.auto"


class TestCategoryParsing:
    def test_atoms_and_features(self):
        assert parse_category("N") == Atomic("N")
        assert parse_category("S[dcl]") == Atomic("S", "dcl")
        assert parse_category("NP[conj]") == Atomic("NP", None, conj=True)

    def test_slashes_left_associative(self):
        assert parse_category("NP/N") == Forward(Atomic("NP"), Atomic("N"))
        got = parse_category("(S\\NP)/NP")
        assert got == Forward(Backward(Atomic("S"), Atomic("NP")), Atomic("NP"))
        assert parse_category("S\\NP/NP") == got

    def test_nested(self):
        c = parse_category("((S[dcl]\\NP)/NP)/NP")
        assert isinstance(c, Forward) and isinstance(c.result, Forward)

    def test_bad_categories(self):
        for bad in ["", "(", "S[dcl", "S)", "N/"]:
            with pytest.raises(UnknownCategory):
                parse_category(bad)

    def test_conj_stripped_after_hashing(self):
        # a hashed category keeps its hash on the instance, no field
        c = parse_category("(S\\NP)[conj]")
        hash(c)
        want = Backward(Atomic("S"), Atomic("NP"))
        assert _strip_conj(c) == want and hash(_strip_conj(c)) == hash(want)


class TestAutoParsing:
    def test_leaf(self):
        (tree,) = parse_auto("(<L N NN NN flower N>)")
        assert tree == Leaf("flower", Atomic("N"))

    def test_forward_application_node(self):
        (tree,) = parse_auto(
            "(<T NP 0 2> (<L NP/N DT DT a NP/N>) (<L N NN NN flower N>))")
        assert isinstance(tree, Node)
        assert tree.category == Atomic("NP")
        assert tree.rule == "FA"
        assert tree.children == (
            Leaf("a", Forward(Atomic("NP"), Atomic("N"))),
            Leaf("flower", Atomic("N")))

    def test_empty_input(self):
        assert parse_auto("") == []
        assert parse_auto("ID=wsj_0001.1 PARSER=GOLD\n\n") == []

    def test_malformed(self):
        with pytest.raises(ParseError):
            parse_auto("(<L N NN NN flower N>")
        with pytest.raises(ParseError):
            parse_auto("(<T NP 0 5> (<L N NN NN x N>))")
        with pytest.raises(ParseError):
            parse_auto("(<X NP 0 2>)")


class TestCatToTypeseq:
    def test_determiner(self):
        assert cat_to_typeseq(parse_category("NP/N")) == ts("n", "n.l")

    def test_transitive_verb(self):
        assert cat_to_typeseq(parse_category("(S\\NP)/NP")) == ts("n.r", "s", "n.l")

    def test_preposition_order_five(self):
        got = cat_to_typeseq(parse_category("((S\\NP)\\(S\\NP))/NP"))
        assert got == ts("s.r", "n.rr", "n.r", "s", "n.l")

    def test_sentence_features_collapse(self):
        for cat in ["S", "S[dcl]", "S[b]", "S[em]"]:
            assert cat_to_typeseq(parse_category(cat)) == ts("s")

    def test_pp_maps_to_noun(self):
        assert cat_to_typeseq(parse_category("PP")) == ts("n")

    def test_unknown_atom(self):
        with pytest.raises(UnknownCategory):
            cat_to_typeseq(Atomic("conj"))

    def test_conj_marking(self):
        assert cat_to_typeseq(parse_category("NP[conj]")) == ts("n.r", "n")


def atoms():
    return st.sampled_from([Atomic("N"), Atomic("NP"), Atomic("S"),
                            Atomic("S", "dcl"), Atomic("PP")])


def categories(depth=3):
    return st.recursive(
        atoms(),
        lambda inner: st.builds(Forward, inner, inner)
        | st.builds(Backward, inner, inner),
        max_leaves=depth + 1)


class TestCompositionality:
    @settings(max_examples=200)
    @given(categories(), categories())
    def test_application_reduces(self, x, y):
        fwd = cat_to_typeseq(Forward(x, y)) @ cat_to_typeseq(y)
        assert reduces_to(fwd, cat_to_typeseq(x))
        bwd = cat_to_typeseq(y) @ cat_to_typeseq(Backward(x, y))
        assert reduces_to(bwd, cat_to_typeseq(x))


class TestTreeToDiagram:
    def test_a_flower(self):
        (tree,) = parse_auto(
            "(<T NP 0 2> (<L NP/N DT DT a NP/N>) (<L N NN NN flower N>))")
        d = tree_to_diagram(tree)
        assert d.dom == EMPTY and d.cod == ts("n")
        assert d.boxes == [
            Word("a", EMPTY, ts("n", "n.l")),
            Word("flower", EMPTY, ts("n")),
            Cup("n", -1)]

    def test_five_word_paper_sentence(self):
        text = FIXTURES.read_text().splitlines()[1]
        (tree,) = parse_auto(text)
        d = tree_to_diagram(tree)
        words = [b for b in d.boxes if isinstance(b, Word)]
        cups = [b for b in d.boxes if isinstance(b, Cup)]
        assert [w.token for w in words] == ["john", "gave", "mary", "a", "flower"]
        assert len(cups) == 4
        assert d.cod == ts("s")

    def test_leaf_only(self):
        d = tree_to_diagram(Leaf("flower", Atomic("N")))
        assert d.boxes == [Word("flower", EMPTY, ts("n"))]

    def test_type_raising_emits_cap(self):
        (tree,) = parse_auto(
            "(<T S[dcl]/(S[dcl]\\NP) 0 1> (<L NP NNP NNP john NP>))")
        assert tree.rule == "TR"
        d = tree_to_diagram(tree)
        assert any(isinstance(b, Cap) for b in d.boxes)
        assert d.cod == ts("s", "s.l", "n")

    def test_crossed_composition_uses_swaps(self):
        line = ("(<T (S[dcl]\\NP)/NP 0 2> "
                "(<L (S[dcl]\\NP)/NP VBD VBD picked (S[dcl]\\NP)/NP>) "
                "(<L (S\\NP)\\(S\\NP) RP RP up (S\\NP)\\(S\\NP)>))")
        (tree,) = parse_auto(line)
        assert tree.rule == "BX"
        d = tree_to_diagram(tree)
        assert any(isinstance(b, Swap) for b in d.boxes)
        assert d.cod == ts("n.r", "s", "n.l")

    def test_forward_crossed_composition(self):
        tree = Node(
            Backward(Atomic("S"), Atomic("NP")), "FX",
            (Leaf("f", Forward(Atomic("S"), Atomic("S"))),
             Leaf("g", Backward(Atomic("S"), Atomic("NP")))))
        d = tree_to_diagram(tree)
        assert any(isinstance(b, Swap) for b in d.boxes)
        assert d.cod == ts("n.r", "s")

    def test_generic_unary_bridge_box(self):
        tree = Node(
            Backward(Atomic("NP"), Atomic("NP")), "UNARY",
            (Node(Atomic("S", "dcl"), "BA",
                  (Leaf("john", Atomic("NP")),
                   Leaf("sleeps", Backward(Atomic("S", "dcl"), Atomic("NP"))))),))
        d = tree_to_diagram(tree)
        bridges = [b for b in d.boxes
                   if isinstance(b, Word) and b.dom != EMPTY]
        assert len(bridges) == 1
        assert bridges[0].dom == ts("s") and bridges[0].cod == ts("n.r", "n")
        assert d.cod == ts("n.r", "n")

    def test_conjunction(self):
        text = [l for l in FIXTURES.read_text().splitlines()
                if "and" in l][0]
        (tree,) = parse_auto(text)
        d = tree_to_diagram(tree)
        assert d.cod == ts("s")
        and_words = [b for b in d.boxes
                     if isinstance(b, Word) and b.token == "and"]
        assert and_words[0].cod == ts("n.r")

    def test_punctuation_scalar_word(self):
        line = ("(<T S[dcl] 0 2> (<T S[dcl] 1 2> (<L NP NNP NNP john NP>) "
                "(<L S[dcl]\\NP VBZ VBZ sleeps S[dcl]\\NP>)) (<L . . . . .>))")
        (tree,) = parse_auto(line)
        d = tree_to_diagram(tree)
        dots = [b for b in d.boxes if isinstance(b, Word) and b.token == "."]
        assert dots == [Word(".", EMPTY, EMPTY)]
        assert d.cod == ts("s")

    def test_mismatched_rule_raises(self):
        with pytest.raises(DerivationError):
            parse_auto("(<T NP 0 2> (<L NP/N DT DT a NP/N>) (<L S X X x S>))")

    def test_cups_past_the_wires_are_named(self):
        # built directly, past the rule inference that parse_auto runs: the
        # argument NP/NP needs two cups, the right child gives one wire
        tree = Node(parse_category("S"), "FA", (
            Leaf("x", parse_category("S/(NP/NP)")),
            Leaf("y", parse_category("NP"))))
        with pytest.raises(DerivationError,
                           match="cup offset 1 out of range for 2 wires"):
            tree_to_diagram(tree)


def read_auto(path):
    """Derivation lines of an AUTO file, keyed as ``scan_auto`` keys them."""
    return {key: line for key, _, line in scan_auto(path.read_text())}


class TestReadAuto:
    """AUTO files read through ``scan_auto``."""

    def test_fixture_ids_are_strings(self):
        derivations = read_auto(FIXTURES)
        lines = FIXTURES.read_text().splitlines()
        assert list(derivations)[:2] == ["fix.1", "fix.2"]
        assert derivations["fix.6"] == lines[lines.index(
            "ID=fix.6 PARSER=GOLD NUMPARSE=1") + 1]

    def test_integer_and_headerless_ids(self, tmp_path):
        leaf = "(<L N NN NN flower N>)"
        (tmp_path / "ids.auto").write_text(f"ID=0\n{leaf}\n\nID=1\n{leaf}\n")
        (tmp_path / "bare.auto").write_text(f"{leaf}\n{leaf}\n")
        assert read_auto(tmp_path / "ids.auto") == {"0": leaf, "1": leaf}
        assert read_auto(tmp_path / "bare.auto") == {"0": leaf, "1": leaf}

    @pytest.mark.parametrize("text", ["ID=\n(<L N NN NN a N>)\n",
                                      "ID=a\n(<L N NN NN a N>)\n"
                                      "ID=a\n(<L N NN NN b N>)\n"])
    def test_empty_or_repeated_id(self, tmp_path, text):
        (tmp_path / "bad.auto").write_text(text)
        with pytest.raises(ParseError):
            read_auto(tmp_path / "bad.auto")


class TestSectionConversion:
    def test_error_isolation(self, tmp_path):
        good = "(<T NP 0 2> (<L NP/N DT DT a NP/N>) (<L N NN NN flower N>))"
        bad = "(<T NP 0 2> (<L NP/N DT DT a NP/N>) (<L QQQ NN NN x QQQ>))"
        (tmp_path / "s.auto").write_text(f"{good}\n{bad}\n{good}\n")
        results = section_to_diagrams(tmp_path)
        assert [r.ok for r in results] == [True, False, True]
        assert "QQQ" in results[1].error

    def test_empty_directory(self, tmp_path):
        assert section_to_diagrams(tmp_path) == []

    def test_error_names_the_file_line(self, tmp_path):
        good = "(<T NP 0 2> (<L NP/N DT DT a NP/N>) (<L N NN NN flower N>))"
        text = f"ID=a\n{good}\nID=b\n{good[:40]}\n"
        (tmp_path / "s.auto").write_text(text)
        with pytest.raises(ParseError) as exc:
            parse_auto(text)
        assert exc.value.line == 4
        results = section_to_diagrams(tmp_path)
        assert [r.ok for r in results] == [True, False]
        assert results[1].error == str(exc.value)

    def test_auto_examples_in_one_file(self, tmp_path):
        lines = [
            "(<L N NN NN flower N>)",
            "(<T NP 0 2> (<L NP/N DT DT a NP/N>) (<L N NN NN flower N>))",
        ]
        (tmp_path / "s.auto").write_text("\n".join(lines) + "\n")
        results = section_to_diagrams(tmp_path)
        assert len(results) == 2 and all(r.ok for r in results)

    def test_fixture_file_all_convert(self):
        results = section_to_diagrams(FIXTURES)
        assert len(results) >= 20
        assert all(r.ok for r in results), [r.error for r in results if not r.ok]
        for r in results:
            root = r.diagram.cod
            if reduce(root) == ts("s") or root == ts("s"):
                assert reduces_to(root, ts("s"))

    def test_fixture_s_rooted_reduce_to_s(self):
        text = FIXTURES.read_text()
        ids, trees = [], []
        current = None
        for line in text.splitlines():
            if line.startswith("ID="):
                current = line.split()[0][3:]
            elif line.strip():
                (tree,) = parse_auto(line)
                ids.append(current)
                trees.append(tree)
        s_rooted = [
            (i, t) for i, t in zip(ids, trees)
            if isinstance(t.category, Atomic) and t.category.name == "S"]
        assert len(s_rooted) >= 15
        for i, tree in s_rooted:
            d = tree_to_diagram(tree)
            assert reduces_to(d.cod, ts("s")), i


FIXTURE_LINES = FIXTURES.read_text().splitlines()
HEADERS = [i for i, line in enumerate(FIXTURE_LINES) if line.startswith("ID=")]
DERIVATIONS = [i for i, line in enumerate(FIXTURE_LINES)
               if line and not line.startswith("ID=")]
CATEGORY = re.compile(r"<[LT] (\S+) ")
FIXTURE_CATEGORIES = sorted({m.group(1) for line in FIXTURE_LINES
                             for m in CATEGORY.finditer(line)})


@st.composite
def mutated_fixtures(draw):
    """The fixture text with one line mutated, and the file line of the
    derivation that the mutation touches."""
    lines = list(FIXTURE_LINES)
    kind = draw(st.sampled_from(["truncate", "parenthesis", "category", "id"]))
    if kind == "id":  # a header repeats the ID of an earlier one
        j = draw(st.integers(min_value=1, max_value=len(HEADERS) - 1))
        lines[HEADERS[j]] = lines[HEADERS[draw(st.integers(0, j - 1))]]
        return "\n".join(lines), HEADERS[j] + 2
    k = draw(st.sampled_from(DERIVATIONS))
    line = lines[k]
    if kind == "truncate":
        line = line[:draw(st.integers(0, len(line) - 1))]
    elif kind == "parenthesis":
        at = draw(st.sampled_from(
            [i for i, ch in enumerate(line) if ch in "()"]))
        line = line[:at] + line[at + 1:]
    else:
        start, end = draw(st.sampled_from(
            [m.span(1) for m in CATEGORY.finditer(line)]))
        line = line[:start] + draw(st.sampled_from(FIXTURE_CATEGORIES)) \
            + line[end:]
    lines[k] = line
    return "\n".join(lines), k + 1


class TestMutatedAuto:
    @settings(max_examples=200, deadline=None)
    @given(mutated_fixtures())
    def test_only_named_errors_escape(self, mutated):
        text, lineno = mutated
        rewriter = Rewriter(RULE_NAMES)
        try:
            for tree in parse_auto(text):
                rewriter(tree_to_diagram(tree)).normal_form()
        except ParseError as exc:
            assert exc.line == lineno, exc
        except (UnknownCategory, DerivationError):
            pass
