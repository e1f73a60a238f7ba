import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synq import ccg
from synq.ccg import (
    RULES, Atomic, Backward, DerivationError, Forward, Leaf, Node,
    ParseError, UnknownCategory, _strip_conj, cat_to_typeseq, parse_auto,
    line_to_diagram, parse_category, scan_auto, section_to_diagrams,
    tree_to_diagram,
)
from synq.dataset import generate_dataset, sentence_to_auto
from synq.diagram import Cap, Cup, Swap, Word
from synq.rewrite import RULE_NAMES, Rewriter
from synq.types import EMPTY, PType, reduce, reduces_to, ts

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

    @pytest.mark.parametrize("text", [
        "(" * 2000 + "N" + ")" * 2000, "N" + "/N" * 3000,
        "(" * 60 + "N" + ")" * 60 + "\\N" * 41],
        ids=["parentheses", "slashes", "both"])
    def test_deep_nesting_is_refused_by_name(self, text):
        # parentheses and slashes both count toward the bound
        with pytest.raises(UnknownCategory, match="nests too deep"):
            parse_category(text)

    def test_nesting_up_to_the_bound_is_read(self):
        c = parse_category("(" * 50 + "N" + ")" * 50 + "/N" * 50)
        assert len(cat_to_typeseq(c)) == 51 and hash(c) == hash(c)

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

    def test_repr_reads_as_the_fields(self):
        n, np_ = Atomic("N"), Atomic("NP")
        leaf = Leaf("flower", n)
        assert repr(leaf) == f"Leaf(token='flower', category={n!r})"
        assert repr(Node(np_, "LEX", (leaf,))) == (
            f"Node(category={np_!r}, rule='LEX', children=({leaf!r},))")
        pair = Node(np_, "FA", (Leaf("a", Forward(np_, n)), leaf))
        assert repr(pair) == (
            f"Node(category={np_!r}, rule='FA', children="
            f"({pair.children[0]!r}, {leaf!r}))")

    def test_deep_unary_chain_compares_hashes_and_prints(self):
        # a chain of unary LEX nodes deeper than a recursive comparison,
        # hash or repr reaches
        def chain(token):
            (tree,) = parse_auto("(<T NP 0 1> " * 400
                                 + f"(<L N NN NN {token} N>)" + " )" * 400)
            return tree

        tree, same, other = chain("meal"), chain("meal"), chain("cake")
        assert tree.rule == "LEX"
        assert tree is not same and tree == same and hash(tree) == hash(same)
        assert tree != other and not tree == other
        text = repr(tree)
        assert text.count("Node(") == 400 and text.count("'meal'") == 1
        assert text.endswith(",))" * 400)


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

    @pytest.mark.parametrize("rule", [r for r in RULES
                                      if r not in ("TR", "LEX", "UNARY")])
    def test_hand_built_misfit_rule_is_named(self, rule):
        # N/N cannot combine as the right child with N on its left under
        # any binary rule; built directly, past parse_auto's inference
        n = parse_category("N")
        tree = Node(n, rule, (Leaf("meal", n),
                              Leaf("red", parse_category("N/N"))))
        with pytest.raises(DerivationError, match=re.escape(
                f"rule {rule} does not combine N and N/N into N")):
            tree_to_diagram(tree)


RUNS = "(<L S[dcl]\\NP VBZ VBZ runs S[dcl]\\NP>)"
N_R, S, S_L = PType("n", 1), PType("s"), PType("s", -1)


class TestRuleConversions:
    """Conversions of the rules no other derivation reaches, each parsed
    from its AUTO line, its layers and codomain pinned."""

    @pytest.mark.parametrize("line, rules, layers, cod", [
        (f"(<T S[dcl]\\NP 0 2> {RUNS} (<L S\\S RB RB quickly S\\S>))",
         ["BC"],
         ((Word("runs", EMPTY, ts("n.r", "s")), 0),
          (Word("quickly", EMPTY, ts("s.r", "s")), 2), (Cup("s", 0), 1)),
         ts("n.r", "s")),
        (f"(<T S[dcl]\\NP 0 2> (<L S/S RB RB surely S/S>) {RUNS})",
         ["FX"],
         ((Word("surely", EMPTY, ts("s", "s.l")), 0),
          (Word("runs", EMPTY, ts("n.r", "s")), 2),
          (Swap(S_L, N_R), 1), (Swap(S, N_R), 0), (Cup("s", -1), 2)),
         ts("n.r", "s")),
        ("(<T S[dcl] 1 2> (<L S[dcl]/NP VBZ VBZ likes S[dcl]/NP>) "
         "(<T S[dcl]\\(S[dcl]/NP) 0 1> (<L NP NNP NNP john NP>)))",
         ["BA", "TR"],
         ((Word("likes", EMPTY, ts("s", "n.l")), 0),
          (Word("john", EMPTY, ts("n")), 2), (Cap("s", 0), 3),
          (Cup("n", -1), 1), (Cup("s", 0), 0)),
         ts("s")),
        (f"(<T S[dcl] 1 2> (<L , , , , ,>) (<T S[dcl] 1 2> "
         f"(<L NP NNP NNP john NP>) (<L S[dcl]\\NP VBZ VBZ sleeps "
         f"S[dcl]\\NP>)))",
         ["CONJ", "BA"],
         ((Word(",", EMPTY, EMPTY), 0), (Word("john", EMPTY, ts("n")), 0),
          (Word("sleeps", EMPTY, ts("n.r", "s")), 1), (Cup("n", 0), 0)),
         ts("s")),
    ], ids=["backward-composition", "forward-crossed-composition",
            "backward-type-raising", "punctuation-before"])
    def test_conversion(self, line, rules, layers, cod):
        (tree,) = parse_auto(line)
        found, stack = [], [tree]
        while stack:
            t = stack.pop()
            if isinstance(t, Node):
                found.append(t.rule)
                stack.extend(reversed(t.children))
        assert found == rules
        d = tree_to_diagram(tree)
        assert d.layers == layers and d.cod == cod and d.dom == EMPTY
        assert line_to_diagram(line) == d

    def test_backward_raised_argument_normalises_to_application(self):
        # the cap on the right of the raised NP yanks away
        likes = "(<L S[dcl]/NP VBZ VBZ likes S[dcl]/NP>)"
        john = "(<L NP NNP NNP john NP>)"
        (raised,) = parse_auto(f"(<T S[dcl] 1 2> {likes} "
                               f"(<T S[dcl]\\(S[dcl]/NP) 0 1> {john}))")
        (applied,) = parse_auto(f"(<T S[dcl] 0 2> {likes} {john})")
        assert applied.rule == "FA"
        assert tree_to_diagram(raised).normal_form() \
            == tree_to_diagram(applied)

    @pytest.mark.parametrize("line, reason, column", [
        ("(<L N NN NN flower N>) (<L N NN NN x N>)",
         "trailing characters after derivation", 24),
        ("(<T NP 0> (<L N NN NN x N>))",
         "internal header needs 4 fields, got 3", 10),
        ("(<T NP 0 x> (<L N NN NN x N>))", "bad child count 'x'", 12),
    ])
    def test_parse_errors_name_their_column(self, line, reason, column):
        for text, lineno in ((line, 1), (f"ID=a\n\n{line}\n", 3)):
            with pytest.raises(ParseError) as exc:
                parse_auto(text)
            assert (exc.value.reason, exc.value.line, exc.value.column) \
                == (reason, lineno, column)
            with pytest.raises(ParseError) as exc:
                line_to_diagram(line, lineno)
            assert str(exc.value) == \
                f"{reason} (line {lineno}, column {column})"


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

    def test_non_utf8_file_is_skipped(self, tmp_path):
        good = "(<L N NN NN flower N>)"
        (tmp_path / "a.auto").write_bytes(b"(<L N NN NN fl\xe9 N>)\n")
        (tmp_path / "b.auto").write_text(f"{good}\n")
        results = section_to_diagrams(tmp_path)
        assert [(r.derivation_id, r.ok) for r in results] == [
            ("a.auto", False), ("0", True)]
        assert "0xe9 in position 14" in results[0].error

    def test_deeply_nested_category_is_refused_by_name(self, tmp_path):
        good = "(<T NP 0 2> (<L NP/N DT DT a NP/N>) (<L N NN NN flower N>))"
        deep = "(" * 2000 + "N" + ")" * 2000
        bad = good.replace("(<L N NN NN", f"(<L {deep} NN NN")
        with pytest.raises(UnknownCategory, match="nests too deep"):
            line_to_diagram(bad)
        (tmp_path / "s.auto").write_text(f"ID=a\n{bad}\nID=b\n{good}\n")
        results = section_to_diagrams(tmp_path)
        assert [(r.derivation_id, r.ok) for r in results] == [
            ("a", False), ("b", True)]
        assert "nests too deep" in results[0].error
        assert results[1].diagram == line_to_diagram(good)

    @pytest.mark.parametrize("indent", ["    ", "\t", " \t "])
    def test_indented_line_errors_name_the_file_column(self, tmp_path,
                                                        indent):
        line = "(<T S[dcl] 1 2> (<L N NN NN chef N>) junk"
        column = len(indent) + line.index("junk") + 1  # 42 under 4 spaces
        (tmp_path / "s.auto").write_text(f"ID=a\n{indent}{line}\n")
        with pytest.raises(ParseError) as exc:
            parse_auto(f"{indent}{line}")
        assert (exc.value.reason, exc.value.line, exc.value.column) == (
            "expected '('", 1, column)
        (result,) = section_to_diagrams(tmp_path)
        assert result.error == f"expected '(' (line 2, column {column})"

    @pytest.mark.parametrize("indent", ["    ", "\t"])
    def test_indented_lines_convert_as_unindented(self, tmp_path, indent):
        (tmp_path / "s.auto").write_text("\n".join(
            line if line.startswith("ID=") or not line else indent + line
            for line in FIXTURE_LINES))
        got = section_to_diagrams(tmp_path)
        want = section_to_diagrams(FIXTURES)
        assert len(got) == len(want) == len(DERIVATIONS)
        assert [(r.derivation_id, r.diagram) for r in got] \
            == [(r.derivation_id, r.diagram) for r in want]

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


# the token of a fixture leaf, its fifth header field
LEAF_TOKEN = re.compile(r"\(<L (?:\S+ ){3}(\S+) \S+>\)")


@st.composite
def token_mutations(draw):
    """A fixture derivation line with one leaf's token, or the space before
    or after it, replaced by a string of parentheses, angle brackets,
    spaces and letters, or by nothing."""
    line = FIXTURE_LINES[draw(st.sampled_from(DERIVATIONS))]
    start, end = draw(st.sampled_from(
        [m.span(1) for m in LEAF_TOKEN.finditer(line)]))
    text = draw(st.text(alphabet="()<> x", max_size=4))
    where = draw(st.sampled_from(["token", "before", "after"]))
    if where == "token":
        return line[:start] + text + line[end:]
    if where == "before":
        return line[:start - 1] + text + line[start:]
    return line[:end] + text + line[end + 1:]


def outcome(convert, line):
    """The diagram ``convert(line)`` gives, or the error it raises, with a
    ParseError's line and column."""
    try:
        return convert(line)
    except ParseError as exc:
        return "ParseError", exc.reason, exc.line, exc.column
    except (UnknownCategory, DerivationError) as exc:
        return type(exc).__name__, str(exc)


def uncached(line):
    """The diagram of ``line`` by the parse and conversion that keep
    nothing."""
    (tree,) = parse_auto(line)
    return tree_to_diagram(tree)


def assert_key_lifts_the_leaf_tokens(line):
    """On a line that parses, the cache key's ``_LEAF`` lifts exactly the
    tokens of the parsed tree's leaves, in order: so a later line of the
    key re-labels each word with its own leaf's token."""
    try:
        (tree,) = parse_auto(line)
    except (ParseError, UnknownCategory, DerivationError):
        return
    assert ccg._LEAF.split(line)[2::3] == ccg._shape(tree)[1], line


class TestLineCache:
    """A line whose tokens are lifted into a cached key converts as it does
    with the cache empty, and as the uncached parse and conversion do."""

    @settings(max_examples=300, deadline=None)
    @given(token_mutations())
    def test_warm_outcome_equals_cold(self, line):
        for k in DERIVATIONS:  # every fixture key cached
            line_to_diagram(FIXTURE_LINES[k])
        warm = outcome(line_to_diagram, line)
        ccg._line_templates.cache_clear()
        assert warm == outcome(line_to_diagram, line)
        assert warm == outcome(uncached, line)

    @settings(max_examples=200, deadline=None)
    @given(mutated_fixtures())
    def test_warm_mutated_lines_convert_as_uncached(self, mutated):
        for k in DERIVATIONS:  # every fixture key cached
            line_to_diagram(FIXTURE_LINES[k])
        try:
            found = list(scan_auto(mutated[0]))
        except ParseError:  # a mutated header
            return
        for _, _, line in found:
            assert outcome(line_to_diagram, line) == outcome(uncached, line)

    @settings(max_examples=300, deadline=None)
    @given(token_mutations())
    def test_key_lifts_the_leaf_tokens_of_a_mutated_token(self, line):
        assert_key_lifts_the_leaf_tokens(line)

    @settings(max_examples=300, deadline=None)
    @given(mutated_fixtures())
    def test_key_lifts_the_leaf_tokens_of_a_mutated_fixture(self, mutated):
        try:
            found = list(scan_auto(mutated[0]))
        except ParseError:  # a mutated header
            return
        for _, _, line in found:
            assert_key_lifts_the_leaf_tokens(line)

    def test_lines_of_one_key_hit_once(self):
        ccg._line_templates.cache_clear()
        line = FIXTURE_LINES[DERIVATIONS[0]]
        other = line.replace(" john ", " (<x ").replace(" gave ", " ) ")
        first, second = line_to_diagram(line), line_to_diagram(other)
        assert ccg._line_templates.cache_info()[:2] == (1, 1)  # hits, misses
        assert first == uncached(line) and second == uncached(other)
        words = [box.token for box, _ in second.layers
                 if isinstance(box, Word)]
        assert words == ["(<x", ")", "mary", "a", "flower"]

    @pytest.mark.parametrize("caches", ["cold", "warm"])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_every_line_converts_as_uncached(self, seed, caches):
        # cold: the cache emptied before each line; warm: emptied once, so
        # each later line of a key is re-labelled from the first
        lines = [FIXTURE_LINES[k] for k in DERIVATIONS]
        lines += [sentence_to_auto(text)
                  for text, _ in generate_dataset(seed).items]
        ccg._line_templates.cache_clear()
        for line in lines:
            if caches == "cold":
                ccg._line_templates.cache_clear()
            assert line_to_diagram(line) == uncached(line), line
        hits = ccg._line_templates.cache_info().hits
        assert hits == 0 if caches == "cold" else hits > len(lines) // 2

    def test_warm_line_builds_no_tree(self, monkeypatch):
        line = FIXTURE_LINES[DERIVATIONS[0]]
        other = line.replace(" john ", " bob ")
        line_to_diagram(line)
        want = uncached(other)

        def refuse(*args):
            raise AssertionError("parsed or converted")

        for name in ("_parse", "Leaf", "Node", "_Conversion"):
            monkeypatch.setattr(ccg, name, refuse)
        assert line_to_diagram(other) == want
        ccg._line_templates.cache_clear()
        with pytest.raises(AssertionError, match="parsed or converted"):
            line_to_diagram(other)  # a cold line does both
