import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synq.diagram import (
    Cap, Cup, Diagram, IllTyped, ParseError, Spider, Swap, TypeMismatch,
    Word, cup_at, word,
)
from synq.types import EMPTY, PType, TypeSeq, ts


def five_word_sentence() -> Diagram:
    """The transitive-with-indirect-object sentence diagram, 5 words 4 cups."""
    d = (word("john", ts("n"))
         @ word("gave", ts("n.r", "s", "n.l", "n.l"))
         @ word("mary", ts("n"))
         @ word("a", ts("n", "n.l"))
         @ word("flower", ts("n")))
    for offset in (7, 4, 3, 0):
        d = cup_at(d, offset)
    return d


class TestTypeChecking:
    def test_five_word_sentence_checks(self):
        d = five_word_sentence()
        assert d.dom == EMPTY and d.cod == ts("s")
        assert len(d.boxes) == 9

    def test_bad_offset_rejected(self):
        with pytest.raises(IllTyped):
            Diagram(EMPTY, ts("n"), ((Word("x", EMPTY, ts("n")), 3),))

    def test_bad_window_rejected(self):
        with pytest.raises(IllTyped):
            Diagram(ts("n", "s"), EMPTY, ((Cup("n", 0), 0),))

    def test_cup_cap_shapes(self):
        assert Cup("n", -1).dom == ts("n.l", "n")
        assert Cap("n", -1).cod == ts("n", "n.l")
        assert Cap("n", 0).cod == ts("n.r", "n")
        assert Spider("s", 0, 3, 1).dom == ts("s", "s", "s")
        assert Swap(PType("n"), PType("s")).cod == ts("s", "n")


class TestComposeTensor:
    def test_identity_laws(self):
        d = five_word_sentence()
        assert d >> Diagram.identity(d.cod) == d
        assert Diagram.identity(d.dom) >> d == d

    def test_type_mismatch_reports_both(self):
        john = word("john", ts("n"))
        cup = Diagram.from_box(Cup("n", 0))
        with pytest.raises(TypeMismatch) as err:
            john >> cup
        assert "n" in str(err.value) and "n.r" in str(err.value)

    def test_tensor_unit_and_cod(self):
        d = five_word_sentence()
        empty = Diagram()
        assert empty @ d == d
        assert d @ empty == d
        a, b = word("a", ts("n")), word("b", ts("n"))
        assert (a @ b).cod == ts("n", "n")
        assert (a @ b).cod == a.cod @ b.cod

    @pytest.mark.parametrize("offset", [-1, 1, 2])
    def test_cup_offset_out_of_range_is_named(self, offset):
        d = word("a", ts("n", "n.r"))
        with pytest.raises(IllTyped,
                           match=f"offset {offset} out of range for 2 wires"):
            cup_at(d, offset)
        assert cup_at(d, 0).cod == EMPTY


def random_diagram_strategy():
    """Grow a diagram from the empty one by tensoring words and bending cups."""
    base = st.sampled_from(["n", "s"])
    z = st.integers(min_value=-2, max_value=2)
    ptype = st.builds(PType, base, z)

    @st.composite
    def diagrams(draw):
        n_words = draw(st.integers(min_value=0, max_value=4))
        d = Diagram()
        for i in range(n_words):
            cod = TypeSeq(tuple(draw(st.lists(ptype, min_size=1, max_size=3))))
            d = d @ word(f"w{i}", cod)
        # append cups wherever adjacent wires cancel
        for _ in range(draw(st.integers(min_value=0, max_value=3))):
            options = [
                i for i in range(len(d.cod) - 1)
                if d.cod[i].base == d.cod[i + 1].base
                and d.cod[i].z + 1 == d.cod[i + 1].z
            ]
            if not options:
                break
            i = draw(st.sampled_from(options))
            cup = Cup(d.cod[i].base, d.cod[i].z)
            layer = Diagram(d.cod, d.cod[:i] @ d.cod[i + 2:], ((cup, i),))
            d = d >> layer
        return d

    return diagrams()


class TestSerialization:
    def test_round_trip_five_words(self):
        d = five_word_sentence()
        assert Diagram.from_json(d.to_json()) == d

    def test_empty_diagram_shape(self):
        assert json.loads(Diagram().to_json()) == {
            "dom": [], "cod": [], "layers": []}

    def test_truncated_document(self):
        text = five_word_sentence().to_json()
        with pytest.raises(ParseError) as err:
            Diagram.from_json(text[: len(text) // 2])
        assert err.value.offset > 0

    def test_garbage_rejected(self):
        with pytest.raises(ParseError):
            Diagram.from_json('{"dom": [], "cod": []}')
        with pytest.raises(ParseError):
            Diagram.from_json(
                '{"dom": [], "cod": [], "layers": [{"box": {"kind": "nope"}, "offset": 0}]}')

    @settings(max_examples=100)
    @given(random_diagram_strategy())
    def test_round_trip_random(self, d):
        assert Diagram.from_json(d.to_json()) == d


class TestNormalForm:
    @pytest.mark.parametrize("base", ["n", "s"])
    @pytest.mark.parametrize("z", [-2, -1, 0, 1, 2])
    def test_both_snakes_yank_to_identity(self, base, z):
        up = PType(base, z + 1)
        down = PType(base, z)
        # cap then cup to the right: identity on a^(z+1)
        right = Diagram(TypeSeq((up,)), TypeSeq((up,)),
                        ((Cap(base, z), 0), (Cup(base, z), 1)))
        assert right.normal_form() == Diagram.identity(TypeSeq((up,)))
        # cap to the right then cup on the left: identity on a^z
        left = Diagram(TypeSeq((down,)), TypeSeq((down,)),
                       ((Cap(base, z), 1), (Cup(base, z), 0)))
        assert left.normal_form() == Diagram.identity(TypeSeq((down,)))

    def test_no_caps_fixed_point(self):
        d = five_word_sentence()
        assert d.normal_form() == d

    def test_nested_snakes(self):
        n = ts("n")
        d = Diagram(n, n, ((Cap("n", 0), 1), (Cap("n", 0), 3),
                           (Cup("n", 0), 2), (Cup("n", 0), 0)))
        assert d.normal_form() == Diagram.identity(n)

    def test_snake_with_obstructions_on_both_sides(self):
        # cap, a box eating its right leg, a box feeding the cup's left slot
        d = Diagram(EMPTY, EMPTY, (
            (Cap("n", 0), 0),
            (Word("eat", ts("n"), EMPTY), 1),
            (Word("make", EMPTY, ts("n")), 0),
            (Cup("n", 0), 0),
        ))
        nf = d.normal_form()
        assert nf == Diagram(EMPTY, EMPTY, (
            (Word("make", EMPTY, ts("n")), 0),
            (Word("eat", ts("n"), EMPTY), 0),
        ))

    def test_determiner_shape_yanks_to_word(self):
        d = Diagram(EMPTY, ts("n"), (
            (Cap("n", -1), 0),
            (Word("flower", EMPTY, ts("n")), 2),
            (Cup("n", -1), 1),
        ))
        assert d.normal_form() == word("flower", ts("n"))

    @settings(max_examples=100)
    @given(random_diagram_strategy())
    def test_normal_form_preserves_types(self, d):
        nf = d.normal_form()
        assert nf.dom == d.dom and nf.cod == d.cod
