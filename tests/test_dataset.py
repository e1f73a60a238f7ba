import pytest

from synq.ccg import parse_auto, tree_to_diagram
from synq.dataset import (
    FOOD, IT, SEED_SENTENCES, OutOfGrammar, generate_dataset,
    sentence_to_auto, write_auto,
)
from synq.types import ts


def test_sizes_and_balance():
    ds = generate_dataset(0)
    assert len(ds.items) == 130
    assert len(ds.train) == 70 and len(ds.dev) == 30 and len(ds.test) == 30
    assert not (set(ds.train) & set(ds.dev)) and not (set(ds.dev) & set(ds.test))
    for split in ("train", "dev", "test"):
        labels = ds.labels(split)
        assert sum(labels) == len(labels) // 2


def test_seed_sentences_present():
    ds = generate_dataset(0)
    texts = dict(ds.items)
    for text, label in SEED_SENTENCES.items():
        assert texts[text] == label


def test_unique_and_deterministic():
    a, b = generate_dataset(3), generate_dataset(3)
    assert a == b
    assert len({t for t, _ in a.items}) == 130
    assert generate_dataset(4) != a


def test_vocabularies_disjoint():
    food = {w for v in FOOD.values() for w in v}
    it = {w for v in IT.values() for w in v}
    assert not food & it


def test_every_sentence_derivation_converts():
    ds = generate_dataset(0)
    for text, _ in ds.items:
        (tree,) = parse_auto(sentence_to_auto(text))
        d = tree_to_diagram(tree)
        assert d.cod == ts("s")
        tokens = [b.token for b in d.boxes
                  if hasattr(b, "token")]
        assert tokens == text.split()


def test_write_auto(tmp_path):
    ds = generate_dataset(2)
    write_auto(ds, tmp_path / "d.auto")
    lines = (tmp_path / "d.auto").read_text().splitlines()
    assert len(lines) == 260
    assert lines[0] == "ID=0"


@pytest.mark.parametrize("text, reason", [
    ("john sleeps", "2 words"),
    ("chef prepares meal quickly", "4 words"),
    ("john prepares meal", "'john' is not one of its subjects"),
    ("chef sleeps meal", "'sleeps' is not one of its verbs"),
])
def test_out_of_grammar_named(text, reason):
    with pytest.raises(OutOfGrammar) as err:
        sentence_to_auto(text)
    assert isinstance(err.value, ValueError)
    assert repr(text) in str(err.value) and reason in str(err.value)
