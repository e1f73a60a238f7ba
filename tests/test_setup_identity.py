"""Set-up outputs are byte-identical to the recorded golden hashes.

``tests/data/setup_golden.json`` holds the sha256 of every compiled
artifact's ``to_json()``, of each initial ``store.to_vector()`` and of the
``to_json()`` of every fixture diagram after rewriting and ``normal_form``.
The memoised category and naming functions, and the templates of parsing,
conversion and compile, must not change any of them, whether their caches
are warm or cold; and since ``lru_cache`` never stores an exception, and a
template is kept only once it is built, a memoised function raises on
every call.

Regenerate the golden file, only for an intended change of output, with
``PYTHONPATH=src python tests/test_setup_identity.py > GOLDEN`` from the
repository root, GOLDEN being ``tests/data/setup_golden.json``.
"""
import hashlib
import json
from pathlib import Path

import pytest

from synq import ansatz, ccg, pipeline
from synq.ccg import parse_auto, scan_auto, tree_to_diagram
from synq.dataset import generate_dataset, sentence_to_auto, write_auto
from synq.diagram import Builder, Word
from synq.pipeline import (
    PipelineConfig, compile_diagram, compile_model, sentence_to_diagram,
)
from synq.readers import spiders_read, tokenize
from synq.rewrite import RULE_NAMES, Rewriter
from synq.types import ts

DATA = Path(__file__).parent / "data"
FIXTURES = DATA / "fixtures.auto"
GOLDEN = DATA / "setup_golden.json"
BOM = b"\xef\xbb\xbf"  # the UTF-8 byte-order mark

SEEDS = (0, 7)
REWRITES = {"none": (), "all": RULE_NAMES}
CONFIGS = [(reader, name, rules, seed)
           for reader in ("ccg", "cups", "spiders")
           for name in ("spider", "tensor", "mps", "iqp")
           if (reader, name) != ("spiders", "iqp")  # IQP has no spiders
           for rules in REWRITES
           for seed in SEEDS]
MEMOISED = (ccg.parse_category, ccg.cat_to_typeseq, ccg.infer_rule,
            ccg.infer_unary_rule, ansatz._signature, ccg._line_templates,
            pipeline._artifact_templates)
TEMPLATES = (ccg._line_templates, pipeline._artifact_templates)


def _key(config: tuple) -> str:
    return "/".join(map(str, config))


def _sha(parts) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part)
        digest.update(b"\n")
    return digest.hexdigest()


def _compile(reader: str, name: str, rules: str, seed: int):
    cfg = PipelineConfig(reader=reader, ansatz=name, rewrites=REWRITES[rules],
                         optimizer="spsa" if name == "iqp" else "adam",
                         seed=seed)
    return compile_model(cfg, generate_dataset(seed))


def _model_hashes(model) -> dict:
    return {
        "artifacts": _sha(a.to_json().encode() for a in model.artifacts),
        "vector": _sha([json.dumps(model.store.names()).encode(),
                        model.store.to_vector().tobytes()]),
    }


def _fixture_hash(rules: tuple[str, ...]) -> str:
    rewriter = Rewriter(list(rules))
    return _sha(rewriter(tree_to_diagram(tree)).normal_form().to_json()
                .encode()
                for _, _, line in scan_auto(FIXTURES.read_text())
                for tree in parse_auto(line))


def _fixture_cases() -> dict:
    cases = {"none": (), "all": RULE_NAMES}
    cases.update((rule, (rule,)) for rule in RULE_NAMES)
    return cases


def current_hashes() -> dict:
    return {
        "models": {_key(config): _model_hashes(_compile(*config))
                   for config in CONFIGS},
        "fixtures": {case: _fixture_hash(rules)
                     for case, rules in _fixture_cases().items()},
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("config", CONFIGS, ids=_key)
def test_compiled_model_matches_golden(golden, config):
    assert _model_hashes(_compile(*config)) == golden["models"][_key(config)]


def test_fixture_diagrams_match_golden(golden):
    got = {case: _fixture_hash(rules)
           for case, rules in _fixture_cases().items()}
    assert got == golden["fixtures"]


def test_golden_covers_every_config(golden):
    assert sorted(golden["models"]) == sorted(map(_key, CONFIGS))


@pytest.mark.parametrize("name", ["spider", "iqp"])
def test_cold_compile_equals_warm(name):
    warm = _model_hashes(_compile("ccg", name, "all", 7))
    for fn in MEMOISED:
        fn.cache_clear()
    assert all(fn.cache_info().currsize == 0 for fn in MEMOISED)
    cold = _model_hashes(_compile("ccg", name, "all", 7))
    assert cold == warm
    assert all(fn.cache_info().currsize > 0 for fn in MEMOISED)


@pytest.mark.parametrize("caches", ["cold", "warm"])
def test_every_golden_hash_cold_and_warm(golden, caches):
    # cold: every cache emptied before each build; warm: each build follows
    # the same one, so its every lookup can hit
    builds = [(lambda c=config: _model_hashes(_compile(*c)),
               golden["models"][_key(config)]) for config in CONFIGS]
    builds += [(lambda r=rules: _fixture_hash(r), golden["fixtures"][case])
               for case, rules in _fixture_cases().items()]
    for build, want in builds:
        if caches == "cold":
            for fn in MEMOISED:
                fn.cache_clear()
        else:
            build()
        assert build() == want


@pytest.mark.parametrize("bom, newline", [(b"", b"\n"), (BOM, b"\n"),
                                          (b"", b"\r\n"), (BOM, b"\r\n")],
                         ids=["plain", "bom", "crlf", "bom-crlf"])
def test_auto_file_encodings_compile_as_the_golden(golden, tmp_path, bom,
                                                   newline):
    # a byte-order mark and CRLF line ends are not part of the text
    ds = generate_dataset(0)
    plain = tmp_path / "plain.auto"
    write_auto(ds, plain)
    path = tmp_path / "mc.auto"
    path.write_bytes(bom + plain.read_bytes().replace(b"\n", newline))
    model = compile_model(PipelineConfig(ccg_path=str(path)), ds)
    assert _model_hashes(model) == golden["models"]["ccg/spider/none/0"]
    results = ccg.section_to_diagrams(path)
    assert [r.derivation_id for r in results if r.ok] == [
        str(i) for i in range(130)]
    assert [r.diagram for r in results] == [
        r.diagram for r in ccg.section_to_diagrams(plain)]


def test_caches_are_bounded():
    for fn in MEMOISED:
        assert fn.cache_info().maxsize is not None


def test_memoised_errors_raise_every_call():
    messages = []
    for _ in range(2):
        with pytest.raises(ccg.UnknownCategory) as exc:
            ccg.parse_category("(S\\NP")
        messages.append(str(exc.value))
    assert messages[0] == messages[1]
    n, s = ccg.parse_category("N"), ccg.parse_category("S[dcl]")
    for _ in range(2):
        with pytest.raises(ccg.DerivationError, match="no supported rule"):
            ccg.infer_rule(n, n, s)
    for _ in range(2):
        with pytest.raises(ccg.UnknownCategory, match="no pregroup image"):
            ccg.cat_to_typeseq(ccg.parse_category("X"))


def test_one_cold_compile_builds_each_structure_once():
    # the 130 sentences of the dataset grammar have 4 shapes
    for fn in TEMPLATES:
        fn.cache_clear()
    compile_model(PipelineConfig(), generate_dataset(7))
    assert [fn.cache_info().misses for fn in TEMPLATES] == [4, 4]


def _config(name: str) -> PipelineConfig:
    return PipelineConfig(ansatz=name,
                          optimizer="spsa" if name == "iqp" else "adam")


def _direct(name: str, d):
    """The artifact of ``d`` compiled without a template."""
    if name == "iqp":
        return ansatz.iqp_ansatz(d, {"n": 1, "s": 1})
    dims = {"n": 2, "s": 2}
    return {"tensor": ansatz.tensor_ansatz, "mps": ansatz.mps_ansatz,
            "spider": ansatz.spider_ansatz}[name](d, dims)


def _edges(art) -> tuple:
    if isinstance(art, ansatz.Circuit):
        return tuple((op.gate, op.qubits) for op in art.ops)
    return art.edges


@pytest.mark.parametrize("name", ["spider", "tensor", "mps", "iqp"])
def test_same_shape_other_tokens(name):
    cfg = _config(name)
    texts = ("skillful programmer creates software", "tasty chef cooks dinner")
    fresh = []
    for text in texts:  # each parsed and converted on its own
        ccg._line_templates.cache_clear()
        fresh.append(sentence_to_diagram(cfg, text))
    for fn in TEMPLATES:
        fn.cache_clear()
    diagrams = [sentence_to_diagram(cfg, text) for text in texts]
    arts = [compile_diagram(cfg, d) for d in diagrams]
    assert [fn.cache_info().hits for fn in TEMPLATES] == [1, 1]
    assert diagrams == fresh
    assert arts == [_direct(name, d) for d in diagrams]
    assert _edges(arts[0]) == _edges(arts[1])
    names = [{sym.name for sym in art.symbols} for art in arts]
    assert not names[0] & names[1]


@pytest.mark.parametrize("name", ["spider", "iqp"])
def test_repeated_token_shares_one_symbol(name):
    cfg = _config(name)
    line = sentence_to_auto("chef cooks meal")
    # the shape's templates, whose nouns differ
    distinct = compile_diagram(cfg, sentence_to_diagram(cfg, "chef cooks meal"))
    d = sentence_to_diagram(cfg, "chef cooks chef",
                            line.replace(" meal ", " chef "))
    art = compile_diagram(cfg, d)
    assert art == _direct(name, d)
    names = [sym.name for sym in art.symbols]
    # both nouns are of type n, so the object takes the subject's symbols
    assert names == [sym.name for sym in distinct.symbols
                     if not sym.name.startswith("meal__")]


def test_structural_errors_raise_every_call():
    cfg = _config("iqp")
    for _ in range(2):
        with pytest.raises(ansatz.UnsupportedBox, match="tensor-backend"):
            compile_diagram(cfg, spiders_read(tokenize("chef cooks meal")))
    noun, adj = ccg.parse_category("N"), ccg.parse_category("N/N")
    tree = ccg.Node(noun, "FA", (ccg.Leaf("red", adj),
                                 ccg.Leaf("runs", ccg.parse_category("S"))))
    for _ in range(2):
        with pytest.raises(ccg.DerivationError, match="do not cancel"):
            tree_to_diagram(tree)


def test_rules_and_word_types_are_part_of_the_structure():
    # the same categories under another rule: FA converts, FX does not
    leaves = (ccg.Leaf("chef", ccg.parse_category("S/(S\\NP)")),
              ccg.Leaf("runs", ccg.parse_category("S\\NP")))
    s = ccg.parse_category("S")
    tree_to_diagram(ccg.Node(s, "FA", leaves))
    with pytest.raises(ccg.DerivationError, match="do not cancel"):
        tree_to_diagram(ccg.Node(s, "FX", leaves))
    # a word at the same offset with the same cod, over another dom
    cfg = _config("tensor")
    state = Builder(ts("n")).add(Word("w", cod=ts("s")), 0).diagram()
    effect = Builder(ts("n")).add(Word("w", ts("n"), ts("s")), 0).diagram()
    for d in (state, effect):
        assert compile_diagram(cfg, d) == _direct("tensor", d)


if __name__ == "__main__":
    print(json.dumps(current_hashes(), indent=1, sort_keys=True))
