import json
from pathlib import Path

import numpy as np
import pytest

from synq.ansatz import (
    Circuit, InvalidConfig, InvalidOp, Node, Op, Symbol, TensorNetwork,
    UnsupportedBox,
    _mps_groups, iqp_ansatz, mps_ansatz, spider_ansatz, tensor_ansatz,
)
from synq.ccg import parse_auto, scan_auto, tree_to_diagram
from synq.contract import contract
from synq.diagram import Diagram, Spider, Word, cup_at, word
from synq.params import ParameterStore
from synq.pipeline import PipelineConfig, _vector_p1, compile_diagram
from synq.types import ts
from test_contract import open_dims

QM = {"n": 1, "s": 1}
DM = {"n": 4, "s": 2}


def svo_diagram():
    d = (word("john", ts("n"))
         @ word("walks", ts("n.r", "s")))
    return cup_at(d, 0)


class TestIqp:
    def test_single_qubit_word_three_rotations(self):
        c = iqp_ansatz(word("john", ts("n")), QM)
        assert [op.gate for op in c.ops] == ["Rx", "Rz", "Rx"]
        assert len(c.symbols) == 3
        assert c.open == (0,) and c.postselect == ()

    def test_two_qubit_word_layer(self):
        c = iqp_ansatz(word("walks", ts("n.r", "s")), QM, n_layers=1)
        assert [op.gate for op in c.ops] == ["H", "H", "CRz"]
        assert len(c.symbols) == 1

    def test_layers_scale_symbols(self):
        c = iqp_ansatz(word("gave", ts("n.r", "s", "n.l", "n.l")), QM,
                       n_layers=3)
        # k = 4 qubits: (k-1) * n_layers CRz symbols
        assert len(c.symbols) == 9
        assert sum(op.gate == "H" for op in c.ops) == 12

    def test_identity_diagram_empty_circuit(self):
        c = iqp_ansatz(Diagram.identity(ts("s")), QM)
        assert c.ops == () and c.open == (0,) and c.n_qubits == 1

    def test_cup_bell_effect_gates(self):
        c = iqp_ansatz(svo_diagram(), QM)
        gates = [op.gate for op in c.ops]
        assert gates.count("CX") == 1
        assert c.postselect == (0, 1)
        assert c.open == (2,)
        assert c.n_qubits == 3

    def test_multiqubit_type_cups_pairwise(self):
        d = cup_at(word("x", ts("n")) @ word("y", ts("n.r")), 0)
        c = iqp_ansatz(d, {"n": 2})
        assert sum(op.gate == "CX" for op in c.ops) >= 2
        assert len(c.postselect) == 4 and c.open == ()

    def test_spider_and_swap_rejected(self):
        sp = Diagram(cod=ts("s"), layers=(
            (Word("a", cod=ts("s")), 0), (Spider("s", 0, 1, 1), 0)))
        with pytest.raises(UnsupportedBox):
            iqp_ansatz(sp, QM)

    def test_word_with_dom_rejected(self):
        bridge = Diagram(cod=ts("n"), layers=(
            (Word("x", cod=ts("s")), 0),
            (Word("[S->N]", dom=ts("s"), cod=ts("n")), 0)))
        with pytest.raises(UnsupportedBox):
            iqp_ansatz(bridge, QM)

    def test_symbol_determinism_and_sharing(self):
        d = svo_diagram()
        c1, c2 = iqp_ansatz(d, QM), iqp_ansatz(d, QM)
        assert [s.name for s in c1.symbols] == [s.name for s in c2.symbols]
        twice = word("john", ts("n")) @ word("john", ts("n"))
        c = iqp_ansatz(twice, QM)
        assert len(c.symbols) == 3  # same word, same type: shared family

    def test_qubit_accounting(self):
        d = svo_diagram()
        c = iqp_ansatz(d, QM)
        assert c.n_qubits == 3  # one per diagram wire
        assert len(c.open) == sum(QM[t.base] for t in d.cod)

    def test_json_schema(self):
        c = iqp_ansatz(svo_diagram(), QM)
        obj = json.loads(c.to_json())
        assert set(obj) == {"n_qubits", "ops", "postselect", "open"}
        crz = [o for o in obj["ops"] if o["g"] == "CRz"][0]
        assert isinstance(crz["p"], str) and crz["q"] == [1, 2]
        assert obj["postselect"] == [[0, 0], [1, 0]]

    def test_bad_config(self):
        with pytest.raises(InvalidConfig):
            iqp_ansatz(word("x", ts("n")), QM, n_layers=0)
        with pytest.raises(InvalidConfig):
            iqp_ansatz(word("x", ts("n")), {"s": 1})
        with pytest.raises(InvalidConfig):
            iqp_ansatz(word("x", ts("n")), {"n": 0})


class TestCircuitOps:
    def check(self, op, problem):
        with pytest.raises(InvalidOp) as err:
            Circuit(3, (Op("H", (0,)), op), (), (0, 1, 2))
        assert isinstance(err.value, ValueError)
        message = str(err.value)
        assert message.startswith(f"op 1 ({op.gate!r} on qubits {op.qubits})")
        assert problem in message

    def test_unknown_gate(self):
        self.check(Op("Ry", (0,), 0.3), "unknown gate")

    def test_single_qubit_gate_on_two_qubits(self):
        self.check(Op("Rx", (0, 1), 0.3), "Rx acts on 1 qubit")

    def test_two_qubit_gate_on_one_qubit(self):
        self.check(Op("CRz", (2,), 0.3), "CRz acts on 2 qubit")

    def test_repeated_qubit(self):
        self.check(Op("CX", (0, 0)), "repeated qubit")

    def test_qubit_out_of_range(self):
        self.check(Op("CX", (1, 3)), "not in range(3)")
        self.check(Op("H", (-1,)), "not in range(3)")


ROT = Op("Rx", (1,), Symbol("a"))


@pytest.mark.parametrize("args, error, message", [
    # each circuit fails every check from the one its message names on, so
    # the first that fails is the one named
    ((2, (Op("H", (0, 1)),), (0,), (0,)), InvalidOp,
     "op 0 ('H' on qubits (0, 1)): H acts on 1 qubit(s)"),
    ((2, (ROT,), (0,), (0,)), ValueError,
     "open and postselected qubits overlap"),
    ((2, (ROT,), (0, 0), (0,)), ValueError,
     "open and postselected qubits overlap"),
    ((3, (ROT,), (0,), (1,)), ValueError,
     "every qubit must be open or postselected"),
    ((2, (ROT,), (0, 0), ()), ValueError,
     "every qubit must be open or postselected"),
    ((1, (), (), (0, 1)), ValueError,
     "every qubit must be open or postselected"),
])
def test_circuit_errors_in_order(args, error, message):
    with pytest.raises(error) as exc:
        Circuit(*args)
    assert str(exc.value) == message


@pytest.mark.parametrize("args, message", [
    ((2, (Op("H", (0,)), ROT), (0, 0), (1,)),
     "postselect lists a qubit twice: (0, 0)"),
    ((2, (Op("H", (0,)), ROT), (0,), (1, 1)),
     "open lists a qubit twice: (1, 1)"),
    ((1, (Op("Rx", (0,), Symbol("a")),), (), (0, 0)),
     "open lists a qubit twice: (0, 0)"),
])
def test_circuit_refuses_a_qubit_listed_twice(args, message):
    with pytest.raises(ValueError) as exc:
        Circuit(*args)
    assert str(exc.value) == message


U = Node("u", "param", (2,), Symbol("u", (2,)))
V = Node("v", "param", (3,), Symbol("v", (3,)))
W = Node("w", "param", (2,), Symbol("w", (2,)))


@pytest.mark.parametrize("nodes, edges, open_legs, message", [
    # as for circuits, each network fails every check from its message's on
    ((U, U), ((("u", 0), ("ghost", 0)),), (), "duplicate node ids"),
    ((U, V), ((("u", 0), ("v", 0)),), (("ghost", 0),),
     "unknown leg ('ghost', 0)"),
    ((U, V), ((("u", 0), ("v", 0)),), (("u", 0),),
     "edge ('u', 0)-('v', 0) joins unequal dimensions"),
    ((U, V, W), ((("u", 0), ("w", 0)), (("u", 0), ("v", 0))), (),
     "edge ('u', 0)-('v', 0) joins unequal dimensions"),
    ((U, W), ((("u", 0), ("w", 0)),), (("u", 0),),
     "leg ('u', 0) must have exactly one edge or be open"),
    ((U, W), (), (("w", 0),),
     "leg ('u', 0) must have exactly one edge or be open"),
    ((U, W), ((("w", 0), ("w", 0)),), (("u", 0),),
     "leg ('w', 0) must have exactly one edge or be open"),
])
def test_tensor_network_errors_in_order(nodes, edges, open_legs, message):
    with pytest.raises(ValueError) as exc:
        TensorNetwork(nodes, edges, open_legs)
    assert str(exc.value) == message


class TestTensor:
    def test_vector_word(self):
        tn = tensor_ansatz(word("flower", ts("n")), DM)
        (node,) = [n for n in tn.nodes if n.kind == "param"]
        assert node.shape == (4,)
        assert tn.open_legs == ((node.node_id, 0),)

    def test_verb_shape_128_parameters(self):
        tn = tensor_ansatz(word("gave", ts("n.r", "s", "n.l", "n.l")), DM)
        (node,) = tn.nodes
        assert node.shape == (4, 2, 4, 4)
        assert int(np.prod(node.shape)) == 128

    def test_cup_becomes_edge(self):
        tn = tensor_ansatz(svo_diagram(), DM)
        assert len(tn.edges) == 1
        assert len(tn.open_legs) == 1

    def test_spider_becomes_copy(self):
        d = Diagram(cod=ts("s"), layers=(
            (Word("a", cod=ts("s")), 0),
            (Word("b", cod=ts("s")), 1),
            (Spider("s", 0, 2, 1), 0)))
        tn = tensor_ansatz(d, DM)
        copies = [n for n in tn.nodes if n.kind == "copy"]
        assert len(copies) == 1 and copies[0].shape == (2, 2, 2)

    def test_all_ansatze_same_open_signature(self):
        d = svo_diagram()
        dims = [2]
        full = tensor_ansatz(d, DM)
        mps = mps_ansatz(d, DM, bond_dim=3, max_order=3)
        spi = spider_ansatz(d, DM, max_order=2)
        for tn in (full, mps, spi):
            assert list(open_dims(tn)) == dims


class TestMps:
    def test_order_four_splits_in_two(self):
        tn = mps_ansatz(word("gave", ts("n.r", "s", "n.l", "n.l")), DM,
                        bond_dim=4, max_order=3)
        params = [n for n in tn.nodes if n.kind == "param"]
        assert [n.shape for n in params] == [(4, 2, 4), (4, 4, 4)]
        assert len(tn.edges) == 1  # the bond

    def test_order_two_unsplit(self):
        tn = mps_ansatz(word("ok", ts("n.r", "s")), DM, 4, 3)
        assert [n.shape for n in tn.nodes] == [(4, 2)]

    def test_order_six_four_factors(self):
        w = word("big", ts("n", "n", "n", "n", "n", "n"))
        tn = mps_ansatz(w, DM, 4, 3)
        params = [n for n in tn.nodes if n.kind == "param"]
        assert len(params) == 4
        assert all(len(n.shape) <= 3 for n in params)

    def test_factor_count_oracle(self):
        # factors of words of order 1..11: the first and last take up to
        # max_order - 1 wires, interior ones max_order - 2
        counts = {3: [1, 1, 1, 2, 3, 4, 5, 6, 7, 8, 9],
                  4: [1, 1, 1, 1, 2, 2, 3, 3, 4, 4, 5],
                  5: [1, 1, 1, 1, 1, 2, 2, 2, 3, 3, 3]}
        for m, want in counts.items():
            for order in range(1, 12):
                tn = mps_ansatz(word("w", ts(*["n"] * order)), DM, 2, m)
                params = [n for n in tn.nodes if n.kind == "param"]
                assert len(params) == want[order - 1]
                assert all(len(n.shape) <= m for n in params)

    def test_invalid_config(self):
        with pytest.raises(InvalidConfig):
            mps_ansatz(word("w", ts("n")), DM, 4, 2)

    def test_split_needs_max_order_three(self):
        # interior factors take max_order - 2 wires: below 3 a split of an
        # oversized word would never end
        assert _mps_groups(2, 2) == [[0, 1]]
        with pytest.raises(InvalidConfig):
            _mps_groups(4, 2)
        with pytest.raises(InvalidConfig):
            mps_ansatz(word("w", ts("n", "n", "n", "n")), DM, 2, 2)


class TestSpiderAnsatz:
    def test_order_four_three_factors(self):
        tn = spider_ansatz(word("v", ts("n.r", "s", "n.l", "n.l")),
                           {"n": 2, "s": 2}, max_order=2)
        params = [n for n in tn.nodes if n.kind == "param"]
        copies = [n for n in tn.nodes if n.kind == "copy"]
        assert [n.shape for n in params] == [(2, 2)] * 3
        assert len(copies) == 2
        assert all(n.shape == (2, 2, 2) for n in copies)

    def test_order_one_unsplit(self):
        tn = spider_ansatz(word("n", ts("n")), DM, 2)
        assert [n.kind for n in tn.nodes] == ["param"]

    def test_order_three_two_factors(self):
        tn = spider_ansatz(word("v", ts("n.r", "s", "n.l")), DM, 2)
        params = [n for n in tn.nodes if n.kind == "param"]
        copies = [n for n in tn.nodes if n.kind == "copy"]
        assert len(params) == 2 and len(copies) == 1

    def test_factor_count_oracle(self):
        # factors of words of order 1..11: ceil((order - 1) / (max_order - 1))
        # once the word exceeds max_order
        counts = {2: [1, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10],
                  3: [1, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5],
                  4: [1, 1, 1, 1, 2, 2, 2, 3, 3, 3, 4]}
        for m, want in counts.items():
            for order in range(1, 12):
                tn = spider_ansatz(word("w", ts(*["n"] * order)), DM, m)
                params = [n for n in tn.nodes if n.kind == "param"]
                assert len(params) == want[order - 1]
                assert all(len(n.shape) <= m for n in params)

    def test_invalid_config(self):
        with pytest.raises(InvalidConfig):
            spider_ansatz(word("w", ts("n")), DM, 1)


def test_tensor_network_json_round_shape():
    tn = tensor_ansatz(svo_diagram(), DM)
    obj = json.loads(tn.to_json())
    assert set(obj) == {"nodes", "edges", "open"}
    assert all({"id", "kind", "shape"} <= set(n) for n in obj["nodes"])


@pytest.mark.parametrize("edges, open_legs", [
    (((("u", 0), ("ghost", 0)),), ()),
    (((("u", 0), ("u", 3)),), ()),
    ((), (("u", 0), ("ghost", 1))),
])
def test_tensor_network_names_an_unknown_leg(edges, open_legs):
    u = Node("u", "param", (2,), Symbol("u", (2,)))
    with pytest.raises(ValueError, match="unknown leg"):
        TensorNetwork((u,), edges, open_legs)
    tn = TensorNetwork((u,), (), (("u", 0),))
    assert tn.nodes == (u,) and tn.structure == ((("param", (2,)),), (),
                                                 ((0, 0),))


@pytest.mark.parametrize("kind", ["zero", "measure", "H", "Rx", "CRz~"])
def test_node_is_param_delta_or_copy(kind):
    # circuits build their own structures for the planner: no circuit
    # kind is a tensor-network node
    with pytest.raises(ValueError, match=f"bad node kind {kind!r}"):
        Node("x", kind, (2,))


FIXTURES = Path(__file__).parent / "data" / "fixtures.auto"


@pytest.mark.parametrize("ansatz", ["tensor", "mps", "spider"])
@pytest.mark.parametrize("deriv_id", ["fix.10", "fix.22"])
def test_word_without_wires_gets_no_node(ansatz, deriv_id):
    # the sentence-final "." has an empty codomain: a scalar word tensor
    # would only rescale the sentence vector, so p1 must not change
    (line,) = [line for key, _, line in scan_auto(FIXTURES.read_text())
               if key == deriv_id]
    (tree,) = parse_auto(line)
    d = tree_to_diagram(tree)
    assert any(isinstance(b, Word) and not len(b.dom @ b.cod)
               for b, _ in d.layers)
    tn = compile_diagram(PipelineConfig(ansatz=ansatz), d)
    assert all(sym.shape for sym in tn.symbols)
    store = ParameterStore.initialize(tn.symbols, 0)
    scalar = Symbol(".____0")
    with_scalar = TensorNetwork(
        tn.nodes + (Node("punct", "param", (), scalar),), tn.edges,
        tn.open_legs)
    store[scalar.name] = 3.81
    p1 = [_vector_p1(contract(net, store)) for net in (tn, with_scalar)]
    assert abs(p1[0] - p1[1]) <= 1e-12


def _renamed(d: Diagram) -> Diagram:
    """``d`` with a new token in each word: of its structure, not its
    symbols."""
    return Diagram(d.dom, d.cod, tuple(
        (Word(box.token + "_", box.dom, box.cod), offset)
        if isinstance(box, Word) else (box, offset)
        for box, offset in d.layers))


def _validated(art):
    """``art`` built again through its constructor, which validates it."""
    if isinstance(art, Circuit):
        return Circuit(art.n_qubits, art.ops, art.postselect, art.open)
    return TensorNetwork(art.nodes, art.edges, art.open_legs)


class TestRelabel:
    """An instance is a copy of its template's artifact with its own
    symbols: it equals a validated build of its nodes or ops and holds its
    template's ``structure``."""

    def test_network_instance_equals_a_validated_build(self):
        from synq.ansatz import network_template
        d = svo_diagram()
        template = network_template(d, DM, "full", 0, 0)
        art = template.instance(["mary", "runs"])
        assert art == TensorNetwork(art.nodes, art.edges, art.open_legs)
        assert [n.symbol.name for n in art.nodes if n.symbol] == [
            "mary__n__0", "runs__n.r.s__0"]
        assert art.nodes[0].node_id == "w0"
        assert art.structure is template.artifact.structure

    def test_circuit_instance_equals_a_validated_build(self):
        from synq.ansatz import iqp_template
        template = iqp_template(svo_diagram(), QM)
        art = template.instance(["mary", "runs"])
        assert art == Circuit(art.n_qubits, art.ops, art.postselect,
                              art.open)
        assert {s.name.split("__")[0] for s in art.symbols} == {"mary",
                                                                "runs"}
        assert art.structure is template.artifact.structure

    @staticmethod
    def assert_instances_are_builds(cfg, diagrams, monkeypatch):
        """Compile each diagram, then its renamed twin, from cold templates:
        every instance made equals its validated build, holds the structure
        that build computes, and holds its template's."""
        from synq import pipeline
        from synq.ansatz import Template
        made, instance = [], Template.instance
        monkeypatch.setattr(Template, "instance", lambda self, tokens: (
            made.append((self, instance(self, tokens))) or made[-1][1]))
        pipeline._artifact_templates.cache_clear()
        for d in diagrams:
            compile_diagram(cfg, d)
            compile_diagram(cfg, _renamed(d))
        assert len(made) >= len(diagrams)
        for template, art in made:
            build = _validated(art)
            assert art == build and art.structure == build.structure
            assert art.structure is template.artifact.structure

    @pytest.mark.parametrize("reader, name", [
        (reader, name) for reader in ("ccg", "cups", "spiders")
        for name in ("iqp", "tensor", "mps", "spider")
        if (reader, name) != ("spiders", "iqp")])  # IQP has no spiders
    def test_dataset_instances_are_validated_builds(self, reader, name,
                                                    monkeypatch):
        from synq.dataset import generate_dataset
        from synq.pipeline import sentence_to_diagram
        cfg = PipelineConfig(reader=reader, ansatz=name,
                             optimizer="spsa" if name == "iqp" else "adam")
        diagrams = [sentence_to_diagram(cfg, text)
                    for text, _ in generate_dataset(0).items]
        self.assert_instances_are_builds(cfg, diagrams, monkeypatch)

    @pytest.mark.parametrize("name", ["iqp", "tensor", "mps", "spider"])
    def test_fixture_instances_are_validated_builds(self, name, monkeypatch):
        from synq.ccg import section_to_diagrams
        cfg = PipelineConfig(ansatz=name,
                             optimizer="spsa" if name == "iqp" else "adam")
        diagrams = []
        for result in section_to_diagrams(FIXTURES):
            if not result.ok:
                continue
            try:  # an IQP circuit has no swap
                compile_diagram(cfg, result.diagram)
            except UnsupportedBox:
                assert name == "iqp"
                continue
            diagrams.append(result.diagram)
        assert len(diagrams) > 20
        self.assert_instances_are_builds(cfg, diagrams, monkeypatch)
