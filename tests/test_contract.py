import numpy as np
import pytest

from synq.ansatz import (
    Node, Symbol, TensorNetwork, mps_ansatz, spider_ansatz, tensor_ansatz,
)
from synq.contract import ShapeMismatch, contract, contract_grad
from synq.diagram import Cap, Cup, Diagram, Spider, Word, cup_at, word
from synq.params import ParameterStore
from synq.types import ts

DM = {"n": 3, "s": 2}


def store_for(tn, seed=0):
    return ParameterStore.initialize(tn.symbols, seed)


def fd_gradient(tn, ps, upstream, h=1e-4):
    """Central finite differences on the flat parameter vector."""
    upstream = np.asarray(upstream)

    def loss(vec):
        value = contract(tn, ps.from_vector(vec))
        return float(np.sum(value * upstream))

    x0 = ps.to_vector()
    grad = np.zeros_like(x0)
    for i in range(len(x0)):
        up, down = x0.copy(), x0.copy()
        up[i] += h
        down[i] -= h
        grad[i] = (loss(up) - loss(down)) / (2 * h)
    return grad


def naive_contract(tn, ps):
    """Independent oracle: one giant einsum-style sum via explicit indexing."""
    from synq.contract import _node_tensor
    leg_label = {}
    next_label = 0
    for a, b in tn.edges:
        leg_label[a] = leg_label[b] = next_label
        next_label += 1
    open_labels = []
    for leg in tn.open_legs:
        leg_label[leg] = next_label
        open_labels.append(next_label)
        next_label += 1
    operands = []
    subscripts = []
    for node in tn.nodes:
        operands.append(_node_tensor(node, ps))
        subscripts.append([leg_label[(node.node_id, i)]
                           for i in range(len(node.shape))])
    args = []
    for op, sub in zip(operands, subscripts):
        args.extend((op, sub))
    args.append(open_labels)
    return np.einsum(*args)


class TestContract:
    def test_cup_of_vectors(self):
        u = Node("u", "param", (2,), Symbol("u", (2,)))
        v = Node("v", "param", (2,), Symbol("v", (2,)))
        tn = TensorNetwork((u, v), ((("u", 0), ("v", 0)),), ())
        ps = ParameterStore({"u": [1.0, 2.0], "v": [3.0, 4.0]})
        assert contract(tn, ps) == pytest.approx(11.0)

    def test_three_leg_copy(self):
        nodes = tuple(
            Node(k, "param", (3,), Symbol(k, (3,))) for k in "xuv"
        ) + (Node("c", "copy", (3, 3, 3)),)
        edges = ((("x", 0), ("c", 0)), (("u", 0), ("c", 1)),
                 (("v", 0), ("c", 2)))
        tn = TensorNetwork(nodes, edges, ())
        rng = np.random.default_rng(1)
        ps = ParameterStore({k: rng.normal(size=3) for k in "xuv"})
        want = float(np.sum(ps["x"] * ps["u"] * ps["v"]))
        assert contract(tn, ps) == pytest.approx(want)

    def test_matches_einsum_oracle_on_ansatz_networks(self):
        d = (word("john", ts("n")) @ word("saw", ts("n.r", "s", "n.l"))
             @ word("mary", ts("n")))
        d = cup_at(cup_at(d, 3), 0)
        for builder in (
            lambda: tensor_ansatz(d, DM),
            lambda: mps_ansatz(d, DM, bond_dim=3, max_order=3),
            lambda: spider_ansatz(d, DM, max_order=2),
        ):
            tn = builder()
            ps = store_for(tn)
            got = contract(tn, ps)
            want = naive_contract(tn, ps)
            assert np.allclose(got, want, atol=1e-12)

    def test_order_independence_random_networks(self):
        rng = np.random.default_rng(3)
        for trial in range(20):
            tn, ps = random_network(rng)
            a = contract(tn, ps)
            b = naive_contract(tn, ps)
            assert np.allclose(a, b, atol=1e-12)

    def test_self_edge_trace(self):
        m = Node("m", "param", (3, 3), Symbol("m", (3, 3)))
        tn = TensorNetwork((m,), ((("m", 0), ("m", 1)),), ())
        arr = np.arange(9, dtype=float).reshape(3, 3)
        assert contract(tn, ParameterStore({"m": arr})) == pytest.approx(
            np.trace(arr))

    def test_shape_mismatch(self):
        u = Node("u", "param", (2,), Symbol("u", (2,)))
        tn = TensorNetwork((u,), (), (("u", 0),))
        with pytest.raises(ShapeMismatch):
            contract(tn, ParameterStore({"u": [1.0, 2.0, 3.0]}))


def random_network(rng, max_nodes=5):
    """Random connected-ish network mixing params, deltas and copies."""
    n_param = rng.integers(2, max_nodes + 1)
    nodes = []
    legs = []
    for i in range(n_param):
        order = int(rng.integers(1, 4))
        shape = tuple(int(rng.integers(2, 4)) for _ in range(order))
        sym = Symbol(f"p{i}", shape)
        nodes.append(Node(f"p{i}", "param", shape, sym))
        legs.extend(((f"p{i}", j), shape[j]) for j in range(order))
    rng.shuffle(legs)
    edges = []
    free = []
    while legs:
        (leg, dim) = legs.pop()
        match = next((k for k, (other, od) in enumerate(legs) if od == dim),
                     None)
        if match is not None and rng.random() < 0.7:
            other, _ = legs.pop(match)
            edges.append((leg, other))
        else:
            free.append(leg)
    tn = TensorNetwork(tuple(nodes), tuple(edges), tuple(free))
    ps = ParameterStore(
        {f"p{i}": rng.normal(size=nodes[i].shape) for i in range(n_param)})
    return tn, ps


class TestGrad:
    def test_cup_gradient_is_partner(self):
        u = Node("u", "param", (2,), Symbol("u", (2,)))
        v = Node("v", "param", (2,), Symbol("v", (2,)))
        tn = TensorNetwork((u, v), ((("u", 0), ("v", 0)),), ())
        ps = ParameterStore({"u": [1.0, 2.0], "v": [3.0, 4.0]})
        grad = contract_grad(tn, ps, lambda v: np.asarray(1.0))[1]
        assert np.allclose(grad, [3.0, 4.0, 1.0, 2.0])

    def test_identity_upstream(self):
        u = Node("u", "param", (4,), Symbol("u", (4,)))
        tn = TensorNetwork((u,), (), (("u", 0),))
        ps = ParameterStore({"u": np.zeros(4)})
        g = np.array([1.0, -2.0, 0.5, 3.0])
        assert np.allclose(contract_grad(tn, ps, lambda v: g)[1], g)

    def test_fd_oracle_random_networks(self):
        rng = np.random.default_rng(11)
        for trial in range(25):
            tn, ps = random_network(rng)
            upstream = rng.normal(
                size=tuple(tn.leg_dim(leg) for leg in tn.open_legs))
            got = contract_grad(tn, ps, lambda v: upstream)[1]
            want = fd_gradient(tn, ps, upstream)
            scale = max(1.0, float(np.max(np.abs(want))))
            assert np.max(np.abs(got - want)) / scale < 1e-5

    def test_fd_oracle_all_ansatz_families(self):
        d = (word("john", ts("n")) @ word("saw", ts("n.r", "s", "n.l"))
             @ word("mary", ts("n")))
        d = cup_at(cup_at(d, 3), 0)
        rng = np.random.default_rng(5)
        for builder in (
            lambda: tensor_ansatz(d, DM),
            lambda: mps_ansatz(d, DM, bond_dim=2, max_order=3),
            lambda: spider_ansatz(d, DM, max_order=2),
        ):
            tn = builder()
            ps = store_for(tn, seed=int(rng.integers(1000)))
            upstream = rng.normal(
                size=tuple(tn.leg_dim(leg) for leg in tn.open_legs))
            got = contract_grad(tn, ps, lambda v: upstream)[1]
            want = fd_gradient(tn, ps, upstream)
            scale = max(1.0, float(np.max(np.abs(want))))
            assert np.max(np.abs(got - want)) / scale < 1e-5

    def test_shared_symbols_sum(self):
        a = Node("a", "param", (2,), Symbol("w", (2,)))
        b = Node("b", "param", (2,), Symbol("w", (2,)))
        tn = TensorNetwork((a, b), ((("a", 0), ("b", 0)),), ())
        ps = ParameterStore({"w": [1.0, 2.0]})
        # value = w . w, gradient = 2w
        grad = contract_grad(tn, ps, lambda v: np.asarray(1.0))[1]
        assert np.allclose(grad, [2.0, 4.0])

    def test_value_equals_contract_bit_for_bit(self):
        d = (word("john", ts("n")) @ word("saw", ts("n.r", "s", "n.l"))
             @ word("mary", ts("n")))
        d = cup_at(cup_at(d, 3), 0)
        rng = np.random.default_rng(17)
        cases = [(tn, store_for(tn)) for tn in (
            tensor_ansatz(d, DM), mps_ansatz(d, DM, 2, 3),
            spider_ansatz(d, DM, 2))]
        cases += [random_network(rng) for _ in range(40)]
        for tn, ps in cases:
            seen = []
            value, _ = contract_grad(
                tn, ps, lambda v: seen.append(v) or np.ones(v.shape))
            assert np.array_equal(value, contract(tn, ps))
            assert seen[0] is value

    def test_directional_fd_on_long_spider_network(self):
        from synq.pipeline import PipelineConfig, sentence_to_diagram
        from test_scan_once import long_derivation
        text, line = long_derivation(160)
        d = sentence_to_diagram(PipelineConfig(rewrites=("determiner",)),
                                text, line)
        tn = spider_ansatz(d, {"n": 2, "s": 2}, max_order=2)
        assert len(tn.nodes) >= 150
        ps = store_for(tn, seed=4)
        rng = np.random.default_rng(8)
        upstream = rng.normal(size=2)
        _, grad = contract_grad(tn, ps, lambda v: upstream)

        def loss(vec):
            return float(np.sum(contract(tn, ps.from_vector(vec)) * upstream))

        x0, h = ps.to_vector(), 1e-6
        for _ in range(3):
            u = rng.normal(size=x0.shape)
            u /= np.linalg.norm(u)
            fd = (loss(x0 + h * u) - loss(x0 - h * u)) / (2 * h)
            assert abs(fd - grad @ u) / abs(grad @ u) < 1e-5


class TestSnakeSemantics:
    @pytest.mark.parametrize("z", [-2, -1, 0, 1, 2])
    def test_yanked_equals_unyanked(self, z):
        from synq.types import PType, TypeSeq
        up = TypeSeq((PType("n", z + 1),))
        snake = Diagram(up, up, ((Cap("n", z), 0), (Cup("n", z), 1)))
        flat = snake.normal_form()
        tn_s = tensor_ansatz(snake, DM)
        tn_f = tensor_ansatz(flat, DM)
        ps = ParameterStore({})
        assert np.allclose(contract(tn_s, ps), contract(tn_f, ps), atol=1e-10)

    def test_rewritten_sentence_contracts_equal(self):
        d = word("the", ts("n", "n.l")) @ word("flower", ts("n"))
        d = cup_at(d, 1)
        from synq.rewrite import Rewriter
        out = Rewriter(["determiner"])(d)
        nf = out.normal_form()
        rng = np.random.default_rng(9)
        flower = rng.normal(size=3)
        ps = ParameterStore({tn_sym.name: flower for tn_sym in
                             tensor_ansatz(nf, DM).symbols})
        v_rewritten = contract(tensor_ansatz(out, DM), ps)
        v_nf = contract(tensor_ansatz(nf, DM), ps)
        assert np.allclose(v_rewritten, flower, atol=1e-10)
        assert np.allclose(v_nf, flower, atol=1e-10)
