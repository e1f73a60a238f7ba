import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from synq.ansatz import (
    Circuit, Node, Symbol, TensorNetwork, mps_ansatz, spider_ansatz,
    tensor_ansatz,
)
from synq import contract as contract_module
from synq.contract import (
    NetworkPlan, ShapeMismatch, _replay, _value, contract,
    contract_grad, contract_plan, plan, plan_networks, plan_rows,
)
from synq.dataset import generate_dataset
from synq.diagram import Cap, Cup, Diagram, Spider, Word, cup_at, word
from synq.params import ParameterStore, UnboundSymbol
from synq.pipeline import PipelineConfig, compile_model
from synq.simulator import _circuit
from synq.types import ts

DM = {"n": 3, "s": 2}


def store_for(tn, seed=0):
    return ParameterStore.initialize(tn.symbols, seed)


def grad_one(tn, ps, upstream):
    """contract_grad of ``tn`` as a batch of one; upstream sees its value."""
    values, flat = contract_grad(plan_networks([tn], [0], ps), ps.to_vector(),
                                 lambda v: np.asarray(upstream(v[0]))[None])
    return values[0], flat


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


def naive_contract(tn, ps, optimize=False):
    """Independent oracle: one giant einsum-style sum via explicit indexing,
    summed in numpy's own order with ``optimize`` (under 52 labels)."""
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
    return np.einsum(*args, optimize=optimize)


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
        for fixed in (False, True):
            for trial in range(20):
                tn, ps = random_network(rng, fixed=fixed)
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


def open_dims(tn):
    """The dimensions of tn's open legs, read from its nodes by id."""
    shapes = {node.node_id: node.shape for node in tn.nodes}
    return tuple(shapes[a][i] for a, i in tn.open_legs)


def random_network(rng, max_nodes=5, fixed=False):
    """Random connected-ish network of param nodes p0, p1, ...; with
    ``fixed``, also 1 to 4 deltas and copies, each with legs of one
    dimension, so fixed blocks may meet."""
    n_param = rng.integers(2, max_nodes + 1)
    nodes = []
    legs = []
    for i in range(n_param):
        order = int(rng.integers(1, 4))
        shape = tuple(int(rng.integers(2, 4)) for _ in range(order))
        sym = Symbol(f"p{i}", shape)
        nodes.append(Node(f"p{i}", "param", shape, sym))
        legs.extend(((f"p{i}", j), shape[j]) for j in range(order))
    for i in range(rng.integers(1, 5) if fixed else 0):
        kind = "delta" if rng.random() < 0.5 else "copy"
        order = 2 if kind == "delta" else int(rng.integers(1, 4))
        shape = (int(rng.integers(2, 4)),) * order
        nodes.append(Node(f"f{i}", kind, shape))
        legs.extend(((f"f{i}", j), shape[j]) for j in range(order))
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
        grad = grad_one(tn, ps, lambda v: np.asarray(1.0))[1]
        assert np.allclose(grad, [3.0, 4.0, 1.0, 2.0])

    def test_identity_upstream(self):
        u = Node("u", "param", (4,), Symbol("u", (4,)))
        tn = TensorNetwork((u,), (), (("u", 0),))
        ps = ParameterStore({"u": np.zeros(4)})
        g = np.array([1.0, -2.0, 0.5, 3.0])
        assert np.allclose(grad_one(tn, ps, lambda v: g)[1], g)

    def test_fd_oracle_random_networks(self):
        rng = np.random.default_rng(11)
        for fixed in (False, True):
            for trial in range(25):
                tn, ps = random_network(rng, fixed=fixed)
                upstream = rng.normal(
                    size=open_dims(tn))
                got = grad_one(tn, ps, lambda v: upstream)[1]
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
                size=open_dims(tn))
            got = grad_one(tn, ps, lambda v: upstream)[1]
            want = fd_gradient(tn, ps, upstream)
            scale = max(1.0, float(np.max(np.abs(want))))
            assert np.max(np.abs(got - want)) / scale < 1e-5

    def test_shared_symbols_sum(self):
        a = Node("a", "param", (2,), Symbol("w", (2,)))
        b = Node("b", "param", (2,), Symbol("w", (2,)))
        tn = TensorNetwork((a, b), ((("a", 0), ("b", 0)),), ())
        ps = ParameterStore({"w": [1.0, 2.0]})
        # value = w . w, gradient = 2w
        grad = grad_one(tn, ps, lambda v: np.asarray(1.0))[1]
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
            values, _ = contract_grad(
                plan_networks([tn], [0], ps), ps.to_vector(),
                lambda v: seen.append(v) or np.ones(v.shape))
            assert np.array_equal(values[0], contract(tn, ps))
            assert seen[0] is values

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
        _, grad = grad_one(tn, ps, lambda v: upstream)

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


def reference_steps(structure):
    """The greedy rule of ``plan`` as a scan of every pending edge at each
    step, quadratic in the edges: folds first, pairs of fixed blocks whose
    merged tensor is no larger than the larger of them, then the smallest
    product of sizes, then the first edge; steps as ``plan`` records them.
    A node of the structure is fixed if it is a tensor, a delta or a
    copy."""
    nodes, edges, _ = structure
    shapes = [n.shape if isinstance(n, np.ndarray) else n[1] for n in nodes]
    live = [not isinstance(n, np.ndarray) and n[0] not in ("delta", "copy")
            for n in nodes]
    alive = {k: [(k, i) for i in range(len(s))] for k, s in enumerate(shapes)}
    owner = {leg: k for k, legs in alive.items() for leg in legs}
    pending = [e for e in edges if e[0][0] != e[1][0]]
    for x, y in [e for e in edges if e[0][0] == e[1][0]]:
        k = len(shapes)
        shapes.append((shapes[x[0]][x[1]],) * 2)
        live.append(False)
        alive[k] = [(k, 0), (k, 1)]
        owner[(k, 0)] = owner[(k, 1)] = k
        pending += [(x, (k, 0)), (y, (k, 1))]
    blocks, steps = len(shapes), []

    def size(k):
        return math.prod(shapes[leaf][i] for leaf, i in alive[k])

    def merge(a, b, ax_a, ax_b):
        nonlocal blocks
        legs = ([l for i, l in enumerate(alive.pop(a)) if i not in ax_a]
                + [l for i, l in enumerate(alive.pop(b)) if i not in ax_b])
        alive[blocks] = legs
        live.append(live[a] or live[b])
        for leg in legs:
            owner[leg] = blocks
        blocks += 1
        steps.append((a, b, tuple(ax_a), tuple(ax_b)))

    while pending:
        by_pair = {}
        for edge in pending:
            a, b = owner[edge[0]], owner[edge[1]]
            by_pair.setdefault((min(a, b), max(a, b)), []).append(edge)

        def fold(pair):
            a, b = pair
            shared = {leg for edge in by_pair[pair] for leg in edge}
            merged = math.prod(shapes[leaf][i]
                               for leaf, i in alive[a] + alive[b]
                               if (leaf, i) not in shared)
            return not (live[a] or live[b]) and \
                merged <= max(size(a), size(b))

        a, b = min(by_pair, key=lambda p: (not fold(p),
                                           size(p[0]) * size(p[1])))
        ends = [(x, y) if owner[x] == a else (y, x) for x, y in by_pair[a, b]]
        merge(a, b, [alive[a].index(x) for x, _ in ends],
              [alive[b].index(y) for _, y in ends])
        pending = [e for e in pending if e not in by_pair[a, b]]
    if alive:
        first, *rest = alive
        for b in rest:
            merge(first, b, [], [])
            first = blocks - 1
    return steps


def shared_batch(seed, rows, pool):
    """Networks of one random structure whose parameter nodes draw their
    symbols from a small pool: row 0's first two nodes share one symbol, and
    row 1 reuses it, so symbols repeat within a row and across rows."""
    rng = np.random.default_rng(seed)
    template, _ = random_network(rng)
    first = template.nodes[0]
    nodes = [first, Node("twin", "param", first.shape,
                         Symbol("twin", first.shape))] + list(
        template.nodes[1:])
    edges = tuple(template.edges)
    open_legs = tuple(template.open_legs) + tuple(
        ("twin", i) for i in range(len(first.shape)))
    networks, values = [], {}
    for r in range(rows):
        picked = []
        for j, node in enumerate(nodes):
            k = 0 if (r < 2 and j < 2) else int(rng.integers(pool))
            name = f"s{k}_" + "x".join(map(str, node.shape))
            if name not in values:
                values[name] = rng.normal(size=node.shape)
            picked.append(Node(node.node_id, "param", node.shape,
                               Symbol(name, node.shape)))
        networks.append(TensorNetwork(tuple(picked), edges, open_legs))
    return networks, ParameterStore(values)


def per_row_grad(networks, ps, cotangents):
    """The sum over rows of each network's batch-of-one gradient."""
    total = np.zeros(ps.size)
    for tn, g in zip(networks, cotangents):
        total += grad_one(tn, ps, lambda v: g)[1]
    return total


class TestPlan:
    def test_linear_greedy_records_the_reference_steps(self):
        from synq.pipeline import PipelineConfig, sentence_to_diagram
        from test_scan_once import long_derivation
        rng = np.random.default_rng(23)
        networks = [random_network(rng, max_nodes=8, fixed=fixed)[0]
                    for fixed in (False, True) for _ in range(300)]
        d = (word("john", ts("n")) @ word("saw", ts("n.r", "s", "n.l"))
             @ word("mary", ts("n")))
        d = cup_at(cup_at(d, 3), 0)
        networks += [tensor_ansatz(d, DM), mps_ansatz(d, DM, 2, 3),
                     spider_ansatz(d, DM, 2)]
        text, line = long_derivation(96)
        long = sentence_to_diagram(PipelineConfig(rewrites=("determiner",)),
                                   text, line)
        networks.append(spider_ansatz(long, {"n": 2, "s": 2}, 2))
        structures = [tn.structure for tn in networks]
        # circuits, exact and as superoperator networks: their fixed leaves
        # meet, and a rotation sits between fixed neighbours
        model = compile_model(PipelineConfig(ansatz="iqp", optimizer="spsa"),
                              generate_dataset(0))
        shapes = {(c.n_qubits, tuple((op.gate, op.qubits) for op in c.ops),
                   c.postselect, c.open) for c in model.artifacts}
        for key in sorted(shapes):
            for channel in (None, np.eye(4, dtype=complex)):
                structures.append(_circuit(*key, channel))
        for structure in structures:
            assert list(plan(structure).steps) == reference_steps(structure)

    def test_groups_share_one_plan_per_structure(self):
        networks, ps = shared_batch(5, rows=4, pool=2)
        other, _ = random_network(np.random.default_rng(6))
        ps = ParameterStore({**{n: ps[n] for n in ps.names()},
                             **{s.name: np.ones(s.shape)
                                for s in other.symbols}})
        netplan = plan_networks(networks + [other], [4, 0, 2, 3], ps)
        assert [list(g.rows) for g in netplan.groups] == [[4], [0, 2, 3]]
        picked = netplan.stack([(0, [3, 4])], 0).groups
        assert [list(g.rows) for g in picked] == [[4], [3]]

    def test_stack_evaluates_each_point_as_its_own_batch(self):
        networks, ps = shared_batch(9, rows=5, pool=2)
        netplan = plan_networks(networks, range(5), ps)
        rng = np.random.default_rng(9)
        points = [rng.normal(size=ps.size) for _ in range(3)]
        parts = [(0, [1, 3]), (1, [0, 1, 4]), (2, [2]), (2, [4])]
        stacked = netplan.stack(parts, ps.size)
        assert stacked.count == 3 * 5
        (g,) = stacked.groups
        assert g.rows.tolist() == [1, 3, 5, 6, 9, 12, 14]
        values = contract_plan(stacked, np.concatenate(points))
        for (point, rows), got in zip(parts, np.split(values, [2, 5, 6])):
            alone = netplan.stack([(0, rows)], ps.size)
            assert len(alone.groups) == 1
            assert np.array_equal(got, contract_plan(alone, points[point]))

    def test_missing_symbol_is_named(self):
        networks, ps = shared_batch(1, rows=1, pool=1)
        with pytest.raises(UnboundSymbol):
            plan_networks(networks, [0], ParameterStore({}))

    def test_planner_errors_name_the_row(self):
        networks, ps = shared_batch(1, rows=3, pool=2)
        node = next(n for n in networks[2].nodes if n.kind == "param")
        name = node.symbol.name
        values = {n: ps[n] for n in ps.names() if n != name}
        with pytest.raises(UnboundSymbol,
                           match=f"row 2: no value bound for symbol {name!r}"):
            plan_networks(networks, [2], ParameterStore(values))
        values[name] = np.zeros(node.shape + (1,))
        with pytest.raises(ShapeMismatch, match=re.escape(
                f"row 2: {name}: stored {node.shape + (1,)}, "
                f"plan wants {node.shape}")):
            plan_networks(networks, [2], ParameterStore(values))


class TestBatched:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(2, 6), st.integers(1, 3))
    def test_batch_matches_rows_and_finite_differences(self, seed, rows,
                                                       pool):
        networks, ps = shared_batch(seed, rows, pool)
        netplan = plan_networks(networks, range(rows), ps)
        (group,) = netplan.groups
        assert np.array_equal(group.rows, np.arange(rows))
        vec = ps.to_vector()
        values = contract_plan(netplan, vec)
        for r, tn in enumerate(networks):
            assert np.allclose(values[r], contract(tn, ps), rtol=0,
                               atol=1e-12)
        # symbols repeat within row 0 and across rows 0 and 1
        width = math.prod(networks[0].nodes[0].shape)
        assert np.array_equal(group.index[0, :width],
                              group.index[0, width:2 * width])
        assert np.array_equal(group.index[0, :width],
                              group.index[1, :width])
        rng = np.random.default_rng(seed)
        g = rng.normal(size=values.shape)
        got_values, grad = contract_grad(netplan, vec, lambda v: g)
        assert np.array_equal(got_values, values)
        want = per_row_grad(networks, ps, g)
        assert np.max(np.abs(grad - want)) <= 1e-12 * max(
            1.0, float(np.max(np.abs(want))))
        u = rng.normal(size=vec.shape)
        h = 1e-6
        fd = (np.sum(contract_plan(netplan, vec + h * u) * g)
              - np.sum(contract_plan(netplan, vec - h * u) * g)) / (2 * h)
        assert abs(fd - grad @ u) <= 1e-6 * max(1.0, abs(fd))

    def test_zero_cotangent_skips_the_reverse_pass(self, monkeypatch):
        networks, ps = shared_batch(3, rows=3, pool=2)
        netplan = plan_networks(networks, range(3), ps)
        vec = ps.to_vector()
        reversed_passes = []
        real = contract_module._backprop
        monkeypatch.setattr(contract_module, "_backprop", lambda *args: (
            reversed_passes.append(1) or real(*args)))
        values, grad = contract_grad(netplan, vec,
                                     lambda v: np.zeros(v.shape))
        assert not reversed_passes and not grad.any()
        assert np.array_equal(values, contract_plan(netplan, vec))
        contract_grad(netplan, vec, lambda v: np.ones(v.shape))
        assert reversed_passes == [1]

    def test_rows_without_parameters_share_the_value(self):
        m = Node("m", "delta", (3, 3))
        tn = TensorNetwork((m,), ((("m", 0), ("m", 1)),), ())
        netplan = plan_networks([tn, tn], [0, 1], ParameterStore({}))
        values, grad = contract_grad(netplan, np.zeros(0),
                                     lambda v: np.ones(v.shape))
        assert values.tolist() == [3.0, 3.0] and grad.size == 0


def alone(plan, g):
    """Group g of ``plan`` as a plan of its own, for the reference loops
    that run one group at a time."""
    return NetworkPlan((g,), plan.count)


def random_structure(rng, open_shape):
    """The nodes (id, kind, shape), edges and open legs of a random
    network whose open legs have ``open_shape``, in order. The legs of
    parameter, delta and copy nodes pair up at random by dimension, and a
    leg left over is capped by a one-leg copy node. Half the time a
    parameter node traces two of its legs over a self-edge, and half the
    time a traced matrix is a disconnected scalar piece."""
    nodes, edges, legs = [], [], []

    def add(kind, shape):
        nodes.append((f"n{len(nodes)}", kind, tuple(int(d) for d in shape)))
        return nodes[-1][0]

    def dims(n):
        return rng.integers(2, 4, size=n)

    for _ in range(rng.integers(1, 4)):
        shape = dims(rng.integers(1, 4))
        node = add("param", shape)
        legs += [((node, i), int(d)) for i, d in enumerate(shape)]
    if rng.random() < 0.5:
        d = dims(1)[0]
        shape = (d, d) if rng.random() < 0.5 else (d, d, d)
        node = add(["delta", "copy"][len(shape) - 2], shape)
        legs += [((node, i), int(d)) for i in range(len(shape))]
    if rng.random() < 0.5:
        d, e = dims(2)
        node = add("param", (d, d, e))
        edges.append(((node, 0), (node, 1)))
        legs.append(((node, 2), int(e)))
    if rng.random() < 0.5:
        d = dims(1)[0]
        node = add("param", (d, d))
        edges.append(((node, 0), (node, 1)))
    rng.shuffle(legs)

    def take(d):
        at = next((k for k, (_, dim) in enumerate(legs) if dim == d), None)
        return None if at is None else legs.pop(at)[0]

    open_legs = [take(d) or (add("param", (d,)), 0) for d in open_shape]
    while legs:
        leg, d = legs.pop()
        edges.append((leg, take(d) or (add("copy", (d,)), 0)))
    return nodes, edges, open_legs


def network_of(structure, rng, pool):
    """The network of ``structure`` whose parameter nodes each draw one of
    ``pool`` symbols of their shape, so symbols repeat within and across
    networks and structures."""
    nodes, edges, open_legs = structure
    return TensorNetwork(tuple(
        Node(i, kind, shape, Symbol(
            f"s{rng.integers(pool)}_" + "x".join(map(str, shape)), shape)
            if kind == "param" else None)
        for i, kind, shape in nodes), tuple(edges), tuple(open_legs))


class TestMultiStructure:
    """One NetworkPlan of several random structures sharing one open
    shape, stacked over several points, against per-network ``contract``,
    the einsum oracle and finite differences."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(2, 4),
           st.sampled_from([(), (2,), (3,), (2, 3)]), st.integers(1, 2),
           st.integers(1, 3))
    def test_plan_matches_networks_and_finite_differences(
            self, seed, structures, open_shape, pool, points):
        rng = np.random.default_rng(seed)
        networks = []
        for k in range(structures):  # structure 0 is a singleton group
            structure = random_structure(rng, open_shape)
            networks += [network_of(structure, rng, pool)
                         for _ in range(1 if k == 0 else rng.integers(1, 4))]
        names = {s.name: s.shape for tn in networks for s in tn.symbols}
        store = ParameterStore({name: rng.normal(size=shape)
                                for name, shape in names.items()})
        count, size = len(networks), store.size
        netplan = plan_networks(networks, rng.permutation(count), store)
        parts = [(p, sorted(rng.choice(count, rng.integers(1, count + 1),
                                       replace=False).tolist()))
                 for p in range(points)]
        stacked = netplan.stack(parts, size)
        vecs = [store.to_vector() + rng.normal(scale=0.3, size=size)
                for _ in range(points)]
        stores = [store.from_vector(vec) for vec in vecs]
        flat = np.concatenate(vecs)

        values = contract_plan(stacked, flat)
        assert values.shape == (len(stacked.rows),) + open_shape
        for row, value in zip(stacked.rows.tolist(), values):
            point, item = divmod(row, count)
            for want in (contract(networks[item], stores[point]),
                         naive_contract(networks[item], stores[point])):
                assert np.allclose(value, want, rtol=1e-12, atol=1e-12)

        # one group, when there are several, has an all-zero cotangent
        g = rng.normal(size=values.shape)
        starts = np.cumsum([0] + [len(grp.rows) for grp in stacked.groups])
        if len(stacked.groups) > 1:
            dead = rng.integers(len(stacked.groups))
            g[starts[dead]:starts[dead + 1]] = 0.0
        got_values, grad = contract_grad(stacked, flat, lambda v: g)
        assert np.array_equal(got_values, values)
        # the groups' gradients, each taken alone, summed in group order
        want = np.zeros(len(flat))
        for k, grp in enumerate(stacked.groups):
            cut = g[starts[k]:starts[k + 1]]
            want += contract_grad(alone(stacked, grp), flat,
                                  lambda v, cut=cut: cut)[1]
        assert np.array_equal(grad, want)
        rows = np.zeros(len(flat))
        for row, cot in zip(stacked.rows.tolist(), g):
            point, item = divmod(row, count)
            rows[point * size:(point + 1) * size] += grad_one(
                networks[item], stores[point], lambda v, cot=cot: cot)[1]
        assert np.max(np.abs(grad - rows), initial=0.0) <= 1e-12 * max(
            1.0, float(np.max(np.abs(rows), initial=0.0)))
        u, h = rng.normal(size=flat.shape), 1e-6
        fd = (np.sum(contract_plan(stacked, flat + h * u) * g)
              - np.sum(contract_plan(stacked, flat - h * u) * g)) / (2 * h)
        assert abs(fd - grad @ u) <= 1e-6 * max(1.0, abs(fd))


def unfolded_replay(p, params):
    """Every tensor of the recorded contraction, every step run in order:
    the replay without constant folding."""
    tensors = list(p.leaves)
    for k, value in zip(p.params, params):
        tensors[k] = value
    for (a, b, _, _), script in zip(p.steps, p.scripts):
        tensors.append(np.einsum(script, tensors[a], tensors[b]))
    return tensors


def assert_folding_exact(p, params):
    """The folded replay equals the unfolded one bit for bit, tensor by
    tensor, and every folded constant is read-only."""
    got, want = _replay(p, params), unfolded_replay(p, params)
    assert len(got) == len(want) == len(p.fixed)
    for k, (a, b) in enumerate(zip(got, want)):
        assert np.array_equal(a, b) and np.shape(a) == np.shape(b)
        assert (p.fixed[k] is None) == p.live[k]
        if p.fixed[k] is not None:
            assert a is p.fixed[k] and not p.fixed[k].flags.writeable
    assert [c for c, _, _, _ in p.run] == [
        len(p.leaves) + s for s in range(len(p.steps))
        if p.live[len(p.leaves) + s]]


def renamed(tn, suffix):
    """tn with every parameter node's symbol renamed: one structure."""
    return TensorNetwork(tuple(
        Node(n.node_id, n.kind, n.shape, Symbol(n.symbol.name + suffix,
                                                n.shape))
        for n in tn.nodes), tn.edges, tn.open_legs)


class TestPlanCache:
    def test_one_structure_plans_once(self, monkeypatch):
        calls = []
        monkeypatch.setattr(contract_module, "plan",
                            lambda tn, plan=plan: calls.append(tn) or plan(tn))
        contract_module._planned.cache_clear()
        tn, ps = random_network(np.random.default_rng(12))
        other = renamed(tn, "_b")
        ps = ParameterStore({**{n: ps[n] for n in ps.names()},
                             **{s.name: np.full(s.shape, 0.5)
                                for s in other.symbols}})
        assert {s.name for s in tn.symbols}.isdisjoint(
            s.name for s in other.symbols)
        for network in (tn, other, tn):
            contract(network, ps)
        netplan = plan_networks([tn, other], [0, 1], ps)
        assert len(calls) == 1 and len(netplan.groups) == 1
        assert np.array_equal(contract_plan(netplan, ps.to_vector())[1],
                              contract(other, ps))

    def test_edge_and_leg_order_get_their_own_plans(self):
        rng = np.random.default_rng(4)
        tn, ps = random_network(rng)
        while len(tn.edges) < 2 or len(tn.open_legs) < 2:
            tn, ps = random_network(rng)
        (x, y), *rest = tn.edges
        variants = [tn, replace(tn, edges=tn.edges[::-1]),
                    replace(tn, edges=((y, x), *rest)),
                    replace(tn, open_legs=tn.open_legs[::-1])]
        plans = {id(contract_module._planned(v.structure))
                 for v in variants}
        assert len(plans) == len(variants)
        for v in variants:
            p = plan(v.structure)  # uncached
            params = [ps[v.nodes[k].symbol.name][None] for k in p.params]
            want = _value(p, unfolded_replay(p, params), 1)[0]
            assert np.array_equal(contract(v, ps), want)

    def test_cache_is_bounded(self):
        maxsize = contract_module._planned.cache_info().maxsize
        assert maxsize == 1024
        try:
            for d in range(1, maxsize + 10):  # one structure per dimension
                u = Node("u", "param", (d,), Symbol("u", (d,)))
                contract(TensorNetwork((u,), (), (("u", 0),)),
                         ParameterStore({"u": np.ones(d)}))
            assert contract_module._planned.cache_info().currsize == maxsize
        finally:
            contract_module._planned.cache_clear()


class TestFolding:
    def test_constant_step_is_folded_read_only(self):
        # m and k are fixed and their edge comes first at the smallest
        # size product, so the first step is constant and the second live
        m, k = Node("m", "delta", (2, 2)), Node("k", "delta", (2, 2))
        u = Node("u", "param", (2, 2), Symbol("u", (2, 2)))
        tn = TensorNetwork((m, k, u), ((("m", 1), ("k", 0)),
                                       (("k", 1), ("u", 0))),
                           (("m", 0), ("u", 1)))
        p = plan(tn.structure)
        assert len(p.steps) == 2 and len(p.run) == 1
        assert np.array_equal(p.fixed[3], np.eye(2))
        with pytest.raises(ValueError):
            p.fixed[3][0, 0] = 2.0
        ps = ParameterStore({"u": [[1.0, 2.0], [3.0, 4.0]]})
        assert_folding_exact(p, [ps["u"][None]])
        assert np.array_equal(contract(tn, ps), ps["u"])

    def test_network_without_parameters_is_one_constant(self):
        m = Node("m", "delta", (3, 3))
        tn = TensorNetwork((m, Node("c", "copy", (3, 3, 3))),
                           ((("m", 0), ("c", 0)), (("m", 1), ("c", 1))),
                           (("c", 2),))
        p = plan(tn.structure)
        assert p.run == () and len(p.steps) == 1
        assert_folding_exact(p, [])
        assert np.array_equal(contract(tn, ParameterStore({})), np.ones(3))

    def test_tensor_plans_stay_float(self):
        fixed = []
        for ansatz in ("spider", "tensor", "mps"):
            model = compile_model(PipelineConfig(ansatz=ansatz),
                                  generate_dataset(0))
            groups = plan_networks(model.artifacts,
                                   range(len(model.artifacts)),
                                   model.store).groups
            fixed += [t for g in groups for t in g.plan.fixed
                      if t is not None]
        assert fixed and all(t.dtype == np.float64 for t in fixed)

    def test_random_networks_replay_equal_unfolded(self):
        rng = np.random.default_rng(8)
        for fixed in (False, True):
            for _ in range(30):
                tn, ps = random_network(rng, fixed=fixed)
                p = plan(tn.structure)
                assert_folding_exact(
                    p, [ps[tn.nodes[k].symbol.name][None] for k in p.params])


class TestUndispatchedEinsum:
    def test_passes_and_folding_never_call_np_einsum(self, monkeypatch):
        """Every engine einsum, the constant folding of a plan built here
        included, goes through contract._einsum, numpy's einsum without
        its dispatch; the values and gradient are those of a cached plan."""
        from synq import simulator
        from synq.pipeline import prediction_gradient
        assert contract_module._einsum is not np.einsum
        ds = generate_dataset(0)
        spider = compile_model(PipelineConfig(ansatz="spider"), ds)
        iqp = compile_model(PipelineConfig(ansatz="iqp", optimizer="spsa"), ds)

        def passes():
            vec = spider.store.to_vector()
            p1, grad = prediction_gradient(
                plan_networks(spider.artifacts, range(len(ds.items)),
                              spider.store), vec, lambda p: p - 0.5)
            circuits = simulator.plan_circuits(iqp.artifacts, iqp.store)
            return p1, grad, contract_plan(circuits, iqp.store.to_vector())

        want = passes()

        def dispatched(*args, **kwargs):
            raise AssertionError("np.einsum called")

        monkeypatch.setattr(np, "einsum", dispatched)
        contract_module._planned.cache_clear()
        simulator._circuit_plan.cache_clear()
        got = passes()
        groups = simulator.plan_circuits(iqp.artifacts, iqp.store).groups
        assert any(t is not None for g in groups  # a folded constant step
                   for t in g.plan.fixed[len(g.plan.leaves):])
        for a, b in zip(got, want):
            assert np.array_equal(a, b)


def reference_structure(art):
    """The structure an artifact is planned by, walked off it by node id:
    a circuit's qubit count and each op's gate and qubits, or a network's
    node kinds and shapes, then its edges and open legs by node position.
    The reference for ``structure``, which the constructors record."""
    if isinstance(art, Circuit):
        return art.n_qubits, tuple((op.gate, op.qubits) for op in art.ops)
    index = {node.node_id: k for k, node in enumerate(art.nodes)}
    return (tuple((n.kind, n.shape) for n in art.nodes),
            tuple(((index[a], i), (index[b], j))
                  for (a, i), (b, j) in art.edges),
            tuple((index[a], i) for a, i in art.open_legs))


ANSATZE = ("iqp", "spider", "tensor", "mps")


def _config(ansatz, **fields):
    return PipelineConfig(ansatz=ansatz, optimizer="spsa" if ansatz == "iqp"
                          else "adam", **fields)


class TestStructure:
    """Each network and circuit records the structure it is planned by when
    it is built, and a re-labelled instance holds its template's."""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.booleans())
    def test_random_networks_record_the_reference(self, seed, fixed):
        tn, _ = random_network(np.random.default_rng(seed), max_nodes=8,
                               fixed=fixed)
        assert tn.structure == reference_structure(tn)
        # no part of equality, hash or repr
        twin = TensorNetwork(tn.nodes, tn.edges, tn.open_legs)
        assert twin == tn and hash(twin) == hash(tn)
        assert twin.structure is not tn.structure
        assert repr(tn) == (f"TensorNetwork(nodes={tn.nodes!r}, "
                            f"edges={tn.edges!r}, "
                            f"open_legs={tn.open_legs!r})")
        other = TensorNetwork(tuple(
            replace(n, symbol=Symbol(n.symbol.name + "_b", n.shape))
            if n.symbol else n for n in tn.nodes), tn.edges, tn.open_legs)
        assert other != tn and other.structure == tn.structure

    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("ansatz", ANSATZE)
    def test_mc_instances_hold_their_template_structure(self, ansatz, seed):
        from synq import pipeline
        pipeline._artifact_templates.cache_clear()
        model = compile_model(_config(ansatz), generate_dataset(seed))
        by_key = {}
        for art in model.artifacts:
            assert art.structure == reference_structure(art)
            by_key.setdefault(repr(reference_structure(art)), []).append(art)
        # the 130 sentences have 4 shapes, each compiled once as a template
        # whose instances share its structure object
        assert pipeline._artifact_templates.cache_info().misses == 4
        assert len({id(art.structure) for art in model.artifacts}) == 4
        for group in by_key.values():
            assert all(art.structure is group[0].structure for art in group)

    def test_long_ccg_networks_record_the_reference(self):
        from synq.pipeline import compile_diagram, sentence_to_diagram
        from test_scan_once import long_derivation
        cfg = _config("spider", rewrites=("determiner",))
        for words in (*range(8, 16), 24, 48, 96, 192):
            art = compile_diagram(cfg, sentence_to_diagram(
                cfg, *long_derivation(words)))
            assert art.structure == reference_structure(art)

    def test_fixture_artifacts_record_the_reference(self):
        from pathlib import Path
        from synq.ansatz import UnsupportedBox
        from synq.ccg import section_to_diagrams
        from synq.pipeline import compile_diagram
        fixtures = Path(__file__).parent / "data" / "fixtures.auto"
        diagrams = [r.diagram for r in section_to_diagrams(fixtures) if r.ok]
        compiled = {ansatz: 0 for ansatz in ANSATZE}
        for d in diagrams:
            for ansatz in ANSATZE:
                try:
                    art = compile_diagram(_config(ansatz), d)
                except UnsupportedBox:  # a swap has no circuit
                    continue
                compiled[ansatz] += 1
                assert art.structure == reference_structure(art)
        assert compiled["iqp"] and all(
            compiled[a] == len(diagrams) for a in ANSATZE[1:])


def unchained(structure):
    """The plan of ``structure`` with chaining disabled: every live step
    replayed in turn, the reference for a chain's product tree."""
    saved = contract_module.CHAIN_MIN
    contract_module.CHAIN_MIN = math.inf
    try:
        return plan(structure)
    finally:
        contract_module.CHAIN_MIN = saved


def unchained_networks(networks, rows, store):
    """``plan_networks`` with every structure planned by ``unchained``."""
    return plan_rows(((row, networks[row].structure,
                       [(n.symbol.name, n.shape) for n in networks[row].nodes
                        if n.kind == "param"])
                      for row in rows), len(networks), store, unchained)


def chain_networks(rng, runs, d, rows, fixed_start=False, twin=False):
    """``rows`` networks of one structure: a (d,) vector, then runs of
    (d, d) matrices applied to it one after the other by their second axis
    (``Zab,Zb->Za``), ``runs`` giving each run's length; between two runs,
    one matrix applied by its first axis (``Zab,Za->Zb``). The matrices'
    nodes come in a shuffled order and the vector's last, so each step's
    matrix is its operand a. With ``fixed_start`` the vector is a fixed
    one-leg copy node (all ones); with ``twin`` each network's first and
    last matrices share one symbol. Row r's symbols are its own, except
    that every row shares the first matrix's. Also returns each network's
    matrices, in the order they apply, with the side they apply by."""
    sides = []
    for k, length in enumerate(runs):
        sides += ([0] if k else []) + [1] * length
    order = rng.permutation(len(sides))
    ids = [f"m{i}" for i in range(len(sides))]
    nodes, edges = [None] * len(sides), []
    prev = ("v", 0)
    for i, side in enumerate(sides):
        edges.append((prev, (ids[i], side)))
        prev = (ids[i], 1 - side)
    networks, values, chains = [], {}, []
    for r in range(rows):
        names = [f"r{r}_m{i}" for i in range(len(sides))]
        names[0] = "shared"
        if twin:
            names[-1] = names[0]
        for i, name in enumerate(names):
            nodes[order[i]] = Node(ids[i], "param", (d, d),
                                   Symbol(name, (d, d)))
        for name in names:  # N(0, 1/d), as ParameterStore.initialize draws
            values.setdefault(name, rng.normal(size=(d, d)) / d)
        start = Node("v", "copy", (d,)) if fixed_start else Node(
            "v", "param", (d,), Symbol(f"r{r}_v", (d,)))
        if not fixed_start:
            values[f"r{r}_v"] = rng.normal(size=d)
        networks.append(TensorNetwork((*nodes, start), tuple(edges),
                                      (prev,)))
        chains.append(list(zip(names, sides)))
    return networks, ParameterStore(values), chains


def chain_oracle(chain, start, ps):
    """The vector after each matrix of ``chain`` applies to ``start`` in
    turn, by its second axis (side 1) or its first (side 0)."""
    v = start
    for name, side in chain:
        v = np.einsum("ab,b->a" if side else "ab,a->b", ps[name], v)
    return v


def close(got, want, rel):
    """Norm-wise relative agreement of two arrays."""
    return np.max(np.abs(got - want)) <= rel * np.max(np.abs(want))


def chain_bound(chain, start, ps):
    """How far a product of ``chain`` applied to ``start`` may round from
    ``chain_oracle``: 1e-12 of its largest entry, or eight eps of its
    first-order rounding scale if that is larger. The scale sums, over the
    steps, |matrix| @ |vector| there times the norm of the steps after it;
    it exceeds the largest entry by far more than the chain's length only
    where the steps cancel."""
    mats = [ps[name] if side else ps[name].T for name, side in chain]
    vectors = [start]
    for a in mats:
        vectors.append(a @ vectors[-1])
    after, scale = np.eye(len(start)), 0.0
    for a, v in zip(mats[::-1], vectors[-2::-1]):
        scale += np.linalg.norm(after, 2) * np.linalg.norm(
            np.abs(a) @ np.abs(v))
        after = after @ a
    return max(1e-12 * np.max(np.abs(vectors[-1])),
               8 * np.finfo(float).eps * scale)


M = contract_module.CHAIN_MIN  # the fewest steps a chain step takes


class TestChains:
    """A run of at least CHAIN_MIN matrix steps replays as one product
    tree, forward and backward, against the einsum oracle, the sequential
    replay and finite differences."""

    @settings(max_examples=80, deadline=None)
    @example(26, (32,), 2, 2, True, False)  # a value of 4e-12 from O(1) terms
    @given(st.integers(0, 2 ** 32 - 1),
           st.sampled_from([(M - 1,), (M,), (M + 1,), (2 * M + 1,),
                            (2 * M,), (200,), (M, M + 3), (3, 2 * M + 1)]),
           st.sampled_from([2, 3]), st.integers(1, 3), st.booleans(),
           st.booleans())
    def test_chain_plans_match_the_oracles(self, seed, runs, d, rows,
                                           fixed_start, twin):
        rng = np.random.default_rng(seed)
        networks, ps, chains = chain_networks(rng, runs, d, rows,
                                              fixed_start, twin)
        p = plan(networks[0].structure)
        # each run long enough is one chain step; a dual-side step ends one
        assert [len(c) for c in p.chains] == [n for n in runs if n >= M]
        assert len(p.run) == sum(runs) + len(runs) - 1 - sum(
            n - 1 for n in runs if n >= M)
        netplan = plan_networks(networks, range(rows), ps)
        (group,) = netplan.groups
        vec = ps.to_vector()
        values = contract_plan(netplan, vec)
        bounds = []
        for r, tn in enumerate(networks):
            start = np.ones(d) if fixed_start else ps[f"r{r}_v"]
            want = chain_oracle(chains[r], start, ps)
            bounds.append(chain_bound(chains[r], start, ps))
            assert np.max(np.abs(values[r] - want)) <= bounds[r]
            assert np.max(np.abs(contract(tn, ps) - want)) <= bounds[r]
            if len(tn.edges) < 50:  # labels for one np.einsum
                naive = naive_contract(tn, ps, "greedy")
                assert np.max(np.abs(values[r] - naive)) <= bounds[r]
        sequential = unchained_networks(networks, range(rows), ps)
        err = np.abs(values - contract_plan(sequential, vec))
        assert np.all(np.max(err, axis=1) <= bounds)
        g = rng.normal(size=values.shape)
        got_values, grad = contract_grad(netplan, vec, lambda v: g)
        assert np.array_equal(got_values, values)
        assert close(grad, contract_grad(sequential, vec, lambda v: g)[1],
                     1e-12)
        # relative to the terms of grad @ u: a long chain's value shrinks by
        # orders of magnitude, and the terms may cancel
        x0, h = vec, 1e-6
        for _ in range(3):
            u = rng.normal(size=x0.shape)
            fd = (np.sum(contract_plan(netplan, x0 + h * u) * g)
                  - np.sum(contract_plan(netplan, x0 - h * u) * g)) / (2 * h)
            assert abs(fd - grad @ u) <= 1e-6 * (np.abs(grad) @ np.abs(u))

    def test_shared_symbol_cotangents_sum(self):
        rng = np.random.default_rng(3)
        (tn,), ps, chains = chain_networks(rng, (M + 2,), 2, 1, twin=True)
        assert len(plan(tn.structure).chains) == 1
        assert chains[0][0][0] == chains[0][-1][0] == "shared"
        # the same network with its last matrix under a symbol of its own
        last = max(tn.nodes[:-1], key=lambda n: int(n.node_id[1:]))
        split = TensorNetwork(tuple(
            replace(n, symbol=Symbol("split", n.shape)) if n is last else n
            for n in tn.nodes), tn.edges, tn.open_legs)
        ps_split = ParameterStore({**{n: ps[n] for n in ps.names()},
                                   "split": ps["shared"]})
        upstream = rng.normal(size=2)
        got = ps.from_vector(grad_one(tn, ps, lambda v: upstream)[1])
        parts = ps_split.from_vector(
            grad_one(split, ps_split, lambda v: upstream)[1])
        assert close(got["shared"], parts["shared"] + parts["split"], 1e-12)
        want = ps.from_vector(fd_gradient(tn, ps, upstream))
        assert close(got["shared"], want["shared"], 1e-7)

    def test_fixed_start_gathers_only_the_matrices(self):
        rng = np.random.default_rng(4)
        networks, ps, chains = chain_networks(rng, (M,), 3, 2,
                                              fixed_start=True)
        p = plan(networks[0].structure)
        (c, a, b, script), = p.run
        assert script == "Zab,b->Za" and not p.live[b]
        assert p.inputs == (a,) == (p.chains[0][0],)
        assert p.cuts == ((0, M * 9, (-1, M, 3, 3)),)
        (group,) = plan_networks(networks, [0, 1], ps).groups
        # the block's columns: each row's matrices in the order they apply
        layout = [ps.layout[[name for name, _, _ in ps.layout].index(n)][2]
                  for n, _ in chains[1]]
        assert group.index[1].tolist() == [
            i for offset in layout for i in range(offset, offset + 9)]

    @staticmethod
    def long_ccg(words):
        """The spider network of a long-ccg sentence of ``words`` words:
        'the ADJ* N V the ADJ* N', the benchmark's shape."""
        from synq.pipeline import compile_diagram, sentence_to_diagram
        from test_scan_once import long_derivation
        cfg = _config("spider", rewrites=("determiner",))
        return compile_diagram(cfg, sentence_to_diagram(
            cfg, *long_derivation(words)))

    def test_plans_without_chains_are_the_unchained(self):
        structures = {self.long_ccg(words).structure
                      for words in range(8, 16)}  # its training and dev
        for seed in (0, 7):
            for ansatz in ("spider", "tensor", "mps"):
                model = compile_model(_config(ansatz, seed=seed),
                                      generate_dataset(seed))
                structures |= {art.structure for art in model.artifacts}
        assert len(structures) == 8 + 8  # mc: tensor and mps share theirs
        for structure in structures:
            p, want = contract_module._planned(structure), unchained(structure)
            assert p.chains == p.trees == () and p.layout is None
            assert p.run == want.run and p.back == want.back
            assert p.inputs == p.singles == p.params
            assert p.cuts == want.cuts

    @pytest.mark.parametrize("words", [48, 96, 192])
    def test_long_ccg_test_plans_hold_two_chains(self, words):
        tn = self.long_ccg(words)
        p, want = plan(tn.structure), unchained(tn.structure)
        assert len(p.chains) == 2 and p.layout is not None
        assert sum(map(len, p.chains)) + len(p.run) - 2 == len(want.run)
        for seed in (0, 3, 7):
            ps = ParameterStore.initialize(tn.symbols, seed)
            inputs = [ps[tn.nodes[k].symbol.name][None] for k in want.params]
            assert close(contract(tn, ps),
                         _value(want, _replay(want, inputs), 1)[0], 1e-12)

    def test_chain_leaf_errors_are_the_per_leaf_ones(self):
        (tn,), ps, chains = chain_networks(np.random.default_rng(6), (M + 1,),
                                           2, 1)
        assert len(plan(tn.structure).chains) == 1
        names = [name for name, _ in chains[0]]
        values = {n: ps[n] for n in ps.names()}
        for store, error, message in (
                ({n: v for n, v in values.items() if n != names[5]},
                 UnboundSymbol, f"no value bound for symbol {names[5]!r}"),
                ({**values, names[5]: np.zeros((3, 2))}, ShapeMismatch,
                 f"{names[5]}: stored (3, 2), network wants (2, 2)"),
                ({**values, **{n: np.zeros((2, 2, 1)) for n in names}},
                 ShapeMismatch,
                 f"{names[0]}: stored (2, 2, 1), network wants (2, 2)")):
            with pytest.raises(error) as exc:
                contract(tn, ParameterStore(store))
            assert str(exc.value) == message
