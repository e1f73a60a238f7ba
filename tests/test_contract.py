import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synq.ansatz import (
    Node, Symbol, TensorNetwork, mps_ansatz, spider_ansatz, tensor_ansatz,
)
from synq import contract as contract_module
from synq.contract import (
    ShapeMismatch, _replay, _structure, _value, contract, contract_batch,
    contract_grad, plan, plan_networks,
)
from synq.dataset import generate_dataset
from synq.diagram import Cap, Cup, Diagram, Spider, Word, cup_at, word
from synq.params import ParameterStore, UnboundSymbol
from synq.pipeline import PipelineConfig, compile_model
from synq.types import ts

DM = {"n": 3, "s": 2}


def store_for(tn, seed=0):
    return ParameterStore.initialize(tn.symbols, seed)


def grad_one(tn, ps, upstream):
    """contract_grad of ``tn`` as a batch of one; upstream sees its value."""
    (group,) = plan_networks([tn], [0], ps).groups
    values, flat = contract_grad(group, ps.to_vector(),
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
        for trial in range(25):
            tn, ps = random_network(rng)
            upstream = rng.normal(
                size=tuple(tn.leg_dim(leg) for leg in tn.open_legs))
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
                size=tuple(tn.leg_dim(leg) for leg in tn.open_legs))
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
            (group,) = plan_networks([tn], [0], ps).groups
            seen = []
            values, _ = contract_grad(
                group, ps.to_vector(),
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


def reference_steps(tn):
    """The greedy rule of ``plan`` as a scan of every pending edge at each
    step, quadratic in the edges; steps as ``plan`` records them."""
    index = {node.node_id: k for k, node in enumerate(tn.nodes)}
    shapes = [node.shape for node in tn.nodes]
    alive = {k: [(k, i) for i in range(len(s))] for k, s in enumerate(shapes)}
    owner = {leg: k for k, legs in alive.items() for leg in legs}
    edges = [((index[a], i), (index[b], j)) for (a, i), (b, j) in tn.edges]
    pending = [e for e in edges if e[0][0] != e[1][0]]
    for x, y in [e for e in edges if e[0][0] == e[1][0]]:
        k = len(shapes)
        shapes.append((shapes[x[0]][x[1]],) * 2)
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
        for leg in legs:
            owner[leg] = blocks
        blocks += 1
        steps.append((a, b, tuple(ax_a), tuple(ax_b)))

    while pending:
        by_pair = {}
        for edge in pending:
            a, b = owner[edge[0]], owner[edge[1]]
            by_pair.setdefault((min(a, b), max(a, b)), []).append(edge)
        a, b = min(by_pair, key=lambda p: size(p[0]) * size(p[1]))
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
        networks = [random_network(rng, max_nodes=8)[0] for _ in range(300)]
        d = (word("john", ts("n")) @ word("saw", ts("n.r", "s", "n.l"))
             @ word("mary", ts("n")))
        d = cup_at(cup_at(d, 3), 0)
        networks += [tensor_ansatz(d, DM), mps_ansatz(d, DM, 2, 3),
                     spider_ansatz(d, DM, 2)]
        text, line = long_derivation(96)
        long = sentence_to_diagram(PipelineConfig(rewrites=("determiner",)),
                                   text, line)
        networks.append(spider_ansatz(long, {"n": 2, "s": 2}, 2))
        for tn in networks:
            assert list(plan(tn).steps) == reference_steps(tn)

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
        values = contract_batch(g, np.concatenate(points))
        for (point, rows), got in zip(parts, np.split(values, [2, 5, 6])):
            (alone,) = netplan.stack([(0, rows)], ps.size).groups
            assert np.array_equal(got, contract_batch(alone, points[point]))

    def test_missing_symbol_is_named(self):
        networks, ps = shared_batch(1, rows=1, pool=1)
        with pytest.raises(UnboundSymbol):
            plan_networks(networks, [0], ParameterStore({}))


class TestBatched:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(2, 6), st.integers(1, 3))
    def test_batch_matches_rows_and_finite_differences(self, seed, rows,
                                                       pool):
        networks, ps = shared_batch(seed, rows, pool)
        (group,) = plan_networks(networks, range(rows), ps).groups
        assert np.array_equal(group.rows, np.arange(rows))
        vec = ps.to_vector()
        values = contract_batch(group, vec)
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
        got_values, grad = contract_grad(group, vec, lambda v: g)
        assert np.array_equal(got_values, values)
        want = per_row_grad(networks, ps, g)
        assert np.max(np.abs(grad - want)) <= 1e-12 * max(
            1.0, float(np.max(np.abs(want))))
        u = rng.normal(size=vec.shape)
        h = 1e-6
        fd = (np.sum(contract_batch(group, vec + h * u) * g)
              - np.sum(contract_batch(group, vec - h * u) * g)) / (2 * h)
        assert abs(fd - grad @ u) <= 1e-6 * max(1.0, abs(fd))

    def test_zero_cotangent_skips_the_reverse_pass(self, monkeypatch):
        networks, ps = shared_batch(3, rows=3, pool=2)
        (group,) = plan_networks(networks, range(3), ps).groups
        vec = ps.to_vector()
        reversed_passes = []
        real = contract_module._backprop
        monkeypatch.setattr(contract_module, "_backprop", lambda *args: (
            reversed_passes.append(1) or real(*args)))
        values, grad = contract_grad(group, vec, lambda v: np.zeros(v.shape))
        assert not reversed_passes and not grad.any()
        assert np.array_equal(values, contract_batch(group, vec))
        contract_grad(group, vec, lambda v: np.ones(v.shape))
        assert reversed_passes == [1]

    def test_rows_without_parameters_share_the_value(self):
        m = Node("m", "delta", (3, 3))
        tn = TensorNetwork((m,), ((("m", 0), ("m", 1)),), ())
        (group,) = plan_networks([tn, tn], [0, 1], ParameterStore({})).groups
        values, grad = contract_grad(group, np.zeros(0),
                                     lambda v: np.ones(v.shape))
        assert values.tolist() == [3.0, 3.0] and grad.size == 0


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
        (group,) = plan_networks([tn, other], [0, 1], ps).groups
        assert len(calls) == 1
        assert np.array_equal(contract_batch(group, ps.to_vector())[1],
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
        plans = {id(contract_module._planned(_structure(v)))
                 for v in variants}
        assert len(plans) == len(variants)
        for v in variants:
            p = plan(v)  # uncached
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
        p = plan(tn)
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
        p = plan(tn)
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
        for _ in range(30):
            tn, ps = random_network(rng)
            p = plan(tn)
            assert_folding_exact(
                p, [ps[tn.nodes[k].symbol.name][None] for k in p.params])
