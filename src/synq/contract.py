"""Exact tensor-network contraction and its reverse-mode gradient.

A contraction has two parts. ``plan`` runs a greedy on the node shapes
alone and records its steps. At each step it contracts every edge between
the pair of blocks (nodes or earlier results) whose operand sizes have the
smallest product, taking the first such pair in edge order. That product
bounds the step's cost and is read off the shapes. Choosing by the size of
the merged tensor needs each pair's shared dimensions; on the mc-spider
and long-ccg networks it found plans with the same multiply-add count, and
it made the long-ccg forward passes slower. A table of the pending edges of
each block pair, updated as blocks merge, keeps the greedy linear in the
edges. Pieces left unconnected combine by outer product, and an edge
joining two legs of one node is routed through an identity node, so every
step contracts two tensors. The value does not depend on the order, up to
rounding.

The replay runs the recorded steps as ``np.einsum`` calls over a batch of
networks of one structure. Every tensor a parameter reaches carries a
leading sentence axis; the fixed leaves (copy, delta and identity tensors,
a circuit's |0>, <0|, H and CX, a noisy circuit's depolarising channel) do
not and are shared by every row. A step that joins two tensors no
parameter reaches is constant: a ``Plan`` computes it once, when it is
built, and keeps the result read-only, and the replay runs the live steps
alone. A circuit's plan has such steps (5 to 11 of the 23 to 41 steps of
an mc-iqp circuit, 18 to 38 of the 56 to 100 of its noisy network); a
tensor model's has none. A plan has one dtype: a circuit's fixed leaves
are complex, like its rotation tensors, so folding and every live step run
all-complex (``np.einsum`` is two to three times slower on a step that
mixes float and complex operands); a tensor model's plan stays float.

``contract`` and ``plan_networks`` take each structure's plan from a
bounded cache, so a structure is planned once, not on every call; ``plan``
itself is uncached. ``plan_networks`` groups networks by structure; each
row's parameters are gathered from the flat vector with index arrays: a
stored tensor's entries, or the angle of a circuit's rotation gate. When a
circuit group is built, it finds, per gate, the distinct offsets of its
leaves' angles and each leaf's map into them. A gather then calls that
gate's ``ansatz.GATE_TENSORS`` kernel once on the distinct angles, and
every leaf takes its rows from the result: the rows of a group share most
of their symbols (on mc-iqp, 50 to 120 distinct angles per gate against
172 to 344 leaf tensors).
``NetworkPlan.stack`` lays several flat vectors end to end, so one batch
per structure serves rows under different vectors (SPSA's two probes and
the current point). ``contract`` is a batch of one.

The gradient walks the live steps backwards from the cotangent of the
values: the cotangent of each operand is the result's cotangent contracted
with the other operand. Rows, and nodes of one row, that share a symbol sum
their cotangents in the store's flat layout with ``np.add.at`` (Liao et
al., arXiv:1903.09650).
"""
from __future__ import annotations

import heapq
import math
import string
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Optional, Sequence

import numpy as np

from .ansatz import GATE_TENSORS, ROTATIONS, Node, Symbol, TensorNetwork
from .params import ParameterStore, UnboundSymbol

_BATCH = "Z"  # the einsum label of the sentence axis
_CIRCUIT_KINDS = frozenset(("zero", *GATE_TENSORS))
_LABELS = string.ascii_letters.replace(_BATCH, "")


class ShapeMismatch(Exception):
    """Stored value shape disagrees with the network's node shape."""


def _copy_tensor(shape: tuple[int, ...]) -> np.ndarray:
    """Generalized Kronecker delta: 1 iff all indices equal."""
    if not shape:
        return np.asarray(1.0)
    d = shape[0]
    arr = np.zeros(shape)
    idx = tuple(np.arange(d) for _ in shape)
    arr[idx] = 1.0
    return arr


def _constant(node: Node) -> np.ndarray:
    """The fixed tensor of a delta, copy, zero, H or CX node."""
    if node.kind == "delta":
        return np.eye(node.shape[0])
    if node.kind == "zero":
        return np.array([1.0, 0.0])
    if node.kind in GATE_TENSORS:
        return GATE_TENSORS[node.kind](None)
    return _copy_tensor(node.shape)


def _node_tensor(node: Node, ps: ParameterStore) -> np.ndarray:
    if node.kind == "param":
        value = np.asarray(ps[node.symbol.name], dtype=float)
        if value.shape != node.shape:
            raise ShapeMismatch(
                f"{node.symbol.name}: stored {value.shape}, "
                f"network wants {node.shape}")
        return value
    return _constant(node)


@dataclass(frozen=True)
class Plan:
    """The recorded contraction of one network structure.

    The tensors are numbered as recorded: the nodes, then one identity per
    self-edge, then one per step. ``leaves`` holds the fixed tensor of each
    leaf, complex in a circuit's plan, and None for a parameter node. A
    step ``(a, b, axes_a, axes_b)`` contracts tensors a and b into the next
    one; ``scripts`` holds its einsum subscripts. ``live`` marks the
    tensors a parameter reaches, which carry the sentence axis. ``perm``
    takes the last tensor's axes to the open legs.

    Built from these, ``fixed`` holds every tensor that no parameter
    reaches, read-only: the fixed leaves and the result of each constant
    step, computed here once; None for a live tensor. ``run`` lists the
    live steps as (result, a, b, script), the only steps a replay runs.
    ``dataclasses.replace`` of the leaves folds the constant steps again."""
    leaves: tuple[Optional[np.ndarray], ...]
    params: tuple[int, ...]  # the parameter leaves, in node order
    shapes: tuple[tuple[int, ...], ...]  # of every tensor, without the batch
    steps: tuple[tuple[int, int, tuple[int, ...], tuple[int, ...]], ...]
    scripts: tuple[str, ...]
    live: tuple[bool, ...]
    perm: tuple[int, ...]
    fixed: tuple[Optional[np.ndarray], ...] = field(init=False, repr=False)
    run: tuple[tuple[int, int, int, str], ...] = field(init=False, repr=False)

    def __post_init__(self):
        fixed, run = list(self.leaves), []
        for (a, b, _, _), script in zip(self.steps, self.scripts):
            if self.live[len(fixed)]:
                run.append((len(fixed), a, b, script))
                fixed.append(None)
            else:
                fixed.append(np.einsum(script, fixed[a], fixed[b]))
        for tensor in fixed:
            if tensor is not None:
                tensor.setflags(write=False)
        object.__setattr__(self, "fixed", tuple(fixed))
        object.__setattr__(self, "run", tuple(run))


def _script(na: int, nb: int, ax_a: list[int], ax_b: list[int],
            live_a: bool, live_b: bool) -> str:
    """einsum subscripts of one step; the result keeps a's free axes, then
    b's, as np.tensordot does."""
    if na + nb > len(_LABELS):
        raise ValueError(f"a step over {na} + {nb} axes has too many labels")
    la = _LABELS[:na]
    lb = list(_LABELS[na:na + nb])
    free_a, free_b = list(la), lb.copy()
    for i, j in zip(ax_a, ax_b):
        lb[j] = la[i]
        free_a[i] = free_b[j] = ""
    za, zb = _BATCH if live_a else "", _BATCH if live_b else ""
    return (f"{za}{la},{zb}{''.join(lb)}->{za or zb}{''.join(free_a)}"
            f"{''.join(free_b)}")


def plan(tn: TensorNetwork) -> Plan:
    """Record the greedy pairwise contraction of ``tn`` from its shapes.
    A circuit's fixed leaves are complex, like its rotations, so every
    step runs in one dtype."""
    index = {node.node_id: k for k, node in enumerate(tn.nodes)}
    dtype = complex if any(node.kind in _CIRCUIT_KINDS
                           for node in tn.nodes) else float
    leaves = [None if node.kind == "param" or node.kind in ROTATIONS
              else np.asarray(_constant(node), dtype) for node in tn.nodes]
    params = tuple(k for k, leaf in enumerate(leaves) if leaf is None)
    live = [leaf is None for leaf in leaves]
    shapes = [node.shape for node in tn.nodes]
    if not shapes:
        return Plan((), (), (), (), (), (), ())
    edges, loops = [], []
    for x, y in tn.edges:
        x, y = (index[x[0]], x[1]), (index[y[0]], y[1])
        (loops if x[0] == y[0] else edges).append((x, y))
    for x, y in loops:
        k, d = len(shapes), shapes[x[0]][x[1]]
        leaves.append(np.eye(d, dtype=dtype))
        live.append(False)
        shapes.append((d, d))
        edges += [(x, (k, 0)), (y, (k, 1))]
    # a leaf's legs are (leaf, axis); legs[k] lists block k's open legs,
    # None once it has merged
    legs = [[(k, i) for i in range(len(s))] for k, s in enumerate(shapes)]
    size = [math.prod(s) for s in shapes]
    steps, scripts = [], []

    def merge(a: int, b: int, ax_a: list[int], ax_b: list[int]) -> int:
        la, lb, sa, sb = legs[a], legs[b], shapes[a], shapes[b]
        scripts.append(_script(len(la), len(lb), ax_a, ax_b, live[a],
                               live[b]))
        steps.append((a, b, tuple(ax_a), tuple(ax_b)))
        free_a = [i for i in range(len(la)) if i not in ax_a]
        free_b = [j for j in range(len(lb)) if j not in ax_b]
        legs[a] = legs[b] = None
        legs.append([la[i] for i in free_a] + [lb[j] for j in free_b])
        shapes.append(tuple([sa[i] for i in free_a]
                            + [sb[j] for j in free_b]))
        size.append(math.prod(shapes[-1]))
        live.append(live[a] or live[b])
        return len(legs) - 1

    # near[a][b]: positions of the pending edges joining blocks a and b, in
    # edge order. The heap orders pairs by the product of their sizes, then
    # by their first pending edge, the rule of a scan over the edges.
    near: list[Optional[dict[int, list[int]]]] = [{} for _ in legs]
    for pos, (x, y) in enumerate(edges):
        a, b = x[0], y[0]
        if b in near[a]:
            near[a][b].append(pos)
        else:
            near[a][b] = near[b][a] = [pos]
    heap = [(size[a] * size[b], first[0], a, b)
            for a, pairs in enumerate(near) for b, first in pairs.items()
            if a < b]
    heapq.heapify(heap)
    while heap:
        _, _, a, b = heapq.heappop(heap)
        la, lb = legs[a], legs[b]
        if la is None or lb is None:  # merged since it was pushed
            continue
        ax_a, ax_b = [], []
        for p in near[a][b]:
            x, y = edges[p]
            if x not in la:
                x, y = y, x
            ax_a.append(la.index(x))
            ax_b.append(lb.index(y))
        c = merge(a, b, ax_a, ax_b)
        joined = {x: ps for x, ps in near[a].items() if x != b}
        for x, ps in near[b].items():
            if x != a:
                joined[x] = sorted(joined[x] + ps) if x in joined else ps
        near[a] = near[b] = None
        near.append(joined)
        for x, ps in joined.items():
            near[x].pop(a, None)
            near[x].pop(b, None)
            near[x][c] = ps
            heapq.heappush(heap, (size[x] * size[c], ps[0], x, c))
    first, *rest = [k for k, block in enumerate(legs) if block is not None]
    for b in rest:
        first = merge(first, b, [], [])
    block = legs[first]
    perm = tuple(block.index((index[node], i)) for node, i in tn.open_legs)
    return Plan(tuple(leaves), params, tuple(shapes), tuple(steps),
                tuple(scripts), tuple(live), perm)


def _replay(p: Plan, params: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Every tensor of the recorded contraction, the parameter leaves taken
    from ``params`` (each with the sentence axis first); only the live
    steps run."""
    tensors = list(p.fixed)
    for k, value in zip(p.params, params):
        tensors[k] = value
    for c, a, b, script in p.run:
        tensors[c] = np.einsum(script, tensors[a], tensors[b])
    return tensors


def _value(p: Plan, tensors: list[np.ndarray], rows: int) -> np.ndarray:
    """The values over the open legs, sentence axis first."""
    if not tensors:
        return np.ones(rows)
    last = tensors[-1]
    if not p.live[-1]:  # no parameter: every row has the same value
        return np.broadcast_to(np.transpose(last, p.perm),
                               (rows,) + tuple(last.shape[i] for i in p.perm))
    return np.transpose(last, (0,) + tuple(i + 1 for i in p.perm))


def _backprop(p: Plan, tensors: list[np.ndarray],
              g: np.ndarray) -> list[np.ndarray]:
    """The cotangent of each parameter leaf, given the values' cotangent.

    A step's result is einsum(s_a,s_b->s_c) of its operands; the cotangent
    of a live operand is einsum(s_c,s_b->s_a) of the result's cotangent and
    the other operand, and the same for b."""
    cot: list[Optional[np.ndarray]] = [None] * len(tensors)
    cot[-1] = np.transpose(g, np.argsort((0,) + tuple(i + 1
                                                      for i in p.perm)))
    for c, a, b, script in reversed(p.run):
        gc = cot[c]
        operands, sc = script.split("->")
        sa, sb = operands.split(",")
        if p.live[a]:
            cot[a] = np.einsum(f"{sc},{sb}->{sa}", gc, tensors[b])
        if p.live[b]:
            cot[b] = np.einsum(f"{sa},{sc}->{sb}", tensors[a], gc)
    return [cot[k] for k in p.params]


def contract(tn: TensorNetwork, ps: ParameterStore) -> np.ndarray:
    """Exact value of the network over its open legs (scalar if none)."""
    p = _planned(_structure(tn))
    params = [_node_tensor(tn.nodes[k], ps)[None] for k in p.params]
    return _value(p, _replay(p, params), 1)[0]


# ---------------------------------------------------------------------------
# Networks of one structure, batched.
# ---------------------------------------------------------------------------


def rotation_kinds(gates: Sequence[str]
                   ) -> tuple[tuple[str, np.ndarray], ...]:
    """Each distinct gate of ``gates``, a circuit group's rotation leaves in
    ``plan.params`` order, with the positions of its leaves."""
    where: dict[str, list[int]] = {}
    for j, gate in enumerate(gates):
        where.setdefault(gate, []).append(j)
    return tuple((gate, np.array(cols, dtype=np.intp))
                 for gate, cols in where.items())


@dataclass(frozen=True)
class Group:
    """Networks of one structure: their positions and, per row, the flat
    vector offsets of every entry of its parameter leaves, leaf after leaf
    in ``plan.params`` order. ``gates`` is None for a tensor group. In a
    circuit group every parameter leaf is a rotation gate whose one entry
    is the angle, and ``gates`` names each leaf's gate.

    Built from these, ``rotations`` holds, for each distinct gate of a
    circuit group, the distinct offsets of its angles, the positions of
    its leaves (``rotation_kinds``) and, per leaf, where each row's angle
    lies among those offsets; None for a tensor group. The stacked rows of
    a group share most of their symbols, so one call of the gate's kernel
    on the distinct angles builds a table from which every leaf takes its
    rows."""
    plan: Plan
    rows: np.ndarray
    index: np.ndarray  # (rows, entries)
    gates: Optional[tuple[str, ...]] = None
    rotations: Optional[tuple[tuple[str, np.ndarray, np.ndarray,
                                    np.ndarray], ...]] = field(
        init=False, repr=False)

    def __post_init__(self):
        arrays, tables = [self.rows, self.index], None
        if self.gates is not None:
            tables = []
            for gate, cols in rotation_kinds(self.gates):
                angles = self.index[:, cols].T  # (leaves, rows)
                offsets, inverse = np.unique(angles, return_inverse=True)
                tables.append((gate, offsets, cols,
                               inverse.reshape(angles.shape)))
                arrays += tables[-1][1:]
            tables = tuple(tables)
        for array in arrays:  # a group may be cached and shared
            array.setflags(write=False)
        object.__setattr__(self, "rotations", tables)

    def _gather(self, vec: np.ndarray) -> list[np.ndarray]:
        if self.rotations is not None:
            out = [None] * len(self.gates)
            for gate, offsets, cols, inverse in self.rotations:
                # (leaves, rows) taken, so each leaf's (rows, ...) slice
                # of the result is contiguous
                taken = GATE_TENSORS[gate](vec[offsets])[inverse]
                for j, tensor in zip(cols, taken):
                    out[j] = tensor
            return out
        flat = vec[self.index]
        out, start = [], 0
        for k in self.plan.params:
            shape = self.plan.shapes[k]
            n = math.prod(shape)
            out.append(flat[:, start:start + n].reshape((-1,) + shape))
            start += n
        return out


@dataclass(frozen=True)
class NetworkPlan:
    """Networks grouped by structure, each group planned once; ``count``
    is the length of the sequence the rows index."""
    groups: tuple[Group, ...]
    count: int

    def stack(self, parts: Sequence[tuple[int, Sequence[int]]],
              size: int) -> "NetworkPlan":
        """The plan of several flat vectors at once, ``size`` entries each,
        gathered from their concatenation: part (point, rows) takes the
        networks at ``rows`` under vector ``point``, numbered
        point * count + row, with every gather offset by point * size. Each
        structure keeps one group, its parts' rows in part order; empty
        groups are left out."""
        wanted = np.zeros((len(parts), self.count), dtype=bool)
        for k, (_, rows) in enumerate(parts):
            wanted[k, list(rows)] = True
        groups = []
        for g in self.groups:
            keep = wanted[:, g.rows]
            if not keep.any():
                continue
            groups.append(Group(
                g.plan,
                np.concatenate([g.rows[m] + point * self.count
                                for (point, _), m in zip(parts, keep)]),
                np.concatenate([g.index[m] + point * size
                                for (point, _), m in zip(parts, keep)]),
                g.gates))
        points = 1 + max((point for point, _ in parts), default=0)
        return NetworkPlan(tuple(groups), points * self.count)


def _structure(tn: TensorNetwork) -> tuple:
    """Node kinds and shapes, edges and open legs; symbols left out."""
    index = {node.node_id: k for k, node in enumerate(tn.nodes)}
    return (tuple((n.kind, n.shape) for n in tn.nodes),
            tuple(((index[a], i), (index[b], j))
                  for (a, i), (b, j) in tn.edges),
            tuple((index[a], i) for a, i in tn.open_legs))


@lru_cache(maxsize=1024)  # bounded, like simulator's circuit plans
def _planned(structure: tuple) -> Plan:
    """The plan of the networks of one ``_structure``. Planning reads the
    structure alone, so a stand-in network is planned: node k is named
    ``str(k)``, and a parameter node's symbol is a placeholder."""
    nodes, edges, open_legs = structure
    return plan(TensorNetwork(
        tuple(Node(str(k), kind, shape,
                   Symbol(str(k), shape) if kind == "param" else None)
              for k, (kind, shape) in enumerate(nodes)),
        tuple(((str(a), i), (str(b), j)) for (a, i), (b, j) in edges),
        tuple((str(a), i) for a, i in open_legs)))


def plan_networks(networks: Sequence[TensorNetwork], rows: Sequence[int],
                  store: ParameterStore) -> NetworkPlan:
    """Group the networks at ``rows`` by structure against the layout of
    ``store``; each structure's plan comes from a bounded cache."""
    layout = {name: (shape, offset) for name, shape, offset in store.layout}
    groups: dict[tuple, tuple[Plan, list, list]] = {}
    for row in rows:
        tn = networks[row]
        key = _structure(tn)
        if key not in groups:
            groups[key] = (_planned(key), [], [])
        p, members, offsets = groups[key]
        members.append(row)
        here = []
        for k in p.params:
            node = tn.nodes[k]
            if node.symbol.name not in layout:
                raise UnboundSymbol(
                    f"no value bound for symbol {node.symbol.name!r}")
            shape, offset = layout[node.symbol.name]
            if shape != node.shape:
                raise ShapeMismatch(
                    f"{node.symbol.name}: stored {shape}, "
                    f"network wants {node.shape}")
            here.append(offset)
        offsets.append(here)
    out = []
    for p, members, offsets in groups.values():
        starts = np.array(offsets, dtype=np.intp).reshape(len(members), -1)
        index = [starts[:, [j]] + np.arange(math.prod(p.shapes[k]))
                 for j, k in enumerate(p.params)]
        out.append(Group(p, np.array(members), np.hstack(
            index) if index else np.zeros((len(members), 0), np.intp)))
    return NetworkPlan(tuple(out), len(networks))


def contract_batch(group: Group, vec: np.ndarray) -> np.ndarray:
    """The values of the group's networks under the flat vector ``vec``,
    one row per network."""
    return _value(group.plan, _replay(group.plan, group._gather(vec)),
                  len(group.rows))


def contract_grad(group: Group, vec: np.ndarray,
                  upstream: Callable[[np.ndarray], np.ndarray]
                  ) -> tuple[np.ndarray, np.ndarray]:
    """The values V of the group's networks (one row each) and the gradient
    of sum(V * upstream(V)) in the flat layout of ``vec``, with upstream(V)
    held constant; one contraction serves both, and an all-zero
    upstream(V) skips the reverse pass. Real networks only: a circuit's
    rotation leaves have no gradient here."""
    p = group.plan
    tensors = _replay(p, group._gather(vec))
    values = _value(p, tensors, len(group.rows))
    g = np.asarray(upstream(values), dtype=float)
    if g.shape != values.shape:
        raise ShapeMismatch(
            f"upstream cotangent {g.shape} vs values {values.shape}")
    flat = np.zeros(len(vec))
    if tensors and p.live[-1] and g.any():
        cots = _backprop(p, tensors, g)
        np.add.at(flat, group.index, np.concatenate(
            [c.reshape(len(group.rows), -1) for c in cots], axis=1))
    return values, flat
