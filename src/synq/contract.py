"""Exact tensor-network contraction and its reverse-mode gradient.

One forward routine contracts a network pairwise and records each step it
takes. At each step it contracts every edge between the pair of blocks
(nodes or earlier results) whose operand sizes have the smallest product,
taking the first such pair in edge order. That product bounds the step's
cost and is read off the operands. Choosing by the size of the merged
tensor needs each pair's shared dimensions; on the mc-spider and long-ccg
networks it found plans with the same multiply-add count, and it made the
long-ccg forward passes slower. Pieces left unconnected combine by outer
product, and an edge joining two legs of one node is routed through an
identity node, so every step is one ``np.tensordot``. The value does not
depend on the order, up to rounding.

The gradient walks the recorded steps backwards from the cotangent of the
value: the cotangent of each operand is the result's cotangent contracted
with the other operand. Nodes that share a symbol sum their cotangents in
the store's flat layout (Liao et al., arXiv:1903.09650).
"""
from __future__ import annotations

from typing import Callable

import numpy as np

from .ansatz import Node, TensorNetwork
from .params import ParameterStore


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


def _node_tensor(node: Node, ps: ParameterStore) -> np.ndarray:
    if node.kind == "param":
        value = np.asarray(ps[node.symbol.name], dtype=float)
        if value.shape != node.shape:
            raise ShapeMismatch(
                f"{node.symbol.name}: stored {value.shape}, "
                f"network wants {node.shape}")
        return value
    if node.kind == "delta":
        return np.eye(node.shape[0])
    return _copy_tensor(node.shape)


def _forward(tn: TensorNetwork, ps: ParameterStore):
    """Contract ``tn``; return its value over the open legs, every tensor
    (the nodes' first, then one per step), the steps as
    ``(a, b, axes_a, axes_b)`` producing the next tensor, and the
    permutation from the last tensor's axes to the open legs."""
    tensors = [_node_tensor(node, ps) for node in tn.nodes]
    if not tensors:
        return np.asarray(1.0), tensors, [], []
    alive = {k: [(node.node_id, i) for i in range(len(node.shape))]
             for k, node in enumerate(tn.nodes)}  # block -> its open legs
    owner = {leg: k for k, legs in alive.items() for leg in legs}
    pending = [e for e in tn.edges if e[0][0] != e[1][0]]
    for a, b in [e for e in tn.edges if e[0][0] == e[1][0]]:
        k = len(tensors)
        tensors.append(np.eye(tensors[owner[a]].shape[a[1]]))
        alive[k] = [(k, 0), (k, 1)]
        owner[(k, 0)], owner[(k, 1)] = k, k
        pending += [(a, (k, 0)), (b, (k, 1))]
    steps = []

    def merge(a: int, b: int, ax_a: list[int], ax_b: list[int]) -> None:
        tensors.append(np.tensordot(tensors[a], tensors[b],
                                    axes=(ax_a, ax_b)))
        legs = ([l for i, l in enumerate(alive.pop(a)) if i not in ax_a]
                + [l for i, l in enumerate(alive.pop(b)) if i not in ax_b])
        alive[len(tensors) - 1] = legs
        for leg in legs:
            owner[leg] = len(tensors) - 1
        steps.append((a, b, ax_a, ax_b))

    while pending:
        # group edges by the block pair they join; a new block takes the
        # highest number, so min/max keep the operand order of the list
        by_pair: dict[tuple[int, int], list] = {}
        for edge in pending:
            a, b = owner[edge[0]], owner[edge[1]]
            by_pair.setdefault((min(a, b), max(a, b)), []).append(edge)
        a, b = min(by_pair, key=lambda p: tensors[p[0]].size
                   * tensors[p[1]].size)
        joins = by_pair[a, b]
        ends = [(x, y) if owner[x] == a else (y, x) for x, y in joins]
        merge(a, b, [alive[a].index(x) for x, _ in ends],
              [alive[b].index(y) for _, y in ends])
        joined = set(joins)
        pending = [e for e in pending if e not in joined]
    first, *rest = alive
    for b in rest:
        merge(first, b, [], [])
        first = len(tensors) - 1
    legs = alive[first]
    perm = [legs.index(leg) for leg in tn.open_legs]
    return np.transpose(tensors[-1], perm), tensors, steps, perm


def contract(tn: TensorNetwork, ps: ParameterStore) -> np.ndarray:
    """Exact value of the network over its open legs (scalar if none)."""
    return _forward(tn, ps)[0]


def contract_grad(tn: TensorNetwork, ps: ParameterStore,
                  upstream: Callable[[np.ndarray], np.ndarray]
                  ) -> tuple[np.ndarray, np.ndarray]:
    """The value v of the network and the gradient of sum(v * upstream(v))
    in ps's flat layout, with upstream(v) held constant; one contraction
    serves both."""
    value, tensors, steps, perm = _forward(tn, ps)
    g = np.asarray(upstream(value), dtype=float)
    if g.shape != value.shape:
        raise ShapeMismatch(
            f"upstream cotangent {g.shape} vs open legs {value.shape}")
    flat = np.zeros(ps.size)
    leaves = len(tensors) - len(steps)
    # a tensor is live if a parameter reaches it; others need no cotangent
    live = [k < len(tn.nodes) and tn.nodes[k].kind == "param"
            for k in range(leaves)]
    for a, b, _, _ in steps:
        live.append(live[a] or live[b])
    if not tensors or not live[-1]:
        return value, flat
    cot = {len(tensors) - 1: np.transpose(g, np.argsort(perm))}
    for s in reversed(range(len(steps))):
        gc = cot.pop(leaves + s, None)
        if gc is None:
            continue
        a, b, ax_a, ax_b = steps[s]
        A, B = tensors[a], tensors[b]
        free_a = [i for i in range(A.ndim) if i not in ax_a]
        free_b = [i for i in range(B.ndim) if i not in ax_b]
        split = len(free_a)
        # tensordot keeps the uncontracted axes in ascending order
        if live[a]:
            ga = np.tensordot(gc, B, axes=(list(range(split, gc.ndim)),
                                           free_b))
            labels = free_a + [ax_a[ax_b.index(j)] for j in sorted(ax_b)]
            cot[a] = np.transpose(ga, np.argsort(labels))
        if live[b]:
            gb = np.tensordot(A, gc, axes=(free_a, list(range(split))))
            labels = [ax_b[ax_a.index(i)] for i in sorted(ax_a)] + free_b
            cot[b] = np.transpose(gb, np.argsort(labels))
    offsets = {name: offset for name, _, offset in ps.layout}
    for k, grad in cot.items():
        start = offsets[tn.nodes[k].symbol.name]
        flat[start:start + grad.size] += grad.ravel()
    return value, flat
