"""Exact tensor-network contraction and its reverse-mode gradient.

A contraction has two parts. ``plan`` reads a structure: one entry per
node, a fixed tensor or ``(kind, shape)``, then the edges and the open
legs, each leg ``(node, axis)``. A ``TensorNetwork`` records its own,
``structure``, when built, and ``simulator`` builds a circuit's directly.
``plan`` runs a greedy on the node shapes alone and records its steps. At
each step it contracts every edge between one pair of blocks (nodes or
earlier results), chosen by three keys in turn: a fold, a pair of fixed
blocks (which no parameter reaches) whose result is no larger than the
larger of them, before any other; then the smallest product of the two
operand sizes; then the first pair in edge order. So a constant
sub-network folds before the first step a parameter reaches, and each
rotation of a circuit meets its neighbours already folded, as far as
folding grows no tensor: a wide fixed region, such as a CX ladder over
|+> states, is left to the size order rather than folded into one
constant as wide as the region. The product bounds the step's cost and is
read off the shapes. Choosing every pair by the size of its merged tensor
needs each pair's shared dimensions; on the mc-spider and long-ccg
networks it found plans with the same multiply-add count, and it made the
long-ccg forward passes slower. A table of the pending edges of each block
pair, updated as blocks merge, keeps the greedy linear in the edges.
Pieces left unconnected combine by outer product, and an edge joining two legs of one node is
routed through an identity node, so every step contracts two tensors. The
value does not depend on the order, up to rounding.

The replay runs the recorded steps over a batch of networks of one
structure, each step one call of numpy's einsum without its
``__array_function__`` dispatch (``_einsum``): the operands are plain
ndarrays, and on operands of (2,) to (2, 2, 2, 2) a step's cost is mostly
fixed per-call overhead, so the dispatch was a third of it (a step
``Zab,Zb->Za`` on (1, 2, 2) and (1, 2) took 1.93 us through ``np.einsum``
and 1.32 us without the dispatch, numpy 2.4.6, Python 3.11, x86-64). The
result is the same C call on the same arguments. The value axes, their
inverse and each parameter leaf's cut of the gathered entries are worked
out once per plan, not on every pass. Every tensor a parameter reaches
carries a leading sentence axis; the fixed leaves do not and are shared by
every row.

A chain is a run of live steps that each apply a stored (d, d) leaf, by its
second axis, to the previous result (``Zab,Zb->Za``): the adjectives of a
noun phrase applied to its noun, one after the other. ``Plan`` finds each
chain once, when it is built, and one of at least CHAIN_MIN steps replays
as one step. Its k leaves come as one (rows, k, d, d) block, since a
group's gathered index lays their entries out together; the block reduces
pairwise by batched ``np.matmul`` in ceil(log2 k) levels (the pairwise
reduction of Blelloch 1990, "Prefix sums and their applications"), and the
product applies to the chain's start. The reverse pass walks the levels
back, two batched matmuls each. The tree re-associates the product, so a
chain's values differ from a step-by-step replay in the last bits. On
(2, 2) leaves, one row, the chain step broke even with the steps at k = 8
to 10 and was faster from k = 12 on: a ``contract`` of k = 16 took 20 us
against 34 us, of k = 92 62 us against 184 us, and a value-and-gradient
pass (``contract_grad``) of k = 92 101 us against 554 us (min of 5 x 300
calls, numpy 2.4.6, Python 3.11, x86-64). ``contract`` reads a chain's
stored values into its block with one ``np.array``, checking each leaf
alone only when that fails. CHAIN_MIN = 16 lies above every chain of the
mc datasets' networks (at most 2 steps) and of the long-ccg benchmark's
training and dev sentences (at most 6), whose plans are then those of a
step-by-step replay, bit for bit.
``plan`` builds the copy, delta and identity tensors from their kinds and
shapes; a structure gives every other fixed leaf as a tensor, as
``simulator`` gives a circuit's |0>, <0|, H and CX, and a noisy circuit's
|0><0|, superoperators of H and CX, (4, 2) read-out and depolarising
channel. A step that joins two tensors no parameter reaches is constant: a
``Plan`` computes it once, when it is built, and keeps the result
read-only, and the replay runs the live steps alone. A circuit's plan has
such steps (9 to 19 of the 23 to 41 steps of an mc-iqp circuit, 16 to 34 of
the 32 to 58 of its noisy network); a tensor model's has none. A plan has
the dtype of its given tensors: a circuit's fixed leaves are complex, like
its rotation tensors, so folding and every live step run all-complex
(``np.einsum`` is two to three times slower on a step that mixes float and
complex operands); a tensor model's plan stays float.

``contract`` and ``plan_networks`` take each structure's plan from a
bounded cache, so a structure is planned once, not on every call; ``plan``
itself is uncached. ``contract_one`` replays one network on its own
inputs, for ``contract`` and for a lone circuit. ``plan_rows``, the one
routine that groups rows by structure into a ``NetworkPlan``, the one
batch the replay runs, serves ``plan_networks`` and
``simulator.plan_circuits``. Each row's parameters are gathered from the
flat vector with index arrays: a stored tensor's entries, or the angle of
a circuit's rotation gate, as the kind of each parameter leaf says. A
circuit plan finds, per rotation kind (``Plan.rotations``), the distinct
offsets of the angles of every group and each leaf's map into them. A
gather then calls that kind's kernel (``ansatz.GATE_TENSORS``, or
``ansatz.SUPEROPERATORS`` in a noisy circuit's network) once on the
distinct angles, and every leaf takes its rows from the result: the rows
share most of their symbols (an mc-iqp SPSA pass at seed 7 builds 264
angles in 3 calls, where a call per group and gate would build 927 in 12).
``NetworkPlan.stack`` lays several flat vectors end to end, so one batch
per structure serves rows under different vectors (SPSA's two probes and
the current point).

One call serves a whole ``NetworkPlan``: ``contract_plan`` for values,
``contract_grad`` for values and gradient. Each group replays its own
steps, and the values of every row come back in ``NetworkPlan.rows``
order.

The gradient walks the live steps backwards from the cotangent of the
values: the cotangent of each operand is the result's cotangent contracted
with the other operand (Liao et al., arXiv:1903.09650). A chain's product
so takes the outer product of its result's cotangent and its start, and
each level of its tree passes a pair's cotangent to the two matrices it
joined. The cotangent of every row is taken in one call, each group walks
back from its own rows, and rows and nodes that share a symbol sum their
cotangents in the store's flat layout with one ``np.bincount`` per group,
over the group's cotangents laid out as its gathered index is, added to
the gradient in group order.
"""
from __future__ import annotations

import heapq
import inspect
import math
import string
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Hashable, Iterable, Iterator, Optional, Sequence

import numpy as np

from .ansatz import GATE_TENSORS, SUPEROPERATORS, Node, TensorNetwork
from .params import ParameterStore, UnboundSymbol

_BATCH = "Z"  # the einsum label of the sentence axis
# numpy's own einsum without its __array_function__ dispatch, which plain
# ndarrays never need; np.einsum itself if a numpy exposes no __wrapped__
_einsum = inspect.unwrap(np.einsum)
_concatenate = inspect.unwrap(np.concatenate)
KERNELS = {**GATE_TENSORS, **SUPEROPERATORS}  # the tensor of a rotation
_LABELS = string.ascii_letters.replace(_BATCH, "")
# the fewest matrix steps a chain replays as one product tree; below it, a
# step each is as fast (see the module docstring)
CHAIN_MIN = 16


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


def _constant(kind: str, shape: tuple[int, ...]) -> Optional[np.ndarray]:
    """The fixed tensor of a delta or copy node; None for a parameter."""
    if kind == "delta":
        return np.eye(shape[0])
    return _copy_tensor(shape) if kind == "copy" else None


def _node_tensor(node: Node, ps: ParameterStore) -> np.ndarray:
    if node.kind == "param":
        value = np.asarray(ps[node.symbol.name], dtype=float)
        if value.shape != node.shape:
            raise ShapeMismatch(
                f"{node.symbol.name}: stored {value.shape}, "
                f"network wants {node.shape}")
        return value
    return _constant(node.kind, node.shape)


@dataclass(frozen=True)
class Plan:
    """The recorded contraction of one network structure.

    The tensors are numbered as recorded: the nodes, then one identity per
    self-edge, then one per step. ``leaves`` holds the fixed tensor of each
    leaf, complex in a circuit's plan, and None for a parameter leaf, whose
    kind ``kinds`` holds: "param" for a stored tensor, or the rotation kind
    (a key of ``ansatz.GATE_TENSORS`` or ``ansatz.SUPEROPERATORS``) whose
    kernel builds the leaf from its angle; ``rotations`` holds, per rotation
    kind in order of first use, the positions in ``params`` of its leaves. A
    step ``(a, b, axes_a, axes_b)`` contracts tensors a and b into the next
    one; ``scripts`` holds its einsum subscripts. ``live`` marks the
    tensors a parameter reaches, which carry the sentence axis. ``perm``
    takes the last tensor's axes to the open legs.

    Built from these, ``fixed`` holds every tensor that no parameter
    reaches, read-only: the fixed leaves and the result of each constant
    step, computed here once; None for a live tensor. ``chains`` holds the
    leaves of each chain (``_chains``) in the order they apply, and
    ``trees``, per chain, (a, t): its first leaf's slot a, which takes the
    chain's (rows, k, d, d) block and then its product, and its first
    step's result's slot t, which holds the levels of its product tree
    (``_tree``). ``run`` lists the live steps as (result, a, b, script),
    the only steps a replay runs; a chain is one of them, its first step's
    operands and script applying its product, with its last step's result.
    ``back`` lists the same steps in reverse as (result, a, b, script_a,
    script_b), the subscripts that take the result's cotangent to a's and
    b's, None for an operand that is not live. ``axes`` takes the last
    tensor's axes, sentence axis first, to the values' (the sentence axis,
    then ``perm``), and ``inverse`` takes a cotangent of the values back.

    ``inputs`` lists the slots a replay fills: the parameter leaves outside
    every chain (``singles``), then each chain's first leaf, for its block.
    A group's gathered index (``Group.index``) lays out their entries in
    that order, a chain's leaf after leaf in chain order. ``cuts`` holds,
    per input, the (start, stop) of its columns there and the shape,
    sentence axis first, that they take: a stored tensor's entries in its
    shape, a chain's (-1, k, d, d) block, or a rotation's one angle, (-1,).
    ``layout`` takes the columns of the leaves in ``params`` order to that
    order; it is None in a plan without chains, where the two agree."""
    leaves: tuple[Optional[np.ndarray], ...]
    params: tuple[int, ...]  # the parameter leaves, in node order
    kinds: tuple[str, ...]  # of each parameter leaf
    shapes: tuple[tuple[int, ...], ...]  # of every tensor, without the batch
    steps: tuple[tuple[int, int, tuple[int, ...], tuple[int, ...]], ...]
    scripts: tuple[str, ...]
    live: tuple[bool, ...]
    perm: tuple[int, ...]
    fixed: tuple[Optional[np.ndarray], ...] = field(init=False, repr=False)
    chains: tuple[tuple[int, ...], ...] = field(init=False, repr=False)
    trees: tuple[tuple[int, int], ...] = field(init=False, repr=False)
    run: tuple[tuple[int, int, int, str], ...] = field(init=False, repr=False)
    back: tuple[tuple[int, int, int, Optional[str], Optional[str]], ...] = \
        field(init=False, repr=False)
    axes: tuple[int, ...] = field(init=False, repr=False)
    inverse: tuple[int, ...] = field(init=False, repr=False)
    singles: tuple[int, ...] = field(init=False, repr=False)
    inputs: tuple[int, ...] = field(init=False, repr=False)
    cuts: tuple[tuple[int, int, tuple[int, ...]], ...] = \
        field(init=False, repr=False)
    layout: Optional[np.ndarray] = field(init=False, repr=False)
    rotations: tuple[tuple[str, tuple[int, ...]], ...] = field(init=False,
                                                               repr=False)

    def __post_init__(self):
        fixed, steps = list(self.leaves), []
        for (a, b, _, _), script in zip(self.steps, self.scripts):
            if self.live[len(fixed)]:
                steps.append((len(fixed), a, b, script))
                fixed.append(None)
            else:
                fixed.append(_einsum(script, fixed[a], fixed[b]))
        for tensor in fixed:
            if tensor is not None:
                tensor.setflags(write=False)
        chains = self._chains(steps)
        first = {chain[-1][0]: chain[0] for chain in chains}
        inner = {c for chain in chains for c, _, _, _ in chain[:-1]}
        run, back = [], []
        for c, a, b, script in steps:
            if c in inner:  # replayed with its chain
                continue
            if c in first:  # a chain's last step: the chain, as its first
                _, a, b, script = first[c]
            run.append((c, a, b, script))
            operands, sc = script.split("->")
            sa, sb = operands.split(",")
            back.append((c, a, b,
                         f"{sc},{sb}->{sa}" if self.live[a] else None,
                         f"{sa},{sc}->{sb}" if self.live[b] else None))
        object.__setattr__(self, "fixed", tuple(fixed))
        object.__setattr__(self, "chains", tuple(
            tuple(a for _, a, _, _ in chain) for chain in chains))
        object.__setattr__(self, "trees", tuple(
            (chain[0][1], chain[0][0]) for chain in chains))
        object.__setattr__(self, "run", tuple(run))
        object.__setattr__(self, "back", tuple(reversed(back)))
        axes = (0, *(i + 1 for i in self.perm))
        object.__setattr__(self, "axes", axes)
        object.__setattr__(self, "inverse",
                           tuple(map(axes.index, range(len(axes)))))
        width = {j: math.prod(self.shapes[j]) if kind == "param" else 1
                 for j, kind in zip(self.params, self.kinds)}  # 1: an angle
        linked = {j for chain in self.chains for j in chain}
        singles = tuple(j for j in self.params if j not in linked)
        cuts, start = [], 0
        for j, kind in zip(self.params, self.kinds):
            if j not in linked:
                cuts.append((start, start + width[j], (-1, *self.shapes[j])
                             if kind == "param" else (-1,)))
                start += width[j]
        for chain in self.chains:
            stop = start + len(chain) * width[chain[0]]
            cuts.append((start, stop,
                         (-1, len(chain), *self.shapes[chain[0]])))
            start = stop
        layout = None
        if self.chains:
            entries, start = {}, 0
            for j in self.params:
                entries[j] = range(start, start + width[j])
                start += width[j]
            layout = np.array([i for j in singles for i in entries[j]]
                              + [i for chain in self.chains for j in chain
                                 for i in entries[j]], np.intp)
            layout.setflags(write=False)
        object.__setattr__(self, "singles", singles)
        object.__setattr__(self, "inputs", singles + tuple(
            chain[0] for chain in self.chains))
        object.__setattr__(self, "cuts", tuple(cuts))
        object.__setattr__(self, "layout", layout)
        object.__setattr__(self, "rotations", tuple(
            (kind, tuple(j for j, k in enumerate(self.kinds) if k == kind))
            for kind in dict.fromkeys(self.kinds) if kind != "param"))

    def _chains(self, steps: list[tuple[int, int, int, str]]) -> list[list]:
        """The chains of at least CHAIN_MIN of the live ``steps``: a step
        that applies a stored (d, d) leaf by its second axis to a (d,)
        tensor, live (``Zab,Zb->Za``) or fixed (``Zab,b->Za``), extends the
        chain whose last result that tensor is, or starts one."""
        square = {j for j, kind in zip(self.params, self.kinds)
                  if kind == "param" and len(self.shapes[j]) == 2
                  and self.shapes[j][0] == self.shapes[j][1]}
        ends: dict[int, list] = {}  # the last result of a chain -> the chain
        chains = []
        for step in steps:
            c, a, b, script = step
            if a in square and script in ("Zab,Zb->Za", "Zab,b->Za"):
                chain = ends.pop(b, None)
                if chain is None:
                    chain = []
                    chains.append(chain)
                chain.append(step)
                ends[c] = chain
        return [chain for chain in chains if len(chain) >= CHAIN_MIN]


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


def plan(structure: tuple) -> Plan:
    """Record the greedy pairwise contraction of a structure (nodes, edges,
    open legs) from its shapes. A node is a fixed tensor, which the plan
    keeps and makes read-only, or (kind, shape): "delta" or "copy", built
    here, or the kind of a parameter leaf. Every fixed leaf takes the dtype
    of the given tensors, float if there are none: a circuit's are complex,
    like its rotations, so every step runs in one dtype."""
    nodes, structure_edges, open_legs = structure
    leaves = [node if isinstance(node, np.ndarray) else _constant(*node)
              for node in nodes]
    dtype = np.result_type(float, *{leaf.dtype for leaf in leaves
                                    if leaf is not None})
    leaves = [None if leaf is None else np.asarray(leaf, dtype)
              for leaf in leaves]
    params = tuple(k for k, leaf in enumerate(leaves) if leaf is None)
    live = [leaf is None for leaf in leaves]
    shapes = [nodes[k][1] if leaf is None else leaf.shape
              for k, leaf in enumerate(leaves)]
    if not shapes:
        return Plan((), (), (), (), (), (), (), ())
    edges, loops = [], []
    for x, y in structure_edges:
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

    def key(a: int, b: int, ps: list[int]) -> tuple:
        """The heap entry of blocks a and b, joined by the edges at
        ``ps``: a fold first, then the product of their sizes, then their
        first pending edge, the rule of a scan over the edges. A fold is a
        pair of fixed blocks whose result is no larger than the larger of
        them, the smaller being at most the square of the dimension they
        share."""
        shared = math.prod(shapes[edges[p][0][0]][edges[p][0][1]]
                           for p in ps)
        fold = not (live[a] or live[b]) and \
            min(size[a], size[b]) <= shared * shared
        return not fold, size[a] * size[b], ps[0], a, b

    # near[a][b]: positions of the pending edges joining blocks a and b, in
    # edge order
    near: list[Optional[dict[int, list[int]]]] = [{} for _ in legs]
    for pos, (x, y) in enumerate(edges):
        a, b = x[0], y[0]
        if b in near[a]:
            near[a][b].append(pos)
        else:
            near[a][b] = near[b][a] = [pos]
    heap = [key(a, b, ps) for a, pairs in enumerate(near)
            for b, ps in pairs.items() if a < b]
    heapq.heapify(heap)
    while heap:
        *_, a, b = heapq.heappop(heap)
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
            heapq.heappush(heap, key(x, c, ps))
    first, *rest = [k for k, block in enumerate(legs) if block is not None]
    for b in rest:
        first = merge(first, b, [], [])
    perm = tuple(map(legs[first].index, open_legs))
    return Plan(tuple(leaves), params, tuple(nodes[k][0] for k in params),
                tuple(shapes), tuple(steps), tuple(scripts), tuple(live),
                perm)


def _replay(p: Plan, inputs: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Every tensor of the recorded contraction, the inputs (``p.inputs``)
    taken from ``inputs``, each with the sentence axis first; only the live
    steps run. A chain's block gives way to its product, and its tree's
    levels stand for its inner steps' results (``Plan.trees``)."""
    tensors = list(p.fixed)
    for k, value in zip(p.inputs, inputs):
        tensors[k] = value
    for a, t in p.trees:
        tensors[t] = levels = _tree(tensors[a])
        tensors[a] = levels[-1][:, 0]
    for c, a, b, script in p.run:
        tensors[c] = _einsum(script, tensors[a], tensors[b])
    return tensors


def _tree(block: np.ndarray) -> list[np.ndarray]:
    """The levels of the pairwise product of a (rows, k, d, d) block of
    matrices in the order they apply, the block first: each level holds the
    products of the previous one's pairs, the later matrix on the left, and
    an unpaired last matrix carried to its end, down to one matrix."""
    levels = [block]
    while block.shape[1] > 1:
        m = block.shape[1]
        pairs = np.matmul(block[:, 1::2], block[:, 0:m - 1:2])
        block = _concatenate((pairs, block[:, m - 1:]), axis=1) if m % 2 \
            else pairs
        levels.append(block)
    return levels


def _untree(levels: list[np.ndarray], g: np.ndarray) -> np.ndarray:
    """The cotangent of a chain's block, given its product's, (rows, d, d):
    the tree's levels walked back, each pair's product y = x1 x0 giving
    x1 the cotangent gy x0^T and x0 the cotangent x1^T gy, and a carried
    matrix its own."""
    g = g[:, None]
    for x in reversed(levels[:-1]):
        m, h = x.shape[1], x.shape[1] // 2
        gx = np.empty(x.shape, np.result_type(x, g))
        np.matmul(g[:, :h], x[:, 0:2 * h:2].swapaxes(2, 3), out=gx[:, 1::2])
        np.matmul(x[:, 1::2].swapaxes(2, 3), g[:, :h], out=gx[:, 0:2 * h:2])
        if m % 2:
            gx[:, m - 1] = g[:, h]
        g = gx
    return g


def _value(p: Plan, tensors: list[np.ndarray], rows: int) -> np.ndarray:
    """The values over the open legs, sentence axis first."""
    if not tensors:
        return np.ones(rows)
    last = tensors[-1]
    if not p.live[-1]:  # no parameter: every row has the same value
        return np.broadcast_to(np.transpose(last, p.perm),
                               (rows,) + tuple(last.shape[i] for i in p.perm))
    return last.transpose(p.axes)


def _backprop(p: Plan, tensors: list[np.ndarray],
              g: np.ndarray) -> list[np.ndarray]:
    """The cotangent of each input (``p.inputs``), given the values'
    cotangent.

    A step's result is einsum(s_a,s_b->s_c) of its operands; the cotangent
    of a live operand is einsum(s_c,s_b->s_a) of the result's cotangent and
    the other operand, and the same for b (``Plan.back``). A chain's
    product then walks its cotangent back down the chain's tree
    (``_untree``) to its block's."""
    cot: list[Optional[np.ndarray]] = [None] * len(tensors)
    cot[-1] = g.transpose(p.inverse)
    for c, a, b, script_a, script_b in p.back:
        gc = cot[c]
        if script_a is not None:
            cot[a] = _einsum(script_a, gc, tensors[b])
        if script_b is not None:
            cot[b] = _einsum(script_b, tensors[a], gc)
    for a, t in p.trees:
        cot[a] = _untree(tensors[t], cot[a])
    return [cot[k] for k in p.inputs]


def _block(chain: list[Node], ps: ParameterStore) -> np.ndarray:
    """The stored values of a chain's leaves as one (k, d, d) array; a
    missing or misshapen one raises as ``_node_tensor`` does, for the first
    such leaf, checked one by one only then."""
    try:
        block = np.array([ps[node.symbol.name] for node in chain])
        if block.shape[1:] == chain[0].shape:
            return block
    except (UnboundSymbol, ValueError):  # ValueError: unequal shapes
        pass
    return np.array([_node_tensor(node, ps) for node in chain])


def contract_one(p: Plan, inputs: Sequence[np.ndarray]) -> np.ndarray:
    """One network's value from its inputs (``p.inputs``), one row each."""
    return _value(p, _replay(p, inputs), 1)[0]


def contract(tn: TensorNetwork, ps: ParameterStore) -> np.ndarray:
    """Exact value of the network over its open legs (scalar if none)."""
    p, nodes = _planned(tn.structure), tn.nodes
    inputs = [_node_tensor(nodes[k], ps)[None] for k in p.singles]
    if p.chains:
        inputs += [_block([nodes[k] for k in chain], ps)[None]
                   for chain in p.chains]
    return contract_one(p, inputs)


# ---------------------------------------------------------------------------
# Networks of one structure, batched.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Group:
    """Networks of one structure: their positions and, per row, the flat
    vector offsets of every entry of its parameter leaves, leaf after leaf
    in ``plan.params`` order, or in the order of ``plan.cuts`` in a plan
    with chains (``Plan.layout``). In a circuit group every parameter leaf
    is a rotation gate, or its superoperator, whose one entry is the
    angle."""
    plan: Plan
    rows: np.ndarray
    index: np.ndarray  # (rows, entries)


@dataclass(frozen=True)
class NetworkPlan:
    """Networks grouped by structure, each group planned once; ``count``
    is the length of the sequence the rows index.

    Built from these, ``rows`` holds every group's rows, group after
    group: the order of the values of ``contract_plan`` and
    ``contract_grad``. ``angles`` holds, for each distinct rotation kind of
    the parameter leaves (``Plan.kinds``), the distinct offsets of its
    angles across every group, and ``picks``, per group and kind, the
    positions of the kind's leaves and, per leaf, where each row's angle
    lies among those offsets; a tensor plan has no angles, and its groups
    no picks. The rows share most of their symbols, so a pass calls each
    kind's kernel once on the distinct angles, and every leaf takes its
    rows from the result. Every array is read-only, since a plan may be
    cached and shared."""
    groups: tuple[Group, ...]
    count: int
    rows: np.ndarray = field(init=False, repr=False)
    angles: tuple[tuple[str, np.ndarray], ...] = field(init=False,
                                                       repr=False)
    picks: tuple[tuple[tuple[str, np.ndarray, np.ndarray], ...], ...] = \
        field(init=False, repr=False)

    def __post_init__(self):
        rows = np.concatenate([g.rows for g in self.groups]
                              or [np.zeros(0, np.intp)])
        taken = {}
        for g in self.groups:
            for gate, js in g.plan.rotations:
                taken.setdefault(gate, []).append(g.index[:, js].ravel())
        # with return_inverse, np.unique does not import numpy.ma, which
        # adds 1.3 MB to the peak RSS of a run
        angles = tuple((gate, np.unique(np.concatenate(parts),
                                        return_inverse=True)[0])
                       for gate, parts in taken.items())
        table = dict(angles)
        # (leaves, rows), so each leaf's (rows, ...) slice of a gathered
        # table is contiguous
        picks = tuple(tuple(
            (gate, js, np.searchsorted(table[gate], g.index[:, js].T))
            for gate, js in g.plan.rotations) for g in self.groups)
        for array in [rows, *(a for g in self.groups
                              for a in (g.rows, g.index)),
                      *table.values(), *(at for group in picks
                                         for _, _, at in group)]:
            array.setflags(write=False)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "angles", angles)
        object.__setattr__(self, "picks", picks)

    def _gather(self, vec: np.ndarray) -> Iterator[list[np.ndarray]]:
        """Each group's parameter leaves under the flat vector ``vec``, one
        group at a time, so a group's leaves can go before the next's are
        built: a tensor leaf's entries, or a rotation's tensor taken from
        one call of its kind's kernel per gate on the distinct angles."""
        tables = {gate: KERNELS[gate](vec[offsets])
                  for gate, offsets in self.angles}
        for g, picks in zip(self.groups, self.picks):
            if not picks:
                flat = vec[g.index]
                out = [flat[:, start:stop].reshape(shape)
                       for start, stop, shape in g.plan.cuts]
            else:
                out = [None] * len(g.plan.inputs)
                for gate, js, at in picks:
                    for j, tensor in zip(js, tables[gate][at]):
                        out[j] = tensor
            yield out

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
                                for (point, _), m in zip(parts, keep)])))
        points = 1 + max((point for point, _ in parts), default=0)
        return NetworkPlan(tuple(groups), points * self.count)


@lru_cache(maxsize=1024)  # bounded, like simulator's circuit plans
def _planned(structure: tuple) -> Plan:
    """The plan of the networks of one ``TensorNetwork.structure``."""
    return plan(structure)


def plan_rows(rows: Iterable[tuple], count: int, store: ParameterStore,
              plan_of: Callable[[Hashable], Plan]) -> NetworkPlan:
    """Group rows, of a sequence of ``count``, by structure against the
    layout of ``store``: row (row, key, params) has the structure ``key``,
    planned by ``plan_of(key)`` once, and its parameter leaves gather the
    entries of ``params``, one stored (name, shape) each in ``Plan.params``
    order. A missing or misshapen symbol's error names the row."""
    layout = {name: (shape, offset) for name, shape, offset in store.layout}
    groups: dict[Hashable, tuple[list, list]] = {}
    for row, key, params in rows:
        entries = []
        for name, shape in params:
            if name not in layout:
                raise UnboundSymbol(
                    f"row {row}: no value bound for symbol {name!r}")
            stored, offset = layout[name]
            if stored != shape:
                raise ShapeMismatch(f"row {row}: {name}: stored {stored}, "
                                    f"plan wants {shape}")
            entries.extend(range(offset, offset + math.prod(shape)))
        members, index = groups.setdefault(key, ([], []))
        members.append(row)
        index.append(entries)
    built = []
    for key, (members, index) in groups.items():
        p = plan_of(key)
        index = np.array(index, np.intp).reshape(len(members), -1)
        built.append(Group(p, np.array(members), index if p.layout is None
                           else index[:, p.layout]))
    return NetworkPlan(tuple(built), count)


def plan_networks(networks: Sequence[TensorNetwork], rows: Sequence[int],
                  store: ParameterStore) -> NetworkPlan:
    """``plan_rows`` of the networks at ``rows``, each parameter node
    reading its symbol in the node's shape."""
    return plan_rows(((row, networks[row].structure,
                       [(n.symbol.name, n.shape) for n in networks[row].nodes
                        if n.kind == "param"])
                      for row in rows), len(networks), store, _planned)


def contract_plan(plan: NetworkPlan, vec: np.ndarray) -> np.ndarray:
    """The values of the plan's networks under the flat vector ``vec``, one
    row each in ``plan.rows`` order; every network has the same open
    shape. Each group's tensors go once its values are read."""
    return np.concatenate([
        _value(g.plan, _replay(g.plan, params), len(g.rows))
        for g, params in zip(plan.groups, plan._gather(vec))])


def contract_grad(plan: NetworkPlan, vec: np.ndarray,
                  upstream: Callable[[np.ndarray], np.ndarray]
                  ) -> tuple[np.ndarray, np.ndarray]:
    """The values V of the plan's networks (one row each, in ``plan.rows``
    order) and the gradient of sum(V * upstream(V)) in the flat layout of
    ``vec``, with upstream(V) held constant; every network has the same
    open shape. One pass serves every group: each replays its
    contraction, upstream sees all rows at once, and each group walks back
    from its rows' cotangent unless that is all zero. Each group walked
    back scatters its cotangents into the flat layout with one bincount,
    added to the gradient in group order. Real networks only: a circuit's
    rotation leaves have no gradient here."""
    runs = [_replay(g.plan, params)
            for g, params in zip(plan.groups, plan._gather(vec))]
    values = np.concatenate([_value(g.plan, tensors, len(g.rows))
                             for g, tensors in zip(plan.groups, runs)])
    g = np.asarray(upstream(values), dtype=float)
    if g.shape != values.shape:
        raise ShapeMismatch(
            f"upstream cotangent {g.shape} vs values {values.shape}")
    grad, start = np.zeros(len(vec)), 0
    for group, tensors in zip(plan.groups, runs):
        p, n = group.plan, len(group.rows)
        cut, start = g[start:start + n], start + n
        if tensors and p.live[-1] and cut.any():
            cot = np.concatenate(
                [c.reshape(n, -1) for c in _backprop(p, tensors, cut)], axis=1)
            grad += np.bincount(group.index.ravel(), cot.ravel(), len(vec))
    return values, grad
