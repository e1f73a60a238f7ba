"""Compilation of abstract diagrams into parameterized artifacts.

``iqp_ansatz`` emits a quantum circuit: every wire of a diagram gets a fixed
number of qubits per its atomic type, word states become single-qubit Euler
rotations or H + nearest-neighbour CRz ladders, cups become Bell effects
with postselection and caps Bell preparations.

``tensor_ansatz`` (and its MPS / spider splitting variants) emits a tensor
network: word boxes become parameter tensors, cups plain contractions, caps
identity-pair nodes and spiders copy nodes.

Parameter naming is deterministic: the same (token, type signature) pair
always produces the same symbol family, which is how weight sharing across
a dataset works.

An ansatz is a functor: it maps each box by its type alone, and a word's
token reaches the artifact only through its symbol names, token followed by
a suffix of the word's signature and factor index. So every diagram of one
structure compiles to one artifact up to those names. ``iqp_template`` and
``network_template`` compile a diagram into a ``Template``: its artifact,
and for each parameter node or rotation op the word that made it and its
name's suffix. ``Template.instance`` re-labels the artifact with another
diagram's tokens. The template's artifact was validated when it compiled,
and an instance differs from it only in those nodes or ops, so only they
are checked: each keeps its node's id, kind and shape, or its op's gate and
qubits. The walk that validates an artifact records its ``structure``, the
key of its plan with symbols left out, and an instance holds its template's.
"""
from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .diagram import Cap, Cup, Diagram, Spider, Swap, Word
from .types import PType, TypeSeq

QubitMap = dict
DimMap = dict


class UnsupportedBox(Exception):
    """Box kind the target backend cannot realize."""


class InvalidConfig(Exception):
    """Ansatz configuration outside its legal range."""


class InvalidOp(ValueError):
    """A circuit op with an unknown gate, or with qubits that are the wrong
    number for its gate, repeated or outside the circuit."""


@dataclass(frozen=True)
class Symbol:
    """A named parameter; shape () marks a scalar rotation angle."""

    name: str
    shape: tuple[int, ...] = ()


@lru_cache(maxsize=4096)  # one entry per word type of a corpus
def _signature(dom: TypeSeq, cod: TypeSeq) -> str:
    dom_part = ".".join(str(t) for t in dom)
    cod_part = ".".join(str(t) for t in cod)
    return f"{dom_part}>{cod_part}" if dom_part else cod_part


def _suffix(box: Word, index: int) -> str:
    """The name of the ``index``-th symbol of ``box`` after its token."""
    return f"__{_signature(box.dom, box.cod)}__{index}"


def _values(mapping: dict, seq: Iterable[PType], what: str) -> list[int]:
    out = []
    for t in seq:
        if t.base not in mapping:
            raise InvalidConfig(f"no {what} assigned to atomic type {t.base!r}")
        v = mapping[t.base]
        if not isinstance(v, int) or v < 1:
            raise InvalidConfig(f"{what} for {t.base!r} must be a positive int")
        out.append(v)
    return out


# ---------------------------------------------------------------------------
# Circuits.
# ---------------------------------------------------------------------------

GATES = {"H": 1, "Rx": 1, "Rz": 1, "CRz": 2, "CX": 2}  # gate: qubit count
ROTATIONS = ("Rx", "Rz", "CRz")  # the gates that take an angle


def _diagonal(theta, signs: np.ndarray) -> np.ndarray:
    # diag(e^{i s theta / 2} for s in signs), batched over theta
    return np.exp(0.5j * np.multiply.outer(theta, signs))[..., None] \
        * _EYE[len(signs)]


def _rx(theta) -> np.ndarray:
    half = np.divide(theta, 2)
    return np.multiply.outer(np.cos(half), _EYE[2]) \
        - 1j * np.multiply.outer(np.sin(half), _X)


# the kernels' fixed arrays, built once and shared read-only
_EYE, _X = {2: np.eye(2), 4: np.eye(4)}, np.array([[0.0, 1.0], [1.0, 0.0]])
_Z_SIGNS, _CZ_SIGNS = np.array((-1, 1)), np.array((0, 0, -1, 1))
_H = np.sqrt(0.5) * np.array([[1.0, 1.0], [1.0, -1.0]])
_CX = np.eye(4)[[0, 1, 3, 2]].reshape(2, 2, 2, 2)
for _shared in (*_EYE.values(), _X, _Z_SIGNS, _CZ_SIGNS, _H, _CX):
    _shared.setflags(write=False)

# The gate conventions, fixed project-wide: the tensor of each gate as a
# function of its angle theta (ignored by H and CX). A one-qubit gate is
# (2, 2) and a two-qubit gate (2, 2, 2, 2), output indices before input
# indices, the first qubit of the op first in each; the axes of an array
# theta come first. Rx(t) = exp(-i t X / 2), Rz(t) = exp(-i t Z / 2) and
# CRz(t) = diag(1, 1, e^{-it/2}, e^{it/2}) over (control, target).
GATE_TENSORS = {
    "H": lambda theta: _H,
    "CX": lambda theta: _CX,
    "Rx": _rx,
    "Rz": lambda theta: _diagonal(theta, _Z_SIGNS),
    "CRz": lambda theta: _diagonal(theta, _CZ_SIGNS).reshape(
        np.shape(theta) + (2,) * 4),
}


def _doubled(u: np.ndarray, legs: int) -> np.ndarray:
    """U (x) conj(U) of a gate tensor U whose last ``legs`` axes are its
    legs, each ket leg paired with its bra leg, ket index first, into one
    leg of dimension 4."""
    batch = u.shape[:u.ndim - legs]
    ket = u.reshape(batch + (2, 1) * legs)
    bra = u.conj().reshape(batch + (1, 2) * legs)
    return (ket * bra).reshape(batch + (4,) * legs)


# The superoperator of each gate, U (x) conj(U), the gate acting on a
# density matrix, as a noisy circuit's network holds it (see ``simulator``):
# keyed by DOUBLED[gate], a rotation's leaf kind there, a (4, 4) or
# (4, 4, 4, 4) tensor of theta laid out as the gate's, each leg the pair
# (ket, bra) of one of the gate's legs.
DOUBLED = {gate: gate + "~" for gate in GATES}
SUPEROPERATORS = {
    DOUBLED[gate]: (lambda theta, u=u, legs=2 * GATES[gate]:
                    _doubled(u(theta), legs))
    for gate, u in GATE_TENSORS.items()}


@dataclass(frozen=True)
class Op:
    gate: str
    qubits: tuple[int, ...]
    param: Union[Symbol, float, None] = None


@dataclass(frozen=True)
class Circuit:
    n_qubits: int
    ops: tuple[Op, ...]
    postselect: tuple[int, ...]  # qubits required to read 0
    open: tuple[int, ...]  # output qubits, in codomain order
    # (n_qubits, each op's (gate, qubits)): its plan's key, set once valid
    structure: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        every = frozenset(range(self.n_qubits))
        for i, op in enumerate(self.ops):
            distinct = set(op.qubits)
            if GATES.get(op.gate) == len(op.qubits) == len(distinct) \
                    and distinct <= every:
                continue
            if op.gate not in GATES:
                problem = "unknown gate"
            elif len(op.qubits) != GATES[op.gate]:
                problem = f"{op.gate} acts on {GATES[op.gate]} qubit(s)"
            elif len(distinct) != len(op.qubits):
                problem = "repeated qubit"
            else:
                problem = f"qubit not in range({self.n_qubits})"
            raise InvalidOp(
                f"op {i} ({op.gate!r} on qubits {op.qubits}): {problem}")
        if set(self.postselect) & set(self.open):
            raise ValueError("open and postselected qubits overlap")
        if set(self.postselect) | set(self.open) != set(range(self.n_qubits)):
            raise ValueError("every qubit must be open or postselected")
        for name in ("postselect", "open"):
            qubits = getattr(self, name)
            if len(set(qubits)) != len(qubits):
                raise ValueError(f"{name} lists a qubit twice: {qubits}")
        object.__setattr__(self, "structure", (
            self.n_qubits, tuple((op.gate, op.qubits) for op in self.ops)))

    def _relabel(self, ops: Iterable[tuple[int, Op]]) -> Circuit:
        """This circuit with each (k, op) of ``ops`` in place of its k-th
        op. An op must keep the gate and qubits of the one it replaces, so
        the circuit stays as valid as when it was built, of the same
        ``structure``: only the replaced ops are checked."""
        out = list(self.ops)
        for k, op in ops:
            if op.gate != out[k].gate or op.qubits != out[k].qubits:
                raise InvalidOp(f"op {k} ({op.gate!r} on qubits "
                                f"{op.qubits}): replaces {out[k].gate!r} "
                                f"on qubits {out[k].qubits}")
            out[k] = op
        return _built(self, ops=tuple(out))

    @property
    def symbols(self) -> list[Symbol]:
        out, seen = [], set()
        for op in self.ops:
            if isinstance(op.param, Symbol) and op.param.name not in seen:
                seen.add(op.param.name)
                out.append(op.param)
        return out

    def to_json(self, indent: Optional[int] = None) -> str:
        ops = [
            {"g": op.gate, "q": list(op.qubits),
             **({"p": op.param.name if isinstance(op.param, Symbol)
                 else op.param} if op.param is not None else {})}
            for op in self.ops
        ]
        return json.dumps({
            "n_qubits": self.n_qubits,
            "ops": ops,
            "postselect": [[q, 0] for q in self.postselect],
            "open": list(self.open),
        }, indent=indent)


def iqp_ansatz(d: Diagram, qm: QubitMap, n_layers: int = 1) -> Circuit:
    """Compile a diagram into an IQP-style circuit.

    Pipeline diagrams have empty domains; any domain wires are allocated
    as plain |0> qubits so identity-like diagrams still compile.
    """
    return iqp_template(d, qm, n_layers).artifact


def iqp_template(d: Diagram, qm: QubitMap, n_layers: int = 1) -> Template:
    """``iqp_ansatz``'s circuit as the template of ``d``'s structure."""
    if n_layers < 1:
        raise InvalidConfig("n_layers must be at least 1")

    ops: list[Op] = []
    postselect: list[int] = []
    slots: list[tuple[int, int, str]] = []
    next_qubit = 0

    def alloc(count: int) -> tuple[int, ...]:
        nonlocal next_qubit
        ids = tuple(range(next_qubit, next_qubit + count))
        next_qubit += count
        return ids

    # wires maps position -> (ptype, tuple of qubits)
    wires: list[tuple] = [
        (t, alloc(_values(qm, d.dom[i:i + 1], "qubit count")[0]))
        for i, t in enumerate(d.dom)]

    def rotation(gate: str, qubits: tuple[int, ...], box: Word, index: int):
        suffix = _suffix(box, index)
        slots.append((len(ops), words, suffix))
        ops.append(Op(gate, qubits, Symbol(box.token + suffix)))

    words = 0
    for box, offset in d.layers:
        if isinstance(box, Word):
            if len(box.dom):
                raise UnsupportedBox(
                    f"word {box.token!r} consumes wires; circuit words must "
                    "be states")
            counts = _values(qm, box.cod, "qubit count")
            groups = [alloc(c) for c in counts]
            qubits = [q for g in groups for q in g]
            k = len(qubits)
            if k == 1:
                q = qubits[0]
                for i, gate in enumerate(("Rx", "Rz", "Rx")):
                    rotation(gate, (q,), box, i)
            elif k >= 2:
                idx = 0
                for _ in range(n_layers):
                    ops.extend(Op("H", (q,)) for q in qubits)
                    for a, b in zip(qubits, qubits[1:]):
                        rotation("CRz", (a, b), box, idx)
                        idx += 1
            words += 1
            wires[offset:offset] = [
                (t, g) for t, g in zip(box.cod, groups)]
        elif isinstance(box, Cup):
            (_, left), (_, right) = wires[offset], wires[offset + 1]
            for a, b in zip(left, right):
                ops.append(Op("CX", (a, b)))
                ops.append(Op("H", (a,)))
                postselect.extend((a, b))
            del wires[offset:offset + 2]
        elif isinstance(box, Cap):
            count = _values(qm, box.cod[:1], "qubit count")[0]
            left, right = alloc(count), alloc(count)
            for a, b in zip(left, right):
                ops.append(Op("H", (a,)))
                ops.append(Op("CX", (a, b)))
            wires[offset:offset] = [(box.cod[0], left), (box.cod[1], right)]
        elif isinstance(box, (Spider, Swap)):
            raise UnsupportedBox(
                f"{type(box).__name__} boxes are tensor-backend only")
        else:
            raise UnsupportedBox(f"unknown box {box!r}")

    open_qubits = tuple(q for _, group in wires for q in group)
    return Template(
        Circuit(next_qubit, tuple(ops), tuple(postselect), open_qubits),
        tuple(slots))


# ---------------------------------------------------------------------------
# Tensor networks.
# ---------------------------------------------------------------------------


_NODE_KINDS = frozenset(("param", "delta", "copy"))


@dataclass(frozen=True)
class Node:
    node_id: str
    kind: str  # "param" | "delta" | "copy"
    shape: tuple[int, ...]
    symbol: Optional[Symbol] = None

    def __post_init__(self):
        if self.kind not in _NODE_KINDS:
            raise ValueError(f"bad node kind {self.kind!r}")
        if (self.kind == "param") != (self.symbol is not None):
            raise ValueError("param nodes carry a symbol, others do not")


Leg = tuple[str, int]


@dataclass(frozen=True)
class TensorNetwork:
    nodes: tuple[Node, ...]
    edges: tuple[tuple[Leg, Leg], ...]
    open_legs: tuple[Leg, ...]
    # what contract.plan reads, each leg (node position, axis); set once valid
    structure: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        index = {n.node_id: k for k, n in enumerate(self.nodes)}
        if len(index) != len(self.nodes):
            raise ValueError("duplicate node ids")
        at = []  # the legs of the edges, then the open legs, by position
        for leg in [*(leg for edge in self.edges for leg in edge),
                    *self.open_legs]:
            k = index.get(leg[0])
            if k is None or not 0 <= leg[1] < len(self.nodes[k].shape):
                raise ValueError(f"unknown leg {leg}")
            at.append((k, leg[1]))
        ends = 2 * len(self.edges)
        edges = tuple(zip(at[:ends:2], at[1:ends:2]))
        for (a, b), ((k, i), (m, j)) in zip(self.edges, edges):
            if self.nodes[k].shape[i] != self.nodes[m].shape[j]:
                raise ValueError(f"edge {a}-{b} joins unequal dimensions")
        uses = Counter(at)
        for k, node in enumerate(self.nodes):
            for i in range(len(node.shape)):
                if uses[k, i] != 1:
                    raise ValueError(
                        f"leg {(node.node_id, i)} must have exactly one "
                        "edge or be open")
        object.__setattr__(self, "structure", (
            tuple((n.kind, n.shape) for n in self.nodes), edges,
            tuple(at[ends:])))

    def _relabel(self, nodes: Iterable[tuple[int, Node]]) -> TensorNetwork:
        """This network with each (k, node) of ``nodes`` in place of its
        k-th node. A node must keep the id, kind and shape of the one it
        replaces, so every leg checked when this network was built is still
        valid and its ``structure`` holds: only those nodes are checked."""
        out = list(self.nodes)
        for k, node in nodes:
            was = out[k]
            if node.node_id != was.node_id or node.kind != was.kind \
                    or node.shape != was.shape:
                raise ValueError(f"node {k} ({node.node_id!r}, {node.kind}, "
                                 f"{node.shape}) replaces ({was.node_id!r}, "
                                 f"{was.kind}, {was.shape})")
            out[k] = node
        return _built(self, nodes=tuple(out))

    @property
    def symbols(self) -> list[Symbol]:
        out, seen = [], set()
        for n in self.nodes:
            if n.symbol is not None and n.symbol.name not in seen:
                seen.add(n.symbol.name)
                out.append(n.symbol)
        return out

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps({
            "nodes": [
                {"id": n.node_id, "kind": n.kind, "shape": list(n.shape),
                 **({"symbol": n.symbol.name} if n.symbol else {})}
                for n in self.nodes],
            "edges": [[list(a), list(b)] for a, b in self.edges],
            "open": [list(leg) for leg in self.open_legs],
        }, indent=indent)


@dataclass(frozen=True)
class Template:
    """A compiled artifact as the template of its diagram's structure.

    ``slots`` holds one (index, word, suffix) per parameter node of a
    network or rotation op of a circuit, in order: its index in ``nodes``
    or ``ops``, the index of the word that made it among the diagram's
    words in layer order, and its symbol's name after that word's token.
    """
    artifact: Union[Circuit, TensorNetwork]
    slots: tuple[tuple[int, int, str], ...]

    def instance(self, tokens: Sequence[str]) -> Union[Circuit, TensorNetwork]:
        """The artifact of a diagram of this structure whose i-th word has
        the token ``tokens[i]``. It differs from the template's, which was
        validated when it compiled, only in the symbols at ``slots``, so
        only those nodes or ops are checked."""
        art = self.artifact
        if isinstance(art, Circuit):
            ops = art.ops
            return art._relabel(
                (k, Op(ops[k].gate, ops[k].qubits,
                       Symbol(tokens[word] + suffix)))
                for k, word, suffix in self.slots)
        nodes = art.nodes
        return art._relabel(
            (k, Node(nodes[k].node_id, nodes[k].kind, nodes[k].shape,
                     Symbol(tokens[word] + suffix, nodes[k].shape)))
            for k, word, suffix in self.slots)


def _built(like, **changes):
    """A copy of the frozen dataclass instance ``like`` with ``changes``
    set, built without its ``__post_init__``: the caller has checked them."""
    out = object.__new__(type(like))
    out.__dict__.update(like.__dict__, **changes)
    return out


class _NetBuilder:
    def __init__(self):
        self.nodes: list[Node] = []
        self.edges: list[tuple[Leg, Leg]] = []
        self.counts: dict[str, int] = {}
        self.slots: list[tuple[int, int, str]] = []  # Template.slots
        self.words = 0  # the words seen so far

    def add(self, kind: str, shape: tuple[int, ...],
            symbol: Optional[Symbol] = None, stem: str = "") -> str:
        stem = stem or kind
        k = self.counts.get(stem, 0)
        self.counts[stem] = k + 1
        node_id = f"{stem}{k}"
        self.nodes.append(Node(node_id, kind, shape, symbol))
        return node_id

    def param(self, box: Word, index: int, shape: tuple[int, ...]) -> str:
        """Add the parameter node of the ``index``-th symbol of ``box``."""
        suffix = _suffix(box, index)
        self.slots.append((len(self.nodes), self.words, suffix))
        return self.add("param", shape, Symbol(box.token + suffix, shape),
                        stem="w")

    def connect(self, a: Leg, b: Leg):
        self.edges.append((a, b))


def _word_factors(box: Word, dims: list[int], bond_dim: int,
                  max_order: int, mode: str, net: _NetBuilder) -> list[Leg]:
    """Emit the nodes for one word, returning one leg per data wire.

    mode "full" keeps a single tensor, "mps" splits into a bond chain and
    "spider" into overlapping factors joined by copy nodes. A word with no
    wires (punctuation) gets no node, as it gets no gate in iqp_ansatz: a
    scalar factor only rescales the sentence vector and leaves p1 as is.
    """
    k = len(dims)
    if k == 0:
        return []
    if mode == "full" or k <= max_order:
        nid = net.param(box, 0, tuple(dims))
        return [(nid, i) for i in range(k)]

    if mode == "mps":
        splits = _mps_groups(k, max_order)
        legs: list[Leg] = [None] * k  # type: ignore[list-item]
        prev_bond: Optional[Leg] = None
        for fi, chunk in enumerate(splits):
            shape = [dims[i] for i in chunk]
            if fi > 0:
                shape.insert(0, bond_dim)
            if fi < len(splits) - 1:
                shape.append(bond_dim)
            nid = net.param(box, fi, tuple(shape))
            base = 1 if fi > 0 else 0
            for j, wire in enumerate(chunk):
                legs[wire] = (nid, base + j)
            if prev_bond is not None:
                net.connect(prev_bond, (nid, 0))
            prev_bond = (nid, len(shape) - 1) if fi < len(splits) - 1 else None
        return legs

    if mode == "spider":
        # overlapping chunks of max_order wires sharing one boundary wire
        step = max_order - 1
        chunks = [list(range(s, min(s + max_order, k)))
                  for s in range(0, k - 1, step)]
        legs: list[Leg] = [None] * k  # type: ignore[list-item]
        pending: dict[int, list[Leg]] = {}
        for fi, chunk in enumerate(chunks):
            shape = tuple(dims[i] for i in chunk)
            nid = net.param(box, fi, shape)
            for j, wire in enumerate(chunk):
                pending.setdefault(wire, []).append((nid, j))
        for wire, owners in pending.items():
            if len(owners) == 1:
                legs[wire] = owners[0]
            else:
                a, b = owners
                cid = net.add("copy", (dims[wire],) * 3, stem="c")
                net.connect(a, (cid, 0))
                net.connect(b, (cid, 1))
                legs[wire] = (cid, 2)
        return legs

    raise InvalidConfig(f"unknown split mode {mode!r}")


def network_template(d: Diagram, dm: DimMap, mode: str, bond_dim: int,
                     max_order: int) -> Template:
    """The network of ``d`` with words split by ``mode`` ("full", "mps" or
    "spider", see ``_word_factors``), as the template of its structure."""
    net = _NetBuilder()
    wires: list[tuple] = []  # position -> (ptype, leg, dim)
    input_legs: list[Leg] = []
    for i, t in enumerate(d.dom):
        # a domain wire enters through one side of an identity-pair node
        dim = _values(dm, d.dom[i:i + 1], "dimension")[0]
        nid = net.add("delta", (dim, dim), stem="in")
        input_legs.append((nid, 0))
        wires.append((t, (nid, 1), dim))

    for box, offset in d.layers:
        if isinstance(box, Word):
            dims = _values(dm, box.dom.items + box.cod.items, "dimension")
            legs = _word_factors(box, dims, bond_dim, max_order, mode, net)
            net.words += 1
            n_dom = len(box.dom)
            for i in range(n_dom):
                _, leg, dim = wires[offset + i]
                net.connect(leg, legs[i])
            out = [(t, legs[n_dom + i], dims[n_dom + i])
                   for i, t in enumerate(box.cod)]
            wires[offset:offset + n_dom] = out
        elif isinstance(box, Cup):
            (_, la, _), (_, lb, _) = wires[offset], wires[offset + 1]
            net.connect(la, lb)
            del wires[offset:offset + 2]
        elif isinstance(box, Cap):
            dim = _values(dm, box.cod[:1], "dimension")[0]
            nid = net.add("delta", (dim, dim), stem="d")
            wires[offset:offset] = [(box.cod[0], (nid, 0), dim),
                                    (box.cod[1], (nid, 1), dim)]
        elif isinstance(box, Spider):
            dim = _values(dm, (box.dom @ box.cod)[:1], "dimension")[0]
            total = box.n_in + box.n_out
            nid = net.add("copy", (dim,) * total, stem="c")
            for i in range(box.n_in):
                _, leg, _ = wires[offset + i]
                net.connect(leg, (nid, i))
            out = [(t, (nid, box.n_in + i), dim)
                   for i, t in enumerate(box.cod)]
            wires[offset:offset + box.n_in] = out
        elif isinstance(box, Swap):
            wires[offset], wires[offset + 1] = wires[offset + 1], wires[offset]
        else:
            raise UnsupportedBox(f"unknown box {box!r}")

    open_legs = tuple(input_legs) + tuple(leg for _, leg, _ in wires)
    return Template(
        TensorNetwork(tuple(net.nodes), tuple(net.edges), open_legs),
        tuple(net.slots))


def tensor_ansatz(d: Diagram, dm: DimMap) -> TensorNetwork:
    """One parameter tensor per word, shaped by the wire dimensions.

    Open legs follow the diagram boundary: domain wires first (as inputs
    through identity-pair nodes), then codomain wires.
    """
    return network_template(d, dm, "full", 0, 0).artifact


def mps_ansatz(d: Diagram, dm: DimMap, bond_dim: int = 4,
               max_order: int = 3) -> TensorNetwork:
    """Split words of order > max_order into bond-contracted chains."""
    if max_order < 3:
        raise InvalidConfig("mps max_order must be at least 3")
    if bond_dim < 1:
        raise InvalidConfig("bond_dim must be positive")
    return network_template(d, dm, "mps", bond_dim, max_order).artifact


def spider_ansatz(d: Diagram, dm: DimMap, max_order: int = 2) -> TensorNetwork:
    """Split words of order > max_order into copy-linked overlapping factors."""
    if max_order < 2:
        raise InvalidConfig("spider max_order must be at least 2")
    return network_template(d, dm, "spider", 0, max_order).artifact


def _mps_groups(order: int, max_order: int) -> list[list[int]]:
    """Data wires of each MPS factor of an order-``order`` word: one group
    up to max_order, else the first takes max_order - 1 wires, interior
    ones max_order - 2 and the last at most max_order - 1."""
    if order <= max_order:
        return [list(range(order))]
    if max_order < 3:  # interior factors would take no wire
        raise InvalidConfig("mps max_order must be at least 3")
    groups = [list(range(max_order - 1))]
    rest = list(range(max_order - 1, order))
    while len(rest) > max_order - 1:
        groups.append(rest[:max_order - 2])
        rest = rest[max_order - 2:]
    groups.append(rest)
    return groups
