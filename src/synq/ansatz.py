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
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional, Union

from .diagram import Cap, Cup, Diagram, Spider, Swap, Word
from .types import TypeSeq

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


def _signature(box: Word) -> str:
    dom = ".".join(str(t) for t in box.dom)
    cod = ".".join(str(t) for t in box.cod)
    return f"{dom}>{cod}" if dom else cod


def word_symbol_name(box: Word, index: int) -> str:
    return f"{box.token}__{_signature(box)}__{index}"


def _values(mapping: dict, seq: TypeSeq, what: str) -> list[int]:
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
        used = set(self.postselect) | set(self.open)
        if set(self.postselect) & set(self.open):
            raise ValueError("open and postselected qubits overlap")
        if used != set(range(self.n_qubits)):
            raise ValueError("every qubit must be open or postselected")

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
    if n_layers < 1:
        raise InvalidConfig("n_layers must be at least 1")

    ops: list[Op] = []
    postselect: list[int] = []
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
                    ops.append(Op(gate, (q,),
                                  Symbol(word_symbol_name(box, i))))
            elif k >= 2:
                idx = 0
                for _ in range(n_layers):
                    ops.extend(Op("H", (q,)) for q in qubits)
                    for a, b in zip(qubits, qubits[1:]):
                        ops.append(Op("CRz", (a, b),
                                      Symbol(word_symbol_name(box, idx))))
                        idx += 1
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
    return Circuit(next_qubit, tuple(ops), tuple(postselect), open_qubits)


# ---------------------------------------------------------------------------
# Tensor networks.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Node:
    node_id: str
    kind: str  # "param" | "delta" | "copy"
    shape: tuple[int, ...]
    symbol: Optional[Symbol] = None

    def __post_init__(self):
        if self.kind not in ("param", "delta", "copy"):
            raise ValueError(f"bad node kind {self.kind!r}")
        if (self.kind == "param") != (self.symbol is not None):
            raise ValueError("param nodes carry a symbol, others do not")


Leg = tuple[str, int]


@dataclass(frozen=True)
class TensorNetwork:
    nodes: tuple[Node, ...]
    edges: tuple[tuple[Leg, Leg], ...]
    open_legs: tuple[Leg, ...]

    def __post_init__(self):
        legs: dict[Leg, int] = {}
        by_id = {n.node_id: n for n in self.nodes}
        if len(by_id) != len(self.nodes):
            raise ValueError("duplicate node ids")
        object.__setattr__(self, "_by_id", by_id)
        for leg in [*(leg for edge in self.edges for leg in edge),
                    *self.open_legs]:
            node = by_id.get(leg[0])
            if node is None or not 0 <= leg[1] < len(node.shape):
                raise ValueError(f"unknown leg {leg}")
        for (a, b) in self.edges:
            legs[a] = legs.get(a, 0) + 1
            legs[b] = legs.get(b, 0) + 1
            if self.leg_dim(a) != self.leg_dim(b):
                raise ValueError(f"edge {a}-{b} joins unequal dimensions")
        for leg in self.open_legs:
            legs[leg] = legs.get(leg, 0) + 1
        for node in self.nodes:
            for i in range(len(node.shape)):
                if legs.get((node.node_id, i), 0) != 1:
                    raise ValueError(
                        f"leg {(node.node_id, i)} must have exactly one "
                        "edge or be open")

    def node(self, node_id: str) -> Node:
        return self._by_id[node_id]

    def leg_dim(self, leg: Leg) -> int:
        return self.node(leg[0]).shape[leg[1]]

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


class _NetBuilder:
    def __init__(self):
        self.nodes: list[Node] = []
        self.edges: list[tuple[Leg, Leg]] = []
        self.counts: dict[str, int] = {}

    def add(self, kind: str, shape: tuple[int, ...],
            symbol: Optional[Symbol] = None, stem: str = "") -> str:
        stem = stem or kind
        k = self.counts.get(stem, 0)
        self.counts[stem] = k + 1
        node_id = f"{stem}{k}"
        self.nodes.append(Node(node_id, kind, shape, symbol))
        return node_id

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
        sym = Symbol(word_symbol_name(box, 0), tuple(dims))
        nid = net.add("param", tuple(dims), sym, stem="w")
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
            sym = Symbol(word_symbol_name(box, fi), tuple(shape))
            nid = net.add("param", tuple(shape), sym, stem="w")
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
            sym = Symbol(word_symbol_name(box, fi), shape)
            nid = net.add("param", shape, sym, stem="w")
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


def _build_network(d: Diagram, dm: DimMap, mode: str, bond_dim: int,
                   max_order: int) -> TensorNetwork:
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
            dims = _values(dm, box.dom @ box.cod, "dimension")
            legs = _word_factors(box, dims, bond_dim, max_order, mode, net)
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
    return TensorNetwork(tuple(net.nodes), tuple(net.edges), open_legs)


def tensor_ansatz(d: Diagram, dm: DimMap) -> TensorNetwork:
    """One parameter tensor per word, shaped by the wire dimensions.

    Open legs follow the diagram boundary: domain wires first (as inputs
    through identity-pair nodes), then codomain wires.
    """
    return _build_network(d, dm, "full", 0, 0)


def mps_ansatz(d: Diagram, dm: DimMap, bond_dim: int = 4,
               max_order: int = 3) -> TensorNetwork:
    """Split words of order > max_order into bond-contracted chains."""
    if max_order < 3:
        raise InvalidConfig("mps max_order must be at least 3")
    if bond_dim < 1:
        raise InvalidConfig("bond_dim must be positive")
    return _build_network(d, dm, "mps", bond_dim, max_order)


def spider_ansatz(d: Diagram, dm: DimMap, max_order: int = 2) -> TensorNetwork:
    """Split words of order > max_order into copy-linked overlapping factors."""
    if max_order < 2:
        raise InvalidConfig("spider max_order must be at least 2")
    return _build_network(d, dm, "spider", 0, max_order)


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
