"""Circuit evaluation: exact, by tensor contraction, and sampled with noise.

The gates are those of ``ansatz.GATE_TENSORS``, and qubit 0 is the least
significant bit of a basis index of ``statevector``.

An exact circuit is a tensor network, contracted by ``contract``'s planner
like every tensor model: a |0> leaf per qubit, a (2, 2) or (2, 2, 2, 2)
node per gate, a <0| leaf per postselected qubit and the open qubits as
open legs. ``_network_plan`` plans each circuit structure once.
``plan_circuits`` groups circuits by structure into a ``NetworkPlan``
whose rows gather their angles from the flat vector, each rotation's
tensor built from its row's angle; ``statevector`` and ``evaluate`` are a
batch of one that gathers from the circuit's own angles, its group kept
per structure by ``_lone_group``. Every fixed leaf of a circuit plan is
complex, like the rotation tensors, so the plan runs in one dtype.

The noise model: after every two-qubit gate, each touched qubit suffers X,
Y or Z, each with probability p / 3. Shots are independent, so ``sample``
computes the exact distribution of one shot under the channel-averaged
map and draws all counts from it with one multinomial over (discarded,
each open bitstring). Averaged over the Paulis, the noise on one qubit is
the depolarising channel rho -> (1 - l) rho + l I/2 (x) Tr_q rho with
l = 4p/3, valid for every p in [0, 1]. The distribution is the value of
the circuit's doubled network, as DisCoPy's mixed ``to_tn`` builds it,
contracted by the same planner; ``_doubled_plan`` plans it once per
structure and noise, and ``_noisy_group`` keeps its batch of one (index
and rotation tables) per structure and noise, so sampling a sentence
builds neither. Each qubit has a ket and a bra wire, each starting at
a |0> leaf. Each gate has a ket node and a bra node, its complex
conjugate: for a rotation that is the same gate at minus its angle, and H
and CX are real. After each two-qubit gate, each touched qubit passes a
(2, 2, 2, 2) node over (ket out, bra out, ket in, bra in) whose value is
(1 - l) d(ko, ki) d(bo, bi) + l/2 d(ko, bo) d(ki, bi), with d the
Kronecker delta. A postselected qubit ends in <0| on its ket and its bra,
and an open qubit in a copy node over (ket, bra, outcome) whose outcome
leg is open. With p = 0 the channel is the identity and the distribution
is the noiseless one. Planning reads shapes only, so a copy node stands in
for each channel node while ``_doubled_plan`` plans; the channel's tensor,
complex like every fixed leaf, then replaces that leaf, and replacing a
plan's leaves folds its constant steps again, so every folded tensor holds
the channel, not its stand-in.
"""
from __future__ import annotations

from dataclasses import replace
from functools import lru_cache
from typing import Sequence

import numpy as np

from .ansatz import ROTATIONS, Circuit, Node, Op, Symbol, TensorNetwork
from .contract import Group, NetworkPlan, Plan, contract_batch, plan
from .params import ParameterStore, UnboundSymbol

ZERO_NORM_THRESHOLD = 1e-12
MAX_SHOTS = 2 ** 63 - 1  # the largest count numpy's multinomial draws


class ZeroNorm(Exception):
    """Postselection probability below threshold; parameters degenerate."""


class AllShotsDiscarded(Exception):
    """Every sampled shot violated the postselection condition."""


def _angle(op: Op, ps: ParameterStore) -> float:
    if isinstance(op.param, Symbol):
        value = np.asarray(ps[op.param.name])
        if value.shape != ():
            raise UnboundSymbol(f"{op.param.name} is not a scalar angle")
        return float(value)
    if op.param is None:
        raise UnboundSymbol(f"gate {op.gate} needs an angle")
    return float(op.param)


def _angles(c: Circuit, ps: ParameterStore) -> np.ndarray:
    """The angle of each rotation of c, in op order."""
    return np.array([_angle(op, ps) for op in c.ops if op.gate in ROTATIONS])


def _structure(c: Circuit) -> tuple:
    return c.n_qubits, tuple((op.gate, op.qubits) for op in c.ops)


def _lay(nodes: list, edges: list, wire: dict, node_id: str, kind: str,
         keys: tuple) -> None:
    """Append a node with an output and an input leg per wire of ``keys``
    (outputs first), joined to the wires' open ends, which move to its
    outputs."""
    nodes.append(Node(node_id, kind, (2,) * 2 * len(keys)))
    for j, key in enumerate(keys):
        edges.append((wire[key], (node_id, len(keys) + j)))
        wire[key] = (node_id, j)


@lru_cache(maxsize=1024)  # bounded: a long run may meet many structures
def _network_plan(n_qubits: int, gates: tuple[tuple[str, tuple], ...],
                  postselect: tuple[int, ...], legs: tuple[int, ...]) -> Plan:
    """The planned contraction of a circuit structure: a |0> leaf per
    qubit, a node per gate (output legs, then input legs), a <0| leaf per
    qubit of ``postselect`` and the qubits ``legs`` as the open legs, in
    order. The rotation nodes are the parameter leaves, in gate order."""
    nodes = [Node(f"in{q}", "zero", (2,)) for q in range(n_qubits)]
    wire = {q: (f"in{q}", 0) for q in range(n_qubits)}
    edges = []
    for i, (gate, qubits) in enumerate(gates):
        _lay(nodes, edges, wire, f"g{i}", gate, qubits)
    for q in postselect:
        nodes.append(Node(f"out{q}", "zero", (2,)))
        edges.append((wire[q], (f"out{q}", 0)))
    return plan(TensorNetwork(tuple(nodes), tuple(edges),
                              tuple(wire[q] for q in legs)))


@lru_cache(maxsize=1024)
def _doubled_plan(n_qubits: int, gates: tuple[tuple[str, tuple], ...],
                  postselect: tuple[int, ...], legs: tuple[int, ...],
                  noise_p: float) -> Plan:
    """The planned contraction of the doubled network of a circuit
    structure under depolarising noise ``noise_p`` (see the module
    docstring). Wire (s, q) is the ket (s = "k") or the bra (s = "b") of
    qubit q. The parameter leaves are each rotation's ket node, then its
    bra node, in gate order."""
    wire = {(s, q): (f"{s}in{q}", 0) for s in "kb" for q in range(n_qubits)}
    nodes = [Node(node, "zero", (2,)) for node, _ in wire.values()]
    edges, channels = [], []
    for i, (gate, qubits) in enumerate(gates):
        for s in "kb":
            _lay(nodes, edges, wire, f"{s}{i}", gate,
                 tuple((s, q) for q in qubits))
        for q in qubits if len(qubits) == 2 else ():
            # planning reads shapes only, so a copy node stands in for the
            # channel until its leaf is replaced below, which folds the
            # constant steps again
            channels.append(len(nodes))
            _lay(nodes, edges, wire, f"n{i}.{q}", "copy",
                 (("k", q), ("b", q)))
    for q in postselect:
        for s in "kb":
            nodes.append(Node(f"{s}out{q}", "zero", (2,)))
            edges.append((wire[s, q], (f"{s}out{q}", 0)))
    for q in legs:
        nodes.append(Node(f"x{q}", "copy", (2, 2, 2)))
        edges += [(wire["k", q], (f"x{q}", 0)), (wire["b", q], (f"x{q}", 1))]
    p = plan(TensorNetwork(tuple(nodes), tuple(edges),
                           tuple((f"x{q}", 2) for q in legs)))
    lam, eye = 4.0 * noise_p / 3.0, np.eye(2)
    # over (ket out, bra out, ket in, bra in)
    channel = ((1.0 - lam) * np.einsum("ac,bd->abcd", eye, eye)
               + lam / 2.0 * np.einsum("ab,cd->abcd", eye, eye)
               ).astype(complex)  # in the plan's one dtype
    channel.setflags(write=False)
    leaves = list(p.leaves)
    for k in channels:
        leaves[k] = channel
    return replace(p, leaves=tuple(leaves))


def _group(key: tuple, rows: np.ndarray, index: np.ndarray) -> Group:
    """Circuits of structure ``key``, _network_plan's arguments; index
    holds each row's angle offsets in gate order."""
    return Group(_network_plan(*key), rows, index,
                 tuple(gate for gate, _ in key[1] if gate in ROTATIONS))


@lru_cache(maxsize=1024)
def _lone_group(key: tuple) -> Group:
    """The batch of one of structure ``key``: its row gathers a circuit's
    own angles, in gate order."""
    count = sum(gate in ROTATIONS for gate, _ in key[1])
    return _group(key, np.zeros(1, np.intp), np.arange(count)[None])


def _amplitudes(c: Circuit, ps: ParameterStore, postselect: tuple[int, ...],
                legs: tuple[int, ...]) -> np.ndarray:
    """The contracted network of c, one axis per qubit of ``legs``."""
    group = _lone_group((*_structure(c), postselect, legs))
    return contract_batch(group, _angles(c, ps))[0]


def statevector(c: Circuit, ps: ParameterStore) -> np.ndarray:
    """State after all gates on |0...0>, before any postselection."""
    legs = tuple(reversed(range(c.n_qubits)))
    return _amplitudes(c, ps, (), legs).astype(complex).ravel()  # a copy


def _key(j: int, k: int) -> str:
    """Open bitstring j of k qubits, the first open qubit first."""
    return format(j, f"0{k}b") if k else ""


def evaluate(c: Circuit, ps: ParameterStore) -> dict[str, float]:
    """Probability of each open-qubit bitstring after postselection.

    Keys are bitstrings with character i giving the bit of c.open[i].
    """
    probs = np.abs(_amplitudes(c, ps, c.postselect, c.open)).ravel() ** 2
    total = float(probs.sum())
    if total < ZERO_NORM_THRESHOLD:
        raise ZeroNorm(f"postselection probability {total:.3e}")
    k = len(c.open)
    return {_key(j, k): float(p / total) for j, p in enumerate(probs)}


def plan_circuits(circuits: Sequence[Circuit],
                  store: ParameterStore) -> NetworkPlan:
    """Group one-open-qubit circuits by structure against the layout of
    ``store``; each row gathers its angles at its symbols' offsets."""
    offsets = {name: offset for name, shape, offset in store.layout
               if shape == ()}
    groups: dict[tuple, tuple[list, list]] = {}
    for row, c in enumerate(circuits):
        params = [op.param for op in c.ops if op.gate in ROTATIONS]
        if len(c.open) != 1 or not all(isinstance(p, Symbol)
                                       for p in params):
            raise ValueError(f"circuit {row}: a planned circuit needs one "
                             "open qubit and symbols for its angles")
        try:
            idx = [offsets[p.name] for p in params]
        except KeyError as exc:
            raise UnboundSymbol(f"no scalar angle bound for {exc}") from None
        key = (*_structure(c), c.postselect, c.open)
        members, index = groups.setdefault(key, ([], []))
        members.append(row)
        index.append(idx)
    return NetworkPlan(tuple(
        _group(key, np.array(members), np.array(index, dtype=np.intp))
        for key, (members, index) in groups.items()), len(circuits))


@lru_cache(maxsize=1024)
def _noisy_group(n_qubits: int, gates: tuple[tuple[str, tuple], ...],
                 postselect: tuple[int, ...], legs: tuple[int, ...],
                 noise_p: float) -> Group:
    """The doubled network of a circuit structure as a batch of one whose
    row gathers, from a circuit's angles followed by their negatives, each
    rotation's ket angle and then its bra angle."""
    rotations = [gate for gate, _ in gates if gate in ROTATIONS]
    index = np.arange(2 * len(rotations)).reshape(2, -1).T.reshape(1, -1)
    return Group(_doubled_plan(n_qubits, gates, postselect, legs, noise_p),
                 np.zeros(1, np.intp), index,
                 tuple(gate for gate in rotations for _ in "kb"))


def _outcomes(c: Circuit, ps: ParameterStore, noise_p: float) -> np.ndarray:
    """Probability that one shot passes postselection and reads open
    bitstring j, for each j read as a binary number with c.open[0] the most
    significant bit: the value of the doubled network of c."""
    angles = _angles(c, ps)
    group = _noisy_group(*_structure(c), c.postselect, c.open, noise_p)
    vec = np.concatenate([angles, -angles])
    return contract_batch(group, vec)[0].real.ravel()


def sample(c: Circuit, ps: ParameterStore, n_shots: int, seed: int,
           noise_p: float = 0.0) -> dict[str, int]:
    """Counts over open-qubit bitstrings; deterministic given seed.

    Each shot either passes postselection and reads an open bitstring or is
    discarded. Shots are independent, so all counts come from one
    multinomial over (discarded, each open bitstring) with the exact
    probabilities of one shot, the value of the circuit's doubled network
    under the channel-averaged Pauli noise (see the module docstring). Rounding
    negatives are clipped to 0 before the draw.
    """
    if n_shots < 1:
        raise ValueError("n_shots must be at least 1")
    if n_shots > MAX_SHOTS:
        raise ValueError(f"n_shots must be at most 2**63 - 1, got {n_shots!r}")
    if not 0.0 <= noise_p <= 1.0:
        raise ValueError(f"noise_p must lie in [0, 1], got {noise_p!r}")
    kept = np.clip(_outcomes(c, ps, noise_p), 0.0, None)
    drawn = np.random.default_rng(seed).multinomial(
        n_shots, np.concatenate([[max(0.0, 1.0 - kept.sum())], kept]))[1:]
    if not drawn.any():
        raise AllShotsDiscarded(f"all {n_shots} shots violated postselection")
    return {_key(j, len(c.open)): int(drawn[j]) for j in np.flatnonzero(drawn)}
