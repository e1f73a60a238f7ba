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
batch of one that gathers from the circuit's own angles.

The noise model: after every two-qubit gate, each touched qubit suffers X,
Y or Z, each with probability p / 3. Shots are independent, so ``sample``
computes the exact distribution of one shot under the channel-averaged
map and draws all counts from it with one multinomial over (discarded,
each open bitstring). Averaged over the Paulis, the noise on one qubit is
the depolarising channel rho -> (1 - 4p/3) rho + (4p/3) I/2 (x) Tr_q rho,
valid for every p in [0, 1]. ``_density`` evolves the density matrix of
the live qubits only, as a (2,)*2w array with a ket and a bra axis per
qubit. A qubit's single-qubit gates are multiplied into one pending 2x2
matrix. It is allocated at its first two-qubit gate as the product state
U|0><0|U+ of that matrix U, or at the end if it is open and has none. Each
two-qubit gate, with the pending matrices of its qubits and the
depolarising channel on both, is one 16x16 superoperator applied by one
``tensordot``. A postselected qubit is projected onto |0> right after its
last gate and that gate's noise, and an open qubit's outcome is read out
there, so neither stays live any longer. With p = 0 the channel is the
identity and the distribution is the noiseless one.
"""
from __future__ import annotations

from functools import lru_cache
from typing import Sequence

import numpy as np

from .ansatz import (
    GATE_TENSORS, ROTATIONS, Circuit, Node, Op, Symbol, TensorNetwork,
)
from .contract import Group, NetworkPlan, Plan, contract_batch, plan
from .params import ParameterStore, UnboundSymbol

ZERO_NORM_THRESHOLD = 1e-12


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
        nodes.append(Node(f"g{i}", gate, (2,) * 2 * len(qubits)))
        for j, q in enumerate(qubits):
            edges.append((wire[q], (f"g{i}", len(qubits) + j)))
            wire[q] = (f"g{i}", j)
    for q in postselect:
        nodes.append(Node(f"out{q}", "zero", (2,)))
        edges.append((wire[q], (f"out{q}", 0)))
    return plan(TensorNetwork(tuple(nodes), tuple(edges),
                              tuple(wire[q] for q in legs)))


def _group(key: tuple, rows: np.ndarray, index: np.ndarray) -> Group:
    """Circuits of structure ``key``, _network_plan's arguments; index
    holds each row's angle offsets in gate order."""
    rotations = tuple(gate for gate, _ in key[1] if gate in ROTATIONS)
    return Group(_network_plan(*key), rows, index, rotations)


def _amplitudes(c: Circuit, ps: ParameterStore, postselect: tuple[int, ...],
                legs: tuple[int, ...]) -> np.ndarray:
    """The contracted network of c, one axis per qubit of ``legs``."""
    angles = _angles(c, ps)
    group = _group((*_structure(c), postselect, legs), np.zeros(1, np.intp),
                   np.arange(len(angles))[None])
    return contract_batch(group, angles)[0]


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


_I2 = np.eye(2, dtype=complex)
_TRACE = _I2.real.ravel()  # the identity as a vector over (ket, bra)
for _shared in (_I2, _TRACE):
    _shared.setflags(write=False)


def _matrices(c: Circuit, angles: np.ndarray) -> list[np.ndarray]:
    """Per op of c, its 2x2 matrix, or 4x4 with its first qubit the high bit
    of the row and column index."""
    thetas = iter(angles)
    return [GATE_TENSORS[op.gate](
        next(thetas) if op.gate in ROTATIONS else None).reshape(
            2 ** len(op.qubits), -1) for op in c.ops]


def _density(c: Circuit, angles: np.ndarray, noise_p: float) -> np.ndarray:
    """_outcomes, from the density matrix of the live qubits
    (see the module docstring). Axis labels: ("k", q) and ("b", q) are the
    ket and bra of live qubit q, ("x", q) the outcome of open qubit q."""
    lam = 4.0 * noise_p / 3.0
    # rho -> (1 - lam) rho + lam I/2 Tr rho, over one qubit's (ket, bra)
    depolarise = (1.0 - lam) * np.eye(4) + lam / 2.0 * np.outer(_TRACE,
                                                                _TRACE)
    noise = np.kron(depolarise, depolarise)  # over (ka, ba, kb, bb)
    last = {q: i for i, op in enumerate(c.ops) for q in op.qubits}
    pending = dict.fromkeys(range(c.n_qubits), _I2)
    rho, axes = np.ones((), dtype=complex), []

    def finish(q: int) -> None:
        nonlocal rho, axes
        u = pending.pop(q)
        if ("k", q) not in axes:
            w = np.abs(u[:, 0]) ** 2
            if q in c.postselect:
                rho = rho * w[0]
            else:
                rho, axes = np.multiply.outer(w, rho), [("x", q)] + axes
            return
        pair = [axes.index(("k", q)), axes.index(("b", q))]
        if q in c.postselect:
            rho = np.tensordot(np.outer(u[0], u[0].conj()), rho,
                               axes=([0, 1], pair))
            new = []
        else:  # out[x] = sum over k, b of u[x, k] rho[k, b] u*[x, b]
            rho = np.tensordot(u[:, :, None] * u.conj()[:, None, :], rho,
                               axes=([1, 2], pair))
            new = [("x", q)]
        axes = new + [a for a in axes if a not in (("k", q), ("b", q))]

    for i, (op, u) in enumerate(zip(c.ops, _matrices(c, angles))):
        if len(op.qubits) == 1:
            pending[op.qubits[0]] = u @ pending[op.qubits[0]]
        else:
            for q in op.qubits:
                if ("k", q) not in axes:
                    v = pending[q][:, 0]
                    rho = np.multiply.outer(np.outer(v, v.conj()), rho)
                    axes = [("k", q), ("b", q)] + axes
                    pending[q] = _I2
            a, b = op.qubits
            both = pending[a][:, None, :, None] * pending[b][None, :, None, :]
            g = (u @ both.reshape(4, 4)).reshape(2, 2, 2, 2)
            # sup[ka, ba, kb, bb, ka', ba', kb', bb'] = g[ka, kb, ka', kb']
            # g*[ba, bb, ba', bb']
            sup = (g[:, None, :, None, :, None, :, None]
                   * g.conj()[None, :, None, :, None, :, None, :])
            sup = (noise @ sup.reshape(16, 16)).reshape((2,) * 8)
            ket_bra = [("k", a), ("b", a), ("k", b), ("b", b)]
            rho = np.tensordot(sup, rho, axes=(
                [4, 5, 6, 7], [axes.index(label) for label in ket_bra]))
            axes = ket_bra + [x for x in axes if x not in ket_bra]
            pending[a] = pending[b] = _I2
        for q in op.qubits:
            if last[q] == i and (("k", q) in axes or q in c.postselect):
                finish(q)
    for q in list(pending):
        finish(q)
    return rho.transpose([axes.index(("x", q)) for q in c.open]).real.ravel()


def _outcomes(c: Circuit, ps: ParameterStore, noise_p: float) -> np.ndarray:
    """Probability that one shot passes postselection and reads open
    bitstring j, for each j read as a binary number with c.open[0] the most
    significant bit."""
    return _density(c, _angles(c, ps), noise_p)


def sample(c: Circuit, ps: ParameterStore, n_shots: int, seed: int,
           noise_p: float = 0.0) -> dict[str, int]:
    """Counts over open-qubit bitstrings; deterministic given seed.

    Each shot either passes postselection and reads an open bitstring or is
    discarded. Shots are independent, so all counts come from one
    multinomial over (discarded, each open bitstring) with the exact
    probabilities of one shot, which come from the density matrix under the
    channel-averaged Pauli noise (see the module docstring). Rounding
    negatives are clipped to 0 before the draw.
    """
    if n_shots < 1:
        raise ValueError("n_shots must be at least 1")
    if not 0.0 <= noise_p <= 1.0:
        raise ValueError(f"noise_p must lie in [0, 1], got {noise_p!r}")
    kept = np.clip(_outcomes(c, ps, noise_p), 0.0, None)
    drawn = np.random.default_rng(seed).multinomial(
        n_shots, np.r_[max(0.0, 1.0 - kept.sum()), kept])[1:]
    if not drawn.any():
        raise AllShotsDiscarded(f"all {n_shots} shots violated postselection")
    return {_key(j, len(c.open)): int(drawn[j]) for j in np.flatnonzero(drawn)}
