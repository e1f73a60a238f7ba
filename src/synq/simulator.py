"""Statevector simulation with postselection, shot sampling and noise.

Conventions, fixed project-wide: qubit 0 is the least significant bit of a
basis index; H = (1/sqrt 2)[[1,1],[1,-1]]; Rx(t) = exp(-i t X / 2);
Rz(t) = exp(-i t Z / 2); CRz(t) = diag(1, 1, e^{-it/2}, e^{it/2}) over the
(control, target) pair; CX is the standard controlled flip.

One gate kernel, ``_apply``, acts on a batch of statevectors of shape
(b, 2**n) with one angle per row: CX is a fixed index permutation, Rz and
CRz are diagonal phases chosen by precomputed bit patterns, and H and Rx a
two-point butterfly over the gate qubit. ``statevector`` and ``evaluate``
run it as a batch of one, and ``_density`` reads its gate matrices off
it. ``plan_circuits`` groups circuits by structure (gates and their
qubits, postselected and open qubits); ``plan_p1`` then evaluates each
group in one pass, reading each row's angles from the flat parameter
vector.

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

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .ansatz import Circuit, Op, Symbol
from .params import ParameterStore, UnboundSymbol

ZERO_NORM_THRESHOLD = 1e-12
_ROTATIONS = ("Rx", "Rz", "CRz")


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


@lru_cache(maxsize=None)
def _bits(n: int) -> np.ndarray:
    """bits[q, i] is bit q of basis index i (read-only: it is shared)."""
    bits = (np.arange(2 ** n) >> np.arange(n)[:, None]) & 1
    bits.setflags(write=False)
    return bits


@lru_cache(maxsize=None)
def _index(n: int, gate: str, qubits: tuple[int, ...]) -> np.ndarray:
    """CX: the permuted basis order. Rz, CRz: per basis state 0, 1 or 2 for
    the phase e^{-it/2}, 1 or e^{it/2}. Read-only: it is shared."""
    bits = _bits(n)
    if gate == "CX":
        index = np.arange(2 ** n) ^ (bits[qubits[0]] << qubits[1])
    else:
        control = bits[qubits[0]] if gate == "CRz" else 1
        index = 1 + control * (2 * bits[qubits[-1]] - 1)
    index.setflags(write=False)
    return index


def _apply(states: np.ndarray, op: Op, theta=None) -> np.ndarray:
    """One gate on every row of ``states`` (b, 2**n); theta has one angle
    per row (or one for all rows) for Rx, Rz and CRz."""
    n = states.shape[1].bit_length() - 1
    if op.gate in ("CX", "Rz", "CRz"):
        index = _index(n, op.gate, op.qubits)
        if op.gate == "CX":
            return states[:, index]
        half = np.exp(0.5j * np.asarray(theta))[:, None]
        return states * np.hstack((half.conj(), np.ones_like(half), half))[
            :, index]
    if op.gate == "H":
        m00 = m01 = m10 = np.sqrt(0.5)
        m11 = -m00
    elif op.gate == "Rx":
        half = np.asarray(theta)[:, None, None] / 2
        m00 = m11 = np.cos(half)
        m01 = m10 = -1j * np.sin(half)
    else:
        raise ValueError(f"unknown gate {op.gate!r}")
    v = states.reshape(len(states), -1, 2, 1 << op.qubits[0])
    out = np.empty_like(v)
    out[:, :, 0] = m00 * v[:, :, 0] + m01 * v[:, :, 1]
    out[:, :, 1] = m10 * v[:, :, 0] + m11 * v[:, :, 1]
    return out.reshape(len(states), -1)


def _evolve(c: Circuit, angles: np.ndarray, rows: int) -> np.ndarray:
    """``rows`` statevectors after c's gates on |0...0>; angles holds, per
    row (or one row for all), the angle of each rotation gate in gate
    order."""
    states = np.zeros((rows, 2 ** c.n_qubits), dtype=complex)
    states[:, 0] = 1.0
    k = 0
    for op in c.ops:
        rotation = op.gate in _ROTATIONS
        states = _apply(states, op, angles[:, k] if rotation else None)
        k += rotation
    return states


def _angles(c: Circuit, ps: ParameterStore) -> np.ndarray:
    return np.array([[_angle(op, ps) for op in c.ops
                      if op.gate in _ROTATIONS]])


def statevector(c: Circuit, ps: ParameterStore) -> np.ndarray:
    """State after all gates on |0...0>, before any postselection."""
    return _evolve(c, _angles(c, ps), 1)[0]


def _by_open(c: Circuit, weights: np.ndarray) -> dict:
    """Weight of each basis state whose postselected qubits read 0, keyed
    by its open-qubit bitstring (character i is the bit of c.open[i])."""
    bits = _bits(c.n_qubits)
    passed = np.flatnonzero(~bits[list(c.postselect)].any(axis=0))
    return {"".join(str(bits[q, b]) for q in c.open): weights[b]
            for b in passed}


def evaluate(c: Circuit, ps: ParameterStore) -> dict[str, float]:
    """Probability of each open-qubit bitstring after postselection.

    Keys are bitstrings with character i giving the bit of c.open[i].
    """
    probs = _by_open(c, np.abs(statevector(c, ps)) ** 2)
    total = float(sum(probs.values()))
    if total < ZERO_NORM_THRESHOLD:
        raise ZeroNorm(f"postselection probability {total:.3e}")
    return {key: float(p / total) for key, p in probs.items()}


@dataclass(frozen=True)
class CircuitPlan:
    """One-open-qubit circuits grouped by structure.

    Each group is (circuit, rows, offsets): a representative circuit, the
    positions of its circuits in the planned sequence, and per row the
    offset of each rotation angle in the flat parameter vector."""
    groups: tuple[tuple[Circuit, np.ndarray, np.ndarray], ...]
    count: int


def plan_circuits(circuits: Sequence[Circuit],
                  store: ParameterStore) -> CircuitPlan:
    """Group circuits by structure against the layout of ``store``."""
    offsets = {name: offset for name, shape, offset in store.layout
               if shape == ()}
    groups: dict[tuple, tuple[Circuit, list, list]] = {}
    for row, c in enumerate(circuits):
        params = [op.param for op in c.ops if op.gate in _ROTATIONS]
        if len(c.open) != 1 or not all(isinstance(p, Symbol)
                                       for p in params):
            raise ValueError(f"circuit {row}: a planned circuit needs one "
                             "open qubit and symbols for its angles")
        try:
            idx = [offsets[p.name] for p in params]
        except KeyError as exc:
            raise UnboundSymbol(f"no scalar angle bound for {exc}") from None
        key = (c.n_qubits, tuple((op.gate, op.qubits) for op in c.ops),
               c.postselect, c.open)
        group = groups.setdefault(key, (c, [], []))
        group[1].append(row)
        group[2].append(idx)
    return CircuitPlan(
        tuple((c, np.array(rows), np.array(idx, dtype=np.intp))
              for c, rows, idx in groups.values()), len(circuits))


def plan_p1(plan: CircuitPlan, vec: np.ndarray,
            rows: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Probability of reading 1 on the open qubit after postselection, and
    the postselection probability, of the planned circuits at ``rows``
    under the flat parameter vector ``vec``; one pass per group. Rows with
    a norm below ZERO_NORM_THRESHOLD get an arbitrary p1."""
    wanted = np.zeros(plan.count, dtype=bool)
    wanted[list(rows)] = True
    p1, norm = np.zeros(plan.count), np.zeros(plan.count)
    for c, members, idx in plan.groups:
        keep = wanted[members]
        if keep.any():
            members, idx = members[keep], idx[keep]
            probs = np.abs(_evolve(c, vec[idx], len(members))[
                :, [0, 1 << c.open[0]]]) ** 2
            norm[members] = probs.sum(axis=1)
            p1[members] = probs[:, 1] / np.maximum(norm[members],
                                                   np.finfo(float).tiny)
    return p1[list(rows)], norm[list(rows)]


_I2 = np.eye(2, dtype=complex)
_TRACE = _I2.real.ravel()  # the identity as a vector over (ket, bra)
for _shared in (_I2, _TRACE):
    _shared.setflags(write=False)


def _matrices(c: Circuit, angles: np.ndarray) -> list[np.ndarray]:
    """Per op of c, its 2x2 matrix, or 4x4 with its first qubit the high bit
    of the row and column index. Read off ``_apply`` on the basis states,
    one call per gate kind: row i of its output is U e_i."""
    thetas = iter(angles)
    theta = [next(thetas) if op.gate in _ROTATIONS else 0.0 for op in c.ops]
    out = [None] * len(c.ops)
    for gate in dict.fromkeys(op.gate for op in c.ops):
        at = [i for i, op in enumerate(c.ops) if op.gate == gate]
        dim = 4 if len(c.ops[at[0]].qubits) == 2 else 2
        basis = np.tile(np.eye(dim, dtype=complex), (len(at), 1))
        mats = _apply(basis, Op(gate, (1, 0) if dim == 4 else (0,)),
                      np.repeat([theta[i] for i in at], dim))
        for i, m in zip(at, mats.reshape(-1, dim, dim)):
            out[i] = m.T
    return out


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
    return _density(c, _angles(c, ps)[0], noise_p)


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
    k = len(c.open)
    return {format(j, f"0{k}b") if k else "": int(drawn[j])
            for j in np.flatnonzero(drawn)}
