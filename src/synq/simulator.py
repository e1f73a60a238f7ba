"""Statevector simulation with postselection, shot sampling and noise.

Conventions, fixed project-wide: qubit 0 is the least significant bit of a
basis index; H = (1/sqrt 2)[[1,1],[1,-1]]; Rx(t) = exp(-i t X / 2);
Rz(t) = exp(-i t Z / 2); CRz(t) = diag(1, 1, e^{-it/2}, e^{it/2}) over the
(control, target) pair; CX is the standard controlled flip.

One gate kernel, ``_apply``, acts on a batch of statevectors of shape
(b, 2**n) with one angle per row: CX is a fixed index permutation, Rz and
CRz are diagonal phases chosen by precomputed bit patterns, and H and Rx a
two-point butterfly over the gate qubit. ``statevector`` and ``evaluate``
run it as a batch of one, ``sample`` with one row per noise pattern.
``plan_circuits`` groups circuits by structure (gates and their qubits,
postselected and open qubits); ``plan_p1`` then evaluates each group in one
pass, reading each row's angles from the flat parameter vector.

The noise model is a Monte Carlo Pauli twirl: per shot, after every
two-qubit gate, each touched qubit independently suffers a uniformly random
Pauli with probability p. Shots sharing an insertion pattern share one
simulated row, and with p = 0 the path is bit-identical to noiseless
sampling.
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


def _pauli(states: np.ndarray, q: int, code: np.ndarray) -> None:
    """Insert, in place, Pauli ``code`` (0 none, 1 X, 2 Y, 3 Z) on qubit q
    of each row; Y = iXZ."""
    bit = _bits(states.shape[1].bit_length() - 1)[q]
    z, x, y = code >= 2, (code == 1) | (code == 2), code == 2
    states[z] *= 1 - 2 * bit
    states[x] = states[x][:, np.arange(len(bit)) ^ (1 << q)]
    states[y] *= 1j


def _evolve(c: Circuit, angles: np.ndarray, rows: int,
            inserts: dict | None = None,
            forks: np.ndarray | None = None) -> np.ndarray:
    """``rows`` statevectors after c's gates on |0...0>.

    angles holds, per row (or one row for all), the angle of each rotation
    gate in gate order; inserts maps a gate index to the (qubit, Pauli
    codes) inserted after that gate. With ``forks`` (ascending, from -1),
    row r copies row 0 up to gate forks[r], so it is simulated only from
    where it can differ from row 0."""
    states = np.zeros((rows, 2 ** c.n_qubits), dtype=complex)
    states[:, 0] = 1.0
    live, k = (rows if forks is None else 1), 0
    for i, op in enumerate(c.ops):
        rotation = op.gate in _ROTATIONS
        theta = angles[:live, k] if rotation else None
        states[:live], k = _apply(states[:live], op, theta), k + rotation
        if forks is not None:
            forked = np.searchsorted(forks, i, side="right")
            states[live:forked] = states[0]
            live = forked
        for q, code in (inserts or {}).get(i, ()):
            _pauli(states[:live], q, code[:live])
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


def sample(c: Circuit, ps: ParameterStore, n_shots: int, seed: int,
           noise_p: float = 0.0) -> dict[str, int]:
    """Counts over open-qubit bitstrings; deterministic given seed.

    Shots draw from the full-basis distribution and any shot whose
    postselected qubits read nonzero is discarded. With noise_p > 0, each
    shot first samples Pauli insertions after every two-qubit gate (one
    chance per touched qubit); shots sharing an insertion pattern share one
    simulated row. The noise-free pattern draws its counts first, then the
    others in the order of their first shot. noise_p = 0 takes exactly the
    noiseless path.
    """
    if n_shots < 1:
        raise ValueError("n_shots must be at least 1")
    rng = np.random.default_rng(seed)
    sites = [(i, q) for i, op in enumerate(c.ops) if len(op.qubits) == 2
             for q in op.qubits]
    shots, inserts, forks, draw = np.array([n_shots]), {}, None, [0]
    if noise_p > 0.0 and sites:
        hits = rng.random((n_shots, len(sites))) < noise_p
        paulis = rng.integers(0, 3, size=(n_shots, len(sites)))
        # one row per distinct pattern, after an added clean pattern that
        # makes the clean row exist even when no shot is clean
        codes = np.vstack((np.zeros(len(sites), dtype=int),
                           np.where(hits, paulis + 1, 0)))
        by_code = np.lexsort(codes.T)  # stable: equal rows keep shot order
        codes = codes[by_code]
        start = np.flatnonzero(np.r_[True, (codes[1:] != codes[:-1]).any(1)])
        shots, codes = np.diff(np.r_[start, n_shots + 1]), codes[start]
        shots[0] -= 1  # the added clean pattern
        # a row forks off the clean row 0 at its first insertion; counts
        # are drawn for the clean row, then by each pattern's first shot
        gates = np.array([i for i, _ in sites])
        forks = np.where(codes.any(axis=1),
                         gates[np.argmax(codes != 0, axis=1)], -1)
        rows = np.argsort(forks, kind="stable")
        codes, shots, forks = codes[rows], shots[rows], forks[rows]
        draw = np.argsort(by_code[start][rows])
        draw = draw[shots[draw] > 0]
        for j, (i, q) in enumerate(sites):
            inserts.setdefault(i, []).append((q, codes[:, j]))
    states = _evolve(c, _angles(c, ps), len(shots), inserts, forks)[draw]
    probs = np.abs(states) ** 2
    counts_vec = rng.multinomial(
        shots[draw], probs / probs.sum(axis=1, keepdims=True)).sum(axis=0)

    counts = {key: int(n) for key, n in _by_open(c, counts_vec).items() if n}
    if not counts:
        raise AllShotsDiscarded(f"all {n_shots} shots violated postselection")
    return counts
