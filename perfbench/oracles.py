"""Reference computations and the checks that compare synq's outputs to them.

Each oracle recomputes a sentence's probability of label 1 by a method that
shares no code with synq: pairwise ``np.tensordot`` in node order for
tensor networks (``np.einsum`` runs out of index labels on long sentences),
a dense Kronecker-product statevector for exact circuits, and a density
matrix with the Pauli channel for noisy sampling. Each check returns the
list of sentences that disagree, so a test can feed it a perturbed value.
"""
from __future__ import annotations

import math

import numpy as np

from synq.ansatz import Circuit, Symbol, TensorNetwork

TENSOR_TOL = 1e-9
EXACT_TOL = 1e-12
LOSS_TOL = 1e-8
SIGMAS = 5.0
CLAMP = 1e-9
ZERO_NORM = 1e-12  # postselection probability below which synq falls back
# A fallback to 0.5 after sampling is plausible only when few shots were
# expected to survive postselection: P(all discarded) = (1-q)^n >= e^-20.
FALLBACK_MAX_EXPECTED_KEPT = 20.0

_I2 = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_P0 = np.diag([1.0, 0.0]).astype(complex)
_P1 = np.diag([0.0, 1.0]).astype(complex)


# ---------------------------------------------------------------------------
# Tensor networks.
# ---------------------------------------------------------------------------


def _node_tensor(node, store) -> np.ndarray:
    if node.kind == "param":
        return np.asarray(store[node.symbol.name], dtype=float)
    if node.kind == "delta":
        return np.eye(node.shape[0])
    out = np.zeros(node.shape)
    if node.shape:
        out[tuple(np.arange(node.shape[0]) for _ in node.shape)] = 1.0
    else:
        out = np.asarray(1.0)
    return out


def network_value(tn: TensorNetwork, store) -> np.ndarray:
    """Contract the nodes one at a time, in node order, over the open legs."""
    partner = {}
    for a, b in tn.edges:
        partner[a], partner[b] = b, a
    acc, legs = np.asarray(1.0), []
    for node in tn.nodes:
        own = [(node.node_id, i) for i in range(len(node.shape))]
        ax_own = [i for i, l in enumerate(own) if partner.get(l) in legs]
        ax_acc = [legs.index(partner[own[i]]) for i in ax_own]
        acc = np.tensordot(acc, _node_tensor(node, store),
                           axes=(ax_acc, ax_own))
        legs = ([l for i, l in enumerate(legs) if i not in ax_acc]
                + [l for i, l in enumerate(own) if i not in ax_own])
        # an edge joining two legs of the node just added is a trace
        while True:
            pair = next(((i, legs.index(partner[l])) for i, l in
                         enumerate(legs) if partner.get(l) in legs), None)
            if pair is None:
                break
            acc = np.trace(acc, axis1=pair[0], axis2=pair[1])
            legs = [l for k, l in enumerate(legs) if k not in pair]
    return np.transpose(acc, [legs.index(l) for l in tn.open_legs])


def tensor_p1(tn: TensorNetwork, store) -> float:
    v = network_value(tn, store)
    denom = float(v[0] ** 2 + v[1] ** 2)
    return 0.5 if denom < 1e-300 else float(v[1] ** 2) / denom


# ---------------------------------------------------------------------------
# Circuits.
# ---------------------------------------------------------------------------


def _angle(op, store) -> float:
    return float(store[op.param.name] if isinstance(op.param, Symbol)
                 else op.param)


def _gate(op, store) -> tuple[np.ndarray, bool]:
    """(matrix on the target qubit, whether qubits[0] controls it)."""
    if op.gate == "H":
        return np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2), False
    if op.gate == "CX":
        return _X, True
    t = _angle(op, store)
    if op.gate == "Rx":
        return math.cos(t / 2) * _I2 - 1j * math.sin(t / 2) * _X, False
    if op.gate in ("Rz", "CRz"):
        return np.diag([np.exp(-0.5j * t), np.exp(0.5j * t)]), op.gate == "CRz"
    raise ValueError(f"unknown gate {op.gate!r}")


def _kron_on(n: int, factors: dict) -> np.ndarray:
    """Kronecker product over qubits n-1..0 (qubit 0 least significant),
    with runs of untouched qubits folded into one identity block."""
    out, run = np.eye(1), 0
    for q in reversed(range(n)):
        if q in factors:
            out = np.kron(np.kron(out, np.eye(2 ** run)), factors[q])
            run = 0
        else:
            run += 1
    return np.kron(out, np.eye(2 ** run))


def gate_matrix(op, n: int, store) -> np.ndarray:
    """The full 2^n x 2^n matrix of one gate."""
    mat, controlled = _gate(op, store)
    if not controlled:
        return _kron_on(n, {op.qubits[0]: mat})
    c, t = op.qubits
    return _kron_on(n, {c: _P0}) + _kron_on(n, {c: _P1, t: mat})


def _postselected(c: Circuit, probs: np.ndarray) -> tuple[float, float]:
    """(P(postselection holds), P(open qubit reads 1 | it holds))."""
    basis = np.arange(2 ** c.n_qubits)
    keep = np.ones(basis.shape, dtype=bool)
    for q in c.postselect:
        keep &= (basis >> q) & 1 == 0
    ones = keep & ((basis >> c.open[0]) & 1 == 1)
    kept = float(probs[keep].sum())
    return kept, (float(probs[ones].sum()) / kept if kept > 0 else 0.5)


def circuit_exact(c: Circuit, store) -> tuple[float, float]:
    """(postselection probability, p1) from a dense statevector."""
    state = np.zeros(2 ** c.n_qubits, dtype=complex)
    state[0] = 1.0
    for op in c.ops:
        state = gate_matrix(op, c.n_qubits, store) @ state
    return _postselected(c, np.abs(state) ** 2)


def _on_axes(rho: np.ndarray, mat: np.ndarray, axis: int) -> np.ndarray:
    return np.moveaxis(np.tensordot(mat, rho, axes=([1], [axis])), 0, axis)


def _pauli_channel(rho: np.ndarray, r: int, c: int, p: float) -> np.ndarray:
    """(1-p) rho + (p/3)(X rho X + Y rho Y + Z rho Z) on one qubit's row
    axis r and column axis c. In that qubit's 2x2 block, X.X + Y.Y + Z.Z
    maps a diagonal entry to itself plus twice the opposite diagonal entry
    and an off-diagonal entry to minus itself."""
    rho = np.moveaxis(rho, (r, c), (0, 1))
    out = np.empty_like(rho)
    out[0, 0] = (1 - 2 * p / 3) * rho[0, 0] + (2 * p / 3) * rho[1, 1]
    out[1, 1] = (1 - 2 * p / 3) * rho[1, 1] + (2 * p / 3) * rho[0, 0]
    out[0, 1] = (1 - 4 * p / 3) * rho[0, 1]
    out[1, 0] = (1 - 4 * p / 3) * rho[1, 0]
    return np.moveaxis(out, (0, 1), (r, c))


def circuit_noisy(c: Circuit, store, noise_p: float) -> tuple[float, float]:
    """(postselection probability, p1) of the density matrix where each
    qubit a two-qubit gate touches then suffers X, Y or Z, each with
    probability noise_p / 3."""
    n = c.n_qubits
    rho = np.zeros((2,) * (2 * n), dtype=complex)
    rho[(0,) * (2 * n)] = 1.0

    def row(q):  # row axes come first, most significant qubit first
        return n - 1 - q

    def apply(rho, mat, q):
        rho = _on_axes(rho, mat, row(q))
        return _on_axes(rho, mat.conj(), n + row(q))

    for op in c.ops:
        mat, controlled = _gate(op, store)
        if not controlled:
            rho = apply(rho, mat, op.qubits[0])
            continue
        full = np.zeros((2, 2, 2, 2), dtype=complex)  # out_c out_t in_c in_t
        full[0, :, 0, :] = _I2
        full[1, :, 1, :] = mat
        ca, ta = row(op.qubits[0]), row(op.qubits[1])
        rho = np.moveaxis(np.tensordot(full, rho, axes=([2, 3], [ca, ta])),
                          [0, 1], [ca, ta])
        rho = np.moveaxis(np.tensordot(full.conj(), rho,
                                       axes=([2, 3], [n + ca, n + ta])),
                          [0, 1], [n + ca, n + ta])
        for q in op.qubits:
            rho = _pauli_channel(rho, row(q), n + row(q), noise_p)
    diag = np.real(np.einsum("ii->i", rho.reshape(2 ** n, 2 ** n)))
    return _postselected(c, diag)


# ---------------------------------------------------------------------------
# Checks. Each returns the failures as (item, message) pairs.
# ---------------------------------------------------------------------------


def check_close(predicted: dict, reference: dict, tol: float) -> list:
    """|predicted - reference| <= tol for every item."""
    return [(i, f"p1 {predicted[i]!r} vs oracle {reference[i]!r}")
            for i in reference if not abs(predicted[i] - reference[i]) <= tol]


def check_sampled(predicted: dict, kept: dict, reference: dict,
                  n_shots: int) -> list:
    """Each sampled p1 lies within SIGMAS binomial standard deviations of
    the oracle's, over its kept shots; reference maps item to
    (postselection probability, p1)."""
    bad = []
    for i, (p_post, p1) in reference.items():
        if kept[i] == 0:
            if predicted[i] != 0.5 or p_post * n_shots > \
                    FALLBACK_MAX_EXPECTED_KEPT:
                bad.append((i, f"fallback with {p_post * n_shots:.1f} "
                               "expected kept shots"))
            continue
        sigma = math.sqrt(p1 * (1.0 - p1) / kept[i])
        # one shot of slack keeps p1 near 0 or 1 from failing on one count
        if abs(predicted[i] - p1) > SIGMAS * sigma + 1.0 / kept[i]:
            bad.append((i, f"p1 {predicted[i]!r} vs oracle {p1!r}, "
                           f"sigma {sigma:.3g} over {kept[i]} shots"))
    return bad


def split_scores(p1s: list, labels: list) -> tuple[float, float]:
    """(mean binary cross-entropy, accuracy) of one split."""
    losses = []
    for p, y in zip(p1s, labels):
        p = min(max(p, CLAMP), 1.0 - CLAMP)
        losses.append(-(y * math.log(p) + (1 - y) * math.log(1.0 - p)))
    hits = sum((p >= 0.5) == bool(y) for p, y in zip(p1s, labels))
    return float(np.mean(losses)), hits / len(labels)


def check_scores(reported: tuple, p1s: list, labels: list,
                 tol: float = LOSS_TOL) -> list:
    """Reported (loss, accuracy) equal the scores of the given p1s."""
    loss, acc = split_scores(p1s, labels)
    if abs(reported[0] - loss) <= tol and reported[1] == acc:
        return []
    return [("split", f"reported {reported} vs recomputed {(loss, acc)}")]
