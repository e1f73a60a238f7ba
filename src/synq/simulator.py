"""Circuit evaluation: exact, by tensor contraction, and sampled with noise.

The gates are those of ``ansatz.GATE_TENSORS``, and qubit 0 is the least
significant bit of a basis index of ``statevector``.

An exact circuit is a tensor network, contracted by ``contract``'s planner
like every tensor model: a |0> leaf per qubit, a (2, 2) or (2, 2, 2, 2)
node per gate, a <0| leaf per postselected qubit and the open qubits as
open legs. ``_circuit`` builds the structure that ``contract.plan`` reads,
the rotations as parameter leaves of their gate's kind and every other node
as its fixed tensor, built once here; ``_circuit_plan`` plans each circuit
structure once, keyed by ``c.structure`` (recorded when the ``Circuit`` is
built) and the postselected and open qubits. ``plan_circuits`` groups
circuits by that key with ``contract.plan_rows`` into a ``NetworkPlan``
whose rows gather their angles from the flat vector. A lone circuit
(``statevector``, ``evaluate``, ``sample``) replays its key's plan on its
own angles, one kernel call per rotation kind (``_lone_value``). Every
fixed leaf of a circuit plan is complex,
like the rotation tensors, so the plan runs in one dtype.

The noise model: after every two-qubit gate, each touched qubit suffers X,
Y or Z, each with probability p / 3. Shots are independent, so ``sample``
computes the exact distribution of one shot under the channel-averaged
map and draws all counts from it with one multinomial over (discarded,
each open bitstring). Averaged over the Paulis, the noise on one qubit is
the depolarising channel rho -> (1 - l) rho + l I/2 (x) Tr_q rho with
l = 4p/3, valid for every p in [0, 1]. The distribution is the value of
the circuit's superoperator network, the doubled circuit of DisCoPy's mixed
circuits (arXiv:2005.02975) with each ket wire fused to its bra wire,
contracted by the same planner; ``_circuit_plan`` plans it once per
structure and noise level, which it alone checks (``InvalidNoise``);
``plan_circuits`` and ``_lone_value`` run it given a noise level, and
``draw`` takes the one multinomial of ``sample`` and of a planned row.
Each qubit is one wire of dimension 4, the pair (ket, bra), ket index
first, starting at |0><0|, a (4,) leaf.
Each gate is one node, its superoperator U (x) conj(U)
(``ansatz.SUPEROPERATORS``), each ket leg paired with its bra leg: fixed
for H and CX, and for a rotation one parameter leaf built from its angle.
After each two-qubit gate, each touched qubit passes a (4, 4) node over
(out, in) whose value at ((ko, bo), (ki, bi)) is
(1 - l) d(ko, ki) d(bo, bi) + l/2 d(ko, bo) d(ki, bi), with d the Kronecker
delta. A postselected qubit ends in <00|, and an open qubit in a (4, 2)
read-out of its diagonal, 1 at ((x, x), x), whose outcome leg is open.
With p = 0 the channel is the identity and the distribution is the
noiseless one.
"""
from __future__ import annotations

from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .ansatz import DOUBLED, GATE_TENSORS, ROTATIONS, SUPEROPERATORS, \
    Circuit, Op, Symbol
from .contract import KERNELS, NetworkPlan, Plan, ShapeMismatch, \
    contract_one, plan, plan_rows
from .params import ParameterStore, UnboundSymbol

ZERO_NORM_THRESHOLD = 1e-12
MAX_SHOTS = 2 ** 63 - 1  # the largest count numpy's multinomial draws


# The fixed leaves of circuit networks, complex like the rotation tensors
# and shared by every plan, which holds them read-only: by wire dimension,
# |0> or <0| (2) and |0><0| or <00| (4); H and CX and their superoperators;
# and the (4, 2) read-out of a qubit's diagonal, 1 at (k * 2 + b, x) iff
# k = b = x.
_ZERO = {d: np.asarray(np.eye(d)[0], complex) for d in (2, 4)}
_GATES = {kind: np.asarray(kernel(None), complex)
          for gate in GATE_TENSORS if gate not in ROTATIONS
          for kind, kernel in ((gate, GATE_TENSORS[gate]),
                               (DOUBLED[gate], SUPEROPERATORS[DOUBLED[gate]]))}
_READ_OUT = np.asarray(np.eye(4)[:, ::3], complex)


class ZeroNorm(Exception):
    """Postselection probability below threshold; parameters degenerate."""


class AllShotsDiscarded(Exception):
    """Every sampled shot violated the postselection condition."""


class NonFiniteAngle(ValueError):
    """A rotation's angle is nan or infinite."""


class InvalidNoise(ValueError):
    """A noise level outside [0, 1], or nan."""


class UnplannableCircuit(ValueError):
    """A circuit that plan_circuits cannot batch."""


def _angle(op: Op, ps: ParameterStore) -> float:
    if isinstance(op.param, Symbol):
        value = np.asarray(ps[op.param.name])
        if value.shape != ():
            raise ShapeMismatch(f"{op.param.name}: stored {value.shape}, "
                                "plan wants ()")
        return float(value)
    if op.param is None:
        raise UnboundSymbol(f"gate {op.gate} needs an angle")
    return float(op.param)


def angles(c: Circuit, ps: ParameterStore) -> np.ndarray:
    """The angle of each rotation of c, in op order, every one finite."""
    theta = np.array([_angle(op, ps) for op in c.ops if op.gate in ROTATIONS])
    if not np.isfinite(theta).all():
        k = int(np.flatnonzero(~np.isfinite(theta))[0])
        op = [op for op in c.ops if op.gate in ROTATIONS][k]
        what = (f"symbol {op.param.name!r}" if isinstance(op.param, Symbol)
                else f"{op.gate} on qubits {op.qubits}")
        raise NonFiniteAngle(f"{what} has the angle {float(theta[k])!r}")
    return theta


def _circuit(n_qubits: int, gates: tuple[tuple[str, tuple], ...],
             postselect: tuple[int, ...], legs: tuple[int, ...],
             channel: Optional[np.ndarray]) -> tuple:
    """The structure (nodes, edges, open legs) of a circuit: a |0> leaf per
    qubit, a node per gate (output legs, then input legs), a <0| leaf per
    qubit of ``postselect`` and the qubits ``legs`` as the open legs, in
    order. A rotation is a parameter leaf (kind, shape), of its gate's kind.
    With a ``channel``, the superoperator network: wires of dimension 4,
    DOUBLED[gate] for each gate, the channel on each qubit after each
    two-qubit gate, and a read-out per qubit of ``legs``, whose outcome
    legs are open."""
    dim = 2 if channel is None else 4
    nodes, edges = [_ZERO[dim]] * n_qubits, []
    wire = {q: (q, 0) for q in range(n_qubits)}
    for gate, qubits in gates:
        kind = gate if channel is None else DOUBLED[gate]
        laid = [((kind, (dim,) * 2 * len(qubits)) if gate in ROTATIONS
                 else _GATES[kind], qubits)]
        if channel is not None and len(qubits) == 2:
            laid += [(channel, (q,)) for q in qubits]
        for node, on in laid:  # its inputs join the qubits' open ends,
            for j, q in enumerate(on):  # which move to its outputs
                edges.append((wire[q], (len(nodes), len(on) + j)))
                wire[q] = (len(nodes), j)
            nodes.append(node)
    for q in postselect:
        edges.append((wire[q], (len(nodes), 0)))
        nodes.append(_ZERO[dim])
    for q in legs if channel is not None else ():
        edges.append((wire[q], (len(nodes), 0)))
        wire[q] = (len(nodes), 1)
        nodes.append(_READ_OUT)
    return tuple(nodes), tuple(edges), tuple(wire[q] for q in legs)


@lru_cache(maxsize=1024)  # bounded: a long run may meet many structures
def _circuit_plan(n_qubits: int, gates: tuple[tuple[str, tuple], ...],
                  postselect: tuple[int, ...], legs: tuple[int, ...],
                  noise_p: Optional[float] = None) -> Plan:
    """The planned contraction of a circuit structure (``_circuit``), the
    rotations its parameter leaves in gate order; with ``noise_p`` in
    [0, 1], of its superoperator network (see the module docstring)."""
    channel = None
    if noise_p is not None:
        if not 0.0 <= noise_p <= 1.0:
            raise InvalidNoise(f"noise_p must lie in [0, 1], got {noise_p!r}")
        lam, pairs = 4.0 * noise_p / 3.0, np.eye(2).ravel()  # pairs: k = b
        channel = ((1.0 - lam) * np.eye(4) + lam / 2.0 * np.outer(
            pairs, pairs)).astype(complex)  # in the plan's one dtype
    return plan(_circuit(n_qubits, gates, postselect, legs, channel))


def _lone_value(c: Circuit, ps: ParameterStore, *key) -> np.ndarray:
    """The value of c's network, planned under (*c.structure, *key)."""
    p = _circuit_plan(*c.structure, *key)
    theta, inputs = angles(c, ps), [None] * len(p.inputs)
    for kind, js in p.rotations:
        for j, tensor in zip(js, KERNELS[kind](theta.take(js))):
            inputs[j] = tensor[None]
    return contract_one(p, inputs)


def statevector(c: Circuit, ps: ParameterStore) -> np.ndarray:
    """State after all gates on |0...0>, before any postselection."""
    legs = tuple(reversed(range(c.n_qubits)))
    return _lone_value(c, ps, (), legs).astype(complex).ravel()  # a copy


def _key(j: int, k: int) -> str:
    """Open bitstring j of k qubits, the first open qubit first."""
    return format(j, f"0{k}b") if k else ""


def evaluate(c: Circuit, ps: ParameterStore) -> dict[str, float]:
    """Probability of each open-qubit bitstring after postselection.

    Keys are bitstrings with character i giving the bit of c.open[i].
    """
    probs = np.abs(_lone_value(c, ps, c.postselect, c.open)).ravel() ** 2
    total = float(probs.sum())
    if total < ZERO_NORM_THRESHOLD:
        raise ZeroNorm(f"postselection probability {total:.3e}")
    k = len(c.open)
    return {_key(j, k): float(p / total) for j, p in enumerate(probs)}


def plan_circuits(circuits: Sequence[Circuit], store: ParameterStore,
                  noise_p: Optional[float] = None) -> NetworkPlan:
    """Group one-open-qubit circuits, or with ``noise_p`` their
    superoperator networks (_outcomes), by structure against the layout of
    ``store`` (``plan_rows``); each row gathers its angles at its symbols'
    offsets."""
    noise, rows = () if noise_p is None else (noise_p,), []
    for row, c in enumerate(circuits):
        params = [op.param for op in c.ops if op.gate in ROTATIONS]
        if len(c.open) != 1 or not all(isinstance(p, Symbol)
                                       for p in params):
            raise UnplannableCircuit(f"row {row}: a planned circuit needs one "
                                     "open qubit and symbols for its angles")
        rows.append((row, (*c.structure, c.postselect, c.open, *noise),
                     [(p.name, ()) for p in params]))
    return plan_rows(rows, len(circuits), store,
                     lambda key: _circuit_plan(*key))


def _outcomes(c: Circuit, ps: ParameterStore, noise_p: float) -> np.ndarray:
    """Probability that one shot passes postselection and reads open
    bitstring j, for each j read as a binary number with c.open[0] the most
    significant bit: the value of the superoperator network of c."""
    return _lone_value(c, ps, c.postselect, c.open, noise_p).real.flatten()


def draw(outcomes: np.ndarray, n_shots: int, seed: int) -> np.ndarray:
    """The kept shots of each open bitstring among ``n_shots`` independent
    shots, each passing postselection with one outcome's probability in
    ``outcomes`` (_outcomes) or discarded: one multinomial over
    (discarded, each outcome) drawn with ``seed``, rounding negatives
    clipped to 0."""
    kept = np.clip(outcomes, 0.0, None)
    return np.random.default_rng(seed).multinomial(
        n_shots, np.concatenate([[max(0.0, 1.0 - kept.sum())], kept]))[1:]


def sample(c: Circuit, ps: ParameterStore, n_shots: int, seed: int,
           noise_p: float = 0.0) -> dict[str, int]:
    """Counts over open-qubit bitstrings, deterministic given seed: the
    shots that ``draw`` keeps from the circuit's _outcomes under the
    channel-averaged Pauli noise (see the module docstring)."""
    if type(n_shots) is not int or n_shots < 1:  # bool is no int
        raise ValueError(f"n_shots must be an int >= 1, got {n_shots!r}")
    if n_shots > MAX_SHOTS:
        raise ValueError(f"n_shots must be at most 2**63 - 1, got {n_shots!r}")
    drawn = draw(_outcomes(c, ps, noise_p), n_shots, seed)
    if not drawn.any():
        raise AllShotsDiscarded(f"all {n_shots} shots violated postselection")
    return {_key(j, len(c.open)): int(drawn[j]) for j in np.flatnonzero(drawn)}
