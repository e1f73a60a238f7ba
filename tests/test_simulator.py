import itertools
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from synq.ansatz import DOUBLED, GATE_TENSORS, ROTATIONS, SUPEROPERATORS, \
    Circuit, Op, Symbol, iqp_ansatz
from synq.contract import ShapeMismatch, _value, contract_plan
from synq.dataset import generate_dataset
from synq.diagram import Cap, Diagram, cup_at, word
from synq.params import ParameterStore, UnboundSymbol
from synq.pipeline import PipelineConfig, compile_model, group_p1
from synq.simulator import (
    MAX_SHOTS, ZERO_NORM_THRESHOLD, AllShotsDiscarded, InvalidNoise,
    NonFiniteAngle, UnplannableCircuit, ZeroNorm, _circuit_plan, _outcomes,
    evaluate, plan_circuits, sample, statevector,
)
from synq import training
from synq.pipeline import predict_p1
from synq.types import ts
from test_contract import alone, assert_folding_exact, reference_structure, \
    unfolded_replay

EMPTY_PS = ParameterStore({})

# Gate matrices of the project conventions (see synq.simulator), written out
# here so that the oracle shares no code with the simulator.
H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
CX = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
              dtype=complex)
PAULIS = (np.array([[0, 1], [1, 0]], dtype=complex),  # X
          np.array([[0, -1j], [1j, 0]], dtype=complex),  # Y
          np.array([[1, 0], [0, -1]], dtype=complex))  # Z


def rx(t):
    c, s = np.cos(t / 2), np.sin(t / 2)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)


def rz(t):
    return np.diag([np.exp(-1j * t / 2), np.exp(1j * t / 2)])


def crz(t):
    return np.diag([1, 1, np.exp(-1j * t / 2), np.exp(1j * t / 2)])


def angle(op: Op, ps: ParameterStore) -> float:
    if isinstance(op.param, Symbol):
        return float(ps[op.param.name])
    return float(op.param)


def lift1(n, mat, q):
    # qubit n-1 is the most significant
    return np.kron(np.kron(np.eye(2 ** (n - 1 - q)), mat), np.eye(2 ** q))


def lift2(n, mat4, q0, q1):
    full = np.zeros((2 ** n, 2 ** n), dtype=complex)
    col = np.arange(2 ** n)
    b0, b1 = (col >> q0) & 1, (col >> q1) & 1
    for r0 in (0, 1):
        for r1 in (0, 1):
            row = (col & ~(1 << q0) & ~(1 << q1)) | (r0 << q0) | (r1 << q1)
            full[row, col] += mat4[(r0 << 1) | r1, (b0 << 1) | b1]
    return full


def gate_matrix(op: Op, ps: ParameterStore) -> np.ndarray:
    """The 2 x 2 or 4 x 4 matrix of one gate; a two-qubit gate's first
    qubit is the high bit."""
    if op.gate == "H":
        return H
    if op.gate == "Rx":
        return rx(angle(op, ps))
    if op.gate == "Rz":
        return rz(angle(op, ps))
    if op.gate == "CRz":
        return crz(angle(op, ps))
    return CX


def full_gate(n: int, op: Op, ps: ParameterStore) -> np.ndarray:
    """The 2^n x 2^n matrix of one gate, by explicit kron products."""
    mat = gate_matrix(op, ps)
    return lift1(n, mat, *op.qubits) if len(op.qubits) == 1 \
        else lift2(n, mat, *op.qubits)


def dense_oracle(circuit: Circuit, ps: ParameterStore,
                 paulis: dict | None = None) -> np.ndarray:
    """Independent statevector: full 2^n matrices by explicit kron products.

    ``paulis`` maps a gate index to (qubit, Pauli index) pairs applied
    right after that gate."""
    n = circuit.n_qubits
    state = np.zeros(2 ** n, dtype=complex)
    state[0] = 1.0
    for i, op in enumerate(circuit.ops):
        state = full_gate(n, op, ps) @ state
        for q, pauli in (paulis or {}).get(i, ()):
            state = lift1(n, PAULIS[pauli], q) @ state
    return state


def density_oracle(circuit: Circuit, ps: ParameterStore,
                   p: float) -> np.ndarray:
    """Independent noisy distribution from the full 2^n x 2^n density
    matrix, held as a tensor of a row and a column axis per qubit, the most
    significant first, so each gate and Pauli acts on its qubits' axes
    alone: after each two-qubit gate, (1-p) rho + (p/3) sum_P P rho P+ on
    each touched qubit by explicit Pauli conjugations. Entry j is the
    probability that postselection holds and the open qubits read j, with
    circuit.open[0] the most significant bit of j."""
    n = circuit.n_qubits
    rho = np.zeros((2,) * 2 * n, dtype=complex)
    rho[(0,) * 2 * n] = 1.0

    def conjugate(rho, mat, qubits):
        """mat rho mat+, mat acting on ``qubits``, the first the high
        bit."""
        k = len(qubits)
        mat = mat.reshape((2,) * 2 * k)
        for axes, m in (([n - 1 - q for q in qubits], mat),
                        ([2 * n - 1 - q for q in qubits], mat.conj())):
            rho = np.moveaxis(np.tensordot(m, rho, (range(k, 2 * k), axes)),
                              range(k), axes)
        return rho

    for op in circuit.ops:
        rho = conjugate(rho, gate_matrix(op, ps), op.qubits)
        if len(op.qubits) == 2:
            for q in op.qubits:
                rho = (1 - p) * rho + (p / 3) * sum(
                    conjugate(rho, pauli, (q,)) for pauli in PAULIS)
    rho = rho.reshape(2 ** n, 2 ** n)
    out = np.zeros(2 ** len(circuit.open))
    for basis, weight in enumerate(np.real(np.diag(rho))):
        bits = [(basis >> q) & 1 for q in range(n)]
        if not any(bits[q] for q in circuit.postselect):
            out[int("".join(str(bits[q]) for q in circuit.open) or "0",
                    2)] += weight
    return out


def oracle_p1(circuit: Circuit, ps: ParameterStore) -> tuple[float, float]:
    """(p1, postselection probability) of a one-open-qubit circuit."""
    state = dense_oracle(circuit, ps)
    a0, a1 = np.abs(state[[0, 1 << circuit.open[0]]]) ** 2
    return a1 / (a0 + a1), a0 + a1


def random_circuit(rng, n_qubits=3, n_gates=8):
    ops = []
    for _ in range(n_gates):
        kind = rng.integers(0, 5 if n_qubits >= 2 else 3)
        if kind == 0:
            ops.append(Op("H", (int(rng.integers(n_qubits)),)))
        elif kind == 1:
            ops.append(Op("Rx", (int(rng.integers(n_qubits)),),
                          float(rng.uniform(0, 2 * np.pi))))
        elif kind == 2:
            ops.append(Op("Rz", (int(rng.integers(n_qubits)),),
                          float(rng.uniform(0, 2 * np.pi))))
        else:
            q0, q1 = rng.choice(n_qubits, size=2, replace=False)
            gate = "CRz" if kind == 3 else "CX"
            param = float(rng.uniform(0, 2 * np.pi)) if gate == "CRz" else None
            ops.append(Op(gate, (int(q0), int(q1)), param))
    return Circuit(n_qubits, tuple(ops), (), tuple(range(n_qubits)))


class TestGateTable:
    def test_matches_the_test_matrices(self):
        thetas = np.array([0.0, 0.4, 1.3, np.pi, 5.9, -2.2])
        want = {"H": H, "CX": CX, "Rx": np.array([rx(t) for t in thetas]),
                "Rz": np.array([rz(t) for t in thetas]),
                "CRz": np.array([crz(t) for t in thetas])}
        assert set(GATE_TENSORS) == set(want)
        for gate, tensor in GATE_TENSORS.items():
            batch = thetas.shape if gate in ROTATIONS else ()
            got = tensor(thetas if batch else None)
            legs = 2 * (want[gate].shape[-1] // 2)  # output, then input
            assert got.shape == batch + (2,) * legs, gate
            assert np.abs(got.reshape(want[gate].shape) - want[gate]).max() \
                < 1e-12, gate
            for k, t in enumerate(thetas if batch else ()):
                assert np.abs(tensor(t) - got[k]).max() < 1e-12  # unbatched
            # the conjugate of a gate, the bra half of its superoperator, is
            # the rotation at minus its angle, and H and CX themselves
            if batch:
                assert np.abs(tensor(-thetas) - got.conj()).max() < 1e-12, \
                    gate
            else:
                assert np.isrealobj(got), gate

    def test_superoperators_act_on_density_matrices(self):
        """Each superoperator, its input legs contracted with a density
        matrix rho laid out as (ket, bra) pairs per qubit, gives the pairs
        of U rho U^+, U the gate's test matrix."""
        rng = np.random.default_rng(6)
        thetas = np.array([0.0, 0.4, 1.3, np.pi, 5.9, -2.2])
        want = {"H": H, "CX": CX, "Rx": rx, "Rz": rz, "CRz": crz}
        assert set(SUPEROPERATORS) == {DOUBLED[gate] for gate in want}
        for gate, u in want.items():
            kernel = SUPEROPERATORS[DOUBLED[gate]]
            for t in thetas if gate in ROTATIONS else (None,):
                mat = u if t is None else u(t)
                n = int(np.log2(len(mat)))  # qubits
                got = kernel(t if t is None else np.array([t]))
                batch = () if t is None else (1,)
                assert got.shape == batch + (4,) * 2 * n, gate
                got = got.reshape((4 ** n,) * 2)
                a = rng.normal(size=(2 ** n,) * 2) \
                    + 1j * rng.normal(size=(2 ** n,) * 2)
                rho = a @ a.conj().T
                pairs = (2,) * 2 * n  # (k1.., b1..) to (k1, b1, k2, b2..)
                order = [j for i in range(n) for j in (i, n + i)]
                paired = rho.reshape(pairs).transpose(order).ravel()
                out = (mat @ rho @ mat.conj().T).reshape(pairs) \
                    .transpose(order).ravel()
                assert np.abs(got @ paired - out).max() < 1e-12, gate


class TestStatevector:
    def test_h_on_zero(self):
        c = Circuit(1, (Op("H", (0,)),), (), (0,))
        got = statevector(c, EMPTY_PS)
        assert np.allclose(got, [1 / np.sqrt(2), 1 / np.sqrt(2)])
        # no rotation: still a complex array of the caller's own
        assert got.dtype == complex and got.flags.writeable

    def test_bell_preparation(self):
        c = Circuit(2, (Op("H", (0,)), Op("CX", (0, 1))), (), (0, 1))
        got = statevector(c, EMPTY_PS)
        want = np.zeros(4)
        want[0] = want[3] = 1 / np.sqrt(2)  # |00> + |11>
        assert np.allclose(got, want)

    def test_gate_conventions(self):
        ps = EMPTY_PS
        theta = 1.3
        c = Circuit(1, (Op("Rx", (0,), theta),), (), (0,))
        got = statevector(c, ps)
        assert np.allclose(got, [np.cos(theta / 2), -1j * np.sin(theta / 2)])
        c = Circuit(1, (Op("Rz", (0,), theta),), (), (0,))
        assert np.allclose(statevector(c, ps), [np.exp(-1j * theta / 2), 0])

    def test_norm_preserved(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            c = random_circuit(rng)
            state = statevector(c, EMPTY_PS)
            assert abs(np.linalg.norm(state) - 1.0) < 1e-12

    def test_against_dense_oracle_100_random(self):
        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(100):
            n = int(rng.integers(1, 4))
            c = random_circuit(rng, n_qubits=n, n_gates=int(rng.integers(1, 12)))
            got = statevector(c, EMPTY_PS)
            want = dense_oracle(c, EMPTY_PS)
            worst = max(worst, float(np.max(np.abs(got - want))))
        assert worst < 1e-12

    def test_unbound_symbol(self):
        c = Circuit(1, (Op("Rx", (0,), Symbol("missing")),), (), (0,))
        with pytest.raises(UnboundSymbol):
            statevector(c, EMPTY_PS)


class TestEvaluate:
    def test_bell_distribution(self):
        c = Circuit(2, (Op("H", (0,)), Op("CX", (0, 1))), (), (0, 1))
        probs = evaluate(c, EMPTY_PS)
        assert probs == pytest.approx(
            {"00": 0.5, "01": 0.0, "10": 0.0, "11": 0.5})

    def test_empty_circuit_one_open(self):
        c = Circuit(1, (), (), (0,))
        assert evaluate(c, EMPTY_PS) == pytest.approx({"0": 1.0, "1": 0.0})

    def test_cup_gadget_amplitude(self):
        # postselected amplitude on (a|0>+b|1>)(c|0>+d|1>) is (ac+bd)/sqrt 2
        rng = np.random.default_rng(3)
        cx, h = GATE_TENSORS["CX"](None), GATE_TENSORS["H"](None)
        for _ in range(5):
            a, b = rng.normal(size=2)
            c, d = rng.normal(size=2)
            a, b = (a, b) / np.hypot(a, b)
            c, d = (c, d) / np.hypot(c, d)
            state = np.outer([a, b], [c, d])  # axis q holds qubit q
            # CX on (0, 1), then H on qubit 0
            post = np.einsum("xi,iykl,kl->xy", h, cx, state)
            assert abs(post[0, 0] - (a * c + b * d) / np.sqrt(2)) < 1e-12

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            c = random_circuit(rng)
            probs = evaluate(c, EMPTY_PS)
            assert sum(probs.values()) == pytest.approx(1.0, abs=1e-12)
            assert all(p >= 0 for p in probs.values())

    def test_zero_norm(self):
        # postselect a qubit that is deterministically |1>
        c = Circuit(1, (Op("Rx", (0,), np.pi),), (0,), ())
        with pytest.raises(ZeroNorm):
            evaluate(c, EMPTY_PS)

    def test_postselected_sentence_circuit(self):
        d = cup_at(word("john", ts("n")) @ word("walks", ts("n.r", "s")), 0)
        circ = iqp_ansatz(d, {"n": 1, "s": 1})
        ps = ParameterStore.initialize(circ.symbols, seed=4)
        probs = evaluate(circ, ps)
        assert set(probs) == {"0", "1"}
        assert sum(probs.values()) == pytest.approx(1.0)


class TestSample:
    def bell(self):
        return Circuit(2, (Op("H", (0,)), Op("CX", (0, 1))), (), (0, 1))

    def test_bell_counts_within_3_sigma(self):
        counts = sample(self.bell(), EMPTY_PS, 10000, seed=1)
        sigma = np.sqrt(10000 * 0.25)
        assert set(counts) <= {"00", "11"}
        assert abs(counts["00"] - 5000) <= 3 * sigma

    def test_shot_count_beyond_int64_rejected(self):
        counts = sample(self.bell(), EMPTY_PS, MAX_SHOTS, seed=1)
        assert sum(counts.values()) == MAX_SHOTS
        with pytest.raises(ValueError, match=rf"n_shots .*{MAX_SHOTS + 1}"):
            sample(self.bell(), EMPTY_PS, MAX_SHOTS + 1, seed=1)

    @pytest.mark.parametrize("n_shots", [2.5, True, 0])
    def test_shot_count_must_be_an_int_of_one_or_more(self, n_shots):
        # PipelineConfig refuses the same values with the same message
        with pytest.raises(ValueError, match=re.escape(
                f"n_shots must be an int >= 1, got {n_shots!r}")):
            sample(self.bell(), EMPTY_PS, n_shots, seed=1)

    def test_same_seed_identical(self):
        a = sample(self.bell(), EMPTY_PS, 500, seed=7)
        b = sample(self.bell(), EMPTY_PS, 500, seed=7)
        assert a == b

    def test_noise_zero_identical_to_noiseless(self):
        a = sample(self.bell(), EMPTY_PS, 500, seed=9, noise_p=0.0)
        b = sample(self.bell(), EMPTY_PS, 500, seed=9)
        assert a == b

    def test_tv_distance_to_evaluate(self):
        rng = np.random.default_rng(12)
        c = random_circuit(rng, n_qubits=3, n_gates=10)
        probs = evaluate(c, EMPTY_PS)
        counts = sample(c, EMPTY_PS, 100_000, seed=5)
        n = sum(counts.values())
        tv = 0.5 * sum(
            abs(counts.get(k, 0) / n - p) for k, p in probs.items())
        assert tv < 0.02

    def test_postselection_discards(self):
        d = cup_at(word("john", ts("n")) @ word("walks", ts("n.r", "s")), 0)
        circ = iqp_ansatz(d, {"n": 1, "s": 1})
        ps = ParameterStore.initialize(circ.symbols, seed=4)
        counts = sample(circ, ps, 4096, seed=3)
        assert sum(counts.values()) < 4096  # some shots must be discarded
        assert set(counts) <= {"0", "1"}

    def test_all_shots_discarded(self):
        c = Circuit(1, (Op("Rx", (0,), np.pi),), (0,), ())
        with pytest.raises(AllShotsDiscarded):
            sample(c, EMPTY_PS, 64, seed=0)

    def test_noisy_sampling_differs_but_normalizes(self):
        counts = sample(self.bell(), EMPTY_PS, 4096, seed=11, noise_p=0.05)
        assert sum(counts.values()) == 4096
        # depolarizing leaks probability into 01/10
        assert set(counts) - {"00", "11"}

    def test_noise_monotone_in_p(self):
        # the fraction of corrupted outcomes grows with p
        def corrupt_fraction(p, seed):
            counts = sample(self.bell(), EMPTY_PS, 8192, seed=seed, noise_p=p)
            bad = sum(v for k, v in counts.items() if k in ("01", "10"))
            return bad / sum(counts.values())

        lo = np.mean([corrupt_fraction(0.01, s) for s in range(3)])
        hi = np.mean([corrupt_fraction(0.10, s) for s in range(3)])
        assert hi > lo


    @pytest.mark.parametrize("p", [0.2, 1.0])  # 1.0: no shot is clean
    def test_noisy_counts_match_enumerated_twirl(self, p):
        # the exact law of the twirl: every insertion pattern, weighted by
        # its probability, simulated by the dense oracle
        # H after each two-qubit gate makes an inserted Z observable
        c = Circuit(3, (Op("H", (0,)), Op("H", (1,)), Op("CRz", (0, 1), 0.9),
                        Op("H", (0,)), Op("H", (1,)), Op("CX", (0, 2)),
                        Op("H", (0,)), Op("Rx", (2,), 1.3)), (), (0, 1, 2))
        n_shots = 200_000
        sites = [(2, 0), (2, 1), (5, 0), (5, 2)]
        want = np.zeros(8)
        for choice in itertools.product(range(4), repeat=len(sites)):
            weight, paulis = 1.0, {}
            for (i, q), k in zip(sites, choice):
                weight *= 1 - p if k == 3 else p / 3
                if k < 3:
                    paulis.setdefault(i, []).append((q, k))
            want += weight * np.abs(dense_oracle(c, EMPTY_PS, paulis)) ** 2
        counts = sample(c, EMPTY_PS, n_shots, seed=4, noise_p=p)
        got = np.zeros(8)
        for key, n in counts.items():
            got[sum(int(b) << q for q, b in zip(c.open, key))] = n / n_shots
        assert 0.5 * np.abs(got - want).sum() < 0.01


@st.composite
def noisy_circuits(draw):
    """Circuits of up to 5 qubits, each qubit open or postselected, the
    open qubits in any order, two-qubit gates in either qubit order."""
    n = draw(st.integers(1, 5))
    gates = ["H", "Rx", "Rz"] + (["CRz", "CX"] if n >= 2 else [])
    ops = []
    for _ in range(draw(st.integers(0, 10))):
        gate = draw(st.sampled_from(gates))
        width = 2 if gate in ("CRz", "CX") else 1
        qubits = tuple(draw(st.permutations(range(n)))[:width])
        param = draw(st.floats(0, 2 * np.pi)) \
            if gate in ("Rx", "Rz", "CRz") else None
        ops.append(Op(gate, qubits, param))
    post = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    opened = draw(st.permutations([q for q in range(n) if not post[q]]))
    return Circuit(n, tuple(ops), tuple(q for q in range(n) if post[q]),
                   tuple(opened))


# H after a two-qubit gate makes a phase error observable
SEVERAL_OPEN = Circuit(3, (Op("H", (2,)), Op("CX", (2, 0)), Op("H", (0,)),
                           Op("CRz", (1, 2), 0.7), Op("H", (1,)),
                           Op("CX", (0, 1)), Op("Rx", (2,), 1.1)),
                       (), (1, 2, 0))
BOTH_ORDERS = Circuit(3, (Op("H", (0,)), Op("Rx", (1,), 0.4),
                          Op("CRz", (0, 1), 1.9), Op("CRz", (1, 0), 0.8),
                          Op("CX", (1, 2)), Op("CX", (2, 1)), Op("H", (1,)),
                          Op("H", (2,))), (1,), (2, 0))
# qubit 3 is touched by no gate
UNTOUCHED = (Op("Rx", (0,), 0.3), Op("CX", (0, 1)), Op("Rz", (2,), 0.5),
             Op("H", (2,)), Op("CRz", (2, 1), 2.1), Op("H", (1,)))
UNTOUCHED_OPEN = Circuit(4, UNTOUCHED, (1,), (3, 0, 2))
UNTOUCHED_POSTSELECTED = Circuit(4, UNTOUCHED, (1, 3), (2, 0))


class TestNoisyDistribution:
    """sample draws from _outcomes; here that distribution meets the
    density-matrix oracle, which shares no code with the simulator."""

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(noisy_circuits(), st.sampled_from([0.0, 0.01, 0.2, 1.0]))
    @example(SEVERAL_OPEN, 0.2)
    @example(BOTH_ORDERS, 0.01)
    @example(BOTH_ORDERS, 1.0)
    @example(UNTOUCHED_OPEN, 0.2)
    @example(UNTOUCHED_POSTSELECTED, 0.2)
    # no open leg: _outcomes is the postselection probability alone
    @example(Circuit(2, (Op("H", (0,)), Op("CX", (0, 1))), (0, 1), ()), 0.2)
    @example(Circuit(2, (), (0,), (1,)), 0.2)  # no gate, no parameter leaf
    def test_matches_density_oracle(self, c, p):
        got = _outcomes(c, EMPTY_PS, p)
        assert got.shape == (2 ** len(c.open),)
        assert np.abs(got - density_oracle(c, EMPTY_PS, p)).max() < 1e-12
        if p == 0.0:
            if got.sum() < ZERO_NORM_THRESHOLD:
                with pytest.raises(ZeroNorm):
                    evaluate(c, EMPTY_PS)
                return
            k = len(c.open)
            want = evaluate(c, EMPTY_PS)
            assert all(abs(got[j] / got.sum()
                           - want[format(j, f"0{k}b") if k else ""]) < 1e-12
                       for j in range(2 ** k))

    def test_kept_shots_binomial_on_sentence_circuit(self):
        model = compile_model(PipelineConfig(ansatz="iqp", optimizer="spsa"),
                              generate_dataset(0))
        c = min((c for c in model.artifacts if c.postselect),
                key=lambda c: c.n_qubits)
        n_shots, p = 8192, 0.01
        kept = density_oracle(c, model.store, p).sum()
        sigma = np.sqrt(n_shots * kept * (1 - kept))
        assert 0.01 < kept < 0.99
        for seed in range(3):
            counts = sample(c, model.store, n_shots, seed, noise_p=p)
            assert abs(sum(counts.values()) - n_shots * kept) <= 5 * sigma

    @pytest.mark.parametrize("p", [-0.5, -0.2, 1.5, float("nan"),
                                   float("inf")])
    def test_noise_p_outside_unit_interval_rejected(self, p):
        """sample and a batched plan reach the one check of _circuit_plan."""
        c = Circuit(2, (Op("H", (0,)), Op("CX", (0, 1))), (), (0, 1))
        with pytest.raises(InvalidNoise, match=f"noise_p .*{p!r}"):
            sample(c, EMPTY_PS, 100, seed=0, noise_p=p)
        with pytest.raises(InvalidNoise, match=f"noise_p .*{p!r}"):
            plan_circuits([Circuit(2, c.ops, (0,), (1,))], EMPTY_PS, p)


@st.composite
def iqp_batches(draw):
    """Circuits of random sentences: several shapes, each repeated an uneven
    number of times with its own words, nouns of 1 or 2 qubits, and nouns
    made by a cap and a cup."""
    circuits = []
    for _ in range(draw(st.integers(1, 5))):
        n_qubits = draw(st.integers(1, 2))
        most = 3 if n_qubits == 1 else 1  # at most 9 qubits per circuit
        left = draw(st.integers(0, most))
        right = draw(st.integers(0, most - left))
        capped = draw(st.integers(-1, left + right - 1))  # -1: no cap
        for _ in range(draw(st.integers(1, 3))):
            tokens = draw(st.lists(st.sampled_from("abc"),
                                   min_size=left + right + 1,
                                   max_size=left + right + 1))
            nouns = []
            for k, token in enumerate(tokens[1:]):
                noun = word(token, ts("n"))
                if k == capped:  # cap (n, n.l), then n.l cups the word
                    noun = cup_at(Diagram.from_box(Cap("n", -1)) @ noun, 1)
                nouns.append(noun)
            verb = word("v" + tokens[0],
                        ts(*["n.r"] * left, "s", *["n.l"] * right))
            d = verb
            for noun in nouns[:left]:
                d = noun @ d
            for noun in nouns[left:]:
                d = d @ noun
            for k in range(left):
                d = cup_at(d, left - 1 - k)
            for k in range(right):
                d = cup_at(d, right - k)
            circuits.append(iqp_ansatz(d, {"n": n_qubits, "s": 1}))
    return circuits


def planned(plan, vec, rows):
    """Per row of ``rows``: p1 as training reads it, the postselection
    probability |a0|^2 + |a1|^2 and |a1|^2, off each group's amplitudes."""
    out = np.zeros((3, plan.count))
    stacked = plan.stack([(0, rows)], len(vec))
    for g in stacked.groups:
        one = alone(stacked, g)
        probs = np.abs(contract_plan(one, vec)) ** 2
        out[:, g.rows] = (group_p1(one, vec), probs.sum(axis=1),
                          probs[:, 1])
    return out[:, rows]


class TestPlan:
    def check(self, circuits, store):
        plan = plan_circuits(circuits, store)
        rows = list(range(len(circuits)))
        p1, norm, a1 = planned(plan, store.to_vector(), rows)
        for k, c in enumerate(circuits):
            want_p1, want_norm = oracle_p1(c, store)
            assert abs(norm[k] - want_norm) < 1e-12
            assert abs(a1[k] - want_p1 * want_norm) < 1e-12
            if want_norm >= 1e-4:  # p1 = a1 / norm magnifies rounding
                assert abs(p1[k] - want_p1) < 1e-12
                assert abs(p1[k] - evaluate(c, store)["1"]) < 1e-12
        return plan

    def test_dataset_circuits_match_oracle_and_evaluate(self):
        cfg = PipelineConfig(ansatz="iqp", optimizer="spsa")
        model = compile_model(cfg, generate_dataset(0))
        assert len(model.artifacts) == 130
        plan = self.check(model.artifacts, model.store)
        assert len(plan.groups) == 4
        assert sorted(r for g in plan.groups for r in g.rows) \
            == list(range(130))
        # the plan of shot-based training: superoperator networks, grouped
        # as the exact circuits are
        noisy = plan_circuits(model.artifacts, model.store, 0.01)
        assert [g.rows.tolist() for g in noisy.groups] \
            == [g.rows.tolist() for g in plan.groups]
        assert [g.plan.kinds for g in noisy.groups] \
            == [tuple(map(DOUBLED.get, g.plan.kinds)) for g in plan.groups]

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(iqp_batches(), st.integers(0, 2 ** 32 - 1))
    def test_random_batches_match_oracle_and_evaluate(self, circuits, seed):
        symbols = [sym for c in circuits for sym in c.symbols]
        self.check(circuits, ParameterStore.initialize(symbols, seed))

    def test_subset_of_rows(self):
        rng = np.random.default_rng(5)
        circuits = []
        for k in range(4):  # one structure, each row with its own symbols
            ops = [Op(op.gate, op.qubits, Symbol(f"t{k}_{i}"))
                   if op.param is not None else op
                   for i, op in enumerate(random_circuit(rng, 2, 6).ops)]
            circuits.append(Circuit(2, tuple(ops), (1,), (0,)))
        store = ParameterStore.initialize(
            [sym for c in circuits for sym in c.symbols], seed=5)
        _, norm, a1 = planned(plan_circuits(circuits, store),
                              store.to_vector(), [3, 1])
        for k, row in enumerate((3, 1)):
            want_p1, want_norm = oracle_p1(circuits[row], store)
            assert abs(norm[k] - want_norm) < 1e-12
            assert abs(a1[k] - want_p1 * want_norm) < 1e-12

    def test_unplannable_circuits_rejected(self):
        c = Circuit(1, (Op("Rx", (0,), Symbol("missing")),), (), (0,))
        with pytest.raises(UnboundSymbol):
            plan_circuits([c], EMPTY_PS)
        for bad in (Circuit(2, (), (), (0, 1)),
                    Circuit(1, (Op("Rx", (0,), 0.3),), (), (0,))):
            with pytest.raises(ValueError, match="planned circuit needs"):
                plan_circuits([bad], EMPTY_PS)

    def test_misshapen_angle_is_one_error_on_every_path(self):
        c = Circuit(1, (Op("Rx", (0,), Symbol("a")),), (), (0,))
        store = ParameterStore({"a": np.zeros(2)})
        want = re.escape("a: stored (2,), plan wants ()")
        with pytest.raises(ShapeMismatch, match=want):
            evaluate(c, store)
        with pytest.raises(ShapeMismatch, match=want):
            sample(c, store, 100, seed=0, noise_p=0.01)
        with pytest.raises(ShapeMismatch, match=want):
            plan_circuits([c], store)

    def test_planner_errors_name_the_row(self):
        good = Circuit(1, (Op("Rx", (0,), Symbol("a")),), (), (0,))
        store = ParameterStore({"a": np.array(0.3), "v": np.zeros(2)})
        for bad, error, message in (
                (Op("Rx", (0,), Symbol("missing")), UnboundSymbol,
                 "row 1: no value bound for symbol 'missing'"),
                (Op("Rx", (0,), Symbol("v")), ShapeMismatch,
                 re.escape("row 1: v: stored (2,), plan wants ()")),
                (Op("Rx", (0,), 0.3), UnplannableCircuit,
                 "row 1: a planned circuit needs")):
            with pytest.raises(error, match=message):
                plan_circuits([good, Circuit(1, (bad,), (), (0,))], store)


def leaf_gates(c):
    """The gate of each rotation of c, in op order."""
    return [op.gate for op in c.ops if op.gate in ROTATIONS]


def check_picks(plan):
    """Each group's picks list each gate of its leaves once, in order of
    first use, with the positions of its leaves; each gate's angle table
    holds the distinct offsets of its angles across every group."""
    tables = dict(plan.angles)
    for g, picks in zip(plan.groups, plan.picks):
        where = {}
        for j, gate in enumerate(g.plan.kinds):
            where.setdefault(gate, []).append(j)
        assert [(gate, list(js)) for gate, js, _ in picks] \
            == list(where.items())
    for gate, offsets in plan.angles:
        assert offsets.tolist() == sorted({
            int(o) for g in plan.groups
            for j, k in enumerate(g.plan.kinds) if k == gate
            for o in g.index[:, j]})
    for g, picks in zip(plan.groups, plan.picks):
        for gate, js, at in picks:
            assert np.array_equal(tables[gate][at], g.index[:, js].T)


class TestRotationKinds:
    """Each rotation kind's picks and angle table, and the leaves that a
    plan gathers from them."""

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(iqp_batches(), st.integers(0, 2 ** 32 - 1))
    def test_gather_equals_per_gate_tensors(self, circuits, seed):
        symbols = [sym for c in circuits for sym in c.symbols]
        store = ParameterStore.initialize(symbols, seed)
        vec = store.to_vector() * 1e3 ** (seed % 3 - 1)  # small and large
        plan = plan_circuits(circuits, store)
        check_picks(plan)
        for g, got in zip(plan.groups, plan._gather(vec)):
            gates = leaf_gates(circuits[g.rows[0]])
            assert list(g.plan.kinds) == gates
            assert len(got) == len(gates) == len(g.plan.params)
            for j, gate in enumerate(gates):
                want = GATE_TENSORS[gate](vec[g.index[:, j]])
                assert np.array_equal(got[j], want)
                assert got[j].shape == want.shape
                assert got[j].flags.c_contiguous

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(iqp_batches(), st.integers(0, 2 ** 32 - 1))
    def test_stacked_gather_equals_per_gate_tensors(self, circuits, seed):
        """Three points stacked: rows share symbols within a point, and
        points 0 and 2 share their angles."""
        symbols = [sym for c in circuits for sym in c.symbols]
        store = ParameterStore.initialize(symbols, seed)
        vec = store.to_vector()
        points = np.concatenate([vec, vec + 0.25, vec])
        rows = list(range(len(circuits)))
        parts = [(0, rows), (1, rows[::2]), (2, rows[::-1])]
        plan = plan_circuits(circuits, store).stack(parts, len(vec))
        check_picks(plan)
        for g, got in zip(plan.groups, plan._gather(points)):
            # each row gathers from its own point's vector
            assert (g.index // len(vec)
                    == (g.rows // len(circuits))[:, None]).all()
            gates = leaf_gates(circuits[g.rows[0] % len(circuits)])
            assert len(got) == len(gates) == len(g.plan.params)
            for j, gate in enumerate(gates):
                want = GATE_TENSORS[gate](points[g.index[:, j]])
                assert np.array_equal(got[j], want)
                assert got[j].shape == want.shape
                assert got[j].flags.c_contiguous


class TestCircuitStructure:
    @settings(max_examples=100, deadline=None)
    @given(noisy_circuits())
    def test_circuits_record_the_reference(self, c):
        assert c.structure == reference_structure(c)
        twin = Circuit(c.n_qubits, c.ops, c.postselect, c.open)
        assert twin == c and hash(twin) == hash(c)
        assert twin.structure is not c.structure
        assert repr(c) == (f"Circuit(n_qubits={c.n_qubits!r}, ops={c.ops!r}, "
                           f"postselect={c.postselect!r}, open={c.open!r})")


class TestOneDtype:
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(noisy_circuits(), st.sampled_from([0.0, 0.01, 1.0]))
    @example(BOTH_ORDERS, 1.0)
    def test_circuit_plans_are_complex(self, c, p):
        key = (*c.structure, c.postselect, c.open)
        for plan in (_circuit_plan(*key), _circuit_plan(*key, p)):
            fixed = [t for t in plan.fixed if t is not None]
            assert fixed
            for t in fixed:
                assert t.dtype == np.complex128 and not t.flags.writeable

    def test_noisy_plan_built_once_per_structure(self):
        c = Circuit(2, (Op("H", (0,)), Op("CRz", (0, 1), 0.4)), (0,), (1,))
        _circuit_plan.cache_clear()
        for seed in (1, 2):
            sample(c, EMPTY_PS, 100, seed, noise_p=0.01)
        info = _circuit_plan.cache_info()
        assert (info.misses, info.hits) == (1, 1)


def plan_arrays(plan):
    """Every array of a NetworkPlan."""
    yield plan.rows
    for g in plan.groups:
        yield from (g.rows, g.index)
    for _, offsets in plan.angles or ():
        yield offsets
    for picks in plan.picks or ():
        for _, _, at in picks:
            yield at


class TestCachedPlans:
    def test_every_array_refuses_writes(self):
        """The circuit plans of evaluate and sample are cached and shared
        across calls, and a model's NetworkPlan across its passes, so no
        caller may write to them."""
        c = Circuit(2, (Op("H", (0,)), Op("Rx", (0,), Symbol("a")),
                        Op("CRz", (0, 1), Symbol("b"))), (0,), (1,))
        ps = ParameterStore({"a": np.array(0.3), "b": np.array(0.7)})
        key = (*c.structure, c.postselect, c.open)
        _circuit_plan.cache_clear()
        evaluate(c, ps)
        sample(c, ps, 100, 1, noise_p=0.01)
        assert _circuit_plan.cache_info().misses == 2
        plans = _circuit_plan(*key), _circuit_plan(*key, 0.01)
        assert _circuit_plan.cache_info().hits == 2
        for plan, kinds in zip(plans, (("Rx", "CRz"), ("Rx~", "CRz~"))):
            # the leaves of Rx and CRz, or of their superoperators, each
            # kind's a tuple, and every fixed tensor read-only
            assert plan.rotations == ((kinds[0], (0,)), (kinds[1], (1,)))
            for array in [t for t in plan.fixed if t is not None]:
                with pytest.raises(ValueError, match="read-only"):
                    array[...] = 0
        for noise_p in (None, 0.01):
            arrays = list(plan_arrays(plan_circuits([c], ps, noise_p)))
            # rows, the group's rows and index, and the table and picks of
            # Rx and CRz, or of their superoperators in the noisy plan
            assert len(arrays) == 3 + 2 + 2
            for array in arrays:
                with pytest.raises(ValueError, match="read-only"):
                    array[...] = 0


def constant_steps_first(plan):
    """Whether every constant step that joins two connected blocks (over at
    least one edge) comes before the plan's first live step."""
    live = plan.live[len(plan.leaves):]
    first = live.index(True) if True in live else len(live)
    return all(k < first for k, (_, _, axes, _) in enumerate(plan.steps)
               if axes and not live[k])


class TestFolding:
    """Constant steps of circuit plans are folded once; in IQP circuits,
    whose fixed regions fold without growing, they all come before the
    first live step. The folded replay equals the unfolded one bit for
    bit."""

    def test_dataset_plans_fold_constants_first(self):
        model = compile_model(PipelineConfig(ansatz="iqp", optimizer="spsa"),
                              generate_dataset(0))
        for noise in (None, 0.01):
            plan = plan_circuits(model.artifacts, model.store, noise)
            assert len(plan.groups) == 4
            assert all(constant_steps_first(g.plan) for g in plan.groups)

    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(iqp_batches(), st.sampled_from([None, 0.01]))
    def test_random_batches_fold_constants_first(self, circuits, p):
        store = ParameterStore.initialize(
            [sym for c in circuits for sym in c.symbols], 0)
        plan = plan_circuits(circuits, store, p)
        assert all(constant_steps_first(g.plan) for g in plan.groups)

    def test_dataset_circuits(self):
        model = compile_model(PipelineConfig(ansatz="iqp", optimizer="spsa"),
                              generate_dataset(0))
        plan = plan_circuits(model.artifacts, model.store)
        vec = model.store.to_vector()
        for g, params in zip(plan.groups, plan._gather(vec)):
            assert len(g.plan.run) < len(g.plan.steps)  # something folded
            assert_folding_exact(g.plan, params)

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(noisy_circuits(), st.sampled_from([0.0, 0.01, 1.0]))
    @example(SEVERAL_OPEN, 0.01)
    @example(BOTH_ORDERS, 1.0)
    @example(UNTOUCHED_POSTSELECTED, 0.0)
    def test_doubled_network(self, c, p):
        plan = _circuit_plan(*c.structure, c.postselect, c.open, p)
        # one leaf per rotation: its superoperator at its angle
        params = [SUPEROPERATORS[DOUBLED[op.gate]](np.array([op.param]))
                  for op in c.ops if op.gate in ROTATIONS]
        assert len(plan.params) == len(params)
        assert_folding_exact(plan, params)
        want = _value(plan, unfolded_replay(plan, params), 1)[0]
        assert np.array_equal(_outcomes(c, EMPTY_PS, p),
                              want.real.ravel())

    def test_doubled_network_folds_the_channel(self):
        """The channel's tensor is folded with the fixed leaves: at p = 3/4
        the channel depolarises fully and a Bell pair reads every outcome
        equally often. Each qubit is one wire of dimension 4."""
        c = Circuit(2, (Op("H", (0,)), Op("CX", (0, 1))), (), (0, 1))
        plans = [_circuit_plan(*c.structure, (), (0, 1), p)
                 for p in (0.0, 0.75)]
        assert all(plan.run == () for plan in plans)  # no parameter
        leaves = plans[0].shapes[:len(plans[0].leaves)]
        assert all(shape[0] == 4 for shape in leaves)
        assert not np.array_equal(plans[0].fixed[-1], plans[1].fixed[-1])
        for p, want in ((0.0, [0.5, 0, 0, 0.5]), (0.75, [0.25] * 4)):
            assert np.allclose(_outcomes(c, EMPTY_PS, p), want,
                               rtol=0, atol=1e-15)


class TestSuperoperatorNetwork:
    def test_dataset_structures_one_leaf_per_rotation(self):
        """Each noisy plan of the mc dataset's 4 structures has one
        parameter leaf per rotation, and the live steps of its noisy and
        exact plans are pinned: 16, 20, 20 and 24, and 14, 18, 18 and 22.
        The greedy folds each constant sub-network before it joins a
        rotation; when it ordered pairs by size alone they took 22, 30, 30
        and 38, and 18, 24, 24 and 30, and with a ket and a bra wire per
        qubit, a leaf per rotation on each, the noisy plans took 38, 49, 49
        and 62."""
        model = compile_model(PipelineConfig(ansatz="iqp", optimizer="spsa"),
                              generate_dataset(0))
        live, exact = {}, {}
        for c in model.artifacts:
            key = (*c.structure, c.postselect, c.open)
            noisy = _circuit_plan(*key, 0.01)
            assert len(noisy.params) == len(leaf_gates(c)) \
                == len(noisy.kinds)
            assert list(noisy.kinds) == [DOUBLED[gate]
                                         for gate in leaf_gates(c)]
            live[key] = len(noisy.run)
            exact[key] = len(_circuit_plan(*key).run)
        assert sorted(live.values()) == [16, 20, 20, 24]
        assert sorted(exact.values()) == [14, 18, 18, 22]

    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(iqp_batches(), st.integers(0, 2 ** 32 - 1),
           st.sampled_from([0.01, 0.2]))
    def test_shared_symbols_match_density_oracle(self, circuits, seed, p):
        """Words share symbols across the circuits, under one random
        store."""
        symbols = [sym for c in circuits for sym in c.symbols]
        store = ParameterStore.initialize(symbols, seed)
        for c in circuits:
            if c.n_qubits > 7:  # the dense oracle takes seconds at 9 qubits
                continue
            assert np.abs(_outcomes(c, store, p)
                          - density_oracle(c, store, p)).max() < 1e-12

    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(iqp_batches(), st.integers(0, 2 ** 32 - 1),
           st.sampled_from([0.01, 0.2]))
    def test_planned_batch_equals_lone_outcomes(self, circuits, seed, p):
        """Several structures under one random store, planned as one noisy
        NetworkPlan: each row is its circuit's lone _outcomes bit for bit,
        and the density oracle's."""
        symbols = [sym for c in circuits for sym in c.symbols]
        store = ParameterStore.initialize(symbols, seed)
        plan = plan_circuits(circuits, store, p)
        values = contract_plan(plan, store.to_vector())
        assert values.shape == (len(circuits), 2)
        for row, value in zip(plan.rows.tolist(), values):
            c = circuits[row]
            assert np.array_equal(value.real, _outcomes(c, store, p))
            if c.n_qubits <= 7:  # the dense oracle takes seconds at 9
                assert np.abs(value.real - density_oracle(c, store, p)
                              ).max() < 1e-12


def wide_circuit(n):
    """H on every qubit, a CX ladder, Rz and H on each qubit, and another
    ladder; qubit 0 open and the rest postselected. Its fixed regions are
    wide: the first ladder is constant across all n qubits."""
    ladder = tuple(Op("CX", (q, q + 1)) for q in range(n - 1))
    middle = tuple(op for q in range(n)
                   for op in (Op("Rz", (q,), Symbol(f"a{q}")), Op("H", (q,))))
    return Circuit(n, tuple(Op("H", (q,)) for q in range(n)) + ladder
                   + middle + ladder, tuple(range(1, n)), (0,))


class TestWideFixedRegion:
    C = wide_circuit(8)

    def test_values_match_the_oracles(self):
        c = self.C
        store = ParameterStore({f"a{q}": np.array(0.3 + 0.17 * q)
                                for q in range(c.n_qubits)})
        want = dense_oracle(c, store)
        assert np.abs(statevector(c, store) - want).max() < 1e-12
        _, norm, a1 = planned(plan_circuits([c], store), store.to_vector(),
                              [0])
        probs = np.abs(want[[0, 1]]) ** 2
        assert abs(norm[0] - probs.sum()) < 1e-12
        assert abs(a1[0] - probs[1]) < 1e-12
        outcomes = density_oracle(c, store, 0.01)
        assert np.abs(_outcomes(c, store, 0.01) - outcomes).max() < 1e-12
        (value,) = contract_plan(plan_circuits([c], store, 0.01),
                                 store.to_vector())
        assert np.abs(value.real - outcomes).max() < 1e-12

    def test_folds_grow_no_tensor(self):
        """A fixed pair folds first only if its result is no larger than
        the larger of the two, so the ladder's growing fixed region is
        left to the size order. Live steps and the largest tensor, exact
        then noisy, are pinned: ordering by size alone took 24 and 64, and
        38 and 32768; folding every fixed pair first took 9 and 512, and
        9 and 131072, a constant as wide as the ladder."""
        c = self.C
        got = []
        for key in ((), (0.01,)):
            p = _circuit_plan(*c.structure, c.postselect, c.open, *key)
            got.append((len(p.run), max(math.prod(s) for s in p.shapes)))
        assert got == [(17, 64), (17, 2048)]


class TestNonFiniteAngle:
    CIRCUIT = Circuit(2, (Op("H", (0,)), Op("Rx", (0,), Symbol("a")),
                          Op("CRz", (0, 1), Symbol("b"))), (0,), (1,))

    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       -float("inf")])
    def test_evaluate_and_sample_name_the_symbol(self, value):
        ps = ParameterStore({"a": np.array(0.3), "b": np.array(value)})
        want = rf"symbol 'b' has the angle {value!r}"
        with pytest.raises(NonFiniteAngle, match=want):
            evaluate(self.CIRCUIT, ps)
        for p in (0.0, 0.01):
            with pytest.raises(NonFiniteAngle, match=want):
                sample(self.CIRCUIT, ps, 100, seed=1, noise_p=p)

    def test_float_angle_named_by_its_gate(self):
        c = Circuit(1, (Op("Rz", (0,), 0.2), Op("Rx", (0,), float("nan"))),
                    (), (0,))
        with pytest.raises(ValueError, match=r"Rx on qubits \(0,\) has the "
                                             r"angle nan"):
            evaluate(c, EMPTY_PS)

    @pytest.mark.parametrize("backend", ["exact", "shots"])
    def test_planned_row_reads_nan_and_train_refuses_it(self, backend,
                                                        monkeypatch):
        """A planned row whose angle is nan reads nan, a shot row without
        reaching the draw. train refuses the angle before its first pass,
        naming it and the first train or dev sentence that reads it, and
        predict_p1 names the item."""
        noise_p = 0.01 if backend == "shots" else 0.0
        model = compile_model(PipelineConfig(
            ansatz="iqp", optimizer="spsa", backend=backend, n_shots=64,
            noise_p=noise_p, iterations=2), generate_dataset(0))
        name = model.artifacts[0].symbols[0].name
        store = model.store.copy()
        store[name] = float("nan")
        vec = store.to_vector()
        plan = plan_circuits(model.artifacts, model.store,
                             noise_p if backend == "shots" else None)
        p1 = np.zeros(plan.count)
        p1[plan.rows] = group_p1(plan, vec, *(
            (64, plan.rows + 1) if backend == "shots" else ()))
        assert np.isnan(p1[0])
        assert not np.isnan(np.delete(p1, 0)).all()
        ds = model.dataset
        first = next(i for i in ds.train + ds.dev
                     if name in {s.name for s in model.artifacts[i].symbols})
        passes = []
        monkeypatch.setattr(training, "group_p1",
                            lambda *args: passes.append(1))
        with pytest.raises(NonFiniteAngle, match=re.escape(
                f"item {first}: symbol {name!r} has the angle nan")):
            training.train(replace(model, store=store))
        assert not passes
        with pytest.raises(NonFiniteAngle, match=re.escape(
                f"item 0: symbol {name!r} has the angle nan")):
            predict_p1(model, store, 0, 5)
