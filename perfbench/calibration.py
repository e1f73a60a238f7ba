"""A fixed reference computation that measures how fast the host runs now.

The shared host alternates between a fast state and one up to ~1.8x
slower, for seconds or for minutes at a time, so raw wall times of two
runs, or of two sets of runs, differ by more than any useful bound. The
kernel below does what synq's hot paths do -- pairwise ``np.tensordot``
over small tensors with Python bookkeeping, and one-qubit gates applied to
a small statevector -- without calling synq, so its time follows the host
and not the code under test. A phase's timings are scaled by
``NOMINAL_MS / kernel time`` measured at the phase's two ends: they read as
milliseconds on the host in its fast state.
"""
from __future__ import annotations

from time import perf_counter

import numpy as np

# The kernel's best-of-three time on an uncontended core of the reference
# host (Intel Xeon at 2.0 GHz, numpy 2.4 with OpenBLAS on one thread).
NOMINAL_MS = 2.1

_RNG = np.random.default_rng(2110)
_CHAIN = [_RNG.normal(size=(2, 2, 2)) for _ in range(96)]
_GATES = [np.linalg.qr(_RNG.normal(size=(2, 2)))[0] for _ in range(96)]
_QUBITS = 7


def kernel() -> float:
    acc, legs = np.ones(2), [("open", -1)]
    for k, tensor in enumerate(_CHAIN):
        axis = legs.index(("open", k - 1))
        acc = np.tensordot(acc, tensor, axes=([axis], [0]))
        legs = [leg for i, leg in enumerate(legs) if i != axis]
        legs += [("open", k), ("side", k)]
        acc = acc.sum(axis=legs.index(("side", k)))
        legs.remove(("side", k))
        acc = acc / np.abs(acc).sum()
    state = np.zeros((2,) * _QUBITS)
    state[(0,) * _QUBITS] = 1.0
    for k, gate in enumerate(_GATES):
        axis = k % _QUBITS
        state = np.moveaxis(np.tensordot(gate, state, axes=([1], [axis])),
                            0, axis)
    return float(acc.sum() + state.sum())


def probe(repeats: int = 3) -> float:
    """The kernel's best time over ``repeats`` runs, in ms."""
    best = float("inf")
    for _ in range(repeats):
        start = perf_counter()
        kernel()
        best = min(best, perf_counter() - start)
    return 1e3 * best
