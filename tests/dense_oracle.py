"""Dense state-vector oracle for the basis-path engine ``run_basis``.

Every gate qlut emits (X, CNOT, SWAP, CSWAP, Toffoli) is a self-inverse
permutation of basis states, so each one is applied here as a gather over
the whole index vector; an injected Pauli multiplies in its phases
elementwise. Practical up to about 20 qubits.
"""
from __future__ import annotations

import numpy as np

from qlut.ir import Circuit, GateKind
from state_helpers import basis_input


def _source(kind: GateKind, qs: tuple[int, ...], idx: np.ndarray) -> np.ndarray:
    """Index each output amplitude is gathered from under one gate."""
    bit = [(idx >> q) & 1 for q in qs]
    if kind in (GateKind.X, GateKind.CC_X):
        return idx ^ (1 << qs[0])
    if kind == GateKind.CNOT:
        return idx ^ (bit[0] << qs[1])
    if kind == GateKind.CCNOT:
        return idx ^ ((bit[0] & bit[1]) << qs[2])
    if kind == GateKind.SWAP:
        return idx ^ ((bit[0] ^ bit[1]) * ((1 << qs[0]) | (1 << qs[1])))
    if kind == GateKind.CSWAP:
        return idx ^ ((bit[0] & (bit[1] ^ bit[2])) * ((1 << qs[1]) | (1 << qs[2])))
    raise ValueError(f"oracle cannot apply {kind}")


def _pauli(state: np.ndarray, q: int, pauli: str, idx: np.ndarray) -> np.ndarray:
    sign = 1 - 2 * ((idx >> q) & 1)          # (-1)^b of each basis index
    if pauli == "Z":
        return sign * state
    flipped = state[idx ^ (1 << q)]
    return flipped if pauli == "X" else -1j * sign * flipped   # Y|b> = i(-1)^b|1-b>


def run_dense(circuit: Circuit, state: np.ndarray,
              events: dict[int, list[tuple[int, str]]] | None = None) -> np.ndarray:
    """Final state vector; ``events`` has the meaning it has for ``run_basis``."""
    idx = np.arange(state.size)
    events = events or {}
    for slot in range(len(circuit.gates) + 1):
        for q, pauli in events.get(slot, ()):
            state = _pauli(state, q, pauli, idx)
        if slot < len(circuit.gates):
            g = circuit.gates[slot]
            state = state[_source(g.kind, g.qubits, idx)]
    return state


def basis_state(circuit: Circuit, address: int) -> np.ndarray:
    """The all-zero input with the address register set, as a state vector."""
    state = np.zeros(1 << circuit.n_qubits, dtype=complex)
    state[basis_input(circuit, address)] = 1.0
    return state


def overlap(a: np.ndarray, b: np.ndarray) -> float:
    return abs(np.vdot(a, b)) ** 2
