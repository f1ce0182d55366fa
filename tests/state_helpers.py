"""Register packing and superposition propagation for the tests.

The package works on lane planes and address arrays; these helpers speak
in whole basis states (one Python int per state, bit q for qubit q) and
sparse superpositions (basis state to amplitude), the form the reference
checks compare in. ``run_linear`` evolves a superposition through the
package's lane engine, one basis component per lane.
"""
from __future__ import annotations

import numpy as np

from qlut.ir import Circuit
from qlut.simulator import _MAX_LANES, _PAULI_MASKS, LaneFaults, run_lanes


def pack_register(bits_value: int, reg: tuple[int, ...], big_endian: bool = True) -> int:
    """Scatter a register value onto qubit-id bit positions."""
    packed = 0
    width = len(reg)
    for i, q in enumerate(reg):
        shift = (width - 1 - i) if big_endian else i
        if (bits_value >> shift) & 1:
            packed |= 1 << q
    return packed


def read_register(bits: int, reg: tuple[int, ...], big_endian: bool = True) -> int:
    value = 0
    width = len(reg)
    for i, q in enumerate(reg):
        shift = (width - 1 - i) if big_endian else i
        if (bits >> q) & 1:
            value |= 1 << shift
    return value


def basis_input(circuit: Circuit, address: int) -> int:
    """Bit mask of the all-zero input with the address register set."""
    return pack_register(address, circuit.reg("address"))


def expected_word(circuit: Circuit, address: int) -> int:
    table, params = circuit.table, circuit.params
    return sum(table.bit(address, w) << w for w in range(params.b))


def _transpose(rows: list[int], width: int) -> list[int]:
    """Bit-matrix transpose: bit i of out[j] is bit j of rows[i]."""
    out = [0] * width
    for i, row in enumerate(rows):
        while row:
            low = row & -row
            out[low.bit_length() - 1] |= 1 << i
            row ^= low
    return out


def _broadcast(events: dict[int, list[tuple[int, str]]] | None, full: int) -> LaneFaults:
    """``run_basis``-style events as faults on every lane of ``full``."""
    return {slot: [(q, *(full * m for m in _PAULI_MASKS[p])) for q, p in evs]
            for slot, evs in (events or {}).items()}


def run_linear(
    circuit: Circuit,
    amplitudes: dict[int, complex],
    events: dict[int, list[tuple[int, str]]] | None = None,
) -> dict[int, complex]:
    """Evolve a sparse superposition; its basis components are the lanes."""
    out: dict[int, complex] = {}
    components = list(amplitudes.items())
    for start in range(0, len(components), _MAX_LANES):
        chunk = components[start:start + _MAX_LANES]
        lanes = len(chunk)
        planes = _transpose([bits for bits, _ in chunk], circuit.n_qubits)
        lo, hi = run_lanes(circuit, planes, lanes, _broadcast(events, (1 << lanes) - 1))
        for (_, amp), ob, ph in zip(chunk, _transpose(planes, lanes),
                                    _transpose([lo, hi], lanes)):
            out[ob] = out.get(ob, 0.0) + amp * (1j) ** ph
    return out


def sparse_overlap(a: dict[int, complex], b: dict[int, complex]) -> float:
    inner = sum(np.conj(a[k]) * v for k, v in b.items() if k in a)
    return abs(inner) ** 2


def uniform_address_superposition(circuit: Circuit) -> dict[int, complex]:
    n = circuit.params.n
    amp = 1.0 / np.sqrt(1 << n)
    return {basis_input(circuit, a): amp for a in range(1 << n)}
