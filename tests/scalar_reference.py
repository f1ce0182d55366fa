"""Per-injection reference for the lane analyses of ``qlut.simulator``.

These are the loops the bit-sliced analyses replace: one basis run per
(site, Pauli) and address, and one superposition run per basis-benign
injection. They are slow and kept only so the tests can compare the batched
``containment_experiment``, ``first_order_infidelity`` and
``harmful_weight_by_rate`` against them.
"""
from __future__ import annotations

from qlut.ir import Circuit
from qlut.simulator import (
    ContainmentReport, Location, run_linear, sparse_overlap, trial_outcome_ok,
    uniform_address_superposition,
)

PAULIS = ("X", "Y", "Z")


def containment(circuit: Circuit, address: int, sites: list[tuple[int, int]],
                paulis: tuple[str, ...] = PAULIS,
                check_superposition: bool = False) -> ContainmentReport:
    sup_in = uniform_address_superposition(circuit) if check_superposition else None
    sup_ideal = run_linear(circuit, sup_in) if check_superposition else None
    report = ContainmentReport(address, [], [], [])
    for slot, q in sites:
        for pauli in paulis:
            ev = {slot: [(q, pauli)]}
            if trial_outcome_ok(circuit, address, ev):
                if check_superposition:
                    got = run_linear(circuit, sup_in, ev)
                    if sparse_overlap(sup_ideal, got) < 1.0 - 1e-9:
                        report.phase_harmful.append((slot, q, pauli))
                        continue
                report.benign.append((slot, q, pauli))
            else:
                report.harmful.append((slot, q, pauli))
    return report


def harmful_fraction(circuit: Circuit, loc: Location, addresses: list[int]) -> float:
    w = 1.0 / (3 * len(loc.qubits))
    harmful = 0.0
    for q in loc.qubits:
        for pauli in PAULIS:
            ev = {loc.slot: [(q, pauli)]}
            bad = sum(0 if trial_outcome_ok(circuit, a, ev) else 1 for a in addresses)
            harmful += w * bad / len(addresses)
    return harmful


def first_order_infidelity(locations: list[Location], fractions: list[float]) -> float:
    return sum(loc.rate * f for loc, f in zip(locations, fractions))


def harmful_weight_by_rate(locations: list[Location],
                           fractions: list[float]) -> dict[str, float]:
    slopes: dict[str, float] = {}
    for loc, f in zip(locations, fractions):
        slopes[loc.rate_key] = slopes.get(loc.rate_key, 0.0) + f
    return slopes
