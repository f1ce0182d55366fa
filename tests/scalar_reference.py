"""Per-injection and per-trial reference for the lane analyses of
``qlut.simulator``.

These are the loops the bit-sliced analyses replace: one basis run per
(site, Pauli) and address, one superposition run per basis-benign
injection, and one basis run per faulty Monte Carlo trial after a
per-location sampling loop, over an idle table built one layer at a time.
They are slow and kept only so the tests can compare the batched
``containment_experiment``, ``first_order_infidelity``,
``harmful_weight_by_rate``, ``monte_carlo_infidelity`` and
``build_location_table`` against them.
"""
from __future__ import annotations

import numpy as np

from qlut.ir import Circuit, GateKind
from qlut.layout import LongRangeLink, long_range_error
from qlut.params import ErrorRates
from qlut.simulator import (
    ContainmentReport, ErrorEvent, Location, TrialResult, run_linear, sparse_overlap,
    trial_outcome_ok, uniform_address_superposition,
)

PAULIS = ("X", "Y", "Z")
GATE_RATE_KEY = {GateKind.SWAP: "eps_s", GateKind.CSWAP: "eps_cs",
                 GateKind.CNOT: "eps_c", GateKind.CCNOT: "eps_cc"}


def circuit_idle_layers(circuit: Circuit) -> dict[int, list[int]]:
    """Layers on which each qubit sits idle between its first and last use."""
    first: dict[int, int] = {}
    last: dict[int, int] = {}
    active: dict[int, set[int]] = {}
    for g in circuit.gates:
        for q in g.qubits:
            first.setdefault(q, g.layer)
            last[q] = g.layer
            active.setdefault(q, set()).add(g.layer)
    idle: dict[int, list[int]] = {}
    for q, f in first.items():
        layers = [t for t in range(f, last[q] + 1) if t not in active[q]]
        if layers:
            idle[q] = layers
    return idle


def location_table(circuit: Circuit, rates: ErrorRates,
                   link_by_gate: dict[int, LongRangeLink] | None = None) -> list[Location]:
    """Gate sites, then one idle site per idle (qubit, layer)."""
    locs: list[Location] = []
    link_by_gate = link_by_gate or {}
    for idx, g in enumerate(circuit.gates):
        if idx in link_by_gate:
            rate = long_range_error(link_by_gate[idx], rates)
            if rate > 0:
                locs.append(Location(idx, g.qubits, "eps_l", rate, idx))
            continue
        key = GATE_RATE_KEY.get(g.kind)
        if key is None:
            continue
        rate = getattr(rates, key)
        if rate > 0:
            locs.append(Location(idx, g.qubits, key, rate, idx))
    if rates.eps_i > 0:
        touches: dict[int, list[tuple[int, int]]] = {}
        for idx, g in enumerate(circuit.gates):
            for q in g.qubits:
                touches.setdefault(q, []).append((g.layer, idx))
        for q, layers in sorted(circuit_idle_layers(circuit).items()):
            seq = touches[q]
            j = 0
            for t in sorted(layers):
                while j < len(seq) and seq[j][0] < t:
                    j += 1
                slot = seq[j][1] if j < len(seq) else len(circuit.gates)
                locs.append(Location(slot, (q,), "eps_i", rates.eps_i))
    return locs


def sample_events(locations: list[Location], rng) -> list[ErrorEvent]:
    events: list[ErrorEvent] = []
    if not locations:
        return events
    draws = rng.random(len(locations))
    for loc, u in zip(locations, draws):
        if u < loc.rate:
            q = loc.qubits[rng.integers(len(loc.qubits))]
            pauli = PAULIS[rng.integers(3)]
            events.append(ErrorEvent(loc.slot, q, pauli, loc.rate_key))
    events.sort(key=lambda e: e.slot)
    return events


def trials(circuit: Circuit, locations: list[Location], count: int, seed: int,
           address: int | None = None) -> list[tuple[int, TrialResult]]:
    """The Monte Carlo stream: (t, result) per trial, one basis run each."""
    out = []
    for t in range(count):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, t)))
        a = int(rng.integers(circuit.params.N)) if address is None else address
        events = sample_events(locations, rng)
        by_slot: dict[int, list[tuple[int, str]]] = {}
        for e in events:
            by_slot.setdefault(e.slot, []).append((e.qubit, e.pauli))
        ok = True if not events else trial_outcome_ok(circuit, a, by_slot)
        out.append((t, TrialResult(ok=ok, address=a, events=events)))
    return out


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
