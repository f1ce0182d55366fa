"""Exact circuit execution and Pauli-error injection.

One engine backs every analysis: ``run_basis`` tracks one computational
basis state and a global phase quadrant. Every gate the builders emit is a
reversible classical gate (a permutation of basis states), so basis inputs
stay basis states even under injected Paulis, at any circuit size, and
superposition inputs are handled exactly by linearity (``run_linear``).
This is what makes exhaustive error enumeration and large Monte Carlo
sweeps affordable.
"""
from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParamsError
from .ir import Circuit, GateKind
from .layout import LongRangeLink, long_range_error
from .params import ErrorRates, address_bits

# -- register packing ---------------------------------------------------------

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


# -- basis-path engine --------------------------------------------------------

_PAULIS = ("X", "Y", "Z")


def _apply_pauli(bits: int, phase: int, qubit: int, pauli: str) -> tuple[int, int]:
    mask = 1 << qubit
    b = (bits >> qubit) & 1
    if pauli == "X":
        return bits ^ mask, phase
    if pauli == "Z":
        return bits, (phase + 2 * b) % 4
    # Y|b> = i(-1)^b |1-b>
    return bits ^ mask, (phase + 1 + 2 * b) % 4


def run_basis(
    circuit: Circuit,
    init_bits: int,
    events: dict[int, list[tuple[int, str]]] | None = None,
) -> tuple[int, int]:
    """Propagate one basis state; returns (bits, phase quadrant 0..3).

    ``events[slot]`` lists (qubit, pauli) errors applied before gate ``slot``;
    slot == len(gates) applies after the final gate.
    """
    bits, phase = init_bits, 0
    gates = circuit.gates
    for idx, g in enumerate(gates):
        if events and idx in events:
            for q, p in events[idx]:
                bits, phase = _apply_pauli(bits, phase, q, p)
        k = g.kind
        qs = g.qubits
        if k == GateKind.CNOT:
            if (bits >> qs[0]) & 1:
                bits ^= 1 << qs[1]
        elif k == GateKind.SWAP:
            a, b = qs
            if ((bits >> a) ^ (bits >> b)) & 1:
                bits ^= (1 << a) | (1 << b)
        elif k == GateKind.CSWAP:
            c, a, b = qs
            if (bits >> c) & 1 and ((bits >> a) ^ (bits >> b)) & 1:
                bits ^= (1 << a) | (1 << b)
        elif k == GateKind.CCNOT:
            if (bits >> qs[0]) & 1 and (bits >> qs[1]) & 1:
                bits ^= 1 << qs[2]
        elif k in (GateKind.X, GateKind.CC_X):
            bits ^= 1 << qs[0]
        else:
            raise InvalidParamsError(f"basis engine cannot apply {k}")
    if events and len(gates) in events:
        for q, p in events[len(gates)]:
            bits, phase = _apply_pauli(bits, phase, q, p)
    return bits, phase


def run_linear(
    circuit: Circuit,
    amplitudes: dict[int, complex],
    events: dict[int, list[tuple[int, str]]] | None = None,
) -> dict[int, complex]:
    """Evolve a sparse superposition by running each basis component."""
    out: dict[int, complex] = {}
    for bits, amp in amplitudes.items():
        ob, ph = run_basis(circuit, bits, events)
        out[ob] = out.get(ob, 0.0) + amp * (1j) ** ph
    return out


def sparse_overlap(a: dict[int, complex], b: dict[int, complex]) -> float:
    inner = sum(np.conj(a[k]) * v for k, v in b.items() if k in a)
    return abs(inner) ** 2


def uniform_address_superposition(circuit: Circuit) -> dict[int, complex]:
    n = circuit.params.n
    amp = 1.0 / np.sqrt(1 << n)
    return {basis_input(circuit, a): amp for a in range(1 << n)}


def lookup_target(circuit: Circuit, amplitudes: dict[int, complex]) -> dict[int, complex]:
    """The ideal post-uncompute state: address and bus set, all else zero."""
    addr_reg, bus_reg = circuit.reg("address"), circuit.reg("bus")
    out: dict[int, complex] = {}
    for bits, amp in amplitudes.items():
        a = read_register(bits, addr_reg)
        word = expected_word(circuit, a)
        key = pack_register(a, addr_reg) | pack_register(word, bus_reg, big_endian=False)
        out[key] = out.get(key, 0.0) + amp
    return out


# -- error locations -----------------------------------------------------------

_GATE_RATE_KEY = {
    GateKind.SWAP: "eps_s",
    GateKind.CSWAP: "eps_cs",
    GateKind.CNOT: "eps_c",
    GateKind.CCNOT: "eps_cc",
}


@dataclass(frozen=True)
class Location:
    """A potential fault site: one gate, one long-range link, or one idle step."""
    slot: int                 # event applied before this gate index
    qubits: tuple[int, ...]   # candidate qubits (one is hit per event)
    rate_key: str
    rate: float
    gate_index: int | None = None


@dataclass(frozen=True)
class ErrorEvent:
    slot: int
    qubit: int
    pauli: str
    rate_key: str

    def to_json(self) -> dict:
        return {"slot": self.slot, "qubit": self.qubit, "pauli": self.pauli,
                "source": self.rate_key}


@dataclass
class TrialResult:
    ok: bool
    address: int
    events: list[ErrorEvent] = field(default_factory=list)


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


def build_location_table(
    circuit: Circuit,
    rates: ErrorRates,
    link_by_gate: dict[int, LongRangeLink] | None = None,
) -> list[Location]:
    """All fault sites with their firing rates.

    Long-range-flagged gates draw from their link's error
    (:func:`layout.long_range_error`) instead of their local gate rate; a
    firing link hits one endpoint. Zero-rate sites are dropped.
    """
    locs: list[Location] = []
    link_by_gate = link_by_gate or {}
    for idx, g in enumerate(circuit.gates):
        if idx in link_by_gate:
            rate = long_range_error(link_by_gate[idx], rates)
            if rate > 0:
                locs.append(Location(idx, g.qubits, "eps_l", rate, idx))
            continue
        key = _GATE_RATE_KEY.get(g.kind)
        if key is None:
            continue
        rate = getattr(rates, key)
        if rate > 0:
            locs.append(Location(idx, g.qubits, key, rate, idx))
    if rates.eps_i > 0:
        touches = _gate_touches(circuit)
        for q, layers in sorted(circuit_idle_layers(circuit).items()):
            seq = touches[q]  # per-qubit program order is layer order
            j = 0
            for t in sorted(layers):
                while j < len(seq) and seq[j][0] < t:
                    j += 1
                slot = seq[j][1] if j < len(seq) else len(circuit.gates)
                locs.append(Location(slot, (q,), "eps_i", rates.eps_i))
    return locs


def _gate_touches(circuit: Circuit) -> dict[int, list[tuple[int, int]]]:
    """Per qubit: (layer, gate index) of every gate touching it, in order."""
    touches: dict[int, list[tuple[int, int]]] = {}
    for idx, g in enumerate(circuit.gates):
        for q in g.qubits:
            touches.setdefault(q, []).append((g.layer, idx))
    return touches


def _trial_rng(seed: int, trial: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=(seed, trial)))


def sample_events(locations: list[Location], rng: np.random.Generator) -> list[ErrorEvent]:
    """Independent per-location firing; uniform Pauli on a uniform operand."""
    events: list[ErrorEvent] = []
    if not locations:
        return events
    draws = rng.random(len(locations))
    for loc, u in zip(locations, draws):
        if u < loc.rate:
            q = loc.qubits[rng.integers(len(loc.qubits))]
            pauli = _PAULIS[rng.integers(3)]
            events.append(ErrorEvent(loc.slot, q, pauli, loc.rate_key))
    events.sort(key=lambda e: e.slot)
    return events


def _events_dict(events: list[ErrorEvent]) -> dict[int, list[tuple[int, str]]]:
    d: dict[int, list[tuple[int, str]]] = {}
    for e in events:
        d.setdefault(e.slot, []).append((e.qubit, e.pauli))
    return d


def trial_outcome_ok(circuit: Circuit, address: int,
                     events: dict[int, list[tuple[int, str]]] | None) -> bool:
    """Basis-address fidelity indicator: measured (address, word) unchanged."""
    bits, _ = run_basis(circuit, basis_input(circuit, address), events)
    ok_addr = read_register(bits, circuit.reg("address")) == address
    ok_word = (read_register(bits, circuit.reg("bus"), big_endian=False)
               == expected_word(circuit, address))
    return ok_addr and ok_word


def inject_and_simulate(
    circuit: Circuit,
    rates: ErrorRates,
    seed: int,
    trial: int = 0,
    address: int | None = None,
    locations: list[Location] | None = None,
) -> TrialResult:
    """One noisy trial with a deterministic per-trial seed (seed, trial).

    Long-range links are charged only through a supplied ``locations`` table.
    """
    if locations is None:
        locations = build_location_table(circuit, rates)
    rng = _trial_rng(seed, trial)
    if address is None:
        address = int(rng.integers(circuit.params.N))
    events = sample_events(locations, rng)
    ok = True if not events else trial_outcome_ok(circuit, address, _events_dict(events))
    return TrialResult(ok=ok, address=address, events=events)


def monte_carlo_infidelity(
    circuit: Circuit,
    rates: ErrorRates,
    trials: int,
    seed: int,
    link_by_gate: dict | None = None,
    address: int | None = None,
    on_trial: Callable[[int, TrialResult], None] | None = None,
) -> dict:
    """Mean failure rate over basis-address queries with binomial stderr.

    ``on_trial(t, result)`` sees every trial as it finishes, e.g. to log it.
    """
    if trials < 1:
        raise InvalidParamsError("trials must be >= 1")
    locations = build_location_table(circuit, rates, link_by_gate)
    failures = 0
    for t in range(trials):
        r = inject_and_simulate(circuit, rates, seed, t, address=address,
                                locations=locations)
        failures += 0 if r.ok else 1
        if on_trial is not None:
            on_trial(t, r)
    p = failures / trials
    stderr = float(np.sqrt(p * (1.0 - p) / trials))
    return {"infidelity": p, "stderr": stderr, "trials": trials, "failures": failures}


# -- exhaustive single-error analysis -------------------------------------------

def _harmful_fraction(circuit: Circuit, loc: Location, addresses: list[int]) -> float:
    """Probability a firing of this location corrupts a uniform basis query."""
    w = 1.0 / (3 * len(loc.qubits))
    harmful = 0.0
    for q in loc.qubits:
        for pauli in _PAULIS:
            ev = {loc.slot: [(q, pauli)]}
            bad = sum(0 if trial_outcome_ok(circuit, a, ev) else 1 for a in addresses)
            harmful += w * bad / len(addresses)
    return harmful


def harmful_weight_by_rate(
    circuit: Circuit,
    locations: list[Location],
    addresses: list[int] | None = None,
) -> dict[str, float]:
    """First-order infidelity slope per error type.

    For each location the harmful fraction of its (qubit, Pauli) variants is
    averaged over the queried addresses; the per-type slope is the sum over
    that type's locations, so MC infidelity ~= sum_type rate * slope.
    """
    if addresses is None:
        addresses = list(range(circuit.params.N))
    slopes: dict[str, float] = {}
    for loc in locations:
        slopes[loc.rate_key] = slopes.get(loc.rate_key, 0.0) + _harmful_fraction(
            circuit, loc, addresses)
    return slopes


def first_order_infidelity(
    circuit: Circuit,
    locations: list[Location],
    addresses: list[int] | None = None,
) -> float:
    """Exact first-order expectation sum(rate * harmful fraction).

    Unlike the per-type slopes this handles mixed per-location rates, e.g.
    derived long-range errors that grow with the link length.
    """
    if addresses is None:
        addresses = list(range(circuit.params.N))
    return sum(loc.rate * _harmful_fraction(circuit, loc, addresses)
               for loc in locations)


@dataclass
class ContainmentReport:
    """Classification of every injected single Pauli at a fixed address."""
    address: int
    benign: list[tuple[int, int, str]]
    harmful: list[tuple[int, int, str]]
    phase_harmful: list[tuple[int, int, str]]  # benign on basis, harmful in superposition

    @property
    def benign_fraction(self) -> float:
        total = len(self.benign) + len(self.harmful)
        return len(self.benign) / total if total else 1.0


def containment_experiment(
    circuit: Circuit,
    address: int,
    sites: list[tuple[int, int]] | None = None,
    paulis: tuple[str, ...] = _PAULIS,
    check_superposition: bool = False,
) -> ContainmentReport:
    """Inject each single Pauli at each (slot, qubit) site and classify it.

    A site is benign when the basis-address measurement outcome is unchanged;
    with ``check_superposition``, sites that only corrupt the relative phase
    of a uniform-superposition query are reported separately.
    """
    if sites is None:
        nq = circuit.n_qubits
        sites = [(slot, q) for slot in range(len(circuit.gates) + 1) for q in range(nq)]
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


def query_path_routers(circuit: Circuit, address: int) -> set[tuple[int, int]]:
    """(level, pos) of the routers a basis-address query activates."""
    p = circuit.params
    bits = address_bits(address, p.n)
    middle = bits[p.d:]
    path = set()
    pos = 0
    for level in range(p.tree_depth):
        path.add((level, pos))
        pos = (pos << 1) | middle[level] if level < len(middle) else pos << 1
    return path


def off_path_router_qubits(circuit: Circuit, address: int, word: int = 0) -> list[int]:
    path = query_path_routers(circuit, address)
    qubits: list[int] = []
    for (level, pos, w), router in circuit.routers.items():
        if w == word and (level, pos) not in path:
            qubits.extend(router.all())
    return sorted(set(qubits))
