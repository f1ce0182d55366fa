"""Exact circuit execution and Pauli-error injection.

One engine backs every analysis. Every gate the builders emit is a
reversible classical gate (a permutation of basis states), so basis inputs
stay basis states even under injected Paulis, at any circuit size, and
superposition inputs are handled exactly by linearity. The engine
``run_lanes`` is bit-sliced: each qubit is one Python int whose bit i is
lane i, so one pass over the gate list applies every gate to every lane
with one to three bitwise operations, single Paulis are per-lane X/Y/Z
masks, and the global phase quadrant is kept in two lane planes.
``run_basis`` is its one-lane case (one Monte Carlo trial); ``run_linear``
runs a superposition's components as lanes; ``containment_experiment``
runs all its injections at the address as one pass (and, with the
superposition check, the basis-benign ones times every address as a
second); ``first_order_infidelity`` and ``harmful_weight_by_rate`` run
locations x qubits x Paulis x addresses as lanes; ``lookup_correct`` runs
every address as one pass. A pass carries at most ``_MAX_LANES`` lanes.
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


# -- bit-sliced lane engine -----------------------------------------------------

_PAULIS = ("X", "Y", "Z")
_PAULI_MASKS = {"X": (1, 0, 0), "Y": (0, 1, 0), "Z": (0, 0, 1)}

#: most lanes one pass carries, so the planes of a pass (and its memory) do
#: not grow with the number of injections an analysis asks for
_MAX_LANES = 1 << 14

#: per slot, (qubit, X-mask, Y-mask, Z-mask) faults applied before that gate
LaneFaults = dict[int, list[tuple[int, int, int, int]]]


def run_lanes(circuit: Circuit, planes: list[int], lanes: int,
              faults: LaneFaults | None = None) -> tuple[int, int]:
    """Run ``circuit`` on ``lanes`` basis states at once; the one gate loop.

    ``planes[q]`` holds qubit q of every lane (bit i is lane i) and is
    updated in place. ``faults[slot]`` entries act before gate ``slot``
    (slot == len(gates): after the last gate) on the lanes of each mask.
    Returns the global phase quadrant as two lane planes (lo, hi): lane i
    ends with phase 1j ** (lo_i + 2 * hi_i).
    """
    full = (1 << lanes) - 1
    faults = faults or {}
    gates = circuit.gates
    s = planes
    lo = hi = 0
    X, CC_X, CNOT, SWAP, CSWAP, CCNOT = (GateKind.X, GateKind.CC_X, GateKind.CNOT,
                                         GateKind.SWAP, GateKind.CSWAP, GateKind.CCNOT)
    stops = sorted(slot for slot in faults if slot < len(gates))
    stops.append(len(gates))
    pos = 0
    for stop in stops:
        for g in gates[pos:stop]:
            kind, qs = g[0], g[1]
            if kind is CSWAP:
                c, a, b = qs
                d = (s[a] ^ s[b]) & s[c]
                s[a] ^= d
                s[b] ^= d
            elif kind is CNOT:
                s[qs[1]] ^= s[qs[0]]
            elif kind is SWAP:
                a, b = qs
                s[a], s[b] = s[b], s[a]
            elif kind is CCNOT:
                s[qs[2]] ^= s[qs[0]] & s[qs[1]]
            elif kind is X or kind is CC_X:
                s[qs[0]] ^= full
            else:
                raise InvalidParamsError(f"lane engine cannot apply {kind}")
        pos = stop
        # Y|b> = i(-1)^b |1-b> adds 1 + 2b to the phase, Z|b> adds 2b
        for q, x, y, z in faults.get(stop, ()):
            b = s[q]
            hi ^= (lo & y) ^ (b & (y | z))
            lo ^= y
            s[q] = b ^ (x | y)
    return lo, hi


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


def run_basis(
    circuit: Circuit,
    init_bits: int,
    events: dict[int, list[tuple[int, str]]] | None = None,
) -> tuple[int, int]:
    """Propagate one basis state; returns (bits, phase quadrant 0..3).

    ``events[slot]`` lists (qubit, pauli) errors applied before gate ``slot``;
    slot == len(gates) applies after the final gate. The one-lane case of
    :func:`run_lanes`.
    """
    planes = _transpose([init_bits], circuit.n_qubits)
    lo, hi = run_lanes(circuit, planes, 1, _broadcast(events, 1))
    return _transpose(planes, 1)[0], lo | hi << 1


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

def _query_passes(circuit: Circuit, faults: list[tuple[int, int, str] | None],
                  addresses: list[int]):
    """Run every (fault, address) basis query as one lane, fault-major.

    Lane g injects fault g // len(addresses) (None: no fault) into a query of
    address addresses[g % len(addresses)]. A pass holds at most _MAX_LANES
    lanes and may end inside a fault's address group. Yields, per pass,
    (first lane, lanes, wrong, planes, lo, hi): ``wrong`` marks the lanes
    whose measured (address, word) differs from their query's, and the rest
    is :func:`run_lanes`' state after the pass.
    """
    period = len(addresses)
    group = (1 << period) - 1
    bus = circuit.reg("bus")
    checked = circuit.reg("address") + bus
    inputs = _transpose([basis_input(circuit, a) for a in addresses], circuit.n_qubits)
    wanted = _transpose([basis_input(circuit, a)
                         | pack_register(expected_word(circuit, a), bus, big_endian=False)
                         for a in addresses], circuit.n_qubits)
    total = len(faults) * period
    for start in range(0, total, _MAX_LANES):
        lanes = min(_MAX_LANES, total - start)
        full = (1 << lanes) - 1
        # a one-period pattern times the repunit (one set bit per period)
        # repeats it along the pass
        skip = start % period
        periods = -(-(skip + lanes) // period)
        repunit = ((1 << periods * period) - 1) // group
        planes = [(p * repunit >> skip) & full for p in inputs]
        masks: dict[tuple[int, int], list[int]] = {}
        for f in range(start // period, (start + lanes - 1) // period + 1):
            if faults[f] is None:
                continue
            slot, q, pauli = faults[f]
            off = f * period - start
            own = (group << off if off >= 0 else group >> -off) & full
            masks.setdefault((slot, q), [0, 0, 0])[_PAULIS.index(pauli)] |= own
        lane_faults: LaneFaults = {}
        for (slot, q), (x, y, z) in masks.items():
            lane_faults.setdefault(slot, []).append((q, x, y, z))
        lo, hi = run_lanes(circuit, planes, lanes, lane_faults)
        wrong = 0
        for q in checked:
            wrong |= planes[q] ^ ((wanted[q] * repunit >> skip) & full)
        yield start, lanes, wrong, planes, lo, hi


def _count_groups(plane: int, start: int, lanes: int, period: int,
                  counts: np.ndarray) -> None:
    """Add to counts[f] the set lanes of fault f's address group in a pass."""
    bits = np.unpackbits(np.frombuffer(plane.to_bytes(-(-lanes // 8), "little"), np.uint8),
                         bitorder="little")
    first = start // period
    hits = np.bincount((np.flatnonzero(bits) + start) // period - first)
    counts[first:first + len(hits)] += hits


def _wrong_counts(circuit: Circuit, faults: list[tuple[int, int, str] | None],
                  addresses: list[int]) -> list[int]:
    """Per fault, how many of its queries measure a wrong (address, word)."""
    counts = np.zeros(len(faults), dtype=np.int64)
    for start, lanes, wrong, *_ in _query_passes(circuit, faults, addresses):
        _count_groups(wrong, start, lanes, len(addresses), counts)
    return counts.tolist()


def lookup_correct(circuit: Circuit) -> bool:
    """Every fault-free basis query returns its address and table word."""
    return _wrong_counts(circuit, [None], list(range(circuit.params.N))) == [0]


def _harmful_fractions(circuit: Circuit, locations: list[Location],
                       addresses: list[int]) -> list[float]:
    """Per location, the probability a firing corrupts a uniform basis query."""
    variants = [(loc.slot, q, pauli) for loc in locations
                for q in loc.qubits for pauli in _PAULIS]
    wrong = _wrong_counts(circuit, variants, addresses)
    fractions = []
    pos = 0
    for loc in locations:
        w = 1.0 / (3 * len(loc.qubits))
        harmful = 0.0
        for bad in wrong[pos:pos + 3 * len(loc.qubits)]:
            harmful += w * bad / len(addresses)
        fractions.append(harmful)
        pos += 3 * len(loc.qubits)
    return fractions


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
    for loc, harmful in zip(locations, _harmful_fractions(circuit, locations, addresses)):
        slopes[loc.rate_key] = slopes.get(loc.rate_key, 0.0) + harmful
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
    return sum(loc.rate * harmful for loc, harmful in
               zip(locations, _harmful_fractions(circuit, locations, addresses)))


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


def _phase_harmful(circuit: Circuit, faults: list[tuple[int, int, str]]) -> list[bool]:
    """Per fault: does it lower a uniform-superposition query's overlap with
    the ideal output below 1?

    Exact in integers. When the ideal map keeps the address register, lane
    (fault, a) lands in the ideal output set iff its output is the ideal
    output of the address its register ends with; with c_k landed lanes of
    phase k, the overlap is ((c0 - c2)^2 + (c1 - c3)^2) / N^2.
    """
    N = 1 << circuit.params.n
    addresses = list(range(N))
    addr_reg = circuit.reg("address")
    ideal = [0] * circuit.n_qubits   # bit a: qubit q of address a's ideal output
    for start, _, _, planes, _, _ in _query_passes(circuit, [None], addresses):
        for q, plane in enumerate(planes):
            ideal[q] |= plane << start
    queries = _transpose([basis_input(circuit, a) for a in addresses], circuit.n_qubits)
    if any(ideal[q] != queries[q] for q in addr_reg):
        sup_in = uniform_address_superposition(circuit)
        sup_ideal = run_linear(circuit, sup_in)
        return [sparse_overlap(sup_ideal, run_linear(circuit, sup_in, {slot: [(q, p)]}))
                < 1.0 - 1e-9 for slot, q, p in faults]
    width = len(addr_reg)
    set_by = [(q, [a for a in addresses if ideal[q] >> a & 1])
              for q in range(circuit.n_qubits) if q not in addr_reg]
    counts = np.zeros((4, len(faults)), dtype=np.int64)
    for start, lanes, _, planes, lo, hi in _query_passes(circuit, faults, addresses):
        full = (1 << lanes) - 1
        ends_at = []   # per address: the lanes whose register ends holding it
        for a in addresses:
            at = full
            for i, q in enumerate(addr_reg):
                at &= planes[q] if a >> (width - 1 - i) & 1 else ~planes[q]
            ends_at.append(at)
        missed = 0
        for q, hits in set_by:
            want = 0
            for a in hits:
                want |= ends_at[a]
            missed |= planes[q] ^ want
        landed = full & ~missed
        for k, phase in enumerate((~lo & ~hi, lo & ~hi, ~lo & hi, lo & hi)):
            _count_groups(landed & phase, start, lanes, N, counts[k])
    c0, c1, c2, c3 = counts
    return ((c0 - c2) ** 2 + (c1 - c3) ** 2 < N * N).tolist()


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
    injections = [(slot, q, pauli) for slot, q in sites for pauli in paulis]
    wrong = _wrong_counts(circuit, injections, [address])
    benign = [inj for inj, w in zip(injections, wrong) if not w]
    report = ContainmentReport(address, benign,
                               [inj for inj, w in zip(injections, wrong) if w], [])
    if check_superposition:
        flagged = _phase_harmful(circuit, benign)
        report.benign = [inj for inj, bad in zip(benign, flagged) if not bad]
        report.phase_harmful = [inj for inj, bad in zip(benign, flagged) if bad]
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
