"""Per-injection, per-trial and per-gate references for the batched paths
of ``qlut``.

These are the loops the bit-sliced analyses replace: one basis run per
(site, Pauli) and address, one superposition run per basis-benign
injection, and one basis run per faulty Monte Carlo trial after a
per-site loop over the block stream's hits, with the idle runs merged from
a table built one layer at a time. The lane references run every
(site, Pauli) injection as its own lanes and count a superposition
query's overlap over all four phases, where the exhaustive analyses query
one X lane per class of equivalent single faults and read X, Y and Z's
superposition verdicts off one Y per class.
The per-gate loops are the ones the array-speed instance pipeline replaces:
``emit`` one gate at a time with op lists rebuilt per repetition and one
``new_qubit`` call per qubit, the H-tree placement through dicts keyed by
(level, pos) and one ``_Placer`` call per cell, link
classification through ``GridPlacement.distance`` per operand pair, the
schedule walk over per-qubit dicts, and the gate-list export with one
join per gate. ``trial_log`` writes the trial log with ``json.dumps``.
They are slow and kept only so the tests can compare the batched paths
against them.
"""
from __future__ import annotations

import json
import math
from unittest import mock

import numpy as np

from conftest import trial_outcome_ok
from qlut import builders, layout, simulator
from qlut.errors import InvalidParamsError, PlacementOverflowError
from qlut.ir import Circuit, CircuitBuilder, Gate, GateKind, Role, RouterIds, Stage
from qlut.layout import (
    GridPlacement, LinkResource, LongRangeLink, Schedule, long_range_error,
)
from qlut.params import ErrorRates, address_bits
from qlut.simulator import ContainmentReport, ErrorEvent, Location, TrialResult
from state_helpers import run_linear, sparse_overlap, uniform_address_superposition

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
                locs.append(Location(idx, g.qubits, "eps_l", rate))
            continue
        key = GATE_RATE_KEY.get(g.kind)
        if key is None:
            continue
        rate = getattr(rates, key)
        if rate > 0:
            locs.append(Location(idx, g.qubits, key, rate))
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


def site_table(circuit: Circuit, rates: ErrorRates,
               link_by_gate: dict[int, LongRangeLink] | None = None) -> list[Location]:
    """The Monte Carlo's sites: the per-layer table with each idle run (the
    repeated idle entries of one qubit before one gate) as one site firing
    with probability 3/4 (1 - (1 - 4p/3)^k)."""
    runs: list[list] = []
    for loc in location_table(circuit, rates, link_by_gate):
        if loc.rate_key == "eps_i" and runs and runs[-1][0] == loc:
            runs[-1][1] += 1
        else:
            runs.append([loc, 1])
    return [Location(loc.slot, loc.qubits, loc.rate_key,
                     0.75 * (1.0 - (1.0 - loc.rate / 0.75) ** k) if loc.rate_key == "eps_i"
                     else loc.rate)
            for loc, k in runs]


def block_hits(sites: list[Location], block_size: int, N: int,
               rng) -> tuple[list[int], dict[tuple[int, int], tuple[int, str]]]:
    """One block's addresses and hits, {(trial, site index): (qubit, Pauli)}.

    Groups are the sites of one (rate, arity), in ascending order; a group's
    cells are trial x group size + member. Each round draws, for every group
    whose cells are not yet covered, ceil(mu + 6 sqrt(mu) + 8) geometric gaps
    between its hits (mu: its expected hits); then one (operand, Pauli)
    variant per hit, operand x 3 + Pauli.
    """
    addresses = rng.integers(N, size=block_size).tolist()
    groups: dict[tuple[float, int], list[int]] = {}
    for i, site in enumerate(sites):
        groups.setdefault((site.rate, len(site.qubits)), []).append(i)
    ordered = sorted(groups.items())
    cells = [block_size * len(rows) for _, rows in ordered]
    batch = []
    for ((rate, _), _), count in zip(ordered, cells):
        mean = count * rate
        batch.append(math.ceil(mean + 6 * math.sqrt(mean) + 8))
    reached = [0] * len(ordered)
    found = []   # (group, cell)
    active = list(range(len(ordered)))
    while active:
        gaps = rng.geometric(np.array([ordered[g][0][0] for g in active
                                       for _ in range(batch[g])])).tolist()
        for g in active:
            for _ in range(batch[g]):
                reached[g] += gaps.pop(0)
                if reached[g] <= cells[g]:
                    found.append((g, reached[g] - 1))
        active = [g for g in active if reached[g] < cells[g]]
    variants = rng.integers(np.array([3 * ordered[g][0][1] for g, _ in found],
                                     dtype=np.int64)).tolist()
    hits = {}
    for (g, cell), variant in zip(found, variants):
        rows = ordered[g][1]
        trial, member = divmod(cell, len(rows))
        site = sites[rows[member]]
        hits[trial, rows[member]] = (site.qubits[variant // 3], PAULIS[variant % 3])
    return addresses, hits


def trials(circuit: Circuit, sites: list[Location], count: int,
           seed: int) -> list[tuple[int, TrialResult]]:
    """The Monte Carlo stream: (t, result) per trial, from a per-site loop
    over the merged sites and one basis run each. Block k of
    ``simulator._BLOCK`` trials draws from the (seed, k) generator."""
    size = simulator._BLOCK
    out = []
    for block in range(-(-count // size)):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, block)))
        addresses, hits = block_hits(sites, size, circuit.params.N, rng)
        for t in range(min(size, count - block * size)):
            events = []
            for i, site in enumerate(sites):
                if (t, i) in hits:
                    q, pauli = hits[t, i]
                    events.append(ErrorEvent(site.slot, q, pauli, site.rate_key))
            events.sort(key=lambda e: e.slot)
            by_slot: dict[int, list[tuple[int, str]]] = {}
            for e in events:
                by_slot.setdefault(e.slot, []).append((e.qubit, e.pauli))
            a = addresses[t]
            ok = True if not events else trial_outcome_ok(circuit, a, by_slot)
            out.append((block * size + t, TrialResult(ok=ok, address=a, events=events)))
    return out


def trial_log(stream: list[tuple[int, TrialResult]]) -> str:
    """``qlut simulate --log``'s lines for a stream of (t, result), each
    one ``json.dumps`` of the trial with sorted keys."""
    return "".join(json.dumps({
        "trial": t, "address": r.address, "ok": r.ok,
        "events": [{"slot": e.slot, "qubit": e.qubit, "pauli": e.pauli, "source": e.rate_key}
                   for e in r.events]}, sort_keys=True) + "\n" for t, r in stream)


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


LANE_CHUNK = 1024


def _chunked(analysis, circuit: Circuit, sites: list, *args) -> list:
    """``analysis(circuit, sites, *args)``, ``LANE_CHUNK`` sites at a time."""
    out: list = []
    for start in range(0, len(sites), LANE_CHUNK):
        out += np.asarray(analysis(circuit, sites[start:start + LANE_CHUNK], *args)).tolist()
    return out


def _lane_verdicts(analysis, circuit: Circuit, injections: list, *args) -> list:
    """``analysis`` per (slot, qubit, Pauli) injection, each its own lanes:
    the injections of one Pauli go together, ``LANE_CHUNK`` to a call (a
    pass's fault masks reach as far as its last lane, so one call's cost
    grows with its lanes squared)."""
    verdict = {}
    for pauli in dict.fromkeys(inj[2] for inj in injections):
        mine = [inj for inj in injections if inj[2] == pauli]
        verdict.update(zip(mine, _chunked(analysis, circuit, [inj[:2] for inj in mine],
                                          pauli, *args)))
    return [verdict[inj] for inj in injections]


def overlap_harmful(circuit: Circuit, sites: list[tuple[int, int]], pauli: str) -> list[bool]:
    """Per site: does ``pauli`` there lower a uniform-superposition query's
    overlap with the ideal output below 1?

    Lane (site, a) lands in the ideal output set iff its output is the ideal
    output of the address its register ends with (the ideal map keeps the
    address register); with c_k landed lanes of phase k, the overlap is
    ((c0 - c2)^2 + (c1 - c3)^2) / N^2.
    """
    N = circuit.params.N
    addresses = np.arange(N)
    addr_reg = circuit.reg("address")
    _, ideal, _, _ = simulator._query_lanes(circuit, N,
                                            simulator._query_planes(circuit, addresses))
    width = len(addr_reg)
    set_by = [(q, [a for a in range(N) if ideal[q] >> a & 1])
              for q in range(circuit.n_qubits) if q not in addr_reg]
    flagged = []
    for _, k, _, planes, lo, hi in simulator._query_passes(circuit, sites, pauli, addresses):
        full = (1 << k * N) - 1
        ends_at = []
        for a in range(N):
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
        group = (1 << N) - 1
        for j in range(k):
            c0, c1, c2, c3 = [((landed & phase) >> j * N & group).bit_count()
                              for phase in (~lo & ~hi, lo & ~hi, ~lo & hi, lo & hi)]
            flagged.append((c0 - c2) ** 2 + (c1 - c3) ** 2 < N * N)
    return flagged


def lane_containment(circuit: Circuit, address: int, sites: list[tuple[int, int]],
                     paulis: tuple[str, ...] = PAULIS,
                     check_superposition: bool = False) -> ContainmentReport:
    """The per-injection lane path: every (site, Pauli) as its own query,
    and every basis-benign one as its own superposition check, by the
    overlap count over all four phases."""
    injections = [(slot, q, pauli) for slot, q in sites for pauli in paulis]
    wrong = _lane_verdicts(simulator._wrong_counts, circuit, injections, [address])
    benign = [inj for inj, w in zip(injections, wrong) if not w]
    report = ContainmentReport(address, benign,
                               [inj for inj, w in zip(injections, wrong) if w], [])
    if check_superposition:
        flagged = _lane_verdicts(overlap_harmful, circuit, benign)
        report.benign = [inj for inj, bad in zip(benign, flagged) if not bad]
        report.phase_harmful = [inj for inj, bad in zip(benign, flagged) if bad]
    return report


def lane_harmful_fractions(circuit: Circuit, locations: list[Location]) -> list[float]:
    """The per-variant lane path: every distinct location's (qubit, Pauli)
    variants as their own queries over all addresses."""
    N = circuit.params.N
    distinct = list(dict.fromkeys(locations))
    variants = [(loc.slot, q, pauli) for loc in distinct
                for q in loc.qubits for pauli in PAULIS]
    wrong = _lane_verdicts(simulator._wrong_counts, circuit, variants, list(range(N)))
    fraction = {}
    pos = 0
    for loc in distinct:
        w = 1.0 / (3 * len(loc.qubits))
        harmful = 0.0
        for bad in wrong[pos:pos + 3 * len(loc.qubits)]:
            harmful += w * bad / N
        fraction[loc] = harmful
        pos += 3 * len(loc.qubits)
    return [fraction[loc] for loc in locations]


# -- per-gate build, link classification, schedule and export -----------------

class ScalarCircuitBuilder(CircuitBuilder):
    """The per-gate ``emit`` and ``extend`` that ``CircuitBuilder.emit_ops``
    replaces: a set for the duplicate check and a generator ``max`` per gate."""

    def emit(self, kind: GateKind, *qubits: int) -> None:
        if len(set(qubits)) != len(qubits):
            raise ValueError(f"duplicate operand in {kind}: {qubits}")
        layer = max(self._frontier[q] for q in qubits)
        for q in qubits:
            self._frontier[q] = layer + 1
        self.gates.append(Gate(kind, tuple(qubits), layer, self.stage, self.rep))

    def emit_ops(self, ops) -> None:
        for kind, qubits in ops:
            self.emit(kind, *qubits)

    def extend(self, gates) -> None:
        for g in gates:
            layer = max(self._frontier[q] for q in g.qubits)
            for q in g.qubits:
                self._frontier[q] = layer + 1
            self.gates.append(Gate(g.kind, g.qubits, layer, g.stage, g.rep))


class ScalarAssembler(builders._Assembler):
    """One ``new_qubit`` call per allocated qubit, and the op lists rebuilt
    for every repetition and every level."""

    def _allocate_tree(self, w):
        b, p = self.b, self.p
        D = p.tree_depth
        for level in range(D):
            for pos in range(1 << level):
                t = b.new_qubit(Role.ROUTER_STATUS, level, pos, w)
                inp = b.new_qubit(Role.ROUTER_INPUT, level, pos, w)
                if level == D - 1 and p.gamma >= 2:
                    left = b.new_qubit(Role.INTERMEDIATE, level, 2 * pos, w)
                    right = b.new_qubit(Role.INTERMEDIATE, level, 2 * pos + 1, w)
                else:
                    left = b.new_qubit(Role.ROUTER_LEFT, level, pos, w)
                    right = b.new_qubit(Role.ROUTER_RIGHT, level, pos, w)
                b.routers[(level, pos, w)] = RouterIds(t, inp, left, right)
        if D == 0:
            self.cells[w] = (b.new_qubit(Role.INTERMEDIATE, pos=0, word=w),)
        elif p.gamma >= 2:
            self.cells[w] = tuple(
                self._port(D - 1, j >> 1, w, j & 1) for j in range(p.lam))
        else:
            self.cells[w] = tuple(
                b.new_qubit(Role.INTERMEDIATE, level=D, pos=j, word=w)
                for j in range(p.lam))

    def _layer_ops(self, level, w):
        ops = []
        for pos in range(1 << level):
            ops += builders._router_ops(self.router(level, pos, w))
        return ops

    def _route_to_inputs_ops(self, target_level, w):
        ops = [(GateKind.SWAP, (self.inputs[w], self.router(0, 0, w).inp))]
        for lev in range(target_level):
            ops += self._layer_ops(lev, w)
            ops += self._transfer_ops(lev, w)
        return ops

    def _route_to_cells_ops(self, w):
        p = self.p
        D = p.tree_depth
        if D == 0:
            return [(GateKind.SWAP, (self.inputs[w], self.cells[w][0]))]
        ops = self._route_to_inputs_ops(D - 1, w)
        ops += self._layer_ops(D - 1, w)
        if p.gamma == 1:
            for j in range(p.lam):
                ops.append((GateKind.SWAP, (self._port(D - 1, j >> 1, w, j & 1),
                                            self.cells[w][j])))
        return ops

    def _load_ops(self, rep, w):
        p, tab = self.p, self.table
        ops = []
        for j in range(p.lam):
            a = p.lam * rep + j
            if self.sequential:
                nodes = [self.cells[w][j]] + self.hubs[j]
                for bit_w in range(p.b):
                    if tab.bit(a, bit_w):
                        ops.append((GateKind.CNOT, (nodes[bit_w // 2], self.regs[j][bit_w])))
            elif tab.bit(a, w):
                ops.append((GateKind.CNOT, (self._cell_source(j, w), self.cells[w][j])))
        return ops

    def stage2(self):
        b, p = self.b, self.p
        b.stage = Stage.II
        sweep = builders._LinearRouterSweep(b, self.addr[:p.d], self.ancs, self.q)
        for rep in range(p.repetitions):
            b.rep = rep
            sweep.advance(address_bits(rep, p.d) if p.d else ())
            fan = self._fanout_marker_ops()
            b.emit_ops(fan)
            for w in range(self.words):
                seg = self._marker_route_ops(w) + self._diffusion_ops(w)
                b.emit_ops(seg)
                b.emit_ops(self._load_ops(rep, w))
                b.emit_ops(seg[::-1])
            b.emit_ops(fan[::-1])
        sweep.advance(None)
        b.rep = 0


def build(builder, *args):
    """Run a ``qlut.builders`` builder on the per-gate emit and per-use op lists."""
    with mock.patch.object(builders, "CircuitBuilder", ScalarCircuitBuilder), \
            mock.patch.object(builders, "_Assembler", ScalarAssembler):
        return builder(*args)


def is_local(placement: GridPlacement, qubits: tuple[int, ...]) -> bool:
    for pivot in qubits:
        if all(placement.distance(pivot, q) <= 1 for q in qubits if q != pivot):
            return True
    return False


def classify_links(circuit: Circuit, placement: GridPlacement, distillation: bool = True,
                   free_levels: float = 0.0):
    """One gate at a time, with ``GridPlacement.distance`` per operand pair."""
    links: list[LongRangeLink] = []
    by_gate: dict[int, LongRangeLink] = {}
    for idx, g in enumerate(circuit.gates):
        if len(g.qubits) < 2 or is_local(placement, g.qubits):
            continue
        pairs = [(placement.distance(a, b), a, b)
                 for i, a in enumerate(g.qubits) for b in g.qubits[i + 1:]]
        m, src, dst = max(pairs)
        levels = sorted({circuit.qubits[q].level for q in g.qubits
                         if circuit.qubits[q].level >= 0})
        level = levels[0] if len(levels) >= 2 else None
        if level is not None and level < free_levels:
            resource = LinkResource.FREE
        elif distillation:
            resource = LinkResource.DISTILLED
        else:
            resource = LinkResource.GHZ
        link = LongRangeLink(idx, src, dst, m, level, resource.value)
        links.append(link)
        by_gate[idx] = link
    return links, by_gate


def build_schedule(circuit: Circuit, link_by_gate=None,
                   include_distillation_depth: bool = False) -> Schedule:
    """The discrete-event walk over per-qubit dicts."""
    link_by_gate = link_by_gate or {}
    avail: dict[int, int] = {}
    first: dict[int, int] = {}
    busy: dict[int, int] = {}
    status_role = {q for q, info in enumerate(circuit.qubits)
                   if info.role == Role.ROUTER_STATUS}
    # a circuit without these registers has no injection: tau counts from 0
    addr = set(circuit.registers.get("address", ()))
    inputs = set(circuit.registers.get("input", ()))
    branch_pairs = set()
    D = circuit.params.tree_depth if circuit.params else 0
    for level in range(D - 1):
        parent = circuit.routers[(level, 0, 0)]
        child = circuit.routers[(level + 1, 0, 0)]
        branch_pairs.add(frozenset((parent.left, child.inp)))
    tau: dict[int, int] = {}
    crossings: dict[int, int] = {level: 0 for level in range(max(0, D - 1))}
    inject_end = 0
    total = 0
    for idx, g in enumerate(circuit.gates):
        dur = 1
        link = link_by_gate.get(idx) if include_distillation_depth else None
        if link is not None and link.resource != LinkResource.FREE.value:
            dur = max(1, math.ceil(math.log2(max(2, link.m))))
        t0 = max((avail.get(q, 0) for q in g.qubits), default=0)
        t1 = t0 + dur
        total = max(total, t1)
        for q in g.qubits:
            avail[q] = t1
            first.setdefault(q, t0)
            busy[q] = busy.get(q, 0) + dur
        if g.kind == GateKind.CNOT and g.qubits[0] in addr and g.qubits[1] in inputs:
            inject_end = t1
        if g.kind == GateKind.SWAP and g.qubits[1] in status_role:
            level = circuit.qubits[g.qubits[1]].level
            tau[level] = max(tau.get(level, 0), t1 - inject_end)
        if (g.kind == GateKind.SWAP and g.stage == "I"
                and frozenset(g.qubits) in branch_pairs):
            level = min(circuit.qubits[q].level for q in g.qubits)
            crossings[level] += 1
    idle = {q: (avail[q] - first[q]) - busy[q] for q in avail}
    idle = {q: v for q, v in idle.items() if v > 0}
    return Schedule(total_depth=total, idle=idle, tau=tau, level_crossings=crossings)


def export_gate_list(circuit: Circuit, link_by_gate=None) -> str:
    """One f-string and one join per gate."""
    lines = []
    for idx, g in enumerate(circuit.gates):
        kind = g.kind
        suffix = ""
        if link_by_gate and idx in link_by_gate:
            link = link_by_gate[idx]
            if kind == GateKind.SWAP:
                kind = GateKind.LR_SWAP
            elif kind == GateKind.CNOT:
                kind = GateKind.LR_CNOT
            suffix = f" len={link.m}"
        ids = " ".join(str(q) for q in g.qubits)
        lines.append(f"LAYER {g.layer} STAGE {g.stage} {kind.value} {ids}{suffix}")
    return "\n".join(lines) + "\n"


def _ccw(d: tuple[int, int]) -> tuple[int, int]:
    return (-d[1], d[0])


def _neg(d: tuple[int, int]) -> tuple[int, int]:
    return (-d[0], -d[1])


def reserve_free_between(pl, a: tuple[int, int], b: tuple[int, int]) -> None:
    """Reserve the straight chain cells between two points where free."""
    (ax, ay), (bx, by) = a, b
    cells: list[tuple[int, int]] = []
    if ax == bx:
        cells = [(ax, y) for y in range(min(ay, by) + 1, max(ay, by))]
    elif ay == by:
        cells = [(x, ay) for x in range(min(ax, bx) + 1, max(ax, bx))]
    for xy in cells:
        if xy not in pl.taken:
            pl.reserved.add(xy)


def place_htree(circuit: Circuit) -> GridPlacement:
    """Router centers and directions in dicts keyed by (level, pos), and one
    ``_Placer`` method call per placed qubit and per reserved segment."""
    if circuit.meta.get("family") not in ("tree", "select_swap"):
        raise InvalidParamsError(
            "planar placement covers single-word tree circuits")
    p = circuit.params
    D = p.tree_depth
    pl = layout._Placer()
    disp = layout._tree_displacements(D)

    # pass 1: rigid router centers and orientations (these carry the geometry)
    to_parent: dict[tuple[int, int], tuple[int, int]] = {}
    centers: dict[tuple[int, int], tuple[int, int]] = {}
    if D > 0:
        centers[(0, 0)] = (0, 0)
        to_parent[(0, 0)] = layout._N
        for level in range(D - 1):
            neg_mag, pos_mag = disp[level]
            for pos in range(1 << level):
                c = centers[(level, pos)]
                tp = to_parent[(level, pos)]
                ldir, rdir = _ccw(tp), _neg(_ccw(tp))
                for dirn, child in ((ldir, 2 * pos), (rdir, 2 * pos + 1)):
                    mag = pos_mag if (dirn[0] + dirn[1]) > 0 else neg_mag
                    centers[(level + 1, child)] = (c[0] + dirn[0] * mag,
                                                   c[1] + dirn[1] * mag)
                    to_parent[(level + 1, child)] = _neg(dirn)
        anchor = centers[(0, 0)]
    else:
        anchor = (0, 0)

    # pass 2: quadruples (ports face their children; t points away from the
    # parent; contested spots fall back to free neighbors of the in qubit),
    # then the I/O cluster, whose preferred spots follow the figure
    for level in range(D):
        for pos in range(1 << level):
            c = centers[(level, pos)]
            tp = to_parent[(level, pos)]
            r = circuit.routers[(level, pos, 0)]
            ldir, rdir = _ccw(tp), _neg(_ccw(tp))
            away = (c[0] - tp[0], c[1] - tp[1])
            lpref = (c[0] + ldir[0], c[1] + ldir[1])
            rpref = (c[0] + rdir[0], c[1] + rdir[1])
            toward = (c[0] + tp[0], c[1] + tp[1])
            pl.put(r.inp, c)
            pl.put_near(r.left, [lpref, away, toward])
            pl.put_near(r.right, [rpref, away, toward])
            pl.put_near(r.t, [away, lpref, rpref, toward])
    layout._place_cluster(pl, circuit, anchor)

    # pass 3: best-effort GHZ-chain reservation along free straight segments
    for (level, pos), c in centers.items():
        if level == D - 1 or D == 0:
            continue
        r = circuit.routers[(level, pos, 0)]
        for port, child in ((r.left, 2 * pos), (r.right, 2 * pos + 1)):
            reserve_free_between(pl, pl.pos[port], centers[(level + 1, child)])

    # memory cells at leaf ports (separate qubits only when gamma = 1)
    if D == 0:
        pl.put_near(circuit.reg("cells")[0], [(0, 0), (-1, 0), (1, 0)])
    elif p.gamma == 1:
        for j, cell in enumerate(circuit.reg("cells")):
            r = circuit.routers[(D - 1, j >> 1, 0)]
            port = r.right if j & 1 else r.left
            px, py = pl.pos[port]
            ix, iy = pl.pos[r.inp]
            dirn = (px - ix, py - iy)
            perp = _ccw(dirn)
            straight = (px + dirn[0], py + dirn[1])
            sideways = [(px + perp[0], py + perp[1]), (px - perp[0], py - perp[1])]
            # single-router trees keep cells beside the ports (4x4 toy grid)
            ladder = sideways + [straight] if D == 1 else [straight] + sideways
            # distance-2 fallbacks: the load is then a flagged long-range CNOT
            ladder += [(px + 2 * dirn[0], py + 2 * dirn[1]),
                       (px + dirn[0] + perp[0], py + dirn[1] + perp[1]),
                       (px + dirn[0] - perp[0], py + dirn[1] - perp[1]),
                       (px + 2 * perp[0], py + 2 * perp[1]),
                       (px - 2 * perp[0], py - 2 * perp[1])]
            pl.put_near(cell, ladder)
    if "select_nodes" in circuit.registers:
        for node, cell in zip(circuit.reg("select_nodes"), circuit.reg("cells")):
            cxy = pl.pos[cell]
            try:
                pl.put_near(node, [(cxy[0] + d[0], cxy[1] + d[1])
                                   for d in (layout._N, layout._S, layout._E, layout._W,
                                             (1, 1), (-1, 1), (1, -1), (-1, -1))])
            except PlacementOverflowError:
                # the ladder is full: the first free cell of the nearest ring
                # (Chebyshev distance 2, 3, ...), by Manhattan distance, dx, dy
                r = 2
                while True:
                    ring = sorted((abs(dx) + abs(dy), dx, dy)
                                  for dx in range(-r, r + 1) for dy in range(-r, r + 1)
                                  if abs(dx) == r or abs(dy) == r)
                    cells = [(cxy[0] + dx, cxy[1] + dy) for _, dx, dy in ring]
                    free = [xy for xy in cells
                            if xy not in pl.taken and xy not in pl.reserved]
                    if free:
                        pl.put(node, free[0])
                        break
                    r += 1
    top_y = max(y for _, y in pl.pos.values())
    layout._place_strip(pl, circuit, top_y, anchor[0])

    # shift content to col >= 1 (spare margin column, matching the figures)
    min_x = min(x for x, _ in pl.pos.values())
    min_y = min(y for _, y in pl.pos.values())
    dx, dy = 1 - min_x, -min_y
    coords = {q: (y + dy, x + dx) for q, (x, y) in pl.pos.items()}
    reserved = {(y + dy, x + dx) for (x, y) in pl.reserved}
    max_col = max(c for _, c in coords.values())
    max_row = max(r for r, _ in coords.values())
    if len(set(coords.values())) != len(coords):
        raise PlacementOverflowError("placement is not injective")
    return GridPlacement(coords=coords, bounds=(max_col + 2, max_row + 1),
                         reserved=reserved)
