"""Exact circuit execution and Pauli-error injection.

One engine backs every analysis. Every gate the builders emit is a
reversible classical gate (a permutation of basis states), so basis inputs
stay basis states even under injected Paulis, at any circuit size, and
superposition inputs are handled exactly by linearity. The engine
``run_lanes`` is bit-sliced: each qubit is one Python int whose bit i is
lane i, so one pass over the gate list applies every gate to every lane
with one to three bitwise operations, single Paulis are per-lane X/Y/Z
masks, and the global phase quadrant is kept in two lane planes.

Every analysis asks one question, answered by one query pass,
``_query_lanes``: each lane queries one address (its input and wanted
output planes from ``_query_planes``) under its own faults, and the pass
reports the lanes whose measured (address, word) differs from the table.
``monte_carlo_infidelity`` runs the faulty trials of each block of trials
through it, each with its own flip masks; ``containment_experiment``,
``first_order_infidelity``, ``harmful_weight_by_rate`` and
``lookup_correct`` run their (site, address) queries through it site-major
under one Pauli (``_query_passes``), each pass holding whole address
groups, whose planes are made once per call. The exhaustive analyses first
collapse equivalent single faults (``_fault_classes``): a Pauli acts as at
the next gate on its qubit, and on a basis query Y measures as X and Z as
no fault, so one X per distinct (next-gate slot, qubit) class and one
fault-free group answer every injection. For a circuit whose fault-free
run keeps its address register (every built lookup does; any other is an
InvalidParamsError), the superposition check flags every basis-benign X or
Y, whose own lane keeps its register but misses its ideal output (the gates
are a permutation), so that lane matches no ideal output; and a Z iff its
qubit's fault-free bit b varies over the addresses, which one Y per class
reads off the ``hi`` phase plane. Those Z verdicts and the register check
do not depend on the query's address, so they are computed once per
circuit and kept on it (``_AnalysisState``); the basis verdicts at an
address and the first-order counts are computed on every call.
``run_basis`` (one lane) is the plain state-propagation entry point.

One function, ``_site_table``, makes the fault sites, as numpy arrays read
off the circuit's gate view (a rate per gate ``kind``, candidate qubits from
the padded ``operands`` matrix, idle runs from ``touches``): one row per
gate or link site and one per idle run, a run of k idle layers
firing with the composed probability 3/4 (1 - (1 - 4p/3)^k). The Monte
Carlo samples it, built once per call; ``build_location_table`` writes it
out as Locations, a run of k layers as k equal sites at the one-layer rate,
and the first-order analyses query each distinct Location once. Monte Carlo
trials come in blocks of ``_BLOCK``, each drawn from its own (seed, block)
generator by skip sampling per (rate, arity) group, so a block costs
O(hits), not O(sites x trials), and trial t depends on (seed, t // _BLOCK)
and t % _BLOCK alone.
"""
from __future__ import annotations

import itertools
import operator
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import InvalidParamsError
from .ir import Circuit, GateKind
from .layout import LongRangeLink, long_range_error
from .params import ErrorRates, address_bits

# -- bit-sliced lane engine -----------------------------------------------------

_PAULIS = ("X", "Y", "Z")
_PAULI_MASKS = {"X": (1, 0, 0), "Y": (0, 1, 0), "Z": (0, 0, 1)}

#: lanes one pass carries: a Monte Carlo pass at most this many trials, an
#: exhaustive pass as many whole address groups as fit (at least one), so
#: the planes of a pass (and its memory) do not grow with the number of
#: injections or trials an analysis asks for
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
    rows = circuit.rows
    s = planes
    lo = hi = 0
    X, CC_X, CNOT, SWAP, CSWAP, CCNOT = (GateKind.X, GateKind.CC_X, GateKind.CNOT,
                                         GateKind.SWAP, GateKind.CSWAP, GateKind.CCNOT)
    stops = sorted(slot for slot in faults if slot < len(rows))
    stops.append(len(rows))
    pos = 0
    for stop in stops:
        for g in rows[pos:stop]:
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


def _lane_bits(plane: int, lanes: int) -> np.ndarray:
    """Bit i of ``plane`` as element i, for the first ``lanes`` lanes."""
    return np.unpackbits(np.frombuffer(plane.to_bytes(-(-lanes // 8), "little"), np.uint8),
                         count=lanes, bitorder="little")


def run_basis(
    circuit: Circuit,
    init_bits: int,
    events: dict[int, list[tuple[int, str]]] | None = None,
) -> tuple[int, int]:
    """Propagate one basis state; returns (bits, phase quadrant 0..3).

    ``events[slot]`` lists (qubit, pauli) errors applied before gate ``slot``;
    slot == len(gates) applies after the final gate. The one-lane case of
    :func:`run_lanes`. ``init_bits`` outside [0, 2**n_qubits), a slot or
    qubit that is not an integer in [0, len(gates)] or [0, n_qubits), and a
    Pauli other than X, Y or Z are InvalidParamsErrors.
    """
    G, nq = len(circuit.rows), circuit.n_qubits
    if not 0 <= init_bits < 1 << nq:
        raise InvalidParamsError(f"init_bits {init_bits} outside [0, 2**{nq})")
    faults: LaneFaults = {}
    for slot, evs in (events or {}).items():
        try:
            ok = 0 <= operator.index(slot) <= G and all(
                0 <= operator.index(q) < nq and p in _PAULI_MASKS for q, p in evs)
        except (TypeError, ValueError):
            ok = False
        if not ok:
            raise InvalidParamsError(f"events at slot {slot!r} need 0 <= slot <= {G} and "
                                     f"(qubit, Pauli) pairs, 0 <= qubit < {nq}, Pauli X, Y or Z")
        faults[slot] = [(q, *_PAULI_MASKS[p]) for q, p in evs]
    planes = [init_bits >> q & 1 for q in range(nq)]
    lo, hi = run_lanes(circuit, planes, 1, faults)
    return sum(bit << q for q, bit in enumerate(planes)), lo | hi << 1


# -- error locations -----------------------------------------------------------

_GATE_RATE_KEY = {
    GateKind.SWAP: "eps_s",
    GateKind.CSWAP: "eps_cs",
    GateKind.CNOT: "eps_c",
    GateKind.CCNOT: "eps_cc",
}
#: each kind's rate key by its ``GateArrays.kind`` index (None: never fails)
_KIND_KEY = np.array([_GATE_RATE_KEY.get(kind) for kind in GateKind], dtype=object)
#: a link's (m, resource), which alone sets its error rate
_LINK_PAIR = operator.attrgetter("m", "resource")


@dataclass(frozen=True)
class Location:
    """A potential fault site: one gate, one long-range link, or one idle step."""
    slot: int                 # event applied before this gate index
    qubits: tuple[int, ...]   # candidate qubits (one is hit per event)
    rate_key: str
    rate: float


@dataclass(frozen=True)
class ErrorEvent:
    slot: int
    qubit: int
    pauli: str
    rate_key: str


@dataclass
class TrialResult:
    ok: bool
    address: int
    events: list[ErrorEvent] = field(default_factory=list)


def _idle_run_rate(p: float, layers: int) -> float:
    """Firing probability of ``layers`` idle layers at rate ``p`` as one site.

    One idle layer applies X, Y or Z with probability p/3 each; k of them in
    a row compose to the identity with weight (1 + 3 (1 - 4p/3)^k) / 4 and to
    each Pauli with an equal share of the rest. Only the product of a run's
    Paulis reaches the output, so the run is one site firing with
    probability 3/4 (1 - (1 - 4p/3)^k), then a uniform Pauli.
    """
    return 0.75 * (1.0 - (1.0 - p / 0.75) ** layers)


class _SiteTable(NamedTuple):
    """Every fault site as arrays, grouped by (rate, arity).

    Row i is a gate or link site (in gate order) or an idle run (by qubit and
    layer): it fires with probability ``rate[i]`` before gate ``slot[i]`` and
    then hits one of its first ``arity[i]`` ``operands`` with X, Y or Z.
    ``layers[i]`` is its number of idle layers (1 for a gate or link site).
    ``rows[start[g]:start[g] + size[g]]`` are the rows of group g, in order;
    ``p[g]`` and ``variants[g]`` (3 x arity) are its rate and its number of
    (operand, Pauli) outcomes.
    """
    slot: np.ndarray
    operands: np.ndarray
    arity: np.ndarray
    keys: list[str]
    rate: np.ndarray
    layers: np.ndarray
    rows: np.ndarray
    start: np.ndarray
    size: np.ndarray
    p: np.ndarray
    variants: np.ndarray


def _site_table(circuit: Circuit, rates: ErrorRates,
                link_by_gate: dict[int, LongRangeLink] | None = None) -> _SiteTable:
    """All fault sites with their firing rates; the one place sites are made.

    A gate's rate and key come from its kind (``gate_arrays.kind``) and its
    candidate qubits from ``gate_arrays.operands``. Long-range-flagged gates
    draw from their link's error (:func:`layout.long_range_error`, once per
    distinct (m, resource)) instead of their local gate rate; a firing link
    hits one endpoint. The idle layers a qubit sits between two
    of its gates are one ``eps_i`` run charged before the later gate, firing
    at :func:`_idle_run_rate`. Gate and link sites come first, then idle
    runs by qubit and layer; zero-rate sites are dropped.
    """
    view = circuit.gate_arrays
    kind_rate = np.array([0.0 if key is None else getattr(rates, key) for key in _KIND_KEY])
    rate, key = kind_rate[view.kind], _KIND_KEY[view.kind]
    if link_by_gate:
        # a link's rate is set by its (m, resource): one long_range_error per pair
        pairs = list(map(_LINK_PAIR, link_by_gate.values()))
        link_rate = {pair: long_range_error(link, rates)
                     for pair, link in dict(zip(pairs, link_by_gate.values())).items()}
        link_gate = np.fromiter(link_by_gate, np.intp, len(link_by_gate))
        rate[link_gate] = list(map(link_rate.__getitem__, pairs))
        key[link_gate] = "eps_l"
    gate = np.flatnonzero(rate > 0)
    slot, rate, keys = gate, rate[gate], key[gate].tolist()
    site_arity, operands = view.arity[gate], view.operands[gate]
    layers = np.ones(len(gate), dtype=np.int64)
    if rates.eps_i > 0:
        # a qubit's touches are in layer order (ASAP), so each gap between two is a run
        run_q, run_slot = np.divmod(view.touches[:-1], len(circuit.rows) + 1)
        run_k = np.diff(view.layer[run_slot]) - 1
        run = (run_q[1:] == run_q[:-1]) & (run_k > 0)
        run_q, run_slot, run_k = run_q[1:][run], run_slot[1:][run], run_k[run]
        idle = np.full((len(run_q), operands.shape[1]), -1, dtype=np.intp)
        idle[:, 0] = run_q
        slot = np.concatenate([slot, run_slot])
        operands = np.concatenate([operands, idle])
        site_arity = np.concatenate([site_arity, np.ones(len(run_q), dtype=np.intp)])
        keys = keys + ["eps_i"] * len(run_q)
        # one _idle_run_rate per distinct run length
        by_length = np.zeros(run_k.max(initial=0) + 1)
        lengths = np.flatnonzero(np.bincount(run_k))
        by_length[lengths] = [_idle_run_rate(rates.eps_i, k) for k in lengths.tolist()]
        rate = np.concatenate([rate, by_length[run_k]])
        layers = np.concatenate([layers, run_k])
    rows = np.lexsort((site_arity, rate))
    r, a = rate[rows], site_arity[rows]
    new = np.ones(len(rows), dtype=bool)
    new[1:] = (r[1:] != r[:-1]) | (a[1:] != a[:-1])
    start = np.flatnonzero(new)
    size = np.diff(np.r_[start, len(rows)])
    return _SiteTable(slot, operands, site_arity, keys, rate, layers, rows, start, size,
                      r[start], 3 * a[start])


def build_location_table(
    circuit: Circuit,
    rates: ErrorRates,
    link_by_gate: dict[int, LongRangeLink] | None = None,
) -> list[Location]:
    """:func:`_site_table`'s sites as Locations, one per idle layer.

    Rows keep their order; a gate or link row is one Location, an idle run
    of k layers k equal ``eps_i`` Locations at rate ``eps_i``.
    """
    table = _site_table(circuit, rates, link_by_gate)
    rows = circuit.rows
    locs = []
    for slot, q, key, rate, k in zip(table.slot.tolist(), table.operands[:, 0].tolist(),
                                     table.keys, table.rate.tolist(), table.layers.tolist()):
        if key == "eps_i":
            locs += [Location(slot, (q,), key, rates.eps_i)] * k
        else:
            locs.append(Location(slot, rows[slot][1], key, rate))
    return locs


# -- the Monte Carlo stream -----------------------------------------------------

#: trials per block of the Monte Carlo stream. Trial t is trial t % _BLOCK of
#: block t // _BLOCK, and a block's draws come from its own (seed, block)
#: generator, so a trial's address, events and outcome do not depend on the
#: number of trials, the order of blocks or how a run is split into calls.
#: Large enough that a block's fixed costs (a generator, a few numpy calls)
#: vanish per trial, small enough that a short run samples few unused trials.
_BLOCK = 1 << 10


def _block_rng(seed: int, block: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=(seed, block)))


def _block_draws(table: _SiteTable, N: int,
                 rng: np.random.Generator) -> tuple[np.ndarray, ...]:
    """One block's addresses and fault hits, from the block's generator.

    Draws one uniform address per trial, then the hits of every group by
    skip sampling: the gaps between a group's hits along its _BLOCK x size
    cells (trial-major, cell = trial x size + member) are geometric, which
    is exactly independent per-cell firing, at a cost of O(hits). Each round
    draws ``ceil(mu + 6 sqrt(mu) + 8)`` gaps for every group whose cells are
    not yet covered (mu: its expected hits), as one call. Then one draw per
    hit picks its (operand, Pauli) variant. Returns the addresses and, per
    hit in draw order, its trial, row, operand and Pauli index.
    """
    addresses = rng.integers(N, size=_BLOCK)
    cells = _BLOCK * table.size
    mean = cells * table.p
    batch = np.ceil(mean + 6 * np.sqrt(mean) + 8).astype(np.int64)
    reached = np.zeros(len(cells), dtype=np.int64)   # first cell not yet sampled
    groups, hit_cells = [], []
    active = np.arange(len(cells))
    while len(active):
        n = batch[active]
        group = np.repeat(active, n)
        gaps = rng.geometric(table.p[group])
        ends = np.cumsum(n)
        total = np.cumsum(gaps)
        sums = np.add.reduceat(gaps, ends - n)   # per active group
        cell = reached[group] + total - np.repeat(total[ends - 1] - sums, n) - 1
        inside = cell < cells[group]
        groups.append(group[inside])
        hit_cells.append(cell[inside])
        reached[active] += sums
        active = active[reached[active] < cells[active]]
    group = np.concatenate(groups) if groups else np.zeros(0, dtype=np.int64)
    cell = np.concatenate(hit_cells) if hit_cells else np.zeros(0, dtype=np.int64)
    variant = rng.integers(table.variants[group])
    size = table.size[group]
    row = table.rows[table.start[group] + cell % size]
    return addresses, cell // size, row, table.operands[row, variant // 3], variant % 3


def _lane_planes(values: np.ndarray, width: int, big_endian: bool) -> list[int]:
    """Per register bit i of ``width``, the lanes whose value has bit i set."""
    shift = np.arange(width - 1, -1, -1) if big_endian else np.arange(width)
    bits = np.packbits((values & 1 << shift[:, None]).astype(bool), axis=1, bitorder="little")
    data, step = bits.tobytes(), bits.shape[1]
    return [int.from_bytes(data[i * step:(i + 1) * step], "little") for i in range(width)]


def _query_planes(circuit: Circuit, addresses: np.ndarray) -> list[int]:
    """Lane i as a basis query of ``addresses[i]``: the planes of the address
    register (big-endian) and then of the bus (little-endian), holding each
    lane's address and table word, the query's input and wanted output."""
    return (_lane_planes(addresses, len(circuit.reg("address")), True)
            + _lane_planes(circuit.gate_arrays.words[addresses], len(circuit.reg("bus")), False))


def _query_lanes(circuit: Circuit, lanes: int, want: list[int],
                 masks: dict[tuple[int, int], int] | None = None,
                 pauli: str = "X") -> tuple[int, list[int], int, int]:
    """Run ``lanes`` basis queries given as :func:`_query_planes`; the one
    query pass.

    ``masks[slot, qubit]`` marks the lanes that get ``pauli`` on that qubit
    before gate ``slot``. Returns (wrong, planes, lo, hi): ``wrong`` marks
    the lanes whose measured (address, word) differs from their query's
    address and table word, and the rest is :func:`run_lanes`' state after
    the pass.
    """
    address, bus = circuit.reg("address"), circuit.reg("bus")
    planes = [0] * circuit.n_qubits
    for q, plane in zip(address, want):
        planes[q] = plane
    x, y, z = _PAULI_MASKS[pauli]
    faults: LaneFaults = {}
    for (slot, q), hit in (masks or {}).items():
        faults.setdefault(slot, []).append((q, x and hit, y and hit, z and hit))
    lo, hi = run_lanes(circuit, planes, lanes, faults)
    wrong = 0
    for q, plane in zip(address + bus, want):
        wrong |= planes[q] ^ plane
    return wrong, planes, lo, hi


def _run_block(circuit: Circuit, table: _SiteTable, seed: int, block: int, lo: int, hi: int,
               with_events: bool):
    """Trials block x _BLOCK + [lo, hi) of the stream: (addresses, ok, events).

    The whole block is drawn (:func:`_block_draws`); the range's trials with
    a bit flip run as the lanes of passes of at most ``_MAX_LANES``. Only bit
    flips change a basis query's measured (address, word), so a lane's faults
    are one X mask per (slot, qubit): the XOR of its X and Y hits there, as
    two flips in one trial cancel. Z hits and the phase are not tracked.
    ``events[i]`` lists trial lo + i's hits as :class:`ErrorEvent`, ordered
    by slot and then site, when ``with_events`` is set (else None).
    """
    addresses, trial, row, qubit, pauli = _block_draws(table, circuit.params.N,
                                                       _block_rng(seed, block))
    addresses = addresses[lo:hi]
    mine = (trial >= lo) & (trial < hi)
    trial, row, qubit, pauli = trial[mine] - lo, row[mine], qubit[mine], pauli[mine]
    slot = table.slot[row]
    order = np.lexsort((row, slot, trial))
    trial, row, qubit, pauli, slot = (x[order] for x in (trial, row, qubit, pauli, slot))
    ok = np.ones(hi - lo, dtype=bool)
    flip = pauli != 2
    faulty, lane = np.unique(trial[flip], return_inverse=True)
    flip_slot, flip_qubit = slot[flip], qubit[flip]
    for first in range(0, len(faulty), _MAX_LANES):
        lane_trials = faulty[first:first + _MAX_LANES]
        lanes = len(lane_trials)
        a, b = np.searchsorted(lane, (first, first + lanes))
        flips: dict[tuple[int, int], int] = {}
        for s, q, i in zip(flip_slot[a:b].tolist(), flip_qubit[a:b].tolist(),
                           (lane[a:b] - first).tolist()):
            flips[s, q] = flips.get((s, q), 0) ^ 1 << i
        wrong, *_ = _query_lanes(circuit, lanes, _query_planes(circuit, addresses[lane_trials]),
                                 flips)
        ok[lane_trials] = _lane_bits(wrong, lanes) == 0
    events = None
    if with_events:
        events = [[] for _ in range(hi - lo)]
        keys = table.keys
        for t, s, q, p, r in zip(trial.tolist(), slot.tolist(), qubit.tolist(),
                                 pauli.tolist(), row.tolist()):
            events[t].append(ErrorEvent(s, q, _PAULIS[p], keys[r]))
    return addresses, ok, events


def _run_trials(circuit: Circuit, table: _SiteTable, seed: int, trials: range,
                on_trial: Callable[[int, TrialResult], None] | None) -> int:
    """Run the stream's ``trials`` block by block; returns the failures.

    ``on_trial(t, result)`` sees every trial, in order.
    """
    failures = 0
    for block in range(trials.start // _BLOCK, -(-trials.stop // _BLOCK)):
        lo = max(trials.start - block * _BLOCK, 0)
        hi = min(trials.stop - block * _BLOCK, _BLOCK)
        addresses, ok, events = _run_block(circuit, table, seed, block, lo, hi,
                                           on_trial is not None)
        failures += int(np.count_nonzero(~ok))
        if on_trial is not None:
            t0 = block * _BLOCK + lo
            for i, (a, good) in enumerate(zip(addresses.tolist(), ok.tolist())):
                on_trial(t0 + i, TrialResult(good, a, events[i]))
    return failures


def monte_carlo_infidelity(
    circuit: Circuit,
    rates: ErrorRates,
    trials: int,
    seed: int,
    link_by_gate: dict | None = None,
    on_trial: Callable[[int, TrialResult], None] | None = None,
) -> dict:
    """Mean failure rate over basis-address queries with binomial stderr.

    Trials are drawn in blocks of ``_BLOCK`` from a (seed, block) generator
    over the merged site table, each block's faulty trials run as the lanes
    of one pass; trial t's address, events and outcome depend on
    (seed, t // _BLOCK) and t % _BLOCK alone. ``on_trial(t, result)`` sees
    every trial, in order, e.g. to log it. ``trials`` and ``seed`` are read
    as integers (``operator.index``); one that is not an integer, ``trials``
    below 1 and a negative ``seed`` are InvalidParamsErrors.
    """
    try:
        trials, seed = operator.index(trials), operator.index(seed)
    except TypeError:
        raise InvalidParamsError(
            f"trials and seed must be integers, got {trials!r} and {seed!r}") from None
    if trials < 1:
        raise InvalidParamsError("trials must be >= 1")
    if seed < 0:
        raise InvalidParamsError(f"seed must be >= 0, got {seed}")
    table = _site_table(circuit, rates, link_by_gate)
    failures = _run_trials(circuit, table, seed, range(trials), on_trial)
    p = failures / trials
    stderr = float(np.sqrt(p * (1.0 - p) / trials))
    return {"infidelity": p, "stderr": stderr, "trials": trials, "failures": failures}


# -- exhaustive single-error analysis -------------------------------------------

def _query_passes(circuit: Circuit, sites: list[tuple[int, int] | None], pauli: str,
                  addresses: list[int] | np.ndarray):
    """Run every (site, address) basis query as one lane, site-major.

    Lane g injects ``pauli`` at sites[g // len(addresses)] (None: no fault)
    into a query of address addresses[g % len(addresses)]. A pass holds whole address
    groups, as many as fit in ``_MAX_LANES`` and at least one. The query
    planes of one group are made once per call; a pass of k groups takes
    each as one multiply by the repunit sum_j 2**(j * len(addresses)),
    j < k. Yields, per pass, (first site, sites, wrong, planes, lo, hi),
    the last four from :func:`_query_lanes`.
    """
    period = len(addresses)
    want = _query_planes(circuit, np.asarray(addresses, dtype=np.int64))
    group = (1 << period) - 1
    step = max(1, _MAX_LANES // period)
    for first in range(0, len(sites), step):
        chunk = sites[first:first + step]
        k = len(chunk)
        masks: dict[tuple[int, int], int] = {}
        for j, site in enumerate(chunk):
            if site is not None:
                masks[site] = masks.get(site, 0) | group << j * period
        repunit = ((1 << k * period) - 1) // group
        yield first, k, *_query_lanes(circuit, k * period, [p * repunit for p in want],
                                      masks, pauli)


def _wrong_counts(circuit: Circuit, sites: list[tuple[int, int] | None], pauli: str,
                  addresses: list[int]) -> np.ndarray:
    """Per site, how many of its queries measure a wrong (address, word)."""
    period = len(addresses)
    counts = np.zeros(len(sites), dtype=np.int64)
    for first, k, wrong, *_ in _query_passes(circuit, sites, pauli, addresses):
        counts[first:first + k] = _lane_bits(wrong, k * period).reshape(k, period).sum(axis=1)
    return counts


def lookup_correct(circuit: Circuit) -> bool:
    """Every fault-free basis query returns its address and table word."""
    return not _wrong_counts(circuit, [None], "X", list(range(circuit.params.N))).any()


def _fault_classes(circuit: Circuit, slot: np.ndarray,
                   qubit: np.ndarray) -> tuple[list[tuple[int, int] | None], np.ndarray]:
    """Collapse the single faults at sites (slot[i], qubit[i]).

    A Pauli on qubit q before gate s acts as the same Pauli before the first
    gate at or after s that touches q (len(gates) if none): the gates in
    between leave q's bit, and so the phase the Pauli adds, alone. Returns
    (classes, cls): classes[0] is None (no fault) and classes[k] the k-th
    distinct (next-gate slot, qubit); site i's Paulis act as at
    classes[cls[i]]. A site outside 0 <= slot <= len(gates) and
    0 <= qubit < n_qubits is an InvalidParamsError.
    """
    G, nq = len(circuit.rows), circuit.n_qubits
    if len(slot) and not (0 <= slot.min() and slot.max() <= G
                          and 0 <= qubit.min() and qubit.max() < nq):
        raise InvalidParamsError(f"sites need 0 <= slot <= {G} and 0 <= qubit < {nq}")
    span = G + 1   # slot codes 0..len(gates) per qubit
    touches = circuit.gate_arrays.touches
    code = qubit * span + slot
    nxt = touches[touches.searchsorted(code)]
    code = np.where(nxt // span == qubit, nxt, qubit * span + span - 1)
    classes = np.unique(code)
    return ([None, *zip((classes % span).tolist(), (classes // span).tolist())],
            classes.searchsorted(code) + 1)


def _harmful_fractions(circuit: Circuit, locations: list[Location]) -> list[float]:
    """Per location, the probability a firing corrupts a uniform basis query.

    Equal locations (the layers of one idle run) are queried once. A basis
    query measures the same (address, word) under Y as under X and under Z
    as with no fault, so one X per :func:`_fault_classes` class and the
    fault-free group give every (qubit, Pauli) variant's count; the sum runs
    over X, Y and Z per qubit, as one query per variant would. A location
    without qubits is an InvalidParamsError.
    """
    N = circuit.params.N
    index: dict[Location, int] = {}
    of = [index.setdefault(loc, len(index)) for loc in locations]
    if any(not loc.qubits for loc in index):
        raise InvalidParamsError("a Location needs at least one qubit")
    pairs = [(loc.slot, q) for loc in index for q in loc.qubits]
    site = np.fromiter(itertools.chain.from_iterable(pairs), np.int64, 2 * len(pairs))
    classes, cls = _fault_classes(circuit, site[0::2], site[1::2])
    wrong = _wrong_counts(circuit, classes, "X", list(range(N)))
    z = int(wrong[0])
    flips = iter(wrong[cls].tolist())
    fraction = []
    for loc in index:
        w = 1.0 / (3 * len(loc.qubits))
        harmful = 0.0
        for x in itertools.islice(flips, len(loc.qubits)):
            harmful += w * x / N
            harmful += w * x / N
            harmful += w * z / N
        fraction.append(harmful)
    return [fraction[i] for i in of]


def harmful_weight_by_rate(circuit: Circuit, locations: list[Location]) -> dict[str, float]:
    """First-order infidelity slope per error type.

    For each location the harmful fraction of its (qubit, Pauli) variants is
    averaged over all N addresses; the per-type slope is the sum over that
    type's locations, so MC infidelity ~= sum_type rate * slope.
    """
    slopes: dict[str, float] = {}
    for loc, harmful in zip(locations, _harmful_fractions(circuit, locations)):
        slopes[loc.rate_key] = slopes.get(loc.rate_key, 0.0) + harmful
    return slopes


def first_order_infidelity(circuit: Circuit, locations: list[Location]) -> float:
    """Exact first-order expectation sum(rate * harmful fraction).

    Unlike the per-type slopes this handles mixed per-location rates, e.g.
    derived long-range errors that grow with the link length.
    """
    return sum(loc.rate * harmful for loc, harmful in
               zip(locations, _harmful_fractions(circuit, locations)))


@dataclass
class ContainmentReport:
    """Classification of every injected single Pauli at a fixed address."""
    address: int
    benign: list[tuple[int, int, str]]
    harmful: list[tuple[int, int, str]]
    phase_harmful: list[tuple[int, int, str]]  # benign on basis, harmful in superposition


@dataclass
class _AnalysisState:
    """What the analyses of one circuit share across calls: facts that
    depend on its gates and registers alone, not on a call's address or
    sites. Kept on the circuit (:func:`_analysis_state`) and filled as
    callers ask.

    ``keeps_address`` is whether the fault-free run keeps the address
    register at every address (None until first asked); ``z_harmful`` maps
    each (slot, qubit) site asked about so far to its
    :func:`_phase_harmful` verdict. Both are deterministic and only ever
    set or added to, so two threads on one circuit can at worst both
    compute the same value: a circuit stays safe to share across threads.
    """
    keeps_address: bool | None = None
    z_harmful: dict[tuple[int, int], bool] = field(default_factory=dict)


def _analysis_state(circuit: Circuit) -> _AnalysisState:
    """``circuit``'s :class:`_AnalysisState`, made on first use."""
    state = circuit.__dict__.get("_analysis_state")
    if state is None:
        # setdefault is atomic: concurrent first calls keep one state
        state = circuit.__dict__.setdefault("_analysis_state", _AnalysisState())
    return state


def _phase_harmful(circuit: Circuit, sites: list[tuple[int, int]]) -> np.ndarray:
    """Per site: does a Z there lower a uniform-superposition query's
    overlap with the ideal output below 1?

    A Z adds the phase 2b, b the qubit's fault-free bit there, and keeps
    every bit, so it is harmful iff b varies over the addresses. One Y per
    site finds b: it adds the phase 1 + 2b, so with one fault per lane its
    ``hi`` plane is b. X and Y need no pass (:func:`containment_experiment`)
    when the fault-free run keeps the address register; any other circuit
    is an InvalidParamsError. Neither answer depends on a call's address,
    so both are computed once per circuit: the fault-free N-lane check on
    the first call, and one Y per site (in passes of whole address groups)
    the first time a call asks about that site (:class:`_AnalysisState`).
    """
    N = circuit.params.N
    addresses = np.arange(N)
    state = _analysis_state(circuit)
    if state.keeps_address is None:
        want = _query_planes(circuit, addresses)
        _, planes, _, _ = _query_lanes(circuit, N, want)
        state.keeps_address = all(planes[q] == p for q, p in zip(circuit.reg("address"), want))
    if not state.keeps_address:
        raise InvalidParamsError(
            "the superposition check needs a circuit whose fault-free run keeps "
            "its address register")
    known = state.z_harmful
    new = [site for site in dict.fromkeys(sites) if site not in known]
    if new:
        high = np.zeros(len(new), dtype=np.int64)
        for first, k, _, _, _, hi in _query_passes(circuit, new, "Y", addresses):
            high[first:first + k] = _lane_bits(hi, k * N).reshape(k, N).sum(axis=1)
        known.update(zip(new, ((high > 0) & (high < N)).tolist()))
    return np.array([known[site] for site in sites], dtype=bool)


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
    of a uniform-superposition query are reported separately, and a circuit
    whose fault-free run changes its address register is an
    InvalidParamsError. ``sites`` defaults to every (slot, qubit); an
    address that is not an integer (``operator.index``) in [0, N), a site
    that is not two integers inside 0 <= slot <= len(gates) and
    0 <= qubit < n_qubits, and a Pauli other than X, Y or Z are
    InvalidParamsErrors. The report lists every injection, site by site;
    the basis queries run one X per :func:`_fault_classes` class, on every
    call.

    The superposition check flags every basis-benign X and Y: the lane of
    ``address`` keeps its register but not its ideal output (the gates
    after the fault are a permutation and the fault changed the state), and
    as the ideal map keeps the register it matches no other ideal output,
    so the overlap is at most (N - 1) / N. A basis-benign Z is flagged iff
    its qubit's fault-free bit varies over the addresses
    (:func:`_phase_harmful`, one Y per class). Those Z verdicts and the
    register check do not depend on ``address``, so they are computed once
    per circuit: a sweep over the addresses runs each class's Y once.
    """
    N, G, nq = circuit.params.N, len(circuit.rows), circuit.n_qubits
    try:
        address = operator.index(address)
    except TypeError:
        raise InvalidParamsError(f"address {address!r} is not an integer") from None
    if not 0 <= address < N:
        raise InvalidParamsError(f"address {address} outside [0, {N})")
    for pauli in paulis:
        if pauli not in _PAULIS:
            raise InvalidParamsError(f"unknown Pauli {pauli!r}, expected X, Y or Z")
    if sites is None:
        slot = np.repeat(np.arange(G + 1), nq)
        qubit = np.tile(np.arange(nq), G + 1)
    else:
        try:
            pairs = set(map(len, sites)) <= {2}
            site = np.fromiter(map(operator.index, itertools.chain.from_iterable(sites)),
                               np.int64)
        except (TypeError, OverflowError):
            pairs = False
        if not pairs:
            raise InvalidParamsError("sites must be (slot, qubit) pairs of integers")
        slot, qubit = site[0::2], site[1::2]
    classes, cls = _fault_classes(circuit, slot, qubit)
    wrong = _wrong_counts(circuit, classes, "X", [address])
    # per injection (site-major, as listed): its class and Pauli; a Z
    # measures as no fault (class 0)
    of, pauli = cls[:, None], np.array([_PAULIS.index(p) for p in paulis], dtype=np.int64)
    harmful = (wrong[np.where(pauli == 2, 0, of)] > 0).ravel()
    injections = [(s, q, p) for s, q in zip(slot.tolist(), qubit.tolist()) for p in paulis]
    benign = list(itertools.compress(injections, (~harmful).tolist()))
    report = ContainmentReport(address, benign,
                               list(itertools.compress(injections, harmful.tolist())), [])
    if check_superposition:
        flagged = ((pauli != 2) | _phase_harmful(circuit, classes[1:])[of - 1]).ravel()[~harmful]
        report.benign = list(itertools.compress(benign, (~flagged).tolist()))
        report.phase_harmful = list(itertools.compress(benign, flagged.tolist()))
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
