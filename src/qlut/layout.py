"""Planar grid placement, link classification, and the activation schedule.

Routers are placed by recursive bisection in the H-tree fractal pattern:
the root quadruple sits at the center with its T-shape opening toward the
I/O cluster, children alternate splitting axis, and displacement magnitudes
shrink as the recursion descends. Router centers are rigid; every other
qubit takes the first free cell (neither taken nor reserved) of its
candidate list, through the one search ``_Placer.put_near``.
Inter-level transfers become long-range links whose length m sets their
one price, :func:`long_range_error`.

Coordinates are (row, col); `row` grows upward to match the reference
diagrams. The depth-4 tree reproduces the published 16-location layout
verbatim (one spare column on each side, kept so the transcription reads
off the figure unchanged).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain, count, repeat
from operator import eq, itemgetter
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .errors import InvalidParamsError, PlacementOverflowError
from .ir import Circuit, GateKind, Role
from .params import ErrorRates

_new_tuple = tuple.__new__

# directions as (dx, dy); rotating left = toward the "left" output port
_N, _E, _S, _W = (0, 1), (1, 0), (0, -1), (-1, 0)


class LinkResource(str, Enum):
    DISTILLED = "DistilledBell"
    FREE = "FreeBudget"


class LongRangeLink(NamedTuple):
    gate_index: int
    source: int
    target: int
    m: int                 # Manhattan path length in grid cells
    level: int | None      # tree level of the parent router; None for I/O links
    resource: str


@dataclass
class GridPlacement:
    coords: dict[int, tuple[int, int]]   # qubit id -> (row, col)
    bounds: tuple[int, int]              # (width, height)
    reserved: set[tuple[int, int]] = field(default_factory=set)

    def distance(self, a: int, b: int) -> int:
        (ra, ca), (rb, cb) = self.coords[a], self.coords[b]
        return abs(ra - rb) + abs(ca - cb)

    @property
    def area(self) -> int:
        return self.bounds[0] * self.bounds[1]

    def to_json(self) -> dict:
        return {str(q): list(rc) for q, rc in sorted(self.coords.items())}


def _tree_displacements(depth: int) -> list[tuple[int, int]]:
    """Per-level (negative, positive) child displacement along the level axis.

    Depths up to 4 use the hand geometry of the published figures (the
    depth-4 entries are transcribed from the 16-location layout, including
    its asymmetric vertical split). Deeper trees use link lengths that halve
    exactly every two levels until they reach nearest-neighbor distance.
    """
    if depth <= 1:
        return []
    if depth == 2:
        return [(2, 2)]
    if depth == 3:
        return [(3, 3), (2, 2)]
    if depth == 4:
        return [(4, 4), (2, 3), (2, 2)]
    # box-halving from leaf boxes of pitch 4: the j-th split of an axis
    # displaces by 2^(splits_on_axis - j), so inter-router pitches halve
    # exactly every two levels while subtree boxes tile without overlap
    x_splits = (depth - 1 + 1) // 2
    y_splits = (depth - 1) // 2
    disp = []
    seen = {0: 0, 1: 0}
    for level in range(depth - 1):
        axis = level % 2
        total = x_splits if axis == 0 else y_splits
        c = 1 << (total - seen[axis])
        seen[axis] += 1
        disp.append((c, c))
    return disp


class _Placer:
    """The qubits placed so far (``pos``: qubit -> cell, ``taken``: cell ->
    qubit) and the cells kept free for GHZ chains (``reserved``)."""

    def __init__(self) -> None:
        self.pos: dict[int, tuple[int, int]] = {}
        self.taken: dict[tuple[int, int], int] = {}
        self.reserved: set[tuple[int, int]] = set()

    def put_near(self, qubit: int, candidates: Iterable[tuple[int, int]]) -> None:
        """Put ``qubit`` on the first candidate cell that is neither taken
        nor reserved; ``candidates`` may be any iterable, infinite too."""
        taken, reserved = self.taken, self.reserved
        first = None
        for xy in candidates:
            if xy not in taken and xy not in reserved:
                taken[xy], self.pos[qubit] = qubit, xy
                return
            if first is None:
                first = xy
        raise PlacementOverflowError(f"no free cell near {first} for qubit {qubit}")


def _up_ladder(xy: tuple[int, int]) -> list[tuple[int, int]]:
    """``xy`` and the 23 cells above it, bottom up."""
    x, y = xy
    return [(x, y + k) for k in range(24)]


def _select_offsets() -> Iterator[tuple[int, int]]:
    """Where a select node may sit around its memory cell: the 8-cell
    ladder, then ring after ring at Chebyshev distance 2, 3, ..., each
    nearest (Manhattan) first and then by (dx, dy)."""
    yield from (_N, _S, _E, _W, (1, 1), (-1, 1), (1, -1), (-1, -1))
    for r in count(2):
        ring = [(dx, dy) for dx in range(-r, r + 1) for dy in range(-r, r + 1)
                if max(abs(dx), abs(dy)) == r]
        yield from sorted(ring, key=lambda d: (abs(d[0]) + abs(d[1]), d))


def _place_cluster(pl: _Placer, circuit: Circuit, anchor: tuple[int, int]) -> None:
    """Input/bus staging plus the tree address bits around the root.

    Preferred spots follow the reference figure; on deep trees where leaf
    structures crowd the root, contested bits drift upward.
    """
    cx, cy = anchor
    p = circuit.params
    pl.put_near(circuit.reg("input")[0], _up_ladder((cx, cy + 1)))
    pl.put_near(circuit.reg("bus")[0], _up_ladder((cx, cy + 2)))
    addr = circuit.reg("address")
    tree_bits = addr[p.d:]
    if len(tree_bits) == 1 and p.d == 0:
        # toy-model arrangement: the single address bit adjacent to the
        # input staging keeps the whole N=2 query nearest-neighbor
        pl.put_near(tree_bits[0], _up_ladder((cx - 1, cy + 1)))
        pl.put_near(circuit.reg("control")[0], _up_ladder((cx + 1, cy + 1)))
        return
    for k, q in enumerate(tree_bits):
        off = k // 2 + 1
        side = -1 if k % 2 == 0 else 1
        row = cy + 2 if (k // 2) % 2 == 0 else cy + 1
        pl.put_near(q, _up_ladder((cx + side * off, row)))
    if p.d == 0:
        # no linear-router strip: the marker register joins the cluster
        pl.put_near(circuit.reg("control")[0], _up_ladder((cx - 1, cy + 1)))


def _place_strip(pl: _Placer, circuit: Circuit, top_y: int, cx: int) -> None:
    """Linear-router strip stacked above the tree bounding box.

    The AND ladder zigzags upward so every CCNOT is a local star
    (node s sits between its predecessor node and the next address bit);
    only the control's hop down to the tree input is long-range.
    """
    p = circuit.params
    prefix = circuit.reg("address")[:p.d]
    ancs = circuit.reg("mcx_anc")
    q = circuit.reg("control")[0]
    y0 = top_y + 1
    if p.d == 0:
        return  # the control marker lives in the cluster
    if p.d == 1:
        pl.put_near(prefix[0], _up_ladder((cx - 1, y0)))
        pl.put_near(q, _up_ladder((cx, y0)))
        return
    nodes = list(ancs) + [q]
    pl.put_near(prefix[0], _up_ladder((cx - 1, y0)))
    pl.put_near(nodes[0], _up_ladder((cx, y0)))
    pl.put_near(prefix[1], _up_ladder((cx + 1, y0)))
    for s in range(1, p.d - 1):
        pl.put_near(prefix[s + 1], _up_ladder((cx - 1, y0 + s)))
        pl.put_near(nodes[s], _up_ladder((cx, y0 + s)))


def place_htree(circuit: Circuit) -> GridPlacement:
    """Grid placement for single-word tree circuits (unified or reference).

    The tree is walked one level at a time, from the lists of the level's
    router centers and to-parent directions in router order.
    """
    if circuit.meta.get("family") not in ("tree", "select_swap"):
        raise InvalidParamsError(
            "planar placement covers single-word tree circuits")
    p = circuit.params
    D = p.tree_depth
    pl = _Placer()
    pos, taken, reserved, put_near = pl.pos, pl.taken, pl.reserved, pl.put_near
    tree = [[circuit.routers[(level, j, 0)] for j in range(1 << level)]
            for level in range(D)]

    # pass 1: rigid router centers and orientations (these carry the geometry);
    # a router facing its parent along tp has its left child along ccw(tp)
    centers, to_parent = ([[(0, 0)]], [[_N]]) if D else ([], [])
    for neg_mag, pos_mag in _tree_displacements(D):
        cs, tps = [], []
        for (cx, cy), (tx, ty) in zip(centers[-1], to_parent[-1]):
            for dx, dy in ((-ty, tx), (ty, -tx)):
                mag = pos_mag if dx + dy > 0 else neg_mag
                cs.append((cx + dx * mag, cy + dy * mag))
                tps.append((-dx, -dy))
        centers.append(cs)
        to_parent.append(tps)

    # pass 2: quadruples (ports face their children; t points away from the
    # parent; contested spots fall back to free neighbors of the in qubit),
    # then the I/O cluster, whose preferred spots follow the figure
    for cs, tps, routers in zip(centers, to_parent, tree):
        for c, (tx, ty), r in zip(cs, tps, routers):
            cx, cy = c
            lpref, rpref = (cx - ty, cy + tx), (cx + ty, cy - tx)
            away, toward = (cx - tx, cy - ty), (cx + tx, cy + ty)
            if c in taken:
                raise PlacementOverflowError(f"qubits {taken[c]} and {r.inp} both at {c}")
            taken[c], pos[r.inp] = r.inp, c
            put_near(r.left, (lpref, away, toward))
            put_near(r.right, (rpref, away, toward))
            put_near(r.t, (away, lpref, rpref, toward))
    _place_cluster(pl, circuit, (0, 0))

    # pass 3: best-effort GHZ-chain reservation along the free straight
    # segments between each port and its child's center
    for routers, kids in zip(tree, centers[1:]):
        kids = iter(kids)
        for r in routers:
            for port, (bx, by) in zip((r.left, r.right), kids):
                ax, ay = pos[port]
                if ax == bx:
                    for y in range(ay + 1, by) if ay < by else range(by + 1, ay):
                        if (ax, y) not in taken:
                            reserved.add((ax, y))
                elif ay == by:
                    for x in range(ax + 1, bx) if ax < bx else range(bx + 1, ax):
                        if (x, ay) not in taken:
                            reserved.add((x, ay))

    # memory cells at leaf ports (separate qubits only when gamma = 1)
    if D == 0:
        put_near(circuit.reg("cells")[0], ((0, 0), (-1, 0), (1, 0)))
    elif p.gamma == 1:
        for j, cell in enumerate(circuit.reg("cells")):
            r = tree[-1][j >> 1]
            px, py = pos[r.right if j & 1 else r.left]
            ix, iy = pos[r.inp]
            dx, dy = px - ix, py - iy     # outward from the router
            ux, uy = -dy, dx              # ccw of it
            straight = (px + dx, py + dy)
            sideways = ((px + ux, py + uy), (px - ux, py - uy))
            # single-router trees keep cells beside the ports (4x4 toy grid)
            ladder = (*sideways, straight) if D == 1 else (straight, *sideways)
            # distance-2 fallbacks: the load is then a flagged long-range CNOT
            ladder += ((px + 2 * dx, py + 2 * dy), (px + dx + ux, py + dy + uy),
                       (px + dx - ux, py + dy - uy), (px + 2 * ux, py + 2 * uy),
                       (px - 2 * ux, py - 2 * uy))
            put_near(cell, ladder)
    if "select_nodes" in circuit.registers:
        for node, cell in zip(circuit.reg("select_nodes"), circuit.reg("cells")):
            cx, cy = pos[cell]
            put_near(node, ((cx + dx, cy + dy) for dx, dy in _select_offsets()))
    _place_strip(pl, circuit, max(map(itemgetter(1), pos.values())), 0)

    # shift content to col >= 1 (spare margin column, matching the figures)
    xs, ys = zip(*pos.values())
    col, row = 1 - min(xs), -min(ys)
    coords = {q: (y + row, x + col) for q, (x, y) in pos.items()}
    if len(set(coords.values())) != len(coords):
        raise PlacementOverflowError("placement is not injective")
    return GridPlacement(coords=coords, bounds=(max(xs) + col + 2, max(ys) + row + 1),
                         reserved={(y + row, x + col) for x, y in reserved})


def _grid_arrays(placement: GridPlacement, n_qubits: int) -> tuple[np.ndarray, np.ndarray]:
    """(row, col) of every qubit, indexed by qubit id."""
    rc = np.fromiter(chain.from_iterable(map(placement.coords.__getitem__, range(n_qubits))),
                     np.intp, 2 * n_qubits)
    return rc[0::2], rc[1::2]


def classify_links(
    circuit: Circuit,
    placement: GridPlacement,
    free_levels: float = 0.0,
) -> tuple[list[LongRangeLink], dict[int, LongRangeLink]]:
    """Split every multi-qubit gate into local vs long-range-with-length-m.

    A gate is local when some pivot operand is grid-adjacent (Manhattan
    distance <= 1) to every other operand. A long-range gate's
    (m, source, target) is the largest (distance, a, b) over its operand
    pairs, a before b; its level is the lowest tree level among its
    operands when they span two or more distinct levels, else None. The
    verdicts depend on the operands alone, so each distinct multi-qubit
    row of ``gate_arrays.distinct`` is classified once, in one numpy pass
    with its -1 padding masked out, and reaches its gates through
    ``gate_arrays.op``; links come in gate order. A link whose level is
    below ``free_levels`` rides the free budget (FreeBudget); every other
    link is a DistilledBell.
    """
    n = circuit.n_qubits
    view = circuit.gate_arrays
    distinct = view.distinct
    if distinct.shape[1] < 2:
        return [], {}
    tup = np.flatnonzero(distinct[:, 1] >= 0)
    row, col = _grid_arrays(placement, n)
    level_of = np.fromiter(map(itemgetter(1), circuit.qubits), np.intp, n)
    q = distinct[tup]
    real = q >= 0
    r, c = row[q], col[q]
    # operand pairs a before b; padding trails the operands, so a pair is
    # real when its b is
    operand = np.arange(q.shape[1])
    i, j = np.nonzero(operand[:, None] < operand)
    pair_d = np.abs(r[:, i] - r[:, j]) + np.abs(c[:, i] - c[:, j])
    apart = (pair_d > 1) & real[:, j]
    # a pivot is adjacent to every other operand when no apart pair has it
    has = (operand == i[:, None]) | (operand == j[:, None])   # pair x operand
    far = ~(real & ~(apart @ has)).any(axis=1)
    tup, q, pair_d, real = tup[far], q[far], pair_d[far], real[far]
    # lexicographic max of (distance, a, b) as one integer key
    key = np.where(real[:, j], (pair_d * n + q[:, i]) * n + q[:, j], -1)
    best = key.argmax(axis=1)
    pick = np.arange(len(tup))
    m, src, dst = pair_d[pick, best], q[pick, i[best]], q[pick, j[best]]
    lv = np.where(real, level_of[q], -1)
    low = np.where(lv >= 0, lv, np.iinfo(np.intp).max).min(axis=1)
    level = np.where(low < lv.max(axis=1), low, -1)
    # far tuple k's verdict sits at k in the per-tuple lists; gate g's at far_of[op[g]]
    far_of = np.full(len(distinct), -1)
    far_of[tup] = pick
    k = far_of[view.op]
    gate = np.flatnonzero(k >= 0)
    k = k[gate]
    levels = [None if lv < 0 else lv for lv in level.tolist()]
    free, rest = LinkResource.FREE.value, LinkResource.DISTILLED.value
    resource = [free if lv is not None and lv < free_levels else rest for lv in levels]
    kl = k.tolist()
    # tuple.__new__ skips the NamedTuple's Python-level __new__
    index = gate.tolist()
    links = list(map(_new_tuple, repeat(LongRangeLink), zip(
        index, src[k].tolist(), dst[k].tolist(), m[k].tolist(),
        map(levels.__getitem__, kl), map(resource.__getitem__, kl))))
    return links, dict(zip(index, links))


def level_pitches(circuit: Circuit, placement: GridPlacement) -> dict[int, list[int]]:
    """Inter-router distances (parent in to child in) grouped by parent level.

    This is the geometric quantity that halves exactly every two levels; the
    transfer-link length m sits one cell shorter because the port is offset
    one step toward the child.
    """
    pitches: dict[int, list[int]] = {}
    D = circuit.params.tree_depth
    for (level, pos, w), r in circuit.routers.items():
        if w != 0 or level >= D - 1:
            continue
        for child in (2 * pos, 2 * pos + 1):
            other = circuit.routers[(level + 1, child, 0)]
            pitches.setdefault(level, []).append(
                placement.distance(r.inp, other.inp))
    return pitches


def long_range_error(link: LongRangeLink, rates: ErrorRates) -> float:
    """Per-operation failure probability of a long-range gate.

    A link inside the free budget never fails; every other link fails as
    :meth:`ErrorRates.long_range` gives for its length m.
    """
    return 0.0 if link.resource == LinkResource.FREE.value else rates.long_range(link.m)


@dataclass
class Schedule:
    """Gate timing with per-router address-setting windows and idle totals."""
    total_depth: int
    idle: dict[int, int]                  # qubit id -> idle steps
    tau: dict[int, int]                   # tree level -> address-setting duration
    level_crossings: dict[int, int]       # parent level -> Stage-I inter-level SWAPs

    @property
    def idle_total(self) -> int:
        return sum(self.idle.values())


def _walked_starts(circuit: Circuit, durations: list[int]) -> np.ndarray:
    """Start time of every gate when gate ``i`` takes ``durations[i]``
    steps: each gate starts when its last operand comes free."""
    avail = [0] * circuit.n_qubits
    starts = []
    append = starts.append
    # unrolled for the one-, two- and three-qubit gates the builders emit:
    # this loop is the whole cost the flag adds
    for qubits, d in zip(map(itemgetter(1), circuit.rows), durations):
        k = len(qubits)
        if k == 2:
            a, b = qubits
            x, y = avail[a], avail[b]
            t0 = x if x > y else y
            avail[a] = avail[b] = t0 + d
        elif k == 3:
            a, b, c = qubits
            t0 = max(avail[a], avail[b], avail[c])
            avail[a] = avail[b] = avail[c] = t0 + d
        elif k == 1:
            a, = qubits
            t0 = avail[a]
            avail[a] = t0 + d
        else:
            t0 = max([avail[q] for q in qubits], default=0)
            for q in qubits:
                avail[q] = t0 + d
        append(t0)
    return np.array(starts, dtype=np.intp)


def build_schedule(
    circuit: Circuit,
    link_by_gate: dict[int, LongRangeLink] | None = None,
    include_distillation_depth: bool = False,
) -> Schedule:
    """Gate timing of the gate list, as arrays over ``circuit.gate_arrays``.

    Every gate takes one step, and then a gate starts at its ``layer``:
    ``CircuitBuilder.emit_ops`` puts each gate on the first layer after
    every operand's previous gate, which is the as-soon-as-possible start
    time of the gate order. This relies on the IR invariant that every
    gate's layer was assigned that way (every Circuit comes from a
    CircuitBuilder). With the distillation-depth flag, long-range gates
    outside the free budget take ceil(log2 m) steps instead (the default
    models Bell pairs as readily available), and the start times are walked
    again with those durations.

    A qubit idles for every step between its first gate's start and its last
    gate's end that none of its gates covers; ``idle`` lists the qubits that
    idle at all, in order of first use. Address-setting windows tau are
    measured from the end of the latest injection copy (an address-to-input
    CNOT; 0 before one, or without those registers) to the level's last
    status deposit (a SWAP into a status qubit). Level crossings count the
    Stage-I SWAPs along the canonical all-left branch, in either operand order.
    """
    view = circuit.gate_arrays
    n = circuit.n_qubits
    steps = {}
    if include_distillation_depth and link_by_gate:
        # only non-free long-range gates of length m > 2 take more than one step
        for idx, link in link_by_gate.items():
            if link.resource != LinkResource.FREE.value and link.m > 2:
                steps[idx] = math.ceil(math.log2(link.m))
    dur = np.ones(len(view.arity), np.intp)
    if steps:
        dur[list(steps)] = list(steps.values())
        t0 = _walked_starts(circuit, dur.tolist())
    else:
        t0 = view.layer
    t1 = t0 + dur

    # idle = last end - first start - busy steps, per qubit in the operand array
    qubit = view.qubit
    pos = np.arange(len(qubit))
    first = np.full(n, len(qubit))
    last = np.full(n, -1)
    np.minimum.at(first, qubit, pos)
    np.maximum.at(last, qubit, pos)
    used = np.flatnonzero(last >= 0)
    used = used[np.argsort(first[used])]
    gate = np.repeat(np.arange(len(dur)), view.arity)
    busy = np.bincount(qubit, dur[gate] if steps else None, n).astype(np.intp, copy=False)
    gaps = t1[gate[last[used]]] - t0[gate[first[used]]] - busy[used]
    keep = gaps > 0
    idle = dict(zip(used[keep].tolist(), gaps[keep].tolist()))

    # tau and crossings: only two-qubit gates whose operands already
    # qualify by role are candidates; kind and stage are checked per gate
    is_addr, is_input = np.zeros(n, bool), np.zeros(n, bool)
    is_addr[list(circuit.registers.get("address", ()))] = True
    is_input[list(circuit.registers.get("input", ()))] = True
    is_status = np.fromiter(map(eq, map(itemgetter(0), circuit.qubits),
                                repeat(Role.ROUTER_STATUS)), bool, n)
    # canonical query branch: the all-left path (level, 0) -> (level+1, 0);
    # each qubit is on at most one of its SWAP operand pairs
    partner = np.full(n, -1)
    D = circuit.params.tree_depth if circuit.params else 0
    for level in range(D - 1):
        parent, child = circuit.routers[(level, 0, 0)], circuit.routers[(level + 1, 0, 0)]
        partner[parent.left], partner[child.inp] = child.inp, parent.left
    pair = np.flatnonzero(view.arity == 2)
    a, b = view.operands[pair, 0], view.operands[pair, 1]
    inject, deposit, branch = is_addr[a] & is_input[b], is_status[b], partner[a] == b
    hit = np.flatnonzero(inject | deposit | branch)
    tau: dict[int, int] = {}
    crossings: dict[int, int] = {level: 0 for level in range(max(0, D - 1))}
    inject_end = 0
    rows, qubits = circuit.rows, circuit.qubits
    CNOT, SWAP = GateKind.CNOT, GateKind.SWAP
    for g, end, is_inject, is_deposit, is_branch in zip(
            pair[hit].tolist(), t1[pair[hit]].tolist(), inject[hit].tolist(),
            deposit[hit].tolist(), branch[hit].tolist()):
        kind, (q0, q1), _, stage, _ = rows[g]
        if kind is CNOT:
            if is_inject:
                inject_end = end
        elif kind is SWAP:
            if is_deposit:
                level = qubits[q1].level
                tau[level] = max(tau.get(level, 0), end - inject_end)
            if is_branch and stage == "I":
                crossings[min(qubits[q0].level, qubits[q1].level)] += 1
    return Schedule(total_depth=int(t1.max(initial=0)), idle=idle, tau=tau,
                    level_crossings=crossings)
