"""Planar grid placement, link classification, and the activation schedule.

Routers are placed by recursive bisection in the H-tree fractal pattern:
the root quadruple sits at the center with its T-shape opening toward the
I/O cluster, children alternate splitting axis, and displacement magnitudes
shrink as the recursion descends. Inter-level transfers become long-range
links whose length feeds the GHZ/distillation error models.

Coordinates are (row, col); `row` grows upward to match the reference
diagrams. The depth-4 tree reproduces the published 16-location layout
verbatim (one spare column on each side, kept so the transcription reads
off the figure unchanged).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain, repeat
from typing import NamedTuple

import numpy as np

from .errors import InitialErrorTooLargeError, InvalidParamsError, PlacementOverflowError
from .ir import Circuit, GateKind, Role
from .params import ErrorRates

_new_tuple = tuple.__new__

# directions as (dx, dy); rotating left = toward the "left" output port
_N, _E, _S, _W = (0, 1), (1, 0), (0, -1), (-1, 0)


def _ccw(d: tuple[int, int]) -> tuple[int, int]:
    return (-d[1], d[0])


def _neg(d: tuple[int, int]) -> tuple[int, int]:
    return (-d[0], -d[1])


class LinkResource(str, Enum):
    GHZ = "GhzChain"
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
    def __init__(self) -> None:
        self.pos: dict[int, tuple[int, int]] = {}
        self.taken: dict[tuple[int, int], int] = {}
        self.reserved: set[tuple[int, int]] = set()

    def put(self, qubit: int, xy: tuple[int, int]) -> None:
        if xy in self.taken:
            raise PlacementOverflowError(
                f"qubits {self.taken[xy]} and {qubit} both at {xy}")
        if xy in self.reserved:
            raise PlacementOverflowError(f"qubit {qubit} on reserved chain cell {xy}")
        self.taken[xy] = qubit
        self.pos[qubit] = xy

    def put_near(self, qubit: int, candidates: list[tuple[int, int]]) -> None:
        for xy in candidates:
            if xy not in self.taken and xy not in self.reserved:
                self.put(qubit, xy)
                return
        raise PlacementOverflowError(f"no free cell near {candidates[0]} for qubit {qubit}")

    def reserve_free_between(self, a: tuple[int, int], b: tuple[int, int]) -> None:
        """Reserve the straight chain cells between two points where free."""
        (ax, ay), (bx, by) = a, b
        cells: list[tuple[int, int]] = []
        if ax == bx:
            cells = [(ax, y) for y in range(min(ay, by) + 1, max(ay, by))]
        elif ay == by:
            cells = [(x, ay) for x in range(min(ax, bx) + 1, max(ax, bx))]
        for xy in cells:
            if xy not in self.taken:
                self.reserved.add(xy)


def _up_ladder(xy: tuple[int, int], tries: int = 24) -> list[tuple[int, int]]:
    x, y = xy
    return [(x, y + k) for k in range(tries)]


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
    """Grid placement for single-word tree circuits (unified or reference)."""
    if circuit.meta.get("family") not in ("tree", "select_swap"):
        raise InvalidParamsError(
            "planar placement covers single-word tree circuits")
    p = circuit.params
    D = p.tree_depth
    pl = _Placer()
    disp = _tree_displacements(D)

    # pass 1: rigid router centers and orientations (these carry the geometry)
    to_parent: dict[tuple[int, int], tuple[int, int]] = {}
    centers: dict[tuple[int, int], tuple[int, int]] = {}
    if D > 0:
        centers[(0, 0)] = (0, 0)
        to_parent[(0, 0)] = _N
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
    _place_cluster(pl, circuit, anchor)

    # pass 3: best-effort GHZ-chain reservation along free straight segments
    for (level, pos), c in centers.items():
        if level == D - 1 or D == 0:
            continue
        r = circuit.routers[(level, pos, 0)]
        for port, child in ((r.left, 2 * pos), (r.right, 2 * pos + 1)):
            pl.reserve_free_between(pl.pos[port], centers[(level + 1, child)])

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
            pl.put_near(node, [(cxy[0] + d[0], cxy[1] + d[1])
                               for d in (_N, _S, _E, _W,
                                         (1, 1), (-1, 1), (1, -1), (-1, -1))])
    top_y = max(y for _, y in pl.pos.values())
    _place_strip(pl, circuit, top_y, anchor[0])

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


def _grid_arrays(placement: GridPlacement, n_qubits: int) -> tuple[np.ndarray, np.ndarray]:
    """(row, col) of every qubit, indexed by qubit id."""
    rc = np.fromiter(chain.from_iterable(map(placement.coords.__getitem__, range(n_qubits))),
                     np.intp, 2 * n_qubits)
    return rc[0::2], rc[1::2]


def classify_links(
    circuit: Circuit,
    placement: GridPlacement,
    distillation: bool = True,
    free_levels: float = 0.0,
) -> tuple[list[LongRangeLink], dict[int, LongRangeLink]]:
    """Split every multi-qubit gate into local vs long-range-with-length-m.

    A gate is local when some pivot operand is grid-adjacent (Manhattan
    distance <= 1) to every other operand. A long-range gate's
    (m, source, target) is the largest (distance, a, b) over its operand
    pairs, a before b; its level is the lowest tree level among its
    operands when they span two or more distinct levels, else None. Gates
    are classified per arity as numpy arrays; links come in gate order.
    """
    n = circuit.n_qubits
    view = circuit.gate_arrays
    row, col = _grid_arrays(placement, n)
    level_of = np.fromiter((info.level for info in circuit.qubits), np.intp, n)
    found = []  # per arity: (gate index, m, source, target, level or -1)
    for k in (np.flatnonzero(np.bincount(view.arity)[2:]) + 2).tolist():
        gate = np.flatnonzero(view.arity == k)
        q = view.qubit[view.start[gate, None] + np.arange(k)]
        r, c = row[q], col[q]
        dist = (np.abs(r[:, :, None] - r[:, None, :])
                + np.abs(c[:, :, None] - c[:, None, :]))
        far = ~(dist <= 1).all(axis=2).any(axis=1)
        gate, q, dist = gate[far], q[far], dist[far]
        i, j = np.triu_indices(k, 1)
        pair_d = dist[:, i, j]
        # lexicographic max of (distance, a, b) as one integer key
        key = (pair_d * n + q[:, i]) * n + q[:, j]
        best = key.argmax(axis=1)
        pick = np.arange(len(gate))
        lv = level_of[q]
        low = np.where(lv >= 0, lv, np.iinfo(np.intp).max).min(axis=1)
        level = np.where(low < lv.max(axis=1), low, -1)
        found.append((gate, pair_d[pick, best], q[pick, i[best]], q[pick, j[best]], level))
    if not found:
        return [], {}
    gate, m, src, dst, level = (np.concatenate(v) for v in zip(*found))
    order = np.argsort(gate)
    levels = [None if lv < 0 else lv for lv in level[order].tolist()]
    rest = LinkResource.DISTILLED.value if distillation else LinkResource.GHZ.value
    resource = [LinkResource.FREE.value if lv is not None and lv < free_levels else rest
                for lv in levels]
    # tuple.__new__ skips the NamedTuple's Python-level __new__
    links = [_new_tuple(LongRangeLink, row) for row in zip(
        gate[order].tolist(), src[order].tolist(), dst[order].tolist(),
        m[order].tolist(), levels, resource)]
    return links, {link.gate_index: link for link in links}


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

    The one place a link's resource picks its error: a budgeted link is
    free, an explicit eps_l applies to every other link, a GHZ chain fails
    with min(m * eps_q, 1) and a distilled Bell pair as
    :meth:`ErrorRates.long_range`.
    """
    if link.resource == LinkResource.FREE.value:
        return 0.0
    if link.resource == LinkResource.GHZ.value and rates.eps_l is None:
        return min(link.m * rates.eps_q, 1.0)
    return rates.long_range(link.m)


@dataclass(frozen=True)
class DistillationModel:
    code_distance: int
    pairs_consumed: int
    depth_overhead: int
    eps_f: float


def distillation_model(m: int, eps_q: float, c1: float = 1.0) -> DistillationModel:
    """Distance, pair count, depth, and residual error of Bell distillation.

    Instantiates the d = O(log m) code-distance bound with the configurable
    constant c1; pairs scale as d^2 and the residual error as eps_i^d.
    """
    eps_i = m * eps_q
    if eps_i >= 1.0:
        raise InitialErrorTooLargeError(f"initial Bell error {eps_i} >= 1")
    d_hat = max(1, math.ceil(c1 * math.log2(max(m, 2))))
    if m == 1:
        d_hat = 1
    return DistillationModel(
        code_distance=d_hat,
        pairs_consumed=d_hat * d_hat,
        depth_overhead=d_hat,
        eps_f=eps_i ** d_hat,
    )


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


def build_schedule(
    circuit: Circuit,
    link_by_gate: dict[int, LongRangeLink] | None = None,
    include_distillation_depth: bool = False,
) -> Schedule:
    """Discrete-event walk of the gate list.

    Every gate takes one step; with the distillation-depth flag, long-range
    gates outside the free budget take ceil(log2 m) steps instead (the
    default models Bell pairs as readily available). Address-setting
    windows tau are measured from the injection copy to the level's last
    status deposit.
    """
    durations = repeat(1)
    if include_distillation_depth and link_by_gate:
        # only non-free long-range gates take more than one step
        durations = [1] * len(circuit.gates)
        for idx, link in link_by_gate.items():
            if link.resource != LinkResource.FREE.value:
                durations[idx] = max(1, math.ceil(math.log2(max(2, link.m))))
    n = circuit.n_qubits
    avail = [0] * n
    first = [-1] * n
    busy = [0] * n
    touched: list[int] = []   # qubits in order of first use
    status = [info.role == Role.ROUTER_STATUS for info in circuit.qubits]
    level_of = [info.level for info in circuit.qubits]
    addr = set(circuit.reg("address"))
    inputs = set(circuit.reg("input"))
    # canonical query branch: the all-left path (level, 0) -> (level+1, 0),
    # as SWAP operand pairs in either order
    branch_pairs = set()
    D = circuit.params.tree_depth if circuit.params else 0
    for level in range(D - 1):
        parent = circuit.routers[(level, 0, 0)]
        child = circuit.routers[(level + 1, 0, 0)]
        branch_pairs |= {(parent.left, child.inp), (child.inp, parent.left)}
    tau: dict[int, int] = {}
    crossings: dict[int, int] = {level: 0 for level in range(max(0, D - 1))}
    inject_end = 0
    total = 0
    CNOT, SWAP = GateKind.CNOT, GateKind.SWAP
    for (kind, qubits, _, stage, _), dur in zip(circuit.gates, durations):
        if len(qubits) == 2:
            a, b = qubits
            t0 = avail[a] if avail[a] > avail[b] else avail[b]
        elif len(qubits) == 1:
            t0 = avail[qubits[0]]
        else:
            t0 = max([avail[q] for q in qubits], default=0)
        t1 = t0 + dur
        if t1 > total:
            total = t1
        for q in qubits:
            avail[q] = t1
            if first[q] < 0:
                first[q] = t0
                touched.append(q)
            busy[q] += dur
        if kind is CNOT:
            if qubits[0] in addr and qubits[1] in inputs:
                inject_end = t1
        elif kind is SWAP:
            if status[qubits[1]]:
                level = level_of[qubits[1]]
                tau[level] = max(tau.get(level, 0), t1 - inject_end)
            if stage == "I" and qubits in branch_pairs:
                crossings[min(level_of[q] for q in qubits)] += 1
    idle = {q: v for q in touched if (v := avail[q] - first[q] - busy[q]) > 0}
    return Schedule(total_depth=total, idle=idle, tau=tau,
                    level_crossings=crossings)
