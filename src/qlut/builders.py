"""Circuit builders for the parameterized lookup architecture.

The unified lookup runs in three stages:

  I    copy the middle address bits into the CSWAP-tree router statuses
       along the query path (bucket-brigade style route-in);
  II   for each repetition i, compute the indicator q = [prefix == i] with
       the linear routers, route it down the CSWAP tree, diffuse it through
       the CNOT trees, and XOR data-masked copies into the intermediate
       cells;
  III  set the remaining router statuses from the low address bits and
       route the addressed cell up to the bus.

Everything is built from self-inverse gates, so uncompute is gate-order
reversal (plus a verbatim Stage-II replay to clear the cells).
"""
from __future__ import annotations

from enum import Enum
from itertools import repeat
from typing import Iterable, Iterator

from .errors import InvalidParamsError
from .ir import Circuit, CircuitBuilder, GateKind, Op, QubitInfo, Role, RouterIds, Stage
from .params import ArchParams, DataTable, Readout, address_bits, derive_params

X = GateKind.X
CNOT, SWAP, CSWAP, CCNOT, CC_X = (
    GateKind.CNOT, GateKind.SWAP, GateKind.CSWAP, GateKind.CCNOT, GateKind.CC_X)

_new_tuple = tuple.__new__


class ReferenceKind(str, Enum):
    FAN_OUT = "FanOut"
    BUCKET_BRIGADE = "BucketBrigade"
    SELECT_SWAP = "SelectSwap"


def _router_ops(r: RouterIds, reverse: bool = False) -> list[Op]:
    """Route in -> left when t=0, in -> right when t=1 (two CSWAPs)."""
    ops = [
        (X, (r.t,)),
        (CSWAP, (r.t, r.inp, r.left)),
        (X, (r.t,)),
        (CSWAP, (r.t, r.inp, r.right)),
    ]
    return ops[::-1] if reverse else ops


def _heap_fanout_ops(nodes: tuple[int, ...] | list[int]) -> list[Op]:
    """Copy ``nodes[0]`` into every node: node j gets a CNOT from its heap
    parent (j - 1) // 2, in index order (a depth-log2 fan-out tree)."""
    return [(CNOT, (nodes[(j - 1) // 2], nodes[j])) for j in range(1, len(nodes))]


def _qubit_infos(role: Role, level: int, positions: Iterable[int],
                 word: int) -> Iterator[QubitInfo]:
    """One ``QubitInfo`` per position, each copied straight from the tuple
    ``zip`` reuses, so a qubit costs one allocation."""
    return map(_new_tuple, repeat(QubitInfo), zip(repeat(role), repeat(level), positions,
                                                  repeat(word)))


class _LinearRouterSweep:
    """Lazy AND-ladder sweep producing q = [a_0..a_{d-1} == i] per repetition.

    Between consecutive patterns only the invalidated ladder suffix is
    recomputed (the changed address bits are the low-order ones), so a full
    sweep costs O(2^d) Toffolis in total while any single transition stays
    O(d), matching the SELECT-circuit construction the design borrows.
    """

    def __init__(self, b: CircuitBuilder, addr: tuple[int, ...], ancs: tuple[int, ...], q: int):
        self.b = b
        self.addr = addr
        self.d = len(addr)
        self.q = q
        # ladder node s holds AND of (flip-adjusted) bits 0..s+1
        self.nodes = list(ancs) + [q] if self.d >= 2 else []
        self.flips = [0] * self.d
        self.pattern: tuple[int, ...] | None = None

    def _ladder_op(self, s: int) -> Op:
        if s == 0:
            return (CCNOT, (self.addr[0], self.addr[1], self.nodes[0]))
        return (CCNOT, (self.nodes[s - 1], self.addr[s + 1], self.nodes[s]))

    def advance(self, pattern: tuple[int, ...] | None) -> None:
        d, b = self.d, self.b
        if d == 0:
            b.emit(X, self.q)  # unconditional marker, cleared by the next call
            self.pattern = pattern
            return
        want_flips = [0] * d if pattern is None else [1 - bit for bit in pattern]
        changed = [z for z in range(d) if want_flips[z] != self.flips[z]]
        c_min = changed[0] if changed else d
        if d == 1:
            if self.pattern is not None:
                b.emit(CNOT, self.addr[0], self.q)
            for z in changed:
                b.emit(X, self.addr[z])
            if pattern is not None:
                b.emit(CNOT, self.addr[0], self.q)
        else:
            top = d - 2
            s_lo = 0 if (self.pattern is None or pattern is None) else max(0, c_min - 1)
            if self.pattern is not None:
                b.emit_ops([self._ladder_op(s) for s in range(top, s_lo - 1, -1)])
            for z in changed:
                b.emit(X, self.addr[z])
            if pattern is not None:
                b.emit_ops([self._ladder_op(s) for s in range(s_lo, top + 1)])
        self.flips = want_flips if pattern is not None else [0] * d
        self.pattern = pattern


class _Assembler:
    """Shared machinery for the unified builder, its multi-word readouts and
    the references."""

    def __init__(self, params: ArchParams, table: DataTable, words: int = 1,
                 sequential: bool = False):
        if len(table) != params.N:
            raise InvalidParamsError(
                f"table length {len(table)} != N = {params.N}")
        if table.b < params.b:
            raise InvalidParamsError(
                f"table words have {table.b} bits, need {params.b}")
        self.p = params
        self.table = table
        self.words = words
        self.sequential = sequential
        self.b = CircuitBuilder(params, table)
        # op lists reused by every repetition and level: per (level, word), or per word
        self._layer_memo: dict[tuple[int, int], tuple[Op, ...]] = {}
        self._route_memo: dict[tuple[int, int], tuple[Op, ...]] = {}
        self._load_memo: dict[int, list[list[Op]]] = {}
        self._allocate()

    # -- allocation ---------------------------------------------------------

    def _allocate(self) -> None:
        b, p = self.b, self.p
        D = p.tree_depth
        self.addr = b.new_register("address", Role.ADDRESS, p.n)
        self.inputs = tuple(
            b.new_qubit(Role.INPUT, pos=w, word=w) for w in range(self.words))
        b.registers["input"] = self.inputs
        n_bus = p.b if (self.sequential or self.words > 1) else 1
        self.bus = b.new_register("bus", Role.BUS, n_bus)
        self.q = b.new_qubit(Role.CONTROL, pos=0)
        self.q_copies = tuple(
            b.new_qubit(Role.CONTROL, pos=w, word=w) for w in range(1, self.words))
        b.registers["control"] = (self.q,) + self.q_copies
        self.ancs = b.new_register("mcx_anc", Role.LINEAR_ROUTER, max(0, p.d - 2))
        self.cells: dict[int, tuple[int, ...]] = {}
        for w in range(self.words):
            self._allocate_tree(w)
        b.registers["cells"] = self.cells[0]
        if self.sequential:
            lam, nb = p.lam, p.b
            self.regs = [[b.new_qubit(Role.INTERMEDIATE, level=-1, pos=j, word=w)
                          for w in range(nb)] for j in range(lam)]
            n_hubs = max(0, nb // 2 - 1)
            self.hubs = [[b.new_qubit(Role.CNOT_NODE, pos=j, word=h)
                          for h in range(n_hubs)] for j in range(lam)]
            b.registers["word_cells"] = tuple(q for row in self.regs for q in row)

    def _allocate_tree(self, w: int) -> None:
        """Each tree level in one batch: router ``pos`` gets the ids
        (t, in, left, right) from ``base + 4 * pos``; with gamma >= 2 the
        leaf ports are the intermediate cells ``2 pos`` and ``2 pos + 1``."""
        b, p = self.b, self.p
        D = p.tree_depth
        for level in range(D):
            # one int object per position, shared by its qubits and router key
            at = list(range(1 << level))
            infos = [None] * (4 * len(at))
            infos[0::4] = _qubit_infos(Role.ROUTER_STATUS, level, at, w)
            infos[1::4] = _qubit_infos(Role.ROUTER_INPUT, level, at, w)
            if level == D - 1 and p.gamma >= 2:
                infos[2::4] = _qubit_infos(Role.INTERMEDIATE, level, range(0, 2 * len(at), 2), w)
                infos[3::4] = _qubit_infos(Role.INTERMEDIATE, level, range(1, 2 * len(at), 2), w)
            else:
                infos[2::4] = _qubit_infos(Role.ROUTER_LEFT, level, at, w)
                infos[3::4] = _qubit_infos(Role.ROUTER_RIGHT, level, at, w)
            routers = [RouterIds(q, q + 1, q + 2, q + 3) for q in b.new_qubits(infos)[::4]]
            b.routers.update(zip(zip(repeat(level), at, repeat(w)), routers))
        if D == 0:
            self.cells[w] = (b.new_qubit(Role.INTERMEDIATE, pos=0, word=w),)
        elif p.gamma >= 2:
            # the last level's ports, left then right
            self.cells[w] = tuple(q for r in routers for q in (r.left, r.right))
        else:
            self.cells[w] = tuple(b.new_qubits(
                list(_qubit_infos(Role.INTERMEDIATE, D, range(p.lam), w))))

    def router(self, level: int, pos: int, w: int = 0) -> RouterIds:
        return self.b.routers[(level, pos, w)]

    def _port(self, level: int, pos: int, w: int, side: int) -> int:
        r = self.router(level, pos, w)
        return r.right if side else r.left

    # -- op-list primitives (returned, not emitted, so they can be reversed) --

    def _layer_ops(self, level: int, w: int) -> tuple[Op, ...]:
        ops = self._layer_memo.get((level, w))
        if ops is None:
            ops = self._layer_memo[level, w] = tuple(
                op for pos in range(1 << level)
                for op in _router_ops(self.router(level, pos, w)))
        return ops

    def _transfer_ops(self, level: int, w: int) -> list[Op]:
        """Move port values of `level` into the inputs of level+1."""
        ops: list[Op] = []
        for pos in range(1 << level):
            r = self.router(level, pos, w)
            ops.append((SWAP, (r.left, self.router(level + 1, 2 * pos, w).inp)))
            ops.append((SWAP, (r.right, self.router(level + 1, 2 * pos + 1, w).inp)))
        return ops

    def _route_to_inputs_ops(self, target_level: int, w: int) -> tuple[Op, ...]:
        """Move the staged value from `input` into the level-L in registers."""
        ops = self._route_memo.get((target_level, w))
        if ops is None:
            if target_level == 0:
                ops = ((SWAP, (self.inputs[w], self.router(0, 0, w).inp)),)
            else:
                lev = target_level - 1
                ops = (self._route_to_inputs_ops(lev, w) + self._layer_ops(lev, w)
                       + tuple(self._transfer_ops(lev, w)))
            self._route_memo[target_level, w] = ops
        return ops

    def _route_to_cells_ops(self, w: int) -> list[Op]:
        """Full route from `input` down to the lam cells (Stage-III geometry)."""
        p = self.p
        D = p.tree_depth
        if D == 0:
            return [(SWAP, (self.inputs[w], self.cells[w][0]))]
        ops = [*self._route_to_inputs_ops(D - 1, w), *self._layer_ops(D - 1, w)]
        if p.gamma == 1:
            for j in range(p.lam):
                ops.append((SWAP, (self._port(D - 1, j >> 1, w, j & 1),
                                   self.cells[w][j])))
        return ops

    def _status_route_ops(self, bit_qubit: int, level: int, w: int) -> list[Op]:
        """Copy an address bit into every level-`level` status register."""
        ops: list[Op] = [(CNOT, (bit_qubit, self.inputs[w]))]
        ops += self._route_to_inputs_ops(level, w)
        for pos in range(1 << level):
            r = self.router(level, pos, w)
            ops.append((SWAP, (r.inp, r.t)))
        return ops

    def _status_chain_ops(self, bits: tuple[int, ...]) -> list[Op]:
        """Copy address bit ``bits[j]`` into every level-j status register
        along a CNOT chain: the bit into router 0, then router to router."""
        ops: list[Op] = []
        for level, bit in enumerate(bits):
            chain = [bit] + [self.router(level, pos).t for pos in range(1 << level)]
            ops += [(CNOT, pair) for pair in zip(chain, chain[1:])]
        return ops

    def _diffusion_ops(self, w: int) -> list[Op]:
        """Copy the routed marker into every node of the activated CNOT tree."""
        p = self.p
        D, dp = p.tree_depth, p.d_prime
        ops: list[Op] = []
        if p.gamma >= 2:
            if dp == 0:
                ops.append((CNOT, (self.inputs[w], self.router(0, 0, w).inp)))
            else:
                for pos in range(1 << (dp - 1)):
                    ops.append((CNOT, (self._port(dp - 1, pos, w, 0),
                                       self.router(dp, 2 * pos, w).inp)))
                    ops.append((CNOT, (self._port(dp - 1, pos, w, 1),
                                       self.router(dp, 2 * pos + 1, w).inp)))
            for lev in range(dp, D - 1):
                for pos in range(1 << lev):
                    src = self.router(lev, pos, w).inp
                    ops.append((CNOT, (src, self.router(lev + 1, 2 * pos, w).inp)))
                    ops.append((CNOT, (src, self.router(lev + 1, 2 * pos + 1, w).inp)))
        if self.sequential:
            ops += self._word_diffusion_ops(w)
        return ops

    def _cell_source(self, j: int, w: int) -> int:
        """Qubit holding the marker copy next to cell j during Stage II."""
        p = self.p
        D = p.tree_depth
        if D == 0:
            return self.inputs[w]
        if p.gamma >= 2:
            return self.router(D - 1, j >> 1, w).inp
        return self._port(D - 1, j >> 1, w, j & 1)

    def _word_diffusion_ops(self, w: int) -> list[Op]:
        """Sequential readout: extend the diffusion into the per-cell hubs."""
        ops: list[Op] = []
        for j in range(self.p.lam):
            ops.append((CNOT, (self._cell_source(j, w), self.cells[w][j])))
            ops += _heap_fanout_ops([self.cells[w][j]] + self.hubs[j])
        return ops

    def _load_ops(self, rep: int, w: int) -> list[Op]:
        """Data-masked XOR of memory row `rep` into the cells (or word registers)."""
        lam = self.p.lam
        row = self.table.words[lam * rep:lam * (rep + 1)]
        if self.sequential:
            return [op for word, ops in zip(row, self._cell_load_ops(w))
                    for bit_w, op in enumerate(ops) if word >> bit_w & 1]
        return [ops[0] for word, ops in zip(row, self._cell_load_ops(w)) if word >> w & 1]

    def _cell_load_ops(self, w: int) -> list[list[Op]]:
        """Per cell j, the CNOT that loads each bit of its word: one per bit
        into the word registers (sequential), else one into cell j of word w."""
        ops = self._load_memo.get(w)
        if ops is None:
            if self.sequential:
                ops = []
                for j in range(self.p.lam):
                    nodes = [self.cells[w][j]] + self.hubs[j]
                    ops.append([(CNOT, (nodes[bit_w // 2], self.regs[j][bit_w]))
                                for bit_w in range(self.p.b)])
            else:
                ops = [[(CNOT, (self._cell_source(j, w), self.cells[w][j]))]
                       for j in range(self.p.lam)]
            self._load_memo[w] = ops
        return ops

    def _marker_route_ops(self, w: int) -> list[Op]:
        """Move the indicator from its register to the CSWAP-tree leaf ports."""
        p = self.p
        src = self.q if w == 0 else self.q_copies[w - 1]
        ops: list[Op] = [(SWAP, (src, self.inputs[w]))]
        dp = p.d_prime
        if dp >= 1:
            ops += self._route_to_inputs_ops(dp - 1, w)
            ops += self._layer_ops(dp - 1, w)
        return ops

    # -- stages --------------------------------------------------------------

    def stage1(self) -> None:
        b, p = self.b, self.p
        b.stage = Stage.I
        for j in range(p.d_prime):
            for w in range(self.words):
                b.emit_ops(self._status_route_ops(self.addr[p.d + j], j, w))

    def stage2(self) -> None:
        b, p = self.b, self.p
        b.stage = Stage.II
        prefix = self.addr[:p.d]
        sweep = _LinearRouterSweep(b, prefix, self.ancs, self.q)
        # the fan-out and each word's route-and-diffuse segment are the same
        # in every repetition; only the data-masked loads differ
        fan = _heap_fanout_ops((self.q,) + self.q_copies)
        segs = [self._marker_route_ops(w) + self._diffusion_ops(w)
                for w in range(self.words)]
        for rep in range(p.repetitions):
            b.rep = rep
            sweep.advance(address_bits(rep, p.d) if p.d else ())
            b.emit_ops(fan)
            for w, seg in enumerate(segs):
                b.emit_ops(seg)
                b.emit_ops(self._load_ops(rep, w))
                b.emit_ops(reversed(seg))
            b.emit_ops(reversed(fan))
        sweep.advance(None)
        b.rep = 0

    def stage3(self) -> None:
        b, p = self.b, self.p
        b.stage = Stage.III
        D, dp = p.tree_depth, p.d_prime
        for w in range(self.words):
            for j in range(dp, D):
                b.emit_ops(self._status_route_ops(self.addr[p.d + j], j, w))
        if self.sequential:
            for it in range(p.b):
                b.rep = it
                for j in range(p.lam):
                    b.emit(SWAP, self.regs[j][it], self.cells[0][j])
                b.emit_ops(reversed(self._route_to_cells_ops(0)))
                b.emit(CNOT, self.inputs[0], self.bus[it])
            b.rep = 0
        else:
            for w in range(self.words):
                b.emit_ops(reversed(self._route_to_cells_ops(w)))
                b.emit(CNOT, self.inputs[w], self.bus[w])

    def build(self, family: str) -> Circuit:
        self.stage1()
        self.stage2()
        self.stage3()
        self.b.meta["family"] = family
        return self.b.build()


def build_unified_lookup(params: ArchParams, table: DataTable) -> Circuit:
    """Single-bit lookup circuit mapping |a>|0...0> to |a>|x_a> (plus the
    router statuses and leftover cells that buildUncompute clears)."""
    if params.b != 1:
        raise InvalidParamsError("single-bit builder requires b = 1")
    return _Assembler(params, table).build("tree")


def build_lookup(params: ArchParams, table: DataTable) -> Circuit:
    """The lookup circuit for any (readout, b); the one builder entry point.

    A single-bit word (b = 1, in any readout) is :func:`build_unified_lookup`.
    A multi-bit word reads out in parallel through b copies of the routing
    structure that share one set of linear routers (family
    ``multi_parallel``), or sequentially through one routing structure with
    a deeper CNOT tree and b Stage-III passes (``multi_sequential``).
    """
    if params.b == 1 or params.readout == Readout.SINGLE_BIT:
        return build_unified_lookup(params, table)
    if params.readout == Readout.PARALLEL:
        return _Assembler(params, table, words=params.b).build("multi_parallel")
    return _Assembler(params, table, sequential=True).build("multi_sequential")


def build_uncompute(circuit: Circuit) -> Circuit:
    """Append reverse-Stage-III, repeat-Stage-II, reverse-Stage-I.

    The readout copies onto the bus are the only gates not reversed, so the
    bus keeps the retrieved word while every other qubit returns to |0>.
    """
    bus = set(circuit.registers["bus"])
    b = CircuitBuilder(circuit.params, circuit.table)
    b.qubits = list(circuit.qubits)
    b._frontier = [0] * len(circuit.qubits)
    b.registers = dict(circuit.registers)
    b.routers = dict(circuit.routers)
    b.meta = dict(circuit.meta)
    b.meta["uncompute"] = True
    rows = circuit.rows
    b.extend(rows)
    b.extend(reversed([r for r in rows if r[3] == Stage.III and not bus & set(r[1])]))
    b.extend([r for r in rows if r[3] == Stage.II])
    b.extend(reversed([r for r in rows if r[3] == Stage.I]))
    return b.build()


# -- reference architectures -------------------------------------------------


def _reference_bucket_brigade(N: int, table: DataTable) -> Circuit:
    """Bucket-brigade QRAM: q' cells at the leaves of a depth-n CSWAP tree.

    Kept as its own emission path (rather than delegating to the unified
    builder at lambda=N, gamma=1) so the degeneration identity is a real
    cross-check.
    """
    params = derive_params(N, N, 1)
    asm = _Assembler(params, table)
    b = asm.b
    n = params.n
    b.stage = Stage.I
    for j in range(n):
        b.emit_ops(asm._status_route_ops(asm.addr[j], j, 0))
    b.stage = Stage.II
    b.emit(X, asm.q)
    seg = asm._marker_route_ops(0)
    b.emit_ops(seg)
    b.emit_ops(asm._load_ops(0, 0))
    b.emit_ops(reversed(seg))
    b.emit(X, asm.q)
    b.stage = Stage.III
    b.emit_ops(reversed(asm._route_to_cells_ops(0)))
    b.emit(CNOT, asm.inputs[0], asm.bus[0])
    b.meta["family"] = "tree"
    b.meta["reference"] = "BucketBrigade"
    return b.build()


def _reference_fan_out(N: int, table: DataTable) -> Circuit:
    """Fan-out QRAM: every router on level j is entangled with address bit j."""
    params = derive_params(N, N, 1)
    asm = _Assembler(params, table)
    b = asm.b
    n = params.n
    b.stage = Stage.I
    b.emit_ops(asm._status_chain_ops(asm.addr))
    b.stage = Stage.II
    route = asm._route_to_inputs_ops(n - 1, 0) + asm._layer_ops(n - 1, 0)
    b.emit_ops(route)
    for j in range(N):
        if table.bit(j, 0):
            b.emit(CC_X, asm._port(n - 1, j >> 1, 0, j & 1))
    b.stage = Stage.III
    b.emit_ops(reversed(route))
    b.emit(CNOT, asm.inputs[0], asm.bus[0])
    b.meta["family"] = "tree"
    b.meta["reference"] = "FanOut"
    return b.build()


def _reference_select_swap(N: int, table: DataTable) -> Circuit:
    """SELECT-SWAP: linear routers load lambda-wide rows, lambda = 2^ceil(n/2),
    and a fan-out tree of CSWAP routers swaps the addressed cell out."""
    n = N.bit_length() - 1
    lam = 1 << ((n + 1) // 2)
    params = derive_params(N, lam, 1)
    asm = _Assembler(params, table)
    b = asm.b
    d = params.d
    nodes = b.new_register("select_nodes", Role.CNOT_NODE, lam)
    b.stage = Stage.II
    sweep = _LinearRouterSweep(b, asm.addr[:d], asm.ancs, asm.q)
    fan = [(CNOT, (asm.q, nodes[0]))] + _heap_fanout_ops(nodes)
    for rep in range(params.repetitions):
        b.rep = rep
        sweep.advance(address_bits(rep, d) if d else ())
        b.emit_ops(fan)
        for j in range(lam):
            if table.bit(lam * rep + j, 0):
                b.emit(CNOT, nodes[j], asm.cells[0][j])
        b.emit_ops(reversed(fan))
    sweep.advance(None)
    b.rep = 0
    b.stage = Stage.III
    b.emit_ops(asm._status_chain_ops(asm.addr[d:]))
    b.emit_ops(reversed(asm._route_to_cells_ops(0)))
    b.emit(CNOT, asm.inputs[0], asm.bus[0])
    b.meta["family"] = "select_swap"
    b.meta["reference"] = "SelectSwap"
    return b.build()


def build_reference(kind: ReferenceKind | str, N: int, table: DataTable) -> Circuit:
    kind = ReferenceKind(kind)
    if kind == ReferenceKind.BUCKET_BRIGADE:
        return _reference_bucket_brigade(N, table)
    if kind == ReferenceKind.FAN_OUT:
        return _reference_fan_out(N, table)
    return _reference_select_swap(N, table)


# -- standalone primitives (unit-testable operations) -------------------------


def build_cswap_router(merged: bool = False) -> Circuit:
    """One CSWAP router on four qubits (t, in, L, R); with the in/L merge
    optimization, three qubits and a single CSWAP."""
    b = CircuitBuilder()
    t = b.new_qubit(Role.ROUTER_STATUS, 0, 0)
    inp = b.new_qubit(Role.ROUTER_INPUT, 0, 0)
    if merged:
        right = b.new_qubit(Role.ROUTER_RIGHT, 0, 0)
        b.emit(CSWAP, t, inp, right)
        b.registers.update(t=(t,), inp=(inp,), left=(inp,), right=(right,))
    else:
        left = b.new_qubit(Role.ROUTER_LEFT, 0, 0)
        right = b.new_qubit(Role.ROUTER_RIGHT, 0, 0)
        b.emit_ops(_router_ops(RouterIds(t, inp, left, right)))
        b.registers.update(t=(t,), inp=(inp,), left=(left,), right=(right,))
    return b.build()


def build_cnot_tree(gamma: int, optimized: bool = True) -> Circuit:
    """Diffuse the root value to gamma leaves with CNOTs only.

    Optimized form: the input doubles as leaf 0, gamma qubits, gamma-1 CNOTs.
    Literal form: a binary tree of CNOT routers, 2*gamma-1 qubits.
    """
    if gamma < 1 or gamma & (gamma - 1):
        raise InvalidParamsError("gamma must be a power of two")
    b = CircuitBuilder()
    if optimized:
        leaves = b.new_register("leaves", Role.CNOT_NODE, gamma)
        b.emit_ops(_heap_fanout_ops(leaves))
        b.registers["root"] = (leaves[0],)
    else:
        depth = gamma.bit_length() - 1
        nodes = [[b.new_qubit(Role.CNOT_NODE, lev, p) for p in range(1 << lev)]
                 for lev in range(depth + 1)]
        for lev in range(depth):
            for p in range(1 << lev):
                b.emit(CNOT, nodes[lev][p], nodes[lev + 1][2 * p])
                b.emit(CNOT, nodes[lev][p], nodes[lev + 1][2 * p + 1])
        b.registers["root"] = (nodes[0][0],)
        b.registers["leaves"] = tuple(nodes[depth])
    return b.build()
