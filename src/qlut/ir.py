"""Gate-level intermediate representation.

A Circuit is an ordered tuple of self-inverse gates with ASAP logical layers,
a role table for its qubits, and named registers. Circuits are frozen after
build and safe to share across threads, and each computes its read-only
numpy view, ``Circuit.gate_arrays``, once, on first use.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from itertools import chain, groupby
from operator import itemgetter
from typing import Iterable, NamedTuple

import numpy as np

from .params import ArchParams, DataTable


class Role(str, Enum):
    ADDRESS = "AddressBit"
    ROUTER_STATUS = "RouterStatus"
    ROUTER_INPUT = "RouterInput"
    ROUTER_LEFT = "RouterLeft"
    ROUTER_RIGHT = "RouterRight"
    LINEAR_ROUTER = "LinearRouter"
    CONTROL = "ControlQ"
    INTERMEDIATE = "IntermediateQ"
    CNOT_NODE = "CnotTreeNode"
    BUS = "Bus"
    INPUT = "Input"


class GateKind(str, Enum):
    X = "X"
    CNOT = "CNOT"
    SWAP = "SWAP"
    CSWAP = "CSWAP"
    CCNOT = "CCNOT"
    CC_X = "ClassicallyControlledX"
    LR_CNOT = "LongRangeCNOT"
    LR_SWAP = "LongRangeSWAP"


#: gate kinds that move/flip bits under control of the FIRST operand
_CONTROLLED = {GateKind.CNOT, GateKind.CSWAP, GateKind.LR_CNOT}


class QubitInfo(NamedTuple):
    role: Role
    level: int = -1   # tree level (routers / tree nodes), -1 elsewhere
    pos: int = -1     # position within level, register index, or bit index
    word: int = 0     # word-copy index for multi-bit variants


class Gate(NamedTuple):
    kind: GateKind
    qubits: tuple[int, ...]
    layer: int
    stage: str        # "I", "II", "III"
    rep: int = 0      # Stage-II repetition / Stage-III iteration index


#: one gate to emit: its kind and operands
Op = tuple[GateKind, tuple[int, ...]]

_new_tuple = tuple.__new__


class Stage:
    I = "I"
    II = "II"
    III = "III"


@dataclass
class RouterIds:
    """Qubit ids of one CSWAP-router quadruple (t, in, left, right)."""
    t: int
    inp: int
    left: int
    right: int

    def all(self) -> tuple[int, int, int, int]:
        return (self.t, self.inp, self.left, self.right)


class GateArrays:
    """A circuit's gates and table as read-only numpy arrays.

    Per gate its ``arity``, ``layer`` and ``start``, the offset of its first
    operand in ``qubit`` (every gate's operands in gate order); ``words`` is
    the table as int64, empty without one.
    """

    def __init__(self, circuit: Circuit) -> None:
        gates, operands, table = circuit.gates, itemgetter(1), circuit.table
        self.arity = np.fromiter(map(len, map(operands, gates)), np.intp, len(gates))
        self.layer = np.fromiter(map(itemgetter(2), gates), np.intp, len(gates))
        self.start = np.cumsum(self.arity) - self.arity
        self.qubit = np.fromiter(chain.from_iterable(map(operands, gates)), np.intp,
                                 int(self.arity.sum()))
        self.words = np.asarray(() if table is None else table.words, dtype=np.int64)
        for a in vars(self).values():
            a.flags.writeable = False

    @cached_property
    def touches(self) -> np.ndarray:
        """Each qubit's timeline, sorted on first use: the code qubit *
        (len(gates) + 1) + gate of every operand, ascending, then int64 max."""
        span = len(self.arity) + 1
        codes = np.sort(self.qubit * span + np.repeat(np.arange(span - 1), self.arity))
        codes = np.append(codes, np.iinfo(np.int64).max)
        codes.flags.writeable = False
        return codes


@dataclass(frozen=True)
class Circuit:
    qubits: tuple[QubitInfo, ...]
    gates: tuple[Gate, ...]
    params: ArchParams | None
    table: DataTable | None
    registers: dict[str, tuple[int, ...]]
    routers: dict[tuple[int, int, int], RouterIds] = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    @property
    def n_qubits(self) -> int:
        return len(self.qubits)

    @property
    def depth(self) -> int:
        return self.gates[-1].layer + 1 if self.gates else 0

    def reg(self, name: str) -> tuple[int, ...]:
        return self.registers[name]

    def gates_in_stage(self, stage: str) -> list[Gate]:
        return [g for g in self.gates if g.stage == stage]

    gate_arrays = cached_property(GateArrays)   # built on first use


class CircuitBuilder:
    """Accumulates gates with greedy as-soon-as-possible layer assignment."""

    def __init__(self, params: ArchParams | None = None, table: DataTable | None = None):
        self.qubits: list[QubitInfo] = []
        self.gates: list[Gate] = []
        self.registers: dict[str, tuple[int, ...]] = {}
        self.routers: dict[tuple[int, int, int], RouterIds] = {}
        self.meta: dict = {}
        self.params = params
        self.table = table
        self._frontier: list[int] = []  # next free layer per qubit
        self.stage = Stage.I
        self.rep = 0

    def new_qubit(self, role: Role, level: int = -1, pos: int = -1, word: int = 0) -> int:
        self.qubits.append(_new_tuple(QubitInfo, (role, level, pos, word)))
        self._frontier.append(0)
        return len(self.qubits) - 1

    def new_register(self, name: str, role: Role, count: int, **kw) -> tuple[int, ...]:
        ids = tuple(self.new_qubit(role, pos=i, **kw) for i in range(count))
        self.registers[name] = ids
        return ids

    def emit(self, kind: GateKind, *qubits: int) -> None:
        self.emit_ops(((kind, qubits),))

    def emit_ops(self, ops: Iterable[Op]) -> None:
        """Append ``(kind, qubits)`` ops in order, each on the first layer
        after every operand's previous gate, tagged with the current stage
        and repetition. A repeated operand is a ValueError."""
        frontier, append = self._frontier, self.gates.append
        stage, rep = self.stage, self.rep
        for kind, qubits in ops:
            n = len(qubits)
            if n == 1:
                a, = qubits
                layer = frontier[a]
                frontier[a] = layer + 1
            elif n == 2:
                a, b = qubits
                if a == b:
                    raise ValueError(f"duplicate operand in {kind}: {qubits}")
                layer = frontier[a]
                if frontier[b] > layer:
                    layer = frontier[b]
                frontier[a] = frontier[b] = layer + 1
            elif n == 3:
                a, b, c = qubits
                if a == b or a == c or b == c:
                    raise ValueError(f"duplicate operand in {kind}: {qubits}")
                layer = max(frontier[a], frontier[b], frontier[c])
                frontier[a] = frontier[b] = frontier[c] = layer + 1
            else:
                if len(set(qubits)) != n:
                    raise ValueError(f"duplicate operand in {kind}: {qubits}")
                layer = max([frontier[q] for q in qubits])
                for q in qubits:
                    frontier[q] = layer + 1
            # tuple.__new__ skips the NamedTuple's Python-level __new__
            append(_new_tuple(Gate, (kind, tuple(qubits), layer, stage, rep)))

    def extend(self, gates: Iterable[Gate]) -> None:
        """Re-emit existing gates (fresh layers, original stage tags kept)."""
        stage, rep = self.stage, self.rep
        for (self.stage, self.rep), run in groupby(gates, key=lambda g: (g.stage, g.rep)):
            self.emit_ops((g.kind, g.qubits) for g in run)
        self.stage, self.rep = stage, rep

    def build(self) -> Circuit:
        return Circuit(
            qubits=tuple(self.qubits), gates=tuple(self.gates), params=self.params,
            table=self.table, registers=self.registers, routers=self.routers,
            meta=self.meta,
        )


def check_layer_disjointness(circuit: Circuit) -> bool:
    """Gates within one layer must act on disjoint qubits."""
    seen: dict[int, set[int]] = {}
    for g in circuit.gates:
        used = seen.setdefault(g.layer, set())
        if used & set(g.qubits):
            return False
        used.update(g.qubits)
    return True


def gate_multiset(circuit: Circuit) -> dict:
    """Layer-independent gate content, for degeneration cross-checks."""
    counts: dict[tuple, int] = {}
    for g in circuit.gates:
        key = (g.kind, g.qubits)
        counts[key] = counts.get(key, 0) + 1
    return counts


#: the kind a long-range-flagged gate is exported as
_LONG_RANGE_KIND = {GateKind.SWAP: GateKind.LR_SWAP, GateKind.CNOT: GateKind.LR_CNOT}


def export_gate_list(circuit: Circuit, link_by_gate: dict[int, "object"] | None = None) -> str:
    """One gate per line: ``LAYER <k> STAGE <s> <KIND> <qubit ids> [len=<m>]``.

    When a link classification is supplied, flagged SWAP/CNOT gates are
    renamed to their long-range kinds and annotated with the path length.
    """
    ids = [str(q) for q in range(circuit.n_qubits)]
    # operand strings per distinct operand tuple: the builders repeat the
    # same op lists, so most gates reuse one
    operands: dict[tuple[int, ...], str] = {}
    lines = []
    append = lines.append
    for kind, qubits, layer, stage, _ in circuit.gates:
        text = operands.get(qubits)
        if text is None:
            text = operands[qubits] = " ".join([ids[q] for q in qubits])
        append(f"LAYER {layer} STAGE {stage} {kind._value_} {text}")
    for idx, link in (link_by_gate or {}).items():
        kind, qubits, layer, stage, _ = circuit.gates[idx]
        kind = _LONG_RANGE_KIND.get(kind, kind)
        lines[idx] = f"LAYER {layer} STAGE {stage} {kind.value} {operands[qubits]} len={link.m}"
    return "\n".join(lines) + "\n"
