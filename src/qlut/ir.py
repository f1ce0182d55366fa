"""Gate-level intermediate representation.

A Circuit is an ordered tuple of self-inverse gates with ASAP logical layers,
a role table for its qubits, and named registers. Circuits are frozen after
build and safe to share across threads.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, NamedTuple

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
        self.qubits.append(QubitInfo(role, level, pos, word))
        self._frontier.append(0)
        return len(self.qubits) - 1

    def new_register(self, name: str, role: Role, count: int, **kw) -> tuple[int, ...]:
        ids = tuple(self.new_qubit(role, pos=i, **kw) for i in range(count))
        self.registers[name] = ids
        return ids

    def emit(self, kind: GateKind, *qubits: int) -> None:
        if len(set(qubits)) != len(qubits):
            raise ValueError(f"duplicate operand in {kind}: {qubits}")
        layer = max(self._frontier[q] for q in qubits)
        for q in qubits:
            self._frontier[q] = layer + 1
        self.gates.append(Gate(kind, tuple(qubits), layer, self.stage, self.rep))

    def extend(self, gates: Iterable[Gate]) -> None:
        """Re-emit existing gates (fresh layers, original stage tags kept)."""
        for g in gates:
            layer = max(self._frontier[q] for q in g.qubits)
            for q in g.qubits:
                self._frontier[q] = layer + 1
            self.gates.append(Gate(g.kind, g.qubits, layer, g.stage, g.rep))

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


def export_gate_list(circuit: Circuit, link_by_gate: dict[int, "object"] | None = None) -> str:
    """One gate per line: ``LAYER <k> STAGE <s> <KIND> <qubit ids> [len=<m>]``.

    When a link classification is supplied, flagged SWAP/CNOT gates are
    renamed to their long-range kinds and annotated with the path length.
    """
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
