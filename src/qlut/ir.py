"""Gate-level intermediate representation.

A Circuit is an ordered tuple of self-inverse gates with ASAP logical layers,
a role table for its qubits, and named registers. Each gate is stored as a
plain ``(kind, qubits, layer, stage, rep)`` row (``Circuit.rows``), in
``Gate``'s field order; ``Circuit.gates`` wraps the rows as ``Gate``s on
first use. Circuits are frozen after build and safe to share across
threads, and each computes its read-only numpy view, ``Circuit.gate_arrays``,
once, on first use. The view's columns per gate (kind, arity, layer,
operands) are what the layout and simulator read in place of the rows.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from itertools import chain, groupby, repeat
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple

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

#: one stored gate: a plain tuple in ``Gate``'s field order
Row = tuple[GateKind, tuple[int, ...], int, str, int]

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


#: a gate's ``GateArrays.kind``: its kind's position in ``tuple(GateKind)``
_KIND_INDEX = {kind: i for i, kind in enumerate(GateKind)}


class GateArrays:
    """A circuit's gates and table as read-only numpy arrays.

    Per gate its ``arity``, ``layer`` and ``start``, the offset of its first
    operand in ``qubit`` (every gate's operands in gate order); ``words`` is
    the table as int64, empty without one. ``kind``, ``operands`` and
    ``touches`` are built on first use.
    """

    def __init__(self, circuit: Circuit) -> None:
        rows, operands, table = circuit.rows, itemgetter(1), circuit.table
        self.arity = np.fromiter(map(len, map(operands, rows)), np.intp, len(rows))
        self.layer = np.fromiter(map(itemgetter(2), rows), np.intp, len(rows))
        self.start = np.cumsum(self.arity) - self.arity
        self.qubit = np.fromiter(chain.from_iterable(map(operands, rows)), np.intp,
                                 int(self.arity.sum()))
        self.words = np.asarray(() if table is None else table.words, dtype=np.int64)
        for a in vars(self).values():
            a.flags.writeable = False
        self._rows = rows

    @cached_property
    def kind(self) -> np.ndarray:
        """Each gate's kind as its index in ``tuple(GateKind)``."""
        kinds = map(itemgetter(0), self._rows)
        kind = np.fromiter(map(_KIND_INDEX.__getitem__, kinds), np.intp, len(self.arity))
        kind.flags.writeable = False
        return kind

    @cached_property
    def operands(self) -> np.ndarray:
        """Gate i's operands in row i, padded with -1 to the largest arity
        (width at least 1)."""
        gate = np.repeat(np.arange(len(self.arity)), self.arity)
        operands = np.full((len(self.arity), int(self.arity.max(initial=1))), -1, np.intp)
        operands[gate, np.arange(len(self.qubit)) - self.start[gate]] = self.qubit
        operands.flags.writeable = False
        return operands

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
    rows: tuple[Row, ...]
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
        return self.rows[-1][2] + 1 if self.rows else 0

    def reg(self, name: str) -> tuple[int, ...]:
        return self.registers[name]

    @cached_property
    def gates(self) -> tuple[Gate, ...]:
        """The rows as named ``Gate``s, built on first use."""
        return tuple(map(Gate._make, self.rows))

    gate_arrays = cached_property(GateArrays)   # built on first use


class CircuitBuilder:
    """Accumulates gates with greedy as-soon-as-possible layer assignment."""

    def __init__(self, params: ArchParams | None = None, table: DataTable | None = None):
        self.qubits: list[QubitInfo] = []
        self.gates: list[Row] = []
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

    def new_qubits(self, infos: list[QubitInfo]) -> range:
        """Allocate one qubit per ``QubitInfo``, in order; their ids."""
        base = len(self.qubits)
        self.qubits += infos
        self._frontier += repeat(0, len(infos))
        return range(base, len(self.qubits))

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
                layer = frontier[a]
                if frontier[b] > layer:
                    layer = frontier[b]
                if frontier[c] > layer:
                    layer = frontier[c]
                frontier[a] = frontier[b] = frontier[c] = layer + 1
            else:
                if len(set(qubits)) != n:
                    raise ValueError(f"duplicate operand in {kind}: {qubits}")
                layer = max([frontier[q] for q in qubits])
                for q in qubits:
                    frontier[q] = layer + 1
            append((kind, tuple(qubits), layer, stage, rep))

    def extend(self, rows: Iterable[Row]) -> None:
        """Re-emit existing gates (fresh layers, original stage tags kept)."""
        stage, rep = self.stage, self.rep
        for (self.stage, self.rep), run in groupby(rows, key=itemgetter(3, 4)):
            self.emit_ops(map(itemgetter(0, 1), run))
        self.stage, self.rep = stage, rep

    def build(self) -> Circuit:
        return Circuit(
            qubits=tuple(self.qubits), rows=tuple(self.gates), params=self.params,
            table=self.table, registers=self.registers, routers=self.routers,
            meta=self.meta,
        )


#: the kind a long-range-flagged gate is exported as
_LONG_RANGE_KIND = {GateKind.SWAP: GateKind.LR_SWAP, GateKind.CNOT: GateKind.LR_CNOT}


#: most gate-list lines in one chunk of :func:`gate_lines`
_CHUNK_LINES = 4096


def gate_lines(circuit: Circuit,
               link_by_gate: dict[int, "object"] | None = None) -> Iterator[str]:
    """The gate list of :func:`export_gate_list` in chunks of at most
    ``_CHUNK_LINES`` newline-terminated lines; an empty circuit gives one
    empty line."""
    rows = circuit.rows
    if not rows:
        yield "\n"
        return
    ids = [str(q) for q in range(circuit.n_qubits)]
    # operand strings per distinct operand tuple: the builders repeat the
    # same op lists, so most gates reuse one
    operands: dict[tuple[int, ...], str] = {}
    flagged = sorted((link_by_gate or {}).items())
    f = 0
    for start in range(0, len(rows), _CHUNK_LINES):
        stop = start + _CHUNK_LINES
        lines = []
        append = lines.append
        for kind, qubits, layer, stage, _ in rows[start:stop]:
            text = operands.get(qubits)
            if text is None:
                text = operands[qubits] = " ".join([ids[q] for q in qubits])
            append(f"LAYER {layer} STAGE {stage} {kind._value_} {text}\n")
        while f < len(flagged) and flagged[f][0] < stop:
            idx, link = flagged[f]
            f += 1
            kind, qubits, layer, stage, _ = rows[idx]
            kind = _LONG_RANGE_KIND.get(kind, kind)
            lines[idx - start] = (f"LAYER {layer} STAGE {stage} {kind._value_} "
                                  f"{operands[qubits]} len={link.m}\n")
        yield "".join(lines)


def export_gate_list(circuit: Circuit, link_by_gate: dict[int, "object"] | None = None) -> str:
    """One gate per line: ``LAYER <k> STAGE <s> <KIND> <qubit ids> [len=<m>]``.

    When a link classification is supplied, flagged SWAP/CNOT gates are
    renamed to their long-range kinds and annotated with the path length.
    """
    return "".join(gate_lines(circuit, link_by_gate))
