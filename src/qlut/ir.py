"""Gate-level intermediate representation.

A Circuit is an ordered tuple of self-inverse gates with ASAP logical layers,
a role table for its qubits, and named registers. Each gate is stored as a
plain ``(kind, qubits, layer, stage, rep)`` row (``Circuit.rows``), in
``Gate``'s field order; ``Circuit.gates`` wraps the rows as ``Gate``s on
first use. Circuits are frozen after build and safe to share across
threads, and each computes its read-only numpy view, ``Circuit.gate_arrays``,
once, on first use (the simulator keeps its per-circuit analysis state on
the circuit the same way). The view's columns per gate (kind, arity, layer,
operands, and each gate's index into the distinct operand tuples) are what
the layout and simulator read in place of the rows.
"""
from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from itertools import chain, count, groupby, repeat
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


def _frozen(a: np.ndarray) -> np.ndarray:
    """``a``, made read-only."""
    a.flags.writeable = False
    return a


class GateArrays:
    """A circuit's gates and table as read-only numpy arrays, each column
    built on first use.

    The builders replay the same op lists, so a circuit holds far fewer
    distinct operand tuples than gates. ``op`` gives each gate's index into
    ``distinct``, those tuples in first-seen order, padded with -1; a
    gate's ``arity`` and ``operands`` are gathered from the two, and
    ``qubit`` holds every gate's operands in gate order. Per gate also its
    ``layer`` and ``kind``, and per qubit its timeline ``touches``;
    ``words`` is the table as int64, empty without one.
    """

    def __init__(self, circuit: Circuit) -> None:
        self._rows, self._table = circuit.rows, circuit.table

    @cached_property
    def _interned(self) -> tuple[np.ndarray, np.ndarray]:
        """``op`` and ``distinct``, from one pass over the rows."""
        rows = self._rows
        # one C-level pass: each new operand tuple takes the next index
        index: defaultdict[tuple[int, ...], int] = defaultdict(count().__next__)
        op = np.fromiter(map(index.__getitem__, map(itemgetter(1), rows)), np.intp, len(rows))
        arity = np.fromiter(map(len, index), np.intp, len(index))
        distinct = np.full((len(index), int(arity.max(initial=1))), -1, np.intp)
        distinct[np.arange(distinct.shape[1]) < arity[:, None]] = np.fromiter(
            chain.from_iterable(index), np.intp, int(arity.sum()))
        return _frozen(op), _frozen(distinct)

    @property
    def op(self) -> np.ndarray:
        """Each gate's operand tuple as its row in ``distinct``."""
        return self._interned[0]

    @property
    def distinct(self) -> np.ndarray:
        """The distinct operand tuples, one per row in first-seen order,
        padded with -1 to the largest arity (width at least 1)."""
        return self._interned[1]

    @cached_property
    def arity(self) -> np.ndarray:
        """Each gate's number of operands."""
        return _frozen(np.count_nonzero(self.distinct >= 0, axis=1)[self.op])

    @cached_property
    def operands(self) -> np.ndarray:
        """Gate i's operands in row i, padded as ``distinct``."""
        return _frozen(self.distinct[self.op])

    @cached_property
    def qubit(self) -> np.ndarray:
        """Every gate's operands, in gate order."""
        operands = self.operands
        return _frozen(operands[operands >= 0])

    @cached_property
    def layer(self) -> np.ndarray:
        """Each gate's layer."""
        rows = self._rows
        return _frozen(np.fromiter(map(itemgetter(2), rows), np.intp, len(rows)))

    @cached_property
    def kind(self) -> np.ndarray:
        """Each gate's kind as its index in ``tuple(GateKind)``."""
        rows = self._rows
        kinds = map(itemgetter(0), rows)
        return _frozen(np.fromiter(map(_KIND_INDEX.__getitem__, kinds), np.intp, len(rows)))

    @cached_property
    def touches(self) -> np.ndarray:
        """Each qubit's timeline, sorted on first use: the code qubit *
        (len(gates) + 1) + gate of every operand, ascending, then int64 max."""
        span = len(self._rows) + 1
        codes = np.sort(self.qubit * span + np.repeat(np.arange(span - 1), self.arity))
        return _frozen(np.append(codes, np.iinfo(np.int64).max))

    @cached_property
    def words(self) -> np.ndarray:
        """The table's words as int64, empty without a table."""
        table = self._table
        return _frozen(np.asarray(() if table is None else table.words, dtype=np.int64))


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
        self.rows: list[Row] = []
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
        frontier, append = self._frontier, self.rows.append
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
            qubits=tuple(self.qubits), rows=tuple(self.rows), params=self.params,
            table=self.table, registers=self.registers, routers=self.routers,
            meta=self.meta,
        )


#: the kind a long-range-flagged gate is exported as
_LONG_RANGE_KIND = {GateKind.SWAP: GateKind.LR_SWAP, GateKind.CNOT: GateKind.LR_CNOT}


#: most gate-list lines in one chunk of :func:`gate_lines`
_CHUNK_LINES = 4096


def gate_lines(circuit: Circuit,
               link_by_gate: dict[int, "object"] | None = None) -> Iterator[str]:
    """The gate list, one gate per line:
    ``LAYER <k> STAGE <s> <KIND> <qubit ids> [len=<m>]``.

    When a link classification is supplied, flagged SWAP/CNOT gates are
    renamed to their long-range kinds and annotated with the path length.
    Yields chunks of at most ``_CHUNK_LINES`` newline-terminated lines; an
    empty circuit gives one empty line.
    """
    rows = circuit.rows
    if not rows:
        yield "\n"
        return
    # decimal strings of every qubit id and layer
    text = list(map(str, range(max(circuit.n_qubits, max(map(itemgetter(2), rows)) + 1))))
    # long-range gates in gate order, then a sentinel past the last gate
    flagged = sorted((link_by_gate or {}).items())
    flagged.append((len(rows), None))
    f, lr = 0, flagged[0][0]
    for start in range(0, len(rows), _CHUNK_LINES):
        lines: list[str] = []
        append = lines.append
        # one f-string per arity; a long-range line is written once, renamed
        for g, (kind, qubits, layer, stage, _) in enumerate(
                rows[start:start + _CHUNK_LINES], start):
            if g == lr:
                link = flagged[f][1]
                f += 1
                lr = flagged[f][0]
                kind = _LONG_RANGE_KIND.get(kind, kind)
                append(f"LAYER {text[layer]} STAGE {stage} {kind._value_} "
                       f"{' '.join([text[q] for q in qubits])} len={link.m}\n")
                continue
            n = len(qubits)
            if n == 2:
                a, b = qubits
                append(f"LAYER {text[layer]} STAGE {stage} {kind._value_} {text[a]} {text[b]}\n")
            elif n == 3:
                a, b, c = qubits
                append(f"LAYER {text[layer]} STAGE {stage} {kind._value_} "
                       f"{text[a]} {text[b]} {text[c]}\n")
            elif n == 1:
                a, = qubits
                append(f"LAYER {text[layer]} STAGE {stage} {kind._value_} {text[a]}\n")
            else:
                append(f"LAYER {text[layer]} STAGE {stage} {kind._value_} "
                       f"{' '.join([text[q] for q in qubits])}\n")
        yield "".join(lines)
