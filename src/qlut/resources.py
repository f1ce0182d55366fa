"""Exact resource counting over built circuits."""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from operator import itemgetter

from .errors import InvalidParamsError
from .ir import Circuit, GateKind


@dataclass(frozen=True)
class Decomposition:
    """T-gate cost of the non-Clifford primitives.

    t7 is the standard Clifford+T decomposition (7 T each for Toffoli and
    controlled-SWAP); t4 models temporary-AND accounting.
    """
    name: str
    t_per_ccnot: int
    t_per_cswap: int


DECOMPOSITIONS = {
    "t7": Decomposition("t7", 7, 7),
    "t4": Decomposition("t4", 4, 4),
}


@dataclass(frozen=True)
class ResourceCount:
    t_count: int
    qubit_count: int
    query_depth: int
    gate_histogram: dict[str, int]

    def to_json(self) -> dict:
        return {
            "tCount": self.t_count,
            "qubitCount": self.qubit_count,
            "queryDepth": self.query_depth,
            "gateHistogram": dict(sorted(self.gate_histogram.items())),
        }


def count_resources(circuit: Circuit, decomposition: Decomposition | str = "t7") -> ResourceCount:
    if isinstance(decomposition, str):
        try:
            decomposition = DECOMPOSITIONS[decomposition]
        except KeyError:
            raise InvalidParamsError(f"unknown decomposition {decomposition!r}") from None
    hist = Counter(map(itemgetter(0), circuit.rows))
    t_count = (hist[GateKind.CCNOT] * decomposition.t_per_ccnot
               + hist[GateKind.CSWAP] * decomposition.t_per_cswap)
    return ResourceCount(
        t_count=t_count,
        qubit_count=circuit.n_qubits,
        query_depth=circuit.depth,
        gate_histogram={kind.value: count for kind, count in hist.items()},
    )
