"""The array-speed instance pipeline against its per-gate reference.

``CircuitBuilder.emit_ops`` with the memoised op lists, the numpy link
classification, the array schedule and the per-arity gate-list export
must give exactly what the per-gate loops in ``tests/scalar_reference.py``
give, on every shape with N <= 64 and on the three reference
architectures. The schedule, which reads start times off the builder's
layers, is also compared on N = 512 and 1024 trees, and those layers are
checked to be the ASAP layers of the gate order at benchmark sizes.
The H-tree placement is compared with its per-cell reference on every
N <= 64 shape, on deep lambda = N trees and on the three reference
architectures up to N = 1024.
"""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import scalar_reference
from conftest import build_linear_router_round, lam_gamma_grid, random_table, workloads
from qlut import builders, ir
from qlut.errors import PlacementOverflowError
from qlut.ir import CircuitBuilder, GateKind, Role, Stage, gate_lines
from qlut.layout import GridPlacement, build_schedule, classify_links, place_htree
from qlut.params import DataTable, Readout, derive_params
from test_bench_digests import SHAPES as BENCH_SHAPES

WORDS = ((1, Readout.SINGLE_BIT), (2, Readout.PARALLEL), (2, Readout.SEQUENTIAL),
         (4, Readout.SEQUENTIAL))
SHAPES = [(N, lam, gamma, b, readout)
          for N in (1, 2, 4, 8, 16, 32, 64)
          for lam, gamma in lam_gamma_grid(N)
          for b, readout in WORDS]
REFERENCES = [(kind, N) for kind in ("BucketBrigade", "FanOut", "SelectSwap")
              for N in (2, 4, 8, 16, 32, 64)]
PLACED_SHAPES = ([(N, lam, gamma, 1, "SingleBit")
                  for N in (1, 2, 4, 8, 16, 32, 64) for lam, gamma in lam_gamma_grid(N)]
                 + [(N, N, gamma, 1, "SingleBit")
                    for N in (128, 256, 512, 1024, 2048, 4096) for gamma in (1, 2)]
                 + [shape for shape in BENCH_SHAPES if shape[3] == 1])


def _assert_same_schedule(got, want):
    """Equal in every field, in dict key order, and as plain Python ints."""
    assert got == want
    assert type(got.total_depth) is int
    for field in ("idle", "tau", "level_crossings"):
        items = list(getattr(got, field).items())
        assert items == list(getattr(want, field).items())
        assert all(type(k) is int and type(v) is int for k, v in items)


def _assert_same_instance(fast, ref):
    assert fast.gates == ref.gates   # kind, qubits, layer, stage and rep
    assert fast.qubits == ref.qubits
    assert fast.registers == ref.registers and fast.routers == ref.routers
    if fast.meta.get("family") in ("tree", "select_swap"):
        placement = place_htree(fast)
        for k in (0, 1, 2):
            links, by_gate = classify_links(fast, placement, k)
            ref_links, ref_by_gate = scalar_reference.classify_links(ref, placement, k)
            assert links == ref_links
            assert list(by_gate.items()) == list(ref_by_gate.items())
            for depth in (False, True):
                want = scalar_reference.build_schedule(ref, ref_by_gate, depth)
                _assert_same_schedule(build_schedule(fast, by_gate, depth), want)
            assert ("".join(gate_lines(fast, by_gate))
                    == scalar_reference.export_gate_list(ref, ref_by_gate))
    assert "".join(gate_lines(fast)) == scalar_reference.export_gate_list(ref)
    assert (builders.build_uncompute(fast).gates
            == scalar_reference.build(builders.build_uncompute, ref).gates)


@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "/".join(map(str, s)))
@settings(derandomize=True, deadline=None, database=None, max_examples=2)
@given(data=st.data())
def test_lookup_matches_per_gate_reference(shape, data):
    N, lam, gamma, b, readout = shape
    words = data.draw(st.lists(st.integers(0, (1 << b) - 1), min_size=N, max_size=N))
    params = derive_params(N, lam, gamma, b, readout)
    table = DataTable(words=tuple(words), b=b)
    _assert_same_instance(builders.build_lookup(params, table),
                          scalar_reference.build(builders.build_lookup, params, table))


@pytest.mark.parametrize("kind,N", REFERENCES)
@settings(derandomize=True, deadline=None, database=None, max_examples=2)
@given(data=st.data())
def test_reference_matches_per_gate_reference(kind, N, data):
    words = data.draw(st.lists(st.integers(0, 1), min_size=N, max_size=N))
    table = DataTable(words=tuple(words), b=1)
    _assert_same_instance(builders.build_reference(kind, N, table),
                          scalar_reference.build(builders.build_reference, kind, N, table))


def _assert_same_placement(circuit) -> bool:
    """Same coords in the same order, bounds and reserved cells, or the same
    PlacementOverflowError; whether the circuit was placed."""
    try:
        want = scalar_reference.place_htree(circuit)
    except PlacementOverflowError as exc:
        with pytest.raises(PlacementOverflowError) as got:
            place_htree(circuit)
        assert str(got.value) == str(exc)
        return False
    got = place_htree(circuit)
    assert list(got.coords.items()) == list(want.coords.items())
    assert got.bounds == want.bounds and got.reserved == want.reserved
    return True


@pytest.mark.parametrize("shape", PLACED_SHAPES, ids=workloads.shape_key)
def test_placement_matches_per_cell_reference(shape):
    N, lam, gamma, b, readout = shape
    table = DataTable(words=tuple(workloads.table_words(N, b, "report")), b=b)
    params = derive_params(N, lam, gamma, b, Readout(readout))
    assert _assert_same_placement(builders.build_lookup(params, table))


@pytest.mark.parametrize("kind", ["BucketBrigade", "FanOut", "SelectSwap"])
def test_reference_placement_matches_per_cell_reference(kind):
    # every reference places, identically and injectively, up to N = 1024;
    # from N = 128 on SelectSwap's select nodes fall back past the 8-cell
    # ladder around their memory cells
    for N in (2, 4, 8, 16, 32, 64, 128, 256, 512, 1024):
        table = DataTable(words=tuple(a % 3 & 1 for a in range(N)), b=1)
        circuit = builders.build_reference(kind, N, table)
        assert _assert_same_placement(circuit)
        coords = place_htree(circuit).coords
        assert len(coords) == circuit.n_qubits
        assert len(set(coords.values())) == len(coords)


@pytest.mark.parametrize("chunk_lines", [1, 7, ir._CHUNK_LINES])
def test_gate_lines_chunks_join_to_the_reference_export(monkeypatch, chunk_lines):
    # chunks of at most _CHUNK_LINES whole lines, each long-range line
    # rendered in its own chunk, on every N <= 16 shape; no gates, one line
    monkeypatch.setattr(ir, "_CHUNK_LINES", chunk_lines)
    circuits = [(CircuitBuilder().build(), None)]
    for N, lam, gamma, b, readout in SHAPES:
        if N <= 16:
            params = derive_params(N, lam, gamma, b, readout)
            words = tuple((a * 5 + 3) % (1 << b) for a in range(N))
            circuits.append((builders.build_lookup(params, DataTable(words, b)), params.k))
    with_links = 0
    for circuit, k in circuits:
        variants = [{}]
        if circuit.meta.get("family") == "tree":
            variants.append(classify_links(circuit, place_htree(circuit), free_levels=k)[1])
        for by_gate in variants:
            chunks = list(ir.gate_lines(circuit, by_gate))
            assert all(0 < chunk.count("\n") <= chunk_lines and chunk.endswith("\n")
                       for chunk in chunks)
            assert "".join(chunks) == scalar_reference.export_gate_list(circuit, by_gate)
            with_links += bool(by_gate)
    assert with_links > 10


KINDS_OF_ARITY = {1: [GateKind.X], 2: [GateKind.SWAP, GateKind.CNOT],
                  3: [GateKind.CSWAP, GateKind.CCNOT], 4: [GateKind.CCNOT]}


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(data=st.data())
def test_random_gates_match_per_gate_reference(data):
    # hand-drawn placements reach what the builders' geometry does not:
    # equal-distance operand pairs (the (m, source, target) tie-break),
    # gates with 4 operands and every mix of levels
    n = data.draw(st.integers(2, 8))
    cells = data.draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                               min_size=n, max_size=n, unique=True))
    levels = data.draw(st.lists(st.integers(-1, 2), min_size=n, max_size=n))
    operands = data.draw(st.lists(
        st.integers(1, min(4, n)).flatmap(
            lambda k: st.permutations(range(n)).map(lambda p: tuple(p[:k]))),
        max_size=16))
    ops = [(data.draw(st.sampled_from(KINDS_OF_ARITY[len(q)])), q) for q in operands]
    fast, ref = CircuitBuilder(), scalar_reference.ScalarCircuitBuilder()
    for b in (fast, ref):
        for level in levels:
            b.new_qubit(Role.ROUTER_INPUT, level)
        b.emit_ops(ops)
    assert fast.rows == ref.rows
    circuit = fast.build()
    placement = GridPlacement(coords=dict(enumerate(cells)), bounds=(4, 4))
    for k in (0, 1, 2):
        links, by_gate = classify_links(circuit, placement, k)
        ref_links, ref_by_gate = scalar_reference.classify_links(circuit, placement, k)
        assert links == ref_links
        assert list(by_gate.items()) == list(ref_by_gate.items())
        assert ("".join(gate_lines(circuit, by_gate))
                == scalar_reference.export_gate_list(circuit, ref_by_gate))


def test_schedule_counts_branch_swaps_in_either_operand_order(rng):
    # a Stage-I transfer along the canonical branch counts as a level
    # crossing whichever operand comes first
    circ = builders.build_unified_lookup(derive_params(16, 16, 1), random_table(rng, 16))
    b = CircuitBuilder(circ.params, circ.table)
    b.qubits, b.registers, b.routers = list(circ.qubits), circ.registers, circ.routers
    b._frontier = [0] * circ.n_qubits
    b.extend(circ.gates)
    parent, child = circ.routers[(1, 0, 0)], circ.routers[(2, 0, 0)]
    b.stage = Stage.I
    b.emit(GateKind.SWAP, child.inp, parent.left)
    b.emit(GateKind.SWAP, parent.left, child.inp)
    swapped = b.build()
    got = build_schedule(swapped)
    assert got == scalar_reference.build_schedule(swapped)
    assert got.level_crossings[1] == build_schedule(circ).level_crossings[1] + 2


@pytest.mark.parametrize("N,lam,gamma", [(512, 512, 1), (1024, 16, 1), (1024, 64, 8)])
def test_schedule_matches_walk_on_deep_trees(N, lam, gamma):
    # the N <= 64 grid above has at most a few hundred gates; these have
    # thousands, deep idle windows and stretched links at every level
    table = DataTable(words=tuple(workloads.table_words(N, 1, "report")), b=1)
    circ = builders.build_lookup(derive_params(N, lam, gamma), table)
    placement = place_htree(circ)
    for k in (0, 1):
        _, by_gate = classify_links(circ, placement, k)
        for depth in (False, True):
            _assert_same_schedule(build_schedule(circ, by_gate, depth),
                                  scalar_reference.build_schedule(circ, by_gate, depth))


@pytest.mark.parametrize("circuit", [
    builders.build_cnot_tree(4), builders.build_cnot_tree(4, optimized=False),
    builders.build_cswap_router(), builders.build_cswap_router(merged=True),
    build_linear_router_round(3, 5),
], ids=["cnot-tree", "cnot-tree-literal", "cswap-router", "cswap-router-merged",
        "linear-router-round"])
def test_schedule_of_circuit_without_address_or_input(circuit):
    # a missing register reads as empty: no injection window, tau from 0
    got = build_schedule(circuit)
    _assert_same_schedule(got, scalar_reference.build_schedule(circuit))
    assert got.total_depth == 1 + max(g.layer for g in circuit.gates)


@pytest.mark.parametrize("shape", BENCH_SHAPES, ids=workloads.shape_key)
def test_layers_are_asap_layers_of_the_gate_order(shape):
    # build_schedule reads start times off Gate.layer: every gate must sit on
    # the layer after the latest previous gate on any of its operands
    N, lam, gamma, b, readout = shape
    table = DataTable(words=tuple(workloads.table_words(N, b, "report")), b=b)
    view = builders.build_lookup(derive_params(N, lam, gamma, b, readout), table).gate_arrays
    qubit, gate = np.divmod(view.touches[:-1], len(view.arity) + 1)
    same = qubit[1:] == qubit[:-1]
    asap = np.zeros_like(view.layer)
    np.maximum.at(asap, gate[1:][same], view.layer[gate[:-1][same]] + 1)
    assert np.array_equal(view.layer, asap)


@pytest.mark.parametrize("qubits", [(0, 0), (0, 1, 0), (1, 0, 0), (0, 1, 1), (0, 1, 2, 0)])
def test_repeated_operand_raises(qubits):
    kind = GateKind.CNOT if len(qubits) == 2 else GateKind.CSWAP
    for emit in (lambda b: b.emit(kind, *qubits), lambda b: b.emit_ops([(kind, qubits)])):
        b = CircuitBuilder()
        for _ in range(3):
            b.new_qubit(Role.INPUT)
        with pytest.raises(ValueError, match="duplicate operand"):
            emit(b)
        assert b.rows == []
