import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    build_linear_router_round, check_layer_disjointness, classical_lookup, gate_multiset,
    lam_gamma_grid, lookup_target, masked_stage2_cells, random_table,
)
from dense_oracle import basis_state, overlap, run_dense
from qlut.builders import (
    ReferenceKind, build_cnot_tree, build_cswap_router, build_reference, build_lookup,
    build_uncompute, build_unified_lookup,
)
from qlut.ir import GateKind, Role, Stage
from qlut.params import DataTable, Readout, derive_params
from qlut.simulator import lookup_correct, run_basis
from state_helpers import (
    basis_input, pack_register, read_register,
    run_linear, sparse_overlap,
    uniform_address_superposition,
)


# -- router and CNOT-tree primitives ------------------------------------------

def _router_state(merged, t, inp, left=0, right=0):
    c = build_cswap_router(merged=merged)
    bits = 0
    bits |= t << c.reg("t")[0]
    bits |= inp << c.reg("inp")[0]
    bits |= left << c.reg("left")[0]
    bits |= right << c.reg("right")[0]
    out, _ = run_basis(c, bits)
    return {name: read_register(out, c.reg(name)) for name in ("t", "inp", "left", "right")}


def test_router_routes_left_on_zero():
    got = _router_state(False, t=0, inp=1)
    assert got["left"] == 1 and got["right"] == 0


def test_router_routes_right_on_one():
    got = _router_state(False, t=1, inp=1)
    assert got["right"] == 1 and got["left"] == 0


def test_router_superposed_status_entangles():
    c = build_cswap_router(merged=False)
    t, inp = c.reg("t")[0], c.reg("inp")[0]
    left, right = c.reg("left")[0], c.reg("right")[0]
    dim = 1 << c.n_qubits
    state = np.zeros(dim, dtype=complex)
    state[1 << inp] = 1 / np.sqrt(2)            # t=0 branch
    state[(1 << inp) | (1 << t)] = 1 / np.sqrt(2)  # t=1 branch
    out = run_dense(c, state)
    expect = np.zeros(dim, dtype=complex)
    expect[1 << left] = 1 / np.sqrt(2)
    expect[(1 << t) | (1 << right)] = 1 / np.sqrt(2)
    assert overlap(out, expect) == pytest.approx(1.0)


def test_merged_router_saves_a_qubit_and_a_cswap():
    full = build_cswap_router(merged=False)
    merged = build_cswap_router(merged=True)
    assert merged.n_qubits == full.n_qubits - 1
    full_cswaps = sum(1 for g in full.gates if g.kind == GateKind.CSWAP)
    merged_cswaps = sum(1 for g in merged.gates if g.kind == GateKind.CSWAP)
    assert (full_cswaps, merged_cswaps) == (2, 1)
    got = _router_state(True, t=1, inp=1)
    assert got["right"] == 1
    got = _router_state(True, t=0, inp=1)
    assert got["left"] == 1  # merged: input doubles as the left output


@pytest.mark.parametrize("gamma,root", [(2, 1), (4, 0), (8, 1)])
def test_cnot_tree_diffuses_classical_bit(gamma, root):
    c = build_cnot_tree(gamma)
    bits = root << c.reg("root")[0]
    out, _ = run_basis(c, bits)
    for leaf in c.reg("leaves"):
        assert (out >> leaf) & 1 == root


def test_cnot_tree_has_no_t_gates_and_minimal_count():
    c = build_cnot_tree(8)
    kinds = {g.kind for g in c.gates}
    assert kinds == {GateKind.CNOT}
    assert len(c.gates) == 7
    assert c.n_qubits == 8  # input doubles as one output


def test_cnot_tree_superposed_root_gives_ghz():
    c = build_cnot_tree(2)
    dim = 1 << c.n_qubits
    state = np.zeros(dim, dtype=complex)
    root = c.reg("root")[0]
    state[0] = 1 / np.sqrt(2)
    state[1 << root] = 1 / np.sqrt(2)
    out = run_dense(c, state)
    expect = np.zeros(dim, dtype=complex)
    expect[0] = 1 / np.sqrt(2)
    expect[sum(1 << q for q in c.reg("leaves"))] = 1 / np.sqrt(2)
    assert overlap(out, expect) == pytest.approx(1.0)


def test_unoptimized_cnot_tree_shape():
    c = build_cnot_tree(4, optimized=False)
    assert c.n_qubits == 7
    assert len(c.reg("leaves")) == 4


# -- linear routers ------------------------------------------------------------

@pytest.mark.parametrize("d", [0, 1, 2, 3, 4])
def test_linear_router_indicator(d):
    for rep in range(1 << d):
        c = build_linear_router_round(d, rep)
        for a in range(1 << d):
            bits = pack_register(a, c.reg("address")) if d else 0
            out, _ = run_basis(c, bits)
            q = (out >> c.reg("control")[0]) & 1
            assert q == (1 if a == rep else 0), (d, rep, a)
            # address register must be restored up to the pattern flips
            assert read_register(out, c.reg("address")) == (a ^ (((1 << d) - 1) ^ rep) if d else 0)


# -- unified lookup: functional correctness ------------------------------------

def _check_lookup(circuit, table, b=1):
    params = circuit.params
    for a in range(params.N):
        out, phase = run_basis(circuit, basis_input(circuit, a))
        assert phase == 0
        addr = read_register(out, circuit.reg("address"))
        word = read_register(out, circuit.reg("bus"), big_endian=False)
        assert addr == a
        assert word == classical_lookup(table, a, b), (params, a)


@pytest.mark.parametrize("N", [1, 2, 4, 8, 16])
def test_unified_lookup_all_grid_points(N, rng):
    for lam, gamma in lam_gamma_grid(N):
        params = derive_params(N, lam, gamma)
        for _ in range(3):
            table = random_table(rng, N)
            circ = build_unified_lookup(params, table)
            _check_lookup(circ, table)


def test_unified_lookup_fig11_routers_set(fig11_params):
    # address 0 with x_0 = 1: bus reads 1 and the path router statuses hold
    # the middle/low address bits (all zero here), per the running example
    table = DataTable(words=(1,) + (0,) * 15, b=1)
    circ = build_unified_lookup(fig11_params, table)
    out, _ = run_basis(circ, basis_input(circ, 0))
    assert read_register(out, circ.reg("bus"), big_endian=False) == 1
    for (level, pos, w), router in circ.routers.items():
        assert (out >> router.t) & 1 == 0  # a = 0000: every status bit is 0


def test_unified_lookup_trivial_n2():
    table = DataTable(words=(1, 0), b=1)
    circ = build_unified_lookup(derive_params(2, 2, 1), table)
    out, _ = run_basis(circ, basis_input(circ, 0))
    assert read_register(out, circ.reg("bus"), big_endian=False) == 1


def test_stage2_postcondition_matches_masked_xor(rng):
    # after Stage II the cells hold the Eq.-(2) accumulation restricted to the
    # activated CNOT tree, checked against an independent classical oracle
    for N, lam, gamma in [(8, 4, 2), (8, 8, 2), (16, 4, 2), (16, 8, 4), (16, 16, 1)]:
        params = derive_params(N, lam, gamma)
        table = random_table(rng, N)
        circ = build_unified_lookup(params, table)
        n_stage12 = sum(1 for g in circ.gates if g.stage in (Stage.I, Stage.II))
        partial = type(circ)(
            qubits=circ.qubits, rows=circ.rows[:n_stage12], params=params,
            table=table, registers=circ.registers, routers=circ.routers)
        for a in range(N):
            out, _ = run_basis(partial, basis_input(partial, a))
            got = [(out >> c) & 1 for c in circ.reg("cells")]
            assert got == masked_stage2_cells(table, params, a), (params, a)


def test_superposition_query_linearity(rng):
    for N, lam, gamma in [(4, 2, 1), (8, 4, 2)]:
        params = derive_params(N, lam, gamma)
        table = random_table(rng, N)
        circ = build_uncompute(build_unified_lookup(params, table))
        amps = uniform_address_superposition(circ)
        got = run_linear(circ, amps)
        assert sparse_overlap(lookup_target(circ, amps), got) > 1 - 1e-9
        # arbitrary complex amplitudes, not just the uniform query
        raw = rng.normal(size=N) + 1j * rng.normal(size=N)
        raw /= np.linalg.norm(raw)
        amps = {basis_input(circ, a): raw[a] for a in range(N)}
        got = run_linear(circ, amps)
        assert sparse_overlap(lookup_target(circ, amps), got) > 1 - 1e-9


def test_stage2_repetition_count(rng):
    for N, lam, gamma in [(16, 4, 2), (16, 2, 1), (8, 8, 2)]:
        params = derive_params(N, lam, gamma)
        circ = build_unified_lookup(params, random_table(rng, N))
        reps = {g.rep for g in circ.gates if g.stage == Stage.II}
        assert reps == set(range(params.repetitions))


# -- multi-bit builders ---------------------------------------------------------

@pytest.mark.parametrize("N,lam,gamma,b", [(4, 2, 1, 2), (8, 4, 2, 2), (16, 4, 2, 2), (8, 2, 2, 4)])
def test_parallel_readout(N, lam, gamma, b, rng):
    params = derive_params(N, lam, gamma, b=b, readout=Readout.PARALLEL)
    table = random_table(rng, N, b=b)
    circ = build_lookup(params, table)
    _check_lookup(circ, table, b=b)


@pytest.mark.parametrize("N,lam,gamma,b", [(4, 2, 1, 2), (8, 4, 2, 2), (16, 4, 2, 2), (8, 2, 2, 4)])
def test_sequential_readout(N, lam, gamma, b, rng):
    params = derive_params(N, lam, gamma, b=b, readout=Readout.SEQUENTIAL)
    table = random_table(rng, N, b=b)
    circ = build_lookup(params, table)
    _check_lookup(circ, table, b=b)


def _multi_word_shapes() -> list[tuple]:
    """Every (N, lambda, gamma, b, readout) with N <= 64, b in {2, 4} and a
    multi-word readout."""
    return [(N, 1 << i, 1 << j, b, readout) for N in (1, 2, 4, 8, 16, 32, 64)
            for i in range(N.bit_length()) for j in range(i + 1)
            for b in (2, 4) for readout in (Readout.PARALLEL, Readout.SEQUENTIAL)]


@settings(derandomize=True, deadline=None, database=None, max_examples=40)
@given(shape=st.sampled_from(_multi_word_shapes()), data=st.data())
def test_multi_word_lookup_matches_the_table(shape, data):
    # every basis query reads its table word, and the check sees one wrong
    # word bit on the multi-qubit bus
    N, lam, gamma, b, readout = shape
    words = data.draw(st.tuples(*[st.integers(0, (1 << b) - 1)] * N), label="table")
    table = DataTable(words, b)
    circ = build_lookup(derive_params(N, lam, gamma, b=b, readout=readout), table)
    assert lookup_correct(circ)
    address = data.draw(st.integers(0, N - 1), label="address")
    out, _ = run_basis(circ, basis_input(circ, address))
    assert read_register(out, circ.reg("bus"), big_endian=False) == \
        classical_lookup(table, address, b)
    flipped = list(words)
    flipped[address] ^= 1 << data.draw(st.integers(0, b - 1), label="bit")
    assert not lookup_correct(dataclasses.replace(circ, table=DataTable(tuple(flipped), b)))


def test_multibit_b1_degenerates_to_single_bit(rng):
    table = random_table(rng, 8)
    base = build_unified_lookup(derive_params(8, 4, 2), table)
    par = build_lookup(derive_params(8, 4, 2, readout=Readout.PARALLEL), table)
    seq = build_lookup(derive_params(8, 4, 2, readout=Readout.SEQUENTIAL), table)
    assert gate_multiset(par) == gate_multiset(base)
    assert gate_multiset(seq) == gate_multiset(base)


# -- uncompute -------------------------------------------------------------------

@pytest.mark.parametrize("N,lam,gamma", [(4, 4, 1), (4, 2, 1), (8, 4, 2), (8, 8, 2)])
def test_uncompute_restores_all_ancilla(N, lam, gamma, rng):
    params = derive_params(N, lam, gamma)
    table = random_table(rng, N)
    circ = build_uncompute(build_unified_lookup(params, table))
    addr_reg, bus_reg = circ.reg("address"), circ.reg("bus")
    clean_mask = sum(1 << q for q in range(circ.n_qubits)
                     if q not in addr_reg and q not in bus_reg)
    for a in range(N):
        out, phase = run_basis(circ, basis_input(circ, a))
        assert phase == 0
        assert out & clean_mask == 0, (params, a)
        assert read_register(out, addr_reg) == a
        assert read_register(out, bus_reg, big_endian=False) == classical_lookup(table, a)


def test_uncompute_multibit(rng):
    for mode in (Readout.PARALLEL, Readout.SEQUENTIAL):
        params = derive_params(8, 4, 2, b=2, readout=mode)
        table = random_table(rng, 8, b=2)
        circ = build_uncompute(build_lookup(params, table))
        addr_reg, bus_reg = circ.reg("address"), circ.reg("bus")
        clean_mask = sum(1 << q for q in range(circ.n_qubits)
                         if q not in addr_reg and q not in bus_reg)
        for a in range(8):
            out, phase = run_basis(circ, basis_input(circ, a))
            assert out & clean_mask == 0 and phase == 0
            assert read_register(out, bus_reg, big_endian=False) == table.words[a]


def test_uncompute_d0_edge(rng):
    table = random_table(rng, 4)
    circ = build_uncompute(build_unified_lookup(derive_params(4, 4, 1), table))
    stages = {g.stage for g in circ.gates}
    assert stages == {Stage.I, Stage.II, Stage.III}


# -- references ------------------------------------------------------------------

def test_bucket_brigade_reference_matches_specialization(rng):
    for N in (2, 4, 8, 16):
        table = random_table(rng, N)
        unified = build_unified_lookup(derive_params(N, N, 1), table)
        ref = build_reference(ReferenceKind.BUCKET_BRIGADE, N, table)
        assert gate_multiset(unified) == gate_multiset(ref)


def test_fan_out_reference(rng):
    table = DataTable(words=(0, 1, 1, 0), b=1)
    circ = build_reference(ReferenceKind.FAN_OUT, 4, table)
    for a in range(4):
        out, _ = run_basis(circ, basis_input(circ, a))
        assert read_register(out, circ.reg("bus"), big_endian=False) == table.words[a]


def test_select_swap_reference(rng):
    table = random_table(rng, 16)
    circ = build_reference(ReferenceKind.SELECT_SWAP, 16, table)
    for a in range(16):
        out, _ = run_basis(circ, basis_input(circ, a))
        assert read_register(out, circ.reg("bus"), big_endian=False) == table.words[a]
    assert read_register(basis_input(circ, 5), circ.reg("address")) == 5


def test_reference_toy_model_shape(rng):
    table = random_table(rng, 2)
    circ = build_reference("BucketBrigade", 2, table)
    assert (0, 0, 0) in circ.routers
    assert circ.n_qubits == 1 + 1 + 1 + 1 + 4 + 2  # addr, input, bus, q, router, cells


def _pin_table(N: int, b: int = 1) -> DataTable:
    """The CLI's default table: word a is (a * 2654435761 >> 7) mod 2^b."""
    return DataTable(tuple((a * 2654435761 >> 7) % (1 << b) for a in range(N)), b)


def _pin_text(circ) -> str:
    """Every row (kind, qubits, layer, stage, rep) and then every qubit's
    (role, level, pos, word), one per line."""
    return "".join(
        [f"{k.value} {' '.join(map(str, qs))} {layer} {stage} {rep}\n"
         for k, qs, layer, stage, rep in circ.rows]
        + [f"{q.role.value} {q.level} {q.pos} {q.word}\n" for q in circ.qubits])


def _uncompute_pin_params():
    """Every (lambda, gamma) with N <= 16, single-bit and b = 2 in both
    multi-word readouts."""
    for N in (1, 2, 4, 8, 16):
        for i in range(N.bit_length()):
            for j in range(i + 1):
                yield derive_params(N, 1 << i, 1 << j)
                for readout in (Readout.PARALLEL, Readout.SEQUENTIAL):
                    yield derive_params(N, 1 << i, 1 << j, b=2, readout=readout)


#: SHA-256 of the joined ``_pin_text`` of each group's circuits, as the
#: builders emitted them before their fan-out and status-chain op lists were
#: shared: the references for N = 2..256, the CNOT trees for gamma = 1..16,
#: the router in both forms and the uncompute of every N <= 16 lookup
PINNED = {
    "BucketBrigade": (lambda: [build_reference("BucketBrigade", 1 << n, _pin_table(1 << n))
                               for n in range(1, 9)],
                      "8be49d009b2cfd4fef87d64ef49862dfb9525b9adbdbbba50131acc127723223"),
    "FanOut": (lambda: [build_reference("FanOut", 1 << n, _pin_table(1 << n))
                        for n in range(1, 9)],
               "89ff5cf14cc6e88dea143a1f5fbb97e2f2a2fc9641b5989832eddd425a861001"),
    "SelectSwap": (lambda: [build_reference("SelectSwap", 1 << n, _pin_table(1 << n))
                            for n in range(1, 9)],
                   "4697fce33ca97b4524d99e1d8896ea8bd954190877d8031a78c233b3e69a836d"),
    "cnot-tree-optimized": (lambda: [build_cnot_tree(1 << g) for g in range(5)],
                            "997f9b752c9c5d9139d111a691f7d2bc5c463af43f33f97dc2b9b06dc165a569"),
    "cnot-tree-literal": (lambda: [build_cnot_tree(1 << g, optimized=False) for g in range(5)],
                          "00bd03112f8e291b61349946f9fe7eb35428889b22ba95170a8e5ded8578643d"),
    "cswap-router": (lambda: [build_cswap_router(), build_cswap_router(merged=True)],
                     "893c2e58dc50a6b285f100dfab42d8c066553195027ff5ee3a5b475d0f5eebf8"),
    "uncompute": (lambda: [build_uncompute(build_lookup(p, _pin_table(p.N, p.b)))
                           for p in _uncompute_pin_params()],
                  "5770f7914d142ec52d041b41b58a0606a83c90f210662b0e6072374548eeac21"),
}


@pytest.mark.parametrize("group", sorted(PINNED))
def test_reference_and_primitive_gate_lists_match_pinned_digests(group):
    build, want = PINNED[group]
    got = hashlib.sha256("".join(map(_pin_text, build())).encode()).hexdigest()
    assert got == want, group


# -- structural invariants ---------------------------------------------------------

def test_layer_disjointness(rng):
    for N, lam, gamma in [(8, 4, 2), (16, 4, 2), (16, 16, 1), (8, 1, 1)]:
        table = random_table(rng, N)
        circ = build_unified_lookup(derive_params(N, lam, gamma), table)
        assert check_layer_disjointness(circ)
        assert check_layer_disjointness(build_uncompute(circ))
    for kind in ("FanOut", "BucketBrigade", "SelectSwap"):
        assert check_layer_disjointness(build_reference(kind, 8, random_table(rng, 8)))


def test_built_circuit_is_frozen(fig11_params, rng):
    circ = build_unified_lookup(fig11_params, random_table(rng, 16))
    assert isinstance(circ.gates, tuple) and isinstance(circ.qubits, tuple)
    with pytest.raises(dataclasses.FrozenInstanceError):
        circ.gates = ()
    with pytest.raises(dataclasses.FrozenInstanceError):
        circ.params = None


def test_roles_are_unique_and_quadruples_complete(fig11_params, rng):
    circ = build_unified_lookup(fig11_params, random_table(rng, 16))
    for (level, pos, w), r in circ.routers.items():
        assert len({r.t, r.inp, r.left, r.right}) == 4
        assert circ.qubits[r.t].role == Role.ROUTER_STATUS
        assert circ.qubits[r.inp].role == Role.ROUTER_INPUT


def test_dense_matches_basis_engine(rng):
    table = random_table(rng, 4)
    circ = build_unified_lookup(derive_params(4, 2, 1), table)
    for a in range(4):
        state = run_dense(circ, basis_state(circ, a))
        out, phase = run_basis(circ, basis_input(circ, a))
        idx = int(np.argmax(np.abs(state)))
        assert idx == out
        assert state[idx] == pytest.approx((1j) ** phase)
