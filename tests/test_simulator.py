import dataclasses
import functools
import itertools
import random
import sys
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import binomtest

import scalar_reference
import qlut
from conftest import lam_gamma_grid, random_table, trial_outcome_ok, workloads
from dense_oracle import basis_state, run_dense
from qlut import simulator
from qlut.builders import build_lookup, build_reference, build_unified_lookup
from qlut.errors import InvalidParamsError
from qlut.ir import CircuitBuilder, Gate, GateArrays, GateKind, Role, Stage
from qlut.layout import classify_links, long_range_error, place_htree
from qlut.params import DataTable, ErrorRates, Readout, derive_params
from qlut.simulator import (
    Location, build_location_table, containment_experiment,
    first_order_infidelity, harmful_weight_by_rate, lookup_correct, monte_carlo_infidelity,
    off_path_router_qubits, query_path_routers, run_basis,
)
from state_helpers import (
    basis_input, run_linear, sparse_overlap, uniform_address_superposition,
)


def test_noiseless_monte_carlo_is_zero(rng):
    circ = build_unified_lookup(derive_params(4, 2, 1), random_table(rng, 4))
    out = monte_carlo_infidelity(circ, ErrorRates(), trials=200, seed=1)
    assert out["infidelity"] == 0.0 and out["stderr"] == 0.0


def _stream(circ, table, seed, *ranges):
    """(t, ok, address, events) of the trials of ``ranges``, one call each,
    sorted by trial."""
    got = []
    for trials in ranges:
        simulator._run_trials(circ, table, seed, trials,
                              lambda t, r: got.append((t, r.ok, r.address, r.events)))
    return sorted(got, key=lambda row: row[0])


def test_trial_stream_is_blockwise(rng):
    # trial t depends on (seed, t // _BLOCK) and t % _BLOCK alone: blocks run
    # in any order and runs split at any trial give the same stream
    circ = build_unified_lookup(derive_params(4, 2, 1), random_table(rng, 4))
    rates = ErrorRates(eps_cs=0.05, eps_s=0.02, eps_i=0.02, eps_l=0.0)
    table = simulator._site_table(circ, rates)
    size, count = simulator._BLOCK, 5050
    whole = _stream(circ, table, 42, range(count))
    assert [row[0] for row in whole] == list(range(count))
    assert _stream(circ, table, 42, range(50), range(50, count)) == whole
    blocks = [range(start, min(start + size, count)) for start in range(0, count, size)]
    assert len(blocks) > 2
    random.Random(7).shuffle(blocks)
    assert _stream(circ, table, 42, *blocks) == whole
    logged = []
    summary = monte_carlo_infidelity(circ, rates, 50, 42,
                                     on_trial=lambda t, r: logged.append((t, r.ok, r.address,
                                                                          r.events)))
    assert logged == whole[:50]
    assert summary["failures"] == sum(1 for row in logged if not row[1])
    # a merged idle run shows at most one hit per trial
    for _, _, _, events in whole:
        idle = [(e.slot, e.qubit) for e in events if e.rate_key == "eps_i"]
        assert len(idle) == len(set(idle))
    other = _stream(circ, table, 43, range(count))
    assert [row[2:] for row in other] != [row[2:] for row in whole]


def test_location_table_counts(rng):
    circ = build_unified_lookup(derive_params(16, 4, 2), random_table(rng, 16))
    rates = ErrorRates(eps_s=0.1, eps_cs=0.1, eps_c=0.1, eps_cc=0.1, eps_i=0.1,
                       eps_l=0.1)
    locs = build_location_table(circuit=circ, rates=rates)
    by_key = {}
    for loc in locs:
        by_key[loc.rate_key] = by_key.get(loc.rate_key, 0) + 1
    hist = {}
    for g in circ.gates:
        hist[g.kind] = hist.get(g.kind, 0) + 1
    assert by_key["eps_s"] == hist[GateKind.SWAP]
    assert by_key["eps_cs"] == hist[GateKind.CSWAP]
    assert by_key["eps_cc"] == hist[GateKind.CCNOT]
    idle = scalar_reference.circuit_idle_layers(circ)
    assert by_key["eps_i"] == sum(len(v) for v in idle.values())


def test_link_locations_use_long_range_rate(rng):
    circ = build_reference("BucketBrigade", 16, random_table(rng, 16))
    placement = place_htree(circ)
    links, by_gate = classify_links(circ, placement)
    rates = ErrorRates(eps_q=0.001, eps_f=0.004, eps_s=0.1)
    locs = build_location_table(circ, rates, link_by_gate=by_gate)
    link_locs = [l for l in locs if l.rate_key == "eps_l"]
    assert len(link_locs) == len(links)
    for loc in link_locs:
        m = by_gate[loc.slot].m
        assert loc.rate == pytest.approx(min(m * 0.001, 0.004))
    # flagged gates must not double-count their local gate rate
    flagged = set(by_gate)
    assert all(loc.slot not in flagged for loc in locs if loc.rate_key == "eps_s")


@pytest.mark.parametrize("rates", [
    ErrorRates(eps_q=1e-3, eps_f=2e-3),
    ErrorRates(eps_q=1e-3),
    ErrorRates(eps_q=1e-3, eps_f=2e-3, eps_l=4e-3),
    ErrorRates(eps_q=1e-3, eps_f=2e-3, eps_l=0.0),
], ids=["distilled-eps_f", "distilled-no_eps_f", "distilled-eps_l", "distilled-eps_l_zero"])
@pytest.mark.parametrize("free_levels", [0, 2])
def test_link_location_rate_is_long_range_error(rates, free_levels):
    # every link outside the free budget is a DistilledBell; no_eps_f prices
    # it as a bare GHZ chain, min(m * eps_q, 1)
    circ = build_reference("BucketBrigade", 64, random_table(np.random.default_rng(18), 64))
    links, by_gate = classify_links(circ, place_htree(circ), free_levels=free_levels)
    locs = {loc.slot: loc.rate
            for loc in build_location_table(circ, rates, link_by_gate=by_gate)
            if loc.rate_key == "eps_l"}
    assert set(locs) <= set(by_gate)
    for link in links:
        want = long_range_error(link, rates)
        if want == 0.0:
            assert link.gate_index not in locs
        else:
            assert locs[link.gate_index] == want


def test_single_error_first_order_consistency(rng):
    # Monte Carlo vs exhaustive first-order enumeration, one rate at a time,
    # over the sites the Monte Carlo samples: an idle run of k layers is one
    # site at its composed rate 3/4 (1 - (1 - 4 delta/3)^k), not k sites at
    # delta
    circ = build_unified_lookup(derive_params(4, 2, 1), random_table(rng, 4))
    delta, trials = 2e-3, 40000
    for key in ("eps_s", "eps_cs", "eps_c", "eps_cc", "eps_i"):
        rates = ErrorRates(**{key: delta})
        locs = build_location_table(circ, rates)
        if not locs:
            continue
        expect = first_order_infidelity(circ, scalar_reference.site_table(circ, rates))
        got = monte_carlo_infidelity(circ, rates, trials=trials, seed=5)
        sigma = max(got["stderr"], np.sqrt(expect / trials))
        assert abs(got["infidelity"] - expect) <= 3 * sigma + 1e-9, (key, expect, got)


def test_infidelity_monotone_in_each_rate(rng):
    circ = build_unified_lookup(derive_params(8, 4, 2), random_table(rng, 8))
    for key in ("eps_s", "eps_cs", "eps_cc"):
        values = []
        for eps in (0.002, 0.01, 0.05):
            rates = ErrorRates(**{key: eps})
            locs = build_location_table(circ, rates)
            slopes = harmful_weight_by_rate(circ, locs)
            values.append(eps * slopes.get(key, 0.0))
        assert values[0] <= values[1] <= values[2]


# -- containment ---------------------------------------------------------------

def test_empty_circuit_is_identity():
    b = CircuitBuilder()
    b.new_register("address", Role.ADDRESS, 2)
    b.new_register("bus", Role.BUS, 1)
    circ = b.build()
    state = np.zeros(8, dtype=complex)
    state[5] = 1.0
    out = run_dense(circ, state)
    assert np.array_equal(out, state)
    assert run_basis(circ, 5) == (5, 0)


def test_saturated_cswap_noise_toy_model(rng):
    # eps_cs = 1: every CSWAP location fires; the exact failure probability
    # comes from an independent forward propagation of the full outcome
    # distribution, branching uniformly over (operand, Pauli) per location
    table = DataTable(words=(1, 0), b=1)
    circ = build_reference("BucketBrigade", 2, table)
    rates = ErrorRates(eps_cs=1.0, eps_l=0.0)
    locs = build_location_table(circ, rates)
    by_slot = {}
    for loc in locs:
        by_slot.setdefault(loc.slot, []).append(loc)

    def exact_failure(address):
        dist = {basis_input(circ, address): 1.0}
        for idx, g in enumerate(circ.gates):
            for loc in by_slot.get(idx, []):
                new = {}
                variants = [(q, p) for q in loc.qubits for p in ("X", "Y", "Z")]
                for bits, pr in dist.items():
                    for q, p in variants:
                        nb = bits ^ (1 << q) if p in ("X", "Y") else bits
                        new[nb] = new.get(nb, 0.0) + pr / len(variants)
                dist = new
            # apply the gate to every branch (phases do not affect outcomes)
            stepped = {}
            for bits, pr in dist.items():
                one = type(circ)(qubits=circ.qubits, rows=[g], params=circ.params,
                                 table=circ.table, registers=circ.registers,
                                 routers=circ.routers)
                nb, _ = run_basis(one, bits)
                stepped[nb] = stepped.get(nb, 0.0) + pr
            dist = stepped
        from state_helpers import expected_word, read_register
        fail = 0.0
        for bits, pr in dist.items():
            ok = (read_register(bits, circ.reg("address")) == address
                  and read_register(bits, circ.reg("bus"), big_endian=False)
                  == expected_word(circ, address))
            if not ok:
                fail += pr
        return fail

    expect = 0.5 * (exact_failure(0) + exact_failure(1))
    mc = monte_carlo_infidelity(circ, rates, trials=20_000, seed=99)
    sigma = max(mc["stderr"], 1e-4)
    assert abs(mc["infidelity"] - expect) <= 3 * sigma, (expect, mc)


def test_off_path_x_and_y_benign_bucket_brigade(rng):
    table = random_table(rng, 4)
    circ = build_reference("BucketBrigade", 4, table)
    for address in range(4):
        off = off_path_router_qubits(circ, address)
        assert off  # depth-2 tree always has off-path routers
        sites = [(slot, q) for slot in range(len(circ.gates) + 1) for q in off]
        report = containment_experiment(circ, address, sites=sites, paulis=("X", "Y"))
        assert report.harmful == [], (address, report.harmful[:5])


def test_query_path_router_structure(rng):
    circ = build_reference("BucketBrigade", 8, random_table(rng, 8))
    path = query_path_routers(circ, 0b101)
    assert path == {(0, 0), (1, 1), (2, 2)}


def test_on_path_cswap_errors_can_hurt(rng):
    # sanity: errors are not universally benign
    table = DataTable(words=(1, 0, 0, 0), b=1)
    circ = build_reference("BucketBrigade", 4, table)
    report = containment_experiment(circ, 0)
    assert report.harmful


def test_cnot_router_pauli_propagation():
    # the minimal diffusion unit: X on a child stays on its branch, Z on a
    # child kicks phase back onto a superposed parent
    b = CircuitBuilder()
    parent = b.new_qubit(Role.CNOT_NODE, 0, 0)
    c1 = b.new_qubit(Role.CNOT_NODE, 1, 0)
    c2 = b.new_qubit(Role.CNOT_NODE, 1, 1)
    b.emit(GateKind.CNOT, parent, c1)
    b.emit(GateKind.CNOT, parent, c2)
    slot = len(b.rows)
    b.emit(GateKind.CNOT, parent, c2)
    b.emit(GateKind.CNOT, parent, c1)
    circ = b.build()
    amps = {0: 1 / np.sqrt(2), 1 << parent: 1 / np.sqrt(2)}
    ideal = run_linear(circ, amps)

    x_err = run_linear(circ, amps, {slot: [(c1, "X")]})
    # X stays on the injected branch: parent and the sibling keep their
    # ideal joint distribution
    for bits, amp in x_err.items():
        assert abs(amp) > 0 and (bits & (1 << c2)) == 0 or True
    marg_ideal = {}
    marg_x = {}
    for dist, src in ((marg_ideal, ideal), (marg_x, x_err)):
        for bits, amp in src.items():
            key = (bits >> parent & 1, bits >> c2 & 1)
            dist[key] = dist.get(key, 0.0) + abs(amp) ** 2
    assert marg_ideal == pytest.approx(marg_x)

    z_err = run_linear(circ, amps, {slot: [(c1, "Z")]})
    assert sparse_overlap(ideal, z_err) < 1 - 1e-9  # phase kickback
    # on a basis-state parent the same Z is harmless
    basis = run_linear(circ, {1 << parent: 1.0}, {slot: [(c1, "Z")]})
    assert sparse_overlap(run_linear(circ, {1 << parent: 1.0}), basis) == pytest.approx(1.0)


def test_z_kickback_in_unified_circuit(rng):
    # Z on a marker-copy node mid-diffusion: benign for every basis address,
    # harmful for a superposed query
    params = derive_params(8, 4, 2)
    table = random_table(rng, 8)
    circ = build_unified_lookup(params, table)
    diffusion = [i for i, g in enumerate(circ.gates)
                 if g.stage == Stage.II and g.kind == GateKind.CNOT
                 and circ.qubits[g.qubits[1]].role == Role.ROUTER_INPUT]
    assert diffusion
    idx = diffusion[0]
    target = circ.gates[idx].qubits[1]
    ev = {idx + 1: [(target, "Z")]}
    for a in range(8):
        assert trial_outcome_ok(circ, a, ev)
    amps = uniform_address_superposition(circ)
    ideal = run_linear(circ, amps)
    got = run_linear(circ, amps, ev)
    assert sparse_overlap(ideal, got) < 1 - 1e-9


def test_x_on_diffusion_node_harms_output(rng):
    # contrast: a bit-flip on a marker copy before the loads corrupts the
    # data written on the branch it belongs to
    params = derive_params(8, 8, 2)
    table = DataTable(words=(1,) * 8, b=1)
    circ = build_unified_lookup(params, table)
    diffusion = [i for i, g in enumerate(circ.gates)
                 if g.stage == Stage.II and g.kind == GateKind.CNOT
                 and circ.qubits[g.qubits[1]].role == Role.ROUTER_INPUT]
    idx = diffusion[0]
    target = circ.gates[idx].qubits[1]
    harmed = sum(
        not trial_outcome_ok(circ, a, {idx + 1: [(target, "X")]}) for a in range(8))
    assert harmed > 0


# -- the basis-path engine against the dense oracle ------------------------------

def _oracle_shapes(max_qubits: int = 18) -> list[tuple]:
    """Every (N, lambda, gamma, b, readout) with N <= 8 the oracle can hold."""
    shapes = []
    for N in (1, 2, 4, 8):
        for (lam, gamma), b, readout in itertools.product(
                lam_gamma_grid(N), (1, 2, 4), Readout):
            if b > 1 and readout == Readout.SINGLE_BIT:
                continue
            params = derive_params(N, lam, gamma, b, readout)
            if build_lookup(params, DataTable((0,) * N, b)).n_qubits <= max_qubits:
                shapes.append((N, lam, gamma, b, readout))
    return shapes


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(shape=st.sampled_from(_oracle_shapes()), data=st.data())
def test_basis_engine_matches_dense_oracle_under_one_pauli(shape, data):
    N, lam, gamma, b, readout = shape
    words = data.draw(st.tuples(*[st.integers(0, (1 << b) - 1)] * N), label="table")
    circ = build_lookup(derive_params(N, lam, gamma, b, readout), DataTable(words, b))
    address = data.draw(st.integers(0, N - 1), label="address")
    slot = data.draw(st.integers(0, len(circ.gates)), label="slot")
    qubit = data.draw(st.integers(0, circ.n_qubits - 1), label="qubit")
    pauli = data.draw(st.sampled_from("XYZ"), label="pauli")
    events = {slot: [(qubit, pauli)]}
    bits, phase = run_basis(circ, basis_input(circ, address), events)
    state = run_dense(circ, basis_state(circ, address), events)
    assert int(np.argmax(np.abs(state))) == bits
    assert state[bits] == pytest.approx(1j ** phase)


def test_basis_engine_phase_adds_up_over_several_paulis():
    # several Paulis in one run: the phase quadrant must carry from lo to hi
    circ = build_unified_lookup(derive_params(4, 2, 1), DataTable((1, 0, 1, 1), 1))
    q = circ.reg("bus")[0]
    for first, second, address in itertools.product("XYZ", "XYZ", range(4)):
        for events in ({3: [(q, first), (q, second)]},
                       {3: [(q, first)], 9: [(q, second), (q, "Y")]}):
            bits, phase = run_basis(circ, basis_input(circ, address), events)
            state = run_dense(circ, basis_state(circ, address), events)
            assert state[bits] == pytest.approx(1j ** phase)


# -- the lane analyses against the per-injection reference -----------------------

_LANE_RATES = ErrorRates(eps_i=1e-3, eps_q=1e-3, eps_s=2e-3, eps_cs=3e-3, eps_c=4e-3,
                         eps_cc=5e-3, eps_f=1e-2)


def _lane_shapes() -> list[tuple]:
    """Every (N, lambda, gamma, b, readout) with N <= 16, plus the bucket
    brigade reference at each N."""
    shapes = [("BucketBrigade", N) for N in (2, 4, 8, 16)]
    for N in (1, 2, 4, 8, 16):
        for (lam, gamma), b, readout in itertools.product(
                lam_gamma_grid(N), (1, 2, 4), Readout):
            if not (b > 1 and readout == Readout.SINGLE_BIT):
                shapes.append((N, lam, gamma, b, readout))
    return shapes


def _lane_circuit(shape, data):
    """A drawn circuit with its classified long-range links."""
    if shape[0] == "BucketBrigade":
        N, b = shape[1], 1
        words = data.draw(st.tuples(*[st.integers(0, 1)] * N), label="table")
        circ = build_reference("BucketBrigade", N, DataTable(words, b))
    else:
        N, lam, gamma, b, readout = shape
        words = data.draw(st.tuples(*[st.integers(0, (1 << b) - 1)] * N), label="table")
        circ = build_lookup(derive_params(N, lam, gamma, b, readout), DataTable(words, b))
    by_gate = {}
    if circ.meta.get("family") == "tree" and b == 1:
        _, by_gate = classify_links(circ, place_htree(circ))
    return circ, by_gate


def _lane_instance(shape, data):
    """A drawn circuit with its classified location table."""
    circ, by_gate = _lane_circuit(shape, data)
    return circ, build_location_table(circ, _LANE_RATES, link_by_gate=by_gate)


def _assert_lanes_match_reference(circ, address, sites, locations):
    want = scalar_reference.containment(circ, address, sites, check_superposition=True)
    got = containment_experiment(circ, address, sites=sites, check_superposition=True)
    assert (got.benign, got.harmful, got.phase_harmful) == \
           (want.benign, want.harmful, want.phase_harmful)
    addresses = list(range(circ.params.N))
    fractions = [scalar_reference.harmful_fraction(circ, loc, addresses) for loc in locations]
    assert first_order_infidelity(circ, locations) == \
        scalar_reference.first_order_infidelity(locations, fractions)
    assert harmful_weight_by_rate(circ, locations) == \
        scalar_reference.harmful_weight_by_rate(locations, fractions)


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(shape=st.sampled_from(_lane_shapes()), data=st.data())
def test_lane_analyses_match_scalar_reference(shape, data):
    circ, locations = _lane_instance(shape, data)
    address = data.draw(st.integers(0, circ.params.N - 1), label="address")
    sites = data.draw(st.lists(
        st.tuples(st.integers(0, len(circ.gates)), st.integers(0, circ.n_qubits - 1)),
        max_size=24, unique=True), label="sites")
    start = data.draw(st.integers(0, len(locations)), label="first location")
    _assert_lanes_match_reference(circ, address, sites, locations[start:start + 6])


def test_phase_check_when_the_ideal_map_moves_the_address():
    # a circuit whose ideal map flips the address bit: the phase check cannot
    # read a lane's ideal output off its address register, so it rejects the
    # circuit; the basis classification still agrees with the reference
    b = CircuitBuilder(derive_params(2, 2, 1), DataTable((1, 0), 1))
    (addr,) = b.new_register("address", Role.ADDRESS, 1)
    (bus,) = b.new_register("bus", Role.BUS, 1)
    anc = b.new_qubit(Role.CONTROL)
    b.emit(GateKind.CNOT, addr, anc)
    b.emit(GateKind.X, addr)
    b.emit(GateKind.CNOT, anc, bus)
    circ = b.build()
    sites = [(slot, q) for slot in range(len(circ.gates) + 1) for q in range(circ.n_qubits)]
    for address in (0, 1, 0):
        # the register check runs once per circuit; every call still raises
        with pytest.raises(InvalidParamsError, match="address register"):
            containment_experiment(circ, address, sites=sites, check_superposition=True)
        want = scalar_reference.containment(circ, address, sites)
        got = containment_experiment(circ, address, sites=sites)
        assert (got.benign, got.harmful) == (want.benign, want.harmful)


def test_lane_passes_hold_one_address_group_at_five_lanes(monkeypatch):
    # five lanes per pass: a 16-address group does not fit, so each pass of
    # the first-order analyses holds exactly one whole group, and the
    # one-address basis passes hold five
    monkeypatch.setattr(simulator, "_MAX_LANES", 5)
    circ = build_unified_lookup(derive_params(16, 4, 2),
                                random_table(np.random.default_rng(3), 16))
    _, by_gate = classify_links(circ, place_htree(circ))
    locations = build_location_table(circ, _LANE_RATES, link_by_gate=by_gate)
    sites = [(slot, q) for slot in range(40, 46) for q in range(circ.n_qubits)]
    sent = []
    query_lanes = simulator._query_lanes

    def counting(circuit, lanes, want, masks=None, pauli="X", trace=None):
        sent.append(lanes)
        return query_lanes(circuit, lanes, want, masks, pauli, trace)

    monkeypatch.setattr(simulator, "_query_lanes", counting)
    _assert_lanes_match_reference(circ, 6, sites, locations[::25])
    assert max(sent) == 16 and all(n == 16 or n <= 5 for n in sent) and 5 in sent


def _classes_of(circ, sites):
    """The (next-gate slot, qubit) classes of ``sites``, gate by gate."""
    gates = len(circ.gates)
    return {(next((s for s in range(slot, gates) if q in circ.gates[s].qubits), gates), q)
            for slot, q in sites}


@pytest.fixture
def sent(monkeypatch):
    """The (Pauli, lanes) of every query pass the test runs, in order, with
    ("trace", lanes) for a traced fault-free pass."""
    passes = []
    query_lanes = simulator._query_lanes

    def counting(circuit, lanes, want, masks=None, pauli="X", trace=None):
        passes.append(("trace" if trace is not None else pauli, lanes))
        return query_lanes(circuit, lanes, want, masks, pauli, trace)

    monkeypatch.setattr(simulator, "_query_lanes", counting)
    return passes


def test_superposition_check_runs_one_fault_free_trace_and_no_y(sent):
    # one benchmark unified chunk: the basis pass sends one X per
    # (next-gate slot, qubit) class plus the fault-free lane, and the
    # superposition check one 16-lane fault-free trace, which gives both the
    # register check and every Z verdict, and no Y pass
    bench = workloads.Containment(qlut, 0, None, {})
    circ, sites = bench.uni, bench.uni_sites[0]
    containment_experiment(circ, 5, sites=sites, check_superposition=True)
    assert len(_classes_of(circ, sites)) == 35
    assert sent == [("X", 35 + 1), ("trace", 16)]


def test_superposition_sweep_traces_each_circuit_once(sent):
    # the Z verdicts and the register check do not depend on the address or
    # the sites, so a sweep over all 16 addresses of one benchmark unified
    # chunk traces the circuit once in all, and a second chunk with classes
    # the first lacked runs only its basis pass
    bench = workloads.Containment(qlut, 0, None, {})
    circ, first, second = bench.uni, bench.uni_sites[0], bench.uni_sites[1]
    for address in random.Random(5).sample(range(16), 16):
        containment_experiment(circ, address, sites=first, check_superposition=True)
    assert sent == [("X", 36), ("trace", 16)] + [("X", 36)] * 15
    del sent[:]
    containment_experiment(circ, 3, sites=first + second, check_superposition=True)
    new = _classes_of(circ, second) - _classes_of(circ, first)
    assert 0 < len(new) < len(_classes_of(circ, second))
    assert sent == [("X", len(_classes_of(circ, first + second)) + 1)]


def test_traced_z_verdicts_match_one_y_per_fault_class():
    # the rule the trace replaced: a Y at a class adds the phase 1 + 2b, so
    # with one fault per lane its ``hi`` plane is b, and the Z there is
    # harmful iff b varies over the N addresses. Every class of every
    # _lane_shapes() circuit and of the benchmark unified circuit
    bench = workloads.Containment(qlut, 0, None, {})
    circuits = [circ for circ, _ in _shape_circuits(np.random.default_rng(26))]
    verdicts = set()
    for circ in circuits + [bench.uni]:
        N, G, nq = circ.params.N, len(circ.gates), circ.n_qubits
        classes, _ = simulator._fault_classes(circ, np.repeat(np.arange(G + 1), nq),
                                              np.tile(np.arange(nq), G + 1))
        high = np.zeros(len(classes) - 1, dtype=np.int64)
        for first, k, _, _, _, hi in simulator._query_passes(circ, classes[1:], "Y", range(N)):
            high[first:first + k] = simulator._lane_bits(hi, k * N).reshape(k, N).sum(axis=1)
        got = simulator._phase_harmful(circ, classes[1:])
        assert got.tolist() == ((high > 0) & (high < N)).tolist()
        verdicts.update(got.tolist())
    assert verdicts == {False, True}


@settings(derandomize=True, deadline=None, database=None, max_examples=1)
@given(data=st.data())
@pytest.mark.parametrize("shape", _lane_shapes(),
                         ids=lambda s: "-".join(str(getattr(v, "value", v)) for v in s))
def test_superposition_sweep_matches_fresh_circuits_and_lane_reference(shape, data):
    # one circuit swept over every address in a shuffled order with
    # overlapping site chunks, so later calls read verdicts earlier calls
    # stored, against a fresh copy of the circuit per call and against the
    # per-injection lane reference
    circ, _ = _lane_circuit(shape, data)
    sites = data.draw(st.lists(
        st.tuples(st.integers(0, len(circ.gates)), st.integers(0, circ.n_qubits - 1)),
        min_size=8, max_size=24, unique=True), label="sites")
    chunks = [sites[:len(sites) * 2 // 3], sites[len(sites) // 3:]]
    order = data.draw(st.permutations(range(circ.params.N)), label="address order")
    for address in order:
        for chunk in chunks:
            got = containment_experiment(circ, address, sites=chunk, check_superposition=True)
            fresh = containment_experiment(dataclasses.replace(circ), address, sites=chunk,
                                           check_superposition=True)
            want = scalar_reference.lane_containment(circ, address, chunk,
                                                     check_superposition=True)
            assert got == fresh == want


def test_threads_sweeping_one_circuit_give_the_serial_reports():
    # two threads fill one circuit's stored verdicts at once; every report
    # matches a serial sweep over a fresh copy of the circuit
    circ = build_unified_lookup(derive_params(16, 4, 2),
                                random_table(np.random.default_rng(11), 16))
    sites = [(slot, q) for slot in range(len(circ.gates) + 1) for q in range(circ.n_qubits)]
    chunks = [sites[i:i + 400] for i in range(0, len(sites), 300)]
    items = [(address, chunk) for address in range(16) for chunk in chunks]
    random.Random(12).shuffle(items)
    serial = dataclasses.replace(circ)
    want = [containment_experiment(serial, a, sites=c, check_superposition=True)
            for a, c in items]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)   # switch threads often, inside the analyses
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            got = list(pool.map(lambda item: containment_experiment(
                circ, item[0], sites=item[1], check_superposition=True), items, timeout=300))
    finally:
        sys.setswitchinterval(interval)
    assert got == want


def test_first_order_queries_each_distinct_location_once(monkeypatch):
    # the layers of an idle run are equal locations, and X, Y and Z at one
    # (slot, qubit) measure like X, X and no fault: the first-order analyses
    # send one X per distinct (slot, qubit) pair plus the fault-free group
    circ = build_unified_lookup(derive_params(16, 4, 2),
                                random_table(np.random.default_rng(3), 16))
    _, by_gate = classify_links(circ, place_htree(circ))
    locations = build_location_table(circ, _LANE_RATES, link_by_gate=by_gate)
    distinct = set(locations)
    assert len(distinct) < len(locations)
    sent = []
    wrong_counts = simulator._wrong_counts

    def counting(circuit, sites, pauli, addresses):
        sent.append(len(sites))
        return wrong_counts(circuit, sites, pauli, addresses)

    monkeypatch.setattr(simulator, "_wrong_counts", counting)
    first_order_infidelity(circ, locations)
    harmful_weight_by_rate(circ, locations)
    want = len({(loc.slot, q) for loc in distinct for q in loc.qubits}) + 1
    assert want == 197
    assert sent == [want, want]


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(shape=st.sampled_from(_lane_shapes()), data=st.data())
def test_pauli_acts_as_at_the_next_gate_on_its_qubit(shape, data):
    # the gates between a fault and the next gate on its qubit leave that
    # qubit alone, so moving the fault there changes no bit and no phase
    circ, _ = _lane_circuit(shape, data)
    gates = len(circ.gates)
    slot = data.draw(st.integers(0, gates), label="slot")
    qubit = data.draw(st.integers(0, circ.n_qubits - 1), label="qubit")
    pauli = data.draw(st.sampled_from("XYZ"), label="pauli")
    init = data.draw(st.integers(0, (1 << circ.n_qubits) - 1), label="input bits")
    nxt = next((s for s in range(slot, gates) if qubit in circ.gates[s].qubits), gates)
    classes, cls = simulator._fault_classes(circ, np.array([slot]), np.array([qubit]))
    assert classes[0] is None and classes[cls[0]] == (nxt, qubit)
    assert run_basis(circ, init, {slot: [(qubit, pauli)]}) == \
        run_basis(circ, init, {nxt: [(qubit, pauli)]})


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(shape=st.sampled_from(_lane_shapes()), data=st.data())
def test_y_moves_bits_as_x_and_adds_the_phase_of_z_plus_one(shape, data):
    # the phase rule of the engine behind run_basis: with b the qubit's bit
    # at the slot in the fault-free run, Y gives X's bits with phase 1 + 2b
    # and Z the fault-free bits with phase 2b
    circ, _ = _lane_circuit(shape, data)
    slot = data.draw(st.integers(0, len(circ.gates)), label="slot")
    qubit = data.draw(st.integers(0, circ.n_qubits - 1), label="qubit")
    init = data.draw(st.integers(0, (1 << circ.n_qubits) - 1), label="input bits")
    before, _ = run_basis(dataclasses.replace(circ, rows=circ.rows[:slot]), init)
    b = before >> qubit & 1
    x_bits, _ = run_basis(circ, init, {slot: [(qubit, "X")]})
    free_bits, _ = run_basis(circ, init)
    assert run_basis(circ, init, {slot: [(qubit, "Y")]}) == (x_bits, (1 + 2 * b) % 4)
    assert run_basis(circ, init, {slot: [(qubit, "Z")]}) == (free_bits, 2 * b)


@settings(derandomize=True, deadline=None, database=None, max_examples=1)
@given(data=st.data())
@pytest.mark.parametrize("shape", _lane_shapes(),
                         ids=lambda s: "-".join(str(getattr(v, "value", v)) for v in s))
def test_full_site_containment_matches_lane_reference(shape, data):
    # every (slot, qubit) site, collapsed to one query per class, against
    # one lane per injection; the superposition check up to N = 8
    circ, _ = _lane_circuit(shape, data)
    address = data.draw(st.integers(0, circ.params.N - 1), label="address")
    check = circ.params.N <= 8
    sites = [(slot, q) for slot in range(len(circ.gates) + 1) for q in range(circ.n_qubits)]
    want = scalar_reference.lane_containment(circ, address, sites,
                                             check_superposition=check)
    assert containment_experiment(circ, address, check_superposition=check) == want


def test_phase_table_matches_the_overlap_count_at_every_site():
    # every site on every shape with N <= 4: the Z verdict that one Y per
    # site gives (its qubit's fault-free bit varies over the addresses)
    # against the per-injection overlap count, with both verdicts occurring
    rng = np.random.default_rng(24)
    verdicts = set()
    for circ, _ in _shape_circuits(rng):
        if circ.params.N > 4:
            continue
        sites = [(slot, q) for slot in range(len(circ.gates) + 1) for q in range(circ.n_qubits)]
        got = simulator._phase_harmful(circ, sites).tolist()
        assert got == scalar_reference.overlap_harmful(circ, sites, "Z")
        verdicts.update(got)
    assert verdicts == {False, True}


def test_every_basis_benign_x_or_y_is_phase_harmful():
    # the rule that lets containment flag every basis-benign X and Y without
    # a pass, checked on the overlap count at every address and site of
    # every shape with N <= 4: a basis-benign lane keeps its register and
    # misses its ideal output, so it matches no ideal output. A basis-harmful
    # X can land on another address's ideal output and keep the overlap at
    # 1, which the reference's landing count must see
    rng = np.random.default_rng(25)
    landed = 0
    for circ, _ in _shape_circuits(rng):
        if circ.params.N > 4:
            continue
        sites = [(slot, q) for slot in range(len(circ.gates) + 1) for q in range(circ.n_qubits)]
        overlap = {p: dict(zip(sites, scalar_reference.overlap_harmful(circ, sites, p)))
                   for p in "XY"}
        for address in range(circ.params.N):
            basis = scalar_reference.lane_containment(circ, address, sites, ("X", "Y"))
            assert all(overlap[p][s, q] for s, q, p in basis.benign)
            landed += sum(not overlap["X"][s, q] for s, q, p in basis.harmful if p == "X")
            got = containment_experiment(circ, address, sites=sites, paulis=("X", "Y"),
                                         check_superposition=True)
            assert got.benign == [] and got.phase_harmful == basis.benign
    assert landed


def test_containment_classes_repeated_and_partial_inputs():
    # repeated sites, sites that all sit right before a gate on their qubit,
    # a Pauli subset in its own order, a repeated Pauli and no sites at all
    # keep the per-injection lists
    circ = build_unified_lookup(derive_params(8, 4, 2),
                                random_table(np.random.default_rng(4), 8))
    at_gates = [(slot, q) for slot, g in enumerate(circ.gates[:40]) for q in g.qubits]
    for sites in ([(30, 3), (0, 0), (30, 3), (len(circ.gates), 7), (12, 5), (13, 5)],
                  at_gates + at_gates[:5]):
        for paulis in (("Z", "X"), ("Y", "Y"), ("Z",), ()):
            for address in (0, 5):
                want = scalar_reference.lane_containment(circ, address, sites, paulis, True)
                got = containment_experiment(circ, address, sites=sites, paulis=paulis,
                                             check_superposition=True)
                assert got == want
    assert containment_experiment(circ, 1, sites=[]) == simulator.ContainmentReport(1, [], [], [])


def test_first_order_locations_off_their_gates_match_lane_reference():
    # hand-made locations whose qubits the gate at their slot need not act
    # on, one after the last gate: the first-order analyses collapse them by
    # next-gate slot and still return the per-variant lane path's floats
    circ = build_unified_lookup(derive_params(16, 4, 2),
                                random_table(np.random.default_rng(6), 16))
    rng = np.random.default_rng(7)
    locations = []
    for _ in range(60):
        slot = int(rng.integers(0, len(circ.gates) + 1))
        qubits = tuple(int(q) for q in rng.choice(circ.n_qubits, int(rng.integers(1, 4)),
                                                  replace=False))
        locations.append(Location(slot, qubits, "eps_q", float(rng.uniform(1e-4, 1e-2))))
    locations += [Location(len(circ.gates), (0, circ.n_qubits - 1), "eps_i", 1e-3)]
    locations += locations[:10]
    fractions = scalar_reference.lane_harmful_fractions(circ, locations)
    assert any(f > 0 for f in fractions)
    assert first_order_infidelity(circ, locations) == \
        scalar_reference.first_order_infidelity(locations, fractions)
    assert harmful_weight_by_rate(circ, locations) == \
        scalar_reference.harmful_weight_by_rate(locations, fractions)


def test_first_order_counts_z_when_fault_free_queries_fail():
    # against a table it does not hold, the circuit's fault-free queries
    # fail at some addresses, so every Z counts: the first-order analyses
    # must take Z's count from the fault-free group and sum X, Y and Z per
    # qubit in the per-variant order to return the same floats
    rng = np.random.default_rng(9)
    built = build_unified_lookup(derive_params(16, 4, 2), random_table(rng, 16))
    _, by_gate = classify_links(built, place_htree(built))
    circ = dataclasses.replace(built, table=random_table(rng, 16))
    assert not lookup_correct(circ)
    locations = build_location_table(circ, _LANE_RATES, link_by_gate=by_gate)
    fractions = scalar_reference.lane_harmful_fractions(circ, locations)
    assert first_order_infidelity(circ, locations) == \
        scalar_reference.first_order_infidelity(locations, fractions)
    assert harmful_weight_by_rate(circ, locations) == \
        scalar_reference.harmful_weight_by_rate(locations, fractions)


@pytest.mark.parametrize("address", [-1, 8, 2.5, "3"])
def test_containment_rejects_an_address_outside_the_table(address):
    # before the integer check, 2.5 queried address 2 and reported 2.5, and
    # "3" raised a bare TypeError
    circ = build_unified_lookup(derive_params(8, 4, 2), DataTable((0,) * 8, 1))
    with pytest.raises(InvalidParamsError, match="address"):
        containment_experiment(circ, address, sites=[(3, 1), (10, 2)])


@pytest.mark.parametrize("site", ["slot -1", "slot past the end", "qubit -1",
                                  "qubit past the last", "fractional slot", "three numbers",
                                  "ragged pairs"])
def test_containment_rejects_a_site_outside_the_circuit(site):
    # "ragged pairs" holds four integers, which read two at a time would
    # be the valid sites (1, 2) and (3, 4)
    circ = build_unified_lookup(derive_params(8, 4, 2), DataTable((0,) * 8, 1))
    bad = {"slot -1": [(-1, 0)], "slot past the end": [(len(circ.gates) + 1, 0)],
           "qubit -1": [(3, -1)], "qubit past the last": [(3, circ.n_qubits)],
           "fractional slot": [(2.5, 0)], "three numbers": [(3, 0, 1)],
           "ragged pairs": [(1, 2, 3), (4,)]}[site]
    with pytest.raises(InvalidParamsError, match="sites"):
        containment_experiment(circ, 2, sites=[(0, 0), *bad])


@pytest.mark.parametrize("location", ["slot past the end", "slot -1", "qubit -1",
                                      "qubit past the last", "no qubits"])
@pytest.mark.parametrize("analysis", [first_order_infidelity, harmful_weight_by_rate])
def test_first_order_rejects_a_location_outside_the_circuit(analysis, location):
    circ = build_unified_lookup(derive_params(8, 4, 2), DataTable((0,) * 8, 1))
    slot, qubits = {"slot past the end": (len(circ.gates) + 5, (0,)), "slot -1": (-1, (0,)),
                    "qubit -1": (3, (-1,)), "qubit past the last": (3, (1, circ.n_qubits + 2)),
                    "no qubits": (3, ())}[location]
    locations = [Location(0, (0, 1), "eps_c", 1e-3), Location(slot, qubits, "eps_c", 1e-3)]
    with pytest.raises(InvalidParamsError, match="sites|qubit"):
        analysis(circ, locations)


@pytest.mark.parametrize("pauli", ["W", "x", "I"])
def test_containment_rejects_an_unknown_pauli(pauli):
    circ = build_unified_lookup(derive_params(8, 4, 2), DataTable((0,) * 8, 1))
    with pytest.raises(InvalidParamsError, match="Pauli"):
        containment_experiment(circ, 2, sites=[(0, 0)], paulis=("X", pauli))


def test_monte_carlo_rejects_a_negative_seed():
    circ = build_unified_lookup(derive_params(8, 4, 2), DataTable((0,) * 8, 1))
    with pytest.raises(InvalidParamsError, match="seed"):
        monte_carlo_infidelity(circ, _LANE_RATES, 10, -1)


def test_first_order_of_no_locations_is_a_float_zero():
    # the sum had no float start, so no locations gave the int 0
    circ = build_reference("BucketBrigade", 4, DataTable((0, 1, 1, 0), 1))
    got = first_order_infidelity(circ, [])
    assert got == 0.0 and type(got) is float


@pytest.mark.parametrize("trials, seed", [(2.5, 1), ("3", 1), (10, 1.5), (10, "1")])
def test_monte_carlo_rejects_trials_or_seed_that_are_not_integers(trials, seed):
    # before the integer check, 2.5 trials and seed 1.5 raised bare TypeErrors
    circ = build_unified_lookup(derive_params(8, 4, 2), DataTable((0,) * 8, 1))
    with pytest.raises(InvalidParamsError, match="integers"):
        monte_carlo_infidelity(circ, _LANE_RATES, trials, seed)


def test_monte_carlo_reports_integer_trials():
    # trials=True ran one trial but reported "trials": True; integer-like
    # arguments run as their int
    circ = build_unified_lookup(derive_params(8, 4, 2), random_table(np.random.default_rng(8), 8))
    got = monte_carlo_infidelity(circ, _LANE_RATES, True, np.int64(3))
    assert got == monte_carlo_infidelity(circ, _LANE_RATES, 1, 3)
    assert type(got["trials"]) is int
    assert monte_carlo_infidelity(circ, _LANE_RATES, np.int64(40), 3) == \
        monte_carlo_infidelity(circ, _LANE_RATES, 40, 3)


def test_analyses_read_one_shot_iterables_as_their_lists():
    # each entry point read its input twice, once to check it and once to
    # use it, so an iterator gave an empty report, 0, {} or a dropped event
    circ = build_reference("BucketBrigade", 4, random_table(np.random.default_rng(25), 4))
    sites = [(s, q) for s in range(len(circ.gates) + 1) for q in range(circ.n_qubits)]
    for check in (False, True):
        want = containment_experiment(circ, 1, sites=sites, paulis=["X", "Y"],
                                      check_superposition=check)
        assert len(want.benign) + len(want.harmful) + len(want.phase_harmful) == 2 * len(sites)
        assert containment_experiment(circ, 1, sites=iter(sites), paulis=iter(["X", "Y"]),
                                      check_superposition=check) == want
    assert containment_experiment(circ, 1, sites=iter(sites)) == \
        containment_experiment(circ, 1, sites=sites)
    locations = build_location_table(circ, ErrorRates.uniform(1e-3))
    assert first_order_infidelity(circ, locations) > 0
    assert first_order_infidelity(circ, iter(locations)) == \
        first_order_infidelity(circ, locations)
    assert harmful_weight_by_rate(circ, iter(locations)) == \
        harmful_weight_by_rate(circ, locations)
    want = run_basis(circ, 0, {3: [(2, "X")]})
    assert want != run_basis(circ, 0)
    assert run_basis(circ, 0, {3: iter([(2, "X")])}) == want


@pytest.mark.parametrize("bits", ["negative", "past the last qubit"])
def test_run_basis_rejects_bits_outside_the_qubits(bits):
    circ = build_unified_lookup(derive_params(8, 4, 2), DataTable((0,) * 8, 1))
    init = {"negative": -1, "past the last qubit": 1 << circ.n_qubits}[bits]
    with pytest.raises(InvalidParamsError, match="init_bits"):
        run_basis(circ, init)


@pytest.mark.parametrize("event", ["slot past the end", "slot -1", "qubit -1",
                                   "qubit past the last", "unknown Pauli", "fractional slot",
                                   "fractional qubit"])
def test_run_basis_rejects_an_event_outside_the_circuit(event):
    # before the check, a slot past the end was dropped, slot -1 acted
    # before the last gate, qubit -1 hit the last qubit, and the others
    # raised a bare IndexError, KeyError or TypeError
    circ = build_unified_lookup(derive_params(4, 2, 1), DataTable((0,) * 4, 1))
    G, nq = len(circ.gates), circ.n_qubits
    events = {"slot past the end": {G + 1: [(0, "X")]}, "slot -1": {-1: [(0, "X")]},
              "qubit -1": {3: [(-1, "X")]}, "qubit past the last": {3: [(nq, "X")]},
              "unknown Pauli": {3: [(0, "W")]}, "fractional slot": {2.5: [(0, "X")]},
              "fractional qubit": {3: [(1.5, "X")]}}[event]
    with pytest.raises(InvalidParamsError, match="event"):
        run_basis(circ, 0, {0: [(1, "Z")], **events})


def _shape_circuits(rng):
    """Every _lane_shapes() circuit on tables drawn from ``rng``, with its
    classified long-range links ({} where there are none)."""
    for shape in _lane_shapes():
        if shape[0] == "BucketBrigade":
            circ = build_reference("BucketBrigade", shape[1], random_table(rng, shape[1]))
        else:
            N, lam, gamma, b, readout = shape
            circ = build_lookup(derive_params(N, lam, gamma, b, readout),
                                random_table(rng, N, b))
        by_gate = {}
        if circ.meta.get("family") == "tree" and circ.params.b == 1:
            _, by_gate = classify_links(circ, place_htree(circ))
        yield circ, by_gate


def test_gate_arrays_match_the_gate_list():
    # the cached view against a per-gate computation on every N <= 16 shape
    # and on lambda = N trees at N = 64..256 in both multi-word readouts; a
    # circuit copied with another table gets its own view and words
    rng = np.random.default_rng(22)
    trees = [build_lookup(derive_params(N, N, 2, 2, readout), random_table(rng, N, 2))
             for N in (64, 128, 256) for readout in (Readout.PARALLEL, Readout.SEQUENTIAL)]
    for circ in itertools.chain((circ for circ, _ in _shape_circuits(rng)), trees):
        view = circ.gate_arrays
        assert circ.gate_arrays is view
        gates = circ.gates
        # each distinct operand tuple once, in first-seen order, and each
        # gate's op its row
        seen = list(dict.fromkeys(g.qubits for g in gates))
        width = max(map(len, seen), default=1)
        assert view.distinct.tolist() == [list(t) + [-1] * (width - len(t)) for t in seen]
        row_of = {t: i for i, t in enumerate(seen)}
        assert view.op.tolist() == [row_of[g.qubits] for g in gates]
        arity = [len(g.qubits) for g in gates]
        assert view.arity.tolist() == arity
        assert view.layer.tolist() == [g.layer for g in gates]
        assert view.qubit.tolist() == [q for g in gates for q in g.qubits]
        assert view.kind.tolist() == [list(GateKind).index(g.kind) for g in gates]
        assert view.operands.tolist() == [list(g.qubits) + [-1] * (width - len(g.qubits))
                                          for g in gates]
        span = len(gates) + 1
        assert view.touches.tolist() == sorted(
            q * span + i for i, g in enumerate(gates) for q in g.qubits) + [2**63 - 1]
        assert view.words.tolist() == list(circ.table.words)
        for column in (view.op, view.distinct, view.arity, view.qubit,
                       view.operands, view.layer, view.kind, view.touches, view.words):
            assert not column.flags.writeable
        assert gates == tuple(Gate(*row) for row in circ.rows)
        assert all(type(g) is Gate for g in gates)
        assert circ.gates is gates
        other = random_table(rng, circ.params.N, circ.params.b)
        copy = dataclasses.replace(circ, table=other)
        assert copy.gate_arrays is not view
        assert copy.gate_arrays.words.tolist() == list(other.words)


def test_gate_arrays_and_touch_order_are_built_once_per_circuit(monkeypatch):
    # repeated Monte Carlo, containment (sites off and at gates) and
    # first-order calls on one circuit build its view, its kind and operand
    # columns and its touch order once
    built = {"view": 0, "kind": 0, "operands": 0, "touches": 0}
    init = GateArrays.__init__

    def counted_init(self, circuit):
        built["view"] += 1
        init(self, circuit)

    monkeypatch.setattr(GateArrays, "__init__", counted_init)
    for name in ("kind", "operands", "touches"):
        def counted_column(self, _name=name, _build=getattr(GateArrays, name).func):
            built[_name] += 1
            return _build(self)

        counted = functools.cached_property(counted_column)
        counted.__set_name__(GateArrays, name)
        monkeypatch.setattr(GateArrays, name, counted)
    circ = build_unified_lookup(derive_params(8, 4, 2),
                                random_table(np.random.default_rng(23), 8))
    _, by_gate = classify_links(circ, place_htree(circ))
    locations = build_location_table(circ, _LANE_RATES, link_by_gate=by_gate)
    sites = [(slot, q) for slot in range(0, len(circ.gates) + 1, 7) for q in range(circ.n_qubits)]
    for address in range(8):
        monte_carlo_infidelity(circ, _LANE_RATES, 20, address, link_by_gate=by_gate)
        containment_experiment(circ, address, sites=sites, check_superposition=True)
        first_order_infidelity(circ, locations[address::4])
        harmful_weight_by_rate(circ, locations)
    assert built == {"view": 1, "kind": 1, "operands": 1, "touches": 1}


def test_location_table_expands_the_site_table():
    # merging the location table's consecutive equal idle entries gives the
    # site table's rows, each idle run with its number of layers
    rng = np.random.default_rng(21)
    for circ, by_gate in _shape_circuits(rng):
        for links in ({}, by_gate):
            rows = []
            for loc in build_location_table(circ, _LANE_RATES, links):
                if loc.rate_key == "eps_i" and rows and rows[-1][0] == loc:
                    rows[-1][1] += 1
                else:
                    rows.append([loc, 1])
            table = simulator._site_table(circ, _LANE_RATES, links)
            got = [(s, tuple(ops[:a]), key, k) for s, ops, a, key, k in zip(
                table.slot.tolist(), table.operands.tolist(), table.arity.tolist(), table.keys,
                table.layers.tolist())]
            assert got == [(loc.slot, loc.qubits, loc.rate_key, k) for loc, k in rows]
            assert table.rate.tolist() == [
                simulator._idle_run_rate(loc.rate, k) if loc.rate_key == "eps_i" else loc.rate
                for loc, k in rows]


# -- the Monte Carlo lanes against the per-trial reference -----------------------

def _assert_site_table_matches_reference(circ, rates, by_gate):
    table = simulator._site_table(circ, rates, by_gate)
    sites = scalar_reference.site_table(circ, rates, by_gate)
    got = [(s, tuple(ops[:a]), k, r) for s, ops, a, k, r in zip(
        table.slot.tolist(), table.operands.tolist(), table.arity.tolist(), table.keys,
        table.rate.tolist())]
    assert got == [(loc.slot, loc.qubits, loc.rate_key, loc.rate) for loc in sites]
    return sites


@pytest.mark.parametrize("rates", [
    ErrorRates(eps_i=1e-3, eps_q=1e-3, eps_cs=3e-3, eps_cc=5e-3, eps_f=1e-2),
    ErrorRates(eps_q=1e-3, eps_l=2e-2, eps_s=2e-3, eps_c=4e-3),
], ids=["derived-eps_l", "explicit-eps_l"])
def test_site_table_matches_reference_at_every_budget(rates):
    # gate kinds at rate zero, long-range rates derived per link or given,
    # and every budget k from none to all links free, on every N <= 16
    # shape; the links themselves against the per-gate classification
    rng = np.random.default_rng(24)
    for circ, _ in _shape_circuits(rng):
        _assert_site_table_matches_reference(circ, rates, {})
        if circ.meta.get("family") != "tree" or circ.params.b != 1:
            continue
        placement = place_htree(circ)
        for k in range(circ.params.tree_depth + 2):
            links, by_gate = classify_links(circ, placement, k)
            ref_links, ref_by_gate = scalar_reference.classify_links(circ, placement, k)
            assert links == ref_links
            assert list(by_gate.items()) == list(ref_by_gate.items())
            _assert_site_table_matches_reference(circ, rates, by_gate)


def _assert_stream_matches_reference(circ, rates, by_gate, trials, seed):
    sites = _assert_site_table_matches_reference(circ, rates, by_gate)
    got = []
    summary = monte_carlo_infidelity(
        circ, rates, trials, seed, link_by_gate=by_gate,
        on_trial=lambda t, r: got.append((t, r.ok, r.address, r.events)))
    want = [(t, r.ok, r.address, r.events) for t, r in
            scalar_reference.trials(circ, sites, trials, seed)]
    assert got == want
    assert summary["failures"] == sum(1 for _, ok, _, _ in want if not ok)
    return want


@settings(derandomize=True, deadline=None, database=None, max_examples=2)
@given(data=st.data())
@pytest.mark.parametrize("shape", _lane_shapes(),
                         ids=lambda s: "-".join(str(getattr(v, "value", v)) for v in s))
def test_monte_carlo_lanes_match_per_trial_reference(shape, data):
    # high rates put several hits on one (slot, qubit) in a trial, and a
    # small _BLOCK splits a run into several blocks
    circ, by_gate = _lane_circuit(shape, data)
    rates = ErrorRates(**{key: data.draw(st.floats(0.02, 0.3), label=key) for key in
                          ("eps_i", "eps_q", "eps_s", "eps_cs", "eps_c", "eps_cc", "eps_f")})
    assert build_location_table(circ, rates) == scalar_reference.location_table(circ, rates)
    assert build_location_table(circ, rates, by_gate) == \
        scalar_reference.location_table(circ, rates, by_gate)
    trials = data.draw(st.integers(1, 24), label="trials")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    block = data.draw(st.integers(1, 9), label="block")
    with mock.patch.object(simulator, "_BLOCK", block):
        _assert_stream_matches_reference(circ, rates, by_gate, trials, seed)


def test_a_block_of_trials_fits_in_one_pass():
    # _run_block runs a block's faulty trials as the lanes of one pass, which
    # the lane cap of the exhaustive passes must not undercut
    assert simulator._BLOCK <= simulator._MAX_LANES


def test_monte_carlo_stream_matches_reference_across_a_full_block():
    # the real block size, a run crossing into the second block
    circ = build_unified_lookup(derive_params(8, 4, 2),
                                random_table(np.random.default_rng(5), 8))
    _, by_gate = classify_links(circ, place_htree(circ))
    want = _assert_stream_matches_reference(circ, _LANE_RATES, by_gate,
                                            simulator._BLOCK + 40, 9)
    assert sum(1 for _, ok, _, _ in want if not ok) > 10


def test_block_hit_counts_are_binomial():
    # every (rate, arity) group's hits over many blocks: exactly
    # Binomial(blocks x _BLOCK x group size, group rate)
    circ = build_unified_lookup(derive_params(16, 4, 2),
                                random_table(np.random.default_rng(8), 16))
    _, by_gate = classify_links(circ, place_htree(circ))
    table = simulator._site_table(circ, _LANE_RATES, by_gate)
    group_of = np.repeat(np.arange(len(table.size)), table.size)[np.argsort(table.rows)]
    blocks = 40
    hits = np.zeros(len(table.size), dtype=np.int64)
    for block in range(blocks):
        _, trial, row, qubit, pauli = simulator._block_draws(
            table, 16, simulator._block_rng(11, block))
        assert len(set(zip(trial.tolist(), row.tolist()))) == len(row)
        hits += np.bincount(group_of[row], minlength=len(hits))
    assert len(hits) > 5 and hits.sum() > 10_000
    for count, size, p in zip(hits.tolist(), table.size.tolist(), table.p.tolist()):
        assert binomtest(count, blocks * simulator._BLOCK * size, p).pvalue > 1e-6, (size, p)


@pytest.mark.parametrize("p", [1e-4, 1e-3, 0.05, 0.3, 0.75, 1.0])
def test_idle_run_rate_is_the_composed_channel(p):
    # k one-layer channels (I: 1 - p, X, Y, Z: p / 3 each) written out as a
    # convolution over the Paulis mod phase (I, X, Z, Y = 0, 1, 2, 3; the
    # product is the XOR)
    layer = [1.0 - p, p / 3, p / 3, p / 3]
    weights = [1.0, 0.0, 0.0, 0.0]
    for k in range(1, 65):
        composed = [0.0] * 4
        for a, b in itertools.product(range(4), repeat=2):
            composed[a ^ b] += weights[a] * layer[b]
        weights = composed
        fired = simulator._idle_run_rate(p, k)
        assert fired == pytest.approx(1.0 - weights[0], rel=1e-9, abs=1e-15), k
        assert weights[1] == pytest.approx(weights[2], rel=1e-9, abs=1e-15)
        assert weights[3] == pytest.approx(weights[2], rel=1e-9, abs=1e-15)
    assert simulator._idle_run_rate(p, 1) == pytest.approx(p, rel=1e-11)
