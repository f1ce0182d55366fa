import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import scalar_reference
from conftest import lam_gamma_grid, random_table
from dense_oracle import basis_state, run_dense
from qlut import simulator
from qlut.builders import build_lookup, build_reference, build_unified_lookup
from qlut.ir import CircuitBuilder, GateKind, Role, Stage
from qlut.layout import classify_links, long_range_error, place_htree
from qlut.params import DataTable, ErrorRates, Readout, derive_params
from qlut.simulator import (
    basis_input, build_location_table, circuit_idle_layers, containment_experiment,
    first_order_infidelity, harmful_weight_by_rate, inject_and_simulate,
    monte_carlo_infidelity, off_path_router_qubits, query_path_routers, run_basis,
    run_linear, sparse_overlap, trial_outcome_ok, uniform_address_superposition,
)


def test_noiseless_monte_carlo_is_zero(rng):
    circ = build_unified_lookup(derive_params(4, 2, 1), random_table(rng, 4))
    out = monte_carlo_infidelity(circ, ErrorRates(), trials=200, seed=1)
    assert out["infidelity"] == 0.0 and out["stderr"] == 0.0


def test_trial_stream_deterministic(rng):
    circ = build_unified_lookup(derive_params(4, 2, 1), random_table(rng, 4))
    rates = ErrorRates(eps_cs=0.05, eps_s=0.02, eps_l=0.0)
    runs1 = [inject_and_simulate(circ, rates, seed=42, trial=t) for t in range(50)]
    runs2 = [inject_and_simulate(circ, rates, seed=42, trial=t) for t in reversed(range(50))]
    runs2.reverse()
    assert [(r.ok, r.address, r.events) for r in runs1] == \
           [(r.ok, r.address, r.events) for r in runs2]
    runs3 = [inject_and_simulate(circ, rates, seed=43, trial=t) for t in range(50)]
    assert [(r.address, r.events) for r in runs1] != [(r.address, r.events) for r in runs3]


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
    idle = circuit_idle_layers(circ)
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
        m = by_gate[loc.gate_index].m
        assert loc.rate == pytest.approx(min(m * 0.001, 0.004))
    # flagged gates must not double-count their local gate rate
    flagged = set(by_gate)
    assert all(loc.gate_index not in flagged for loc in locs if loc.rate_key == "eps_s")


@pytest.mark.parametrize("rates", [
    ErrorRates(eps_q=1e-3, eps_f=2e-3),
    ErrorRates(eps_q=1e-3),
    ErrorRates(eps_q=1e-3, eps_f=2e-3, eps_l=4e-3),
    ErrorRates(eps_q=1e-3, eps_f=2e-3, eps_l=0.0),
], ids=["eps_f", "no_eps_f", "eps_l", "eps_l_zero"])
@pytest.mark.parametrize("distillation", [True, False], ids=["distilled", "ghz"])
@pytest.mark.parametrize("free_levels", [0, 2])
def test_link_location_rate_is_long_range_error(rates, distillation, free_levels):
    circ = build_reference("BucketBrigade", 64, random_table(np.random.default_rng(18), 64))
    links, by_gate = classify_links(circ, place_htree(circ), distillation=distillation,
                                    free_levels=free_levels)
    locs = {loc.gate_index: loc.rate
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
    # Monte Carlo slope vs exhaustive enumeration, one rate at a time
    circ = build_unified_lookup(derive_params(4, 2, 1), random_table(rng, 4))
    delta, trials = 2e-3, 40000
    for key in ("eps_s", "eps_cs", "eps_c", "eps_cc", "eps_i"):
        rates = ErrorRates(**{key: delta})
        locs = build_location_table(circ, rates)
        if not locs:
            continue
        slopes = harmful_weight_by_rate(circ, locs)
        expect = delta * slopes.get(key, 0.0)
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
                one = type(circ)(qubits=circ.qubits, gates=[g], params=circ.params,
                                 table=circ.table, registers=circ.registers,
                                 routers=circ.routers)
                nb, _ = run_basis(one, bits)
                stepped[nb] = stepped.get(nb, 0.0) + pr
            dist = stepped
        from qlut.simulator import expected_word, read_register
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
    slot = len(b.gates)
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


def _lane_instance(shape, data):
    """A drawn circuit with its classified location table."""
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
    # read a lane's ideal output off its address register, and must still
    # agree with the per-injection overlap
    b = CircuitBuilder(derive_params(2, 2, 1), DataTable((1, 0), 1))
    (addr,) = b.new_register("address", Role.ADDRESS, 1)
    (bus,) = b.new_register("bus", Role.BUS, 1)
    anc = b.new_qubit(Role.CONTROL)
    b.emit(GateKind.CNOT, addr, anc)
    b.emit(GateKind.X, addr)
    b.emit(GateKind.CNOT, anc, bus)
    circ = b.build()
    sites = [(slot, q) for slot in range(len(circ.gates) + 1) for q in range(circ.n_qubits)]
    for address in range(2):
        want = scalar_reference.containment(circ, address, sites, check_superposition=True)
        got = containment_experiment(circ, address, sites=sites, check_superposition=True)
        assert got.phase_harmful
        assert (got.benign, got.harmful, got.phase_harmful) == \
               (want.benign, want.harmful, want.phase_harmful)


def test_lane_passes_split_inside_address_groups(monkeypatch):
    # five lanes per pass: every pass of the 16-address analyses ends inside
    # a fault's address group
    monkeypatch.setattr(simulator, "_MAX_LANES", 5)
    circ = build_unified_lookup(derive_params(16, 4, 2),
                                random_table(np.random.default_rng(3), 16))
    _, by_gate = classify_links(circ, place_htree(circ))
    locations = build_location_table(circ, _LANE_RATES, link_by_gate=by_gate)
    sites = [(slot, q) for slot in range(40, 46) for q in range(circ.n_qubits)]
    _assert_lanes_match_reference(circ, 6, sites, locations[::25])
