"""Acceptance suite: one test per exit criterion, one PASS line each.

Quantitative tolerances are pinned here, straight from the statements they
verify; nothing is recalibrated at runtime.
"""
import json
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    classical_lookup, gate_multiset, lam_gamma_grid, lookup_target, random_table,
    trial_outcome_ok,
)
from qlut import costs
from qlut.builders import (
    build_lookup, build_reference, build_uncompute, build_unified_lookup,
)
from qlut.cli import SweepSpec, sweep_exponent_table, sweep_table_csv
from qlut.layout import classify_links, level_pitches, place_htree
from qlut.params import ErrorRates, Readout, derive_params
from qlut.resources import count_resources
from qlut.simulator import (
    build_location_table, containment_experiment,
    first_order_infidelity, monte_carlo_infidelity,
    off_path_router_qubits, run_basis,
)
from state_helpers import (
    basis_input, read_register, run_linear, sparse_overlap, uniform_address_superposition,
)

SEED = 20260808


def _params_for(N, lam, gamma, b, mode):
    return derive_params(N, lam, gamma, b=b, readout=mode)


def test_c01_functional_correctness():
    rng = np.random.default_rng(SEED)
    checked = 0
    for n in (1, 2, 3, 4):
        N = 1 << n
        for lam, gamma in lam_gamma_grid(N):
            for b in (1, 2):
                for mode in (Readout.PARALLEL, Readout.SEQUENTIAL):
                    params = _params_for(N, lam, gamma, b, mode)
                    for _ in range(10):
                        table = random_table(rng, N, b=b)
                        circ = build_lookup(params, table)
                        for a in range(N):
                            out, _ = run_basis(circ, basis_input(circ, a))
                            got = read_register(out, circ.reg("bus"), big_endian=False)
                            addr = read_register(out, circ.reg("address"))
                            assert addr == a and got == classical_lookup(table, a, b), \
                                (params, a)
                            checked += 1
    print(f"\n[criterion 1] PASS - {checked} basis lookups exact across the "
          "full (N, lambda, gamma, b, readout) grid")


def test_c02_superposition_semantics():
    rng = np.random.default_rng(SEED + 1)
    worst = 1.0
    for n in (1, 2, 3):
        N = 1 << n
        for lam, gamma in lam_gamma_grid(N):
            params = derive_params(N, lam, gamma)
            table = random_table(rng, N)
            circ = build_uncompute(build_unified_lookup(params, table))
            amps = uniform_address_superposition(circ)
            got = run_linear(circ, amps)
            overlap = sparse_overlap(lookup_target(circ, amps), got)
            worst = min(worst, overlap)
            assert overlap > 1 - 1e-9, (params,)
    print(f"\n[criterion 2] PASS - uniform-superposition overlap >= {worst}")


def test_c03_containment_suite():
    rng = np.random.default_rng(SEED + 2)
    # exhaustive off-path X/Y benignity on the n<=4 bucket brigade
    total = 0
    for n in (2, 3, 4):
        N = 1 << n
        circ = build_reference("BucketBrigade", N, random_table(rng, N))
        n_slots = len(circ.gates) + 1
        for address in range(N):
            off = off_path_router_qubits(circ, address)
            sites = [(slot, q) for slot in range(n_slots) for q in off]
            report = containment_experiment(circ, address, sites=sites,
                                            paulis=("X", "Y"))
            assert report.harmful == [], (n, address, report.harmful[:3])
            total += 2 * len(sites)
    # CNOT-router Z kickback: benign on a basis address, harmful when the
    # address is superposed (phase kicked back into the address register)
    params = derive_params(8, 4, 2)
    circ = build_unified_lookup(params, random_table(rng, 8))
    from qlut.ir import GateKind, Role, Stage
    diffusion = [i for i, g in enumerate(circ.gates)
                 if g.stage == Stage.II and g.kind == GateKind.CNOT
                 and circ.qubits[g.qubits[1]].role == Role.ROUTER_INPUT]
    idx = diffusion[0]
    ev = {idx + 1: [(circ.gates[idx].qubits[1], "Z")]}
    assert all(trial_outcome_ok(circ, a, ev) for a in range(8))
    amps = uniform_address_superposition(circ)
    overlap = sparse_overlap(run_linear(circ, amps), run_linear(circ, amps, ev))
    assert overlap < 1 - 1e-9
    print(f"\n[criterion 3] PASS - {total} off-path X/Y injections all benign; "
          f"CNOT-router Z kickback reproduced (superposed overlap {overlap:.3f})")


def _table_i_rows():
    def qrom(n):
        return derive_params(1 << n, 1, 1)

    def ssv(n):
        return derive_params(1 << n, 1 << (n - n // 2), 1)

    def bb(n):
        return derive_params(1 << n, 1 << n, 1)

    def unified(n):
        return derive_params(1 << n, 1 << (n - n // 2), 1 << (n // 4))

    return [("QROM", qrom), ("SELECT-SWAP variant", ssv),
            ("bucket-brigade", bb), ("unified", unified)]


def test_c04_table_i_exponents():
    rng = np.random.default_rng(SEED + 3)
    ns = range(4, 13)
    sizes = [1 << n for n in ns]
    t_targets = {"QROM": 1.0, "bucket-brigade": 1.0, "unified": 0.75}
    q_targets = {"SELECT-SWAP variant": 0.5, "bucket-brigade": 1.0, "unified": 0.5}
    lines = []
    for name, mk in _table_i_rows():
        t_exact, q_exact, t_form = [], [], []
        for n in ns:
            p = mk(n)
            rc = count_resources(build_unified_lookup(p, random_table(rng, p.N)))
            t_exact.append(rc.t_count)
            q_exact.append(rc.qubit_count)
            t_form.append(costs.t_count_formula(p))
        ft = costs.fit_exponent(sizes, t_exact).slope
        fq = costs.fit_exponent(sizes, q_exact).slope
        if name in t_targets:
            assert abs(ft - t_targets[name]) <= 0.15, (name, ft)
        else:
            # "~ leading exponent": compare against the formula's own fit
            ff = costs.fit_exponent(sizes, t_form).slope
            assert abs(ft - ff) <= 0.15, (name, ft, ff)
        if name in q_targets:
            assert abs(fq - q_targets[name]) <= 0.15, (name, fq)
        else:
            # QROM qubits are 0 (+log): compare against the fitted log envelope
            flog = costs.fit_exponent(sizes, [n + 1 for n in ns]).slope
            assert abs(fq - flog) <= 0.15, (name, fq, flog)
        lines.append(f"{name}: T {ft:.3f}, qubits {fq:.3f}")
    print("\n[criterion 4] PASS - " + "; ".join(lines))


def test_c05_corollary1_infidelity_exponent():
    rates = ErrorRates.uniform(1e-3)
    sizes, totals = [], []
    for n in range(6, 17):
        p = derive_params(1 << n, 1 << (n - n // 2), 1 << (n // 4))
        sizes.append(p.N)
        totals.append(costs.general_infidelity(p, rates).total)
    fit = costs.fit_exponent(sizes, totals)
    assert abs(fit.slope - 0.75) <= 0.15
    print(f"\n[criterion 5] PASS - generic-rate infidelity exponent "
          f"{fit.slope:.3f} (target 0.75 +/- 0.15)")


def test_c06_appendix_sweep(tmp_path):
    rules = ["Zero", "QuarterDPrime", "HalfDPrime", "ThreeQuarterDPrime",
             "FullDPrime"]
    tables = {}
    for rule in rules:
        spec = SweepSpec(k_rule=rule)
        table = sweep_exponent_table(spec)
        (tmp_path / f"{rule}.csv").write_text(sweep_table_csv(table))
        tables[rule] = table
    emitted = sorted(p.name for p in tmp_path.glob("*.csv"))
    assert len(emitted) == 5
    # cell-wise monotone nonincreasing in k (2e-3 slack for fit arithmetic)
    for lo, hi in zip(rules, rules[1:]):
        for key, val in tables[lo]["cells"].items():
            nxt = tables[hi]["cells"][key]
            if val is not None and nxt is not None:
                assert nxt <= val + 2e-3, (lo, hi, key, val, nxt)
    # saturation beyond k = d'/2
    worst = 0.0
    for key, val in tables["HalfDPrime"]["cells"].items():
        nxt = tables["ThreeQuarterDPrime"]["cells"][key]
        if val is not None and nxt is not None:
            worst = max(worst, abs(val - nxt))
    assert worst < 0.1
    # the k = d', lambda = N cell reaches the all-to-all polylog regime
    bb_cell = tables["FullDPrime"]["cells"][(0.0, 1.0)]
    assert bb_cell < 0.2
    print(f"\n[criterion 6] PASS - five k-rule tables emitted; saturation gap "
          f"{worst:.4f} < 0.1; k=d' lambda=N cell exponent {bb_cell:.3f} < 0.2")


def test_c07_first_order_monte_carlo():
    rng = np.random.default_rng(SEED + 4)
    delta, trials = 1e-4, 100_000
    settings = {
        "eps_i": ErrorRates(eps_i=delta, eps_l=0.0),
        "eps_q": ErrorRates(eps_q=delta, eps_f=1.0),  # derived per-link m*eps_q
        "eps_l": ErrorRates(eps_l=delta),
        "eps_s": ErrorRates(eps_s=delta, eps_l=0.0),
        "eps_cs": ErrorRates(eps_cs=delta, eps_l=0.0),
        "eps_c": ErrorRates(eps_c=delta, eps_l=0.0),
        "eps_cc": ErrorRates(eps_cc=delta, eps_l=0.0),
    }
    lines = []
    # (8, 2, 1) has d = 2 so the Toffoli ladder is present; (8, 4, 2) covers
    # the CNOT-tree structure: together every rate has live locations
    for lam, gamma in ((4, 2), (2, 1)):
        params = derive_params(8, lam, gamma)
        circ = build_unified_lookup(params, random_table(rng, 8))
        placement = place_htree(circ)
        _, by_gate = classify_links(circ, placement)
        for name, rates in settings.items():
            locations = build_location_table(circ, rates, link_by_gate=by_gate)
            expect = first_order_infidelity(circ, locations)
            mc = monte_carlo_infidelity(circ, rates, trials=trials, seed=SEED,
                                        link_by_gate=by_gate)
            sigma = max(mc["stderr"], float(np.sqrt(max(expect, 1e-12) / trials)))
            assert abs(mc["infidelity"] - expect) <= 3 * sigma + 1e-9, \
                (lam, gamma, name, expect, mc)
            if lam == 2:
                lines.append(f"{name} {mc['infidelity']:.2e}~{expect:.2e}")
    print("\n[criterion 7] PASS - 3-sigma MC/enumeration agreement on both "
          "n=3 instances: " + ", ".join(lines))


def test_c08_layout_properties():
    rng = np.random.default_rng(SEED + 5)
    worst_ratio = 0.0
    for n in range(1, 13):
        N = 1 << n
        circ = build_reference("BucketBrigade", N, random_table(rng, N))
        placement = place_htree(circ)
        worst_ratio = max(worst_ratio, placement.area / N)
        assert placement.area <= 12 * N, (n, placement.area / N)
        links, by_gate = classify_links(circ, placement)
        for idx, g in enumerate(circ.gates):
            if len(g.qubits) >= 2 and idx not in by_gate:
                assert any(
                    all(placement.distance(p, q) <= 1 for q in g.qubits if q != p)
                    for p in g.qubits), (n, idx)
        if n >= 6:
            linked = {l.level for l in links if l.level is not None}
            pitches = {lvl: float(np.mean(v))
                       for lvl, v in level_pitches(circ, placement).items()}
            for lvl in pitches:
                if lvl + 2 in pitches and lvl in linked and lvl + 2 in linked:
                    assert pitches[lvl] == 2.0 * pitches[lvl + 2], (n, lvl)
    fixture = json.loads(
        (Path(__file__).parent / "fixtures" / "fig8b_bb16.json").read_text())
    circ = build_reference("BucketBrigade", 16, random_table(rng, 16))
    placement = place_htree(circ)
    assert list(placement.bounds) == fixture["bounds"]
    for key, spots in fixture["routers"].items():
        level, pos = (int(v) for v in key.split(","))
        r = circ.routers[(level, pos, 0)]
        for member, attr in (("t", r.t), ("in", r.inp),
                             ("left", r.left), ("right", r.right)):
            assert list(placement.coords[attr]) == spots[member], (key, member)
    print(f"\n[criterion 8] PASS - area <= {worst_ratio:.2f} cells/location, "
          "all non-flagged gates local, pitch halving exact, figure fixture matched")


def test_c09_degeneration_identities():
    rng = np.random.default_rng(SEED + 6)
    for n in (1, 2, 3, 4):
        N = 1 << n
        table = random_table(rng, N)
        unified = build_unified_lookup(derive_params(N, N, 1), table)
        ref = build_reference("BucketBrigade", N, table)
        assert gate_multiset(unified) == gate_multiset(ref), (n,)
    table = random_table(rng, 8)
    base = build_unified_lookup(derive_params(8, 4, 2), table)
    for mode in (Readout.PARALLEL, Readout.SEQUENTIAL):
        multi = build_lookup(derive_params(8, 4, 2, readout=mode), table)
        assert gate_multiset(multi) == gate_multiset(base)
    worst = 1.0
    for n in (1, 2, 3):
        N = 1 << n
        for lam, gamma in lam_gamma_grid(N):
            t = random_table(rng, N)
            circ = build_uncompute(build_unified_lookup(derive_params(N, lam, gamma), t))
            addr_reg, bus_reg = circ.reg("address"), circ.reg("bus")
            clean = sum(1 << q for q in range(circ.n_qubits)
                        if q not in addr_reg and q not in bus_reg)
            for a in range(N):
                out, phase = run_basis(circ, basis_input(circ, a))
                assert out & clean == 0 and phase == 0
    print("\n[criterion 9] PASS - gate-multiset degenerations hold; uncompute "
          "returns every ancilla to |0> exactly")


def test_c10_long_range_error_model():
    from qlut.layout import LongRangeLink, long_range_error
    rng = np.random.default_rng(SEED + 7)
    for _ in range(1000):
        m = int(rng.integers(1, 500))
        eps_q = float(rng.uniform(0, 0.01))
        eps_f = float(rng.uniform(0, 0.05))
        rates = ErrorRates(eps_q=eps_q, eps_f=eps_f)
        link = LongRangeLink(0, 0, 1, m=m, level=0, resource="DistilledBell")
        got = long_range_error(link, rates)
        assert got == pytest.approx(min(m * eps_q, eps_f))
        assert got <= eps_f + 1e-15
        longer = LongRangeLink(0, 0, 1, m=m + 13, level=0, resource="DistilledBell")
        assert long_range_error(longer, rates) >= got - 1e-15
    print("\n[criterion 10] PASS - eps_L = min(m*eps_Q, eps_f) over 1000 "
          "random triples, monotone in m, capped at eps_f")
