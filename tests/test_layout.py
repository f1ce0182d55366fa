import json
from pathlib import Path

import numpy as np
import pytest

import scalar_reference
from conftest import random_table
from qlut.builders import build_reference, build_unified_lookup
from qlut.errors import InvalidParamsError
from qlut.ir import CircuitBuilder, GateKind, QubitInfo, Role, Stage
from qlut.layout import (
    GridPlacement, LinkResource, LongRangeLink, build_schedule, classify_links,
    level_pitches, long_range_error, place_htree,
)
from qlut.params import DataTable, ErrorRates, derive_params

FIXTURE = json.loads((Path(__file__).parent / "fixtures" / "fig8b_bb16.json").read_text())


@pytest.fixture(scope="module")
def bb16():
    rng = np.random.default_rng(7)
    circ = build_reference("BucketBrigade", 16, random_table(rng, 16))
    placement = place_htree(circ)
    links, by_gate = classify_links(circ, placement)
    return circ, placement, links, by_gate


def test_fig8b_fixture_match(bb16):
    circ, placement, _, _ = bb16
    assert list(placement.bounds) == FIXTURE["bounds"]
    for key, spots in FIXTURE["routers"].items():
        level, pos = (int(v) for v in key.split(","))
        r = circ.routers[(level, pos, 0)]
        assert list(placement.coords[r.t]) == spots["t"], key
        assert list(placement.coords[r.inp]) == spots["in"], key
        assert list(placement.coords[r.left]) == spots["left"], key
        assert list(placement.coords[r.right]) == spots["right"], key
    io = FIXTURE["io"]
    assert list(placement.coords[circ.reg("input")[0]]) == io["input"]
    assert list(placement.coords[circ.reg("bus")[0]]) == io["bus"]
    addr = circ.reg("address")
    for i, spot in enumerate((io["a0"], io["a1"], io["a2"], io["a3"])):
        assert list(placement.coords[addr[i]]) == spot


def test_toy_model_t_shape():
    rng = np.random.default_rng(8)
    circ = build_reference("BucketBrigade", 2, random_table(rng, 2))
    placement = place_htree(circ)
    r = circ.routers[(0, 0, 0)]
    (tr, tc) = placement.coords[r.t]
    (ir_, ic) = placement.coords[r.inp]
    (lr, lc) = placement.coords[r.left]
    (rr, rc) = placement.coords[r.right]
    assert (tr, tc) == (ir_ - 1, ic)          # status below the input
    assert {(lr, lc), (rr, rc)} == {(ir_, ic - 1), (ir_, ic + 1)}  # ports flank


def test_area_linear_up_to_4096():
    rng = np.random.default_rng(9)
    ratios = {}
    for n in range(1, 13):
        N = 1 << n
        circ = build_reference("BucketBrigade", N, random_table(rng, N))
        placement = place_htree(circ)
        ratios[n] = placement.area / N
        assert placement.area <= 12 * N, (n, placement.area / N)
    assert ratios[6] <= ratios[4] * 1.5  # recursive construction stays tight


def test_placement_injective_and_off_reserved(bb16):
    _, placement, _, _ = bb16
    assert len(set(placement.coords.values())) == len(placement.coords)
    assert not set(placement.coords.values()) & placement.reserved


def test_locality_soundness(bb16):
    circ, placement, links, by_gate = bb16
    flagged = set(by_gate)
    for idx, g in enumerate(circ.gates):
        if len(g.qubits) < 2 or idx in flagged:
            continue
        dists = [placement.distance(a, b)
                 for i, a in enumerate(g.qubits) for b in g.qubits[i + 1:]]
        # local gates form a star around some operand
        assert any(all(placement.distance(p, q) <= 1 for q in g.qubits if q != p)
                   for p in g.qubits), (idx, g, dists)


def test_root_link_matches_figure(bb16):
    circ, placement, links, _ = bb16
    root = circ.routers[(0, 0, 0)]
    child = circ.routers[(1, 0, 0)]
    root_links = [l for l in links if {l.source, l.target} == {root.left, child.inp}]
    assert root_links and root_links[0].m == 3  # red segment of the figure
    assert root_links[0].level == 0


def test_router_internal_gates_local(bb16):
    circ, placement, _, by_gate = bb16
    for idx, g in enumerate(circ.gates):
        if g.kind.value == "CSWAP":
            assert idx not in by_gate  # CSWAPs act inside a T-shape


def test_level_pitch_halving_exact():
    rng = np.random.default_rng(10)
    for n in (6, 7, 8, 9, 10):
        N = 1 << n
        circ = build_reference("BucketBrigade", N, random_table(rng, N))
        placement = place_htree(circ)
        links, _ = classify_links(circ, placement)
        linked_levels = {l.level for l in links if l.level is not None}
        pitches = {lvl: float(np.mean(v))
                   for lvl, v in level_pitches(circ, placement).items()}
        for lvl, mean in pitches.items():
            if lvl + 2 in pitches and lvl in linked_levels and (lvl + 2) in linked_levels:
                assert mean == 2.0 * pitches[lvl + 2], (n, lvl)


def test_long_range_error_modes():
    rates = ErrorRates(eps_q=0.01, eps_f=0.02)
    link = LongRangeLink(0, 1, 2, m=5, level=0, resource="DistilledBell")
    assert long_range_error(link, rates) == pytest.approx(0.02)
    rates2 = ErrorRates(eps_q=0.001, eps_f=0.02)
    assert long_range_error(link, rates2) == pytest.approx(0.005)
    free = LongRangeLink(0, 1, 2, m=50, level=0, resource="FreeBudget")
    assert long_range_error(free, rates) == 0.0
    ghz = LongRangeLink(0, 1, 2, m=5, level=0, resource="GhzChain")
    assert long_range_error(ghz, rates) == pytest.approx(0.05)


def test_long_range_error_monotone_capped(rng):
    for _ in range(1000):
        m = int(rng.integers(1, 200))
        eps_q = float(rng.uniform(0, 0.02))
        eps_f = float(rng.uniform(0, 0.05))
        rates = ErrorRates(eps_q=eps_q, eps_f=eps_f)
        link = LongRangeLink(0, 0, 1, m=m, level=0, resource="DistilledBell")
        got = long_range_error(link, rates)
        assert got == pytest.approx(min(m * eps_q, eps_f))
        bigger = LongRangeLink(0, 0, 1, m=m + 7, level=0, resource="DistilledBell")
        assert long_range_error(bigger, rates) >= got - 1e-15
        assert got <= eps_f + 1e-15


def test_schedule_crossings_and_tau():
    rng = np.random.default_rng(11)
    circ = build_reference("BucketBrigade", 16, random_table(rng, 16))
    placement = place_htree(circ)
    links, by_gate = classify_links(circ, placement)
    sched = build_schedule(circ, by_gate)
    T = 4
    counts = [sched.level_crossings.get(l, 0) for l in range(T)]
    assert counts == [3, 2, 1, 0]
    assert [3 * c for c in counts] == [9, 6, 3, 0]  # long-range CNOT equivalents
    assert sched.tau[0] == 2


def test_schedule_toy_no_long_range():
    rng = np.random.default_rng(12)
    circ = build_reference("BucketBrigade", 2, random_table(rng, 2))
    placement = place_htree(circ)
    links, by_gate = classify_links(circ, placement)
    assert links == []
    sched = build_schedule(circ, by_gate)
    assert sched.tau[0] == 2


def test_schedule_n16_idle_golden():
    # frozen from the first verified discrete-event walk; the table is pinned
    # because data-masked loads contribute gates
    circ = build_reference("BucketBrigade", 16, DataTable(words=(1,) * 16, b=1))
    placement = place_htree(circ)
    _, by_gate = classify_links(circ, placement)
    sched = build_schedule(circ, by_gate)
    assert sched.total_depth == 53
    assert sched.idle_total == 791
    assert sched.tau == {0: 2, 1: 6, 2: 12, 3: 16}


def test_schedule_depth_polylog():
    rng = np.random.default_rng(14)
    depths = {}
    for n in range(2, 13):
        N = 1 << n
        circ = build_reference("BucketBrigade", N, random_table(rng, N))
        placement = place_htree(circ)
        _, by_gate = classify_links(circ, placement)
        sched = build_schedule(circ, by_gate)
        depths[n] = sched.total_depth
        assert sched.total_depth <= 4 * n ** 3, (n, sched.total_depth)
    # distillation depth only adds a log factor
    circ = build_reference("BucketBrigade", 256, random_table(rng, 256))
    placement = place_htree(circ)
    _, by_gate = classify_links(circ, placement)
    plain = build_schedule(circ, by_gate).total_depth
    slow = build_schedule(circ, by_gate,
                          include_distillation_depth=True).total_depth
    assert plain < slow <= 8 * plain


def test_schedule_two_local_swaps_per_status_bit():
    rng = np.random.default_rng(15)
    circ = build_reference("BucketBrigade", 16, random_table(rng, 16))
    placement = place_htree(circ)
    _, by_gate = classify_links(circ, placement)
    # along the canonical branch, each address bit sees exactly two local
    # SWAPs: into the root input and into the target status register
    status = {q for q, info in enumerate(circ.qubits) if info.role == Role.ROUTER_STATUS}
    for level in range(4):
        r = circ.routers[(level, 0, 0)]
        local_swaps = [
            g for i, g in enumerate(circ.gates)
            if g.stage == "I" and g.kind.value == "SWAP" and i not in by_gate
            and (g.qubits[1] == r.t or circ.reg("input")[0] in g.qubits)
        ]
        deposits = [g for g in local_swaps if g.qubits[1] == r.t]
        assert len(deposits) == 1


def test_unified_layout_places_and_classifies():
    rng = np.random.default_rng(16)
    params = derive_params(64, 8, 2)
    circ = build_unified_lookup(params, random_table(rng, 64))
    placement = place_htree(circ)
    links, by_gate = classify_links(circ, placement)
    assert placement.area <= 12 * 64
    assert links  # diffusion and transfer hops are long-range
    for idx, g in enumerate(circ.gates):
        if len(g.qubits) >= 2 and idx not in by_gate:
            assert any(all(placement.distance(p, q) <= 1 for q in g.qubits if q != p)
                       for p in g.qubits)


def test_multiword_layout_rejected():
    from qlut.builders import build_multi_bit_parallel
    from qlut.params import Readout
    rng = np.random.default_rng(17)
    params = derive_params(8, 4, 2, b=2, readout=Readout.PARALLEL)
    circ = build_multi_bit_parallel(params, random_table(rng, 8, b=2))
    with pytest.raises(InvalidParamsError):
        place_htree(circ)


def test_free_budget_levels():
    rng = np.random.default_rng(18)
    circ = build_reference("BucketBrigade", 64, random_table(rng, 64))
    placement = place_htree(circ)
    links, _ = classify_links(circ, placement, free_levels=2)
    tree_links = [l for l in links if l.level is not None]
    assert all(l.resource == "FreeBudget" for l in tree_links if l.level < 2)
    assert any(l.resource == "DistilledBell" for l in tree_links if l.level >= 2)


def test_classify_links_gives_every_gate_of_a_repeated_tuple_its_verdict():
    # operand tuples replayed across stages and repetitions, as the builders
    # replay their op lists: every gate of a far tuple is a link, whatever
    # its kind, and the verdicts match the per-gate reference at every free
    # budget, with and without distillation
    b = CircuitBuilder()
    # q0..q2 on tree levels 0..2, q3 and q4 on level 1, q5 off the tree
    for level in (0, 1, 2, 1, 1, -1):
        b.new_qubit(Role.ROUTER_INPUT if level >= 0 else Role.BUS, level=level)
    placement = GridPlacement(coords={0: (0, 0), 1: (0, 5), 2: (3, 3), 3: (3, 4),
                                      4: (3, 5), 5: (4, 5)}, bounds=(7, 5))
    far = [(GateKind.SWAP, (0, 1)), (GateKind.CNOT, (0, 1)), (GateKind.CNOT, (1, 0)),
           (GateKind.CNOT, (5, 1)), (GateKind.CSWAP, (5, 0, 2))]
    # local under pivot 3 only (2 and 4 are two cells apart), and one
    # adjacent pair
    local = [(GateKind.CSWAP, (2, 3, 4)), (GateKind.CNOT, (4, 5)), (GateKind.X, (0,))]
    for stage in (Stage.I, Stage.II):
        b.stage = stage
        for rep in range(7):
            b.rep = rep
            b.emit_ops(far + local if rep % 2 else local + far[::-1])
    circ = b.build()
    # SWAP and CNOT (0, 1) share one operand tuple
    assert len(circ.gate_arrays.distinct) == len(far) + len(local) - 1
    for k in (0, 1, 2):
        for distillation in (True, False):
            links, by_gate = classify_links(circ, placement, distillation, k)
            want, want_by_gate = scalar_reference.classify_links(
                circ, placement, distillation, k)
            assert links == want
            assert list(by_gate.items()) == list(want_by_gate.items())
            assert len(links) == 2 * 7 * len(far)
            assert {link.gate_index for link in links} == {
                i for i, row in enumerate(circ.rows) if (row[0], row[1]) in far}
            swap = next(link for link in links if circ.rows[link.gate_index][0] is GateKind.SWAP)
            assert (swap.source, swap.target, swap.m, swap.level) == (0, 1, 5, 0)
            assert swap.resource == (LinkResource.FREE.value if k >= 1
                                     else LinkResource.DISTILLED.value if distillation
                                     else LinkResource.GHZ.value)
