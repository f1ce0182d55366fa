"""Scaling probe (not gated): MC trials/s and location-table size against N.

    python3 perfbench/probe.py

Reproduces the baseline table of ROADMAP.md from the harness: for
N in {8, 64, 256, 1024} at uniform 1e-4 rates with eps_L derived per
classified link (eps_f = 1e-3) it reports Monte Carlo trials/s (untraced)
and the share of MC time spent in per-trial set-up (RNG seeding) plus
``sample_events`` (traced), both without the one-off location-table build,
and the location table's build time, size, idle share and distinct idle
(slot, qubit) pairs, for one table per N drawn from SEED. Writes
perfbench/out/probe.json and prints a markdown table.
"""
from __future__ import annotations

import json
import random
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import OUT, import_qlut  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import RATES  # noqa: E402

SHAPES = ((8, 4, 2, 4000), (64, 8, 2, 600), (256, 16, 4, 150), (1024, 32, 4, 40))
SEED = 1


def probe(q, N, lam, gamma, trials) -> dict:
    rnd = random.Random(SEED)
    table = q.params.DataTable(words=tuple(rnd.randrange(2) for _ in range(N)), b=1)
    circuit = q.builders.build_lookup(q.params.derive_params(N, lam, gamma), table)
    _, by_gate = q.layout.classify_links(circuit, q.layout.place_htree(circuit))
    rates = q.params.error_rates_from_json(RATES)
    sim = q.simulator
    builds = []
    for _ in range(3):
        t0 = time.perf_counter()
        locations = sim.build_location_table(circuit, rates, by_gate)
        builds.append(time.perf_counter() - t0)
    idle = [loc for loc in locations if loc.rate_key == "eps_i"]
    t0 = time.perf_counter()
    sim.monte_carlo_infidelity(circuit, rates, trials, SEED, link_by_gate=by_gate)
    mc_s = time.perf_counter() - t0
    tracer = Tracer()
    tracer.install()
    try:
        sim.monte_carlo_infidelity(circuit, rates, trials, SEED, link_by_gate=by_gate)
    finally:
        tracer.restore()
    layers = {k: v["value"] for k, v in tracer.layer_metrics().items()}
    mc_traced = sum(e - s for name, s, e, _, _ in tracer.spans
                    if name == "simulator.monte_carlo_infidelity")
    return {
        "N": N, "lambda": lam, "gamma": gamma, "trials": trials,
        "trials_per_s": trials / (mc_s - statistics.median(builds)),
        "rng_and_sample_share": (layers["simulator.trial_setup_s"] + layers["simulator.sample_s"])
                                / (mc_traced - layers["simulator.location_table_s"]),
        "location_table_s": statistics.median(builds),
        "locations": len(locations),
        "idle_share": len(idle) / len(locations),
        "distinct_idle_pairs": len({(loc.slot, loc.qubits[0]) for loc in idle}),
    }


def main() -> None:
    q = import_qlut()
    rows = [probe(q, N, lam, gamma, trials) for N, lam, gamma, trials in SHAPES]
    OUT.mkdir(exist_ok=True)
    (OUT / "probe.json").write_text(json.dumps(rows, indent=1) + "\n")
    print("| N (lambda, gamma) | trials/s | RNG set-up + sample_events | "
          "location table | locations | idle share | distinct idle pairs |")
    print("| --- | --- | --- | --- | --- | --- | --- |")
    for r in rows:
        print(f"| {r['N']} ({r['lambda']}, {r['gamma']}) | {r['trials_per_s']:.0f} | "
              f"{100 * r['rng_and_sample_share']:.0f}% | "
              f"{1000 * r['location_table_s']:.0f} ms | {r['locations']} | "
              f"{100 * r['idle_share']:.0f}% | {r['distinct_idle_pairs']} |")


if __name__ == "__main__":
    main()
