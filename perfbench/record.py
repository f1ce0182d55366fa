"""Rewrite perfbench/reference.json from the current program.

    python3 perfbench/record.py [--part report|simulate|containment ...]

The references are what the benchmark's checks compare against:

* report: per valid report shape, the digest of the ``qlut report`` output
  and the digest of the ``qlut export-gates`` file;
* simulate: the pooled Monte Carlo infidelity of the simulate config over
  several tables, and the table-to-table spread beyond binomial error;
* containment: (harmful, phase-harmful) counts for every (address, chunk) of
  the unified instance, and first_order_infidelity for every location chunk.

Run it only when the program's outputs change on purpose, and say so.
"""
from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import import_qlut  # noqa: E402
from workloads import (  # noqa: E402
    SIM_SHAPE, Containment, cli_call, config, digest, report_grid, shape_key,
    table_words, write_json,
)

REFERENCE = HERE / "reference.json"
SIM_TABLES, SIM_REF_TRIALS = 8, 2500


def record_report(q, work) -> dict:
    out = {}
    cfg, gates = str(work / "record.json"), str(work / "record_gates.txt")
    for shape in report_grid():
        write_json(cfg, config(shape, table_words(shape[0], shape[3], "report")))
        rc, text = cli_call(q, ["report", "--config", cfg])
        rc2, _ = cli_call(q, ["export-gates", "--config", cfg, "--out", gates])
        if rc or rc2:
            raise SystemExit(f"{shape_key(shape)}: exit codes {rc}, {rc2}")
        with open(gates, "rb") as fh:
            gates_digest = digest(fh.read())
        out[shape_key(shape)] = {"report": digest(text.encode()), "gates_digest": gates_digest}
    return out


def record_simulate(q) -> dict:
    N = SIM_SHAPE[0]
    params = q.params.arch_params_from_json(config(SIM_SHAPE, [])["params"])
    rates = q.params.error_rates_from_json(config(SIM_SHAPE, [])["rates"])
    ps = []
    for k in range(SIM_TABLES):
        table = q.params.DataTable(words=tuple(table_words(N, 1, f"simref{k}")), b=1)
        circuit = q.builders.build_lookup(params, table)
        _, by_gate = q.layout.classify_links(circuit, q.layout.place_htree(circuit))
        mc = q.simulator.monte_carlo_infidelity(circuit, rates, SIM_REF_TRIALS, k,
                                                link_by_gate=by_gate)
        ps.append(mc["infidelity"])
    p = statistics.mean(ps)
    binomial = p * (1 - p) / SIM_REF_TRIALS
    spread = math.sqrt(max(0.0, statistics.variance(ps) - binomial))
    return {"infidelity": p, "table_spread": spread, "per_table": ps,
            "trials_per_table": SIM_REF_TRIALS}


def record_containment(q, work) -> dict:
    wl = Containment(q, 0, work, {})
    sim = q.simulator
    unified = []
    for a in range(16):
        row = []
        for sites in wl.uni_sites:
            rep = sim.containment_experiment(wl.uni, a, sites=sites, check_superposition=True)
            row.append([len(rep.harmful), len(rep.phase_harmful)])
        unified.append(row)
    first_order = [[sim.first_order_infidelity(circ, chunk) for chunk in chunks]
                   for circ, chunks in wl.fo]
    return {"unified": unified, "first_order": first_order}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--part", action="append",
                    choices=("report", "simulate", "containment"))
    args = ap.parse_args()
    parts = args.part or ["report", "simulate", "containment"]
    q = import_qlut()
    work = HERE / "out" / "record"
    work.mkdir(parents=True, exist_ok=True)
    recorders = {"report": lambda: record_report(q, work),
                 "simulate": lambda: record_simulate(q),
                 "containment": lambda: record_containment(q, work)}
    ref = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    for part in parts:
        ref[part] = recorders[part]()
        REFERENCE.write_text(json.dumps(ref, sort_keys=True, separators=(",", ":")) + "\n")
        print(f"recorded {part}", file=sys.stderr)


if __name__ == "__main__":
    main()
