"""The benchmark's three workloads: simulate, containment and report.

A workload makes every input from the run seed in its constructor (config
files, tables, addresses, the call deck), then serves calls by index. The
runner times ``run(item)`` alone; ``check(item, out)`` verifies that call's
output afterwards against the references in ``reference.json``, which
``record.py`` writes. All loops are closed: a call starts when the previous
one has returned.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from pathlib import Path

# uniform 1e-4 gate and idle rates; eps_L derived per classified link with
# eps_f = 1e-3
RATES = {"epsI": 1e-4, "epsQ": 1e-4, "epsS": 1e-4, "epsCS": 1e-4,
         "epsC": 1e-4, "epsCC": 1e-4, "epsF": 1e-3}
COMBOS = ((1, "SingleBit"), (1, "ParallelMultiBit"), (1, "SequentialMultiBit"),
          (2, "ParallelMultiBit"), (2, "SequentialMultiBit"))
REPORT_NS = (512, 1024, 2048, 4096)
REPORT_COMMANDS = ("report", "export-gates")
REPORT_DECK = Path(__file__).resolve().parent / "report_deck.json"
SIM_SHAPE = (256, 16, 4, 1, "SingleBit")
SIM_TRIALS = 50
SIM_SIGMAS = 5.0
CALL_DECK = 4000  # calls pre-generated per run; the runner cycles past it


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def table_words(N: int, b: int, tag: str) -> list[int]:
    rnd = random.Random(f"qlut-bench/{tag}/{N}/{b}")
    return [rnd.randrange(1 << b) for _ in range(N)]


def shape_key(shape) -> str:
    return "/".join(str(v) for v in shape)


def call_of(entry: str) -> tuple[str, tuple]:
    """``"<command> N/lambda/gamma/b/readout"`` as (command, shape)."""
    command, key = entry.split()
    N, lam, gamma, b, readout = key.split("/")
    return command, (int(N), int(lam), int(gamma), int(b), readout)


def config(shape, words) -> dict:
    N, lam, gamma, b, readout = shape
    return {"params": {"N": N, "lambda": lam, "gamma": gamma, "b": b,
                       "readout": readout, "longRangeBudgetK": 0},
            "rates": RATES, "table": words}


def write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


def report_grid():
    """Every valid report shape: N, full (lambda, gamma) grid, b and readout."""
    for N in REPORT_NS:
        n = N.bit_length() - 1
        for log_lam in range(n + 1):
            for log_gamma in range(log_lam + 1):
                for b, readout in COMBOS:
                    yield (N, 1 << log_lam, 1 << log_gamma, b, readout)


def cli_call(q, argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = q.cli.main(argv)
    return rc, buf.getvalue()


class Simulate:
    """Repeated ``qlut simulate --trials T --seed s --log PATH`` calls."""

    name = "simulate"
    unit = "MC trials"
    pass_calls = 1
    nominal_call_s = 0.35

    def __init__(self, q, seed, work, ref):
        self.q, self.ref = q, ref.get("simulate")
        rnd = random.Random(seed)
        words = [rnd.randrange(2) for _ in range(SIM_SHAPE[0])]
        self.config = str(work / "simulate.json")
        self.log = str(work / "trials.jsonl")
        write_json(self.config, config(SIM_SHAPE, words))
        self.deck = [rnd.randrange(1 << 31) for _ in range(CALL_DECK)]
        self.failures: dict[int, int] = {}  # per distinct MC seed
        self.instances = []

    def item(self, i):
        return self.deck[i % len(self.deck)]

    def warm_up_item(self):
        return self.item(0)

    def run(self, mc_seed):
        return cli_call(self.q, ["simulate", "--config", self.config, "--trials",
                                 str(SIM_TRIALS), "--seed", str(mc_seed), "--log", self.log])

    def check(self, mc_seed, out):
        rc, text = out
        if rc != 0:
            return False, 0
        summary = json.loads(text)
        with open(self.log, encoding="utf-8") as fh:
            rows = [json.loads(line) for line in fh]
        logged = sum(1 for r in rows if not r["ok"])
        p_ref = self.ref["infidelity"]
        sigma = math.sqrt(p_ref * (1 - p_ref) / SIM_TRIALS)
        # the traced run calls every seed twice; the repeat must agree
        repeats = self.failures.setdefault(mc_seed, logged) == logged
        ok = (summary["trials"] == len(rows) == SIM_TRIALS
              and summary["failures"] == logged and repeats
              and abs(summary["infidelity"] - p_ref) <= SIM_SIGMAS * sigma)
        return ok, SIM_TRIALS

    def finish(self) -> dict:
        """Pooled check: the run's infidelity over its distinct MC seeds
        against the recorded reference, allowing the recorded table-to-table
        spread on top of the binomial error. A call's own 5-sigma window is
        too wide to catch an engine that never fails a trial; this one is not.
        """
        p_ref, spread = self.ref["infidelity"], self.ref["table_spread"]
        trials = SIM_TRIALS * len(self.failures)
        p = sum(self.failures.values()) / trials if trials else 0.0
        tol = SIM_SIGMAS * (math.sqrt(p_ref * (1 - p_ref) / max(1, trials)) + spread)
        q = self.q
        with open(self.config, encoding="utf-8") as fh:
            cfg = json.load(fh)
        params = q.params.arch_params_from_json(cfg["params"])
        rates = q.params.error_rates_from_json(cfg["rates"])
        circuit = q.builders.build_lookup(
            params, q.params.DataTable(words=tuple(cfg["table"]), b=params.b))
        links, by_gate = q.layout.classify_links(circuit, q.layout.place_htree(circuit))
        locations = q.simulator.build_location_table(circuit, rates, by_gate)
        self.instances = [{"config": shape_key(SIM_SHAPE), "gates": len(circuit.gates),
                           "qubits": circuit.n_qubits, "locations": len(locations),
                           "long_range_links": len(links)}]
        return {"pooled_infidelity": p, "reference": p_ref, "tolerance": tol,
                "trials": trials, "ok": abs(p - p_ref) <= tol}


class Containment:
    """Exhaustive single-fault analyses through the public simulator API.

    One round is three calls: X/Y faults on a chunk of the off-path router
    sites of the N=16 bucket brigade, a superposition-checked X/Y/Z chunk on
    the N=16 (4, 2) unified instance, and first_order_infidelity over a
    chunk of one N=8 instance's classified location table.

    The chunk counts keep the three kinds of call apart in time (first-order
    about 0.1-0.15 s, bucket brigade about 0.4 s, unified about 0.75 s), so
    the median call is always a bucket-brigade call, whose work is the same
    at every address and chunk. Overlapping kinds made the median jump
    between kinds from seed to seed. A pass of the deck runs every
    first-order chunk once, in a seed-shuffled order: those chunks differ
    most in injections per second, so a free draw of them moved
    ``units_per_s`` from seed to seed.
    """

    name = "containment"
    unit = "injections"
    nominal_call_s = 0.45
    BB_CHUNKS, UNI_CHUNKS, FO_CHUNKS = 24, 12, 6
    FO_SHAPES = ((2, 1), (4, 2))

    def __init__(self, q, seed, work, ref):
        self.q, self.ref = q, ref.get("containment")
        sim, builders, params = q.simulator, q.builders, q.params
        self.bb = builders.build_reference(
            "BucketBrigade", 16, params.DataTable(words=tuple(table_words(16, 1, "bb")), b=1))
        slots = range(len(self.bb.gates) + 1)
        self.bb_sites = [_chunks([(s, qb) for s in slots
                                  for qb in sim.off_path_router_qubits(self.bb, a)],
                                 self.BB_CHUNKS) for a in range(16)]
        self.uni = builders.build_unified_lookup(
            params.derive_params(16, 4, 2),
            params.DataTable(words=tuple(table_words(16, 1, "unified")), b=1))
        self.uni_sites = _chunks([(s, qb) for s in range(len(self.uni.gates) + 1)
                                  for qb in range(self.uni.n_qubits)], self.UNI_CHUNKS)
        rates = params.error_rates_from_json(RATES)
        self.fo, self.instances = [], []
        for lam, gamma in self.FO_SHAPES:
            circ = builders.build_unified_lookup(
                params.derive_params(8, lam, gamma),
                params.DataTable(words=tuple(table_words(8, 1, f"fo{lam}{gamma}")), b=1))
            links, by_gate = q.layout.classify_links(circ, q.layout.place_htree(circ))
            locations = sim.build_location_table(circ, rates, link_by_gate=by_gate)
            self.fo.append((circ, _chunks(locations, self.FO_CHUNKS)))
            self.instances.append({"config": shape_key((8, lam, gamma, 1, "SingleBit")),
                                   "gates": len(circ.gates), "qubits": circ.n_qubits,
                                   "locations": len(locations),
                                   "long_range_links": len(links)})
        for label, circ in (("bb16", self.bb), ("unified16_4_2", self.uni)):
            self.instances.append({"config": label, "gates": len(circ.gates),
                                   "qubits": circ.n_qubits, "locations": None,
                                   "long_range_links": None})
        rnd = random.Random(seed)
        fo_items = [(i, c) for i in range(len(self.fo)) for c in range(self.FO_CHUNKS)]
        self.pass_calls = 3 * len(fo_items)
        self.deck = []
        while len(self.deck) < CALL_DECK:
            rnd.shuffle(fo_items)
            for i, c in fo_items:
                self.deck += [("bb", rnd.randrange(16), rnd.randrange(self.BB_CHUNKS)),
                              ("uni", rnd.randrange(16), rnd.randrange(self.UNI_CHUNKS)),
                              ("fo", i, c)]

    def item(self, i):
        return self.deck[i % len(self.deck)]

    def warm_up_item(self):
        return self.item(0)

    def run(self, item):
        part, a, c = item
        sim = self.q.simulator
        if part == "bb":
            return sim.containment_experiment(self.bb, a, sites=self.bb_sites[a][c],
                                              paulis=("X", "Y"))
        if part == "uni":
            return sim.containment_experiment(self.uni, a, sites=self.uni_sites[c],
                                              check_superposition=True)
        circ, chunks = self.fo[a]
        return sim.first_order_infidelity(circ, chunks[c])

    def check(self, item, out):
        part, a, c = item
        if part == "bb":
            return out.harmful == [] and out.phase_harmful == [], 2 * len(self.bb_sites[a][c])
        if part == "uni":
            got = [len(out.harmful), len(out.phase_harmful)]
            return got == self.ref["unified"][a][c], 3 * len(self.uni_sites[c])
        circ, chunks = self.fo[a]
        want = self.ref["first_order"][a][c]
        units = sum(3 * len(loc.qubits) for loc in chunks[c]) * circ.params.N
        return abs(out - want) <= 1e-9 * abs(want), units

    def finish(self) -> dict:
        return {"ok": True}


class Report:
    """``qlut report`` and ``qlut export-gates`` over seed-drawn shapes.

    ``report_deck.json`` splits the calls (``report`` or ``export-gates`` of
    one valid shape) into fixed blocks of about equal total call time. Each
    pass of the deck draws one call per block and shuffles them; the runner
    goes through whole passes, so every run weighs small and large calls
    alike.
    """

    name = "report"
    unit = "CLI calls"
    nominal_call_s = 0.38
    # export-gates of the largest instance grows the heap once, so the peak
    # RSS does not depend on which large shapes a seed draws
    WARM_UP = (4096, 4096, 1, 2, "ParallelMultiBit")

    def __init__(self, q, seed, work, ref):
        self.q, self.ref, self.work = q, ref["report"], work
        blocks = [[call_of(entry) for entry in block]
                  for block in json.loads(REPORT_DECK.read_text())]
        every = [(command, s) for command in REPORT_COMMANDS for s in report_grid()]
        if sorted(c for block in blocks for c in block) != sorted(every):
            raise ValueError(f"{REPORT_DECK.name} does not hold every report call once")
        rnd = random.Random(seed)
        self.calls = []
        while len(self.calls) < CALL_DECK:
            picks = [rnd.choice(block) for block in blocks]
            rnd.shuffle(picks)
            self.calls += picks
        self.pass_calls = len(blocks)
        self.gates_out = str(work / "gates.txt")
        self.written: set = set()
        self.sizes: dict[str, dict] = {}

    def config_path(self, shape) -> str:
        """Write the shape's config on first use, outside the timed call."""
        path = str(self.work / f"report_{shape_key(shape).replace('/', '_')}.json")
        if shape not in self.written:
            write_json(path, config(shape, table_words(shape[0], shape[3], "report")))
            self.written.add(shape)
        return path

    def item(self, i):
        command, shape = self.calls[i % len(self.calls)]
        return command, shape, self.config_path(shape)

    def warm_up_item(self):
        return ("export-gates", self.WARM_UP, self.config_path(self.WARM_UP))

    def run(self, item):
        command, _, path = item
        if command == "report":
            return cli_call(self.q, ["report", "--config", path])
        return cli_call(self.q, ["export-gates", "--config", path, "--out", self.gates_out])

    def check(self, item, out):
        command, shape, _ = item
        rc, text = out
        if rc != 0:
            return False, 1
        key = shape_key(shape)
        if command == "report":
            doc = json.loads(text)
            counts = doc["exactCounts"]
            self.sizes[key] = {
                "config": key, "gates": sum(counts["gateHistogram"].values()),
                "qubits": counts["qubitCount"], "locations": None,
                "long_range_links": doc.get("layout", {}).get("longRangeLinks")}
            return digest(text.encode()) == self.ref[key]["report"], 1
        with open(self.gates_out, "rb") as fh:
            data = fh.read()
        if key not in self.sizes:
            # one line per gate: LAYER k STAGE s KIND <qubit ids> [len=m]; the
            # CLI places (and so flags long-range links) only b=1 tree circuits
            lines = data.decode().splitlines()
            self.sizes[key] = {
                "config": key, "gates": len(lines),
                "qubits": 1 + max(int(t) for line in lines for t in line.split()[5:]
                                  if t.isdigit()),
                "locations": None,
                "long_range_links": sum(" len=" in line for line in lines)
                if shape[3] == 1 else None}
        return digest(data) == self.ref[key]["gates_digest"], 1

    def finish(self) -> dict:
        self.instances = [self.sizes[k] for k in sorted(self.sizes)]
        return {"ok": True}


def _chunks(seq, n):
    size = math.ceil(len(seq) / n)
    return [seq[i * size:(i + 1) * size] for i in range(n)]


WORKLOADS = {w.name: w for w in (Simulate, Containment, Report)}
