"""Span tracer that wraps qlut's public functions from the outside.

While a :class:`Tracer` is installed, each traced function is replaced by a
wrapper in its defining module and in every ``qlut`` module that imported it
by name. A wrapper records one span (name, start, end, parent, call id) per
call and may feed a counter hook with the call's arguments and result.
``restore`` puts the original functions back. Nothing here touches the
program's own files.
"""
from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

# span name -> (defining module, function name). The span prefix before the
# first dot is the layer the function belongs to.
TRACED = {
    "cli.main": ("qlut.cli", "main"),
    "builders.build_lookup": ("qlut.builders", "build_lookup"),
    "builders.build_unified_lookup": ("qlut.builders", "build_unified_lookup"),
    "builders.build_multi_bit_parallel": ("qlut.builders", "build_multi_bit_parallel"),
    "builders.build_multi_bit_sequential": ("qlut.builders", "build_multi_bit_sequential"),
    "builders.build_reference": ("qlut.builders", "build_reference"),
    "resources.count_resources": ("qlut.resources", "count_resources"),
    "layout.place_htree": ("qlut.layout", "place_htree"),
    "layout.classify_links": ("qlut.layout", "classify_links"),
    "layout.build_schedule": ("qlut.layout", "build_schedule"),
    "costs.t_count_formula": ("qlut.costs", "t_count_formula"),
    "costs.qubit_count_formula": ("qlut.costs", "qubit_count_formula"),
    "costs.query_depth_formula": ("qlut.costs", "query_depth_formula"),
    "costs.general_infidelity": ("qlut.costs", "general_infidelity"),
    "costs.multi_bit_infidelity": ("qlut.costs", "multi_bit_infidelity"),
    "simulator.build_location_table": ("qlut.simulator", "build_location_table"),
    "simulator.sample_events": ("qlut.simulator", "sample_events"),
    "simulator.inject_and_simulate": ("qlut.simulator", "inject_and_simulate"),
    "simulator.run_basis": ("qlut.simulator", "run_basis"),
    "simulator.monte_carlo_infidelity": ("qlut.simulator", "monte_carlo_infidelity"),
    "simulator.containment_experiment": ("qlut.simulator", "containment_experiment"),
    "simulator.first_order_infidelity": ("qlut.simulator", "first_order_infidelity"),
}


def _count_build(tr, span, args, kwargs, circuit):
    # nested builder calls (build_lookup -> build_unified_lookup) count once
    parent = span[3]
    if parent < 0 or not tr.spans[parent][0].startswith("builders."):
        tr.count["builds"] += 1
        tr.count["gates"] += len(circuit.gates)
        tr.count["qubits"] += circuit.n_qubits


def _count_classify(tr, span, args, kwargs, result):
    tr.count["classify_calls"] += 1
    tr.count["long_range_links"] += len(result[0])


def _count_locations(tr, span, args, kwargs, locations):
    tr.count["location_tables"] += 1
    tr.count["locations"] += len(locations)
    tr.count["idle_locations"] += sum(1 for loc in locations if loc.rate_key == "eps_i")


def _count_sample(tr, span, args, kwargs, events):
    locations = args[0] if args else kwargs["locations"]
    tr.count["draws"] += len(locations)
    tr.count["samples"] += 1
    tr.count["events"] += len(events)


def _count_trial(tr, span, args, kwargs, result):
    tr.count["trials"] += 1
    if result.events:
        tr.count["faulty_trials"] += 1
        tr.count["harmful"] += 0 if result.ok else 1


def _count_engine(tr, span, args, kwargs, result):
    circuit = args[0] if args else kwargs["circuit"]
    tr.count["engine_runs"] += 1
    tr.count["engine_gate_apps"] += len(circuit.gates)


def _count_mc(tr, span, args, kwargs, result):
    tr.count["failures"] += result["failures"]


def _count_containment(tr, span, args, kwargs, report):
    bad = len(report.harmful) + len(report.phase_harmful)
    tr.count["injections"] += bad + len(report.benign)
    tr.count["harmful"] += bad


HOOKS = {
    "builders.build_lookup": _count_build,
    "builders.build_unified_lookup": _count_build,
    "builders.build_multi_bit_parallel": _count_build,
    "builders.build_multi_bit_sequential": _count_build,
    "builders.build_reference": _count_build,
    "layout.classify_links": _count_classify,
    "simulator.build_location_table": _count_locations,
    "simulator.sample_events": _count_sample,
    "simulator.inject_and_simulate": _count_trial,
    "simulator.run_basis": _count_engine,
    "simulator.monte_carlo_infidelity": _count_mc,
    "simulator.containment_experiment": _count_containment,
}


def _unit(name: str) -> str:
    if name.endswith("_frac"):
        return "fraction"
    if name.endswith("_ns_per_gate_app"):
        return "ns"
    return "s" if name.endswith("_s") else "count"


class Tracer:
    """In-memory spans and counters for one traced run."""

    def __init__(self) -> None:
        self.spans: list = []           # [name, start, end, parent, call_id]
        self.count: dict[str, int] = defaultdict(int)
        self.absent: list[str] = []     # traced names with no such function
        self.call_id = -1
        self._stack: list[int] = []
        self._patched: list = []        # (module, attribute, original)

    def install(self) -> None:
        qlut_modules = [m for name, m in sys.modules.items()
                        if name == "qlut" or name.startswith("qlut.")]
        for span_name, (module_name, attr) in TRACED.items():
            original = getattr(sys.modules.get(module_name), attr, None)
            if original is None:
                self.absent.append(span_name)
                continue
            wrapper = self._wrap(span_name, original, HOOKS.get(span_name))
            for module in qlut_modules:
                if getattr(module, attr, None) is original:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, original))

    def restore(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, span_name, fn, hook):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            sid = len(spans)
            span = [span_name, 0.0, 0.0, stack[-1] if stack else -1, self.call_id]
            spans.append(span)
            stack.append(sid)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                hook(self, span, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def self_times(self) -> dict[str, float]:
        """Per span name: total duration minus the time its children cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, _, _), covered in zip(self.spans, child):
            out[name] += end - start - covered
        return out

    def layer_metrics(self) -> dict[str, dict]:
        """Per-layer metrics as {name: {"value", "unit"}}."""
        s, c = self.self_times(), self.count

        def total(*names):
            return sum(s.get(n, 0.0) for n in names)

        def ratio(a, b):
            return a / b if b else 0.0

        builders = [n for n in TRACED if n.startswith("builders.")]
        costs = [n for n in TRACED if n.startswith("costs.")]
        engine_s = total("simulator.run_basis")
        values = {
            "cli.self_s": total("cli.main"),
            "builders.build_s": total(*builders),
            "builders.gates": ratio(c["gates"], c["builds"]),
            "builders.qubits": ratio(c["qubits"], c["builds"]),
            "resources.count_s": total("resources.count_resources"),
            "layout.place_s": total("layout.place_htree"),
            "layout.classify_s": total("layout.classify_links"),
            "layout.schedule_s": total("layout.build_schedule"),
            "layout.long_range_links": ratio(c["long_range_links"], c["classify_calls"]),
            "costs.formula_s": total(*costs),
            "simulator.location_table_s": total("simulator.build_location_table"),
            "simulator.locations": ratio(c["locations"], c["location_tables"]),
            "simulator.idle_location_frac": ratio(c["idle_locations"], c["locations"]),
            "simulator.sample_s": total("simulator.sample_events"),
            "simulator.trial_setup_s": total("simulator.inject_and_simulate"),
            "simulator.events": c["events"],
            "simulator.events_per_trial": ratio(c["events"], c["samples"]),
            "simulator.draws_per_event": ratio(c["draws"], c["events"]),
            "simulator.failures": c["failures"],
            "simulator.engine_s": engine_s,
            "simulator.engine_runs": c["engine_runs"],
            "simulator.engine_runs_per_trial": ratio(c["engine_runs"], c["trials"]),
            "simulator.engine_gate_apps": c["engine_gate_apps"],
            "simulator.engine_ns_per_gate_app": ratio(engine_s * 1e9, c["engine_gate_apps"]),
            "simulator.mc_s": total("simulator.monte_carlo_infidelity"),
            "simulator.containment_s": total("simulator.containment_experiment"),
            "simulator.first_order_s": total("simulator.first_order_infidelity"),
            "simulator.harmful_frac": ratio(
                c["harmful"], c["injections"] + c["faulty_trials"]),
            "trace.spans": len(self.spans),
            "trace.absent_spans": len(self.absent),
        }
        return {k: {"value": v, "unit": _unit(k)} for k, v in values.items()}

    def write(self, path) -> None:
        """Spans as JSON lines, preceded by one header line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["name", "start", "end", "parent", "call_id"],
                                 "absent": self.absent, "counts": dict(self.count)},
                                sort_keys=True) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
