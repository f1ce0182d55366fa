"""Command-line driver: reports, sweeps, exports, and simulation runs.

Exit codes: 0 success, 2 config error, 3 validation error, 4 internal error.
All emissions are byte-deterministic given the config and seed.

Each command runs with Python's cyclic garbage collector paused, and `main`
restores the caller's setting on every return. A build allocates some 10^5
gate tuples, each GC-tracked through its `GateKind` member, and the
collections they trigger rescan the live circuit for about a fifth of a
`report` call; the build leaves almost no cyclic garbage, and reference
counting still frees the circuit when the command returns. The setting is
process-global, so a caller that embeds `main` sees the pause only for the
duration of the call. Library entry points such as `build_lookup` leave the
collector alone.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import json
import os
import stat
import sys
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple

from . import costs
from .builders import build_lookup
from .errors import ConfigError, InvalidParamsError, QlutError
from .ir import Circuit, gate_lines
from .layout import (
    GridPlacement, LongRangeLink, build_schedule, classify_links, place_htree,
)
from .params import (
    ArchParams, DataTable, ErrorRates, Readout, arch_params_from_json,
    arch_params_to_json, error_rates_from_json, error_rates_to_json, json_int, json_number,
    specialization,
)
from .resources import count_resources
from .simulator import _BLOCK, TrialResult, lookup_correct, monte_carlo_infidelity

_K_RULES = {
    "Zero": 0.0,
    "QuarterDPrime": 0.25,
    "HalfDPrime": 0.5,
    "ThreeQuarterDPrime": 0.75,
    "FullDPrime": 1.0,
}

_METRICS = ("InfidelityExponent", "TCountExponent", "QubitExponent", "DepthExponent")

# simulatedCorrect up to this N; kept for perfbench/reference.json's report digests, not cost
_SIM_VERDICT_CAP = 256

# largest sweep size n = log2 N: the budgeted infidelity forms gamma * N,
# up to 2**(2n), and a float overflows from 2**1024 on
_MAX_SWEEP_N = 511


@dataclass
class SweepSpec:
    """Grid over (d/n, d'/n) fractions with a long-range budget rule."""
    n_range: list[int] = field(default_factory=lambda: [16, 24, 32, 40, 48])
    d_fractions: list[float] = field(default_factory=lambda: [0.0, 0.25, 0.5, 0.75, 1.0])
    d_prime_fractions: list[float] = field(default_factory=lambda: [0.0, 0.25, 0.5, 0.75, 1.0])
    k_rule: str = "Zero"
    rates: ErrorRates = field(default_factory=lambda: ErrorRates.uniform(1e-3))
    metric: str = "InfidelityExponent"

    def __post_init__(self) -> None:
        if self.k_rule not in _K_RULES:
            raise ConfigError(f"unknown kRule {self.k_rule!r}")
        if self.metric not in _METRICS:
            raise ConfigError(f"unknown metric {self.metric!r}")
        if len(self.n_range) < 5:
            raise ConfigError("nRange needs at least 5 sizes for exponent fits")
        if not all(1 <= n <= _MAX_SWEEP_N for n in self.n_range):
            raise ConfigError(
                f"nRange sizes n = log2 N must lie in [1, {_MAX_SWEEP_N}], got {self.n_range}")
        for name, fractions in (("dFractions", self.d_fractions),
                                ("dPrimeFractions", self.d_prime_fractions)):
            if not fractions:
                raise ConfigError(f"{name} must not be empty")
            if not all(0.0 <= f <= 1.0 for f in fractions):
                raise ConfigError(f"{name} must lie in [0, 1], got {fractions}")

    @classmethod
    def from_json(cls, obj: dict) -> "SweepSpec":
        """The spec a sweep config asks for; a malformed value is a ConfigError."""
        if not isinstance(obj.get("rates", {}), dict):
            raise ConfigError("sweep 'rates' must be an object")
        for key in ("nRange", "dFractions", "dPrimeFractions"):
            if not isinstance(obj.get(key, []), list):
                raise ConfigError(f"sweep {key!r} must be a list")
        kwargs = {}
        try:
            if "nRange" in obj:
                kwargs["n_range"] = [json_int(v, "nRange entry") for v in obj["nRange"]]
            for key, attr in (("dFractions", "d_fractions"),
                              ("dPrimeFractions", "d_prime_fractions")):
                if key in obj:
                    kwargs[attr] = [float(json_number(v, f"{key} entry")) for v in obj[key]]
            if "kRule" in obj:
                kwargs["k_rule"] = obj["kRule"]
            if "metric" in obj:
                kwargs["metric"] = obj["metric"]
            if "rates" in obj:
                kwargs["rates"] = error_rates_from_json(obj["rates"])
            return cls(**kwargs)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"malformed sweep value: {exc}") from exc


def _cell_values(spec: SweepSpec, df: float, pf: float) -> list[float] | None:
    if df + pf > 1.0 + 1e-9:
        return None
    vals = []
    k_frac = _K_RULES[spec.k_rule]
    for n in spec.n_range:
        d = df * n
        dp = pf * n
        if spec.metric == "InfidelityExponent":
            v = costs.budgeted_infidelity_at(n, d, dp, k_frac * dp, spec.rates).total
        elif spec.metric == "TCountExponent":
            v = costs.t_count_at(n, d, dp, 1.0, Readout.SINGLE_BIT)
        elif spec.metric == "QubitExponent":
            v = costs.qubit_count_at(n, d, 1.0, Readout.SINGLE_BIT)
        else:
            v = costs.query_depth_at(n, d, 1.0, Readout.SINGLE_BIT)
        vals.append(v)
    return vals


def sweep_exponent_table(spec: SweepSpec) -> dict:
    """Fit the metric exponent for every (d/n, d'/n) grid cell."""
    cells = {}
    for df in spec.d_fractions:
        for pf in spec.d_prime_fractions:
            vals = _cell_values(spec, df, pf)
            if vals is None or any(v <= 0 for v in vals):
                cells[(df, pf)] = None
                continue
            fit = costs.fit_exponent([2 ** n for n in spec.n_range], vals)
            cells[(df, pf)] = fit.slope
    return {
        "kRule": spec.k_rule,
        "metric": spec.metric,
        "nRange": list(spec.n_range),
        "dFractions": list(spec.d_fractions),
        "dPrimeFractions": list(spec.d_prime_fractions),
        "cells": cells,
    }


def sweep_table_csv(table: dict) -> str:
    """Row-major matrix: rows = d/n, columns = d'/n, empty cell = null."""
    dps = table["dPrimeFractions"]
    lines = ["d_over_n," + ",".join(repr(float(p)) for p in dps)]
    for df in table["dFractions"]:
        row = [repr(float(df))]
        for pf in dps:
            cell = table["cells"][(df, pf)]
            row.append("" if cell is None else repr(float(cell)))
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"malformed JSON in {path} at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(obj, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    return obj


class _Instance(NamedTuple):
    """One config built once: every subcommand analyses this same instance."""
    params: ArchParams
    rates: ErrorRates
    circuit: Circuit
    placement: GridPlacement | None    # None unless a single-word tree circuit
    links: list[LongRangeLink]
    by_gate: dict[int, LongRangeLink]


def _build_instance(path: str) -> _Instance:
    """Load a config, build its circuit and, for the single-word tree
    circuits the planar layout covers, place it and classify its links."""
    obj = _load_config(path)
    for key in ("params", "rates"):
        if not isinstance(obj.get(key, {}), dict):
            raise ConfigError(f"config {key!r} must be an object")
    try:
        params = arch_params_from_json(obj["params"])
        rates = error_rates_from_json(obj.get("rates", {}))
        if "table" in obj:
            table = DataTable(words=tuple(json_int(w, "table entry") for w in obj["table"]),
                              b=params.b)
        else:
            # deterministic default table so reports are reproducible
            words = tuple((a * 2654435761 >> 7) % (1 << params.b) for a in range(params.N))
            table = DataTable(words=words, b=params.b)
    except KeyError as exc:
        raise ConfigError(f"config missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"malformed config value: {exc}") from exc
    circuit = build_lookup(params, table)
    placement, links, by_gate = None, [], {}
    if circuit.meta.get("family") == "tree":
        placement = place_htree(circuit)
        links, by_gate = classify_links(circuit, placement, free_levels=params.k)
    return _Instance(params, rates, circuit, placement, links, by_gate)


class _Output:
    """One output file, overwritten in place from text chunks.

    The file opens at the first ``write``, without truncation: emptying an
    existing file before the rewrite stalls on some filesystems. At exit a
    regular file is cut to the length written, so it holds exactly the new
    text, or the text written before an exception escaped the block;
    devices and FIFOs such as ``/dev/stdout`` are left as they are. A block
    that raises before its first write creates no file. An OSError is a
    config error.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._fh = None

    def write(self, text: str) -> None:
        try:
            if self._fh is None:
                fd = os.open(self.path, os.O_WRONLY | os.O_CREAT, 0o666)
                self._fh = open(fd, "w", encoding="utf-8")
            self._fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write {self.path}: {exc}") from exc

    def __enter__(self) -> "_Output":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._fh is None:
            return
        try:
            with self._fh as fh:
                if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                    fh.truncate()
        except OSError as err:
            if exc_type is None:
                raise ConfigError(f"cannot write {self.path}: {err}") from err


def _write(path: str, chunks: Iterable[str]) -> None:
    """Write one output file from its text chunks (see :class:`_Output`)."""
    with _Output(path) as out:
        for chunk in chunks:
            out.write(chunk)


def _emit(payload: dict, out_path: str | None) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if out_path:
        _write(out_path, (text,))
    else:
        sys.stdout.write(text)


def cmd_report(args) -> None:
    inst = _build_instance(args.config)
    params, rates, circuit = inst.params, inst.rates, inst.circuit
    report: dict = {
        "params": arch_params_to_json(params),
        "rates": error_rates_to_json(rates),
        "specialization": specialization(params).value,
        "repetitions": params.repetitions,
        "formulas": {
            "tCount": costs.t_count_formula(params),
            "qubitCount": costs.qubit_count_formula(params),
            "queryDepth": costs.query_depth_formula(params),
        },
    }
    if params.b == 1 and params.k > 0:
        # the free long-range budget replaces the eps_L terms
        report["infidelity"] = costs.budgeted_infidelity(params, rates).to_json()
    elif params.b == 1:
        report["infidelity"] = costs.general_infidelity(params, rates).to_json()
    else:
        report["infidelity"] = costs.multi_bit_infidelity(params, rates).to_json()
    report["exactCounts"] = count_resources(circuit, args.decomposition).to_json()
    if inst.placement is not None:
        schedule = build_schedule(circuit, inst.by_gate,
                                  include_distillation_depth=args.include_distillation_depth)
        report["layout"] = {
            "bounds": list(inst.placement.bounds),
            "area": inst.placement.area,
            "longRangeLinks": len(inst.links),
            "maxLinkLength": max((l.m for l in inst.links), default=0),
            "scheduleDepth": schedule.total_depth,
        }
    if params.N <= _SIM_VERDICT_CAP:
        report["simulatedCorrect"] = lookup_correct(circuit)
    if args.trials:
        report["monteCarlo"] = monte_carlo_infidelity(
            circuit, rates, args.trials, args.seed, link_by_gate=inst.by_gate)
    _emit(report, args.out)


def cmd_sweep(args) -> None:
    obj = _load_config(args.config)
    rules = obj.get("kRules", list(_K_RULES))
    if not isinstance(rules, list):
        raise ConfigError("sweep 'kRules' must be a list")
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create {args.out}: {exc}") from exc
    summary = {}
    for rule in rules:
        spec = SweepSpec.from_json({**obj, "kRule": rule})
        table = sweep_exponent_table(spec)
        name = f"sweep_{spec.metric}_{rule}"
        _write(os.path.join(args.out, name + ".csv"), (sweep_table_csv(table),))
        summary[rule] = {
            f"{df}/{pf}": table["cells"][(df, pf)]
            for df in table["dFractions"] for pf in table["dPrimeFractions"]
        }
    _emit({"metric": obj.get("metric", "InfidelityExponent"), "tables": summary},
          os.path.join(args.out, "sweep_summary.json"))


def cmd_export_gates(args) -> None:
    inst = _build_instance(args.config)
    _write(args.out, gate_lines(inst.circuit, inst.by_gate))


def cmd_export_layout(args) -> None:
    inst = _build_instance(args.config)
    placement = inst.placement
    if placement is None:
        raise InvalidParamsError(
            "export-layout places single-word tree circuits; the config has "
            f"b={inst.params.b}, readout={inst.params.readout.value}")
    csv = ["source,target,m,level,resource\n"]
    for link in inst.links:
        lvl = "" if link.level is None else str(link.level)
        csv.append(f"{link.source},{link.target},{link.m},{lvl},{link.resource}\n")
    width, height = placement.bounds
    grid = [["." for _ in range(width)] for _ in range(height)]
    for q, (r, c) in placement.coords.items():
        grid[r][c] = "o"
    for (r, c) in placement.reserved:
        grid[r][c] = "~"
    rows = ["".join(row) for row in reversed(grid)]
    base = args.out
    _write(base + ".json", (json.dumps(placement.to_json(), sort_keys=True, indent=2) + "\n",))
    _write(base + "_links.csv", csv)
    _write(base + ".txt", ("\n".join(rows) + "\n",))


def cmd_simulate(args) -> None:
    inst = _build_instance(args.config)
    lines: list[str] = []

    def log_trial(t: int, r: TrialResult) -> None:
        # json.dumps(..., sort_keys=True) of the trial, written out: every
        # pauli and source is a fixed ASCII name, so nothing needs escaping
        events = ", ".join([f'{{"pauli": "{e.pauli}", "qubit": {e.qubit}, "slot": {e.slot}, '
                            f'"source": "{e.rate_key}"}}' for e in r.events])
        lines.append(f'{{"address": {r.address}, "events": [{events}], '
                     f'"ok": {"true" if r.ok else "false"}, "trial": {t}}}\n')
        # one write per block of the Monte Carlo stream
        if (t + 1) % _BLOCK == 0 or t + 1 == args.trials:
            log.write("".join(lines))
            lines.clear()

    with _Output(args.log) if args.log else contextlib.nullcontext() as log:
        result = monte_carlo_infidelity(inst.circuit, inst.rates, args.trials, args.seed,
                                        link_by_gate=inst.by_gate,
                                        on_trial=log_trial if log else None)
    _emit(result, args.out)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qlut", description="quantum lookup-table architecture toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", default=None, help="output path (default stdout)")

    p = sub.add_parser("report", help="single-instance cost/infidelity report")
    common(p)
    p.add_argument("--decomposition", choices=("t7", "t4"), default="t7")
    p.add_argument("--include-distillation-depth", action="store_true")
    p.add_argument("--trials", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("sweep", help="exponent tables over the (d, d') grid")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("export-gates", help="write the gate-list format")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("export-layout", help="write grid map, JSON, link CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="output path prefix")

    p = sub.add_parser("simulate", help="Monte Carlo infidelity estimate")
    common(p)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--log", default=None, help="JSON-lines trial log path")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it unchanged."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    handlers = {
        "report": cmd_report,
        "sweep": cmd_sweep,
        "export-gates": cmd_export_gates,
        "export-layout": cmd_export_layout,
        "simulate": cmd_simulate,
    }
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except QlutError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # pragma: no cover - internal invariant escape
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    finally:
        if gc_was_enabled:
            gc.enable()
    return 0


if __name__ == "__main__":
    sys.exit(main())
