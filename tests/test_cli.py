import csv
import functools
import gc
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import scalar_reference
from conftest import parse_sweep_csv
from qlut import cli, costs, simulator
from qlut.builders import build_lookup
from qlut.cli import main, sweep_table_csv, sweep_exponent_table, SweepSpec
from qlut.ir import Circuit, GateArrays
from qlut.layout import classify_links, place_htree
from qlut.params import DataTable, arch_params_from_json, derive_params, error_rates_from_json

GOLDEN = Path(__file__).parent / "fixtures" / "n2_gates_golden.txt"


def _write_config(tmp_path, name="cfg.json", **over):
    cfg = {
        "params": {"N": 16, "lambda": 4, "gamma": 2, "b": 1,
                   "readout": "SingleBit", "longRangeBudgetK": 0},
        "rates": {"epsI": 1e-5, "epsQ": 1e-4, "epsS": 1e-3, "epsCS": 1e-3,
                  "epsC": 1e-3, "epsCC": 1e-3, "epsF": 1e-3},
    }
    cfg.update(over)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_report_fig11(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    assert main(["report", "--config", cfg]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["repetitions"] == 4
    assert out["specialization"] == "General"
    assert out["simulatedCorrect"] is True
    assert out["exactCounts"]["tCount"] == 224
    assert out["layout"]["area"] <= 12 * 16


def test_report_bucket_brigade_label(tmp_path, capsys):
    cfg = _write_config(tmp_path, params={"N": 16, "lambda": 16, "gamma": 1})
    assert main(["report", "--config", cfg]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["specialization"] == "BucketBrigade"


def test_malformed_json_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"params": {"N": 16,}')
    assert main(["report", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "line" in err


def test_missing_config_exits_2(tmp_path, capsys):
    assert main(["report", "--config", str(tmp_path / "nope.json")]) == 2


def test_invalid_params_exit_3(tmp_path, capsys):
    cfg = _write_config(tmp_path, params={"N": 16, "lambda": 3, "gamma": 1})
    assert main(["report", "--config", cfg]) == 3


@pytest.mark.parametrize("over", [
    {"params": {"N": 16, "lambda": 4, "gamma": 2, "readout": "Bogus"}},
    {"params": {"N": "x", "lambda": 4, "gamma": 2}},
    {"table": ["x"] + [0] * 15},
    {"rates": {"epsQ": "abc"}},
    {"params": {"N": 16, "lambda": 4, "gamma": 2, "longRangeBudgetK": "a"}},
    {"params": [1]},
    {"rates": [1]},
], ids=["readout", "N", "table", "epsQ", "longRangeBudgetK", "params-list", "rates-list"])
@pytest.mark.parametrize("command", ["report", "export-gates"])
def test_malformed_config_value_exits_2(tmp_path, capsys, over, command):
    cfg = _write_config(tmp_path, **over)
    argv = [command, "--config", cfg]
    if command == "export-gates":
        argv += ["--out", str(tmp_path / "gates.txt")]
    assert main(argv) == 2
    assert "config error: " in capsys.readouterr().err


_PARAMS = {"N": 16, "lambda": 4, "gamma": 2, "b": 1}


@pytest.mark.parametrize("key,bad", [
    ("N", 16.5), ("N", True), ("lambda", 4.5), ("lambda", True),
    ("gamma", 2.5), ("gamma", True), ("b", 1.5), ("b", True),
    ("n", 4.5), ("n", True), ("d", 2.5), ("d", True),
    ("dPrime", 1.5), ("dPrime", True), ("dDoublePrime", 0.5), ("dDoublePrime", False),
    ("table", 0.5), ("table", True), ("N", "16"), ("lambda", "4"), ("table", " 1"),
])
def test_non_integer_config_value_exits_2(tmp_path, capsys, key, bad):
    # a boolean or a fractional number used to be truncated by int(): N=16.5
    # ran as N=16 and a declared "dPrime": true passed as 1; int() also read
    # the strings "16" and " 1" as integers
    if key == "table":
        cfg = _write_config(tmp_path, table=[bad] + [0] * 15)
    else:
        cfg = _write_config(tmp_path, params={**_PARAMS, key: bad})
    assert main(["report", "--config", cfg]) == 2
    assert "must be an integer" in capsys.readouterr().err


def test_boolean_long_range_budget_exits_2(tmp_path, capsys):
    # true used to run as k = 1 and was echoed into the report
    cfg = _write_config(tmp_path, params={**_PARAMS, "longRangeBudgetK": True})
    assert main(["report", "--config", cfg]) == 2
    assert "config error: longRangeBudgetK" in capsys.readouterr().err


@pytest.mark.parametrize("over,key", [
    ({"rates": {"epsI": True}}, "epsI"),
    ({"rates": {"epsI": "x"}}, "epsI"),
    ({"params": {**_PARAMS, "longRangeBudgetK": "1"}}, "longRangeBudgetK"),
], ids=["epsI-bool", "epsI-string", "longRangeBudgetK-string"])
def test_non_number_config_value_exits_2_naming_its_key(tmp_path, capsys, over, key):
    # true used to run as the rate 1.0; the strings exited 2 with a message
    # from inside a comparison that named no key
    cfg = _write_config(tmp_path, **over)
    assert main(["report", "--config", cfg]) == 2
    assert f"config error: {key} must be a number" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["dFractions", "dPrimeFractions"])
@pytest.mark.parametrize("fractions", [[True, 0.5], [0.5, "0.5"], [None], [], 0.5],
                         ids=["bool", "string", "null", "empty", "number"])
def test_sweep_fractions_must_be_json_numbers(tmp_path, capsys, key, fractions):
    # true used to run as 1.0, an empty list wrote header-only CSVs, and a
    # bare number failed with a message that named no key
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"kRules": ["Zero"], key: fractions}))
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and key in err
    assert not (tmp_path / "out" / "sweep_summary.json").exists()


@pytest.mark.parametrize("bad", [24.5, True], ids=["fraction", "bool"])
def test_non_integer_sweep_n_range_exits_2(tmp_path, capsys, bad):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"kRules": ["Zero"], "nRange": [16, bad, 32, 40, 48]}))
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert "config error: nRange entry must be an integer" in capsys.readouterr().err


def test_integer_valued_config_numbers_are_accepted(tmp_path, capsys):
    # integral floats are whole numbers: they run as the integers they name
    cfg = _write_config(tmp_path, params={"N": 16.0, "lambda": 4.0, "gamma": 2.0, "b": 1.0,
                                          "n": 4.0, "d": 2.0, "dPrime": 1.0,
                                          "dDoublePrime": 0.0, "longRangeBudgetK": 1.5},
                        table=[float(a % 2) for a in range(16)])
    assert main(["report", "--config", cfg]) == 0
    params = json.loads(capsys.readouterr().out)["params"]
    assert (params["N"], params["lambda"], params["longRangeBudgetK"]) == (16, 4, 1.5)


@pytest.mark.parametrize("over", [
    {"nRange": ["x", 2, 3, 4, 5]},
    {"rates": {"epsQ": "abc"}},
    {"kRules": 5},
    {"dFractions": "ab"},
    {"rates": [1]},
], ids=["nRange", "epsQ", "kRules", "dFractions", "rates-list"])
def test_malformed_sweep_value_exits_2(tmp_path, capsys, over):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"kRules": ["Zero"], **over}))
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert "config error: " in capsys.readouterr().err


@pytest.mark.parametrize("n_range", [
    [1e9, 2, 3, 4, 5],
    [-1, 0, 1, 2, 3],
    [0, 1, 2, 3, 4],
    [508, 509, 510, 511, 512],
], ids=["huge", "negative", "zero", "above-bound"])
def test_sweep_n_range_out_of_bounds_exits_2(tmp_path, capsys, n_range):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"kRules": ["Zero"], "nRange": n_range}))
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert "config error: nRange" in capsys.readouterr().err
    assert not (tmp_path / "out" / "sweep_summary.json").exists()


@pytest.mark.parametrize("key", ["dFractions", "dPrimeFractions"])
@pytest.mark.parametrize("fraction", [-1.0, 1.5, math.nan], ids=["negative", "above-one", "nan"])
def test_sweep_fraction_out_of_range_exits_2(tmp_path, capsys, key, fraction):
    # a fraction outside [0, 1] used to run and write NaN cells; json.dumps
    # writes NaN as the bare token that json.load reads back as a float
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"kRules": ["Zero"], "nRange": [507, 508, 509, 510, 511],
                               key: [0.5, fraction]}))
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert f"config error: {key} must lie in [0, 1]" in capsys.readouterr().err
    assert not (tmp_path / "out" / "sweep_summary.json").exists()


@pytest.mark.parametrize("metric", ["InfidelityExponent", "TCountExponent",
                                    "QubitExponent", "DepthExponent"])
def test_sweep_largest_n_range_is_finite(tmp_path, metric):
    # the largest allowed sizes at the largest rates: every metric value of
    # every (d, d') cell and kRule stays finite, so every fit does too
    rates = {"epsI": 1.0, "epsQ": 1.0, "epsS": 1.0, "epsCS": 1.0, "epsC": 1.0,
             "epsCC": 1.0, "epsF": 1.0}
    fractions = [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0]
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"nRange": [507, 508, 509, 510, 511], "metric": metric,
                               "dFractions": fractions, "dPrimeFractions": fractions,
                               "rates": rates}))
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    tables = json.loads((tmp_path / "out" / "sweep_summary.json").read_text())["tables"]
    cells = [v for table in tables.values() for v in table.values()]
    assert len(tables) == 5 and any(v is not None for v in cells)
    assert all(v is None or math.isfinite(v) for v in cells)


def test_report_closed_form_uses_long_range_budget(tmp_path, capsys):
    # k > 0: the eps_L terms give way to the budgeted eps_Q coefficient;
    # k = 0 keeps the general single-bit expression
    got, params = {}, {}
    for k in (0, 2):
        cfg = _write_config(tmp_path, name=f"k{k}.json",
                            params={"N": 64, "lambda": 64, "gamma": 1, "longRangeBudgetK": k},
                            rates={"epsQ": 1e-3, "epsF": 1e-2})
        assert main(["report", "--config", cfg]) == 0
        got[k] = json.loads(capsys.readouterr().out)["infidelity"]
        obj = json.loads(Path(cfg).read_text())
        params[k] = (arch_params_from_json(obj["params"]), error_rates_from_json(obj["rates"]))
    assert got[0] == costs.general_infidelity(*params[0]).to_json()
    assert got[2] == costs.budgeted_infidelity(*params[2]).to_json()
    assert got[2] != got[0] and got[2]["total"] < got[0]["total"]


def test_export_gates_matches_golden(tmp_path):
    cfg = _write_config(tmp_path, params={"N": 2, "lambda": 2, "gamma": 1},
                        table=[1, 0])
    out = tmp_path / "gates.txt"
    assert main(["export-gates", "--config", cfg, "--out", str(out)]) == 0
    assert out.read_text() == GOLDEN.read_text()


def test_export_gates_annotates_long_range(tmp_path):
    cfg = _write_config(tmp_path)
    out = tmp_path / "gates16.txt"
    assert main(["export-gates", "--config", cfg, "--out", str(out)]) == 0
    text = out.read_text()
    assert "len=" in text
    assert "LongRangeSWAP" in text or "LongRangeCNOT" in text
    for line in text.strip().split("\n"):
        assert line.startswith("LAYER ") and " STAGE " in line


@pytest.mark.parametrize("argv", [
    ["report", "--out", "{missing}/r.json"],
    ["simulate", "--trials", "5", "--out", "{missing}/s.json"],
    ["simulate", "--trials", "5", "--log", "{missing}/trials.jsonl"],
    ["export-gates", "--out", "{missing}/gates.txt"],
    ["export-layout", "--out", "{missing}/layout"],
    ["sweep", "--out", "{file}/sweep"],
], ids=["report", "simulate-out", "simulate-log", "export-gates", "export-layout", "sweep"])
def test_unwritable_path_exits_2(tmp_path, capsys, argv):
    # sweep creates its output directory, so it is blocked by a plain file
    cfg = _write_config(tmp_path)
    if argv[0] == "sweep":
        cfg = str(tmp_path / "sweep.json")
        (tmp_path / "sweep.json").write_text(json.dumps({"kRules": ["Zero"]}))
    (tmp_path / "file").write_text("")
    argv = [a.format(missing=tmp_path / "missing_dir", file=tmp_path / "file") for a in argv]
    assert main(argv[:1] + ["--config", cfg] + argv[1:]) == 2
    assert "config error: cannot " in capsys.readouterr().err


def test_export_over_a_longer_file_leaves_only_the_new_bytes(tmp_path):
    # outputs are overwritten in place and cut to their new length
    cfg = _write_config(tmp_path, params={"N": 2, "lambda": 2, "gamma": 1}, table=[1, 0])
    fresh, reused = tmp_path / "fresh.txt", tmp_path / "reused.txt"
    reused.write_bytes(b"x" * 100_000)
    assert main(["export-gates", "--config", cfg, "--out", str(fresh)]) == 0
    assert main(["export-gates", "--config", cfg, "--out", str(reused)]) == 0
    assert reused.read_bytes() == fresh.read_bytes() == GOLDEN.read_bytes()


@pytest.mark.parametrize("argv", [
    ["export-gates", "--out", "/dev/null"],
    ["simulate", "--trials", "5", "--out", "/dev/null", "--log", "/dev/null"],
], ids=["export-gates", "simulate"])
def test_device_out_exits_0(tmp_path, argv):
    # a character device is written, never truncated
    assert main(argv[:1] + ["--config", _write_config(tmp_path)] + argv[1:]) == 0


def test_directory_out_exits_2(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    assert main(["export-gates", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "config error: cannot write" in capsys.readouterr().err


def test_new_output_file_mode_follows_umask(tmp_path):
    cfg = _write_config(tmp_path)
    out = tmp_path / "gates.txt"
    old = os.umask(0o027)
    try:
        assert main(["export-gates", "--config", cfg, "--out", str(out)]) == 0
    finally:
        os.umask(old)
    assert out.stat().st_mode & 0o777 == 0o666 & ~0o027


def test_internal_error_mid_stream_leaves_a_partial_file(tmp_path, monkeypatch, capsys):
    # the chunks written before the error stay, cut to their length
    def failing(circuit, link_by_gate):
        yield "LAYER 0 STAGE I X 0\n"
        raise RuntimeError("renderer failed")

    monkeypatch.setattr(cli, "gate_lines", failing)
    out = tmp_path / "gates.txt"
    out.write_text("old\n" * 1000)
    assert main(["export-gates", "--config", _write_config(tmp_path), "--out", str(out)]) == 4
    assert "internal error: renderer failed" in capsys.readouterr().err
    assert out.read_text() == "LAYER 0 STAGE I X 0\n"


@pytest.mark.parametrize("argv", [["--trials", "0"], ["--seed", "-1"]], ids=["trials", "seed"])
def test_failed_simulate_creates_or_changes_no_log(tmp_path, capsys, argv):
    cfg = _write_config(tmp_path)
    new, old = tmp_path / "new.jsonl", tmp_path / "old.jsonl"
    old.write_text("kept\n")
    for log in (new, old):
        assert main(["simulate", "--config", cfg, "--log", str(log)] + argv) == 3
    assert not new.exists()
    assert old.read_text() == "kept\n"


def test_trial_log_is_written_block_by_block(tmp_path, monkeypatch):
    # each block of the Monte Carlo stream reaches the file before the next
    # is sampled, so the log never sits in memory whole
    writes = []
    real_write = cli._Output.write

    def spy(self, text):
        writes.append(text.count("\n"))
        real_write(self, text)

    monkeypatch.setattr(cli._Output, "write", spy)
    cfg = _write_config(tmp_path)
    log = tmp_path / "trials.jsonl"
    trials = 2 * simulator._BLOCK + 40
    assert main(["simulate", "--config", cfg, "--trials", str(trials), "--seed", "2",
                 "--out", str(tmp_path / "r.json"), "--log", str(log)]) == 0
    assert writes[:3] == [simulator._BLOCK, simulator._BLOCK, 40]
    assert len(log.read_text().splitlines()) == trials


def test_export_gates_holds_no_whole_gate_list(tmp_path, capsys):
    # streamed, the export's traced peak stays within twice the written
    # file of a report on the same instance: the circuit, not the text,
    # sets both peaks
    cfg = _write_config(tmp_path, params={"N": 1024, "lambda": 1024, "gamma": 1, "b": 2,
                                          "readout": "ParallelMultiBit"})
    out = tmp_path / "gates.txt"
    peaks = []
    for argv in (["report", "--config", cfg], ["export-gates", "--config", cfg, "--out", str(out)]):
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 2 * out.stat().st_size


def test_export_layout_multi_word_is_validation_error(tmp_path, capsys):
    cfg = _write_config(tmp_path, params={"N": 16, "lambda": 4, "gamma": 2, "b": 2,
                                          "readout": "SequentialMultiBit"})
    assert main(["export-layout", "--config", cfg, "--out", str(tmp_path / "l")]) == 3
    err = capsys.readouterr().err
    assert "b=2" in err and "readout=SequentialMultiBit" in err


def test_export_layout_files(tmp_path):
    cfg = _write_config(tmp_path)
    prefix = tmp_path / "layout"
    assert main(["export-layout", "--config", cfg, "--out", str(prefix)]) == 0
    coords = json.loads((tmp_path / "layout.json").read_text())
    assert all(len(v) == 2 for v in coords.values())
    lines = (tmp_path / "layout_links.csv").read_text().strip().split("\n")
    assert lines[0] == "source,target,m,level,resource"
    assert (tmp_path / "layout.txt").read_text().count("o") == len(coords)


def _small_shapes() -> list[tuple]:
    """Every (N, lambda, gamma) with N <= 64."""
    return [(N, 1 << i, 1 << j) for N in (1, 2, 4, 8, 16, 32, 64)
            for i in range(N.bit_length()) for j in range(i + 1)]


@pytest.mark.parametrize("shape", _small_shapes(), ids=lambda s: "/".join(map(str, s)))
def test_export_layout_links_equal_classify_links(tmp_path, shape):
    # the link CSV is classify_links on the placed circuit, at every budget k
    N, lam, gamma = shape
    words = [a % 2 for a in range(N)]
    for k in range(lam.bit_length()):
        cfg = _write_config(tmp_path, params={"N": N, "lambda": lam, "gamma": gamma,
                                              "longRangeBudgetK": k}, table=words)
        assert main(["export-layout", "--config", cfg, "--out", str(tmp_path / "l")]) == 0
        with open(tmp_path / "l_links.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        circ = build_lookup(derive_params(N, lam, gamma, k=k), DataTable(tuple(words)))
        links, _ = classify_links(circ, place_htree(circ), free_levels=k)
        assert rows[0] == ["source", "target", "m", "level", "resource"]
        assert rows[1:] == [[str(link.source), str(link.target), str(link.m),
                             "" if link.level is None else str(link.level), link.resource]
                            for link in links]


#: the export's long-range kinds, folded back into the kinds they rename
_LOCAL_KIND = {"LongRangeCNOT": "CNOT", "LongRangeSWAP": "SWAP"}


@pytest.mark.parametrize("shape", _small_shapes(), ids=lambda s: "/".join(map(str, s)))
def test_subcommands_agree_on_one_instance(tmp_path, capsys, shape):
    # report, export-gates and export-layout of one config, at every budget
    # k, give one set of links and one gate list. The report's queryDepth
    # (Circuit.depth: the last gate's layer + 1) is left out: on some shapes
    # it is below the deepest exported LAYER + 1
    N, lam, gamma = shape
    words = [a * 5 // 3 % 2 for a in range(N)]
    gates, layout = str(tmp_path / "gates.txt"), str(tmp_path / "l")
    for k in range(lam.bit_length()):
        cfg = _write_config(tmp_path, params={"N": N, "lambda": lam, "gamma": gamma,
                                              "longRangeBudgetK": k}, table=words)
        assert main(["report", "--config", cfg]) == 0
        report = json.loads(capsys.readouterr().out)
        assert main(["export-gates", "--config", cfg, "--out", gates]) == 0
        assert main(["export-layout", "--config", cfg, "--out", layout]) == 0
        with open(gates, encoding="utf-8") as fh:
            lines = [line.split() for line in fh]
        with open(layout + "_links.csv", newline="", encoding="utf-8") as fh:
            links = list(csv.DictReader(fh))
        lengths = [int(t[-1][len("len="):]) for t in lines if t[-1].startswith("len=")]
        assert report["layout"]["longRangeLinks"] == len(lengths) == len(links), k
        assert (report["layout"]["maxLinkLength"] == max(lengths, default=0)
                == max((int(link["m"]) for link in links), default=0)), k
        kinds = {}
        for t in lines:
            kind = _LOCAL_KIND.get(t[4], t[4])
            kinds[kind] = kinds.get(kind, 0) + 1
        assert report["exactCounts"]["gateHistogram"] == kinds, k
        qubits = [int(q) for t in lines for q in t[5:] if q.isdigit()]
        assert max(qubits) < report["exactCounts"]["qubitCount"], k


def test_simulate_deterministic_bytes(tmp_path):
    cfg = _write_config(tmp_path)
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["simulate", "--config", cfg, "--trials", "200", "--seed", "3",
                 "--out", str(out1)]) == 0
    assert main(["simulate", "--config", cfg, "--trials", "200", "--seed", "3",
                 "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_commands_never_build_the_named_gate_view(tmp_path, monkeypatch, capsys):
    # the package reads Circuit.rows; wrapping every row as a Gate is left
    # to callers that ask for Circuit.gates
    built = []

    def counted(self, _build=Circuit.gates.func):
        built.append(self)
        return _build(self)

    view = functools.cached_property(counted)
    view.__set_name__(Circuit, "gates")
    monkeypatch.setattr(Circuit, "gates", view)
    cfg = _write_config(tmp_path, params={"N": 64, "lambda": 8, "gamma": 2})
    assert main(["report", "--config", cfg]) == 0
    assert main(["export-gates", "--config", cfg, "--out", str(tmp_path / "g.txt")]) == 0
    assert main(["simulate", "--config", cfg, "--trials", "20", "--seed", "3",
                 "--out", str(tmp_path / "s.json"), "--log", str(tmp_path / "t.jsonl")]) == 0
    capsys.readouterr()
    assert built == []


def test_export_gates_builds_no_gate_view_when_unplaced(tmp_path, monkeypatch, capsys):
    # the gate list is formatted from Circuit.rows: a multi-word circuit,
    # which is not placed, never pays for the numpy gate view
    built = []
    init = GateArrays.__init__

    def counted_init(self, circuit):
        built.append(circuit)
        init(self, circuit)

    monkeypatch.setattr(GateArrays, "__init__", counted_init)
    cfg = _write_config(tmp_path, params={"N": 64, "lambda": 8, "gamma": 2, "b": 2,
                                          "readout": "ParallelMultiBit"})
    out = tmp_path / "g.txt"
    assert main(["export-gates", "--config", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    assert out.read_text().count("\n") > 0
    assert built == []


def test_trial_log_jsonl(tmp_path, monkeypatch):
    # the log comes from the Monte Carlo pass itself: the 20 trials are
    # sampled once, from one block generator, and run as the lanes of one
    # engine pass
    calls = {"_block_rng": 0, "run_lanes": 0}
    for name in calls:
        real = getattr(simulator, name)

        def counted(*args, _name=name, _real=real, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(simulator, name, counted)
    # gate rates of 1e-2 give about one hit per trial
    cfg = _write_config(tmp_path, rates={"epsI": 1e-5, "epsQ": 1e-4, "epsS": 1e-2,
                                         "epsCS": 1e-2, "epsC": 1e-2, "epsCC": 1e-2,
                                         "epsF": 1e-3})
    log = tmp_path / "trials.jsonl"
    assert main(["simulate", "--config", cfg, "--trials", "20", "--seed", "3",
                 "--out", str(tmp_path / "r.json"), "--log", str(log)]) == 0
    assert calls == {"_block_rng": 1, "run_lanes": 1}
    lines = [json.loads(ln) for ln in log.read_text().strip().split("\n")]
    assert len(lines) == 20
    assert all({"trial", "address", "ok", "events"} <= set(ln) for ln in lines)
    assert any(ln["events"] for ln in lines)
    summary = json.loads((tmp_path / "r.json").read_text())
    assert summary["failures"] == sum(1 for ln in lines if not ln["ok"])


def test_trial_log_lines_equal_json_dumps_of_the_reference_stream(tmp_path):
    # two blocks of trials, ok and failed ones, events of every source: the
    # log's bytes are json.dumps(..., sort_keys=True) of the per-trial stream
    cfg = _write_config(tmp_path, rates={"epsI": 1e-2, "epsQ": 1e-2, "epsS": 1e-2,
                                         "epsCS": 1e-2, "epsC": 1e-2, "epsCC": 1e-2,
                                         "epsF": 1e-2})
    log = tmp_path / "trials.jsonl"
    trials, seed = simulator._BLOCK + 40, 5
    assert main(["simulate", "--config", cfg, "--trials", str(trials), "--seed", str(seed),
                 "--out", str(tmp_path / "r.json"), "--log", str(log)]) == 0
    inst = cli._build_instance(cfg)
    sites = scalar_reference.site_table(inst.circuit, inst.rates, inst.by_gate)
    stream = scalar_reference.trials(inst.circuit, sites, trials, seed)
    assert log.read_bytes() == scalar_reference.trial_log(stream).encode()
    assert {r.ok for _, r in stream} == {True, False}
    assert {e.rate_key for _, r in stream for e in r.events} == {
        "eps_s", "eps_cs", "eps_c", "eps_cc", "eps_l", "eps_i"}


@pytest.mark.parametrize("params", [
    {"N": 16, "lambda": 16, "gamma": 1},
    {"N": 16, "lambda": 4, "gamma": 2},
], ids=["bb16", "16_4_2"])
def test_report_monte_carlo_matches_simulate(tmp_path, capsys, params):
    cfg = _write_config(tmp_path, params=params, rates={"epsQ": 1e-3, "epsF": 1e-2})
    assert main(["report", "--config", cfg, "--trials", "2000", "--seed", "1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert main(["simulate", "--config", cfg, "--trials", "2000", "--seed", "1"]) == 0
    simulated = json.loads(capsys.readouterr().out)
    assert simulated["failures"] > 0
    assert report["monteCarlo"] == simulated


def test_report_monte_carlo_above_the_verdict_cap(tmp_path, capsys):
    # past N = 256 report drops only the exhaustive verdict: --trials still
    # runs the Monte Carlo simulate runs
    cfg = _write_config(tmp_path, params={"N": 512, "lambda": 16, "gamma": 4},
                        rates={"epsQ": 1e-3, "epsC": 1e-3, "epsF": 1e-2})
    assert main(["report", "--config", cfg, "--trials", "300", "--seed", "1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert main(["simulate", "--config", cfg, "--trials", "300", "--seed", "1"]) == 0
    simulated = json.loads(capsys.readouterr().out)
    assert "simulatedCorrect" not in report
    assert simulated["failures"] > 0
    assert report["monteCarlo"] == simulated


@pytest.mark.parametrize("argv", [
    ["simulate", "--seed", "-1"],
    ["report", "--trials", "5", "--seed", "-1"],
], ids=["simulate", "report"])
def test_negative_seed_exits_3(tmp_path, capsys, argv):
    cfg = _write_config(tmp_path)
    assert main(argv + ["--config", cfg]) == 3
    assert "seed" in capsys.readouterr().err


def test_long_range_budget_k_frees_low_level_links(tmp_path, capsys):
    # links on router levels below k are free: export-layout marks them and
    # simulate stops charging them
    runs = {}
    for k in (0, 2):
        cfg = _write_config(tmp_path, name=f"k{k}.json",
                            params={"N": 64, "lambda": 64, "gamma": 1, "longRangeBudgetK": k},
                            rates={"epsQ": 1e-3, "epsF": 1e-2})
        prefix = tmp_path / f"layout{k}"
        assert main(["export-layout", "--config", cfg, "--out", str(prefix)]) == 0
        rows = (tmp_path / f"layout{k}_links.csv").read_text().strip().split("\n")[1:]
        free = [r.split(",") for r in rows if r.endswith(",FreeBudget")]
        assert main(["simulate", "--config", cfg, "--trials", "3000", "--seed", "1"]) == 0
        runs[k] = (len(rows), free, json.loads(capsys.readouterr().out)["failures"])
    assert runs[0][0] == runs[2][0] == 100
    assert runs[0][1] == [] and runs[0][2] == 97
    assert len(runs[2][1]) == 44 and {r[3] for r in runs[2][1]} == {"0", "1"}
    assert runs[2][2] == 49


def test_distillation_depth_skips_free_links(tmp_path, capsys):
    # links inside the free budget need no distilled pair, so they add no
    # distillation steps to the schedule
    depth = {}
    for k in (0, 2):
        cfg = _write_config(tmp_path, name=f"k{k}.json",
                            params={"N": 64, "lambda": 64, "gamma": 1, "longRangeBudgetK": k},
                            rates={"epsQ": 1e-3, "epsF": 1e-2})
        assert main(["report", "--config", cfg, "--include-distillation-depth"]) == 0
        depth[k] = json.loads(capsys.readouterr().out)["layout"]["scheduleDepth"]
    assert depth == {0: 97, 2: 84}


def test_distillation_depth_report_equals_reference_walk(tmp_path, capsys):
    # the flag end to end on a tree with long-range links at every level:
    # scheduleDepth is the per-gate walk's depth, and the stretched links
    # make it deeper than the default depth
    cfg = _write_config(tmp_path, params={"N": 1024, "lambda": 64, "gamma": 8})
    depth = {}
    for flag in (False, True):
        argv = ["report", "--config", cfg] + ["--include-distillation-depth"] * flag
        assert main(argv) == 0
        depth[flag] = json.loads(capsys.readouterr().out)["layout"]["scheduleDepth"]
    inst = cli._build_instance(cfg)
    want = scalar_reference.build_schedule(inst.circuit, inst.by_gate, True).total_depth
    assert depth[True] == want > depth[False]


def test_sweep_outputs_and_roundtrip(tmp_path):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({
        "nRange": [16, 24, 32, 40, 48],
        "kRules": ["Zero", "FullDPrime"],
        "metric": "InfidelityExponent",
        "rates": {"epsI": 1e-3, "epsQ": 1e-3, "epsS": 1e-3, "epsCS": 1e-3,
                  "epsC": 1e-3, "epsCC": 1e-3},
    }))
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    csv_zero = (out / "sweep_InfidelityExponent_Zero.csv").read_text()
    table = parse_sweep_csv(csv_zero)
    spec = SweepSpec(k_rule="Zero")
    direct = sweep_exponent_table(spec)
    assert sweep_table_csv(direct) == csv_zero
    for key, val in direct["cells"].items():
        got = table["cells"][key]
        assert (got is None) == (val is None)
        if val is not None:
            assert got == val  # repr round-trip is exact


def test_sweep_invalid_cells_are_null():
    spec = SweepSpec(k_rule="Zero")
    table = sweep_exponent_table(spec)
    assert table["cells"][(1.0, 0.25)] is None  # d + d' > n
    assert table["cells"][(0.5, 0.5)] is not None


def test_full_dprime_lambda_n_cell_is_polylog():
    spec = SweepSpec(k_rule="FullDPrime")
    table = sweep_exponent_table(spec)
    assert table["cells"][(0.0, 1.0)] < 0.2


def test_parser_is_reused_across_calls(tmp_path, capsys):
    # main builds its parser once; a repeated argv list gives the same bytes
    # after other subcommands have run in between
    cfg = _write_config(tmp_path)
    calls = [["report", "--config", cfg, "--trials", "30", "--seed", "4"],
             ["simulate", "--config", cfg, "--trials", "30", "--seed", "4"],
             ["export-gates", "--config", cfg, "--out", str(tmp_path / "g.txt")],
             ["report", "--config", cfg, "--decomposition", "t4"]]
    first = []
    for argv in calls:
        assert main(argv) == 0
        first.append(capsys.readouterr())
    for argv, (out, err) in zip(reversed(calls), reversed(first)):
        assert main(argv) == 0
        assert capsys.readouterr() == (out, err)


@settings(derandomize=True, deadline=None, database=None, max_examples=30)
@given(shape=st.sampled_from(_small_shapes()),
       word=st.sampled_from([(1, "SingleBit"), (2, "ParallelMultiBit"),
                             (2, "SequentialMultiBit")]),
       k=st.integers(0, 2), trials=st.integers(1, 300), seed=st.integers(0, 2**31 - 1))
def test_report_monte_carlo_equals_simulate(tmp_path_factory, shape, word, k, trials, seed):
    # report --trials and simulate run one Monte Carlo on one instance
    N, lam, gamma = shape
    b, readout = word
    tmp = tmp_path_factory.mktemp("mc")
    cfg = _write_config(tmp, params={"N": N, "lambda": lam, "gamma": gamma, "b": b,
                                     "readout": readout,
                                     "longRangeBudgetK": min(k, lam.bit_length() - 1)},
                        rates={"epsI": 1e-3, "epsQ": 1e-3, "epsS": 2e-2, "epsCS": 2e-2,
                               "epsC": 2e-2, "epsCC": 2e-2, "epsF": 5e-3})
    report, simulate = tmp / "report.json", tmp / "simulate.json"
    assert main(["report", "--config", cfg, "--trials", str(trials), "--seed", str(seed),
                 "--out", str(report)]) == 0
    assert main(["simulate", "--config", cfg, "--trials", str(trials), "--seed", str(seed),
                 "--out", str(simulate)]) == 0
    assert json.loads(report.read_text())["monteCarlo"] == json.loads(simulate.read_text())


def _exit_path_argv(tmp_path, code: int) -> list[str]:
    """A `report` call that exits 0, 2 (missing config) or 3 (invalid params)."""
    if code == 2:
        return ["report", "--config", str(tmp_path / "nope.json")]
    params = {"N": 16, "lambda": 3 if code == 3 else 4, "gamma": 2}
    return ["report", "--config", _write_config(tmp_path, f"exit{code}.json", params=params)]


@pytest.mark.parametrize("caller_enabled", [True, False], ids=["gc-on", "gc-off"])
@pytest.mark.parametrize("code", [0, 2, 3, 4])
def test_main_pauses_and_restores_collector(tmp_path, capsys, monkeypatch, code, caller_enabled):
    # the handler runs with the collector off; main hands back the caller's setting
    seen = []
    real_report = cli.cmd_report

    def spy(args):
        seen.append(gc.isenabled())
        if code == 4:
            raise RuntimeError("handler failed")
        real_report(args)

    monkeypatch.setattr(cli, "cmd_report", spy)
    argv = _exit_path_argv(tmp_path, 0 if code == 4 else code)
    was_enabled = gc.isenabled()
    if not caller_enabled:
        gc.disable()
    try:
        assert main(argv) == code
        assert gc.isenabled() is caller_enabled
    finally:
        if was_enabled:
            gc.enable()
    assert seen == [False]
    if code == 4:
        assert "internal error: handler failed" in capsys.readouterr().err


# an N=1024 (32, 4) build emits some 5,400 gates, several automatic
# collections' worth of tracked tuples
_GC_SHAPE = {"N": 1024, "lambda": 32, "gamma": 4}


@pytest.mark.parametrize("command", ["report", "export-gates"])
def test_command_runs_no_automatic_collection(tmp_path, capsys, command):
    cfg = _write_config(tmp_path, params=_GC_SHAPE)
    argv = ["report", "--config", cfg] if command == "report" else \
        ["export-gates", "--config", cfg, "--out", str(tmp_path / "g.txt")]
    starts = []

    def hook(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    gc.callbacks.append(hook)
    try:
        assert main(argv) == 0
    finally:
        gc.callbacks.remove(hook)
    assert starts == []


@pytest.mark.parametrize("command", ["report", "export-gates", "export-layout",
                                     "simulate", "sweep"])
def test_command_leaves_little_cyclic_garbage(tmp_path, capsys, command):
    # with the collector paused, a per-gate reference cycle would pile up
    # unseen and show here as thousands of unreachable objects
    cfg = _write_config(tmp_path, params=_GC_SHAPE)
    out = str(tmp_path / "out")
    if command == "sweep":
        sweep = tmp_path / "sweep.json"
        sweep.write_text(json.dumps({"nRange": [4, 5, 6, 7, 8], "kRules": ["Zero"]}))
        argv = ["sweep", "--config", str(sweep), "--out", out]
    elif command == "report":
        argv = ["report", "--config", cfg, "--trials", "20", "--seed", "1"]
    elif command == "simulate":
        argv = ["simulate", "--config", cfg, "--trials", "20", "--seed", "1", "--log", out]
    else:
        argv = [command, "--config", cfg, "--out", out]
    gc.collect()
    assert main(argv) == 0
    assert gc.collect() < 1000


@pytest.mark.parametrize("code", [0, 2, 3])
def test_python_m_qlut_exit_codes(tmp_path, code):
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "qlut", *_exit_path_argv(tmp_path, code)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == code, proc.stderr
    if code == 0:
        assert json.loads(proc.stdout)["repetitions"] == 4
    else:
        assert proc.stderr.startswith({2: "config error", 3: "validation error"}[code])
