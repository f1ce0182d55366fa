import json
from pathlib import Path

import pytest

from qlut import simulator
from qlut.cli import main, parse_sweep_csv, sweep_table_csv, sweep_exponent_table, SweepSpec

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


def test_simulate_deterministic_bytes(tmp_path):
    cfg = _write_config(tmp_path)
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["simulate", "--config", cfg, "--trials", "200", "--seed", "3",
                 "--out", str(out1)]) == 0
    assert main(["simulate", "--config", cfg, "--trials", "200", "--seed", "3",
                 "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_trial_log_jsonl(tmp_path, monkeypatch):
    # the log comes from the Monte Carlo pass itself: each trial runs once
    runs = []
    real = simulator.inject_and_simulate

    def counted(*args, **kwargs):
        runs.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(simulator, "inject_and_simulate", counted)
    cfg = _write_config(tmp_path)
    log = tmp_path / "trials.jsonl"
    assert main(["simulate", "--config", cfg, "--trials", "20", "--seed", "3",
                 "--out", str(tmp_path / "r.json"), "--log", str(log)]) == 0
    assert len(runs) == 20
    lines = [json.loads(ln) for ln in log.read_text().strip().split("\n")]
    assert len(lines) == 20
    assert all({"trial", "address", "ok", "events"} <= set(ln) for ln in lines)
    summary = json.loads((tmp_path / "r.json").read_text())
    assert summary["failures"] == sum(1 for ln in lines if not ln["ok"])


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
    assert runs[0][1] == [] and runs[0][2] == 94
    assert len(runs[2][1]) == 44 and {r[3] for r in runs[2][1]} == {"0", "1"}
    assert runs[2][2] == 53


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
