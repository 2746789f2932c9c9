import json
import os

import pytest

from selfimprove.cli import main


def run_in(tmp_path, argv):
    cwd = os.getcwd()
    os.chdir(tmp_path)
    try:
        return main(argv)
    finally:
        os.chdir(cwd)


def read_rows(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def test_intervals_noiseless(tmp_path, capsys):
    assert run_in(tmp_path, ["intervals", "--a", "1", "--nu", "0"]) == 0
    rows = read_rows(tmp_path / "intervals.csv")
    base = next(r for r in rows if r["kind"] == "I")
    assert float(base["lo"]) == 0.0
    assert float(base["hi"]) == pytest.approx(0.98)
    assert base["valid"] == "true"
    assert (tmp_path / "manifest_intervals.json").exists()


def test_intervals_feasibility_matches_library(tmp_path):
    from selfimprove import TheoryParams, derive_constants, feasibility_interval
    assert run_in(tmp_path, ["intervals", "--beta", "0.4", "--beta-lo", "0.1",
                             "--nu", "0.02"]) == 0
    rows = read_rows(tmp_path / "intervals.csv")
    feas = next(r for r in rows if r["kind"] == "I_M")
    p = TheoryParams(beta_lo=0.1, beta_hi=0.4)
    expected = feasibility_interval(p, derive_constants(p, nu=0.02))
    assert float(feas["lo"]) == pytest.approx(expected.lo, rel=1e-12)
    assert float(feas["hi"]) == pytest.approx(expected.hi, rel=1e-12)


def test_malformed_flag_exits_2_without_files(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_in(tmp_path, ["intervals", "--bogus-flag", "1"])
    assert exc.value.code == 2
    assert not list(tmp_path.glob("*.csv"))


def test_thresholds_x0_zero_exits_2(tmp_path):
    assert run_in(tmp_path, ["thresholds", "--x0", "0"]) == 2
    assert not list(tmp_path.glob("*.csv"))


def test_thresholds_scalars(tmp_path):
    assert run_in(tmp_path, ["thresholds", "--nu-c", "--nu-t", "--x0", "0.49"]) == 0
    rows = read_rows(tmp_path / "thresholds.csv")
    names = {r["name"] for r in rows}
    assert names == {"nu_c", "nu_T", "nu_star"}
    values = {r["name"]: float(r["value"]) for r in rows}
    assert 0 < values["nu_star"] < values["nu_T"]


def test_thresholds_profile_unimodal(tmp_path):
    assert run_in(tmp_path, ["thresholds", "--profile", "--delta-gap", "0.1",
                             "--beta-grid", "0.05:6:25"]) == 0
    rows = read_rows(tmp_path / "profile.csv")
    assert len(rows) == 25
    assert sum(r["is_argmax"] == "true" for r in rows) == 1
    values = [float(r["nu_star"]) for r in rows]
    peaks = [i for i in range(1, len(values) - 1)
             if values[i] > values[i - 1] and values[i] > values[i + 1]]
    assert len(peaks) == 1


def test_threshold_curve_export(tmp_path):
    assert run_in(tmp_path, ["thresholds", "--curve", "8"]) == 0
    rows = read_rows(tmp_path / "threshold_curve.csv")
    assert len(rows) == 8
    assert all(r["domain_flag"] == "true" for r in rows[:-1])
    xs = [float(r["x_threshold"]) for r in rows if r["domain_flag"] == "true"]
    assert all(b > a for a, b in zip(xs, xs[1:]))


def test_regions_row(tmp_path):
    assert run_in(tmp_path, ["regions", "--x0", "0.5", "--nu", "0.01"]) == 0
    rows = read_rows(tmp_path / "regions.csv")
    assert rows[0]["improving"] == "true"
    assert float(rows[0]["improvement_margin"]) < 0.0


def test_scan_panel_deterministic(tmp_path):
    first = tmp_path / "r1"
    second = tmp_path / "r2"
    assert main(["scan", "--panel", "a", "--x0-points", "400",
                 "--out", str(first)]) == 0
    assert main(["scan", "--panel", "a", "--x0-points", "400",
                 "--out", str(second), "--threads", "3"]) == 0
    assert (first / "panel_a.csv").read_bytes() == (second / "panel_a.csv").read_bytes()


def test_simulate_deterministic(tmp_path):
    args = ["simulate", "--seed", "7", "--rounds", "5", "--questions", "1500",
            "--replications", "2"]
    assert main(args + ["--out", str(tmp_path / "s1")]) == 0
    assert main(args + ["--out", str(tmp_path / "s2")]) == 0
    a = (tmp_path / "s1" / "simulation.csv").read_bytes()
    b = (tmp_path / "s2" / "simulation.csv").read_bytes()
    assert a == b


def test_manifest_lists_outputs_and_resolved_params(tmp_path):
    assert run_in(tmp_path, ["simulate", "--seed", "3", "--rounds", "1",
                             "--questions", "500"]) == 0
    manifest = json.loads((tmp_path / "manifest_simulate.json").read_text())
    assert manifest["subcommand"] == "simulate"
    assert manifest["seed"] == 3
    assert manifest["parameters"]["n"] == 2000
    assert any(path.endswith("simulation.csv") for path in manifest["outputs"])
    assert manifest["version"]


def test_config_precedence_flags_over_file(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"beta_lo": 0.2, "beta_hi": 0.5}))
    assert run_in(tmp_path, ["regions", "--config", str(config), "--beta", "0.9",
                             "--x0", "0.5", "--nu", "0.005"]) == 0
    rows = read_rows(tmp_path / "regions.csv")
    assert float(rows[0]["beta_lo"]) == 0.2   # from config
    assert float(rows[0]["beta_hi"]) == 0.9   # flag wins


def test_config_unknown_key_exits_2(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"mystery": 1}))
    assert run_in(tmp_path, ["regions", "--config", str(config), "--x0", "0.5"]) == 2


def test_verify_fast_passes(tmp_path, capsys):
    assert run_in(tmp_path, ["verify", "--fast"]) == 0
    out = capsys.readouterr().out
    assert "all" in out and "properties hold" in out
    assert "FAIL" not in out


@pytest.mark.parametrize("config, argv", [
    (None, ["regions", "--x0", "0.5", "--config", "missing.json"]),
    ("{not json", ["regions", "--x0", "0.5", "--config", "config.json"]),
    ('{"c": "0.5"}', ["regions", "--x0", "0.5", "--config", "config.json"]),
    ('{"n": true}', ["regions", "--x0", "0.5", "--config", "config.json"]),
    (None, ["simulate", "--seed", "-1", "--questions", "500", "--rounds", "1"]),
    (None, ["scan", "--panel", "a", "--x0-points", "100", "--threads", "0"]),
    (None, ["intervals", "--nu", "nan"]),
    (None, ["intervals", "--nu", "inf"]),
    ('{"nu": Infinity}', ["intervals", "--config", "config.json"]),
    (None, ["regions", "--x0", "nan"]),
    (None, ["regions", "--x0", "5", "--nu", "0.01"]),
    (None, ["intervals", "--a", "nan"]),
    (None, ["intervals", "--a", "inf"]),
    ('{"beta_hi": 1e308}', ["intervals", "--config", "config.json"]),
    ('{"beta_hi": Infinity}', ["intervals", "--config", "config.json"]),
    (None, ["thresholds", "--nu-c", "--curve", "-1"]),
    (None, ["thresholds", "--nu-c", "--profile", "--beta-grid", "0.01:12:0"]),
    (None, ["thresholds", "--profile", "--beta-grid", "0.5:12:1"]),
    (None, ["thresholds", "--nu-c", "--profile", "--beta-grid", "a:b"]),
    (None, ["verify", "--fast", "--beta", "5"]),
    (None, ["verify", "--fast", "--beta-lo", "0.2"]),
    (None, ["verify", "--fast", "--nu", "0.3"]),
    ("{}", ["verify", "--fast", "--config", "config.json"]),
    (None, ["scan", "--panel", "a", "--x0-points", "100", "--nu", "0.3"]),
    ('{"nu": 0.3}', ["scan", "--panel", "a", "--x0-points", "100", "--config", "config.json"]),
    (None, ["scan", "--panel", "a", "--x0-points", "1000001"]),
    (None, ["thresholds", "--nu-c", "--nu", "0.3"]),
    ('{"nu": 0.3}', ["thresholds", "--nu-c", "--config", "config.json"]),
    (None, ["simulate", "--questions", "500", "--rounds", "1", "--nu", "0.3"]),
    (None, ["simulate", "--questions", "500", "--rounds", "1", "--beta", "0.5"]),
    (None, ["simulate", "--questions", "500", "--rounds", "1", "--beta-lo", "0.05"]),
    ('{"nu": 0.3}', ["simulate", "--questions", "500", "--rounds", "1", "--config", "config.json"]),
    (None, ["regions", "--x0", "0.5", "--beta", "60"]),
], ids=["missing-config", "malformed-json", "string-value", "bool-integer",
        "negative-seed", "zero-threads", "nan-nu", "inf-nu", "config-inf-nu",
        "nan-x0", "x0-above-ceiling", "nan-a", "inf-a", "huge-beta-hi",
        "config-inf-beta-hi", "negative-curve", "empty-grid", "one-point-grid",
        "bad-grid-after-csv", "verify-beta", "verify-beta-lo", "verify-nu",
        "verify-config", "scan-nu", "scan-config-nu", "scan-x0-points-above-bound",
        "thresholds-nu", "thresholds-config-nu", "simulate-nu", "simulate-beta",
        "simulate-beta-lo", "simulate-config-nu", "regions-domain-error"])
def test_parameter_faults_exit_2_with_one_line_error(tmp_path, capsys, config, argv):
    if config is not None:
        (tmp_path / "config.json").write_text(config)
    assert run_in(tmp_path, argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert [f.name for f in tmp_path.iterdir()] == ([] if config is None else ["config.json"])
