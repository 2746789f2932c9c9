import argparse
import contextlib
import csv
import io
import json
import math
import os
import re
import tempfile
import tracemalloc
from dataclasses import fields
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from selfimprove import (BoundProblem, ParameterError, TheoryParams, build_world, checks,
                         critical_budgets, curriculum_coefficients, run_replications)
from selfimprove.cli import (COMMON_OPTIONS, SUBCOMMANDS, _fmt, _resolve_params,
                             _write_outputs, build_parser, main)
from selfimprove.regions import improvement_margin


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
    from selfimprove import TheoryParams, feasibility_interval
    assert run_in(tmp_path, ["intervals", "--beta", "0.4", "--beta-lo", "0.1",
                             "--nu", "0.02"]) == 0
    rows = read_rows(tmp_path / "intervals.csv")
    feas = next(r for r in rows if r["kind"] == "I_M")
    p = TheoryParams(beta_lo=0.1, beta_hi=0.4)
    expected = feasibility_interval(p, 0.02)
    assert float(feas["lo"]) == pytest.approx(expected.lo, rel=1e-12)
    assert float(feas["hi"]) == pytest.approx(expected.hi, rel=1e-12)


def test_intervals_overflowing_scale_is_an_invalid_row(tmp_path, capsys):
    # a*c_delta*nu overflows; sigma is far beyond the fold either way.
    assert run_in(tmp_path, ["intervals", "--a", "1e200", "--nu", "1e150"]) == 0
    rows = read_rows(tmp_path / "intervals.csv")
    base = next(r for r in rows if r["kind"] == "I")
    assert (base["lo"], base["hi"], base["valid"]) == ("nan", "nan", "false")
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("a", ["1e250", "1e308"])
def test_intervals_huge_scale_is_a_valid_row(tmp_path, a):
    # inner^(3/2) overflows, but sigma is tiny and the interval near (0, 1-gamma).
    assert run_in(tmp_path, ["intervals", "--a", a, "--nu", "0.01"]) == 0
    base = next(r for r in read_rows(tmp_path / "intervals.csv") if r["kind"] == "I")
    assert base["valid"] == "true"
    assert 0.0 < float(base["lo"]) < 1e-250 and base["hi"] == "0.98"


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
                 "--out", str(second)]) == 0
    assert (first / "panel_a.csv").read_bytes() == (second / "panel_a.csv").read_bytes()


def test_simulate_deterministic(tmp_path):
    args = ["simulate", "--seed", "7", "--rounds", "5", "--questions", "1500",
            "--replications", "2"]
    assert main(args + ["--out", str(tmp_path / "s1")]) == 0
    assert main(args + ["--out", str(tmp_path / "s2")]) == 0
    a = (tmp_path / "s1" / "simulation.csv").read_bytes()
    b = (tmp_path / "s2" / "simulation.csv").read_bytes()
    assert a == b


@pytest.mark.parametrize("replications, config", [
    (1, None),
    (3, None),
    (3, {"n": 3, "m": 1}),  # three draws at m = 1: some rounds accept none
], ids=["one", "three", "collapsing"])
def test_simulate_writes_the_records_of_the_library_run(tmp_path, replications, config):
    """Each row of ``simulate --seed s``'s CSV is the record of
    ``run_replications`` at seed s on ``build_world``'s world at seed s."""
    seed, questions, rounds = 7, 1500, 4
    argv = ["simulate", "--seed", str(seed), "--questions", str(questions),
            "--rounds", str(rounds), "--replications", str(replications), "--out", "out"]
    p = TheoryParams()
    if config is not None:
        (tmp_path / "config.json").write_text(json.dumps(config))
        argv += ["--config", "config.json"]
        p = TheoryParams(**config)
    assert run_in(tmp_path, argv) == 0
    records = run_replications(build_world(questions, 0.5, p, seed=seed), p, rounds,
                               replications, seed)
    rows = read_rows(tmp_path / "out" / "simulation.csv")
    assert len(rows) == len(records) == replications * rounds
    for row, r in zip(rows, records):
        assert list(row.values()) == [
            str(r.replication), str(r.round_index), str(r.n_accept), repr(r.z_m),
            repr(r.alpha_m_min), repr(r.v_realized), repr(r.bound),
            "skipped" if r.collapsed else repr(r.bound_satisfied).lower()]
    assert any(r.collapsed for r in records) == (config is not None)


@pytest.mark.parametrize("flag, error", [("--rounds", "rounds must be >= 1"),
                                         ("--replications", "replications must be >= 1")])
def test_a_run_fault_is_rejected_before_the_world_is_built(flag, error):
    """The run's rules hold before ``build_world`` allocates: at the largest
    world, a run of no rounds or no replications raises in-process having
    traced under 1 MB, where building the world first took 275 MB."""
    argv = ["simulate", "--questions", "10000000", flag, "0"]
    args = build_parser(argv).parse_args(argv)
    params, _, nu = _resolve_params(args)
    tracemalloc.start()
    try:
        with pytest.raises(ParameterError) as raised:
            SUBCOMMANDS["simulate"].run(args, params, nu)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(raised.value) == error
    assert peak < 2**20


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
    config.write_text(json.dumps({"beta_lo": 0.2, "beta_hi": 0.5, "n": 100}))
    assert run_in(tmp_path, ["regions", "--config", str(config), "--beta", "0.9",
                             "--x0", "0.5", "--nu", "0.005"]) == 0
    rows = read_rows(tmp_path / "regions.csv")
    assert float(rows[0]["beta_lo"]) == 0.2   # from config
    assert float(rows[0]["beta_hi"]) == 0.9   # flag wins
    assert float(rows[0]["nu"]) == 0.005      # the --nu flag goes over the config's n


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
    (None, ["scan", "--panel", "a", "--x0-points", "100", "--threads", "2"]),
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
    (None, ["thresholds", "--profile", "--beta-grid", "1:1:5"]),
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
    (None, ["thresholds", "--nu-c", "--profile", "--delta-gap", "-1"]),
    (None, ["thresholds", "--nu-c", "--profile", "--delta-gap", "nan"]),
    (None, ["thresholds", "--profile", "--delta-gap", "inf"]),
    # At beta_lo = 1e-17 the final coefficient rounds to 1, so the margin is
    # exactly 0 at nu = 0 and positive after: no sign change exists.
    (None, ["thresholds", "--nu-c", "--x0", "0.49", "--profile", "--beta-grid", "1e-17:1:5"]),
    ('{"beta_lo": 0.2, "beta_hi": 0.9}',
     ["simulate", "--questions", "500", "--rounds", "1", "--config", "config.json"]),
    (None, ["intervals", "--nu", "-0.1"]),
    ('{"nu": -0.1}', ["intervals", "--config", "config.json"]),
    (None, ["thresholds", "--curve", "1000001"]),
    (None, ["thresholds", "--profile", "--beta-grid", "0.01:12:1000001"]),
    (None, ["simulate", "--questions", "100000000000", "--rounds", "1"]),
    (None, ["thresholds", "--x0", "0.49", "--beta-lo", "1e-17"]),
    (None, ["scan", "--panel", "a", "--x0-points", "1"]),
    (None, ["simulate", "--questions", "500", "--rounds", "1", "--v-target", "0.99"]),
    ('{"L": 1001}', ["intervals", "--config", "config.json"]),
    ('{"n": 10000001}',
     ["simulate", "--questions", "500", "--rounds", "1", "--config", "config.json"]),
    (None, ["intervals", "--seed", "5"]),
    (None, ["scan", "--panel", "a", "--x0-points", "100", "--seed", "1"]),
    (None, ["verify", "--fast", "--seed", "1"]),
    ('{"n": 100, "nu": 0.25}', ["intervals", "--config", "config.json"]),
    # Usage errors, which argparse finds: each is one error line too.
    (None, ["intervals", "--bogus-flag", "1"]),
    (None, ["regions"]),
    (None, ["simulate", "--seed=0.5"]),
    (None, ["bogus"]),
    (None, ["scan", "--panel", "a", "--threads", "1"]),
    # A flag's prefix is not the flag: each is an unrecognized argument.
    (None, ["scan", "--x0", "40"]),
    (None, ["simulate", "--q", "100", "--s", "3"]),
], ids=["missing-config", "malformed-json", "string-value", "bool-integer",
        "negative-seed", "zero-threads", "threads-above-one", "nan-nu", "inf-nu",
        "config-inf-nu", "nan-x0", "x0-above-ceiling", "nan-a", "inf-a", "huge-beta-hi",
        "config-inf-beta-hi", "negative-curve", "empty-grid", "one-point-grid", "constant-grid",
        "bad-grid-after-csv", "verify-beta", "verify-beta-lo", "verify-nu",
        "verify-config", "scan-nu", "scan-config-nu", "scan-x0-points-above-bound",
        "thresholds-nu", "thresholds-config-nu", "simulate-nu", "simulate-beta",
        "simulate-beta-lo", "simulate-config-nu", "regions-domain-error",
        "negative-delta-gap-after-csv", "nan-delta-gap-after-csv", "inf-delta-gap",
        "profile-bracket-error-after-csv", "simulate-config-betas", "negative-nu",
        "config-negative-nu", "curve-above-bound", "beta-grid-above-bound",
        "questions-above-bound", "thresholds-bracket-error", "scan-one-x0-point",
        "simulate-infeasible-target", "config-levels-above-bound",
        "simulate-samples-above-bound", "intervals-seed", "scan-seed", "verify-seed",
        "config-n-and-nu", "unknown-flag", "regions-without-x0", "non-integer-seed",
        "unknown-command", "threads-one", "scan-x0-prefix",
        "simulate-prefixes"])
def test_parameter_faults_exit_2_with_one_line_error(tmp_path, capsys, config, argv):
    if config is not None:
        (tmp_path / "config.json").write_text(config)
    assert run_in(tmp_path, [*argv, "--out", "new"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "new").exists()
    assert [f.name for f in tmp_path.iterdir()] == ([] if config is None else ["config.json"])


# A value for each common option a subcommand may not read; regions needs --x0.
UNREAD_VALUES = {"config": "config.json", "seed": "1", "beta_lo": "0.3", "beta_hi": "0.3",
                 "nu": "0.3"}
REQUIRED = {"regions": ["--x0", "0.5"]}
# From the command table: each flag, then each config key (where the command
# takes a config), of a common option the command does not read; then the
# rules on values of the other flags.  argparse rejects an unread flag, since
# the command's parser does not register it.
FLAG_RULE_FAULTS = {
    **{f"{name}-{dest}": ("{}", [name, *REQUIRED.get(name, []), COMMON_OPTIONS[dest][0],
                                 UNREAD_VALUES[dest]],
                          f"unrecognized arguments: {COMMON_OPTIONS[dest][0]} "
                          f"{UNREAD_VALUES[dest]}")
       for name, row in SUBCOMMANDS.items() for dest in UNREAD_VALUES if dest not in row.reads},
    **{f"{name}-config-{key}": (json.dumps({key: 0.3}),
                                [name, *REQUIRED.get(name, []), "--config", "config.json"],
                                f'{name} does not use a config "{key}"')
       for name, row in SUBCOMMANDS.items() if "config" in row.reads
       for key in ("beta_lo", "beta_hi", "nu") if key not in row.reads},
    "negative-seed": ("{}", ["simulate", "--seed", "-1"], "--seed must be a non-negative integer"),
    "threads-2": ("{}", ["scan", "--threads", "2"], "unrecognized arguments: --threads 2"),
    "infinite-a": ("{}", ["intervals", "--a", "inf"], "--a must be finite, got inf"),
    "zero-curve": ("{}", ["thresholds", "--curve", "0"], "--curve must lie in [1, 10^6]"),
}


@pytest.mark.parametrize("fault", FLAG_RULE_FAULTS)
def test_each_flag_rule_exits_2_with_its_message(tmp_path, capsys, fault):
    config, argv, error = FLAG_RULE_FAULTS[fault]
    (tmp_path / "config.json").write_text(config)
    assert run_in(tmp_path, [*argv, "--out", "new"]) == 2
    assert capsys.readouterr().err == f"error: {error}\n"
    assert not (tmp_path / "new").exists()


@pytest.mark.parametrize("name", SUBCOMMANDS)
def test_help_lists_out_the_options_read_and_own_flags(capsys, name):
    with pytest.raises(SystemExit) as exc:
        main([name, "--help"])
    assert exc.value.code == 0
    listed = re.findall(r"^  (?:-h, )?(--[a-z0-9-]+)", capsys.readouterr().out, re.MULTILINE)
    row = SUBCOMMANDS[name]
    assert sorted(listed) == sorted(["--help", "--out", *(flag for flag, _ in row.flags),
                                     *(COMMON_OPTIONS[dest][0] for dest in row.reads)])


# The flag sets of ``thresholds`` that choose which budgets one solve holds,
# the last one the budget_sweep benchmark's argv.
THRESHOLD_FLAGS = {
    "nu-c": ["--nu-c"], "nu-t": ["--nu-t"], "x0": ["--x0", "0.49"], "curve": ["--curve", "5"],
    "profile": ["--profile"],
    "budget-sweep": ["--nu-c", "--nu-t", "--x0", "0.49", "--curve", "200", "--profile",
                     "--beta-grid", "0.01:12:121"],
}
COLLAPSE = "error: negative large-initialization improvement margin fails already at nu = 0"
NO_STAR = "error: negative improvement margin at x0=0.49 fails already at nu = 0"
BAD_X0 = "error: x0 must lie strictly between 0 and 1 - gamma"
BAD_GAP = "error: delta_gap must be positive, got -1.0"
FLAT_TAIL = "error: beta_grid needs two distinct values in its last 30% (tail slope)"
# One fault each, and the error line per flag set ("": the flags do not
# read what the fault touches, and the run succeeds).  At beta_lo = 1e-17
# the final coefficient rounds to 1, so the margin has no sign change, but
# the half-error budget, a root of the baseline term alone, exists.
THRESHOLD_FAULTS = {
    "beta-lo-1e-17": (["--beta-lo", "1e-17"],
                      {"nu-c": COLLAPSE, "nu-t": "", "x0": NO_STAR, "curve": COLLAPSE,
                       "profile": "", "budget-sweep": COLLAPSE}),
    "zero-x0": (["--x0", "0.0"], dict.fromkeys(THRESHOLD_FLAGS, BAD_X0)),
    "negative-delta-gap": (["--delta-gap", "-1"], {**dict.fromkeys(THRESHOLD_FLAGS, ""),
                                                   "profile": BAD_GAP, "budget-sweep": BAD_GAP}),
    "constant-grid-tail": (["--beta-grid", "1:1:5"],
                           {**dict.fromkeys(THRESHOLD_FLAGS, ""),
                            "profile": FLAT_TAIL, "budget-sweep": FLAT_TAIL}),
}


@pytest.mark.parametrize("fault", THRESHOLD_FAULTS)
@pytest.mark.parametrize("flags", THRESHOLD_FLAGS)
def test_thresholds_fault_prints_the_error_line_of_its_flags(tmp_path, capsys, flags, fault):
    extra, errors = THRESHOLD_FAULTS[fault]
    code = run_in(tmp_path, ["thresholds", *THRESHOLD_FLAGS[flags], *extra, "--out", "new"])
    assert (code, capsys.readouterr().err) == ((2, errors[flags] + "\n") if errors[flags]
                                               else (0, ""))
    assert (tmp_path / "new").exists() == (code == 0)


@pytest.mark.parametrize("argv, error", [
    (["--beta-grid", "0:1:5"], "beta_lo must be positive"),
    (["--beta-grid", "0.01:500:3"], "beta_hi too large: L^(-beta_hi) underflows to zero"),
    (["--delta-gap", "0"], "delta_gap must be positive, got 0.0"),
], ids=["zero-beta-lo", "underflowing-beta-hi", "zero-delta-gap"])
def test_profile_beta_faults_exit_2_with_the_error_line_of_theory_params(tmp_path, capsys,
                                                                         argv, error):
    """The profile's beta pairs are checked as arrays, by the rules and
    messages of ``TheoryParams``, before any output is written."""
    assert run_in(tmp_path, ["thresholds", "--profile", *argv, "--out", "new"]) == 2
    assert capsys.readouterr().err == f"error: {error}\n"
    assert not (tmp_path / "new").exists()


@pytest.mark.parametrize("argv, error", [
    (["thresholds", "--profile", "--beta-grid", "0.01:inf:5"],
     "grid spec '0.01:inf:5' needs finite ends a finite distance apart"),
    (["thresholds", "--profile", "--beta-grid", "nan:1:5"],
     "grid spec 'nan:1:5' needs finite ends a finite distance apart"),
    (["thresholds", "--profile", "--beta-grid=1e308:-1e308:5"],
     "grid spec '1e308:-1e308:5' needs finite ends a finite distance apart"),
    (["scan", "--panel", "d", "--beta", "0.01", "--beta-lo", "0.005"],
     "panel d sweeps beta_lo over an empty axis, from 0.02 to -0.01: raise --beta"),
    (["scan", "--panel", "a", "--beta-lo", "0.72", "--beta", "0.9"],
     "panel a sweeps beta_hi over an empty axis, from 0.77 to 0.75: lower --beta-lo"),
], ids=["infinite-grid-stop", "nan-grid-start", "overflowing-grid-span", "scan-d-empty-axis",
        "scan-a-empty-axis"])
def test_grid_and_axis_faults_exit_2_naming_the_option_at_fault(tmp_path, capsys, argv, error):
    """A grid whose ends or span are not finite is rejected before
    ``linspace`` runs, and an empty scan axis names the flag that bounds it."""
    assert run_in(tmp_path, [*argv, "--out", "new"]) == 2
    assert capsys.readouterr().err == f"error: {error}\n"
    assert not (tmp_path / "new").exists()


@pytest.mark.parametrize("argv", [
    ["--panel", "a", "--beta", "0.03", "--beta-lo", "0.005"],
    ["--panel", "b", "--beta-lo", "0.72", "--beta", "0.9"],
], ids=["a-under-an-empty-b-axis", "b-under-an-empty-a-axis"])
def test_a_panel_is_not_blocked_by_the_axis_of_a_panel_not_asked_for(tmp_path, argv):
    assert run_in(tmp_path, ["scan", *argv]) == 0
    assert sorted(f.name for f in tmp_path.iterdir()) == ["manifest_scan.json",
                                                          f"panel_{argv[1]}.csv"]


def test_half_error_budget_is_written_where_the_margin_has_no_sign_change(tmp_path):
    assert run_in(tmp_path, ["thresholds", "--nu-t", "--beta-lo", "1e-17"]) == 0
    (row,) = read_rows(tmp_path / "thresholds.csv")
    assert row["name"] == "nu_T"
    nu_t = critical_budgets(TheoryParams(beta_lo=1e-17), nu_t=True)["nu_t"]
    assert float(row["value"]) == nu_t > 0.0


def test_out_naming_a_file_exits_2_before_computing(tmp_path, capsys):
    (tmp_path / "afile").write_text("kept\n")
    assert run_in(tmp_path, ["intervals", "--out", "afile"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: --out")
    assert (tmp_path / "afile").read_text() == "kept\n"
    assert [f.name for f in tmp_path.iterdir()] == ["afile"]


def test_tiny_budget_threshold_follows_the_zero_budget_slope(tmp_path):
    assert run_in(tmp_path, ["intervals", "--nu", "1e-20"]) == 0
    row = next(r for r in read_rows(tmp_path / "intervals.csv") if r["kind"] == "I_N")
    p = TheoryParams()
    slope = p.c_delta_prime / curriculum_coefficients(p).first
    assert float(row["lo"]) == pytest.approx(slope * 1e-20, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("argv, row", [
    ([], "I_N,0.4,0.022360679774997897,2.500331968767485,0.98,false"),
    (["--nu", "0.05"], "I_N,0.4,0.05,nan,nan,false"),
], ids=["default-nu-threshold-above-ceiling", "beyond-nu-c"])
def test_improvement_row_past_the_ceiling_or_the_collapse_is_invalid(tmp_path, argv, row):
    # The default budget's threshold lies above 1 - gamma; nu = 0.05 is beyond
    # nu_c = 0.0233, where no initialization improves.
    assert run_in(tmp_path, ["intervals", *argv]) == 0
    assert (tmp_path / "intervals.csv").read_text().splitlines()[-1] == row


@pytest.mark.parametrize("argv, x0, near", [
    (["--x0", "0.49", "--beta", "40"], 0.49, 1.01e-15),
    (["--nu-c", "--beta-lo", "1e-13"], math.inf, 4.3e-14),
    (["--nu-c", "--beta", "12"], math.inf, 1.289e-5),
], ids=["nu-star-beta-40", "nu-c-beta-lo-1e-13", "nu-c-beta-12"])
def test_thresholds_root_is_a_sign_change_at_adjacent_floats(tmp_path, argv, x0, near):
    assert run_in(tmp_path, ["thresholds", *argv]) == 0
    (row,) = read_rows(tmp_path / "thresholds.csv")
    root = float(row["value"])
    assert root == pytest.approx(near, rel=1e-3)
    problem = BoundProblem(TheoryParams(beta_lo=float(row["beta_lo"]),
                                        beta_hi=float(row["beta_hi"])))
    assert improvement_margin(problem, root, x0) < 0.0
    assert not improvement_margin(problem, math.nextafter(root, math.inf), x0) < 0.0


def test_failing_verify_exits_1_and_still_writes_its_manifest(tmp_path, capsys,
                                                              monkeypatch):
    from selfimprove import checks

    monkeypatch.setattr(checks, "run_checks",
                        lambda fast: [checks.CheckResult("broken", False, "detail")])
    assert run_in(tmp_path, ["verify", "--fast", "--out", "new"]) == 1
    assert capsys.readouterr().err == "first failing property: broken\n"
    manifest = json.loads((tmp_path / "new" / "manifest_verify.json").read_text())
    assert manifest["outputs"] == []


def test_unexpected_exception_exits_3_with_one_line_error(tmp_path, capsys, monkeypatch):
    from selfimprove import regions

    def fault(*args):
        raise ZeroDivisionError("float division by zero\nsecond line")

    monkeypatch.setattr(regions, "feasibility_interval", fault)
    assert run_in(tmp_path, ["intervals", "--a", "1"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "ZeroDivisionError" in err
    assert err.count("\n") == 1


def test_panel_csv_layout(tmp_path):
    from selfimprove import TheoryParams, default_panels
    assert run_in(tmp_path, ["scan", "--panel", "a", "--x0-points", "600"]) == 0
    cfg = default_panels(TheoryParams())["a"]
    lines = (tmp_path / "panel_a.csv").read_text().splitlines()
    assert lines[0] == "axis1,axis2,measured_len,analytic_len,agree"
    assert len(lines) == 1 + len(cfg.vary_values) * len(cfg.nu_values)
    first = lines[1].split(",")
    assert float(first[0]) == cfg.vary_values[0]
    assert first[4] in ("true", "false")


def test_simulation_csv(tmp_path):
    (tmp_path / "config.json").write_text(json.dumps({"n": 200}))
    assert run_in(tmp_path, ["simulate", "--config", "config.json", "--questions", "300",
                             "--rounds", "2", "--replications", "2", "--seed", "3"]) == 0
    lines = (tmp_path / "simulation.csv").read_text().splitlines()
    assert lines[0] == ("replication,round,n_accept,Z_m,alpha_m_min,"
                        "V_realized,bound,bound_satisfied")
    assert len(lines) == 5
    assert lines[1].split(",")[0] == "0"


def test_written_fields_follow_the_fmt_rule(tmp_path):
    """Exact floats go to csv unformatted: it writes a float as its repr,
    which is ``_fmt``'s rule, so every field's bytes are ``_fmt``'s."""
    floats = [0.1, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1e16,
              np.float64(0.1), np.float32(0.5), np.float64(-0.0)]
    others = [0, -3, 10**20, True, False, np.True_, np.False_, "", "skipped"]
    rows = [floats, others, [*others, *floats][::-1], ["", 0.1], [0.1, ""], [""], [True, 1e16]]
    args = argparse.Namespace(command="thresholds", out=str(tmp_path), seed=0, config=None)
    _write_outputs(args, TheoryParams(), None, [("mixed.csv", ["a", "b"], rows)], 0.0)
    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerows([["a", "b"], *([_fmt(v) for v in row] for row in rows)])
    written = (tmp_path / "mixed.csv").read_bytes().decode("utf-8")
    assert written == expected.getvalue()
    assert written.splitlines()[1] == "0.1,-0.0,nan,inf,-inf,5e-324,1e+16,0.1,0.5,-0.0"
    assert written.splitlines()[2] == "0,-3,100000000000000000000,true,false,true,false,,skipped"


def _parse(parser, argv):
    """A parse's Namespace as its repr (NaN included), its usage error's
    message, or its exit code with what it printed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return repr(parser.parse_args(argv))
        except ParameterError as exc:
            return f"error: {exc}"
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()


FULL_PARSER = build_parser()
HAND_ARGVS = [[], ["-h"], ["--version"], ["bogus"], ["--bogus", "scan"], ["bogus", "scan"],
              ["-1", "scan"], ["--", "scan"],
              ["scan", "--panel", "verify"], ["regions"], ["scan", "--threads", "1"],
              *([name, "-h"] for name in SUBCOMMANDS)]


@pytest.mark.parametrize("argv", HAND_ARGVS, ids=" ".join)
def test_parser_of_the_named_subcommands_parses_as_the_full_one(argv):
    """``build_parser(argv)`` registers only the flags of the subcommands
    ``argv`` names, and gives the same Namespace, or the same exit with the
    same output, as the parser of every flag."""
    assert _parse(build_parser(argv), argv) == _parse(FULL_PARSER, argv)


def _subparsers(argv):
    """``build_parser(argv)``'s subparsers by name."""
    (action,) = (a for a in build_parser(argv)._actions
                 if isinstance(a, argparse._SubParsersAction))
    return action.choices


def test_parser_registers_flags_only_for_the_named_subcommands():
    """A subcommand first: its parser alone, with its flags.  Anything else
    first (nothing, a help or version flag, an unknown word, a negative
    number, ``--``): all six, so help and the invalid-choice error list
    them, with flags only for the subcommands ``argv`` names."""
    ((name, parser),) = _subparsers(["scan", "--panel", "verify"]).items()
    assert name == "scan" and len(parser._actions) > 1
    for argv in ([], ["-h"], ["--version"], ["bogus", "scan"], ["-1", "scan"], ["--", "scan"]):
        choices = _subparsers(argv)
        assert list(choices) == list(SUBCOMMANDS)
        flagged = {name for name, p in choices.items() if len(p._actions) > 1}
        assert flagged == ({"scan"} & set(argv))
    assert list(_subparsers(None)) == list(SUBCOMMANDS)
    assert all(len(p._actions) > 1 for p in _subparsers(None).values())


@pytest.mark.parametrize("argv", [["bogus", "scan"], ["-1", "scan"]], ids=" ".join)
def test_an_unknown_command_error_names_every_subcommand(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: argument command: invalid choice: {argv[0]!r}")
    assert err.count("\n") == 1 and all(repr(name) in err for name in SUBCOMMANDS)


def test_subnormal_c_scan_exits_0(tmp_path):
    # c*sqrt(radicand) underflows, so the map's quotient overflows to inf: the
    # image is -inf, and the next step makes it NaN, with no RuntimeWarning.
    (tmp_path / "config.json").write_text('{"c": 5e-324}')
    assert run_in(tmp_path, ["scan", "--x0-points", "40", "--config", "config.json"]) == 0
    assert len(list(tmp_path.glob("panel_*.csv"))) == 4


# The fuzz's values: signed zeros, the smallest subnormal, extremes, NaN, a
# negative.  Counts and sizes stay small, so that each run takes milliseconds.
FUZZ_VALUES = (0, -0.0, 5e-324, 1e-300, 0.5, 1, 1e300, math.inf, math.nan, -1)
FUZZ_FLOAT = st.sampled_from([repr(v) for v in FUZZ_VALUES])


def fuzz_ints(*values):
    return st.sampled_from([str(v) for v in values])


# Each flag's values (None: a switch), whichever subcommand parses it.
FUZZ_OPTIONS = {
    "--seed": fuzz_ints(-1, 0, 1), "--beta-lo": FUZZ_FLOAT,
    "--beta": FUZZ_FLOAT, "--nu": FUZZ_FLOAT, "--a": FUZZ_FLOAT, "--x0": FUZZ_FLOAT,
    "--nu-c": None, "--nu-t": None, "--curve": fuzz_ints(-1, 0, 1, 3), "--profile": None,
    "--delta-gap": FUZZ_FLOAT,
    "--beta-grid": st.builds("{}:{}:{}".format, FUZZ_FLOAT, FUZZ_FLOAT, fuzz_ints(-1, 0, 1, 2, 5)),
    "--panel": st.sampled_from(["a", "b", "c", "d", "all"]),
    "--x0-points": fuzz_ints(-1, 0, 1, 2, 40),
    "--rounds": fuzz_ints(-1, 0, 1, 2), "--replications": fuzz_ints(-1, 0, 1, 2),
    "--questions": fuzz_ints(-1, 0, 1, 2, 200), "--v-target": FUZZ_FLOAT,
    "--fast": None,
}
# Each subcommand's flags, as its parser has them; every run gets its own
# --out and, from FUZZ_CONFIG, its --config.
(_SUBPARSERS,) = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
FUZZ_FLAGS = {name: sorted({a.option_strings[-1] for a in parser._actions}
                           - {"--help", "--out", "--config"})
              for name, parser in _SUBPARSERS.choices.items()}
# What every run of a subcommand gets: regions requires --x0, and the default
# scan grid and simulated world are large.
FUZZ_REQUIRED = {"regions": {"--x0"}, "scan": {"--x0-points"},
                 "simulate": {"--questions", "--rounds"}}
FUZZ_CONFIG = st.none() | st.dictionaries(
    st.sampled_from([*(f.name for f in fields(TheoryParams)), "nu"]), st.sampled_from(FUZZ_VALUES),
    max_size=3)


@st.composite
def fuzz_argvs(draw):
    command = draw(st.sampled_from(sorted(FUZZ_FLAGS)))
    flags = draw(st.sets(st.sampled_from(FUZZ_FLAGS[command]))) | FUZZ_REQUIRED.get(command, set())
    # ``--flag=value``, so that a value starting with "-" is not read as a flag.
    return ([command, *(flag if FUZZ_OPTIONS[flag] is None else f"{flag}={draw(FUZZ_OPTIONS[flag])}"
                        for flag in sorted(flags))], draw(FUZZ_CONFIG))


@settings(max_examples=150, deadline=None)
@given(case=fuzz_argvs())
def test_fuzzed_argv_parses_as_with_the_full_parser(case):
    argv, config = case
    argv = [*argv, "--out=new", *(["--config=config.json"] if config is not None else [])]
    assert _parse(build_parser(argv), argv) == _parse(FULL_PARSER, argv)


@settings(max_examples=150, deadline=None)
@given(case=fuzz_argvs())
@example(case=(["scan", "--panel=all", "--x0-points=40"], {"c": 5e-324}))
@example(case=(["thresholds", "--profile", "--beta-grid=0.01:inf:5"], None))
@example(case=(["scan", "--panel=d", "--beta=0.01", "--beta-lo=0.005"], None))
@example(case=(["thresholds", "--profile", "--beta-grid=0.5:1:5"], {"c": 5e-324}))
def test_fuzzed_argv_exits_0_or_2_and_a_fault_writes_one_error_line(case):
    """Random argvs of every subcommand, and random config keys, exit 0 or 2,
    never 3 (a fault of the program, a leaked RuntimeWarning included); a
    fault prints one ``error:`` line and creates no ``--out``.  The property
    checks of ``verify`` are replaced by one passing result: they read no
    input, and ``test_verify_fast_passes`` runs them.  Every flag a parser
    has must have values here, so that a new flag is fuzzed too."""
    assert {flag for flags in FUZZ_FLAGS.values() for flag in flags} == set(FUZZ_OPTIONS)
    argv, config = case
    passing = [checks.CheckResult("fuzz", True, "")]
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(checks, "run_checks", lambda fast: passing):
        if config is not None:
            with open(os.path.join(tmp, "config.json"), "w", encoding="utf-8") as fh:
                json.dump(config, fh)
            argv = [*argv, f"--config={os.path.join(tmp, 'config.json')}"]
        out = os.path.join(tmp, "new")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([*argv, f"--out={out}"])
        assert code in (0, 2), err.getvalue()
        if code == 2:
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
            assert not os.path.exists(out)
