"""Tests of the benchmark itself: tracing, the correctness gate, the oracle.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import gate  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

PACKAGE, CLI = run.load_program()

REPEATED_COUNTS = ("regions.improvement_margin.calls", "dynamics.curriculum_coefficients.calls",
                   "simulate.multi_try_acceptance.elements", "montecarlo.points_classified",
                   "checks.passed")


def traced_call(argv: list[str], out_dir: Path) -> dict:
    tracer = tracing.Tracer()
    tracer.begin_call(0)
    with tracing.patched(tracer, PACKAGE):
        code, _, stderr, _ = run.call_main(tracer.wrap("cli.main", CLI.main),
                                           [*argv, "--out", str(out_dir)])
    assert code == 0, stderr
    return tracing.call_metrics(tracer.spans, 0, tracer.counts, 0)


def program_bindings() -> dict:
    """Every module attribute, CHECKS entry and __post_init__ tracing may patch."""
    modules = [PACKAGE] + [sys.modules[n] for n in sorted(sys.modules)
                           if n.startswith(PACKAGE.__name__ + ".")]
    state = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    state["CHECKS"] = list(sys.modules["selfimprove.checks"].CHECKS)
    for cls in (PACKAGE.TheoryParams, PACKAGE.SimWorld):
        state[cls.__name__] = vars(cls)["__post_init__"]
    return state


@pytest.mark.parametrize("argv", [
    ["scan", "--panel", "c"],
    ["simulate", "--questions", "20000", "--rounds", "3", "--replications", "2"],
    ["verify", "--fast"],
])
def test_counts_repeat_across_traced_runs(argv, tmp_path):
    first = traced_call(argv, tmp_path / "a")
    second = traced_call(argv, tmp_path / "b")
    counts = {name for name, unit in tracing.PER_LAYER if unit == "count"}
    assert {k: v for k, v in first.items() if k in counts} == \
        {k: v for k, v in second.items() if k in counts}
    assert any(first.get(name, 0) > 0 for name in REPEATED_COUNTS)


def test_traced_counts_of_each_layer(tmp_path):
    scan = traced_call(["scan", "--panel", "c"], tmp_path / "scan")
    assert scan["montecarlo.points_classified"] == 169 * 2000
    assert scan["regions.improvement_margin.calls"] > 0
    assert scan["dynamics.curriculum_coefficients.calls"] > 0
    sim = traced_call(["simulate", "--questions", "20000", "--rounds", "3",
                       "--replications", "2"], tmp_path / "sim")
    assert sim["simulate.rounds"] == 6
    assert sim["simulate.multi_try_acceptance.elements"] == 6 * 20000
    assert 0.0 < sim["simulate.accept_frac"] <= 1.0
    # Self times partition the root span: they add up to the call's wall time.
    total = sum(sim[f"{layer}.self_s"] for layer in tracing.LAYERS)
    assert math.isclose(total, sim["cli.main.busy_s"], rel_tol=1e-9)


def test_patches_restored_after_traced_run(tmp_path):
    before = program_bindings()
    traced_call(["verify", "--fast"], tmp_path)
    after = program_bindings()
    assert before.keys() == after.keys()
    assert all(after[k] is v or after[k] == v for k, v in before.items())


def test_patches_restored_when_the_call_raises():
    before = program_bindings()
    with pytest.raises(RuntimeError):
        with tracing.patched(tracing.Tracer(), PACKAGE):
            assert PACKAGE.regions.improvement_margin is not before[
                ("selfimprove.regions", "improvement_margin")]
            raise RuntimeError
    after = program_bindings()
    assert all(after[k] is v or after[k] == v for k, v in before.items())


def test_gate_accepts_the_references():
    for name in ("scan_panels", "budget_sweep", "verify_full"):
        expected = gate.Expected.load(gate.reference_dir(name, None))
        assert gate.compare(expected, expected) == []


def test_gate_rejects_one_flipped_agree():
    expected = gate.Expected.load(gate.reference_dir("scan_panels", None))
    lines = expected.files["panel_c.csv"].splitlines(keepends=True)
    row = next(i for i, line in enumerate(lines) if line.endswith(",true\n"))
    lines[row] = lines[row][:-len("true\n")] + "false\n"
    perturbed = gate.Expected({**expected.files, "panel_c.csv": "".join(lines)},
                              expected.stdout, expected.exit_code)
    assert gate.compare(expected, perturbed)


@pytest.mark.parametrize("factor, rejected", [(1.0 + 1e-6, True), (1.0 + 1e-13, False)])
def test_gate_float_tolerance_on_profile(factor, rejected):
    expected = gate.Expected.load(gate.reference_dir("budget_sweep", None))
    lines = expected.files["profile.csv"].splitlines(keepends=True)
    beta_lo, nu_star, flag = lines[5].rstrip("\n").split(",")
    lines[5] = f"{beta_lo},{float(nu_star) * factor!r},{flag}\n"
    perturbed = gate.Expected({**expected.files, "profile.csv": "".join(lines)},
                              expected.stdout, expected.exit_code)
    assert bool(gate.compare(expected, perturbed)) is rejected


def test_gate_rejects_exit_code_and_missing_file():
    expected = gate.Expected.load(gate.reference_dir("budget_sweep", None))
    files = dict(expected.files)
    del files["profile.csv"]
    assert gate.compare(expected, gate.Expected(files, expected.stdout, 0))
    assert gate.compare(expected, gate.Expected(expected.files, expected.stdout, 1))


@pytest.mark.parametrize("seed", run.PINNED_SEEDS)
def test_oracle_matches_pinned_simulation(seed):
    pinned = gate.Expected.load(gate.reference_dir("sim_large_world", seed))
    manifest = json.loads(pinned.files["manifest_simulate.json"])
    opts = manifest["options"]
    csv_text, stdout = oracle.simulate_outputs(
        manifest["parameters"], opts["questions"], opts["rounds"], opts["replications"],
        opts["v_target"], seed)
    assert csv_text == pinned.files["simulation.csv"]
    assert stdout == pinned.stdout


def test_benchmark_json_lists_the_benchmark_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)
    checks = sys.modules["selfimprove.checks"]
    assert tuple(fn.__name__[len("check_"):] for fn in checks.CHECKS) == tracing.CHECK_NAMES


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "scan_panels",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_end_to_end_run_reports_every_metric():
    assert run.main(["--workload", "budget_sweep", "--seed", "0", "--seconds", "0",
                     "--trace", "0"]) == 0
    record = json.loads((run.WORK / "results" / "budget_sweep-seed0-trace0.json").read_text())
    assert record["failed"] == 0 and record["attempted"] == 2 + run.MIN_SAMPLES
    assert set(record["metrics"]) == {"setup_s", "run_s", "peak_rss_mb"}
    assert set(record["output_sha256"]) >= {"profile.csv", "threshold_curve.csv",
                                            "thresholds.csv", "stdout"}
    assert record["environment"]["nproc"] >= 1
