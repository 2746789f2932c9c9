"""Command-line front end.

Subcommands: intervals, thresholds, regions, scan, simulate, verify.
Machine output goes to CSV files under ``--out``; stdout carries short
summaries only.  Every run writes ``manifest_<subcommand>.json`` with the
resolved parameters, seed, outputs, version, and duration, enough to
reproduce the output files byte for byte.

Exit codes: 0 success, 1 property failure (verify), 2 usage error or any
toolkit error (parameter, domain or bracketing).  Parameters are checked
here, where they enter, before any output is written.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
from dataclasses import asdict

import numpy as np

from . import __version__, checks, montecarlo, regions, simulate
from .cubic import invariant_interval
from .errors import BracketError, ParameterError, SelfImproveError
from .params import DerivedConstants, TheoryParams, derive_constants, load_config


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config with TheoryParams keys")
    parser.add_argument("--seed", type=int, default=0, help="random seed (U64)")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--threads", type=int, default=1, help="worker threads")
    parser.add_argument("--beta-lo", type=float, dest="beta_lo")
    parser.add_argument("--beta", type=float, dest="beta_hi")
    parser.add_argument("--nu", type=float, help="budget parameter override")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="selfimprove",
        description="Finite-sample self-improvement dynamics toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_int = sub.add_parser("intervals", help="invariant/feasibility/improvement intervals")
    _add_common(p_int)
    p_int.add_argument("--a", type=float, help="scale coefficient for the invariant interval")

    p_thr = sub.add_parser("thresholds", help="improvement thresholds and critical budgets")
    _add_common(p_thr)
    p_thr.add_argument("--x0", type=float, help="initialization for the largest improving budget")
    p_thr.add_argument("--nu-c", action="store_true", dest="nu_c",
                       help="emit the collapse budget")
    p_thr.add_argument("--nu-t", action="store_true", dest="nu_t",
                       help="emit the baseline half-error budget")
    p_thr.add_argument("--curve", type=int, metavar="N",
                       help="sample the improvement threshold on N budget points")
    p_thr.add_argument("--profile", action="store_true",
                       help="largest improving budget along beta_lo at fixed gap")
    p_thr.add_argument("--delta-gap", type=float, default=0.1, dest="delta_gap")
    p_thr.add_argument("--beta-grid", default="0.01:12:60", dest="beta_grid",
                       help="profile grid as start:stop:count")

    p_reg = sub.add_parser("regions", help="evaluate the error functional and margin")
    _add_common(p_reg)
    p_reg.add_argument("--x0", type=float, required=True)

    p_scan = sub.add_parser("scan", help="feasible/improvement region panels")
    _add_common(p_scan)
    p_scan.add_argument("--panel", default="all", choices=["a", "b", "c", "d", "all"])
    p_scan.add_argument("--x0-points", type=int, default=2000, dest="x0_points")

    p_sim = sub.add_parser("simulate", help="stochastic generate-filter-update loop")
    _add_common(p_sim)
    p_sim.add_argument("--rounds", type=int, default=5)
    p_sim.add_argument("--replications", type=int, default=1)
    p_sim.add_argument("--questions", type=int, default=10_000)
    p_sim.add_argument("--v-target", type=float, default=0.5, dest="v_target")

    p_ver = sub.add_parser("verify", help="run the property-check table")
    _add_common(p_ver)
    p_ver.add_argument("--fast", action="store_true", help="reduced grids")
    return parser


def _resolve_params(args) -> tuple[TheoryParams, float | None, DerivedConstants]:
    params, nu_override = (load_config(args.config) if args.config
                           else (TheoryParams(), None))
    overrides = {}
    if args.beta_lo is not None:
        overrides["beta_lo"] = args.beta_lo
    if args.beta_hi is not None:
        overrides["beta_hi"] = args.beta_hi
    if overrides:
        params = TheoryParams(**{**asdict(params), **overrides})
    if nu_override is not None and "nu" in _UNUSED_OPTIONS.get(args.command, {}):
        raise ParameterError(f'{args.command} does not use a config "nu"')
    if args.nu is not None:
        nu_override = args.nu
    # The curriculum divides by t^(-beta_hi), t < L, which must not underflow.
    if not params.L ** -params.beta_hi > 0.0:
        raise ParameterError("beta_hi too large: L^(-beta_hi) underflows to zero")
    return params, nu_override, derive_constants(params, nu=nu_override)


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


class _Run:
    """Collects outputs and writes the manifest on close."""

    def __init__(self, args, params: TheoryParams, nu_override: float | None):
        self.args = args
        self.params = params
        self.nu_override = nu_override
        self.outputs: list[str] = []
        self.start = time.monotonic()
        os.makedirs(args.out, exist_ok=True)

    def path(self, name: str) -> str:
        full = os.path.join(self.args.out, name)
        self.outputs.append(full)
        return full

    def finish(self) -> None:
        manifest = {
            "subcommand": self.args.command,
            "parameters": asdict(self.params),
            "nu_override": self.nu_override,
            "options": {k: v for k, v in vars(self.args).items()
                        if k not in ("command", "config") and not k.startswith("_")},
            "seed": self.args.seed,
            "outputs": self.outputs,
            "version": __version__,
            "duration_seconds": time.monotonic() - self.start,
        }
        path = os.path.join(self.args.out, f"manifest_{self.args.command}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")


def cmd_intervals(args) -> int:
    params, nu_override, d = _resolve_params(args)
    if args.a is not None and not math.isfinite(args.a):
        raise ParameterError(f"--a must be finite, got {args.a!r}")
    run = _Run(args, params, nu_override)
    rows = []
    if args.a is not None:
        iv = invariant_interval(args.a, params, d)
        rows.append(["I", _fmt(float(args.a)), _fmt(d.nu), _fmt(iv.lo), _fmt(iv.hi),
                     str(iv.valid).lower()])
    feas = regions.feasibility_interval(params, d)
    rows.append(["I_M", _fmt(params.beta_hi), _fmt(d.nu), _fmt(feas.lo), _fmt(feas.hi),
                 str(feas.valid).lower()])
    try:
        threshold = regions.improvement_threshold(d.nu, params)
        ceiling = 1.0 - params.gamma
        rows.append(["I_N", _fmt(params.beta_hi), _fmt(d.nu), _fmt(threshold),
                     _fmt(ceiling), str(threshold < ceiling).lower()])
    except BracketError:
        rows.append(["I_N", _fmt(params.beta_hi), _fmt(d.nu), _fmt(math.nan),
                     _fmt(math.nan), "false"])
    _write_csv(run.path("intervals.csv"),
               ["kind", "a_or_beta", "nu", "lo", "hi", "valid"], rows)
    run.finish()
    print(f"wrote {len(rows)} interval rows (nu={d.nu:.6g})")
    return 0


def _parse_grid(spec: str) -> np.ndarray:
    try:
        start, stop, count = spec.split(":")
        grid = np.linspace(float(start), float(stop), int(count))
    except ValueError as exc:
        raise ParameterError(f"bad grid spec {spec!r}; expected start:stop:count") from exc
    if grid.size < 2:
        raise ParameterError(f"grid spec {spec!r} needs two points for the tail slope")
    return grid


def cmd_thresholds(args) -> int:
    params, nu_override, d = _resolve_params(args)
    if args.curve is not None and args.curve < 1:
        raise ParameterError("--curve must be a positive integer")
    beta_grid = _parse_grid(args.beta_grid) if args.profile else None
    run = _Run(args, params, nu_override)
    rows = []
    nu_c = regions.collapse_budget(params) if args.nu_c or args.curve else None
    if args.nu_c:
        rows.append(["nu_c", _fmt(params.beta_lo), _fmt(params.beta_hi), "", _fmt(nu_c)])
    if args.nu_t:
        value = regions.baseline_half_error_budget(params)
        rows.append(["nu_T", _fmt(params.beta_lo), _fmt(params.beta_hi), "", _fmt(value)])
    if args.x0 is not None:
        value = regions.max_improving_nu(args.x0, params)
        rows.append(["nu_star", _fmt(params.beta_lo), _fmt(params.beta_hi),
                     _fmt(float(args.x0)), _fmt(value)])
    if rows:
        _write_csv(run.path("thresholds.csv"),
                   ["name", "beta_lo", "beta_hi", "x0", "value"], rows)
    if args.curve:
        grid = np.linspace(0.02, 0.995, args.curve) * nu_c
        samples = regions.threshold_curve(grid, params)
        _write_csv(run.path("threshold_curve.csv"),
                   ["nu", "x_threshold", "domain_flag"],
                   [[_fmt(nu), _fmt(x), str(ok).lower()] for nu, x, ok in samples])
    if args.profile:
        x0 = args.x0 if args.x0 is not None else 0.5 * (1.0 - params.gamma)
        profile = regions.max_improving_nu_profile(args.delta_gap, beta_grid, x0, params)
        _write_csv(run.path("profile.csv"),
                   ["beta_lo", "nu_star", "is_argmax"],
                   [[_fmt(bl), _fmt(v), str(i == profile.argmax_index).lower()]
                    for i, (bl, v) in enumerate(profile.points)])
        print(f"profile argmax at beta_lo={profile.argmax_beta_lo:.4f}, "
              f"tail slope {profile.tail_slope:.4f} per unit beta_lo")
    run.finish()
    print(f"wrote {len(run.outputs)} threshold file(s)")
    return 0


def cmd_regions(args) -> int:
    params, nu_override, d = _resolve_params(args)
    regions.check_initialization(args.x0, params)
    run = _Run(args, params, nu_override)
    problem = regions.BoundProblem(params)
    e = problem.error(d.nu, args.x0)
    margin = problem.margin(d.nu, args.x0)
    _write_csv(run.path("regions.csv"),
               ["beta_lo", "beta_hi", "nu", "x0", "error_functional",
                "improvement_margin", "improving"],
               [[_fmt(params.beta_lo), _fmt(params.beta_hi), _fmt(d.nu),
                 _fmt(float(args.x0)), _fmt(e), _fmt(margin),
                 str(margin < 0.0).lower()]])
    run.finish()
    print(f"margin={margin:.6g} ({'improving' if margin < 0 else 'not improving'})")
    return 0


def cmd_scan(args) -> int:
    params, nu_override, _ = _resolve_params(args)
    run = _Run(args, params, nu_override)
    panels = montecarlo.default_panels(params)
    names = ["a", "b", "c", "d"] if args.panel == "all" else [args.panel]
    for name in names:
        cfg = panels[name]
        if args.x0_points != cfg.x0_points:
            cfg = montecarlo.ScanConfig(**{**asdict(cfg), "x0_points": args.x0_points})
        result = montecarlo.run_scan(cfg, params, threads=args.threads)
        montecarlo.write_panel_csv(result, run.path(f"panel_{name}.csv"))
        agree = sum(c.agree for c in result.cells)
        print(f"panel {name}: {len(result.cells)} cells, "
              f"{agree} with endpoint-level agreement")
    run.finish()
    return 0


def cmd_simulate(args) -> int:
    params, nu_override, _ = _resolve_params(args)
    run = _Run(args, params, nu_override)
    world = simulate.build_world(args.questions, args.v_target, params, seed=args.seed)
    records = simulate.run_replications(world, params, args.rounds,
                                        args.replications, seed=args.seed)
    simulate.write_simulation_csv(records, run.path("simulation.csv"))
    live = [r for r in records if not r.collapsed]
    coverage = (sum(r.bound_satisfied for r in live) / len(live)) if live else float("nan")
    run.finish()
    print(f"{len(records)} rounds recorded; bound coverage {coverage:.4f}")
    return 0


def cmd_verify(args) -> int:
    params, nu_override, _ = _resolve_params(args)
    run = _Run(args, params, nu_override)
    results = checks.run_checks(fast=args.fast)
    width = max(len(r.name) for r in results)
    for r in results:
        status = "ok " if r.passed else "FAIL"
        print(f"[{status}] {r.name:<{width}}  {r.detail}")
    run.finish()
    failed = [r for r in results if not r.passed]
    if failed:
        print(f"first failing property: {failed[0].name}", file=sys.stderr)
        return 1
    print(f"all {len(results)} properties hold")
    return 0


_COMMANDS = {
    "intervals": cmd_intervals,
    "thresholds": cmd_thresholds,
    "regions": cmd_regions,
    "scan": cmd_scan,
    "simulate": cmd_simulate,
    "verify": cmd_verify,
}


# Common options a subcommand has no use for, by destination: they are
# rejected, so that no manifest records a parameter its run did not use.  A
# subcommand without "--nu" also rejects a config "nu".
_UNUSED_OPTIONS = {
    "thresholds": {"nu": "--nu"},
    "scan": {"nu": "--nu"},
    "simulate": {"beta_lo": "--beta-lo", "beta_hi": "--beta", "nu": "--nu"},
    "verify": {"config": "--config", "beta_lo": "--beta-lo", "beta_hi": "--beta",
               "nu": "--nu"},
}


def _check_common(args) -> None:
    if args.seed < 0:
        raise ParameterError("--seed must be a non-negative integer")
    if args.threads < 1:
        raise ParameterError("--threads must be a positive integer")
    for dest, flag in _UNUSED_OPTIONS.get(args.command, {}).items():
        if getattr(args, dest) is not None:
            raise ParameterError(f"{args.command} does not use {flag}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_common(args)
        return _COMMANDS[args.command](args)
    except SelfImproveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
