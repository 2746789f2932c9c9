"""Command-line front end.

Subcommands: intervals, thresholds, regions, scan, simulate, verify.
Machine output goes to CSV files under ``--out``; stdout carries short
summaries only.  Every run writes ``manifest_<subcommand>.json`` with the
resolved parameters, seed, outputs, version, and duration, enough to
reproduce the output files byte for byte.

Each subcommand is one row of ``SUBCOMMANDS``.  The parser builds only the
subparser of the subcommand ``argv`` starts with (all six when it starts
with none, so help and usage errors list them all) and registers, for the
subcommands its ``argv`` names, only ``--out``, the common options the row
reads and the row's flags, so argparse rejects any other flag.  ``main``
checks the flag values by the row's rules, resolves the parameters once and
hands them to the row's ``cmd_<name>``, which computes everything and
returns ``(exit_code, files)``; only then is ``--out`` created and written.
So a run that fails writes nothing, not even the directory.

Exit codes: 0 success, 1 property failure (verify, which still writes its
manifest), 2 usage error or any toolkit error (parameter, domain or
bracketing), 3 any other exception (a fault in the program); 2 and 3 print
one ``error:`` line.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
from dataclasses import asdict, replace
from typing import Callable, NamedTuple

import numpy as np

from . import __version__, montecarlo, regions, simulate
from .cubic import invariant_interval
from .errors import ParameterError, SelfImproveError, require
from .params import TheoryParams, load_config


def _resolve_params(args) -> tuple[TheoryParams, float | None, float]:
    """The parameters, the ``nu`` override (``None`` when absent) and the
    budget parameter in effect: the override, else ``params.default_nu``."""
    params, nu_override, keys = (load_config(args.config) if args.config
                                 else (TheoryParams(), None, frozenset()))
    overrides = {key: getattr(args, key) for key in ("beta_lo", "beta_hi")
                 if getattr(args, key) is not None}
    if overrides:
        params = TheoryParams(**{**asdict(params), **overrides})
    nu_override = nu_override if args.nu is None else args.nu
    reads = SUBCOMMANDS[args.command].reads
    require(*((key in reads, f'{args.command} does not use a config "{key}"')
              for key in sorted(keys & COMMON_OPTIONS.keys())),
            (nu_override is None or 0.0 <= nu_override < math.inf,
             f"nu must be non-negative and finite, got {nu_override!r}"))
    return params, nu_override, params.default_nu if nu_override is None else nu_override


def _fmt(value) -> str:
    """One CSV field: floats round-trip exactly (as csv writes them), bools are lower-case."""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (bool, np.bool_)):
        return str(value).lower()
    return str(value)


def cmd_intervals(args, params: TheoryParams, nu: float) -> tuple[int, list]:
    rows = []
    if args.a is not None:
        iv = invariant_interval(args.a, params, nu)
        rows.append(["I", args.a, nu, iv.lo, iv.hi, iv.valid])
    feas = regions.feasibility_interval(params, nu)
    rows.append(["I_M", params.beta_hi, nu, feas.lo, feas.hi, feas.valid])
    improving = regions._improvement_interval(
        params, float(regions.BoundProblem(params).threshold(nu)))
    rows.append(["I_N", params.beta_hi, nu, improving.lo, improving.hi, improving.valid])
    print(f"wrote {len(rows)} interval rows (nu={nu:.6g})")
    return 0, [("intervals.csv", ["kind", "a_or_beta", "nu", "lo", "hi", "valid"], rows)]


def _parse_grid(spec: str) -> np.ndarray:
    try:
        start, stop, count = spec.split(":")
        start, stop, count = float(start), float(stop), int(count)
    except ValueError as exc:
        raise ParameterError(f"bad grid spec {spec!r}; expected start:stop:count") from exc
    # NaN or infinite ends, or ends so far apart that their span overflows.
    require((math.isfinite(stop - start),
             f"grid spec {spec!r} needs finite ends a finite distance apart"),
            (2 <= count <= montecarlo.MAX_GRID_POINTS,
             f"grid spec {spec!r} needs 2 to 10^6 points (two for the tail slope)"))
    return np.linspace(start, stop, count)


def cmd_thresholds(args, params: TheoryParams, nu: float) -> tuple[int, list]:
    x0_profile = args.x0 if args.x0 is not None else 0.5 * (1.0 - params.gamma)
    # One bisection solves every budget asked for; the curve's grid needs nu_c.
    budgets = regions.critical_budgets(
        params, nu_c=args.nu_c or args.curve is not None, nu_t=args.nu_t, x0=args.x0,
        profile=(args.delta_gap, _parse_grid(args.beta_grid), x0_profile) if args.profile else None)
    betas = [params.beta_lo, params.beta_hi]
    rows = []
    if args.nu_c:
        rows.append(["nu_c", *betas, "", budgets["nu_c"]])
    if args.nu_t:
        rows.append(["nu_T", *betas, "", budgets["nu_t"]])
    if args.x0 is not None:
        rows.append(["nu_star", *betas, args.x0, budgets["nu_star"]])
    files = []
    if rows:
        files.append(("thresholds.csv", ["name", "beta_lo", "beta_hi", "x0", "value"], rows))
    if args.curve:
        grid = np.linspace(0.02, 0.995, args.curve) * budgets["nu_c"]
        curve = regions.BoundProblem(params).threshold(grid).tolist()
        files.append(("threshold_curve.csv", ["nu", "x_threshold", "domain_flag"],
                      [[nu, x, not math.isnan(x)] for nu, x in zip(grid.tolist(), curve)]))
    if args.profile:
        profile = budgets["profile"]
        files.append(("profile.csv", ["beta_lo", "nu_star", "is_argmax"],
                      [[bl, v, i == profile.argmax_index]
                       for i, (bl, v) in enumerate(profile.points)]))
        print(f"profile argmax at beta_lo={profile.argmax_beta_lo:.4f}, "
              f"tail slope {profile.tail_slope:.4f} per unit beta_lo")
    print(f"wrote {len(files)} threshold file(s)")
    return 0, files


def cmd_regions(args, params: TheoryParams, nu: float) -> tuple[int, list]:
    regions.check_initialization(args.x0, params)
    problem = regions.BoundProblem(params)
    e = problem.error(nu, args.x0)
    margin = problem.margin(nu, args.x0)
    print(f"margin={margin:.6g} ({'improving' if margin < 0 else 'not improving'})")
    return 0, [("regions.csv",
                ["beta_lo", "beta_hi", "nu", "x0", "error_functional",
                 "improvement_margin", "improving"],
                [[params.beta_lo, params.beta_hi, nu, args.x0, e, margin, margin < 0.0]])]


def cmd_scan(args, params: TheoryParams, nu: float) -> tuple[int, list]:
    panels = montecarlo.default_panels(params, "abcd" if args.panel == "all" else args.panel)
    cfgs = [replace(cfg, x0_points=args.x0_points) for cfg in panels.values()]
    files = []
    for name, cells in zip(panels, montecarlo.run_scans(cfgs, params)):
        files.append((f"panel_{name}.csv",
                      ["axis1", "axis2", "measured_len", "analytic_len", "agree"],
                      [[c.axis1, c.axis2, c.measured_len, c.analytic_len, c.agree]
                       for c in cells]))
        agree = sum(c.agree for c in cells)
        print(f"panel {name}: {len(cells)} cells, {agree} with endpoint-level agreement")
    return 0, files


def cmd_simulate(args, params: TheoryParams, nu: float) -> tuple[int, list]:
    simulate.check_run(params, args.rounds, args.replications)    # before the world's arrays
    world = simulate.build_world(args.questions, args.v_target, params, seed=args.seed)
    records = simulate.run_replications(world, params, args.rounds,
                                        args.replications, seed=args.seed)
    live = [r for r in records if not r.collapsed]
    coverage = (sum(r.bound_satisfied for r in live) / len(live)) if live else float("nan")
    print(f"{len(records)} rounds recorded; bound coverage {coverage:.4f}")
    return 0, [("simulation.csv",
                ["replication", "round", "n_accept", "Z_m", "alpha_m_min", "V_realized",
                 "bound", "bound_satisfied"],
                [[r.replication, r.round_index, r.n_accept, r.z_m, r.alpha_m_min,
                  r.v_realized, r.bound, "skipped" if r.collapsed else r.bound_satisfied]
                 for r in records])]


def cmd_verify(args, params: TheoryParams, nu: float) -> tuple[int, list]:
    from . import checks  # only verify pays for importing the property table
    results = checks.run_checks(fast=args.fast)
    width = max(len(r.name) for r in results)
    for r in results:
        status = "ok " if r.passed else "FAIL"
        print(f"[{status}] {r.name:<{width}}  {r.detail}")
    failed = [r for r in results if not r.passed]
    if failed:
        print(f"first failing property: {failed[0].name}", file=sys.stderr)
        return 1, []
    print(f"all {len(results)} properties hold")
    return 0, []


def _write_outputs(args, params: TheoryParams, nu_override: float | None, files,
                   start: float) -> None:
    """Create ``--out``, write each ``(name, header, rows)`` as a CSV file in
    order, then the manifest: the only place the command line writes."""
    os.makedirs(args.out, exist_ok=True)
    outputs = []
    for name, header, rows in files:
        outputs.append(os.path.join(args.out, name))
        with open(outputs[-1], "w", encoding="utf-8", newline="\n") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows([v if type(v) is float else _fmt(v) for v in row] for row in rows)
    manifest = {
        "subcommand": args.command,
        "parameters": asdict(params),
        "nu_override": nu_override,
        "options": {k: v for k, v in vars(args).items() if k not in ("command", "config")},
        "seed": args.seed,
        "outputs": outputs,
        "version": __version__,
        "duration_seconds": time.monotonic() - start,
    }
    path = os.path.join(args.out, f"manifest_{args.command}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


class Subcommand(NamedTuple):
    """One row of the command table: the function that runs a subcommand, its
    help line, the ``COMMON_OPTIONS`` it reads, its own flags as ``(flag,
    argparse keywords)`` and its rules, each ``args -> (holds, message)``."""
    run: Callable
    help: str
    reads: frozenset
    flags: tuple
    rules: tuple = ()


# The common options, by destination.  A parser registers only ``--out`` and
# those its row reads, and takes the others' defaults, so that every manifest
# records all of them.  No row reads ``threads``; the entry stays for the
# pinned manifests' ``"threads": 1`` and goes with their re-pin (ROADMAP item 4).
COMMON_OPTIONS = {
    "config": ("--config", dict(help="JSON config with TheoryParams keys")),
    "seed": ("--seed", dict(type=int, default=0, help="random seed (U64)")),
    "out": ("--out", dict(default=".", help="output directory")),
    "threads": ("--threads", dict(type=int, default=1)),
    "beta_lo": ("--beta-lo", dict(type=float, help="beta_lo override")),
    "beta_hi": ("--beta", dict(type=float, help="beta_hi override")),
    "nu": ("--nu", dict(type=float, help="budget parameter override")),
}
_PARAMS = frozenset({"config", "beta_lo", "beta_hi"})

SUBCOMMANDS = {
    "intervals": Subcommand(
        cmd_intervals, "invariant/feasibility/improvement intervals", _PARAMS | {"nu"},
        (("--a", dict(type=float, help="scale coefficient for the invariant interval")),),
        (lambda args: (args.a is None or math.isfinite(args.a),
                       f"--a must be finite, got {args.a!r}"),)),
    "thresholds": Subcommand(
        cmd_thresholds, "improvement thresholds and critical budgets", _PARAMS,
        (("--x0", dict(type=float, help="initialization for the largest improving budget")),
         ("--nu-c", dict(action="store_true", help="emit the collapse budget")),
         ("--nu-t", dict(action="store_true", help="emit the baseline half-error budget")),
         ("--curve", dict(type=int, metavar="N",
                          help="sample the improvement threshold on N budget points")),
         ("--profile", dict(action="store_true",
                            help="largest improving budget along beta_lo at fixed gap")),
         ("--delta-gap", dict(type=float, default=0.1)),
         ("--beta-grid", dict(default="0.01:12:60", help="profile grid as start:stop:count"))),
        (lambda args: (args.curve is None or 1 <= args.curve <= montecarlo.MAX_GRID_POINTS,
                       "--curve must lie in [1, 10^6]"),)),
    "regions": Subcommand(cmd_regions, "evaluate the error functional and margin",
                          _PARAMS | {"nu"}, (("--x0", dict(type=float, required=True)),)),
    "scan": Subcommand(cmd_scan, "feasible/improvement region panels", _PARAMS,
                       (("--panel", dict(default="all", choices=["a", "b", "c", "d", "all"])),
                        ("--x0-points", dict(type=int, default=2000)))),
    "simulate": Subcommand(
        cmd_simulate, "stochastic generate-filter-update loop", frozenset({"config", "seed"}),
        (("--rounds", dict(type=int, default=5)), ("--replications", dict(type=int, default=1)),
         ("--questions", dict(type=int, default=10_000)),
         ("--v-target", dict(type=float, default=0.5))),
        (lambda args: (args.seed >= 0, "--seed must be a non-negative integer"),)),
    "verify": Subcommand(cmd_verify, "run the property-check table", frozenset(),
                         (("--fast", dict(action="store_true", help="reduced grids")),)),
}


class _Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs):  # a flag's prefix is an unrecognized argument
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):  # a usage error is a parameter error: one line, exit 2
        raise ParameterError(message)


def build_parser(argv=None) -> argparse.ArgumentParser:
    """The parser of the subcommand ``argv[0]`` names, alone; else every
    subcommand's parser, so that help and usage errors list them all, with
    the flags of those ``argv`` names (all without it)."""
    parser = _Parser(prog="selfimprove",
                     description="Finite-sample self-improvement dynamics toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    named = argv[:1] if argv and argv[0] in SUBCOMMANDS else SUBCOMMANDS
    for name in named:
        row = SUBCOMMANDS[name]
        p = sub.add_parser(name, help=row.help)
        if argv is not None and name not in argv:
            continue
        p.set_defaults(**{dest: spec.get("default") for dest, (_, spec) in COMMON_OPTIONS.items()})
        for dest, (flag, spec) in COMMON_OPTIONS.items():
            if dest in row.reads | {"out"}:
                p.add_argument(flag, dest=dest, **spec)
        for flag, spec in row.flags:
            p.add_argument(flag, **spec)
    return parser


def _check_flags(args, row: Subcommand) -> None:
    """The rules on the flag values, in test order: ``--out``'s, then the row's."""
    require((os.path.isdir(args.out) or not os.path.lexists(args.out),
             f"--out {args.out!r} exists and is not a directory"),
            *(rule(args) for rule in row.rules))


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = build_parser(argv).parse_args(argv)
        row = SUBCOMMANDS[args.command]
        _check_flags(args, row)
        params, nu_override, nu = _resolve_params(args)
        start = time.monotonic()
        code, files = row.run(args, params, nu)
        _write_outputs(args, params, nu_override, files, start)
        return code
    except SelfImproveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a fault in the program, not in its input
        print(f"error: unexpected {exc!r}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
