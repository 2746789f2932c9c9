"""Spans around the program's layer boundaries, recorded from outside it.

A traced call patches every public function named in ``SPANNED`` at each
place the program looks it up (its own module and every module of the
package that imported it by name), wraps each entry of ``checks.CHECKS``,
and counts ``TheoryParams`` and ``SimWorld`` validations through their
``__post_init__``.  Everything is restored in ``finally``; no file of the
program changes.

Spans are kept in memory as ``(name, start, end, parent, call_id, error)``
and written out when the run ends.  A span's self time is its duration
minus the time of its direct children, so the self times of all spans of a
call add up to the call's wall time; a layer's ``self_s`` sums them over the
layer's spans.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import importlib
import pkgutil
import time
from collections import Counter, defaultdict

LAYERS = ("params", "cubic", "dynamics", "regions", "montecarlo", "simulate",
          "checks", "cli")

# Public functions that get a span, as "module.function".  ``_one_round`` is
# the simulator's per-round step: the only place a round can be timed.
SPANNED = (
    "params.derive_constants",
    "cubic.invariant_interval",
    "dynamics.curriculum_coefficients",
    "regions.improvement_margin",
    "regions.improvement_margin_limit",
    "regions.improvement_threshold",
    "regions.max_improving_nu",
    "regions.collapse_budget",
    "regions.baseline_half_error_budget",
    "regions.feasibility_interval",
    "montecarlo.run_scan",
    "montecarlo.classify_feasible",
    "montecarlo.classify_improvement",
    "montecarlo.measured_interval",
    "montecarlo.write_panel_csv",
    "simulate.build_world",
    "simulate.run_selfimprove",
    "simulate._one_round",
    "simulate.multi_try_acceptance",
    "simulate.write_simulation_csv",
)

# The 30 properties of ``checks.CHECKS`` at the commit that defined this
# benchmark; each gets a ``checks.<property>.busy_s`` metric.
CHECK_NAMES = (
    "derived_constants_monotone", "validate_domain_noiseless", "cubic_oracle",
    "fixed_point_residuals", "gap_identities", "interval_inclusion",
    "conjugate_derivatives", "map_monotonicities", "coefficient_telescoping",
    "trajectory_classification", "trajectory_reproducibility",
    "error_functional_monotone", "improvement_equivalence", "threshold_curve",
    "critical_budgets", "growth_ratio", "conditional_mean", "geometric_identity",
    "feasibility_length_bounds", "tail_exceeds_baseline",
    "coefficients_increasing", "scan_determinism", "scan_contains_analytic",
    "grid_refinement", "acceptance_ratio_laws", "world_invariants",
    "sim_reproducibility", "sim_bound_coverage", "acceptance_count_mean",
    "update_range",
)

# Every per-layer metric with its unit, in the order BENCHMARK.json lists them.
PER_LAYER = (
    ("params.constructions", "count"),
    ("params.derive_constants.calls", "count"),
    ("params.self_s", "s"),
    ("cubic.invariant_interval.calls", "count"),
    ("cubic.invariant_interval.busy_s", "s"),
    ("cubic.self_s", "s"),
    ("dynamics.curriculum_coefficients.calls", "count"),
    ("dynamics.curriculum_coefficients.busy_s", "s"),
    ("dynamics.self_s", "s"),
    ("regions.improvement_margin.calls", "count"),
    ("regions.improvement_margin.busy_s", "s"),
    ("regions.improvement_margin.domain_errors", "count"),
    ("regions.improvement_margin_limit.calls", "count"),
    ("regions.margin_evals_per_root", "ratio"),
    ("regions.improvement_threshold.calls", "count"),
    ("regions.improvement_threshold.busy_s", "s"),
    ("regions.improvement_threshold.bracket_errors", "count"),
    ("regions.max_improving_nu.calls", "count"),
    ("regions.max_improving_nu.busy_s", "s"),
    ("regions.collapse_budget.busy_s", "s"),
    ("regions.baseline_half_error_budget.busy_s", "s"),
    ("regions.feasibility_interval.busy_s", "s"),
    ("regions.self_s", "s"),
    ("montecarlo.run_scan.busy_s", "s"),
    ("montecarlo.classify_feasible.busy_s", "s"),
    ("montecarlo.classify_improvement.busy_s", "s"),
    ("montecarlo.points_classified", "count"),
    ("montecarlo.measured_interval.busy_s", "s"),
    ("montecarlo.write_panel_csv.busy_s", "s"),
    ("montecarlo.self_s", "s"),
    ("simulate.run_selfimprove.calls", "count"),
    ("simulate.run_selfimprove.busy_s", "s"),
    ("simulate.rounds", "count"),
    ("simulate.round_s", "s"),
    ("simulate.multi_try_acceptance.calls", "count"),
    ("simulate.multi_try_acceptance.busy_s", "s"),
    ("simulate.multi_try_acceptance.elements", "count"),
    ("simulate.world_constructions", "count"),
    ("simulate.build_world.busy_s", "s"),
    ("simulate.write_simulation_csv.busy_s", "s"),
    ("simulate.accept_frac", "ratio"),
    ("simulate.collapsed_rounds", "count"),
    ("simulate.self_s", "s"),
    ("checks.passed", "count"),
    ("checks.self_s", "s"),
    *((f"checks.{name}.busy_s", "s") for name in CHECK_NAMES),
    ("cli.self_s", "s"),
    ("cli.output_bytes", "bytes"),
    ("trace.spans", "count"),
    ("trace.overhead_s", "s"),
)

_NAME, _START, _END, _PARENT, _ERROR = 0, 1, 2, 3, 5


class Tracer:
    """Span and count recorder for one benchmark run."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()   # counts of the current call only
        self.call_id = -1
        self._stack: list[int] = []

    def begin_call(self, call_id: int) -> None:
        self.call_id = call_id
        self.counts.clear()
        self._stack.clear()

    def wrap(self, name: str, fn, on_call=None, on_result=None):
        """``fn`` recording a span per call; ``on_call(args)`` and
        ``on_result(result, args)`` add to the call's counts."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(args)
            index, parent, error = len(spans), stack[-1] if stack else -1, None
            stack.append(index)
            spans.append(None)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                # A tuple of plain values drops out of the garbage collector's
                # tracking, so stored spans do not slow the calls that follow.
                spans[index] = (name, start, clock(), parent, self.call_id, error)
                stack.pop()
            if on_result is not None:
                on_result(result, args)
            return result

        return traced

    def write(self, path, stop: int) -> None:
        """Write the first ``stop`` spans as CSV."""
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["index", "call_id", "name", "parent", "start_s", "end_s", "error"])
            for i, (name, start, end, parent, call_id, error) in enumerate(self.spans[:stop]):
                writer.writerow([i, call_id, name, parent, repr(start), repr(end), error or ""])


@contextlib.contextmanager
def patched(tracer: Tracer, package):
    """Install the tracer's wrappers into the program for the ``with`` body.

    A function is replaced under every module attribute that refers to it,
    so calls made through a by-name import are traced too.  A function a
    later version of the program no longer has is skipped; its metrics then
    read zero.  Every replaced attribute is restored on exit.
    """
    undo: list = []

    def replace(owner, attr: str, value) -> None:
        original = getattr(owner, attr)
        undo.append(lambda: setattr(owner, attr, original))
        setattr(owner, attr, value)

    try:
        _install(tracer, package, replace, undo)
        yield
    finally:
        for restore in reversed(undo):
            restore()


def _install(tracer: Tracer, package, replace, undo: list) -> None:
    counts = tracer.counts
    modules = [package] + [importlib.import_module(f"{package.__name__}.{info.name}")
                           for info in pkgutil.iter_modules(package.__path__)]
    by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}

    def add_len(counter: str):
        return lambda args: counts.update({counter: len(args[0])})

    hooks = {
        "montecarlo.classify_feasible": dict(on_call=add_len("montecarlo.points_classified")),
        "montecarlo.classify_improvement": dict(on_call=add_len("montecarlo.points_classified")),
        "simulate.multi_try_acceptance": dict(
            on_call=add_len("simulate.multi_try_acceptance.elements")),
        "simulate._one_round": dict(on_result=_count_round(counts)),
    }
    for qualified in SPANNED:
        module_name, fn_name = qualified.split(".")
        original = getattr(by_name.get(module_name), fn_name, None)
        if original is None:
            continue
        wrapper = tracer.wrap(qualified, original, **hooks.get(qualified, {}))
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    replace(module, attr, wrapper)

    for class_name, module_name, counter in (
            ("TheoryParams", "params", "params.constructions"),
            ("SimWorld", "simulate", "simulate.world_constructions")):
        cls = getattr(by_name.get(module_name), class_name, None)
        if cls is not None and "__post_init__" in vars(cls):
            replace(cls, "__post_init__", _counted(cls.__post_init__, counts, counter))

    table = getattr(by_name.get("checks"), "CHECKS", None)
    if table is not None:
        entries = list(table)
        undo.append(lambda: table.__setitem__(slice(None), entries))

        def passed(result, _args) -> None:
            counts["checks.passed"] += int(bool(result.passed))

        table[:] = [tracer.wrap(f"checks.{_check_name(fn)}", fn, on_result=passed)
                    for fn in entries]


def _check_name(fn) -> str:
    name = fn.__name__
    return name[len("check_"):] if name.startswith("check_") else name


def _counted(fn, counts, counter: str):
    @functools.wraps(fn)
    def counted(*args, **kwargs):
        counts[counter] += 1
        return fn(*args, **kwargs)
    return counted


def _count_round(counts):
    def on_result(result, args):
        _, record = result
        counts["simulate.accepted"] += record.n_accept
        counts["simulate.sampled"] += args[1].n
        counts["simulate.collapsed_rounds"] += int(bool(record.collapsed))
    return on_result


def call_metrics(spans: list[tuple], first: int, counts: Counter,
                 output_bytes: int) -> dict:
    """Per-layer metrics of one traced workload call.

    The call's spans are ``spans[first:]``; ``spans[first]`` is its
    ``cli.main`` root span.  Parents are indices into ``spans``.
    """
    calls: Counter = Counter()
    busy: defaultdict = defaultdict(float)
    errors: Counter = Counter()
    layer_self: defaultdict = defaultdict(float)
    own = [s[_END] - s[_START] for s in spans[first:]]
    for span in spans[first + 1:]:
        own[span[_PARENT] - first] -= span[_END] - span[_START]
    for span, self_s in zip(spans[first:], own):
        name = span[_NAME]
        calls[name] += 1
        busy[name] += span[_END] - span[_START]
        errors[name, span[_ERROR]] += 1
        layer_self[name.split(".", 1)[0]] += self_s

    m = {f"{layer}.self_s": layer_self[layer] for layer in LAYERS}
    m.update(counts)
    for name in calls:
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.busy_s"] = busy[name]
    m["regions.improvement_margin.domain_errors"] = errors[
        "regions.improvement_margin", "DomainError"]
    m["regions.improvement_threshold.bracket_errors"] = errors[
        "regions.improvement_threshold", "BracketError"]
    solves = sum(calls[f"regions.{fn}"] for fn in
                 ("improvement_threshold", "max_improving_nu", "collapse_budget"))
    margins = calls["regions.improvement_margin"] + calls["regions.improvement_margin_limit"]
    m["regions.margin_evals_per_root"] = margins / solves if solves else 0.0
    rounds = calls["simulate._one_round"]
    m["simulate.rounds"] = rounds
    m["simulate.round_s"] = busy["simulate._one_round"] / rounds if rounds else 0.0
    sampled = counts["simulate.sampled"]
    m["simulate.accept_frac"] = counts["simulate.accepted"] / sampled if sampled else 0.0
    m["cli.output_bytes"] = output_bytes
    m["trace.spans"] = len(own)
    return m
