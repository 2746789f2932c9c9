"""Benchmark of the selfimprove command line: four workloads, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload scan_panels --seed 0 --seconds 20 --trace 0

Load model: closed loop, one client in one process, one call at a time;
no threads are started and ``--threads`` is never passed.  Each workload is
one ``selfimprove.cli.main(argv)`` call, imported from ``src/``.

``--trace 0`` measures the end-to-end metrics:

* ``setup_s``: median time a fresh interpreter takes to run
  ``import selfimprove.cli``, timed inside it, over ``SETUP_SAMPLES``
  interpreters (after one discarded run that fills the bytecode cache);
* ``run_s``: median wall time of an in-process ``main(argv)`` call after one
  warm-up call, repeated until ``--seconds`` have been measured;
* ``peak_rss_mb``: peak resident memory (VmHWM) of one fresh interpreter
  running the workload through ``selfimprove.cli.main``.

Both times are scaled to a reference machine speed by ``Probe``, which runs
between samples; raw wall times are in the result file.

``--trace 1`` alternates untraced and traced calls for ``--seconds`` and
reports the per-layer metrics of ``tracing.PER_LAYER`` as medians over the
traced calls, with ``trace.overhead_s`` the median difference between a
traced call and the untraced call before it.

Every call's outputs go through the correctness gate (``gate.py``); a call
that exits non-zero or disagrees with the reference counts as failed, and
``fail_frac`` = failed / attempted.  The last line of stdout is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
Samples, percentiles, output SHA-256 hashes and the machine are recorded in
``.perfbench/results/``; the spans of one traced call in
``.perfbench/spans/<workload>.csv``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

SETUP_SAMPLES = 9
SETUP_PROBE_S = 0.1
MIN_SAMPLES = 3
CHILD_TIMEOUT_S = 120.0


@dataclass(frozen=True)
class Workload:
    argv: tuple[str, ...]
    seeded: bool        # the workload seed is passed on as ``--seed``
    probe: str          # the kind of work it does, see ``Probe``
    why: str

    def args(self, seed: int) -> list[str]:
        return [*self.argv, "--seed", str(seed)] if self.seeded else list(self.argv)


WORKLOADS = {
    "scan_panels": Workload(
        ("scan", "--panel", "all"), False, "python",
        "the only montecarlo workload: threshold bisection plus 1.25M-point "
        "classification; no simulate"),
    "budget_sweep": Workload(
        ("thresholds", "--nu-c", "--nu-t", "--x0", "0.49", "--curve", "200", "--profile",
         "--beta-grid", "0.01:12:121"), False, "python",
        "~95% regions margin bisection in nu and x0; bypasses montecarlo and simulate"),
    "sim_large_world": Workload(
        ("simulate", "--questions", "1000000", "--rounds", "10", "--replications", "4"), True,
        "mixed",
        "simulator rounds over 10^6 questions: O(Q) per round; bypasses regions "
        "and montecarlo"),
    "verify_full": Workload(
        ("verify",), False, "mixed",
        "the only checks workload: ~3.5k small-world simulator rounds (per-round "
        "overhead) plus light regions and cubic use"),
}

# Seeds whose sim_large_world outputs are pinned: the CLI default and one
# held out from tuning.  Other seeds are checked against ``oracle.py``.
PINNED_SEEDS = (0, 7919)

sys.path.insert(0, str(HERE))
import gate  # noqa: E402
import oracle  # noqa: E402
import tracing  # noqa: E402


@dataclass(frozen=True)
class _Pair:
    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not 0.0 < self.lo < self.hi:
            raise ValueError("need 0 < lo < hi")


def _python_probe(numpy, arrays) -> None:
    """Interpreter work like the analytic code's: frozen-dataclass rebuilds
    with validation, small generator sums, raised and caught exceptions."""
    pair, total = _Pair(0.1, 0.4), 0.0
    for i in range(10_000):
        pair = replace(pair, lo=0.05 + (i % 10) * 0.01)
        try:
            if i % 7 == 0:
                raise ArithmeticError(i)
            total += math.sqrt(sum(k ** -pair.lo for k in range(1, 6)))
        except ArithmeticError:
            total -= 1.0


def _mixed_probe(numpy, arrays) -> None:
    """Interpreter loops, many small-array numpy calls and passes over 10^6
    doubles, like the simulator's rounds with the code around them."""
    _calls(18)
    table = {}
    for i in range(20_000):
        q, r = divmod(i * 7, 97)
        table[r] = math.sqrt(q + 1.0)
    small = arrays[:200]
    for _ in range(300):
        (1.0 - (1.0 - small) ** 4).sum()
    for _ in range(2):
        numpy.cumsum(1.0 - (1.0 - arrays) ** 4)


def _calls(n: int) -> int:
    return n if n < 2 else _calls(n - 1) + _calls(n - 2)


class Probe:
    """Machine-speed probe run between timed samples.

    The shared machine's speed drifts with other tenants' load: a fixed
    loop's 10 s medians had an interquartile spread of 25%.  Interpreter-bound
    and array-bound code slow by different amounts, so each workload names
    the probe that does its kind of work: ``python`` for the analytic code,
    ``mixed`` for the simulator's rounds.  After each sample the probe runs
    for about ``SHARE`` of that sample's time (at least once); the sample is
    scaled by the probe's reference time over the mean probe time of the
    gaps before and after it.  It then reads in seconds of a machine on
    which the probe takes its reference time, about this 2-core Xeon VM at
    its quiet speed.  Raw wall times are kept in the result file.
    """

    KINDS = {"python": (_python_probe, 0.022), "mixed": (_mixed_probe, 0.025)}
    SHARE = 0.1

    def __init__(self, numpy, kind: str) -> None:
        self.numpy = numpy
        self.work, self.reference_s = self.KINDS[kind]
        self.arrays = numpy.linspace(0.0, 1.0, 1_000_000)
        self.times: list[float] = []
        self.level = self.measure(0.0)

    def _once(self) -> float:
        start = time.perf_counter()
        self.work(self.numpy, self.arrays)
        return time.perf_counter() - start

    def measure(self, budget_s: float) -> float:
        """Probe for about ``budget_s`` (at least once); the mean probe time."""
        runs = [self._once()]
        while sum(runs) < budget_s:
            runs.append(self._once())
        self.times.extend(runs)
        self.level = sum(runs) / len(runs)
        return self.level

    def scaled(self, seconds: float, budget_s: float | None = None) -> float:
        """A sample of ``seconds`` taken since the last probe, at reference
        speed; probes for ``budget_s``, by default ``SHARE * seconds``."""
        before = self.level
        after = self.measure(self.SHARE * seconds if budget_s is None else budget_s)
        return seconds * self.reference_s / (0.5 * (before + after))


class BenchmarkError(Exception):
    """The benchmark cannot run here (no program, bad arguments)."""


def load_program():
    """Import ``selfimprove`` and its CLI from this checkout's ``src/``."""
    if not (SRC / "selfimprove" / "cli.py").is_file():
        raise BenchmarkError(f"no program source at {SRC / 'selfimprove'}")
    sys.path.insert(0, str(SRC))
    import selfimprove
    import selfimprove.cli
    if Path(selfimprove.__file__).resolve().parent != SRC / "selfimprove":
        raise BenchmarkError(f"imported selfimprove from {selfimprove.__file__}, not {SRC}")
    return selfimprove, selfimprove.cli


def expected_outputs(name: str, seed: int) -> gate.Expected:
    workload = WORKLOADS[name]
    if not workload.seeded:
        return gate.Expected.load(gate.reference_dir(name, None))
    pinned = gate.reference_dir(name, seed)
    if pinned.is_dir():
        return gate.Expected.load(pinned)
    template = gate.Expected.load(gate.reference_dir(name, PINNED_SEEDS[0]))
    manifest_name = next(n for n in template.files if n.startswith("manifest_"))
    manifest = json.loads(template.files[manifest_name])
    manifest["seed"] = manifest["options"]["seed"] = seed
    opts = manifest["options"]
    csv_text, stdout = oracle.simulate_outputs(
        manifest["parameters"], opts["questions"], opts["rounds"], opts["replications"],
        opts["v_target"], seed)
    return gate.Expected({"simulation.csv": csv_text,
                          manifest_name: json.dumps(manifest, indent=2, sort_keys=True) + "\n"},
                         stdout, 0)


def call_main(main, argv: list[str]) -> tuple[int | None, str, str, float]:
    """(exit code, stdout, stderr, seconds) of one in-process ``main(argv)``.

    Only the call itself is timed.  An exception counts as exit code None.
    """
    out, err = io.StringIO(), io.StringIO()
    code = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc()
        seconds = time.perf_counter() - start
    return code, out.getvalue(), err.getvalue(), seconds


# Runs the CLI in a fresh interpreter and reports the peak resident memory of
# that interpreter's own address space (VmHWM).  ``ru_maxrss`` would not do:
# Linux carries the spawning process's resident size over into the child's.
RSS_MARK = "peak-rss-kb "
RSS_CODE = f"""
import resource, sys
from selfimprove.cli import main
try:
    code = main(sys.argv[1:])
finally:
    try:
        with open("/proc/self/status") as fh:
            kb = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    except OSError:
        kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    sys.stdout.flush()
    print("{RSS_MARK}%d" % kb, file=sys.stderr)
sys.exit(code)
"""


class Session:
    """Calls one workload, gates every output, and keeps the tallies."""

    def __init__(self, main, argv: list[str], expected: gate.Expected, tag: str) -> None:
        self.main = main
        self.argv = argv
        self.expected = expected
        self.calls_dir = WORK / "calls" / tag
        shutil.rmtree(self.calls_dir, ignore_errors=True)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.hashes: dict[str, str] | None = None
        self.hash_changes = 0

    def new_out_dir(self) -> Path:
        return self.calls_dir / f"call-{self.attempted}"

    def check(self, out_dir: Path, code: int | None, stdout: str, stderr: str) -> int:
        """Gate one call's outputs, then delete them; returns the output bytes
        (CSV files and stdout; the manifest holds a duration, so it is left out)."""
        self.attempted += 1
        out_bytes = len(stdout.encode("utf-8"))
        if code is None:
            problems = [f"raised: {stderr.strip()[-300:]}"]
        else:
            try:
                actual, hashes = gate.collect(out_dir, stdout, code)
                problems = gate.compare(self.expected, actual)
            except (OSError, ValueError) as exc:   # unreadable or malformed output
                actual, hashes, problems = None, {}, [f"unreadable output: {exc!r}"]
            if actual is not None:
                out_bytes += sum(len(t.encode("utf-8")) for n, t in actual.files.items()
                                 if not n.startswith("manifest_"))
            stable = {k: v for k, v in hashes.items() if not k.startswith("manifest_")}
            if self.hashes is None:
                self.hashes = hashes
            elif stable != {k: v for k, v in self.hashes.items()
                            if not k.startswith("manifest_")}:
                self.hash_changes += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"call {self.attempted}: {p}" for p in problems[:5])
        shutil.rmtree(out_dir, ignore_errors=True)
        return out_bytes

    def run(self, main=None) -> tuple[float, int]:
        """One gated in-process call; (seconds, output bytes)."""
        out_dir = self.new_out_dir()
        code, stdout, stderr, seconds = call_main(main or self.main,
                                                  [*self.argv, "--out", str(out_dir)])
        return seconds, self.check(out_dir, code, stdout, stderr)

    def run_child(self, env: dict) -> float:
        """One gated run of the CLI in a fresh interpreter; its peak RSS in MB
        (0 when the child died before reporting it, which fails the call)."""
        out_dir = self.new_out_dir()
        try:
            proc = subprocess.run([sys.executable, "-c", RSS_CODE, *self.argv, "--out", str(out_dir)],
                                  cwd=ROOT, env=env, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.check(out_dir, None, "", "timed out")
            return 0.0
        *stderr, last = proc.stderr.splitlines() or [""]
        if not last.startswith(RSS_MARK):
            self.check(out_dir, None, proc.stdout, proc.stderr)
            return 0.0
        self.check(out_dir, proc.returncode, proc.stdout, "\n".join(stderr))
        return int(last[len(RSS_MARK):]) / 1024.0

    def close(self) -> None:
        shutil.rmtree(self.calls_dir, ignore_errors=True)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


SETUP_CODE = ("import time; start = time.perf_counter(); import selfimprove.cli; "
              "print(repr(time.perf_counter() - start))")


def measure_setup(env: dict, probe: Probe) -> tuple[list[float], list[float]]:
    """Raw and scaled times of ``import selfimprove.cli`` in fresh
    interpreters, timed inside the child so that process start and exit are
    left out; the first run, which may write the bytecode cache, is discarded."""
    raw, scaled = [], []
    for i in range(SETUP_SAMPLES + 1):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise BenchmarkError("importing selfimprove.cli failed: " + proc.stderr[-500:])
        seconds = float(proc.stdout.strip().splitlines()[-1])
        value = probe.scaled(seconds, SETUP_PROBE_S)
        if i:
            raw.append(seconds)
            scaled.append(value)
    return raw, scaled


def summary(samples: list[float]) -> dict:
    """Median, quartiles and the highest percentile with ten samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    out = {"count": n, "median": statistics.median(ordered),
           "min": ordered[0], "max": ordered[-1], "samples": samples}
    if n >= 2:
        q1, _, q3 = statistics.quantiles(ordered, n=4)
        out["q1"], out["q3"] = q1, q3
    if n > 10:
        rank = n - 10
        out["tail_percentile"] = round(100.0 * rank / n, 1)
        out["tail_value"] = ordered[rank - 1]
    return out


def environment(numpy_version: str) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy_version,
            "platform": platform.platform(), "git_commit": git_commit()}


def git_commit() -> str:
    """HEAD of the checkout read from ``.git`` without running git; the
    benchmark may run in an export that has no ``.git``."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def measure_end_to_end(session: Session, seconds: float, numpy, kind: str) -> tuple[dict, dict]:
    env = child_env()
    setup_raw, setup = measure_setup(env, Probe(numpy, "python"))
    probe = Probe(numpy, kind)
    rss_mb = session.run_child(env)
    probe.measure(Probe.SHARE * session.run()[0])    # warm-up
    raw, samples = [], []
    start = time.perf_counter()
    while len(samples) < MIN_SAMPLES or time.perf_counter() - start < seconds:
        raw.append(session.run()[0])
        samples.append(probe.scaled(raw[-1]))
    metrics = {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "run_s": {"value": statistics.median(samples), "unit": "s"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }
    return metrics, {"setup_s": summary(setup), "setup_raw_s": summary(setup_raw),
                     "run_s": summary(samples), "run_raw_s": summary(raw),
                     "probe": kind, "probe_s": summary(probe.times),
                     "probe_reference_s": probe.reference_s,
                     "peak_rss_mb": rss_mb}


def measure_traced(session: Session, package, seconds: float, spans_path: Path) -> tuple[dict, dict]:
    tracer = tracing.Tracer()
    root = tracer.wrap("cli.main", session.main)
    session.run()                                    # warm-up
    plain, traced, per_call = [], [], []
    first_call_end = 0
    start = time.perf_counter()
    while len(traced) < 2 or time.perf_counter() - start < seconds:
        plain.append(session.run()[0])
        tracer.begin_call(len(traced))
        first = len(tracer.spans)
        with tracing.patched(tracer, package):
            wall, out_bytes = session.run(root)
        traced.append(wall)
        per_call.append(tracing.call_metrics(tracer.spans, first, tracer.counts, out_bytes))
        first_call_end = first_call_end or len(tracer.spans)
    # Only the first traced call's spans: all of them would reach ~60 MB of CSV.
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.write(spans_path, first_call_end)

    overhead = statistics.median(t - p for t, p in zip(traced, plain))
    metrics = {}
    for name, unit in tracing.PER_LAYER:
        median = statistics.median if unit in ("s", "ratio") else statistics.median_low
        value = (overhead if name == "trace.overhead_s"
                 else median(call.get(name, 0) for call in per_call))
        metrics[name] = {"value": value, "unit": unit}
    extra = sorted(set().union(*per_call) - {n for n, _ in tracing.PER_LAYER})
    return metrics, {"untraced_run_s": summary(plain), "traced_run_s": summary(traced),
                     "per_call": per_call, "unlisted_metrics": extra}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=PINNED_SEEDS[0],
                        help="workload seed; only sim_large_world uses it")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        package, cli = load_program()
    except (BenchmarkError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import numpy

    workload = WORKLOADS[args.workload]
    argv_w = workload.args(args.seed)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    session = Session(cli.main, argv_w, expected_outputs(args.workload, args.seed), tag)
    try:
        if args.trace:
            metrics, detail = measure_traced(session, package, args.seconds,
                                             WORK / "spans" / f"{args.workload}.csv")
        else:
            metrics, detail = measure_end_to_end(session, args.seconds, numpy, workload.probe)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        session.close()

    fail_frac = session.failed / session.attempted
    record = {
        "workload": args.workload, "argv": argv_w, "seed": args.seed,
        "seed_used": workload.seeded, "why": workload.why, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(numpy.__version__),
        "attempted": session.attempted, "failed": session.failed, "fail_frac": fail_frac,
        "problems": session.problems[:20], "output_sha256": session.hashes,
        "calls_with_other_hashes": session.hash_changes,
        "gate": {"rel_tol": gate.REL_TOL, "abs_tol": gate.ABS_TOL},
        "metrics": metrics, "detail": detail,
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    result_path = results / f"{tag}.json"
    result_path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    print(f"workload {args.workload}: selfimprove {' '.join(argv_w)}"
          f" ({'seeded' if workload.seeded else 'seed-free'})")
    for name, m in metrics.items():
        note = ""
        if name == "run_s":
            s = detail["run_s"]
            note = f"  median of {s['count']} calls"
            if "tail_percentile" in s:
                note += f"; p{s['tail_percentile']:g} {s['tail_value']:.4f} s"
        value = m["value"] if isinstance(m["value"], int) else f"{m['value']:.6g}"
        print(f"  {name:<44} {value} {m['unit']}{note}")
    print(f"  {'fail_frac':<44} {fail_frac:.6g} ratio  "
          f"({session.failed} of {session.attempted} calls failed)")
    for problem in session.problems[:5]:
        print(f"  problem: {problem}")
    print(f"  details: {result_path.relative_to(ROOT)}")
    print(json.dumps({"correct": session.failed == 0, "attempted": session.attempted,
                      "failed": session.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
