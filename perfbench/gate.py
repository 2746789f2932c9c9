"""Correctness gate: a workload call's outputs against pinned references.

References live in ``reference/<workload>/`` (seeded workloads: one
``seed-<n>/`` directory per pinned seed) and hold every output file, the
normalised manifest, ``stdout.txt`` and ``exit_code.txt``, as written by the
program at the commit that defined this benchmark (see ``pin.py``).

Values are compared field by field: booleans, integers and other strings
exactly, floats within ``REL_TOL``/``ABS_TOL``.  The manifest is compared
without ``duration_seconds``, without ``options.out`` and with output paths
reduced to file names, since those depend on the run and not the result.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import re
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference"

# Root finding stops at an absolute width of 1e-12, so a different but
# equally valid solver may move a root by about that much.
REL_TOL = 1e-9
ABS_TOL = 1e-11

_NUMBER = re.compile(r"([-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?)")
_INTEGER = re.compile(r"[-+]?\d+")


def same_value(expected: str, actual: str) -> bool:
    if expected == actual:
        return True
    if _INTEGER.fullmatch(expected) and _INTEGER.fullmatch(actual):
        return False
    try:
        e, a = float(expected), float(actual)
    except ValueError:
        return False
    if math.isnan(e) or math.isnan(a):
        return math.isnan(e) and math.isnan(a)
    return math.isclose(e, a, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def diff_csv(expected: str, actual: str) -> str | None:
    """First differing field of two CSV texts, or None when they agree."""
    exp_rows = list(csv.reader(io.StringIO(expected)))
    act_rows = list(csv.reader(io.StringIO(actual)))
    if len(exp_rows) != len(act_rows):
        return f"{len(act_rows)} rows, expected {len(exp_rows)}"
    for i, (exp, act) in enumerate(zip(exp_rows, act_rows)):
        if len(exp) != len(act):
            return f"row {i}: {len(act)} fields, expected {len(exp)}"
        for j, (e, a) in enumerate(zip(exp, act)):
            if not same_value(e, a):
                return f"row {i} field {j}: {a!r}, expected {e!r}"
    return None


def diff_text(expected: str, actual: str) -> str | None:
    """First differing line of two texts, comparing numbers in them as values."""
    exp_lines, act_lines = expected.splitlines(), actual.splitlines()
    if len(exp_lines) != len(act_lines):
        return f"{len(act_lines)} lines, expected {len(exp_lines)}"
    for i, (exp, act) in enumerate(zip(exp_lines, act_lines)):
        exp_parts, act_parts = _NUMBER.split(exp), _NUMBER.split(act)
        if len(exp_parts) != len(act_parts) or not all(
                same_value(e, a) for e, a in zip(exp_parts, act_parts)):
            return f"line {i}: {act!r}, expected {exp!r}"
    return None


def normalised_manifest(text: str) -> str:
    manifest = json.loads(text)
    manifest.pop("duration_seconds", None)
    manifest.get("options", {}).pop("out", None)
    manifest["outputs"] = [os.path.basename(p) for p in manifest.get("outputs", [])]
    return json.dumps(manifest, indent=2, sort_keys=True) + "\n"


def reference_dir(workload: str, seed: int | None) -> Path:
    base = REFERENCE / workload
    return base if seed is None else base / f"seed-{seed}"


class Expected:
    """Outputs one workload call must produce."""

    def __init__(self, files: dict[str, str], stdout: str, exit_code: int) -> None:
        self.files = files          # file name -> text; manifests normalised
        self.stdout = stdout
        self.exit_code = exit_code

    @classmethod
    def load(cls, directory: Path) -> "Expected":
        files = {p.name: p.read_text(encoding="utf-8") for p in sorted(directory.iterdir())
                 if p.is_file() and p.name not in ("stdout.txt", "exit_code.txt")}
        return cls(files, (directory / "stdout.txt").read_text(encoding="utf-8"),
                   int((directory / "exit_code.txt").read_text(encoding="utf-8")))

    def save(self, directory: Path) -> None:
        directory.mkdir(parents=True, exist_ok=True)
        for name, text in self.files.items():
            (directory / name).write_text(text, encoding="utf-8")
        (directory / "stdout.txt").write_text(self.stdout, encoding="utf-8")
        (directory / "exit_code.txt").write_text(f"{self.exit_code}\n", encoding="utf-8")


def collect(out_dir: Path, stdout: str, exit_code: int) -> tuple[Expected, dict[str, str]]:
    """A call's outputs in reference form, and the SHA-256 of each as written."""
    files, hashes = {}, {}
    out_dir = Path(out_dir)
    for path in sorted(out_dir.iterdir()) if out_dir.is_dir() else ():
        raw = path.read_bytes()
        hashes[path.name] = hashlib.sha256(raw).hexdigest()
        text = raw.decode("utf-8")
        files[path.name] = (normalised_manifest(text) if path.name.startswith("manifest_")
                            else text)
    hashes["stdout"] = hashlib.sha256(stdout.encode("utf-8")).hexdigest()
    return Expected(files, stdout, exit_code), hashes


def compare(expected: Expected, actual: Expected) -> list[str]:
    """Every disagreement between two sets of outputs; empty when they agree."""
    problems = []
    if actual.exit_code != expected.exit_code:
        problems.append(f"exit code {actual.exit_code}, expected {expected.exit_code}")
    if sorted(actual.files) != sorted(expected.files):
        problems.append(f"output files {sorted(actual.files)}, expected {sorted(expected.files)}")
    for name in sorted(set(actual.files) & set(expected.files)):
        exp, act = expected.files[name], actual.files[name]
        if name.endswith(".json"):
            problem = None if json.loads(exp) == json.loads(act) else diff_text(exp, act)
        else:
            problem = diff_csv(exp, act)
        if problem:
            problems.append(f"{name}: {problem}")
    problem = diff_text(expected.stdout, actual.stdout)
    if problem:
        problems.append(f"stdout: {problem}")
    return problems
