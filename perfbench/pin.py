"""Write the reference outputs the correctness gate compares against.

    python3 perfbench/pin.py

Runs every workload once (``sim_large_world`` once per pinned seed) and
stores its outputs under ``perfbench/reference/``.  Re-pin only when a
change alters the program's output on purpose, and say so in that change.
"""

from __future__ import annotations

import shutil
import sys
import tempfile

import run


def main() -> int:
    _, cli = run.load_program()
    for name, workload in run.WORKLOADS.items():
        for seed in run.PINNED_SEEDS if workload.seeded else (None,):
            target = run.gate.reference_dir(name, seed)
            with tempfile.TemporaryDirectory(dir=run.ROOT) as out_dir:
                code, stdout, stderr, _ = run.call_main(
                    cli.main, [*workload.args(seed or 0), "--out", out_dir])
                if code is None:
                    print(stderr, file=sys.stderr)
                    return 1
                expected, hashes = run.gate.collect(out_dir, stdout, code)
            shutil.rmtree(target, ignore_errors=True)
            expected.save(target)
            print(f"pinned {target.relative_to(run.ROOT)} (exit {code}): "
                  + ", ".join(f"{k} {v[:12]}" for k, v in sorted(hashes.items())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
