#!/usr/bin/env python3
"""Run one benchmark workload and print its result as the last stdout line.

Usage, from the repository root::

    python3 perfbench/run.py --workload fig1-grid --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones (see ``perfbench/README.md``).  The line before the result is a JSON
report with the run's provenance and raw samples.  The exit code is 0 only
when every correctness check passed.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import sys
import tempfile
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from common import ROOT, SRC  # noqa: E402

WORKLOADS = ("fig1-grid", "window-paper-scale", "service-mixed")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe",
        action="store_true",
        help="only set a sweep workload up, then exit (times set-up in a fresh interpreter)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    # A terminated run still unwinds, so the servers it started are stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    temp_root = ROOT / ".perfbench_tmp"
    temp_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=temp_root))
    try:
        if args.workload == "service-mixed":
            import serving as module
        else:
            import sweeps as module

            if args.setup_probe:
                module.prepare(args.workload, args.seed, workdir)
                return 0
        outcome = module.run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            temp_root.rmdir()
        except OSError:
            pass
    correct = outcome.failed == 0
    outcome.report["failures"] = outcome.failures
    print(json.dumps({"report": outcome.report}, sort_keys=True, default=str))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in outcome.metrics.items()
                },
            }
        )
    )
    if not correct:
        print(f"perfbench: {outcome.failed} of {outcome.attempted} operations failed", file=sys.stderr)
        for failure in outcome.failures:
            print(f"  {failure}", file=sys.stderr)
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:  # noqa: BLE001 - report, print no result, fail
        traceback.print_exc()
        sys.exit(1)
