#!/usr/bin/env python3
"""Layer-by-layer benchmark of the MAS-Attention tiling explorer.

Run from the root of a repository checkout::

    python3 layerbench/run.py --workload table1-cold --seed 0 --seconds 20 --trace 0

``--trace 0`` times untraced sweep passes and prints the end-to-end metrics;
``--trace 1`` interleaves traced and untraced passes and prints the per-layer
metrics.  Every pass is checked.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it is a JSON record of the same run, stamped
with the host and the sample counts.  ``layerbench/README.md`` describes the
workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0, help="measured sweep time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full", help="tiny: smoke-test inputs"
    )
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"layerbench: library sources not found at {SRC / 'repro'}", file=sys.stderr)
        return 2
    # Library settings from the environment would change what is measured.
    for name in [name for name in os.environ if name.startswith("MAS_")]:
        del os.environ[name]
    sys.path.insert(0, str(SRC))
    import harness
    import workloads

    if args.workload not in workloads.WORKLOADS:
        known = ", ".join(workloads.WORKLOADS)
        print(f"layerbench: unknown workload {args.workload!r} (known: {known})", file=sys.stderr)
        return 2
    work = ROOT / ".layerbench"
    work.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=work))
    try:
        result = harness.Bench(args, scratch).run()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
