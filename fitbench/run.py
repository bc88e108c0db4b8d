"""Fit benchmark entry point.

Run from the repository root::

    python3 fitbench/run.py --workload staged --seed 3 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (and writes its spans as Chrome trace-event
JSON).  The last line of standard output is the result object; the
line before it is the run's provenance.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Scratch space for staging files and traces (ignored by git).
WORKDIR = os.path.join(HERE, ".work")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("staged", "server-filter", "wide-ingest"))
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reduced", action="store_true",
                        help="1/25-size inputs for the benchmark's own "
                             "tests; marked so it never passes for a full "
                             "run")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: the program's sources are missing ({SRC})",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import runner
    import spans

    os.makedirs(WORKDIR, exist_ok=True)
    run = runner.run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace), WORKDIR, args.reduced)
    for error in run.errors:
        print(f"FAILED: {error}", file=sys.stderr)
    for sample in run.samples:
        line = (f"fit {sample.fit_id} {'traced' if sample.traced else 'timed'}"
                f": {sample.fit_s:.3f} s wall, cycle {sample.cycle_s:.3f} s "
                f"wall, cost {sample.cost:.1f}")
        if not sample.traced:
            line += (f"; reference: fit {sample.fit_ref_s:.3f} s, "
                     f"cycle {sample.cycle_ref_s:.3f} s")
        print(line)
    if args.trace:
        print("self seconds per traced fit:")
        for name, seconds in run.self_time_table():
            print(f"  {name:<24} {seconds:9.4f}")
        path = os.path.join(
            WORKDIR, f"trace-{args.workload}-{args.seed}"
            f"{'-reduced' if args.reduced else ''}.json")
        spans.write_chrome_trace(run.recorder.spans, path)
        print(f"trace: {path}")
    provenance = run.provenance(ROOT)
    result = run.result()
    if args.reduced:
        # An extra key makes the line unacceptable as a full result.
        result["reduced"] = True
    print("provenance " + json.dumps(provenance, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
