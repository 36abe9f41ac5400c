"""End-to-end simulator-throughput benchmark on the paper's grid.

Run from the root of a checkout::

    python3 perfbench/run.py --workload ws-multi --seed 1994 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs the workload untraced, then twice with the per-layer
span tracer installed; it reports the per-layer metrics of the first
traced pass and fails when the second does not repeat its model
counters and call counts exactly.  Either way every cell's simulated
stats are checked against a reference digest, and the last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  Lines before it are per-cell detail.

``--record-digests`` recomputes ``digests.json`` (the reference digests
at the default seed) and writes it only when every cell's fast-engine
digest matches the ``naive`` engine's.  See README.md beside this file.
"""

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload",
                        choices=("ws-multi", "ws-single", "mp-dsm",
                                 "fanout"))
    parser.add_argument("--seed", type=int, default=1994)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="cell sizes; 'tiny' is for the self-test")
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "api.py")):
        print("perfbench: no repro sources under %s" % src,
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import bench
    # The scoreboard backend is an implementation detail with no effect
    # on results; pin the default so the environment cannot pick it.
    os.environ.pop("REPRO_BACKEND", None)
    if args.record_digests:
        return bench.record_digests()
    if args.workload is None:
        parser.error("--workload is required")
    result = bench.run(args.workload, args.seed, args.seconds, args.trace,
                       size=args.size,
                       out=lambda line: print(line, flush=True))
    print(json.dumps(result, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
