#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload train_inmem --seed 1 --seconds 15 --trace 0

Workloads: train_inmem, train_partitioned, serve_direct, serve_routed (see
README.md next to this file).  With ``--trace 0`` the last stdout line
carries every end-to-end metric; with ``--trace 1`` every per-layer metric,
and a Chrome trace-event file is written under ``.perfbench/``.  The line
before it is the run's provenance.  Exit status is 0 only when the run
completed; ``"correct"`` in the result says whether the outputs checked out.
"""

from __future__ import annotations

import argparse
import sys

from common import END_TO_END, PER_LAYER, SRC, emit, provenance

WORKLOADS = ("train_inmem", "train_partitioned", "serve_direct", "serve_routed")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: the program's sources ({SRC}/repro) are not in this "
              "checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload.startswith("train_"):
        import train as workload
    else:
        import serve as workload
    extras, correct, attempted, failed, values = workload.run(
        args.workload, args.seed, args.seconds, bool(args.trace))
    emit(provenance(args.workload, args.seed, seconds=args.seconds,
                    trace=args.trace, **extras),
         correct, attempted, failed, values,
         PER_LAYER if args.trace else END_TO_END)
    return 0


if __name__ == "__main__":
    sys.exit(main())
