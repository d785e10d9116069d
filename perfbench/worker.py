"""One operation of a workload in a fresh process.

    python3 perfbench/worker.py --workload NAME --seed N --index I --trace 0|1 \
        --spawned-at T --out DIR

Set-up runs from interpreter start (``--spawned-at`` is the parent's
``time.monotonic()`` just before it started this process) through
``import contactmodes`` to the workload's inputs in memory.  The pass is
then timed, the RSS high-water read, and the output checks run outside
the timed region.  Nothing the benchmark needs for itself (the checks and
their ``scipy.stats``, or the tracer of an untraced run) is imported
before the timed regions end, so set-up time and peak RSS are the
program's own.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import contactmodes as cm  # noqa: E402

import workloads  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, help="a workload of BENCHMARK.json, checked by run.py")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--index", type=int, default=0, help="operation number within the run")
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    seed = workloads.input_seed(args.seed, args.index)
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    inputs = workloads.setup(cm, args.workload, seed)
    result = {"setup_s": time.monotonic() - args.spawned_at}
    start = time.perf_counter()
    outputs = workloads.run(cm, args.workload, inputs, seed, args.out)
    wall = time.perf_counter() - start
    result["wall_s"] = wall
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux: KiB
    if tracer is not None:
        tracer.restore()
        result["layers"] = tracing.layer_metrics(tracer.spans, start, wall)
    result["failures"], result["quality"] = workloads.check(cm, args.workload, inputs, outputs, seed, args.out)
    if args.workload == "repro":
        import checks

        result["hashes"] = checks.artefact_hashes(args.out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
