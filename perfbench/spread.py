"""Run the benchmark on several seeds and summarise each metric.

    python3 perfbench/spread.py --workload NAME --seeds 1-10 [--seconds 20] [--trace 0|1]

Runs ``run.py`` once per seed, one after another, and prints for every
metric the median, the quartiles (``statistics.quantiles(n=4)``), the
quartile spread as a share of the median, and the sample count, as a
Markdown table.  Each run's JSON result is echoed first.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", default="20")
    parser.add_argument("--trace", default="0")
    args = parser.parse_args()
    values, units, failed, attempted = {}, {}, 0, 0
    for seed in args.seeds:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
               "--seconds", args.seconds, "--trace", args.trace]
        proc = subprocess.run(cmd, cwd=HERE.parent, stdout=subprocess.PIPE, text=True, check=False)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(json.dumps({"seed": seed, **result}), flush=True)
        failed += result["failed"]
        attempted += result["attempted"]
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
    print(f"\n{args.workload}, trace {args.trace}: {len(args.seeds)} runs, {attempted} operations, {failed} failed\n")
    print("| metric | unit | median | q1 | q3 | spread | n |")
    print("|---|---|---|---|---|---|---|")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0], None, vals[0])
        spread = (q3 - q1) / med if med else 0.0
        print(f"| {name} | {units[name]} | {med:.4g} | {q1:.4g} | {q3:.4g} | {spread:.3f} | {len(vals)} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
