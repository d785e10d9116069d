"""Benchmark of the trace-to-modes pipeline.

    python3 perfbench/run.py --workload switching|wide|repro --seed N \
        --seconds S --trace 0|1

Runs whole operations of one workload, one after another, each in a
fresh process (``worker.py``), until ``--seconds`` have passed and at
least four operations have run.  Every operation's outputs are checked
against computations made apart from the program; an operation fails if
its process fails or a check does.  With ``--trace 0`` the end-to-end
metrics are the medians over the operations of the run; with
``--trace 1`` every public function of the traced layers records spans
and the per-layer metrics are reported instead, as medians over the
first four operations, whose inputs a seed fixes.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
RUN_LIMIT_S = 170.0
# the median of four operations averages the middle two: on this
# benchmark's per-operation times its spread over seeds is about a
# quarter below that of the median of three, or of five
MIN_OPS = 4
# top-level self times must cover the traced pass up to this share
TRACE_GAP = 0.02


def load_spec():
    """Workload names and the units of the end-to-end and per-layer
    metrics, from ``BENCHMARK.json`` at the root of the checkout."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {key: {m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer")}
    return [w["name"] for w in spec["workloads"]], units["end_to_end"], units["per_layer"]


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def spawn(args, index: int, out: Path, deadline: float):
    """Run one worker to its end; returns (result dict or None, error)."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--trace", str(args.trace),
        "--index", str(index), "--out", str(out),
    ]
    cmd += ["--spawned-at", repr(time.monotonic())]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        stdout, _ = proc.communicate(timeout=max(5.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None, "timed out"
    if proc.returncode != 0:
        return None, f"worker exited with code {proc.returncode}"
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]), None
    except (IndexError, ValueError):
        return None, "worker printed no result"


def repro_determinism(passes) -> list:
    """Every pass of a run, and every run of the same program sources in
    this checkout, must write the same artefacts byte for byte (manifest
    timestamp aside)."""
    hashes = [p["hashes"] for p in passes]
    fails = [f"repro pass {i + 1} artefacts differ from pass 1" for i, h in enumerate(hashes) if h != hashes[0]]
    if hashes:
        sources = hashlib.sha256()
        for path in sorted((ROOT / "src").rglob("*.py")):
            sources.update(path.read_bytes())
        ref_path = OUT / f"repro_hashes_{sources.hexdigest()[:16]}.json"
        if ref_path.exists():
            if json.loads(ref_path.read_text(encoding="utf-8")) != hashes[0]:
                fails.append(f"repro artefacts differ from an earlier run recorded in {ref_path.name}")
        else:
            ref_path.write_text(json.dumps(hashes[0], sort_keys=True), encoding="utf-8")
    return fails


def main() -> int:
    workloads, end_to_end, per_layer = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "contactmodes" / "__init__.py").is_file():
        log(f"error: no contactmodes sources under {ROOT / 'src'}")
        return 2

    begin = time.monotonic()
    deadline = begin + RUN_LIMIT_S
    work = OUT / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    passes, setups = [], []
    attempted = failed = 0
    while True:
        attempted += 1
        out = work / f"pass{attempted}"
        res, err = spawn(args, attempted - 1, out, deadline)
        if res is not None:
            setups.append(res["setup_s"])
            err = "; ".join(res["failures"]) or None
        if err:
            failed += 1
            log(f"{args.workload} operation {attempted} failed: {err}")
        else:
            passes.append(res)
            log(f"{args.workload} operation {attempted}: wall {res['wall_s']:.3f} s, setup {res['setup_s']:.3f} s")
        shutil.rmtree(out, ignore_errors=True)
        if attempted >= MIN_OPS and time.monotonic() - begin >= args.seconds:
            break

    problems = repro_determinism(passes) if args.workload == "repro" else []
    metrics = {}
    if passes and args.trace:
        passes = passes[:MIN_OPS]
        for p in passes:
            layers = p["layers"]
            if layers["trace.wall_s"] - layers["trace.self_sum_s"] > TRACE_GAP * layers["trace.wall_s"]:
                problems.append(f"spans cover {layers['trace.self_sum_s']:.3f} s of a {layers['trace.wall_s']:.3f} s pass")
            layers.update(p["quality"])
        unmatched = sorted(set(passes[0]["layers"]) ^ set(per_layer))
        if unmatched:
            log(f"error: traced figures and the per-layer metrics of BENCHMARK.json differ in {unmatched}")
            return 2
        for name, unit in per_layer.items():
            metrics[name] = {"value": statistics.median(p["layers"][name] for p in passes), "unit": unit}
    elif passes:
        for name, unit in end_to_end.items():
            values = setups if name == "setup_s" else [p[name] for p in passes]
            metrics[name] = {"value": statistics.median(values), "unit": unit}
    for msg in problems:
        log(f"{args.workload}: {msg}")
    for name, m in metrics.items():
        log(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    result = {"correct": failed == 0 and not problems and bool(passes), "attempted": attempted,
              "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if passes else 1


if __name__ == "__main__":
    sys.exit(main())
