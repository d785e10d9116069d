"""Command-line front end.

Subcommands mirror the pipeline stages: ``sample`` draws tree batches
from a trace, ``analyse`` runs joint diagonalisation + mode discovery +
graph reports on a batch, ``sir`` runs the epidemic experiment,
``synth`` emits synthetic traces with ground-truth labels, and
``repro`` chains all four on the bundled switching experiment.  Every
run directory gets a ``config.json`` echo and a ``manifest.json``
listing the artefacts and the config hash; the manifest timestamp is
the only non-reproducible byte in a run.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical
non-convergence (partial outputs are kept and flagged in the manifest).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .clustering import (
    fiedler_dendrogram,
    shortest_path_graph,
    threshold_graph,
    write_dot,
    write_newick,
    zero_diagonal,
)
from .epidemic import default_params, sir_experiment, write_curves_csv, write_ranking_json
from .errors import ConvergenceError, DataError
from .generators import (
    default_switching_schedule,
    gen_switching,
    read_schedule,
    write_labels,
    write_schedule,
)
from .modes import decompose, kde_density, write_report
from .network import (
    aggregate_static,
    contact_ends,
    ingest_trace,
    read_label_map,
    write_label_map,
    write_trace,
)
from .sampling import read_batch, sample_batch, write_batch


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _write_json(path: Path, payload) -> bytes:
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    data = text.encode("utf-8")
    path.write_bytes(data)
    return data


def _config_payload(args: argparse.Namespace) -> dict:
    # the output directory is deliberately left out so that the same
    # experiment written to two places hashes identically
    skip = {"func", "out"}
    payload = {k: v for k, v in sorted(vars(args).items()) if k not in skip}
    payload["version"] = __version__
    return payload


def _write_manifest(
    out: Path,
    config_bytes: bytes,
    artefacts,
    status: str = "ok",
) -> None:
    payload = {
        "artefacts": sorted(str(Path(a).relative_to(out)) for a in artefacts),
        "config_sha256": hashlib.sha256(config_bytes).hexdigest(),
        "status": status,
        "version": __version__,
        "created_at": datetime.now(timezone.utc).isoformat(),
    }
    _write_json(out / "manifest.json", payload)


def _prepare_out(path: str) -> Path:
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_net(args: argparse.Namespace):
    label_map = read_label_map(args.label_map) if args.label_map else None
    return ingest_trace(
        args.trace,
        fmt=args.format,
        granularity=args.granularity,
        label_map=label_map,
    )


# --------------------------------------------------------------------------
# core pipeline stages (shared between the subcommands and `repro`): each
# reads its settings from ``opts``, keyed by the parser's dest names, and
# lists every file it writes in ``artefacts`` as it lands


def _write(artefacts: list, path: Path, write, *args) -> None:
    write(*args, path)
    artefacts.append(path)


def _stage_sample(source, horizon, opts, out: Path, artefacts: list):
    batch = sample_batch(source, opts["m"], opts["seed"], horizon=horizon)
    _write(artefacts, out / "batch.txt", write_batch, batch)
    return batch


def _write_jd(jd, out: Path, artefacts: list) -> None:
    _write(artefacts, out / "jd.json", jd.write_json)

    grid, density = kde_density(jd.deviations)
    kde_path = out / "kde.csv"
    with open(kde_path, "w", encoding="utf-8") as fh:
        fh.write("delta,density\n")
        for g, d in zip(grid, density):
            fh.write(f"{float(g)!r},{float(d)!r}\n")
    artefacts.append(kde_path)


def _stage_analyse(batch, opts, out: Path, artefacts: list) -> None:
    """Run ``decompose`` and write its reports and graphs."""
    try:
        report = decompose(
            batch,
            k_max=opts["k_max"],
            seed=opts["seed"],
            tol=opts["jd_tol"],
            max_sweeps=opts["max_sweeps"],
            bin_width=opts["bin_width"],
            log_delta=opts["log_delta"],
            n_restarts=opts["restarts"],
        )
    except ConvergenceError as exc:
        if exc.result is not None:
            _write_jd(exc.result, out, artefacts)
        raise
    _write_jd(report.overall_result, out, artefacts)
    artefacts.extend(write_report(report, out))

    transform = "neglog" if opts["neglog"] else "reciprocal"
    graphs = [("overall", report.overall_matrix)] + [
        (f"mode_{m.index}", m.matrix) for m in report.modes
    ]
    for name, matrix in graphs:
        thr = zero_diagonal(threshold_graph(matrix, opts["threshold"]))
        _write(artefacts, out / f"{name}_threshold.dot", write_dot, thr)
        spg = shortest_path_graph(matrix, epsilon=opts["epsilon"], transform=transform)
        _write(artefacts, out / f"{name}_paths.dot", write_dot, spg)
        if batch.n_nodes >= 2:
            dendro = fiedler_dendrogram(thr, min_size=opts["min_size"])
            _write(artefacts, out / f"{name}.newick", write_newick, dendro)


def _stage_sir(net, opts, out: Path, artefacts: list) -> None:
    params = default_params(
        net,
        p_transmit=opts["p"],
        recovery_mean=opts["recovery_mean"],
        start_step=opts["start_step"],
        horizon=opts["horizon"],
    )
    curves = sir_experiment(
        net,
        params,
        runs_per_node=opts["runs"],
        bootstrap_resamples=opts["bootstrap"],
        seed=opts["seed"],
        ci=opts["ci"],
        per_step_contacts=opts["per_step_contacts"],
    )
    _write(artefacts, out / "curves.csv", write_curves_csv, curves)
    _write(artefacts, out / "ranking.json", write_ranking_json, curves, net.n_nodes)


def _stage_synth(schedule, opts, out: Path, artefacts: list):
    result = gen_switching(schedule, seed=opts["seed"], tail_exponent=opts["tail_exponent"], min_gap=opts["min_gap"])
    _write(artefacts, out / "trace.csv", write_trace, result.network)
    _write(artefacts, out / "labels.csv", write_labels, result.labels)
    _write(artefacts, out / "label_map.json", write_label_map, result.network)
    _write(artefacts, out / "schedule.json", write_schedule, schedule)
    return result


# --------------------------------------------------------------------------
# subcommand handlers: each writes into ``out`` and appends every file to
# ``artefacts`` as it lands; ``main`` writes the config and the manifest


def _cmd_sample(args, out: Path, artefacts: list) -> None:
    net = _load_net(args)
    source = aggregate_static(net, net.t_min, float(contact_ends(net).max())) if args.static else net
    _stage_sample(source, args.horizon, vars(args), out, artefacts)


def _analyse_batch(args):
    if args.batch:
        return read_batch(args.batch)
    if args.trace:
        net = _load_net(args)
    elif args.schedule or args.default_schedule:
        schedule = read_schedule(args.schedule) if args.schedule else default_switching_schedule()
        net = gen_switching(schedule, seed=args.seed).network
    else:
        raise UsageError("analyse needs --batch, --trace or a schedule")
    return sample_batch(net, args.m, args.seed, horizon=args.horizon)


def _cmd_analyse(args, out: Path, artefacts: list) -> None:
    _stage_analyse(_analyse_batch(args), vars(args), out, artefacts)


def _cmd_sir(args, out: Path, artefacts: list) -> None:
    _stage_sir(_load_net(args), vars(args), out, artefacts)


def _cmd_synth(args, out: Path, artefacts: list) -> None:
    schedule = read_schedule(args.schedule) if args.schedule else default_switching_schedule(
        n_nodes=args.n_nodes, segment_steps=args.segment_steps
    )
    _stage_synth(schedule, vars(args), out, artefacts)


def _cmd_repro(args, out: Path, artefacts: list) -> None:
    # the analyse and SIR settings that `repro` does not take as options;
    # its own options reach every stage under their dest names
    fixed = {
        "log_delta": False,
        "bin_width": float(args.segment_steps),
        "epsilon": 0.0,
        "neglog": False,
        "min_size": 1,
        "ci": 0.95,
        "per_step_contacts": False,
    }
    opts = {**vars(args), **fixed}
    schedule = default_switching_schedule(n_nodes=args.n_nodes, segment_steps=args.segment_steps)
    net = _stage_synth(schedule, opts, _prepare_out(out / "synth"), artefacts).network
    # --horizon is the SIR window; the trees flood to the end of the trace
    batch = _stage_sample(net, None, opts, _prepare_out(out / "sample"), artefacts)
    _stage_analyse(batch, opts, _prepare_out(out / "analyse"), artefacts)
    _stage_sir(net, opts, _prepare_out(out / "sir"), artefacts)


# --------------------------------------------------------------------------
# parser


def _add_trace_options(p, required: bool = True) -> None:
    p.add_argument("--trace", required=required, help="contact trace file")
    p.add_argument("--format", choices=("csv", "ws4"), default="csv", help="trace format")
    p.add_argument("--granularity", type=float, default=1.0, help="seconds per time step")
    p.add_argument("--label-map", default=None, help="pinned label map JSON")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="contactmodes", description=__doc__.split("\n\n")[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="draw a tree batch from a trace")
    _add_trace_options(p)
    p.add_argument("--m", type=int, default=10000, help="number of tree samples")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--horizon", type=float, default=None, help="flooding horizon in seconds")
    p.add_argument("--static", action="store_true", help="aggregate the trace and BFS-sample instead of flooding")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("analyse", help="joint diagonalisation, modes and graph reports")
    p.add_argument("--batch", default=None, help="batch file from `sample`")
    _add_trace_options(p, required=False)
    p.add_argument("--schedule", default=None, help="generator schedule JSON (inline synthesis)")
    p.add_argument("--default-schedule", action="store_true", help="use the bundled 4-segment schedule")
    p.add_argument("--m", type=int, default=10000, help="samples when generating inline")
    p.add_argument("--horizon", type=float, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jd-tol", type=float, default=1e-9)
    p.add_argument("--max-sweeps", type=int, default=100)
    p.add_argument("--k-max", type=int, default=8)
    p.add_argument("--restarts", type=int, default=10)
    p.add_argument("--bin-width", type=float, default=None)
    p.add_argument("--threshold", type=float, default=0.1, help="presentation-graph weight threshold")
    p.add_argument("--epsilon", type=float, default=0.0, help="shortest-path weight floor")
    p.add_argument("--min-size", type=int, default=1, help="dendrogram minimum block size")
    p.add_argument("--log-delta", action="store_true", help="fit modes on log deviations")
    p.add_argument("--neglog", action="store_true", help="use -log(w) path lengths instead of 1/w")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_analyse)

    p = sub.add_parser("sir", help="SIR epidemic experiment over a trace")
    _add_trace_options(p)
    p.add_argument("--p", type=float, default=0.5, help="per-contact transmission probability")
    p.add_argument("--recovery-mean", type=float, default=80.0, help="mean infectious duration in steps")
    p.add_argument("--start-step", type=int, default=250)
    p.add_argument("--horizon", type=int, default=None, help="steps to simulate (default: to trace end)")
    p.add_argument("--runs", type=int, default=30, help="runs per seed node")
    p.add_argument("--bootstrap", type=int, default=200, help="bootstrap resamples")
    p.add_argument("--ci", type=float, default=0.95)
    p.add_argument("--per-step-contacts", action="store_true", help="one transmission trial per step of a long contact")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sir)

    p = sub.add_parser("synth", help="generate a synthetic switching trace")
    p.add_argument("--schedule", default=None, help="schedule JSON (default: bundled 4-segment)")
    p.add_argument("--n-nodes", type=int, default=50)
    p.add_argument("--segment-steps", type=int, default=700)
    p.add_argument("--tail-exponent", type=float, default=1.5)
    p.add_argument("--min-gap", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("repro", help="run the bundled switching experiment end to end")
    p.add_argument("--n-nodes", type=int, default=30)
    p.add_argument("--segment-steps", type=int, default=150)
    p.add_argument("--m", type=int, default=400)
    p.add_argument("--tail-exponent", type=float, default=1.5)
    p.add_argument("--min-gap", type=float, default=1.0)
    p.add_argument("--jd-tol", type=float, default=1e-6)
    p.add_argument("--max-sweeps", type=int, default=100)
    p.add_argument("--k-max", type=int, default=6)
    p.add_argument("--restarts", type=int, default=5)
    p.add_argument("--threshold", type=float, default=0.1)
    p.add_argument("--p", type=float, default=0.5)
    p.add_argument("--recovery-mean", type=float, default=80.0)
    p.add_argument("--start-step", type=int, default=50)
    p.add_argument("--horizon", type=int, default=200)
    p.add_argument("--runs", type=int, default=5)
    p.add_argument("--bootstrap", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_repro)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        out = _prepare_out(args.out)
        cfg = _write_json(out / "config.json", _config_payload(args))
        artefacts = [out / "config.json"]
        try:
            args.func(args, out, artefacts)
        except ConvergenceError as exc:
            # the one place a numerical failure exits: whatever landed is listed
            _write_manifest(out, cfg, artefacts, status="convergence-failure")
            print(f"error: {exc}", file=sys.stderr)
            return 3
        _write_manifest(out, cfg, artefacts)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (DataError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"wrote {len(artefacts)} artefact(s) to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
