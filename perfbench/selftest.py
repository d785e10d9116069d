"""Self-test of the output checks: each must pass on a correct output and
fail on a perturbed one.

    python3 perfbench/selftest.py

Runs on tiny inputs (a 10-node switching trace, 80 trees, and a
``contactmodes repro`` shrunk by its flags) in a few seconds and exits
non-zero if a check passes a perturbed output or fails a correct one.
"""

from __future__ import annotations

import copy
import csv
import json
import shutil
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import contactmodes as cm  # noqa: E402
from contactmodes import cli  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402

OUT = HERE.parent / ".perfbench_out" / "selftest"
TINY_RUNS = 3
TINY_REPRO = ["--n-nodes", "10", "--segment-steps", "60", "--m", "60", "--k-max", "3", "--restarts", "2",
              "--runs", str(TINY_RUNS), "--bootstrap", "10", "--start-step", "20", "--horizon", "60"]


def pipeline_case():
    net = cm.gen_switching(cm.default_switching_schedule(n_nodes=10, segment_steps=100), seed=0).network
    batch = cm.sample_batch(net, 80, seed=0)
    report = cm.decompose(batch, k_max=3, n_restarts=2, tol=1e-2)
    jd = report.overall_result
    model = report.model
    jd_args = dict(label="jd", edges=workloads.tree_edges(batch.samples), n=batch.n_nodes, basis=jd.basis.values.copy(),
                   avg_diag=jd.avg_diag.copy(), deviations=jd.deviations.copy(), history=jd.off2_history.copy())
    mix_args = dict(
        values=jd.deviations.copy(),
        complete=[not s.partial for s in batch.samples],
        components=[(c.weight, c.mean, c.variance) for c in model.components],
        assignments=np.array(model.assignments),
        bic_table=[list(row) for row in model.bic_table],
        bic=model.bic,
        log_likelihood=model.log_likelihood,
        modes=[(m.index, list(m.members)) for m in report.modes],
    )
    ev_a, ev_b, ev_t, _ = net.event_arrays
    s = batch.samples[5]
    flood_args = dict(ev_a=ev_a, ev_b=ev_b, ev_t=ev_t, n=batch.n_nodes, tree_id=5, root=s.root, start=s.start_time,
                      parent=dict(s.parent), infection_times=dict(s.infection_times), reached=set(s.reached),
                      partial=s.partial)
    return jd_args, mix_args, flood_args


def swap_one_label(mix):
    # move one tree into the neighbouring mode, keeping the partition
    i = 0
    old = int(mix["assignments"][i])
    new = (old + 1) % len(mix["components"])
    mix["assignments"][i] = new
    mix["modes"] = [(j, [m for m in members if m != i] + ([i] if j == new else [])) for j, members in mix["modes"]]
    if new not in [j for j, _ in mix["modes"]]:
        mix["modes"].append((new, [i]))


def pipeline_perturbations(jd, mix, flood):
    def nudge_deviation(a):
        a["deviations"][3] += 1e-6

    def raise_history(a):
        a["history"][-1] = a["history"][0] * 1.01

    def skew_basis(a):
        a["basis"][:, 0] *= 1.0 + 1e-8

    def nudge_avg_diag(a):
        a["avg_diag"][0] += 1e-6

    def reorder_bic(a):
        a["bic_table"] = [[k, b - 1e6 if k != len(a["components"]) else b] for k, b in a["bic_table"]]

    def raise_likelihood(a):
        a["log_likelihood"] += 1e-6 * (1.0 + abs(a["log_likelihood"]))

    def nudge_mean(a):
        # the heaviest component's mean moves by a twentieth of its sd
        j = max(range(len(a["components"])), key=lambda i: a["components"][i][0])
        w, mu, var = a["components"][j]
        a["components"][j] = (w, mu + 0.05 * var ** 0.5, var)

    def repoint_parent(a):
        child = max(a["parent"], key=lambda v: a["infection_times"][v])
        others = [v for v in a["reached"] if v not in (child, a["parent"][child])]
        a["parent"][child] = others[0]

    def delay_infection(a):
        child = next(iter(a["parent"]))
        a["infection_times"][child] += 0.5

    def drop_reached(a):
        child = max(a["parent"], key=lambda v: a["infection_times"][v])
        a["reached"].discard(child)
        del a["parent"][child]

    # (name, check, arguments, perturbation, words the failure must hold)
    return [
        ("jd: nudged deviation", checks.check_jd, jd, nudge_deviation, "disagree with U^T H U"),
        ("jd: off2 history rises", checks.check_jd, jd, raise_history, "history increases"),
        ("jd: basis not orthogonal", checks.check_jd, jd, skew_basis, "not orthogonal"),
        ("jd: nudged avg_diag", checks.check_jd, jd, nudge_avg_diag, "avg_diag differs"),
        ("mixture: swapped mode label", checks.check_mixture, mix, swap_one_label, "maximum-posterior"),
        ("mixture: k not the BIC minimum", checks.check_mixture, mix, reorder_bic, "BIC table"),
        ("mixture: raised log-likelihood", checks.check_mixture, mix, raise_likelihood, "log-likelihood"),
        ("mixture: nudged component mean", checks.check_mixture, mix, nudge_mean, "log-likelihood"),
        ("sampling: wrong parent", checks.check_flood, flood, repoint_parent, "edge"),
        ("sampling: late infection time", checks.check_flood, flood, delay_infection, "informed at"),
        ("sampling: reached node dropped", checks.check_flood, flood, drop_reached, "reached set"),
    ]


def _rewrite_csv(path, edit):
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def _edit_json(path, edit):
    data = json.loads(path.read_text(encoding="utf-8"))
    edit(data)
    path.write_text(json.dumps(data), encoding="utf-8")


def repro_perturbations():
    def nudge_jd(out):
        _edit_json(out / "analyse" / "jd.json", lambda d: d["deviations"].__setitem__(2, d["deviations"][2] + 1e-6))

    def swap_mode(out):
        def edit(rows):
            k = len(json.loads((out / "analyse" / "report.json").read_text(encoding="utf-8"))["components"])
            rows[1][3] = str((int(rows[1][3]) + 1) % max(k, 2))
        _rewrite_csv(out / "analyse" / "samples.csv", edit)

    def change_sir_step(out):
        # one run one step later: the mean at one t moves by 1/runs, S stays monotone
        def edit(rows):
            for r in range(1, len(rows) - 1):
                if rows[r][1] != "0" and rows[r][0] == rows[r + 1][0] and float(rows[r][2]) > float(rows[r + 1][2]):
                    new = float(rows[r][2]) - 1.0 / TINY_RUNS
                    if new >= float(rows[r + 1][2]):
                        rows[r][2] = repr(new)
                        rows[r][3] = repr(min(float(rows[r][3]), new))
                        return
            raise AssertionError("no SIR step to change")
        _rewrite_csv(out / "sir" / "curves.csv", edit)

    def drop_artefact(out):
        _edit_json(out / "manifest.json", lambda d: d["artefacts"].pop())

    def reorder_ranking(out):
        _edit_json(out / "sir" / "ranking.json", lambda d: d["order"].reverse())

    return [
        ("repro: nudged jd.json deviation", nudge_jd),
        ("repro: swapped mode label in samples.csv", swap_mode),
        ("repro: one changed SIR step", change_sir_step),
        ("repro: manifest misses an artefact", drop_artefact),
        ("repro: ranking out of half-time order", reorder_ranking),
    ]


def segment_case(out):
    """The criterion-6 rule on the tiny repro's trees: it holds, and fails
    once every third tree moves to the next mode."""
    _, trees = checks.parse_batch(out / "sample" / "batch.txt")
    starts = [t[1] for t in trees]
    with open(out / "analyse" / "samples.csv", encoding="utf-8", newline="") as fh:
        assign = np.array([int(r["mode"]) for r in csv.DictReader(fh)])
    steps = json.loads((out / "config.json").read_text(encoding="utf-8"))["segment_steps"]
    bad = []
    fails, _ = checks.check_segments("segments", starts, assign, steps, 4)
    print(f"{'ok ' if not fails else 'BAD'} correct segment labels pass {fails or ''}")
    bad += fails
    moved = assign.copy()
    moved[::3] = (moved[::3] + 1) % (assign.max() + 2)
    fails, _ = checks.check_segments("segments", starts, moved, steps, 4)
    print(f"{'ok ' if fails else 'BAD'} segments: every third tree in the next mode: {fails[0] if fails else 'not detected'}")
    return bad + ([] if fails else ["segments: every third tree in the next mode"])


def main() -> int:
    bad = []
    jd, mix, flood = pipeline_case()
    for name, check, args in (("jd", checks.check_jd, jd), ("mixture", checks.check_mixture, mix),
                              ("sampling", checks.check_flood, flood)):
        fails = check(**args)
        print(f"{'ok ' if not fails else 'BAD'} correct {name} output passes {fails or ''}")
        bad += fails
    for name, check, args, perturb, expect in pipeline_perturbations(jd, mix, flood):
        changed = copy.deepcopy(args)
        perturb(changed)
        fails = [f for f in check(**changed) if expect in f]
        print(f"{'ok ' if fails else 'BAD'} {name}: {fails[0] if fails else 'not detected'}")
        bad += [] if fails else [name]

    shutil.rmtree(OUT, ignore_errors=True)
    good = OUT / "good"
    if cli.main(["repro", "--out", str(good)] + TINY_REPRO) != 0:
        print("BAD tiny repro failed")
        return 1
    fails, _ = checks.check_repro(good, 0, cm.derive_rng, sir_nodes=10)
    print(f"{'ok ' if not fails else 'BAD'} correct repro output passes {fails or ''}")
    bad += fails
    bad += segment_case(good)
    hashes = checks.artefact_hashes(good)
    for i, (name, perturb) in enumerate(repro_perturbations()):
        out = OUT / f"perturbed{i}"
        shutil.copytree(good, out)
        perturb(out)
        fails, _ = checks.check_repro(out, 0, cm.derive_rng, sir_nodes=10)
        detected = bool(fails) and checks.artefact_hashes(out) != hashes
        print(f"{'ok ' if detected else 'BAD'} {name}: {fails[0] if fails else 'not detected'}")
        bad += [] if detected else [name]
    shutil.rmtree(OUT, ignore_errors=True)
    print(f"{'all checks behave' if not bad else f'{len(bad)} problem(s)'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
