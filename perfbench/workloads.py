"""The benchmark's workloads: how each builds its inputs from a seed, what
one operation (a pass) runs, and which checks follow it.

* ``switching``: the criterion-6 four-segment schedule at n=30 (one
  fixed trace, as for criterion 6), flooded with 2,000 trees.  The trees
  use about 350 distinct edges, so trees outnumber the edges they use
  almost six to one: the regime where a Gram-compressed or streamed
  joint diagonalisation can shrink the stack.
* ``wide``: homogeneous random contacts at n=80 flooded with 250 trees,
  which use about 3,100 distinct edges.  Fewer trees than edges, so
  compressing the stack cannot shrink it; the n=80 ``eig_sym`` warm
  starts are a large share of the joint diagonalisation.  Its input is
  fixed: on a homogeneous trace the mixture finds one mode or two
  depending on the trees drawn, which doubles the per-mode work, so
  seeded inputs made the median of a run depend on how many of its
  operations found two.
* ``repro``: ``contactmodes repro`` with its defaults (its own seed 0),
  the only workload that runs the CLI, the artefact writers, the
  presentation graphs and the SIR experiment.  Its inputs do not depend
  on the benchmark seed, which picks only the nodes the SIR reference
  walk replays.
"""

from __future__ import annotations

import numpy as np

SWITCHING = {"n_nodes": 30, "segment_steps": 700, "trees": 2000, "trace_seed": 0}
WIDE = {"n_nodes": 80, "steps": 400, "contact_fraction": 0.05, "trees": 250, "seed": 0}
DECOMPOSE = {"k_max": 8, "n_restarts": 10, "tol": 1e-2}
SAMPLING_CHECKED = 24  # flooding trees replayed by the reference walk per pass


def input_seed(seed, index):
    """Seed of operation ``index`` of a run: on `switching` each operation
    draws other trees, so the median over a run covers several inputs;
    on every workload it picks the outputs the slow checks replay."""
    return 100 * seed + index


def setup(cm, name, seed):
    """Inputs of one pass, in memory."""
    if name == "switching":
        schedule = cm.default_switching_schedule(n_nodes=SWITCHING["n_nodes"], segment_steps=SWITCHING["segment_steps"])
        return {"net": cm.gen_switching(schedule, seed=SWITCHING["trace_seed"]).network}
    if name == "wide":
        net = cm.gen_random_contacts(WIDE["n_nodes"], WIDE["contact_fraction"], WIDE["steps"], seed=WIDE["seed"])
        return {"net": net}
    return {}


def run(cm, name, inputs, seed, out):
    """One operation.  Returns what the checks need."""
    if name == "repro":
        from contactmodes import cli

        return {"rc": cli.main(["repro", "--out", str(out)])}
    trees, seed = (SWITCHING["trees"], seed) if name == "switching" else (WIDE["trees"], WIDE["seed"])
    batch = cm.sample_batch(inputs["net"], trees, seed=seed)
    return {"batch": batch, "report": cm.decompose(batch, seed=seed, **DECOMPOSE)}


def tree_edges(samples):
    """Each tree's (parents, children) int arrays, from its parent map."""
    return [
        (np.fromiter(s.parent.values(), dtype=int, count=len(s.parent)),
         np.fromiter(s.parent.keys(), dtype=int, count=len(s.parent)))
        for s in samples
    ]


def check(cm, name, inputs, outputs, seed, out):
    """(failures, quality figures) of one operation.  The checks, and the
    ``scipy.stats`` they use, load here, after the timed regions."""
    import checks

    if name == "repro":
        if outputs["rc"] != 0:
            return [f"repro: exit code {outputs['rc']}"], {}
        return checks.check_repro(out, seed, cm.derive_rng)

    batch, report = outputs["batch"], outputs["report"]
    n = batch.n_nodes
    edges = tree_edges(batch.samples)
    jd = report.overall_result
    fails = checks.check_jd("overall jd", edges, n, jd.basis.values, jd.avg_diag, jd.deviations, jd.off2_history)
    for mode in report.modes:
        if mode.result is not None:
            r = mode.result
            fails += checks.check_jd(f"mode {mode.index} jd", [edges[i] for i in mode.members], n,
                                     r.basis.values, r.avg_diag, r.deviations, r.off2_history)
    model = report.model
    complete = [not s.partial for s in batch.samples]
    components = [(c.weight, c.mean, c.variance) for c in model.components]
    fails += checks.check_mixture(jd.deviations, complete, components, model.assignments, model.bic_table,
                                  model.bic, model.log_likelihood, [(m.index, m.members) for m in report.modes])
    ev_a, ev_b, ev_t, _ = inputs["net"].event_arrays
    picked = np.random.default_rng([seed, 0]).choice(len(batch.samples), SAMPLING_CHECKED, replace=False)
    for i in sorted(int(v) for v in picked):
        s = batch.samples[i]
        fails += checks.check_flood(ev_a, ev_b, ev_t, n, i, s.root, s.start_time, s.parent,
                                    s.infection_times, s.reached, s.partial)
    if name == "switching":
        segment_steps, segments = SWITCHING["segment_steps"], 4
    else:
        segment_steps, segments = WIDE["steps"], 1
    return fails, {
        "sampling.distinct_edges": checks.distinct_edges(edges, n),
        "modes.segment_accuracy": checks.segment_accuracy(batch.start_times(), model.assignments, segment_steps,
                                                          segments),
        "modes.ll_gap": checks.likelihood_gap(jd.deviations, complete, components, model.log_likelihood),
    }
