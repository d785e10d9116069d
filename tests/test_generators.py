import hashlib
import math

import numpy as np
import pytest
from scipy import stats

from contactmodes import (
    ConvergenceError,
    GeneratorSpec,
    SwitchingSchedule,
    animate_levy,
    default_switching_schedule,
    derive_rng,
    gen_glp_topology,
    gen_random_contacts,
    gen_switching,
    gen_waxman_topology,
    write_trace,
)
from contactmodes.generators import (
    preferential_targets,
    read_labels,
    read_schedule,
    spec_from_dict,
    spec_to_dict,
    write_labels,
    write_schedule,
)


def _rows(net):
    """The network's events as (a, b, start, end) tuples of Python scalars."""
    return list(zip(*(col.tolist() for col in net.event_arrays)))


def _same_events(x, y) -> bool:
    return all(np.array_equal(p, q) for p, q in zip(x.event_arrays, y.event_arrays))


# ---------------------------------------------------------------------------
# Specs


def test_spec_validation():
    with pytest.raises(ValueError, match="kind"):
        GeneratorSpec("banana", 10, ())
    with pytest.raises(ValueError, match="contact_fraction"):
        GeneratorSpec("random", 10, (("contact_fraction", 0.0),))
    with pytest.raises(ValueError, match="alpha"):
        GeneratorSpec("waxman", 10, (("beta", 0.5),))
    with pytest.raises(ValueError, match="m_edges"):
        GeneratorSpec("glp", 10, (("beta_glp", 0.2),))
    with pytest.raises(ValueError, match="two nodes"):
        GeneratorSpec.random(1)


def test_spec_factories_and_round_trip():
    for spec in (
        GeneratorSpec.random(20, 0.05),
        GeneratorSpec.waxman(30, 0.5, 0.3),
        GeneratorSpec.glp(40),
    ):
        again = spec_from_dict(spec_to_dict(spec))
        assert again == spec
    assert GeneratorSpec.random(20, 0.05).get("contact_fraction") == 0.05


# ---------------------------------------------------------------------------
# Random contact generator


def test_random_contacts_deterministic():
    a = gen_random_contacts(15, 0.1, 50, seed=3)
    b = gen_random_contacts(15, 0.1, 50, seed=3)
    assert _same_events(a, b)
    c = gen_random_contacts(15, 0.1, 50, seed=4)
    assert not _same_events(a, c)


def test_random_contacts_event_shape():
    net = gen_random_contacts(10, 0.2, 30, seed=1)
    assert net.n_nodes == 10
    assert net.granularity == 1.0
    for a, b, start, end in _rows(net):
        assert start == int(start)
        assert 0 <= start < 30
        assert end == start + 1.0
        assert 0 <= a < b < 10
    # within a step each pair appears at most once
    seen = {(a, b, start) for a, b, start, _ in _rows(net)}
    assert len(seen) == net.n_events


def test_random_contacts_density_matches_fraction():
    n, q, steps = 20, 0.07, 400
    net = gen_random_contacts(n, q, steps, seed=9)
    trials = steps * n * (n - 1) // 2
    sigma = math.sqrt(trials * q * (1 - q))
    assert abs(net.n_events - trials * q) < 4 * sigma


# ---------------------------------------------------------------------------
# Waxman


def test_waxman_connected_and_deterministic():
    g1 = gen_waxman_topology(40, 0.5, 0.3, seed=5)
    g2 = gen_waxman_topology(40, 0.5, 0.3, seed=5)
    assert g1.is_connected()
    assert np.array_equal(g1.adjacency.values, g2.adjacency.values)
    g3 = gen_waxman_topology(40, 0.5, 0.3, seed=6)
    assert not np.array_equal(g1.adjacency.values, g3.adjacency.values)


def test_waxman_retry_budget_exhausts():
    # alpha this small never yields a connected 30-node draw
    with pytest.raises(ConvergenceError, match="disconnected"):
        gen_waxman_topology(30, 0.01, 1.0, seed=0, max_retries=3)


def test_waxman_validation():
    with pytest.raises(ValueError):
        gen_waxman_topology(1, 0.5, 0.5)
    with pytest.raises(ValueError):
        gen_waxman_topology(10, 1.5, 0.5)


# ---------------------------------------------------------------------------
# GLP


def test_preferential_targets_frequencies():
    degrees = [6.0, 2.0, 2.0]
    beta = 0.5
    weights = np.array(degrees) - beta
    probs = weights / weights.sum()
    rng = derive_rng(0, "pref")
    picks = [preferential_targets(degrees, 1, beta, rng)[0] for _ in range(4000)]
    freq = np.bincount(picks, minlength=3) / len(picks)
    sigma = np.sqrt(probs * (1 - probs) / len(picks))
    assert np.all(np.abs(freq - probs) < 4 * sigma)


def test_preferential_targets_without_replacement():
    rng = derive_rng(1, "pref")
    for _ in range(200):
        picks = preferential_targets([3.0, 3.0, 3.0, 3.0], 3, 0.2, rng)
        assert len(set(picks)) == 3
    with pytest.raises(ValueError, match="exceed beta_glp"):
        preferential_targets([0.1], 1, 0.2, rng)
    with pytest.raises(ValueError, match="m out of range"):
        preferential_targets([2.0, 2.0], 3, 0.2, rng)


def test_glp_structure():
    n, m = 30, 2
    g = gen_glp_topology(n, m_edges=m, beta_glp=0.2, seed=7)
    assert g.is_connected()
    a = g.adjacency.values
    # seed clique on the first m+1 nodes
    assert np.all(a[: m + 1, : m + 1] + np.eye(m + 1) == 1.0)
    # every later node brought exactly m new edges
    m0 = m + 1
    expected_edges = m0 * (m0 - 1) // 2 + (n - m0) * m
    assert len(g.edges()) == expected_edges
    assert np.array_equal(a, gen_glp_topology(n, m_edges=m, beta_glp=0.2, seed=7).adjacency.values)


def test_glp_hub_formation():
    # preferential attachment should concentrate degree: max degree well
    # above the minimum
    g = gen_glp_topology(120, m_edges=2, beta_glp=0.2, seed=11)
    degrees = g.adjacency.values.sum(axis=1)
    assert degrees.max() >= 4 * degrees.min()


# ---------------------------------------------------------------------------
# Levy animation


def test_animate_levy_respects_topology_and_time():
    topo = gen_waxman_topology(12, 0.6, 0.3, seed=2)
    net = animate_levy(topo, 200, seed=3)
    assert net.n_nodes == 12
    allowed = {(i, j) for i, j, _ in topo.edges()}
    for a, b, start, end in _rows(net):
        assert (a, b) in allowed
        assert 0.0 < start < 200.0
        assert end == start + 1.0


def test_animate_levy_gaps_have_minimum_and_pareto_tail():
    topo = gen_waxman_topology(8, 0.9, 0.1, seed=4)
    shape = 1.5
    net = animate_levy(topo, 5000, tail_exponent=shape, min_gap=2.0, seed=5)
    by_edge = {}
    for a, b, start, _ in _rows(net):
        by_edge.setdefault((a, b), []).append(start)
    gaps = []
    for ts in by_edge.values():
        ts = np.sort(np.asarray(ts))
        gaps.extend(np.diff(ts))
    gaps = np.asarray(gaps)
    assert len(gaps) > 500
    assert gaps.min() >= 2.0 - 1e-9
    # gaps over min_gap follow a classic Pareto with the requested shape
    normalised = gaps / 2.0
    p = stats.kstest(normalised, stats.pareto(shape).cdf).pvalue
    assert p > 0.001


def test_animate_levy_deterministic_per_edge():
    topo = gen_waxman_topology(10, 0.7, 0.2, seed=6)
    a = animate_levy(topo, 300, seed=8)
    b = animate_levy(topo, 300, seed=8)
    assert _same_events(a, b)


def test_animate_levy_validation():
    topo = gen_waxman_topology(5, 0.9, 0.2, seed=0)
    with pytest.raises(ValueError):
        animate_levy(topo, 0)
    with pytest.raises(ValueError):
        animate_levy(topo, 10, tail_exponent=1.0)
    with pytest.raises(ValueError):
        animate_levy(topo, 10, min_gap=0.0)


# ---------------------------------------------------------------------------
# Switching schedules


def test_default_schedule_layout():
    sched = default_switching_schedule(n_nodes=30, segment_steps=100)
    kinds = [spec.kind for spec, _ in sched.segments]
    assert kinds == ["waxman", "waxman", "glp", "glp"]
    assert sched.total_steps == 400
    assert sched.boundaries() == [0, 100, 200, 300, 400]
    assert sched.n_nodes == 30


def test_schedule_validation():
    spec = GeneratorSpec.random(10, 0.1)
    with pytest.raises(ValueError, match="at least one"):
        SwitchingSchedule(())
    with pytest.raises(ValueError, match="positive"):
        SwitchingSchedule(((spec, 0),))
    with pytest.raises(ValueError, match="one node count"):
        SwitchingSchedule(((spec, 5), (GeneratorSpec.random(11, 0.1), 5)))


@pytest.mark.parametrize("duration", [20.9, True, math.inf, math.nan], ids=["fractional", "bool", "inf", "nan"])
def test_schedule_rejects_a_duration_that_is_not_whole(duration):
    """A duration that int() would truncate (20.9 would run 20 steps, True
    one step) or cannot convert is refused, naming its segment."""
    spec = GeneratorSpec.random(10, 0.1)
    with pytest.raises(ValueError, match="segment 1: duration must be a whole number"):
        SwitchingSchedule(((spec, 5), (spec, duration)))
    assert SwitchingSchedule(((spec, 5.0), (spec, np.int64(7)))).segments[1][1] == 7


def test_gen_switching_segments_disjoint_in_time():
    sched = default_switching_schedule(n_nodes=25, segment_steps=60)
    result = gen_switching(sched, seed=13)
    net = result.network
    assert net.n_nodes == 25
    assert len(result.labels) == 240
    assert result.labels.tolist() == [i // 60 for i in range(240)]
    bounds = sched.boundaries()
    assert len(result.topologies) == 4
    assert result.topologies[0] is not None
    # events stay inside their segment's window and only use its edges
    for a, b, start, _ in _rows(net):
        seg = min(int(start // 60), 3)
        assert bounds[seg] <= start < bounds[seg + 1]
        topo = result.topologies[seg]
        assert topo.adjacency[a, b] > 0


def test_gen_switching_deterministic_and_seed_sensitive():
    sched = default_switching_schedule(n_nodes=20, segment_steps=40)
    a = gen_switching(sched, seed=1)
    b = gen_switching(sched, seed=1)
    c = gen_switching(sched, seed=2)
    assert _same_events(a.network, b.network)
    assert not _same_events(a.network, c.network)
    # the two glp segments use different derived seeds: different graphs
    t2, t3 = a.topologies[2], a.topologies[3]
    assert not np.array_equal(t2.adjacency.values, t3.adjacency.values)


@pytest.mark.parametrize(
    "name, sha",
    [
        ("repro", "73d13aa98c27bd9f47c11de7905622769654fb439547ea61bc4ecb7c38331034"),
        ("wide", "8fc327679343665fff873057e887e09fd876720605209e88db50c9a10b8bb835"),
        ("mixed", "ad251c85e56fcb533b994cf7252760a0258c85f28aceadda29b370eb6e065666"),
    ],
)
def test_written_trace_pinned(name, sha, tmp_path):
    # the `repro` trace (switching, n=30, 150-step segments, seed 0), the
    # perfbench `wide` trace, and a switching trace whose random segment has
    # many contacts per timestamp, so the (start, a, b) tie-break shows: a
    # changed event order or a changed offset arithmetic changes the digests
    if name == "repro":
        net = gen_switching(default_switching_schedule(n_nodes=30, segment_steps=150), seed=0).network
    elif name == "wide":
        net = gen_random_contacts(80, 0.05, 400, seed=0)
    else:
        mixed = SwitchingSchedule(((GeneratorSpec.random(12, 0.1), 30), (GeneratorSpec.glp(12), 30)))
        net = gen_switching(mixed, seed=0).network
    write_trace(net, tmp_path / "trace.csv")
    assert hashlib.sha256((tmp_path / "trace.csv").read_bytes()).hexdigest() == sha


def test_schedule_and_labels_round_trip(tmp_path):
    sched = default_switching_schedule(n_nodes=12, segment_steps=25)
    p = tmp_path / "schedule.json"
    write_schedule(sched, p)
    again = read_schedule(p)
    assert again == sched

    labels = gen_switching(sched, seed=3).labels
    lp = tmp_path / "labels.csv"
    write_labels(labels, lp)
    assert np.array_equal(read_labels(lp), labels)
    with pytest.raises(ValueError, match="label file"):
        (tmp_path / "junk.csv").write_text("nope\n")
        read_labels(tmp_path / "junk.csv")
