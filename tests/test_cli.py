import inspect
import json
import math
from dataclasses import replace

import pytest

from contactmodes import cli
from contactmodes import modes as modes_mod
from contactmodes.cli import main
from contactmodes.epidemic import SirParams
from contactmodes.generators import GeneratorSpec, SwitchingSchedule, write_schedule
from contactmodes.modes import decompose, write_report
from contactmodes.sampling import SampleBatch, SourceInfo, TreeSample, read_batch, write_batch


def _run(*argv):
    return main(list(argv))


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    """A small synthetic switching trace shared by the CLI tests."""
    out = tmp_path_factory.mktemp("synth")
    code = _run(
        "synth",
        "--n-nodes", "12",
        "--segment-steps", "40",
        "--seed", "5",
        "--out", str(out),
    )
    assert code == 0
    return out


@pytest.fixture(scope="module")
def two_mode_batch_path(tmp_path_factory):
    """12 path trees near t=10 and 9 star trees near t=100 on 6 nodes:
    a batch whose mixture finds two modes of several trees each."""
    path = {i: i - 1 for i in range(1, 6)}
    star = {i: 0 for i in range(1, 6)}
    samples = [TreeSample(root=0, start_time=10.0 + 0.1 * i, parent=path) for i in range(12)]
    samples += [TreeSample(root=0, start_time=100.0 + 0.1 * i, parent=star) for i in range(9)]
    batch = SampleBatch(
        samples=tuple(samples), n_nodes=6, seed=0, source=SourceInfo(kind="temporal", t_min=0.0, t_max=120.0)
    )
    out = tmp_path_factory.mktemp("two_mode") / "batch.txt"
    write_batch(batch, out)
    return out


def _listed_equals_on_disk(out) -> bool:
    manifest = json.loads((out / "manifest.json").read_text())
    on_disk = {p.name for p in out.iterdir()} - {"manifest.json"}
    return set(manifest["artefacts"]) == on_disk


def test_no_arguments_is_usage_error(capsys):
    assert _run() == 1
    assert "usage" in capsys.readouterr().err.lower()


def test_unknown_flag_is_usage_error():
    assert _run("sample", "--does-not-exist") == 1


def test_missing_trace_is_data_error(tmp_path, capsys):
    code = _run("sample", "--trace", str(tmp_path / "nope.csv"), "--m", "5", "--out", str(tmp_path / "o"))
    assert code == 2
    assert "not found" in capsys.readouterr().err


def test_malformed_trace_is_data_error(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("node_a,node_b,start,end\nx,y,zero,1\n")
    code = _run("sample", "--trace", str(bad), "--m", "5", "--out", str(tmp_path / "o"))
    assert code == 2
    assert "line 2" in capsys.readouterr().err


def test_label_map_of_the_wrong_shape_is_data_error(synth_dir, tmp_path, capsys):
    bad = tmp_path / "labels.json"
    bad.write_text(json.dumps(["0", "1"]))
    code = _run("sample", "--trace", str(synth_dir / "trace.csv"), "--label-map", str(bad), "--m", "5",
                "--out", str(tmp_path / "o"))
    assert code == 2
    assert str(bad) in capsys.readouterr().err


@pytest.mark.parametrize("command", ["synth", "analyse"])
def test_schedule_of_the_wrong_shape_is_data_error(synth_dir, tmp_path, capsys, command):
    spec = json.loads((synth_dir / "schedule.json").read_text())["segments"][0]
    del spec["spec"]["n_nodes"]
    for name, payload in (("no_segments", {"segment": []}), ("no_n_nodes", {"segments": [spec]})):
        bad = tmp_path / f"{name}.json"
        bad.write_text(json.dumps(payload))
        assert _run(command, "--schedule", str(bad), "--out", str(tmp_path / name)) == 2
        assert str(bad) in capsys.readouterr().err


def test_synth_artefacts(synth_dir):
    for name in ("trace.csv", "labels.csv", "label_map.json", "schedule.json", "config.json", "manifest.json"):
        assert (synth_dir / name).exists(), name
    manifest = json.loads((synth_dir / "manifest.json").read_text())
    assert manifest["status"] == "ok"
    assert "created_at" in manifest
    assert sorted(manifest["artefacts"]) == manifest["artefacts"]
    config = json.loads((synth_dir / "config.json").read_text())
    assert "out" not in config
    assert config["seed"] == 5
    schedule = json.loads((synth_dir / "schedule.json").read_text())
    assert len(schedule["segments"]) == 4


def test_synth_deterministic(synth_dir, tmp_path):
    again = tmp_path / "again"
    assert _run("synth", "--n-nodes", "12", "--segment-steps", "40", "--seed", "5", "--out", str(again)) == 0
    assert (again / "trace.csv").read_bytes() == (synth_dir / "trace.csv").read_bytes()
    assert (again / "labels.csv").read_bytes() == (synth_dir / "labels.csv").read_bytes()


def test_sample_then_analyse_then_sir(synth_dir, tmp_path):
    sample_out = tmp_path / "sample"
    code = _run(
        "sample",
        "--trace", str(synth_dir / "trace.csv"),
        "--label-map", str(synth_dir / "label_map.json"),
        "--m", "60",
        "--seed", "1",
        "--out", str(sample_out),
    )
    assert code == 0
    assert (sample_out / "batch.txt").exists()

    analyse_out = tmp_path / "analyse"
    code = _run(
        "analyse",
        "--batch", str(sample_out / "batch.txt"),
        "--k-max", "3",
        "--restarts", "3",
        "--jd-tol", "1e-6",
        "--seed", "1",
        "--out", str(analyse_out),
    )
    assert code == 0
    for name in ("jd.json", "kde.csv", "report.json", "overall.txt", "samples.csv",
                 "overall_threshold.dot", "overall_paths.dot", "overall.newick", "manifest.json"):
        assert (analyse_out / name).exists(), name
    report = json.loads((analyse_out / "report.json").read_text())
    assert report["k"] >= 1
    for mode in report["modes"]:
        idx = mode["index"]
        assert (analyse_out / f"mode_{idx}.txt").exists()
        assert (analyse_out / f"mode_{idx}_threshold.dot").exists()
    manifest = json.loads((analyse_out / "manifest.json").read_text())
    listed = set(manifest["artefacts"])
    assert "jd.json" in listed and "config.json" in listed

    sir_out = tmp_path / "sir"
    code = _run(
        "sir",
        "--trace", str(synth_dir / "trace.csv"),
        "--label-map", str(synth_dir / "label_map.json"),
        "--start-step", "10",
        "--horizon", "100",
        "--runs", "3",
        "--bootstrap", "10",
        "--seed", "2",
        "--out", str(sir_out),
    )
    assert code == 0
    assert (sir_out / "curves.csv").exists()
    ranking = json.loads((sir_out / "ranking.json").read_text())
    assert len(ranking["order"]) == 12


def test_analyse_ignores_partial_trees_in_mixture_fit(synth_dir, tmp_path):
    sample_out = tmp_path / "s"
    assert _run(
        "sample",
        "--trace", str(synth_dir / "trace.csv"),
        "--label-map", str(synth_dir / "label_map.json"),
        "--m", "60", "--seed", "1",
        "--out", str(sample_out),
    ) == 0
    plain = sample_out / "batch.txt"
    padded = tmp_path / "padded.txt"
    # one more flood that reached nobody beyond its root
    padded.write_text(plain.read_text() + "T,0,150.0,1\n")
    reports = []
    for name, path in (("plain", plain), ("padded", padded)):
        out = tmp_path / name
        assert _run(
            "analyse", "--batch", str(path),
            "--k-max", "4", "--restarts", "3", "--jd-tol", "1e-6", "--seed", "1",
            "--out", str(out),
        ) == 0
        reports.append(json.loads((out / "report.json").read_text()))
    plain_rep, padded_rep = reports
    assert padded_rep["k"] == plain_rep["k"]
    assert [k for k, _ in padded_rep["bic_table"]] == [k for k, _ in plain_rep["bic_table"]]
    for (_, got), (_, want) in zip(padded_rep["bic_table"], plain_rep["bic_table"]):
        assert got == pytest.approx(want, rel=1e-9)
    assert sum(m["count"] for m in padded_rep["modes"]) == 61


def test_analyse_without_input_is_usage_error(tmp_path, capsys):
    code = _run("analyse", "--out", str(tmp_path / "o"))
    assert code == 1
    assert "needs" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["analyse", "--jd-tol", "nan"], "tol must be positive"),
        (["analyse", "--jd-tol", "inf"], "tol must be positive and finite"),
        (["sir", "--recovery-mean", "1e300"], "recovery_mean"),
        (["sample", "--granularity", "nan"], "granularity must be positive"),
        (["sample", "--horizon", "-5"], "horizon must be nonnegative"),
        (["analyse", "--bin-width", "inf"], "bin_width must be positive and finite"),
        (["analyse", "--bin-width", "nan"], "bin_width must be positive and finite"),
        (["analyse", "--threshold", "nan"], "threshold tau must be nonnegative"),
        (["analyse", "--epsilon", "nan"], "epsilon must be nonnegative"),
        (["analyse", "--epsilon", "-1"], "epsilon must be nonnegative"),
    ],
    ids=["jd-tol", "jd-tol-inf", "recovery-mean-huge", "granularity", "horizon", "bin-width-inf", "bin-width-nan",
         "threshold-nan", "epsilon-nan", "epsilon-negative"],
)
def test_malformed_numbers_are_data_errors(argv, message, synth_dir, two_mode_batch_path, tmp_path, capsys):
    # each would otherwise run on: NaN tol to max_sweeps and exit 3, an
    # infinite tol to exit 0 after one sweep, a huge recovery mean to
    # numpy's "lam value too large", an infinite bin width or a negative
    # horizon to exit 0, a NaN bin width to numpy's NaN-to-integer error,
    # a NaN threshold to the later "weights must be nonnegative", a NaN
    # epsilon to exit 0 with empty shortest-path graphs and a negative one
    # to a division by zero
    source = ["--batch", str(two_mode_batch_path)] if argv[0] == "analyse" else ["--trace", str(synth_dir / "trace.csv")]
    assert _run(*argv, *source, "--out", str(tmp_path / "o")) == 2
    assert message in capsys.readouterr().err


def _glp_params(schedule):
    return schedule["segments"][2]["spec"]["params"]


@pytest.mark.parametrize(
    "name, edit, field",
    [
        ("label_map.json", lambda m: m.update({"0": math.inf}), "node id"),
        ("label_map.json", lambda m: m.update({"0": 1.9}), "node id"),
        ("label_map.json", lambda m: m.update({"0": True}), "node id"),
        ("label_map.json", None, "not a JSON file"),
        ("schedule.json", lambda s: s["segments"][0]["spec"].update(n_nodes=math.inf), "n_nodes"),
        ("schedule.json", lambda s: s["segments"][0].update(duration=math.inf), "duration"),
        ("schedule.json", lambda s: s["segments"][0].update(duration=20.9), "duration"),
        ("schedule.json", lambda s: _glp_params(s).update(m_edges=math.inf), "m_edges"),
        ("schedule.json", lambda s: _glp_params(s).update(m_edges=True), "m_edges"),
        ("schedule.json", lambda s: _glp_params(s).update(beta_glp=-math.inf), "beta_glp"),
        ("schedule.json", None, "not a JSON file"),
    ],
    ids=["id-inf", "id-fraction", "id-bool", "label-map-not-json", "n-nodes-inf", "duration-inf",
         "duration-fraction", "m-edges-inf", "m-edges-bool", "beta-glp-inf", "schedule-not-json"],
)
def test_malformed_json_numbers_are_data_errors(name, edit, field, synth_dir, tmp_path, capsys):
    # each would otherwise raise OverflowError, be truncated to an integer
    # without a word, or fail without naming its file
    bad = tmp_path / name
    if edit is None:
        bad.write_text("{not json")
    else:
        raw = json.loads((synth_dir / name).read_text())
        edit(raw)
        bad.write_text(json.dumps(raw))
    if name == "label_map.json":
        argv = ["sample", "--trace", str(synth_dir / "trace.csv"), "--label-map", str(bad), "--m", "5"]
    else:
        argv = ["synth", "--schedule", str(bad)]
    assert _run(*argv, "--out", str(tmp_path / "o")) == 2
    err = capsys.readouterr().err
    assert str(bad) in err and field in err


def test_analyse_flags_non_convergence(synth_dir, tmp_path, capsys):
    sample_out = tmp_path / "s"
    assert _run(
        "sample",
        "--trace", str(synth_dir / "trace.csv"),
        "--m", "40", "--seed", "3",
        "--out", str(sample_out),
    ) == 0
    analyse_out = tmp_path / "a"
    code = _run(
        "analyse",
        "--batch", str(sample_out / "batch.txt"),
        "--jd-tol", "1e-30",
        "--max-sweeps", "1",
        "--out", str(analyse_out),
    )
    assert code == 3
    assert capsys.readouterr().err == "error: joint diagonalisation did not converge\n"
    manifest = json.loads((analyse_out / "manifest.json").read_text())
    assert manifest["status"] == "convergence-failure"
    # partial artefacts still land on disk for inspection, and are listed
    assert (analyse_out / "jd.json").exists()
    assert (analyse_out / "kde.csv").exists()
    assert not (analyse_out / "report.json").exists()
    assert {"jd.json", "kde.csv"} <= set(manifest["artefacts"])
    assert _listed_equals_on_disk(analyse_out)


@pytest.mark.parametrize("command", ["synth", "analyse"])
def test_schedule_that_never_connects_leaves_a_manifest(tmp_path, capsys, command):
    # a Waxman segment this sparse exhausts its redraws: a numerical failure
    # before any artefact lands, which must still be flagged in a manifest
    schedule = tmp_path / "schedule.json"
    write_schedule(SwitchingSchedule(((GeneratorSpec.waxman(10, 1e-6, 0.3), 20),)), schedule)
    out = tmp_path / "o"
    assert _run(command, "--schedule", str(schedule), "--out", str(out)) == 3
    assert "stayed disconnected" in capsys.readouterr().err
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "convergence-failure"
    assert manifest["artefacts"] == ["config.json"]
    assert _listed_equals_on_disk(out)


def test_repro_flags_non_convergence(tmp_path, capsys):
    out = tmp_path / "repro"
    code = _run(
        "repro", "--n-nodes", "10", "--segment-steps", "30", "--m", "40",
        "--jd-tol", "1e-30", "--max-sweeps", "1", "--out", str(out),
    )
    assert code == 3
    assert capsys.readouterr().err == "error: joint diagonalisation did not converge\n"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "convergence-failure"
    listed = set(manifest["artefacts"])
    assert {"config.json", "synth/trace.csv", "sample/batch.txt", "analyse/jd.json", "analyse/kde.csv"} <= listed
    assert not (out / "analyse" / "report.json").exists()
    assert not (out / "sir").exists()
    on_disk = {str(p.relative_to(out)) for p in out.rglob("*") if p.is_file()} - {"manifest.json"}
    assert listed == on_disk


def test_analyse_manifest_lists_files_when_a_mode_jd_fails(two_mode_batch_path, tmp_path, monkeypatch, capsys):
    n_trees = len(read_batch(two_mode_batch_path).samples)
    original = modes_mod.joint_diagonalise
    failed = []

    def per_mode_fails(batch, *args, **kwargs):
        result = original(batch, *args, **kwargs)
        if len(batch.samples) < n_trees:
            failed.append(len(batch.samples))
            result = replace(result, converged=False)
        return result

    monkeypatch.setattr(modes_mod, "joint_diagonalise", per_mode_fails)
    out = tmp_path / "a"
    code = _run("analyse", "--batch", str(two_mode_batch_path), "--k-max", "2", "--restarts", "2", "--out", str(out))
    assert code == 3
    assert failed
    assert capsys.readouterr().err == "error: joint diagonalisation of mode 0 did not converge\n"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "convergence-failure"
    # the converged whole-batch diagonalisation is still written and listed
    assert (out / "jd.json").exists()
    assert (out / "kde.csv").exists()
    assert json.loads((out / "jd.json").read_text())["converged"] is True
    assert {"jd.json", "kde.csv"} <= set(manifest["artefacts"])
    assert not (out / "report.json").exists()
    assert _listed_equals_on_disk(out)


@pytest.mark.parametrize("which", ["two-mode", "synth"])
def test_analyse_writes_what_decompose_reports(which, two_mode_batch_path, synth_dir, tmp_path):
    if which == "two-mode":
        batch_path = two_mode_batch_path
    else:
        assert _run(
            "sample", "--trace", str(synth_dir / "trace.csv"), "--m", "60", "--seed", "1",
            "--out", str(tmp_path / "s"),
        ) == 0
        batch_path = tmp_path / "s" / "batch.txt"
    cli_out = tmp_path / "cli"
    assert _run(
        "analyse", "--batch", str(batch_path),
        "--k-max", "3", "--restarts", "3", "--jd-tol", "1e-6", "--seed", "1", "--bin-width", "7.5",
        "--out", str(cli_out),
    ) == 0
    report = decompose(read_batch(batch_path), k_max=3, seed=1, tol=1e-6, bin_width=7.5, n_restarts=3)
    lib_out = tmp_path / "lib"
    written = write_report(report, lib_out)
    report.overall_result.write_json(lib_out / "jd.json")
    names = sorted(p.name for p in written) + ["jd.json"]
    assert len([n for n in names if n.startswith("mode_")]) == report.n_modes
    for name in names:
        assert (cli_out / name).read_bytes() == (lib_out / name).read_bytes(), name
    assert _listed_equals_on_disk(cli_out)


def test_sample_static_aggregation(synth_dir, tmp_path):
    out = tmp_path / "static"
    code = _run(
        "sample",
        "--trace", str(synth_dir / "trace.csv"),
        "--static",
        "--m", "25",
        "--out", str(out),
    )
    assert code == 0
    text = (out / "batch.txt").read_text()
    assert "kind=static" in text


@pytest.mark.parametrize("rows", [
    ["x,y,0,0", "y,z,1,1", "z,w,2,2", "x,w,3,3"],
    ["x,y,5,5", "y,z,5,5", "x,z,5,5"],
], ids=["point-contacts", "one-instant"])
def test_sample_static_counts_point_contacts(rows, tmp_path):
    # each point contact lasts one time step, so the aggregate is connected
    # and every BFS tree spans it; the one-instant trace's window is one step
    trace = tmp_path / "trace.csv"
    trace.write_text("\n".join(["node_a,node_b,start,end"] + rows) + "\n")
    out = tmp_path / "static"
    assert _run("sample", "--trace", str(trace), "--static", "--m", "5", "--out", str(out)) == 0
    batch = read_batch(out / "batch.txt")
    assert len(batch) == 5
    assert all(not s.partial and s.n_edges == batch.n_nodes - 1 for s in batch.samples)


def test_repro_runs_end_to_end(tmp_path):
    out = tmp_path / "repro"
    code = _run(
        "repro",
        "--n-nodes", "10",
        "--segment-steps", "30",
        "--m", "40",
        "--k-max", "2",
        "--restarts", "2",
        "--jd-tol", "1e-5",
        "--start-step", "10",
        "--horizon", "60",
        "--runs", "2",
        "--bootstrap", "5",
        "--out", str(out),
    )
    assert code == 0
    assert (out / "manifest.json").exists()
    for sub in ("synth", "sample", "analyse", "sir"):
        assert (out / sub).is_dir()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "ok"
    assert any(a.startswith("analyse/") for a in manifest["artefacts"])


def test_repro_passes_its_settings_to_the_stages(tmp_path, monkeypatch):
    # the values `repro` runs at its defaults: its own options plus the
    # analyse and SIR settings it fixes
    seen = {}

    def recorder(name, fn):
        def record(*args, **kwargs):
            bound = inspect.signature(fn).bind(*args, **kwargs)
            bound.apply_defaults()
            seen.setdefault(name, []).append(bound.arguments)
            return fn(*args, **kwargs)
        return record

    for name in ("sample_batch", "decompose", "sir_experiment", "shortest_path_graph", "fiedler_dendrogram"):
        monkeypatch.setattr(cli, name, recorder(name, getattr(cli, name)))
    assert main(["repro", "--out", str(tmp_path / "repro")]) == 0

    def settings(call, want):
        return {k: call[k] for k in want}

    (sample,) = seen["sample_batch"]
    want = {"m": 400, "horizon": None}
    assert settings(sample, want) == want
    (dec,) = seen["decompose"]
    want = {"tol": 1e-6, "max_sweeps": 100, "k_max": 6, "n_restarts": 5, "seed": 0, "bin_width": 150.0,
            "log_delta": False}
    assert settings(dec, want) == want
    (sir,) = seen["sir_experiment"]
    want = {"params": SirParams(0.5, 80.0, 50, 200), "runs_per_node": 5, "bootstrap_resamples": 50, "ci": 0.95,
            "per_step_contacts": False}
    assert settings(sir, want) == want
    want = {"epsilon": 0.0, "transform": "reciprocal"}
    assert seen["shortest_path_graph"] and all(settings(c, want) == want for c in seen["shortest_path_graph"])
    want = {"min_size": 1}
    assert seen["fiedler_dendrogram"] and all(settings(c, want) == want for c in seen["fiedler_dendrogram"])
    # at tol 1e-6 the overall diagonalisation's sweeps begin to crawl, and
    # trust-region steps finish it; jd.json records both counts
    jd = json.loads((tmp_path / "repro" / "analyse" / "jd.json").read_text())
    assert jd["converged"] is True
    assert jd["sweeps"] > 0 and jd["polish_steps"] > 0
    # the input basis, the warm start, then one entry per sweep and kept step
    assert len(jd["off2_history"]) == 2 + jd["sweeps"] + jd["polish_steps"]


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip()
