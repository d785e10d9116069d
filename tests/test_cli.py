import json
from dataclasses import replace

import numpy as np
import pytest

from contactmodes import modes as modes_mod
from contactmodes.cli import main
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
        (["sample", "--granularity", "nan"], "granularity must be positive"),
        (["sample", "--horizon", "-5"], "horizon must be nonnegative"),
        (["analyse", "--bin-width", "inf"], "bin_width must be positive and finite"),
        (["analyse", "--bin-width", "nan"], "bin_width must be positive and finite"),
        (["analyse", "--threshold", "nan"], "threshold tau must be nonnegative"),
    ],
    ids=["jd-tol", "granularity", "horizon", "bin-width-inf", "bin-width-nan", "threshold-nan"],
)
def test_malformed_numbers_are_data_errors(argv, message, synth_dir, two_mode_batch_path, tmp_path, capsys):
    # each would otherwise run on: NaN tol to max_sweeps and exit 3, an
    # infinite bin width or a negative horizon to exit 0, a NaN bin width
    # to numpy's NaN-to-integer error and a NaN threshold to the later
    # "weights must be nonnegative"
    source = ["--batch", str(two_mode_batch_path)] if argv[0] == "analyse" else ["--trace", str(synth_dir / "trace.csv")]
    assert _run(*argv, *source, "--out", str(tmp_path / "o")) == 2
    assert message in capsys.readouterr().err


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
    original = modes_mod.joint_diagonalise_sets
    failed = []

    def per_mode_fails(batches, *args, **kwargs):
        results = original(batches, *args, **kwargs)
        for i, batch in enumerate(batches):
            if len(batch.samples) < n_trees:
                failed.append(len(batch.samples))
                results[i] = replace(results[i], converged=False)
        return results

    monkeypatch.setattr(modes_mod, "joint_diagonalise_sets", per_mode_fails)
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


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip()
