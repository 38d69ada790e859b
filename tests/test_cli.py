"""End-to-end CLI runs on bundled fixtures, without network access."""

import contextlib
import csv
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from datetime import datetime, timezone
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import fileexperts
from fileexperts.cli import main
from fileexperts.errors import InvalidReferenceTime
from fileexperts.features import (
    MiningInputs,
    compute_all,
    feature_table_to_csv,
    mine_history,
    read_feature_csv,
)
from fileexperts.fixtures import RepoBuilder

pytestmark = pytest.mark.usefixtures("monkeypatch_cwd")


@pytest.fixture()
def monkeypatch_cwd(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)


@pytest.fixture(scope="module")
def cli_repo(tmp_path_factory):
    """Three developers over twelve files with shared ownership on some."""
    repo = RepoBuilder(tmp_path_factory.mktemp("cli") / "repo")
    devs = [("Ana Lima", "ana@x.com"), ("Bo Chen", "bo@y.com"), ("Cy Dee", "cy@z.com")]
    when = 1_600_000_000
    contents = {}
    for i in range(12):
        name, email = devs[i % 3]
        path = f"src/f{i}.py"
        contents[path] = f"start_{i} = {i}\nif start_{i} > 2:\n    work_{i} = 1\n"
        repo.commit(name, email, when, writes={path: contents[path]})
        when += 86_400
    for i in range(6):  # second developer touches half the files
        name, email = devs[(i + 1) % 3]
        path = f"src/f{i}.py"
        updated = contents[path] + f"extra_{i} = {i}\n"
        repo.commit(name, email, when, writes={path: updated})
        contents[path] = updated
        when += 86_400
    return repo.finish()


@pytest.fixture(scope="module")
def notes_repo(tmp_path_factory):
    """One commit holding only notes.txt, which the source filter drops."""
    repo = RepoBuilder(tmp_path_factory.mktemp("notes") / "repo")
    repo.commit("Ana Lima", "ana@x.com", 1_600_000_000, writes={"notes.txt": "hello\n"})
    return repo.finish()


def run_cli(*args: str, expect: int = 0, capsys=None) -> str:
    code = main(list(args))
    assert code == expect, f"exit {code} for {args}"
    return ""


def test_mine_emits_feature_csv(cli_repo, capsys):
    main(["mine", "--repo", str(cli_repo), "--branch", "main"])
    out = capsys.readouterr().out
    header = out.splitlines()[0]
    assert header == (
        "developer,file,adds,dels,mods,conds,amount,fa,blame,num_commits,"
        "num_days,num_mod_devs,size,avg_days_commits"
    )
    assert len(out.splitlines()) == 1 + 18  # 12 creators + 6 second authors


def test_features_matches_mine(cli_repo, capsys):
    main(["mine", "--repo", str(cli_repo), "--branch", "main"])
    mined = capsys.readouterr().out
    main(["features", "--repo", str(cli_repo), "--branch", "main"])
    assert capsys.readouterr().out == mined


def test_rank_single_author_file(cli_repo, capsys):
    main(
        [
            "rank",
            "--repo",
            str(cli_repo),
            "--branch",
            "main",
            "--technique",
            "blame",
            "--file",
            "src/f7.py",
        ]
    )
    out = capsys.readouterr().out
    records = list(csv.DictReader(io.StringIO(out)))
    assert len(records) == 1
    assert float(records[0]["normalized"]) == 1.0


def test_rank_with_threshold_marks_experts(cli_repo, capsys):
    main(
        [
            "rank",
            "--repo", str(cli_repo), "--branch", "main",
            "--technique", "num_commits", "--file", "src/f0.py",
            "--k", "0.7",
        ]
    )
    records = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert {r["expert"] for r in records} <= {"True", "False"}


def _write_truth(path, cli_repo, capsys):
    main(["mine", "--repo", str(cli_repo), "--branch", "main"])
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["repo", "developer_email", "file", "knowledge"])
        for i, row in enumerate(rows):
            knowledge = 5 if i % 2 == 0 else 2
            writer.writerow(["fixture", row["developer"], row["file"], knowledge])
    return path


def test_calibrate_curve(cli_repo, tmp_path, capsys):
    truth = _write_truth(tmp_path / "truth.csv", cli_repo, capsys)
    main(
        [
            "calibrate",
            "--repo", str(cli_repo), "--branch", "main",
            "--technique", "blame", "--truth", str(truth),
            "--folds", "3", "--out", str(tmp_path / "curve.csv"),
        ]
    )
    err = capsys.readouterr().err
    assert "best_k=" in err
    lines = (tmp_path / "curve.csv").read_text().splitlines()
    assert lines[0] == "k,precision,recall,f_measure"
    assert len(lines) == 12


def test_evaluate_deterministic(cli_repo, tmp_path, capsys):
    truth = _write_truth(tmp_path / "truth.csv", cli_repo, capsys)
    for out_name in ("a.json", "b.json"):
        main(
            [
                "evaluate",
                "--repo", str(cli_repo), "--branch", "main",
                "--classifier", "random_forest", "--truth", str(truth),
                "--folds", "3", "--seed", "0",
                "--format", "json", "--out", str(tmp_path / out_name),
            ]
        )
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    report = json.loads((tmp_path / "a.json").read_text())
    assert report["classifier"] == "random_forest"
    assert len(report["folds"]) == 3


def test_evaluate_csv_format(cli_repo, tmp_path, capsys):
    truth = _write_truth(tmp_path / "truth.csv", cli_repo, capsys)
    main(
        [
            "evaluate",
            "--repo", str(cli_repo), "--branch", "main",
            "--classifier", "knn", "--truth", str(truth), "--folds", "3",
        ]
    )
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "classifier,hyperparams,mean_precision,mean_recall,mean_f"


def test_evaluate_grid_search(cli_repo, tmp_path, capsys):
    truth = _write_truth(tmp_path / "truth.csv", cli_repo, capsys)
    main(
        [
            "evaluate",
            "--repo", str(cli_repo), "--branch", "main",
            "--classifier", "logistic_regression", "--truth", str(truth),
            "--folds", "3", "--grid", "default", "--format", "json",
        ]
    )
    report = json.loads(capsys.readouterr().out)
    assert report["hyperparameters"]["l2"] in (0.001, 0.01, 0.1, 1.0, 10.0)


def test_correlate(cli_repo, tmp_path, capsys):
    truth = _write_truth(tmp_path / "truth.csv", cli_repo, capsys)
    main(
        [
            "correlate",
            "--repo", str(cli_repo), "--branch", "main", "--truth", str(truth),
        ]
    )
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0] == "variable,rho,p_value,n"
    rhos = [float(line.split(",")[1]) for line in lines[1:]]
    assert rhos == sorted(rhos)


def test_correlate_exact_p(cli_repo, tmp_path, capsys):
    truth = _write_truth(tmp_path / "truth.csv", cli_repo, capsys)
    main(
        [
            "correlate",
            "--repo", str(cli_repo), "--branch", "main",
            "--truth", str(truth), "--exact-p", "--seed", "0",
        ]
    )
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "variable,rho,p_value,n"
    assert all(0.0 <= float(line.split(",")[2]) <= 1.0 for line in lines[1:])


@pytest.mark.parametrize(
    "command, digest",
    [
        (("calibrate", "--technique", "doa"),
         "1aeb3dbfe52268461c0e7e89eb3aa3d77acdd5be9194d4942caad98f8bc9ac31"),
        (("evaluate", "--classifier", "knn"),
         "f2496e3d0048fc06ad5c66458f8a917fa0b774a352f919642544ec3ad641988f"),
        (("evaluate", "--classifier", "random_forest"),
         "6916dfc1edebc43f9a501f6b7c2e0d9cd3c6b9b252992fa7dcf9737112e74025"),
    ],
    ids=["calibrate-doa", "evaluate-knn", "evaluate-random-forest"],
)
def test_seed_0_analysis_bytes_are_pinned(cli_repo, tmp_path, capsys, command, digest):
    """Seed-0 threshold curve and CV report, down to the byte: a different
    stratified fold assignment changes them."""
    truth = _write_truth(tmp_path / "truth.csv", cli_repo, capsys)
    assert main([*command, "--truth", str(truth), "--seed", "0",
                 "--repo", str(cli_repo), "--branch", "main"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def _evaluate_outputs(cli_repo, truth, capsys, monkeypatch, *options) -> dict[int, tuple]:
    """Exit code, stdout and stderr of one evaluate run per worker count."""
    from fileexperts import cli

    runs = {}
    for jobs in (1, 3):
        monkeypatch.setattr(cli, "_usable_cpus", lambda: jobs)
        code = main(["evaluate", "--repo", str(cli_repo), "--branch", "main",
                     "--truth", str(truth), "--folds", "3", "--format", "json", *options])
        captured = capsys.readouterr()
        runs[jobs] = (code, captured.out, captured.err)
    return runs


def _write_labels(path, cli_repo, capsys, label):
    """A truth CSV over the creator of each file, knowledge from ``label(i)``
    for the i-th file: the creators all added three lines, so ``adds`` is
    constant while ``size`` is not."""
    main(["mine", "--repo", str(cli_repo), "--branch", "main"])
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    creators = sorted((int(r["file"][5:-3]), r["developer"], r["file"])
                      for r in rows if r["fa"] == "1")
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["repo", "developer_email", "file", "knowledge"])
        for i, developer, file in creators:
            writer.writerow(["fixture", developer, file, label(i)])
    return path


@pytest.mark.parametrize("grid", ["none", "default"])
@pytest.mark.parametrize("classifier", ["knn", "logistic_regression", "random_forest"])
def test_evaluate_output_does_not_depend_on_the_workers(
    cli_repo, tmp_path, capsys, monkeypatch, classifier, grid
):
    truth = _write_truth(tmp_path / "truth.csv", cli_repo, capsys)
    runs = _evaluate_outputs(cli_repo, truth, capsys, monkeypatch, "--classifier", classifier,
                             "--grid", grid)
    assert runs[1] == runs[3]
    code, out, err = runs[1]
    assert code == 0 and err == ""
    assert len(json.loads(out)["folds"]) == 3


@pytest.mark.parametrize("grid", ["none", "default"])
def test_constant_feature_warns_once_whatever_the_workers(
    cli_repo, tmp_path, capsys, monkeypatch, grid
):
    truth = _write_labels(tmp_path / "truth.csv", cli_repo, capsys,
                          lambda i: 5 if i % 2 == 0 else 2)
    runs = _evaluate_outputs(cli_repo, truth, capsys, monkeypatch, "--classifier", "logistic_regression",
                             "--grid", grid)
    assert runs[1] == runs[3]
    code, _out, err = runs[1]
    assert code == 0
    assert [json.loads(line) for line in err.splitlines()] == [
        {"category": "errors.ZeroVarianceWarning",
         "warning": "feature 'adds' is constant; left unscaled"}
    ]


@pytest.mark.parametrize("grid", ["none", "default"])
@pytest.mark.parametrize("classifier", ["logistic_regression", "random_forest"])
def test_single_class_training_fold_fails_alike_whatever_the_workers(
    cli_repo, tmp_path, capsys, monkeypatch, classifier, grid
):
    # one expert: the fold that holds it out trains on non-experts alone
    truth = _write_labels(tmp_path / "truth.csv", cli_repo, capsys,
                          lambda i: 5 if i == 4 else 2)
    runs = _evaluate_outputs(cli_repo, truth, capsys, monkeypatch, "--classifier", classifier,
                             "--grid", grid)
    assert runs[1] == runs[3]
    code, out, err = runs[1]
    assert code == 1 and out == ""
    assert [json.loads(line) for line in err.splitlines()] == [
        {"category": "errors.ZeroVarianceWarning",
         "warning": "feature 'adds' is constant; left unscaled"},
        {"error": "errors.SingleClassData",
         "message": f"{classifier} needs both classes in the training data"},
    ]


def test_correlate_exact_p_leaves_scipy_unloaded(cli_repo, tmp_path, capsys):
    """Permutation p-values need no t distribution, so only the plain
    correlate loads scipy."""
    truth = _write_truth(tmp_path / "truth.csv", cli_repo, capsys)
    probe = """
import sys
from fileexperts.cli import main

repo, truth, tmp = sys.argv[1:]
for flags in (["--exact-p"], []):
    code = main(["correlate", *flags, "--truth", truth, "--repo", repo, "--branch", "main",
                 "--cache-dir", f"{tmp}/cache", "--out", f"{tmp}/out"])
    print(flags, code, "scipy" in sys.modules)
"""
    env = dict(os.environ, PYTHONPATH=str(Path(fileexperts.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", probe, str(cli_repo), str(truth), str(tmp_path)],
                         capture_output=True, text=True, env=env, check=True)
    assert out.stdout.splitlines() == ["['--exact-p'] 0 False", "[] 0 True"]


def test_correlate_matrix(cli_repo, tmp_path, capsys):
    truth = _write_truth(tmp_path / "truth.csv", cli_repo, capsys)
    main(
        [
            "correlate",
            "--repo", str(cli_repo), "--branch", "main",
            "--truth", str(truth), "--matrix",
        ]
    )
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "variable_a,variable_b,rho,p_value,n"


def test_matrix_knowledge_cells_equal_correlate_rows(cli_repo, tmp_path, capsys):
    truth = _write_truth(tmp_path / "truth.csv", cli_repo, capsys)
    argv = ["correlate", "--repo", str(cli_repo), "--branch", "main", "--truth", str(truth)]
    main(argv)
    correlate = capsys.readouterr()
    main(argv + ["--matrix"])
    matrix = capsys.readouterr()
    rows = list(csv.reader(io.StringIO(correlate.out)))[1:]
    cells = {
        a: [rho, p_value, n]
        for a, b, rho, p_value, n in list(csv.reader(io.StringIO(matrix.out)))[1:]
        if b == "knowledge" and a != "knowledge"
    }
    assert rows and {variable: rest for variable, *rest in rows} == cells
    assert matrix.err == correlate.err


@pytest.fixture(scope="module")
def first_author_repo(tmp_path_factory):
    """Six files, each with its first author's row varying in every
    variable but fa; two files gain a line from a second developer."""
    repo = RepoBuilder(tmp_path_factory.mktemp("first-author") / "repo")
    devs = [("Ana Lima", "ana@x.com"), ("Bo Chen", "bo@y.com"), ("Cy Dee", "cy@z.com")]
    day, start = 86_400, 1_600_000_000
    for i in range(6):
        name, email = devs[i % 3]
        lines = [f"if v_{i}_{j} > {j}:" if j < i % 3 else f"v_{i}_{j} = {j}" for j in range(i + 2)]
        repo.commit(name, email, start + i * day, writes={f"f{i}.py": "\n".join(lines) + "\n"})
        if i % 2:  # the first author rewrites the first line and removes the last
            lines = [f"v_{i}_0 = 100", *lines[1:-1]]
            repo.commit(name, email, start + (7 + 3 * i) * day,
                        writes={f"f{i}.py": "\n".join(lines) + "\n"})
        if i in (0, 3):
            other, other_email = devs[(i + 1) % 3]
            lines.append(f"w_{i} = 0")
            repo.commit(other, other_email, start + (30 + i) * day,
                        writes={f"f{i}.py": "\n".join(lines) + "\n"})
    return repo.finish()


@pytest.mark.parametrize("mode", [[], ["--matrix"], ["--exact-p"]])
def test_constant_variable_warns_once_in_every_mode(first_author_repo, tmp_path, capsys, mode):
    """Every labeled pair is its file's first authorship, so fa is constant
    and has no coefficient; every other variable varies."""
    repo = ["--repo", str(first_author_repo), "--branch", "main"]
    main(["mine", *repo])
    rows = [row for row in csv.DictReader(io.StringIO(capsys.readouterr().out)) if row["fa"] == "1"]
    truth = tmp_path / "truth.csv"
    truth.write_text("repo,developer_email,file,knowledge\n" + "".join(
        f"fixture,{row['developer']},{row['file']},{i % 5 + 1}\n" for i, row in enumerate(rows)
    ))
    assert main(["correlate", *mode, *repo, "--truth", str(truth)]) == 0
    captured = capsys.readouterr()
    assert [json.loads(line) for line in captured.err.splitlines()] == [
        {"variable": "fa", "warning": "undefined correlation"}
    ]
    variables = {row[0] for row in csv.reader(io.StringIO(captured.out))}
    assert "fa" not in variables and "adds" in variables


def test_matrix_and_exact_p_are_exclusive(capsys):
    """The matrix has t-approximation p-values alone, so --exact-p would be ignored."""
    with pytest.raises(SystemExit) as exit_info:
        main(["correlate", "--truth", "truth.csv", "--matrix", "--exact-p"])
    assert exit_info.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


@pytest.mark.parametrize("mode", [[], ["--matrix"]])
def test_correlate_seed_without_exact_p_is_rejected(mode, capsys):
    """Only the permutation test of --exact-p draws random numbers, so any
    other correlate would ignore --seed."""
    with pytest.raises(SystemExit) as exit_info:
        main(["correlate", "--truth", "truth.csv", "--seed", "7", *mode])
    assert exit_info.value.code == 2
    assert "--seed only with --exact-p" in capsys.readouterr().err


def test_sample(cli_repo, capsys):
    main(["sample", "--repo", str(cli_repo), "--branch", "main", "--limit", "5", "--seed", "0"])
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0] == "developer_email,file"
    per_dev = {}
    for line in lines[1:]:
        dev, _file = line.split(",")
        per_dev[dev] = per_dev.get(dev, 0) + 1
    assert all(v <= 5 for v in per_dev.values())


def test_filter_corpus(tmp_path, capsys):
    metrics = tmp_path / "metrics.csv"
    metrics.write_text(
        "repo,commits,files,developers\n"
        "tiny,10,100,50\nmid,20,100,50\nbig,30,100,50\nhuge,40,100,50\n"
    )
    main(["filter-corpus", str(metrics)])
    out = capsys.readouterr().out
    assert out.splitlines() == ["repo", "mid", "big", "huge"]


def test_filter_corpus_rejects_a_repeated_repo(tmp_path, capsys):
    """The first r is below the first quartile on all three metrics, the
    second is not: one name cannot carry both."""
    metrics = tmp_path / "metrics.csv"
    metrics.write_text("repo,commits,files,developers\nr,1,1,1\nr,9,9,9\nq,5,5,5\nz,6,6,6\n")
    assert main(["filter-corpus", str(metrics)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {
        "error": "errors.InvalidRepoMetrics",
        "message": f"metrics CSV {metrics} line 3: repo 'r' is named twice",
    }


def test_filter_corpus_reads_past_a_byte_order_mark(tmp_path, capsys):
    metrics = tmp_path / "metrics.csv"
    metrics.write_text(
        "\ufeffrepo,commits,files,developers\n"
        "tiny,10,100,50\nmid,20,100,50\nbig,30,100,50\nhuge,40,100,50\n",
        encoding="utf-8",
    )
    assert main(["filter-corpus", str(metrics)]) == 0
    assert capsys.readouterr().out.splitlines() == ["repo", "mid", "big", "huge"]


def test_ingest_truth_reads_past_a_byte_order_mark(cli_repo, tmp_path, capsys):
    rows = "repo,developer_email,file,knowledge\nfixture,ana@x.com,src/f0.py,5\n"
    plain, marked = tmp_path / "plain.csv", tmp_path / "bom.csv"
    plain.write_text(rows, encoding="utf-8")
    marked.write_text("\ufeff" + rows, encoding="utf-8")
    outputs = []
    for truth in (plain, marked):
        assert main(["ingest-truth", str(truth), "--repo", str(cli_repo), "--branch", "main"]) == 0
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1]
    assert "ana@x.com,src/f0.py,expert" in outputs[1].out


def test_ingest_truth_reports_unresolved(cli_repo, tmp_path, capsys):
    truth = tmp_path / "truth.csv"
    truth.write_text(
        "repo,developer_email,file,knowledge\n"
        "fixture,ana@x.com,src/f0.py,5\n"
        "fixture,ghost@nowhere.com,src/f0.py,4\n"
    )
    main(["ingest-truth", str(truth), "--repo", str(cli_repo), "--branch", "main"])
    captured = capsys.readouterr()
    assert "ana@x.com,src/f0.py,expert" in captured.out
    warning = json.loads(captured.err.splitlines()[0])
    assert warning["reason"] == "unknown developer"


def test_error_is_machine_readable(tmp_path, capsys):
    code = main(["mine", "--repo", str(tmp_path / "not-a-repo")])
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "errors.RepositoryNotFound"


def test_reference_time_override_changes_num_days(cli_repo, capsys):
    main(["features", "--repo", str(cli_repo), "--branch", "main"])
    base = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    main(
        [
            "features",
            "--repo", str(cli_repo), "--branch", "main",
            "--reference-time", "2030-01-01T00:00:00+00:00",
        ]
    )
    overridden = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert all(
        int(o["num_days"]) > int(b["num_days"]) for o, b in zip(overridden, base)
    )


def test_reference_time_before_the_history_is_an_error(cli_repo, tmp_path, capsys):
    """A reference time before the last commit would make num_days negative;
    it is refused before any feature is computed or cached."""
    cache = tmp_path / "cache"
    code = main(["mine", "--repo", str(cli_repo), "--branch", "main", "--cache-dir", str(cache),
                 "--reference-time", "2000-01-01"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err)
    assert error["error"] == "errors.InvalidReferenceTime"
    # the CLI names its flag; the library names MiningInputs.reference_time
    assert error["message"].startswith(
        "--reference-time 2000-01-01T00:00:00+00:00 precedes the mined history's reference time "
    )
    assert "2020-" in error["message"]  # the last commit is in 2020
    assert not list(cache.glob("*"))


def test_mine_prints_the_table_the_library_mines(demo_repo_path, tmp_path, capsys):
    aliases = tmp_path / "aliases.csv"
    aliases.write_text("bob@example.com,alice@dev.example.com\n")
    inputs = MiningInputs(
        mod_threshold=0.3,
        reference_time=datetime(2021, 6, 1, tzinfo=timezone.utc),
        alias_map=[("bob@example.com", "alice@dev.example.com")],
        vendor_globs=("web/**",),
    )
    assert main(["mine", "--repo", str(demo_repo_path), "--branch", "main", "--no-cache",
                 "--alias-map", str(aliases), "--vendor-glob", "web/**",
                 "--mod-threshold", "0.3", "--reference-time", "2021-06-01"]) == 0
    mined = capsys.readouterr().out
    history = mine_history(demo_repo_path, "main", inputs)
    table = compute_all(history, inputs.language_config, inputs.mod_threshold)
    assert mined == feature_table_to_csv(table)
    assert mined != feature_table_to_csv(compute_all(mine_history(demo_repo_path, "main")))
    early = replace(inputs, reference_time=datetime(2020, 1, 1, tzinfo=timezone.utc))
    with pytest.raises(InvalidReferenceTime) as refused:
        mine_history(demo_repo_path, "main", early)
    assert str(refused.value).startswith(
        "reference_time 2020-01-01T00:00:00+00:00 precedes the mined history's reference time "
    )


def test_vendor_glob_flag(tmp_path, capsys):
    repo = RepoBuilder(tmp_path / "vendored")
    repo.commit(
        "Ana",
        "ana@x.com",
        1_600_000_000,
        writes={"src/app.py": "x = 1\n", "generated/out.py": "y = 2\n"},
    )
    path = repo.finish()
    main(["features", "--repo", str(path), "--branch", "main", "--vendor-glob", "generated/**"])
    out = capsys.readouterr().out
    assert "src/app.py" in out
    assert "generated/out.py" not in out


def test_alias_map_flag(tmp_path, capsys):
    repo = RepoBuilder(tmp_path / "aliased")
    repo.commit("X One", "one@x.com", 1_600_000_000, writes={"a.py": "x = 1\n"})
    repo.commit("Y Two", "two@y.com", 1_600_100_000, writes={"a.py": "x = 1\ny = 2\n"})
    path = repo.finish()
    alias_csv = tmp_path / "aliases.csv"
    alias_csv.write_text("one@x.com,two@y.com\n")
    main(["features", "--repo", str(path), "--branch", "main", "--alias-map", str(alias_csv)])
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert [r["developer"] for r in rows] == ["one@x.com"]
    assert rows[0]["num_commits"] == "2"


def test_alias_map_reads_past_a_byte_order_mark(tmp_path, capsys):
    repo = RepoBuilder(tmp_path / "aliased")
    repo.commit("X One", "one@x.com", 1_600_000_000, writes={"a.py": "x = 1\n"})
    repo.commit("Y Two", "two@y.com", 1_600_100_000, writes={"a.py": "x = 1\ny = 2\n"})
    path = repo.finish()
    alias_csv = tmp_path / "aliases.csv"
    alias_csv.write_text("\ufeffone@x.com,two@y.com\n", encoding="utf-8")
    main(["features", "--repo", str(path), "--branch", "main", "--alias-map", str(alias_csv),
          "--no-cache"])
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert [r["developer"] for r in rows] == ["one@x.com"]


def test_empty_alias_map_shares_the_cache_entry_of_no_map(cli_repo, tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    cache = tmp_path / "cache"
    mine = ["mine", "--repo", str(cli_repo), "--branch", "main", "--cache-dir", str(cache)]
    main(mine)
    plain = capsys.readouterr().out
    main([*mine, "--alias-map", str(empty)])
    assert capsys.readouterr().out == plain
    assert len(list(cache.glob("features-*.csv"))) == 1
    assert len(list(cache.glob("history-*.ndjson"))) == 1


def test_cache_reused_across_runs(cli_repo, tmp_path, capsys):
    cache = tmp_path / "cache"
    for _ in range(2):
        main(
            [
                "mine",
                "--repo", str(cli_repo), "--branch", "main",
                "--cache-dir", str(cache),
            ]
        )
    capsys.readouterr()
    cached = sorted(p.name for p in cache.iterdir())
    assert any(name.startswith("history-") for name in cached)
    assert any(name.startswith("features-") for name in cached)


@pytest.mark.parametrize("changed", ["data/languages.json", "diffs.py"])
def test_cache_key_covers_every_package_file(cli_repo, tmp_path, changed):
    """One byte changed in a copy of the package, the bundled language table
    included, changes the cache key, so the entry the unchanged copy wrote
    is not served: here that entry is cut short, and serving it is an
    error."""
    copy = tmp_path / "copy"
    shutil.copytree(Path(fileexperts.__file__).parent, copy / "fileexperts",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cache = tmp_path / "cache"

    def mine():
        argv = [sys.executable, "-m", "fileexperts.cli", "mine", "--repo", str(cli_repo),
                "--branch", "main", "--cache-dir", str(cache)]
        return subprocess.run(argv, capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": str(copy)})

    cold = mine()
    assert cold.returncode == 0
    (entry,) = cache.glob("features-*.csv")
    entry.write_text(cold.stdout.splitlines(keepends=True)[0])  # the header alone
    assert "errors.CorruptFeatureTable" in mine().stderr  # the same code reads it
    edited = copy / "fileexperts" / changed
    data = edited.read_bytes()
    assert data.endswith(b"\n")
    edited.write_bytes(data[:-1] + b" ")
    rerun = mine()
    assert (rerun.returncode, rerun.stdout) == (0, cold.stdout)
    assert len(list(cache.glob("features-*.csv"))) == 2


def test_git_stderr_on_success_is_one_warning(tmp_path, capsys, monkeypatch):
    """Under a rename limit of 1, git reports four renamed and edited files
    as deletions plus additions and says so on stderr while exiting 0; the
    run reports that text as one warning line."""
    repo = RepoBuilder(tmp_path / "repo")
    bodies = {f"f{i}.py": "".join(f"line_{i}_{n} = {n}\n" for n in range(20)) for i in range(4)}
    repo.commit("Ana Lima", "ana@x.com", 1_600_000_000, writes=bodies)
    repo.commit("Bo Chen", "bo@y.com", 1_600_100_000, deletes=tuple(bodies),
                writes={f"g{path}": body + "edited = 1\n" for path, body in bodies.items()})
    repo = repo.finish()
    mine = ["mine", "--repo", str(repo), "--branch", "main", "--no-cache"]
    assert main(mine) == 0
    renamed = capsys.readouterr()
    assert renamed.err == ""
    for name, value in [("COUNT", "1"), ("KEY_0", "diff.renameLimit"), ("VALUE_0", "1")]:
        monkeypatch.setenv(f"GIT_CONFIG_{name}", value)
    assert main(mine) == 0
    limited = capsys.readouterr()
    assert limited.out != renamed.out  # Bo's files are additions now
    (line,) = limited.err.splitlines()
    warning = json.loads(line)
    assert warning["category"] == "errors.GitWarning"
    assert warning["warning"].startswith("git diff-tree: ")
    assert "exhaustive rename detection was skipped due to too many files" in warning["warning"]


def test_correlate_warning_carries_repo(cli_repo, tmp_path, capsys):
    truth = _write_truth(tmp_path / "truth.csv", cli_repo, capsys)
    with open(truth, "a", newline="") as handle:
        handle.write("fixture,ghost@nowhere.com,src/f0.py,4\n")
    main(["correlate", "--repo", str(cli_repo), "--branch", "main", "--truth", str(truth)])
    warnings = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
    unresolved = [w for w in warnings if w["warning"] == "unresolved ground-truth pair"]
    assert unresolved == [
        {
            "warning": "unresolved ground-truth pair",
            "repo": "fixture",
            "developer": "ghost@nowhere.com",
            "file": "src/f0.py",
            "reason": "unknown developer",
        }
    ]


def test_cache_key_follows_language_config_contents(cli_repo, tmp_path, capsys):
    cache = tmp_path / "cache"
    config = tmp_path / "languages.json"
    raw = json.loads(resources.files("fileexperts").joinpath("data/languages.json").read_text())
    argv = [
        "mine", "--repo", str(cli_repo), "--branch", "main",
        "--cache-dir", str(cache), "--language-config", str(config),
    ]

    def conds() -> int:
        main(argv)
        rows = csv.DictReader(io.StringIO(capsys.readouterr().out))
        return sum(int(row["conds"]) for row in rows)

    config.write_text(json.dumps(raw))
    assert conds() > 0
    raw["python"]["conditional_keywords"] = ["elif"]
    config.write_text(json.dumps(raw))  # same path, new contents
    assert conds() == 0
    assert len(list(cache.glob("features-*.csv"))) == 2


def test_language_table_rewritten_while_mining_is_cached_as_read(
    cli_repo, tmp_path, capsys, monkeypatch
):
    import fileexperts.cli as cli

    config = tmp_path / "languages.json"
    raw = json.loads(resources.files("fileexperts").joinpath("data/languages.json").read_text())
    original = json.dumps(raw)
    raw["python"]["conditional_keywords"] = ["elif"]
    config.write_text(original)
    argv = ["mine", "--repo", str(cli_repo), "--branch", "main", "--language-config", str(config)]
    assert main([*argv, "--no-cache"]) == 0
    uncached = capsys.readouterr().out
    mine = cli.mine_history

    def rewrite_then_mine(*args, **kwargs):
        config.write_text(json.dumps(raw))
        return mine(*args, **kwargs)

    monkeypatch.setattr(cli, "mine_history", rewrite_then_mine)
    cache = ["--cache-dir", str(tmp_path / "cache")]
    assert main([*argv, *cache]) == 0  # mines with the table it read first
    assert capsys.readouterr().out == uncached
    monkeypatch.setattr(cli, "mine_history", mine)
    config.write_text(original)
    assert main([*argv, *cache]) == 0
    assert capsys.readouterr().out == uncached


class _Mined(Exception):
    """Raised where a run that should read the cache mines instead."""


def test_commit_landing_while_mining_is_cached_under_the_tip_mined(
    tmp_path, capsys, monkeypatch
):
    import fileexperts.cli as cli

    builder = RepoBuilder(tmp_path / "repo")
    builder.commit("Ana", "ana@x.com", 1_600_000_000, writes={"a.py": "if x:\n    y = 1\n"})
    builder.commit("Bo", "bo@y.com", 1_600_100_000, writes={"b.py": "z = 2\n"}, branch="next")
    repo = builder.finish()

    def git(*args):
        return subprocess.run(["git", "-C", str(repo), *args], check=True,
                              capture_output=True, text=True).stdout.strip()

    first, landed = git("rev-parse", "main"), git("rev-parse", "next")
    mine = cli.mine_history

    def land_then_mine(*args, **kwargs):
        git("update-ref", "refs/heads/main", landed)
        return mine(*args, **kwargs)

    def refuse(*_args, **_kwargs):
        raise _Mined

    cache = tmp_path / "cache"
    argv = ["mine", "--repo", str(repo), "--branch", "main", "--cache-dir", str(cache)]
    monkeypatch.setattr(cli, "mine_history", land_then_mine)
    assert main(argv) == 0  # looked up at the first commit, mined at the one that landed
    mined = capsys.readouterr().out
    assert "b.py" in mined
    (history,) = cache.glob("history-*.ndjson")
    meta = json.loads(history.read_text().split("\n", 1)[0])["meta"]
    assert meta["metadata"]["tip"] == landed

    monkeypatch.setattr(cli, "mine_history", refuse)
    assert main(argv) == 0  # the entry is named for the tip it holds
    assert capsys.readouterr().out == mined
    git("update-ref", "refs/heads/main", first)
    with pytest.raises(_Mined):  # and for no other
        main(argv)


@pytest.fixture(scope="module")
def alias_repo(tmp_path_factory):
    """Ana commits as ana@x.com and as ana.lima@work.com; "Ana Lima" and
    "Ana Lim" are within the 30% name rule, so both e-mails are one
    developer whose canonical key is ana.lima@work.com."""
    repo = RepoBuilder(tmp_path_factory.mktemp("alias") / "repo")
    authors = [
        ("Ana Lima", "ana@x.com"),
        ("Ana Lim", "ana.lima@work.com"),
        ("Bo Chen", "bo@y.com"),
    ]
    when = 1_600_000_000
    body = {}
    for i in range(9):
        name, email = authors[i % 3]
        body[i] = "".join(f"x_{j} = {j}\nif x_{j}:\n    y = {i}\n" for j in range(i + 1))
        repo.commit(name, email, when, writes={f"src/f{i}.py": body[i]})
        when += 86_400
    for i in range(0, 9, 2):  # Bo edits a line of five files and adds one
        edited = body[i].replace("x_0 = 0", "x_0 = 10") + f"z = {i}\n"
        repo.commit("Bo Chen", "bo@y.com", when, writes={f"src/f{i}.py": edited})
        when += 86_400 * (i + 1)
    return repo.finish()


def _alias_truth(path, alias_repo, capsys):
    """A label for every mined pair; Ana's rows name her non-canonical e-mail."""
    main(["mine", "--repo", str(alias_repo), "--branch", "main", "--no-cache"])
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert {r["developer"] for r in rows} == {"ana.lima@work.com", "bo@y.com"}
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["repo", "developer_email", "file", "knowledge"])
        for i, row in enumerate(rows):
            email = "ana@x.com" if row["developer"] == "ana.lima@work.com" else row["developer"]
            writer.writerow(["fixture", email, row["file"], 5 if i % 2 == 0 else 2])
    return path


@pytest.mark.parametrize(
    "command",
    [
        ("ingest-truth", "{truth}"),
        ("calibrate", "--truth", "{truth}", "--folds", "2"),
        ("evaluate", "--classifier", "knn", "--truth", "{truth}", "--folds", "2"),
        ("correlate", "--truth", "{truth}"),
        ("rank", "--technique", "doa", "--file", "src/f0.py", "--format", "json"),
    ],
    ids=lambda command: command[0],
)
def test_warm_run_equals_cold_run(alias_repo, tmp_path, capsys, command):
    truth = _alias_truth(tmp_path / "truth.csv", alias_repo, capsys)
    argv = [part.format(truth=truth) for part in command] + [
        "--repo", str(alias_repo), "--branch", "main", "--cache-dir", str(tmp_path / "cache"),
    ]
    runs = []
    for _ in range(2):  # the first run fills the cache, the second reads it
        assert main(argv) == 0
        runs.append(capsys.readouterr())
    assert runs[1].out == runs[0].out
    assert runs[1].err == runs[0].err
    assert "unresolved" not in runs[1].err
    if command[0] == "ingest-truth":
        assert "ana.lima@work.com,src/f0.py,expert" in runs[1].out
        assert runs[1].err == ""


def test_warm_commands_read_no_cached_commits(cli_repo, tmp_path, capsys):
    truth = _write_truth(tmp_path / "truth.csv", cli_repo, capsys)
    cache = tmp_path / "cache"
    repo = ["--repo", str(cli_repo), "--branch", "main", "--cache-dir", str(cache)]
    commands = [
        ["rank", "--technique", "doa", "--file", "src/f0.py", *repo],
        ["calibrate", "--truth", str(truth), "--folds", "3", *repo],
        ["sample", "--limit", "2", *repo],
    ]
    cold = [[main(argv) for argv in commands], capsys.readouterr()]
    (history,) = cache.glob("history-*.ndjson")
    meta, *commits = history.read_text().splitlines(keepends=True)
    assert len(commits) == 18
    history.write_text(meta + "not a commit\n" * len(commits))  # the meta line survives
    assert [[main(argv) for argv in commands], capsys.readouterr()] == cold


def _warm_rank_after(
    corrupt, cli_repo, tmp_path, capsys, cached="history-*.ndjson"
) -> tuple[int, list[str]]:
    """Exit code and stderr lines of a warm rank whose cached file matching
    ``cached`` had its text passed through ``corrupt``; a surrogate such as
    ``\\udcff`` in the corrupted text is written as that one raw byte."""
    cache = tmp_path / "cache"
    argv = ["rank", "--technique", "doa", "--file", "src/f0.py",
            "--repo", str(cli_repo), "--branch", "main", "--cache-dir", str(cache)]
    assert main(argv) == 0
    (path,) = cache.glob(cached)
    path.write_bytes(corrupt(path.read_text()).encode("utf-8", "surrogateescape"))
    capsys.readouterr()
    code = main(argv)
    return code, capsys.readouterr().err.splitlines()


def test_corrupt_cached_meta_line_is_an_error(cli_repo, tmp_path, capsys):
    def drop_meta(text):
        return text.split("\n", 1)[1]

    code, (line,) = _warm_rank_after(drop_meta, cli_repo, tmp_path, capsys)
    assert code == 1
    error = json.loads(line)
    assert error["error"] == "errors.CorruptHistory"
    (path,) = (tmp_path / "cache").glob("history-*.ndjson")
    assert error["message"] == (
        f"history {path} line 1 is malformed: a commit before the meta line"
    )


def test_cut_short_cached_meta_line_is_an_error(cli_repo, tmp_path, capsys):
    def cut_meta(text):
        meta, rest = text.split("\n", 1)
        return meta[: len(meta) // 2] + "\n" + rest

    code, (line,) = _warm_rank_after(cut_meta, cli_repo, tmp_path, capsys)
    assert code == 1
    error = json.loads(line)
    assert error["error"] == "errors.CorruptHistory"
    (path,) = (tmp_path / "cache").glob("history-*.ndjson")
    assert error["message"].startswith(f"history {path} line 1 is malformed: ")


@pytest.mark.parametrize(
    "cached, error, line",
    [("history-*.ndjson", "errors.CorruptHistory", 1),
     ("features-*.csv", "errors.CorruptFeatureTable", 3)],
    ids=["meta-line", "feature-csv"],
)
def test_cached_file_that_is_not_utf_8_is_an_error(cli_repo, tmp_path, capsys, cached, error,
                                                   line):
    def break_line(text):
        lines = text.splitlines(keepends=True)
        lines[line - 1] = "\udcff" + lines[line - 1]
        return "".join(lines)

    code, (reported,) = _warm_rank_after(break_line, cli_repo, tmp_path, capsys, cached=cached)
    assert code == 1
    reported = json.loads(reported)
    assert reported["error"] == error
    (path,) = (tmp_path / "cache").glob(cached)
    assert f"{path} line {line}: 'utf-8' codec can't decode byte 0xff" in reported["message"]


def test_cut_short_cached_feature_csv_is_an_error(cli_repo, tmp_path, capsys):
    code, (line,) = _warm_rank_after(
        lambda text: text[:300], cli_repo, tmp_path, capsys, cached="features-*.csv"
    )
    assert code == 1
    error = json.loads(line)
    assert error["error"] == "errors.CorruptFeatureTable"
    assert "features-" in error["message"]
    assert " line " in error["message"]


def test_cached_feature_csv_cut_at_a_line_boundary_is_an_error(cli_repo, tmp_path, capsys):
    def drop_rows(text):
        return "".join(text.splitlines(keepends=True)[:3])

    code, (line,) = _warm_rank_after(drop_rows, cli_repo, tmp_path, capsys,
                                     cached="features-*.csv")
    assert code == 1
    error = json.loads(line)
    assert error["error"] == "errors.CorruptFeatureTable"
    assert "features-" in error["message"]
    assert "holds 2 rows; the cache recorded 18" in error["message"]


def test_only_the_cached_history_records_the_feature_rows(cli_repo, tmp_path, capsys):
    out = tmp_path / "history.ndjson"
    main(["mine", "--repo", str(cli_repo), "--branch", "main", "--history-out", str(out),
          "--cache-dir", str(tmp_path / "cache")])
    rows = len(capsys.readouterr().out.splitlines()) - 1
    (cached,) = (tmp_path / "cache").glob("history-*.ndjson")
    cached_meta, written_meta = (json.loads(path.read_text().split("\n", 1)[0])["meta"]
                                 for path in (cached, out))
    assert cached_meta["metadata"].pop("feature_rows") == rows
    assert cached_meta == written_meta


def test_sample_fills_the_cache_that_warm_commands_read(cli_repo, tmp_path, capsys, monkeypatch):
    import fileexperts.cli as cli

    cache = tmp_path / "cache"
    repo = ["--repo", str(cli_repo), "--branch", "main", "--cache-dir", str(cache)]
    sample = ["sample", "--limit", "3", "--seed", "7", *repo]
    assert main([*sample, "--no-cache"]) == 0
    uncached = capsys.readouterr().out
    assert not cache.exists()
    assert main(sample) == 0  # the first sample computes and caches the feature table
    assert capsys.readouterr().out == uncached
    assert len(list(cache.glob("features-*.csv"))) == 1

    def refuse(*_args, **_kwargs):
        raise AssertionError("a warm command mined or computed the feature table")

    monkeypatch.setattr(cli, "mine_history", refuse)
    monkeypatch.setattr(cli, "compute_all", refuse)
    assert main(sample) == 0
    assert capsys.readouterr().out == uncached
    assert main(["rank", "--technique", "doa", "--file", "src/f0.py", *repo]) == 0


@pytest.mark.parametrize(
    "text",
    ['{"python": {}}', "not json"],
    ids=["missing-key", "not-json"],
)
def test_malformed_language_config_is_an_error(cli_repo, tmp_path, capsys, text):
    config = tmp_path / "languages.json"
    config.write_text(text)
    code = main(["mine", "--repo", str(cli_repo), "--branch", "main", "--no-cache",
                 "--language-config", str(config)])
    assert code == 1
    (line,) = capsys.readouterr().err.splitlines()
    error = json.loads(line)
    assert error["error"] == "errors.InvalidLanguageConfig"
    assert str(config) in error["message"]


def test_truth_csv_without_a_column_is_an_error(cli_repo, tmp_path, capsys):
    truth = tmp_path / "truth.csv"
    truth.write_text("repo,file,knowledge\nfixture,src/f0.py,5\n")
    code = main(["calibrate", "--truth", str(truth), "--repo", str(cli_repo),
                 "--branch", "main", "--no-cache"])
    assert code == 1
    (line,) = capsys.readouterr().err.splitlines()
    error = json.loads(line)
    assert error["error"] == "errors.InvalidGroundTruth"
    assert "developer_email" in error["message"]


@pytest.mark.parametrize(
    "command",
    [
        ("ingest-truth", "{truth}"),
        ("calibrate", "--truth", "{truth}"),
        ("evaluate", "--classifier", "knn", "--truth", "{truth}"),
        ("correlate", "--truth", "{truth}"),
    ],
    ids=lambda command: command[0],
)
def test_ground_truth_is_read_before_mining(cli_repo, tmp_path, capsys, monkeypatch, command):
    import fileexperts.cli as cli

    def mine(*args, **kwargs):
        raise AssertionError("the repository was read before the ground truth")

    monkeypatch.setattr(cli, "branch_tip", mine)
    monkeypatch.setattr(cli, "mine_history", mine)
    truth = tmp_path / "empty.csv"
    truth.write_text("")
    cache = tmp_path / "cache"
    argv = [part.format(truth=truth) for part in command] + [
        "--repo", str(cli_repo), "--branch", "main", "--cache-dir", str(cache),
    ]
    assert main(argv) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert json.loads(line) == {
        "error": "errors.InvalidGroundTruth",
        "message": f"ground-truth CSV {truth} lacks columns "
        "['repo', 'developer_email', 'file', 'knowledge']",
    }
    assert not cache.exists()


@pytest.mark.parametrize(
    "args, error, named",
    [
        (["mine", "--reference-time", "yesterday"], "errors.InvalidReferenceTime", "yesterday"),
        (["mine", "--alias-map", "{tmp}/absent.csv"], "errors.UnreadableAliasMap", "absent.csv"),
        (["mine", "--no-cache", "--alias-threshold", "nan"], "errors.InvalidThreshold", "nan"),
        (["mine", "--no-cache", "--alias-threshold", "1.5"], "errors.InvalidThreshold", "1.5"),
        (["ingest-truth", "{tmp}/truth.csv", "--column-map", "repo"],
         "errors.InvalidColumnMap", "'repo'"),
        (["ingest-truth", "{tmp}/truth.csv", "--column-map", "developer_email=Email,knowledg=k"],
         "errors.InvalidColumnMap",
         "['knowledg']; the logical columns are repo,developer_email,file,knowledge"),
        (["evaluate", "--classifier", "knn", "--truth", "{tmp}/truth.csv", "--folds", "0"],
         "errors.InvalidCount", "folds must be >= 2, got 0"),
        (["evaluate", "--classifier", "knn", "--truth", "{tmp}/truth.csv", "--folds", "1"],
         "errors.InvalidCount", "folds must be >= 2, got 1"),
        (["calibrate", "--truth", "{tmp}/truth.csv", "--folds", "0"],
         "errors.InvalidCount", "folds must be >= 2, got 0"),
        (["calibrate", "--truth", "{tmp}/truth.csv", "--folds", "1"],
         "errors.InvalidCount", "folds must be >= 2, got 1"),
        (["calibrate", "--truth", "{tmp}/absent.csv"], "errors.InvalidGroundTruth", "absent.csv"),
        (["calibrate", "--truth", "{tmp}/latin-1.csv"], "errors.InvalidGroundTruth", "utf-8"),
        (["mine", "--language-config", "{tmp}/absent.json"],
         "errors.InvalidLanguageConfig", "absent.json"),
        (["mine", "--no-cache", "--language-config", "{tmp}/absent.json"],
         "errors.InvalidLanguageConfig", "absent.json"),
        (["sample", "--limit", "0"], "errors.InvalidCount", "file_limit must be >= 1"),
        (["filter-corpus", "{tmp}/absent.csv"], "errors.InvalidRepoMetrics", "absent.csv"),
        (["filter-corpus", "{tmp}/no-developers.csv"],
         "errors.InvalidRepoMetrics", "no-developers.csv lacks columns ['developers']"),
        (["filter-corpus", "{tmp}/not-integer.csv"], "errors.InvalidRepoMetrics", "line 2"),
        (["filter-corpus", "{tmp}/metrics-latin-1.csv"],
         "errors.InvalidRepoMetrics", "metrics-latin-1.csv line 2: 'utf-8' codec"),
        (["filter-corpus", "{tmp}/metrics-long-row.csv"],
         "errors.InvalidRepoMetrics", "metrics-long-row.csv line 3: 5 fields, expected 4"),
        (["filter-corpus", "{tmp}/one-repo.csv"],
         "errors.TooFewRepos", "one-repo.csv: need at least 4 repositories, got 1"),
        (["calibrate", "--truth", "{tmp}/huge-field.csv"],
         "errors.InvalidGroundTruth", "huge-field.csv line 2: field larger than field limit"),
        (["ingest-truth", "{tmp}/absent.csv", "--column-map", "developer_email=file"],
         "errors.InvalidColumnMap", "['developer_email', 'file'] at one header"),
        (["mine", "--alias-map", "{tmp}/latin-1.csv"],
         "errors.UnreadableAliasMap", "latin-1.csv line 2: 'utf-8' codec"),
        (["rank", "--technique", "doa", "--file", "src/absent.py"],
         "errors.NoScores", "'src/absent.py'"),
        # a repository with no source file replays no lineage, so only an
        # up-front check can reject these, before anything is cached
        (["mine", "--repo", "{notes}", "--mod-threshold", "2"], "errors.InvalidThreshold", "2.0"),
        (["mine", "--repo", "{notes}", "--mod-threshold", "nan"],
         "errors.InvalidThreshold", "nan"),
        (["mine", "--repo", "{notes}", "--mod-threshold", "-0.5"],
         "errors.InvalidThreshold", "-0.5"),
    ],
    ids=["reference-time", "alias-map", "alias-threshold-nan", "alias-threshold-1.5",
         "column-map", "column-map-unknown-name", "evaluate-folds-0", "evaluate-folds-1",
         "calibrate-folds-0", "calibrate-folds-1", "truth-missing", "truth-not-utf-8",
         "language-config-missing", "language-config-missing-no-cache", "sample-limit-0",
         "metrics-missing", "metrics-without-column", "metrics-not-integer", "metrics-not-utf-8",
         "metrics-long-row", "metrics-too-few", "truth-oversized-field", "column-map-shared-header",
         "alias-map-not-utf-8", "rank-no-scores", "mod-threshold-2", "mod-threshold-nan",
         "mod-threshold-negative"],
)
def test_malformed_option_is_an_error(cli_repo, notes_repo, tmp_path, capsys, args, error,
                                      named):
    (tmp_path / "truth.csv").write_text(
        "repo,developer_email,file,knowledge\n"
        "fixture,ana@x.com,src/f0.py,5\nfixture,bo@y.com,src/f0.py,2\n"
    )
    (tmp_path / "latin-1.csv").write_bytes(
        b"repo,developer_email,file,knowledge\nfixture,caf\xe9@x.com,src/f0.py,5\n"
    )
    (tmp_path / "no-developers.csv").write_text("repo,commits,files\nr,1,2\n")
    (tmp_path / "not-integer.csv").write_text("repo,commits,files,developers\nr,1,2,many\n")
    (tmp_path / "metrics-latin-1.csv").write_bytes(
        b"repo,commits,files,developers\ncaf\xe9,1,2,3\n"
    )
    (tmp_path / "metrics-long-row.csv").write_text(
        "repo,commits,files,developers\nr,1,2,3\ns,1,2,3,4\n"
    )
    (tmp_path / "one-repo.csv").write_text("repo,commits,files,developers\nr,1,2,3\n")
    (tmp_path / "huge-field.csv").write_text(
        "repo,developer_email,file,knowledge\nfixture," + "a" * 140_000 + ",src/f0.py,5\n"
    )
    on_notes = "{notes}" in args
    args = [arg.replace("{tmp}", str(tmp_path)).replace("{notes}", str(notes_repo))
            for arg in args]
    if args[0] != "filter-corpus":  # the one command that reads no repository
        if not on_notes:
            args += ["--repo", str(cli_repo)]
        args += ["--branch", "main", "--cache-dir", str(tmp_path / "cache")]
    code = main(args)
    assert code == 1
    (line,) = capsys.readouterr().err.splitlines()
    reported = json.loads(line)
    assert reported["error"] == error
    assert named in reported["message"]
    if on_notes:
        assert not any((tmp_path / "cache").glob("*"))


@pytest.mark.parametrize(
    "args, error, message",
    [
        (["sample", "--limit", "0"], "errors.InvalidCount", "file_limit must be >= 1, got 0"),
        (["mine", "--alias-threshold", "5"],
         "errors.InvalidThreshold", "alias threshold 5.0 outside [0, 1]"),
        (["sample", "--mod-threshold", "2"],
         "errors.InvalidThreshold", "mod_threshold 2.0 outside [0, 1]"),
        (["rank", "--technique", "doa", "--file", "src/f0.py", "--k", "3"],
         "errors.InvalidThreshold", "k=3.0 outside [0, 1]"),
        (["calibrate", "--truth", "{tmp}/truth.csv", "--folds", "1"],
         "errors.InvalidCount", "folds must be >= 2, got 1"),
        (["evaluate", "--classifier", "knn", "--truth", "{tmp}/truth.csv", "--folds", "1"],
         "errors.InvalidCount", "folds must be >= 2, got 1"),
        (["correlate", "--truth", "{tmp}/truth.csv", "--alias-threshold", "-1"],
         "errors.InvalidThreshold", "alias threshold -1.0 outside [0, 1]"),
    ],
    ids=["sample-limit", "mine-alias-threshold", "sample-mod-threshold", "rank-k",
         "calibrate-folds", "evaluate-folds", "correlate-alias-threshold"],
)
def test_out_of_range_option_is_rejected_before_git_runs(
    cli_repo, tmp_path, capsys, monkeypatch, args, error, message
):
    """Each option value is checked before the repository is read: no git
    process starts and nothing is cached."""
    fake_bin = tmp_path / "bin"
    fake_bin.mkdir()
    git_calls = tmp_path / "git-calls"
    fake_git = fake_bin / "git"
    fake_git.write_text(f'#!/bin/sh\necho "$@" >> {git_calls}\nexit 1\n')
    fake_git.chmod(0o755)
    monkeypatch.setenv("PATH", f"{fake_bin}{os.pathsep}{os.environ['PATH']}")
    (tmp_path / "truth.csv").write_text(
        "repo,developer_email,file,knowledge\nfixture,ana@x.com,src/f0.py,5\n"
    )
    cache = tmp_path / "cache"
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in args]
    assert main([*argv, "--repo", str(cli_repo), "--branch", "main",
                 "--cache-dir", str(cache)]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert json.loads(line) == {"error": error, "message": message}
    assert not git_calls.exists()
    assert not cache.exists()


@pytest.fixture(scope="module")
def warm_demo(demo_repo_path, tmp_path_factory):
    """Pipeline options on ``demo_repo`` whose feature table is cached."""
    options = ["--repo", str(demo_repo_path), "--branch", "main",
               "--cache-dir", str(tmp_path_factory.mktemp("warm-demo"))]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["mine", *options]) == 0
    return options


# Prefixes that make some examples well-formed, so both exits are reached,
# and suffixes that are hostile to a CSV reader: a byte that is not UTF-8,
# a knowledge answer outside 1..5 and a field over the csv module's limit.
_CSV_SUFFIXES = [b"", b"\xff\n", b"r,d@x.com,f.py,6\n", b'"' + b"a" * 131_073 + b'"\n']
_CSV_PREFIXES = [
    b"",
    b"repo,developer_email,file,knowledge\ndemo,bob@example.com,src/utils.py,4\n",
    b"repo,commits,files,developers\na,1,1,1\nb,2,2,2\nc,3,3,3\nd,4,4,4\n",
    b"alice@example.com,alice@dev.example.com\n",
]
_ANY_BYTES = st.one_of(
    st.binary(max_size=80),
    st.tuples(
        st.sampled_from(_CSV_PREFIXES),
        st.text(alphabet='ab@.py5,"\r\n \x00\xe9', max_size=60).map(str.encode),
        st.sampled_from(_CSV_SUFFIXES),
    ).map(b"".join),
)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(which=st.sampled_from(["truth", "metrics", "alias-map"]), data=_ANY_BYTES)
def test_any_input_csv_exits_0_or_with_one_json_error(warm_demo, tmp_path, which, data):
    path = tmp_path / "input.csv"
    path.write_bytes(data)
    argv = {
        "truth": ["ingest-truth", str(path), *warm_demo],
        "metrics": ["filter-corpus", str(path)],
        "alias-map": ["mine", "--alias-map", str(path), *warm_demo],
    }[which]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    reported = [json.loads(line) for line in err.getvalue().splitlines()]
    if code == 1:
        (error,) = reported
        assert set(error) == {"error", "message"}
        assert str(path) in error["message"]
    else:
        assert code == 0
        assert all("warning" in line for line in reported)


def test_mine_history_out_mines_and_computes_once(cli_repo, tmp_path, capsys, monkeypatch):
    import fileexperts.cli as cli

    calls = {"mine_history": 0, "compute_all": 0}
    for name in calls:
        original = getattr(cli, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(cli, name, counted)
    repo = ["--repo", str(cli_repo), "--branch", "main"]
    out = tmp_path / "history.ndjson"
    main(["mine", *repo, "--no-cache", "--history-out", str(out)])
    assert calls == {"mine_history": 1, "compute_all": 1}
    mined = capsys.readouterr().out
    assert len(mined.splitlines()) == 1 + 18
    assert len(out.read_text().splitlines()) == 1 + 18  # the meta line, then 18 commits

    # on a warm cache the history written is still mined, the features are read
    cache = ["--cache-dir", str(tmp_path / "cache")]
    main(["mine", *repo, *cache])
    calls.update(mine_history=0, compute_all=0)
    warm = tmp_path / "warm.ndjson"
    main(["mine", *repo, *cache, "--history-out", str(warm)])
    assert calls == {"mine_history": 1, "compute_all": 0}
    assert warm.read_bytes() == out.read_bytes()
    assert capsys.readouterr().out == mined * 2


def test_rank_json_rows_equal_csv_rows(cli_repo, capsys):
    argv = ["rank", "--technique", "num_commits", "--file", "src/f0.py", "--k", "0.7",
            "--repo", str(cli_repo), "--branch", "main"]
    main(argv)
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    main(argv + ["--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    header = rows[0]
    assert [list(record) for record in payload] == [sorted(header)] * len(payload)
    assert [[str(record[name]) for name in header] for record in payload] == rows[1:]
    assert len(payload) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["mine", "--format", "json"],
        ["sample", "--format", "csv"],
        ["filter-corpus", "metrics.csv", "--repo", "."],
        ["filter-corpus", "metrics.csv", "--seed", "1"],
        ["mine", "--seed", "3"],
        ["features", "--seed", "3"],
        ["rank", "--technique", "doa", "--file", "a.py", "--seed", "3"],
        ["ingest-truth", "truth.csv", "--seed", "3"],
    ],
)
def test_options_a_command_ignores_are_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_mine_features_and_rank_leave_numpy_and_scipy_unloaded(cli_repo, tmp_path):
    """mine, features and rank compute nothing with numpy, so neither a cold
    nor a warm run of them, in any output format, imports numpy or scipy,
    even when computing the table forks workers. The pool is os.fork and
    pipes, so no command loads multiprocessing or concurrent.futures."""
    probe = """
import os
import sys
from fileexperts import cli

repo, tmp, runs = sys.argv[1:]
cli._usable_cpus = lambda: 2  # fork, whatever this machine's CPU count
forks = []
fork = os.fork
os.fork = lambda: forks.append(None) or fork()
rank = ["rank", "--technique", "doa", "--file", "src/f0.py"]
commands = {
    "cold": [(["mine"], "mined"), (["features"], "mined"), (rank, "ranked")],
    "warm": [(rank, "ranked"), (rank + ["--k", "0.5"], "ranked"),
             (rank + ["--format", "json"], "ranked")],
}
for args, cache in commands[runs]:
    forks.clear()
    code = cli.main(args + ["--repo", repo, "--branch", "main",
                            "--cache-dir", f"{tmp}/{cache}", "--out", f"{tmp}/out"])
    modules = ("numpy", "scipy", "concurrent.futures", "multiprocessing")
    print(args[0], code, [name for name in modules if name in sys.modules],
          "forked" if forks else "in-process")
"""
    env = dict(os.environ, PYTHONPATH=str(Path(fileexperts.__file__).parents[1]))
    printed = []
    for runs in ("cold", "warm"):  # each in a new process
        out = subprocess.run([sys.executable, "-c", probe, str(cli_repo), str(tmp_path), runs],
                             capture_output=True, text=True, env=env, check=True)
        printed += out.stdout.splitlines()
    # features reads the table mine cached; the cold rank computes its own
    cold = "forked" if sys.platform.startswith("linux") else "in-process"
    assert printed == [
        f"mine 0 [] {cold}", "features 0 [] in-process", f"rank 0 [] {cold}",
        "rank 0 [] in-process", "rank 0 [] in-process", "rank 0 [] in-process",
    ]


@pytest.mark.parametrize("technique", ["doa", "num_commits", "blame"])
def test_rank_scores_each_file_as_the_whole_table_does(cli_repo, tmp_path, capsys, technique):
    """rank scores only the requested file's rows; normalization and doa's
    commit total are per file, so each ranking equals the one taken from
    the whole table's scores."""
    from fileexperts import expertise

    repo = ["--repo", str(cli_repo), "--branch", "main", "--cache-dir", str(tmp_path)]
    assert main(["mine", *repo]) == 0
    mined = tmp_path / "features.csv"
    mined.write_text(capsys.readouterr().out)
    table = read_feature_csv(mined)
    scores = expertise.technique_scores(table, technique)
    experts = expertise.classify(scores, 0.5)
    assert len(table.files()) == 12
    for file in table.files():
        assert main(["rank", "--technique", technique, "--file", file, "--k", "0.5", *repo]) == 0
        ranked = sorted((s for s in scores if s.file == file),
                        key=lambda s: (-s.normalized, s.developer))
        expected = [["rank", "developer", "raw", "normalized", "expert"]] + [
            [str(i + 1), s.developer, str(s.raw), str(s.normalized),
             str((s.developer, file) in experts)]
            for i, s in enumerate(ranked)
        ]
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert [row[:2] + row[3:] for row in rows] == expected
