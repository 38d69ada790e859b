"""End-to-end CLI runs on bundled fixtures, without network access."""

import csv
import io
import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

import fileexperts
from fileexperts.cli import main
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
    ``cached`` had its text passed through ``corrupt``."""
    cache = tmp_path / "cache"
    argv = ["rank", "--technique", "doa", "--file", "src/f0.py",
            "--repo", str(cli_repo), "--branch", "main", "--cache-dir", str(cache)]
    assert main(argv) == 0
    (path,) = cache.glob(cached)
    path.write_text(corrupt(path.read_text()))
    capsys.readouterr()
    code = main(argv)
    return code, capsys.readouterr().err.splitlines()


def test_corrupt_cached_meta_line_is_an_error(cli_repo, tmp_path, capsys):
    def drop_meta(text):
        return text.split("\n", 1)[1]

    code, (line,) = _warm_rank_after(drop_meta, cli_repo, tmp_path, capsys)
    assert code == 1
    assert json.loads(line)["error"] == "errors.CorruptHistory"


def test_cut_short_cached_meta_line_is_an_error(cli_repo, tmp_path, capsys):
    def cut_meta(text):
        meta, rest = text.split("\n", 1)
        return meta[: len(meta) // 2] + "\n" + rest

    code, (line,) = _warm_rank_after(cut_meta, cli_repo, tmp_path, capsys)
    assert code == 1
    error = json.loads(line)
    assert error["error"] == "errors.CorruptHistory"
    assert "line 1" in error["message"]


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

    monkeypatch.setattr(cli, "extract_history", refuse)
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
    "args, error, named",
    [
        (["mine", "--reference-time", "yesterday"], "errors.InvalidReferenceTime", "yesterday"),
        (["mine", "--alias-map", "{tmp}/absent.csv"], "errors.UnreadableAliasMap", "absent.csv"),
        (["ingest-truth", "{tmp}/truth.csv", "--column-map", "repo"],
         "errors.InvalidColumnMap", "'repo'"),
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
         "errors.InvalidRepoMetrics", "lacks column 'developers'"),
        (["filter-corpus", "{tmp}/not-integer.csv"], "errors.InvalidRepoMetrics", "line 2"),
        (["rank", "--technique", "doa", "--file", "src/absent.py"],
         "errors.NoScores", "'src/absent.py'"),
    ],
    ids=["reference-time", "alias-map", "column-map", "evaluate-folds-0", "evaluate-folds-1",
         "calibrate-folds-0", "calibrate-folds-1", "truth-missing", "truth-not-utf-8",
         "language-config-missing", "language-config-missing-no-cache", "sample-limit-0",
         "metrics-missing", "metrics-without-column", "metrics-not-integer", "rank-no-scores"],
)
def test_malformed_option_is_an_error(cli_repo, tmp_path, capsys, args, error, named):
    (tmp_path / "truth.csv").write_text(
        "repo,developer_email,file,knowledge\n"
        "fixture,ana@x.com,src/f0.py,5\nfixture,bo@y.com,src/f0.py,2\n"
    )
    (tmp_path / "latin-1.csv").write_bytes(
        b"repo,developer_email,file,knowledge\nfixture,caf\xe9@x.com,src/f0.py,5\n"
    )
    (tmp_path / "no-developers.csv").write_text("repo,commits,files\nr,1,2\n")
    (tmp_path / "not-integer.csv").write_text("repo,commits,files,developers\nr,1,2,many\n")
    args = [arg.replace("{tmp}", str(tmp_path)) for arg in args]
    if args[0] != "filter-corpus":  # the one command that reads no repository
        args += ["--repo", str(cli_repo), "--branch", "main",
                 "--cache-dir", str(tmp_path / "cache")]
    code = main(args)
    assert code == 1
    (line,) = capsys.readouterr().err.splitlines()
    reported = json.loads(line)
    assert reported["error"] == error
    assert named in reported["message"]


def test_mine_history_out_mines_and_computes_once(cli_repo, tmp_path, capsys, monkeypatch):
    import fileexperts.cli as cli

    calls = {"extract_history": 0, "compute_all": 0}
    for name in calls:
        original = getattr(cli, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(cli, name, counted)
    repo = ["--repo", str(cli_repo), "--branch", "main"]
    out = tmp_path / "history.ndjson"
    main(["mine", *repo, "--no-cache", "--history-out", str(out)])
    assert calls == {"extract_history": 1, "compute_all": 1}
    mined = capsys.readouterr().out
    assert len(mined.splitlines()) == 1 + 18
    assert len(out.read_text().splitlines()) == 1 + 18  # the meta line, then 18 commits

    # on a warm cache the history written is still mined, the features are read
    cache = ["--cache-dir", str(tmp_path / "cache")]
    main(["mine", *repo, *cache])
    calls.update(extract_history=0, compute_all=0)
    warm = tmp_path / "warm.ndjson"
    main(["mine", *repo, *cache, "--history-out", str(warm)])
    assert calls == {"extract_history": 1, "compute_all": 0}
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
    ],
)
def test_options_a_command_ignores_are_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_mine_features_and_rank_leave_numpy_and_scipy_unloaded(cli_repo, tmp_path):
    """mine, features and rank compute nothing with numpy, so neither a cold
    nor a warm run of them, in any output format, imports numpy or scipy."""
    probe = """
import sys
from fileexperts.cli import main

repo, tmp = sys.argv[1:]
rank = ["rank", "--technique", "doa", "--file", "src/f0.py"]
for args, cache in [
    (["mine"], "mined"),
    (["features"], "mined"),
    (rank, "ranked"),
    (rank + ["--k", "0.5"], "ranked"),
    (rank + ["--format", "json"], "ranked"),
]:
    code = main(args + ["--repo", repo, "--branch", "main",
                        "--cache-dir", f"{tmp}/{cache}", "--out", f"{tmp}/out"])
    loaded = [name for name in ("numpy", "scipy") if name in sys.modules]
    print(args[0], code, loaded)
"""
    env = dict(os.environ, PYTHONPATH=str(Path(fileexperts.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", probe, str(cli_repo), str(tmp_path)],
                         capture_output=True, text=True, env=env, check=True)
    assert out.stdout.splitlines() == [
        "mine 0 []", "features 0 []", "rank 0 []", "rank 0 []", "rank 0 []"
    ]
