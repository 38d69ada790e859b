"""Seeded workloads for the fileexperts benchmark.

Each workload builds its inputs from a seed (a git repository, plus a
ground-truth CSV for ``survey``), names the CLI commands one pass runs, and
checks every command's output against what the generator planted. The
program under test only ever sees the generated repository and CSV.

Set-up runs as its own process, so the benchmark process that spawns the
timed commands never imports fileexperts (a child's peak RSS counts the
memory of the process it was spawned from):

    python3 bench/workloads.py <workload> <seed> <directory>
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import random
import sys
from dataclasses import dataclass, field
from pathlib import Path

BRANCH = "main"
# per-file line count of the big-rewrite fixture; about 9M LCS cells per diff
BIG_LINES = 3000
BLOCK = 50


@dataclass
class Fixture:
    """What set-up produced: the repository, optional labels, and the facts
    the output checks compare against."""

    repo: Path
    truth: Path | None = None
    expect: dict = field(default_factory=dict)

    @classmethod
    def from_json(cls, text: str) -> "Fixture":
        data = json.loads(text)
        truth = Path(data["truth"]) if data["truth"] else None
        return cls(Path(data["repo"]), truth, data["expect"])

    def to_json(self) -> str:
        truth = str(self.truth) if self.truth else None
        return json.dumps({"repo": str(self.repo), "truth": truth, "expect": self.expect})


@dataclass(frozen=True)
class Command:
    label: str
    args: tuple[str, ...]
    cold: bool  # True: runs against an empty cache directory; the pass's
    # first cold command fills the cache its warm commands read


def read_csv(text: str) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(text)))


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# -- output checks ---------------------------------------------------------------

def check_features(text: str, expect: dict) -> list[str]:
    """Feature CSV invariants: the file count, and per file that blame sums
    to the replayed size."""
    rows = read_csv(text)
    problems = []
    by_file: dict[str, list[dict[str, str]]] = {}
    for row in rows:
        by_file.setdefault(row["file"], []).append(row)
    if len(by_file) != expect["files"]:
        problems.append(f"feature rows cover {len(by_file)} files, expected {expect['files']}")
    for file, group in by_file.items():
        sizes = sorted({int(r["size"]) for r in group})
        blame = sum(int(r["blame"]) for r in group)
        if sizes != [blame]:
            problems.append(f"{file}: blame sums to {blame}, sizes {sizes}")
            break
    for file, lines in expect.get("final_lines", {}).items():
        group = by_file.get(file, [])
        if sum(int(r["blame"]) for r in group) != lines:
            problems.append(f"{file}: blame does not sum to the generated {lines} lines")
        creator = [r for r in group if r["developer"] == expect["creator"]]
        if not creator or int(creator[0]["adds"]) != lines:
            problems.append(f"{file}: creator adds differ from the generated {lines} lines")
    return problems


def check_mined_commits(cache: Path, expect: dict) -> list[str]:
    histories = list(cache.glob("history-*.ndjson"))
    if len(histories) != 1:
        return [f"expected one cached history, found {len(histories)}"]
    with histories[0].open("rb") as handle:
        commits = sum(1 for _ in handle) - 1  # a meta line, then one line per commit
    if commits != expect["commits"]:
        return [f"{commits} commits mined, expected {expect['commits']}"]
    return []


def _in_unit(value: str) -> bool:
    return 0.0 <= float(value) <= 1.0


def check_rank(text: str) -> list[str]:
    rows = read_csv(text)
    if not rows:
        return ["rank printed no developers"]
    if [int(r["rank"]) for r in rows] != list(range(1, len(rows) + 1)):
        return ["ranks are not 1..n"]
    if float(rows[0]["normalized"]) != 1.0 or not all(_in_unit(r["normalized"]) for r in rows):
        return ["normalized scores are not in [0, 1] with a top score of 1"]
    return []


def check_calibrate(text: str) -> list[str]:
    rows = read_csv(text)
    if len(rows) != 11:
        return [f"calibrate printed {len(rows)} thresholds, expected 11"]
    if not all(_in_unit(r[c]) for r in rows for c in ("precision", "recall", "f_measure")):
        return ["calibrate precision, recall or F outside [0, 1]"]
    return []


def check_evaluate(text: str, kind: str) -> list[str]:
    rows = read_csv(text)
    if len(rows) != 1 or rows[0]["classifier"] != kind:
        return [f"evaluate did not report one {kind} row"]
    json.loads(rows[0]["hyperparams"])
    if not all(_in_unit(rows[0][c]) for c in ("mean_precision", "mean_recall", "mean_f")):
        return ["evaluate precision, recall or F outside [0, 1]"]
    return []


def check_correlate(text: str, labels: int) -> list[str]:
    rows = read_csv(text)
    if not rows:
        return ["correlate printed no variables"]
    for row in rows:
        if not -1.0 <= float(row["rho"]) <= 1.0 or not _in_unit(row["p_value"]):
            return [f"{row['variable']}: rho or p outside its range"]
        if int(row["n"]) != labels:
            return [f"{row['variable']}: n={row['n']}, expected {labels} labeled pairs"]
    return []


# -- generators ------------------------------------------------------------------

class _Lines:
    """Unique, source-looking lines; about one in five is a conditional."""

    def __init__(self, rng: random.Random, prefix: str):
        self.rng = rng
        self.prefix = prefix
        self.counter = 0

    def __call__(self) -> str:
        self.counter += 1
        if self.rng.random() < 0.2:
            return f"if {self.prefix}{self.counter} > {self.rng.randint(0, 99)}:"
        return f"{self.prefix}{self.counter} = {self.rng.randint(0, 9999)}"


def _touch(line: str) -> str:
    """A light edit: the last character changes, well inside the 40% budget."""
    last = line[-1]
    return line[:-1] + ("7" if last != "7" else "8")


def big_rewrite_repo(path: Path, seed: int) -> dict:
    """Two large files by one developer; a second rewrites alternate
    50-line blocks and a third touches every tenth line."""
    from fileexperts import fixtures

    rng = random.Random(seed)
    line = _Lines(rng, "big_")
    repo = fixtures.RepoBuilder(path, branch=BRANCH)
    files = {f"src/big_{i}.py": [line() for _ in range(BIG_LINES)] for i in range(2)}
    base = 1_600_000_000
    repo.commit("Ada Author", "ada@example.com", base, "create",
                writes={f: "\n".join(ls) + "\n" for f, ls in files.items()})
    for lines in files.values():
        for start in range(BLOCK, BIG_LINES, 2 * BLOCK):
            lines[start : start + BLOCK] = [line() for _ in range(BLOCK)]
    repo.commit("Ben Rewriter", "ben@example.com", base + 86400, "rewrite blocks",
                writes={f: "\n".join(ls) + "\n" for f, ls in files.items()})
    for lines in files.values():
        for i in range(9, BIG_LINES, 10):
            lines[i] = _touch(lines[i])
    repo.commit("Cy Toucher", "cy@example.com", base + 2 * 86400, "touch lines",
                writes={f: "\n".join(ls) + "\n" for f, ls in files.items()})
    repo.finish()
    return {
        "commits": 3,
        "files": len(files),
        "final_lines": {f: len(ls) for f, ls in files.items()},
        "creator": "ada@example.com",
    }


def write_labels(features_csv: str, path: Path, seed: int, count: int = 400) -> int:
    """Draw labeled pairs; knowledge is a noisy function of the blame share,
    so both expert and non-expert answers occur."""
    rng = random.Random(seed)
    rows = read_csv(features_csv)
    picked = rng.sample(rows, min(count, len(rows)))
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["repo", "developer_email", "file", "knowledge"])
        for row in picked:
            share = int(row["blame"]) / max(1, int(row["size"]))
            knowledge = min(5, max(1, round(1 + 4 * share + rng.gauss(0.0, 1.0))))
            writer.writerow(["survey", row["developer"], row["file"], knowledge])
    return len(picked)


# -- workloads -------------------------------------------------------------------

class Workload:
    """A named set of seeded inputs and the commands one pass runs; the
    reasons for each workload are in BENCHMARK.json and README.md."""

    name = ""
    rank_file = ""
    rank_technique = "doa"

    def build(self, path: Path, seed: int) -> Fixture:
        raise NotImplementedError

    def commands(self, fixture: Fixture) -> list[Command]:
        return [
            Command("mine", ("mine",), cold=True),
            Command("rank_warm", ("rank", "--technique", self.rank_technique,
                                  "--file", self.rank_file), cold=False),
        ]

    def check(self, command: Command, stdout: str, cache: Path, fixture: Fixture) -> list[str]:
        if command.label == "mine":
            return check_features(stdout, fixture.expect) + check_mined_commits(
                cache, fixture.expect
            )
        return check_rank(stdout)


class History3k(Workload):
    name = "history-3k"
    rank_file = "src/pkg_0/mod_0.py"

    def build(self, path: Path, seed: int) -> Fixture:
        from fileexperts import fixtures

        repo = fixtures.perf_repo(path / "repo", commits=3000, files=400, devs=10,
                                  seed=seed, branch=BRANCH)
        return Fixture(repo, expect={"commits": 3000, "files": 400})


class BigRewrite(Workload):
    name = "big-rewrite"
    rank_file = "src/big_0.py"
    rank_technique = "blame"

    def build(self, path: Path, seed: int) -> Fixture:
        expect = big_rewrite_repo(path / "repo", seed)
        return Fixture(path / "repo", expect=expect)


class Survey(Workload):
    name = "survey"

    def build(self, path: Path, seed: int) -> Fixture:
        from fileexperts import features, fixtures, gitlog, identities

        repo = fixtures.perf_repo(path / "repo", commits=1000, files=200, devs=6,
                                  seed=seed, branch=BRANCH)
        # labels are drawn from the feature table a default `mine` computes;
        # each pass's cold mine then warms the cache for the analysis commands
        history = identities.canonicalize_history(
            gitlog.filter_source_files(gitlog.extract_history(repo, BRANCH))
        )
        table = features.feature_table_to_csv(features.compute_all(history))
        truth = path / "truth.csv"
        labels = write_labels(table, truth, seed)
        return Fixture(repo, truth, expect={"commits": 1000, "files": 200, "labels": labels})

    def commands(self, fixture: Fixture) -> list[Command]:
        truth = ("--truth", str(fixture.truth))
        mine = Command("mine", ("mine",), cold=True)
        # the short cold mine runs three times per pass, spread over the
        # pass, so its median does not rest on one sample
        return [
            mine,
            Command("calibrate", ("calibrate", "--technique", "doa", *truth), cold=False),
            Command("evaluate_forest", ("evaluate", "--classifier", "random_forest", *truth),
                    cold=False),
            mine,
            Command("evaluate_grid_knn", ("evaluate", "--classifier", "knn", "--grid",
                                          "default", *truth), cold=False),
            Command("evaluate_grid_logreg", ("evaluate", "--classifier",
                                             "logistic_regression", "--grid", "default",
                                             *truth), cold=False),
            mine,
            Command("correlate_exact", ("correlate", "--exact-p", *truth), cold=False),
        ]

    def check(self, command: Command, stdout: str, cache: Path, fixture: Fixture) -> list[str]:
        if command.label == "mine":
            return super().check(command, stdout, cache, fixture)
        if command.label == "calibrate":
            return check_calibrate(stdout)
        if command.label == "correlate_exact":
            return check_correlate(stdout, fixture.expect["labels"])
        return check_evaluate(stdout, command.args[2])


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (History3k(), BigRewrite(), Survey())
}


if __name__ == "__main__":
    name, seed, directory = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    print(WORKLOADS[name].build(directory, seed).to_json())
