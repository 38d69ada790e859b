"""Self-test of the benchmark: seeded fixtures are byte-deterministic, the
traced run's exact counters repeat, and the output checks catch a wrong
result.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import tracing  # noqa: E402
import workloads  # noqa: E402
from fileexperts import diffs  # noqa: E402

EXACT = (
    "diffs.diff_lines_calls",
    "diffs.dp_cells",
    "identities.levenshtein_calls",
    "gitlog.events",
    "ml.cv_runs",
    "stats.permutation_calls",
)


def repo_tip(repo: Path) -> str:
    out = subprocess.run(["git", "-C", str(repo), "rev-parse", f"refs/heads/{workloads.BRANCH}"],
                         capture_output=True, check=True)
    return out.stdout.decode().strip()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_fixture_is_byte_deterministic_for_a_seed(tmp_path, name):
    workload = workloads.WORKLOADS[name]
    first = workload.build(tmp_path / "a", 3)
    again = workload.build(tmp_path / "b", 3)
    other = workload.build(tmp_path / "c", 4)
    assert repo_tip(first.repo) == repo_tip(again.repo)
    assert repo_tip(first.repo) != repo_tip(other.repo)
    assert first.expect == again.expect
    if first.truth is not None:
        assert first.truth.read_bytes() == again.truth.read_bytes()


def test_traced_exact_counters_repeat(tmp_path):
    workload = workloads.WORKLOADS["survey"]
    fixture = workload.build(tmp_path / "fixture", 0)
    original = diffs.diff_lines
    runs = []
    for index in range(2):
        tracer = tracing.Tracer()
        tracer.install()
        try:
            mined = tracing.run_pipeline(workload, fixture, tmp_path / f"cache-{index}", tracer)
        finally:
            tracer.uninstall()
        metrics = tracing.layer_metrics(tracer.summary(), tracer.counts)
        runs.append(({k: metrics[k] for k in EXACT}, mined))
    assert diffs.diff_lines is original
    assert runs[0] == runs[1]
    assert all(runs[0][0][k] > 0 for k in EXACT)
    assert workloads.check_features(runs[0][1], fixture.expect) == []


def test_checks_flag_wrong_outputs():
    header = "developer,file,adds,dels,mods,conds,amount,fa,blame,num_commits,num_days," \
             "num_mod_devs,size,avg_days_commits\n"
    good = header + "a@x,f.py,3,0,0,0,3,1,2,1,0,1,3,0.0\nb@x,f.py,1,0,0,0,1,0,1,1,0,0,3,0.0\n"
    bad = good.replace(",1,1,0,0,3,0.0", ",0,1,0,0,3,0.0")
    assert workloads.check_features(good, {"files": 1}) == []
    assert workloads.check_features(bad, {"files": 1})
    assert workloads.check_features(good, {"files": 2})
    assert workloads.check_rank("rank,developer,display_name,raw,normalized\n1,a,A,2.0,0.5\n")
    assert workloads.check_correlate("variable,rho,p_value,n\nadds,0.5,1.2,10\n", 10)
