"""Benchmark of the fileexperts CLI on seeded workloads.

    python3 bench/run.py --workload history-3k --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 20

With ``--trace 0`` each pass runs the workload's CLI commands as child
processes, one at a time, times them, records each child's peak RSS and
checks every output. Times are scaled to a reference host speed by a probe
loop timed around each step; the raw wall times are reported too. With
``--trace 1`` the same stages run in process, alternating untraced and
traced passes, and per-layer times and exact work counts come from the
spans. ``all`` interleaves the passes of every workload. The last line of stdout is one JSON object with the metrics named
in BENCHMARK.json; the full record, with the run environment, is written
under ``.bench-out/``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench-out"
DIGESTS = BENCH / "digests.json"
SETUPS = 3  # set-ups per run; setup_s is their median
IMPORT_SAMPLES = 3
COMMAND_TIMEOUT_S = 150
DIGEST_SEED = 0  # digests.json holds the outputs for this seed
# Host speed drifts by 20-40% within minutes on a shared machine (README.md).
# Each timed step is scaled by the probe, timed right before and right after
# it, to the host speed at which the probe takes REFERENCE_PROBE_S.
REFERENCE_PROBE_S = 0.100


def ref_loop_s() -> float:
    """A fixed pure-Python loop, run once on each CPU the benchmark may use;
    the mean time tracks host speed, not the program."""
    cpus = os.sched_getaffinity(0)
    times = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            start = time.perf_counter()
            total = 0
            for i in range(1_000_000 // len(cpus)):
                total += i * i % 7
            times.append((time.perf_counter() - start) * len(cpus))
    finally:
        os.sched_setaffinity(0, cpus)
    return statistics.mean(times)


class Host:
    """The run's probe timings, in order."""

    def __init__(self):
        self.probes = [ref_loop_s()]

    def scale(self, seconds: float) -> float:
        """Scale a step that ended just now to the reference host speed."""
        self.probes.append(ref_loop_s())
        return seconds * REFERENCE_PROBE_S / statistics.mean(self.probes[-2:])


def describe(values: list[float]) -> dict:
    """Median, quartiles and sample count."""
    if len(values) >= 2:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"value": statistics.median(values), "q1": q1, "q3": q3, "n": len(values),
            "samples": values}


def run_child(argv: list[str], cwd: Path, stdout: Path) -> tuple[float, int, float, str]:
    """Run one command; returns wall seconds, exit code, peak RSS in MB and stderr."""
    stderr = stdout.with_suffix(".err")
    with stdout.open("wb") as out, stderr.open("wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, stdout=out, stderr=err)
        killer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
            elapsed = time.perf_counter() - start
        finally:
            killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (elapsed, proc.returncode, usage.ru_maxrss * 1024 / 1e6,
            stderr.read_text("utf-8", "replace"))


def error_lines(stderr: str) -> list[str]:
    errors = []
    for line in stderr.splitlines():
        if line.startswith("{"):
            try:
                if "error" in json.loads(line):
                    errors.append(line)
            except json.JSONDecodeError:
                pass
    return errors


def environment(workloads: list[str], seed: int) -> dict:
    def version(package: str) -> str | None:
        try:
            return importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            return None

    sha = None
    if (ROOT / ".git").exists():
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True).stdout.strip() or None
    git = subprocess.run(["git", "--version"], capture_output=True, text=True).stdout.strip()
    return {
        "commit": sha,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "git": git,
        "nproc": os.cpu_count(),
        "workloads": workloads,
        "seed": seed,
    }


def set_up(name: str, seed: int, work: Path, times: int, host: Host):
    """Build the fixture ``times`` times, each in its own process; keeps the
    last, returns it and the scaled and wall timings."""
    from workloads import Fixture

    seconds, wall = [], []
    for index in range(times):
        path = work / f"setup-{index}"
        start = time.perf_counter()
        built = subprocess.run([sys.executable, str(BENCH / "workloads.py"), name, str(seed),
                                str(path)], capture_output=True, text=True)
        wall.append(time.perf_counter() - start)
        seconds.append(host.scale(wall[-1]))
        if built.returncode:
            raise RuntimeError(f"set-up of {name} failed:\n{built.stderr}")
        if index + 1 < times:
            shutil.rmtree(path)
    return Fixture.from_json(built.stdout), seconds, wall


class CommandRuns:
    """Timings, peak RSS, digests and failures of one workload's commands."""

    def __init__(self, workload, fixture, recorded: dict[str, str], host: Host):
        self.workload = workload
        self.host = host
        self.fixture = fixture
        self.commands = workload.commands(fixture)
        self.recorded = recorded
        self.seconds: dict[str, list[float]] = defaultdict(list)  # scaled
        self.wall: dict[str, list[float]] = defaultdict(list)
        self.rss_mb: dict[str, list[float]] = defaultdict(list)
        self.warm_s: list[float] = []
        self.warm_wall_s: list[float] = []
        self.digests: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run_pass(self, work: Path, index: int) -> None:
        from workloads import sha256

        pass_cache = None
        warm = warm_wall = 0.0
        for number, command in enumerate(self.commands):
            if command.cold:
                cache = work / f"cache-{index}-{number}"
                cache.mkdir()
            else:
                cache = pass_cache
            stdout_path = work / f"{command.label}.out"
            argv = [sys.executable, "-m", "fileexperts.cli", *command.args, "--repo",
                    str(self.fixture.repo), "--branch", "main", "--cache-dir", str(cache)]
            elapsed, code, rss, stderr = run_child(argv, work, stdout_path)
            scaled = self.host.scale(elapsed)
            self.attempted += 1
            self.seconds[command.label].append(scaled)
            self.wall[command.label].append(elapsed)
            self.rss_mb[command.label].append(rss)
            if not command.cold:
                warm += scaled
                warm_wall += elapsed
            data = stdout_path.read_bytes()
            problems = [f"exit code {code}"] if code else []
            problems += error_lines(stderr)
            if not problems:
                try:
                    problems += self.workload.check(command, data.decode("utf-8"), cache,
                                                    self.fixture)
                except (KeyError, ValueError) as exc:
                    problems.append(f"unparsable output: {exc!r}")
            digest = sha256(data)
            expected = self.digests.setdefault(command.label, self.recorded.get(command.label,
                                                                                digest))
            if digest != expected:
                problems.append(f"stdout digest {digest[:12]} differs from {expected[:12]}")
            self.failed += bool(problems)
            self.problems += [f"pass {index} {command.label}: {p}" for p in problems]
            if pass_cache is None:
                pass_cache = cache
            elif command.cold:
                shutil.rmtree(cache)
        self.warm_s.append(warm)
        self.warm_wall_s.append(warm_wall)
        shutil.rmtree(pass_cache)

    def metrics(self, setup_seconds: list[float], setup_wall: list[float]) -> tuple[dict, dict]:
        """The BENCHMARK.json metrics, and the per-command detail."""
        headline = {
            "setup_s": (describe(setup_seconds), "s"),
            "mine_s": (describe(self.seconds["mine"]), "s"),
            "warm_s": (describe(self.warm_s), "s"),
            "mine_peak_rss_mb": (describe(self.rss_mb["mine"]), "MB"),
        }
        detail = {
            "setup_wall_s": (describe(setup_wall), "s"),
            "mine_wall_s": (describe(self.wall["mine"]), "s"),
            "warm_wall_s": (describe(self.warm_wall_s), "s"),
        }
        for label, values in self.seconds.items():
            if label != "mine":
                detail[f"{label}_s"] = (describe(values), "s")
        knn, logreg = self.seconds.get("evaluate_grid_knn"), self.seconds.get(
            "evaluate_grid_logreg")
        if knn and logreg:
            detail["evaluate_grid_s"] = (describe([a + b for a, b in zip(knn, logreg)]), "s")
        detail["op_failure_rate"] = (
            {"value": self.failed / self.attempted, "n": self.attempted}, "ratio")
        return headline, detail


def load_recorded(name: str, seed: int) -> dict[str, str]:
    if seed != DIGEST_SEED or not DIGESTS.exists():
        return {}
    return json.loads(DIGESTS.read_text())["workloads"].get(name, {})


def measure_commands(names: list[str], seed: int, seconds: float, work: Path) -> dict:
    """Set up every workload, then run their passes round-robin until
    ``seconds`` per workload have elapsed."""
    from workloads import WORKLOADS

    host = Host()
    runs, setups = {}, {}
    for name in names:
        fixture, *setups[name] = set_up(name, seed, work / name, SETUPS, host)
        runs[name] = CommandRuns(WORKLOADS[name], fixture, load_recorded(name, seed), host)
    start = time.perf_counter()
    index = 0
    while True:
        for name in names:
            runs[name].run_pass(work / name, index)
        index += 1
        if time.perf_counter() - start >= seconds * len(names):
            break
    record = {"passes": index, "host.ref_loop_s": describe(host.probes), "workloads": {}}
    for name in names:
        headline, detail = runs[name].metrics(*setups[name])
        record["workloads"][name] = {
            "metrics": {k: {**v, "unit": unit} for k, (v, unit) in headline.items()},
            "detail": {k: {**v, "unit": unit} for k, (v, unit) in detail.items()},
            "digests": runs[name].digests,
            "attempted": runs[name].attempted,
            "failed": runs[name].failed,
            "problems": runs[name].problems,
        }
    return record


def measure_traced(name: str, seed: int, seconds: float, work: Path) -> dict:
    """Alternate untraced and traced in-process passes; per-layer metrics are
    medians over the traced passes and exact counts must repeat."""
    import tracing
    from workloads import WORKLOADS, check_features, check_mined_commits, sha256

    workload = WORKLOADS[name]
    fixture, *_ = set_up(name, seed, work, 1, Host())
    imports = []
    for _ in range(IMPORT_SAMPLES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import fileexperts.cli"], check=True, cwd=work)
        imports.append(time.perf_counter() - start)
    recorded = load_recorded(name, seed).get("mine")
    host, totals = [ref_loop_s()], {False: [], True: []}
    layers: dict[str, list[float]] = defaultdict(list)
    counts, problems, digests, failed = None, [], set(), 0
    start = time.perf_counter()
    index = 0
    while not totals[True] or time.perf_counter() - start < seconds:
        traced = index % 2 == 1
        tracer = tracing.Tracer()
        cache = work / f"cache-{index}"
        if traced:
            tracer.install()
        try:
            began = time.perf_counter()
            mined = tracing.run_pipeline(workload, fixture, cache, tracer)
            totals[traced].append(time.perf_counter() - began)
        finally:
            tracer.uninstall()
        digest = sha256(mined.encode())
        found = check_features(mined, fixture.expect) + check_mined_commits(cache, fixture.expect)
        if digest != (recorded or digest):
            found.append(f"feature CSV digest {digest[:12]} differs from the recorded one")
        digests.add(digest)
        if traced:
            metrics = tracing.layer_metrics(tracer.summary(), tracer.counts)
            exact = {k: v for k, v in metrics.items() if not k.endswith("_s")}
            if counts is not None and exact != counts:
                found.append("exact counts differ from the first traced pass")
            counts = counts or exact
            for key, value in metrics.items():
                layers[key].append(value)
            layers["trace.spans"].append(len(tracer.spans))
            OUT.mkdir(exist_ok=True)
            tracer.write(OUT / f"spans-{name}-seed{seed}.jsonl")
        if len(digests) > 1:
            found.append("feature CSV differs from an earlier pass")
        problems += [f"pass {index}: {p}" for p in found]
        failed += bool(found)
        shutil.rmtree(cache)
        host.append(ref_loop_s())
        index += 1
    per_layer = {k: {**describe(v), "unit": tracing.unit(k)} for k, v in layers.items()}
    per_layer["cli.import_s"] = {**describe(imports), "unit": "s"}
    per_layer["host.ref_loop_s"] = {**describe(host), "unit": "s"}
    overhead = statistics.median(totals[True]) - statistics.median(totals[False])
    per_layer["trace.overhead_s"] = {"value": overhead, "n": len(totals[True]), "unit": "s"}
    per_layer["trace.untraced_s"] = {**describe(totals[False]), "unit": "s"}
    return {
        "passes": index,
        "host.ref_loop_s": per_layer["host.ref_loop_s"],
        "workloads": {name: {"per_layer": per_layer, "attempted": index, "failed": failed,
                             "problems": problems}},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "fileexperts" / "cli.py").is_file():
        sys.stderr.write(f"no fileexperts sources under {SRC}; run from a full checkout\n")
        return 2
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    )
    sys.path[:0] = [str(SRC), str(BENCH)]
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if not set(names) <= set(WORKLOADS):
        parser.error(f"unknown workload {args.workload!r}; choose from {list(WORKLOADS)} or all")
    if args.trace and len(names) > 1:
        parser.error("--trace 1 runs one workload at a time")

    work = ROOT / ".bench-work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        if args.trace:
            record = measure_traced(names[0], args.seed, args.seconds, work)
        else:
            record = measure_commands(names, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record["environment"] = environment(names, args.seed)
    OUT.mkdir(exist_ok=True)
    out_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    key = "per_layer" if args.trace else "metrics"
    metrics, attempted, failed = {}, 0, 0
    for name, result in record["workloads"].items():
        for section in (key, "detail"):
            for metric, value in result.get(section, {}).items():
                extra = {k: v for k, v in value.items() if k in ("n", "q1", "q3")}
                print(f"{name:13s} {metric:32s} {value['value']:14.6g} {value.get('unit', ''):6s}"
                      f" {json.dumps(extra, sort_keys=True)}")
        for problem in result["problems"]:
            print(f"{name:13s} FAILED {problem}")
        attempted += result["attempted"]
        failed += result["failed"]
        prefix = f"{name}." if len(names) > 1 else ""
        for metric, value in result[key].items():
            metrics[prefix + metric] = {"value": value["value"], "unit": value.get("unit", "")}
    print(json.dumps({"environment": record["environment"], "passes": record["passes"],
                      "host.ref_loop_s": record.get("host.ref_loop_s")}, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
