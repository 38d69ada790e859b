"""Deterministic git repository builders for demos and tests.

Repositories are written through ``git fast-import`` in a single process,
so even thousand-commit fixtures build in well under a second. Every git
process runs as ``gitlog`` runs its own, so an inherited ``GIT_DIR`` or
``GIT_WORK_TREE`` (a git hook's, say) cannot point the build at another
repository. Paths must not contain spaces or quotes; generated fixtures
keep to safe names.
"""

from __future__ import annotations

import bisect
import random
import subprocess
from datetime import datetime, timezone
from io import BytesIO
from pathlib import Path

from .gitlog import _git_command, _git_environment


class RepoBuilder:
    """Accumulate commits and materialize them with one fast-import run."""

    def __init__(self, path: str | Path, branch: str = "main"):
        self.path = Path(path)
        self.branch = branch
        self.path.mkdir(parents=True, exist_ok=True)
        self._run("init", "-q")
        self._buf = BytesIO()
        self._mark = 0
        self._last_mark: int | None = None

    def _run(self, *args: str, stdin: bytes | None = None) -> None:
        proc = subprocess.run(
            _git_command(self.path, *args), input=stdin, capture_output=True,
            env=_git_environment(),
        )
        if proc.returncode != 0:
            raise RuntimeError(f"git {args[0]} failed: {proc.stderr.decode(errors='replace')}")

    def commit(
        self,
        name: str,
        email: str,
        when: int | datetime,
        message: str = "change",
        writes: dict[str, str] | None = None,
        deletes: tuple[str, ...] | list[str] = (),
        parents: list[int] | None = None,
        branch: str | None = None,
    ) -> int:
        """Queue one commit; returns its mark for later parent references.

        ``parents=None`` chains onto the previous commit; pass an explicit
        list for roots ([]) or merges ([a, b]).
        """
        self._mark += 1
        mark = self._mark
        stamp = int(when.timestamp()) if isinstance(when, datetime) else int(when)
        ident = f"{name} <{email}> {stamp} +0000"
        msg = message.encode()
        out = self._buf
        out.write(f"commit refs/heads/{branch or self.branch}\n".encode())
        out.write(f"mark :{mark}\n".encode())
        out.write(f"author {ident}\ncommitter {ident}\n".encode())
        out.write(f"data {len(msg)}\n".encode() + msg + b"\n")
        if parents is None:
            parents = [self._last_mark] if self._last_mark is not None else []
        if parents:
            out.write(f"from :{parents[0]}\n".encode())
            for extra in parents[1:]:
                out.write(f"merge :{extra}\n".encode())
        for path in deletes:
            out.write(f"D {path}\n".encode())
        for path, content in (writes or {}).items():
            data = content.encode()
            out.write(f"M 100644 inline {path}\n".encode())
            out.write(f"data {len(data)}\n".encode() + data + b"\n")
        out.write(b"\n")
        self._last_mark = mark
        return mark

    def finish(self) -> Path:
        self._run("fast-import", "--quiet", stdin=self._buf.getvalue())
        self._run("symbolic-ref", "HEAD", f"refs/heads/{self.branch}")
        return self.path


def _ts(day: int, hour: int = 0) -> int:
    base = datetime(2021, 1, 1, tzinfo=timezone.utc)
    return int(base.timestamp()) + day * 86400 + hour * 3600


def demo_repo(path: str | Path, branch: str = "main") -> Path:
    """A small showcase repository: three developers (one with aliases),
    a rename, non-source files, and both light and heavy edits."""
    repo = RepoBuilder(path, branch=branch)
    repo.commit(
        "Alice Anderson",
        "alice@example.com",
        _ts(0),
        "initial parser",
        writes={
            "src/parser.py": "def parse(text):\n    items = text.split()\n    return items\n",
            "README.md": "# demo\n",
        },
    )
    repo.commit(
        "Bob Brown",
        "bob@example.com",
        _ts(2),
        "utilities",
        writes={
            "src/utils.py": "def clamp(x, lo, hi):\n    if x < lo:\n        return lo\n    if x > hi:\n        return hi\n    return x\n",
            "logo.png": "\x89PNG fake image bytes\n",
        },
    )
    repo.commit(
        "Alice Anderson",
        "ALICE@example.com",  # alias: same email, different case
        _ts(5),
        "tune parser",
        writes={
            "src/parser.py": "def parse(text):\n    items = text.strip().split()\n    return items\n",
        },
    )
    repo.commit(
        "Carol Chen",
        "carol@example.com",
        _ts(9),
        "web app",
        writes={
            "web/app.js": "function main() {\n  if (window.ready) {\n    start();\n  }\n}\n",
        },
    )
    # rename with identical content so git reports a clean rename
    repo.commit(
        "Bob Brown",
        "bob@example.com",
        _ts(12),
        "rename utils",
        deletes=("src/utils.py",),
        writes={
            "src/helpers.py": "def clamp(x, lo, hi):\n    if x < lo:\n        return lo\n    if x > hi:\n        return hi\n    return x\n",
        },
    )
    repo.commit(
        "Alice Andersen",  # alias: similar name, different email
        "alice@dev.example.com",
        _ts(15),
        "extend helpers",
        writes={
            "src/helpers.py": "def clamp(x, lo, hi):\n    if x < lo:\n        return lo\n    if x > hi:\n        return hi\n    return x\n\n\ndef scale(x, factor):\n    return x * factor\n",
        },
    )
    repo.commit(
        "Carol Chen",
        "carol@example.com",
        _ts(20),
        "app tweak",
        writes={
            "web/app.js": "function main() {\n  if (window.ready) {\n    start(0);\n  }\n}\n",
        },
    )
    return repo.finish()


_NAMES = ("Alice Anderson", "Bob Brown", "Carol Chen", "Dan Davis", "Erin Evans", "Frank Fox")
_EXTENSIONS = (".py", ".js", ".rb")


class _ContentPool:
    """Generates source-looking lines with unique identifiers."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.counter = 0

    def line(self) -> str:
        self.counter += 1
        roll = self.rng.random()
        if roll < 0.2:
            return f"if value_{self.counter} > {self.rng.randint(0, 99)}:"
        if roll < 0.3:
            return f"# note {self.counter}"
        return f"value_{self.counter} = {self.rng.randint(0, 9999)}"

    def file(self, size: int) -> list[str]:
        return [self.line() for _ in range(size)]


def random_repo(
    path: str | Path,
    seed: int,
    max_commits: int = 20,
    max_files: int = 5,
    max_devs: int = 4,
    branch: str = "main",
) -> Path:
    """A seeded random fixture exercising creations, light edits that count
    as modifications, heavy rewrites, renames and author aliases."""
    rng = random.Random(seed)
    pool = _ContentPool(rng)
    repo = RepoBuilder(path, branch=branch)

    ndevs = rng.randint(1, max_devs)
    devs = [(_NAMES[i], f"dev{i}@example.com") for i in range(ndevs)]
    state: dict[str, list[str]] = {}
    renames_done = 0
    when = _ts(0)
    n_commits = rng.randint(3, max_commits)

    for index in range(n_commits):
        when += rng.randint(3600, 2 * 86400)
        name, email = rng.choice(devs)
        if rng.random() < 0.2:
            email = email.upper()  # alias via email case
        writes: dict[str, str] = {}
        deletes: list[str] = []

        def create_file() -> None:
            file = f"src/file_{len(state)}{rng.choice(_EXTENSIONS)}"
            state[file] = pool.file(rng.randint(4, 12))
            writes[file] = "\n".join(state[file]) + "\n"

        def edit_file() -> None:
            candidates = [f for f in state if f not in deletes]
            if not candidates:
                return
            file = rng.choice(sorted(candidates))
            lines = list(state[file])
            for _ in range(rng.randint(1, 3)):
                action = rng.random()
                if action < 0.35 and lines:
                    i = rng.randrange(len(lines))
                    # small perturbation, usually under the 40% edit budget
                    lines[i] = lines[i][:-1] + str(rng.randint(0, 9))
                elif action < 0.55 and lines:
                    i = rng.randrange(len(lines))
                    lines[i] = pool.line()  # full rewrite of the line
                elif action < 0.8:
                    lines.insert(rng.randint(0, len(lines)), pool.line())
                elif len(lines) > 2:
                    del lines[rng.randrange(len(lines))]
            state[file] = lines
            writes[file] = "\n".join(lines) + "\n"

        def rename_file() -> None:
            nonlocal renames_done
            candidates = sorted(f for f in state if f not in deletes and f not in writes)
            if not candidates or renames_done >= 3:
                return
            old = rng.choice(candidates)
            new = f"src/renamed_{renames_done}{Path(old).suffix}"
            deletes.append(old)
            writes[new] = "\n".join(state[old]) + "\n"
            state[new] = state.pop(old)
            renames_done += 1

        if index == 0 or not state:
            create_file()
        else:
            roll = rng.random()
            if roll < 0.25 and len(state) < max_files:
                create_file()
                if rng.random() < 0.5:
                    edit_file()
            elif roll < 0.9:
                edit_file()
            else:
                rename_file()
                if not writes:
                    edit_file()
            if not writes and not deletes:
                create_file() if len(state) < max_files else edit_file()
        repo.commit(name, email, when, f"commit {index}", writes=writes, deletes=deletes)
    return repo.finish()


def perf_repo(
    path: str | Path,
    commits: int = 1000,
    files: int = 200,
    devs: int = 10,
    seed: int = 0,
    branch: str = "main",
) -> Path:
    """A larger fixture for timing runs: many small edits over many files."""
    rng = random.Random(seed)
    pool = _ContentPool(rng)
    repo = RepoBuilder(path, branch=branch)
    state: dict[str, list[str]] = {}
    paths: list[str] = []  # the keys of state, kept sorted for the draws
    when = _ts(0)
    for index in range(commits):
        when += rng.randint(600, 7200)
        name = _NAMES[index % len(_NAMES)]
        email = f"dev{index % devs}@example.com"
        writes: dict[str, str] = {}
        for _ in range(rng.randint(1, 3)):
            if len(state) < files and (not state or rng.random() < 0.4):
                file = f"src/pkg_{len(state) % 20}/mod_{len(state)}.py"
                state[file] = pool.file(rng.randint(20, 60))
                bisect.insort(paths, file)
            else:
                file = rng.choice(paths)
                lines = list(state[file])
                for _ in range(rng.randint(1, 4)):
                    i = rng.randrange(len(lines))
                    if rng.random() < 0.5:
                        replacement = lines[i][:-1] + str(rng.randint(0, 9))
                        # keep every commit a real change
                        lines[i] = replacement if replacement != lines[i] else lines[i] + "9"
                    else:
                        lines.insert(i, pool.line())
                lines.append(pool.line())
                state[file] = lines
            writes[file] = "\n".join(state[file]) + "\n"
        repo.commit(name, email, when, f"commit {index}", writes=writes)
    return repo.finish()
