"""Small file helpers shared by the library and the CLI."""

from __future__ import annotations

import contextlib
import csv
import io
import os
import stat
from pathlib import Path
from typing import Callable, Iterable, Sequence

from .errors import FileExpertsError, UnwritableOutput


def csv_text(header: Sequence, rows: Iterable[Sequence]) -> str:
    """A header and rows as CSV text, in the one dialect the package writes."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def decode_utf8(data: bytes, what: str, path: str | Path, error: type) -> str:
    """``data``, read from ``path``, as UTF-8 text; bytes that are not UTF-8
    raise ``error`` naming ``what``, the path and the 1-based line."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise error(f"{what} {path} line {line}: {exc}") from None


def read_csv(
    path: str | Path, what: str, error: type, columns: Sequence[str] | None, build: Callable
) -> list:
    """``build(*values)`` for each row of a UTF-8 CSV file: the reading twin
    of ``csv_text``. One leading byte-order mark, which spreadsheet "CSV
    UTF-8" exports write, is dropped. With ``columns``, a header names each
    once, in any order, every non-blank row has its width, and the values
    come in ``columns`` order; without, the file has no header and each row
    comes as it is. Any fault, or a ValueError or TypeError from ``build``,
    raises ``error`` naming ``what``, the path and, for a row, its line; a
    FileExpertsError from ``build`` keeps its type and gains that prefix."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise error(f"cannot read {what} {path}: {exc}") from None
    text = decode_utf8(data, what, path, error).removeprefix("\ufeff")
    reader = csv.reader(io.StringIO(text, newline=""))

    def at_line(problem: object) -> str:
        return f"{what} {path} line {reader.line_num}: {problem}"

    rows = []
    try:
        if columns is not None:
            header = next(reader, [])
            missing = [c for c in columns if c not in header]
            if missing:
                raise error(f"{what} {path} lacks columns {missing}")
            repeated = [c for c in columns if header.count(c) > 1]
            if repeated:
                raise error(f"{what} {path} names columns {repeated} more than once")
            positions = [header.index(c) for c in columns]
        for record in reader:
            if columns is not None:
                if not record:
                    continue
                if len(record) != len(header):
                    raise error(at_line(f"{len(record)} fields, expected {len(header)}"))
                record = [record[i] for i in positions]
            try:
                rows.append(build(*record))
            except FileExpertsError as exc:
                raise type(exc)(at_line(exc)) from None
            except (TypeError, ValueError) as exc:
                raise error(at_line(exc)) from None
    except csv.Error as exc:
        raise error(at_line(exc)) from None
    return rows


def atomic_write_text(path: str | Path, text: str | Iterable[str]) -> None:
    """Write text, or an iterable of strings piece by piece, to path via a
    temp file and rename, so readers never see a partially written file.

    A new file gets the mode a plain ``open()`` gives it, 0o666 less the
    umask; a file that exists keeps its permission bits. An OSError on the
    way, in making the directory or in creating, writing or renaming the
    file, raises UnwritableOutput naming the path and the reason."""
    if isinstance(text, str):
        text = (text,)
    path = Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp, fd = _create_beside(path)
        try:
            with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
                with contextlib.suppress(FileNotFoundError):
                    os.fchmod(fd, stat.S_IMODE(os.stat(path).st_mode))
                handle.writelines(text)
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise UnwritableOutput(f"cannot write {path}: {exc}") from None


def _create_beside(path: Path) -> tuple[Path, int]:
    """A new, empty file in ``path``'s directory, open for writing, and its
    path. It is created with mode 0o666, which the kernel narrows by the
    umask, as it does for ``open()``."""
    while True:
        tmp = path.parent / f"{path.name}.{os.urandom(4).hex()}.tmp"
        try:
            return tmp, os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        except FileExistsError:
            continue
