"""Small file-output helpers shared by the library and the CLI."""

from __future__ import annotations

import csv
import io
import os
import tempfile
from pathlib import Path
from typing import Iterable, Sequence


def csv_text(header: Sequence, rows: Iterable[Sequence]) -> str:
    """A header and rows as CSV text, in the one dialect the package writes."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def atomic_write_text(path: str | Path, text: str | Iterable[str]) -> None:
    """Write text, or an iterable of strings piece by piece, to path via a
    temp file and rename, so readers never see a partially written file."""
    if isinstance(text, str):
        text = (text,)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.writelines(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
