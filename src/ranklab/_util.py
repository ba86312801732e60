"""Small shared helpers: atomic, deterministic artifact writing."""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np


def fmt_cell(value) -> str:
    """Format a cell so reruns are byte-identical: repr for floats, ``undefined``
    for a missing value, str otherwise."""
    if value is None:
        return "undefined"
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value)).lower()
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, np.integer):
        return str(int(value))
    return str(value)


@contextmanager
def atomic_write(path):
    """Text handle (UTF-8, LF) on a temporary file beside ``path``.  On a
    clean exit the file replaces ``path`` in one step; on an error it is
    removed, so ``path`` is never left half-written."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _fold_sum(values) -> float:
    """``values`` added to 0.0 in order: ``sum``'s bits up to Python 3.11, which
    3.12's ``sum`` changes by compensating float additions."""
    total = 0.0
    for value in values:
        total += value
    return total


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """UTF-8, LF line endings, repr'd floats; plain enough to parse anywhere."""
    with atomic_write(path) as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(fmt_cell(c) for c in row) + "\n")


def read_csv(path) -> tuple[list[str], list[list[str]]]:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ValueError(f"empty CSV file {path}")
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]
