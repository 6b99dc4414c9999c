"""The one CSV table format of the package.

Every CSV the package writes goes through :func:`write_table`, and every CSV
it reads through :func:`read_table`.  Floats are written with ``repr``
(shortest round-trip decimal), so a table reloads bit-identically.  Data
tables (datasets, impulse coefficients, frequency samples) label their
channel columns by :func:`channel_header`; the reader infers the channel
counts from those labels and accepts a header only if it is exactly the one
the writer produces for them, so reordered, missing or misnumbered columns
are rejected instead of loaded into the wrong place.
"""

from __future__ import annotations

import csv

import numpy as np

from .errors import FormatError


def channel_header(kind: str, ny: int, nu: int) -> list[str]:
    """Header of a ``kind`` table with ny outputs and nu inputs.

    ``dataset``: ``k, u_1..u_nu, y_1..y_ny``; ``markov``: ``k``, ``h_i_j``
    row by row, ``ts``; ``frequency``: ``omega``, a ``re(H_i_j)``,
    ``im(H_i_j)`` pair per channel row by row, ``ts``.  Indices are 1-based.
    """
    pairs = [f"{i}_{j}" for i in range(1, ny + 1) for j in range(1, nu + 1)]
    if kind == "dataset":
        return (["k"] + [f"u_{j}" for j in range(1, nu + 1)]
                + [f"y_{i}" for i in range(1, ny + 1)])
    if kind == "markov":
        return ["k"] + [f"h_{p}" for p in pairs] + ["ts"]
    if kind == "frequency":
        return ["omega"] + [c for p in pairs for c in (f"re(H_{p})", f"im(H_{p})")] + ["ts"]
    raise ValueError(f"unknown table kind {kind!r}")


def _channel_counts(kind: str, header: list[str]) -> tuple[int, int]:
    """(ny, nu) named by the channel labels: the largest output and input
    index (the counts of ``y_``/``u_`` labels for a dataset)."""
    if kind == "dataset":
        return (sum(c.startswith("y_") for c in header),
                sum(c.startswith("u_") for c in header))
    indices = [[int(t) for t in "".join(ch if ch.isdigit() else " " for ch in c).split()]
               for c in header]
    pairs = [ix for ix in indices if len(ix) == 2]
    if not pairs:
        return 0, 0
    return max(i for i, _ in pairs), max(j for _, j in pairs)


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(float(v))
    return str(v)


def write_table(path, header: list[str], rows, ts: float | None = None) -> None:
    """Write a header and rows of cells; floats are written with ``repr``,
    ``None`` as an empty cell.  When the header ends in ``ts``, the first row
    carries ``ts`` in that column and the others leave it blank."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        trailing = header[-1] == "ts"
        for k, row in enumerate(rows):
            cells = [_cell(v) for v in row]
            if trailing:
                cells.append(repr(float(ts)) if k == 0 else "")
            writer.writerow(cells)


def read_table(path, kind: str) -> tuple[tuple[int, int], np.ndarray, float | None]:
    """Read a ``kind`` table written by :func:`write_table`.

    Returns (ny, nu), the numeric cells as a float array (one row per data
    row, the ``ts`` column left out), and the sample period from the ``ts``
    column (None when the kind has none or its cells are blank).  Raises
    :class:`FormatError` for an empty file, a header other than the one
    :func:`channel_header` gives for the channel counts its labels name, a
    row of the wrong width, a non-numeric cell, and a file without data rows.
    """
    with open(path, newline="") as f:
        lines = list(csv.reader(f))
    if not lines:
        raise FormatError(f"{path}: empty file")
    header = lines[0]
    ny, nu = _channel_counts(kind, header)
    # A dataset's counts are label counts; the other kinds name ny*nu channels
    # by pair indices, which must fit the header before a header is built.
    too_many = kind != "dataset" and ny * nu > len(header)
    if min(ny, nu) < 1 or too_many or header != channel_header(kind, ny, nu):
        example = ",".join(channel_header(kind, 1, 2))
        raise FormatError(f"{path}: line 1: header must list every channel once, "
                          f"in writer order (e.g. {example})")
    has_ts = header[-1] == "ts"
    values, ts = [], None
    for lineno, row in enumerate(lines[1:], start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise FormatError(f"{path}: line {lineno}: expected {len(header)} "
                              f"columns, got {len(row)}")
        try:
            if has_ts:
                *row, cell = row
                if cell:
                    ts = float(cell)
            values.append([float(v) for v in row])
        except ValueError as exc:
            raise FormatError(f"{path}: line {lineno}: {exc}") from None
    if not values:
        raise FormatError(f"{path}: no data rows")
    return (ny, nu), np.array(values), ts
