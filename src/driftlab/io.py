"""Deterministic CSV/JSON artifact writers with atomic replacement.

Every CSV cell is rendered by one rule, `_cell`; floats get 17 significant
digits, so they read back bit-exactly and reruns with identical configs and
seeds produce byte-identical files.  The trace and trajectory bodies are
all-number columns (plus a text label column for trajectories), so they apply
that rule through one %-template per row, `_BLOCK_ROWS` rows per `%`
operation: "%d" is the integer rule, "%.17g" the float rule, "%s" the text rule.
"""

from __future__ import annotations

import json
import os
import re
import tempfile
from itertools import repeat

import numpy as np

from .errors import IoFailure
from .sa import IterateTrace


def _cell(value):
    """Strings as given, booleans as true/false, integers in decimal, any
    other number as "%.17g" (the same text as format(float(v), ".17g"))."""
    if isinstance(value, float):  # np.float64 too; the common case goes first
        return "%.17g" % value
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return "%.17g" % value


def atomic_write_text(path, text):
    """Write via a temp file in the same directory, then rename."""
    directory = os.path.dirname(os.path.abspath(path))
    try:
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
        try:
            with os.fdopen(fd, "w", newline="") as handle:
                handle.write(text)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise IoFailure(f"could not write {path}: {exc}") from exc


def write_table(path, header, rows):
    """A CSV file of one header line and one line per row, each cell
    rendered by _cell and joined with ','.  Text cells are written as
    given, so they must hold no ',' and no line break."""
    lines = [",".join(header)]
    lines.extend(",".join(map(_cell, row)) for row in rows)
    atomic_write_text(path, "\n".join(lines) + "\n")


_BLOCK_ROWS = 4096


def _render_rows(row_format, table):
    """The rows of the 2-d array `table`, each through the %-template
    `row_format`, with one `%` operation per block of _BLOCK_ROWS rows."""
    blocks = (table[i : i + _BLOCK_ROWS] for i in range(0, len(table), _BLOCK_ROWS))
    return "".join((row_format * len(b)) % tuple(b.ravel().tolist()) for b in blocks)


def _trace_header(d):
    return ["n", "t"] + [f"{name}_{i + 1}" for name in "xzM" for i in range(d)] + ["a"]


def write_trace_csv(path, trace):
    """One row per step n < N (n, t, x, z, M, a) and a final-state row
    (N, t, x) whose 2d+1 remaining cells are empty.  The body is rendered by
    the template "%d,%.17g,...,%.17g": `_cell`'s rule on its all-number
    columns, so the file is the one `write_table` would write."""
    d, n = trace.dimension, trace.n_steps
    body = np.column_stack(
        [np.arange(n), trace.times[:-1], trace.states[:-1], trace.drifts, trace.noises, trace.steps]
    )
    final = [n, trace.times[-1], *trace.states[-1]] + [""] * (2 * d + 1)
    atomic_write_text(
        path,
        ",".join(_trace_header(d)) + "\n"
        + _render_rows("%d," + ",".join(["%.17g"] * (3 * d + 2)) + "\n", body)
        + ",".join(map(_cell, final)) + "\n",
    )


_NOT_IN_ROWS = (" ", "\t", "\v", "\f", "\r", "\x1c", "\x1d", "\x1e", "\x1f", "_", "E")
# an n cell, up to its comma, not spelled as a str(int): "+4", "04", "4.0", "4e0"
_ODD_N_CELL = re.compile(r"\n(?!0,|[1-9][0-9]*,)[^,\n]*,")


def _trace_lines(path):
    """The lines of the file at path, which must be ASCII, hold none of
    _NOT_IN_ROWS after its first line (the header) and spell each n cell as
    str(n).  Python's float parsing takes whitespace around a number, '_'
    between digits, a sign, leading zeros and an exponent, so a hand-edited
    " 4", "+0_5" or "04" cell would load; C-speed searches of the text
    refuse them, and CRLF line ends with them.  The text is dropped on
    return, so it does not add to the peak memory of the parse."""
    try:
        with open(path, encoding="ascii", newline="") as handle:
            text = handle.read()
    except OSError as exc:
        raise IoFailure(f"could not read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise IoFailure(f"{path}: not ASCII text, which write_trace_csv writes: {exc}") from exc
    lines = text.split("\n")  # splitlines' other line breaks are refused below
    if not lines[-1]:
        lines.pop()
    rows_start = len(lines[0]) if lines else 0
    if any(text.find(c, rows_start) >= 0 for c in _NOT_IN_ROWS):
        raise IoFailure(
            f"{path}: a row holds whitespace or '_' (or 'E'), which write_trace_csv never writes"
        )
    if _ODD_N_CELL.search(text):
        raise IoFailure(f"{path}: an n cell is not spelled as write_trace_csv spells its row index")
    return lines


def read_trace_csv(path, seed=0, field_name=""):
    """The trace write_trace_csv wrote, bit-exactly.  Anything else (another
    header, text that is not ASCII, CRLF line ends, whitespace, '_' or 'E'
    inside a row, a row with missing, extra, non-numeric or non-finite
    cells, no final-state row, an n column that is not "0", "1", ..., "N")
    raises IoFailure naming the path."""
    lines = _trace_lines(path)
    if not lines:
        raise IoFailure(f"{path}: empty file, not a trace CSV")
    header = lines[0].split(",")
    d, rem = divmod(len(header) - 3, 3)
    if d < 1 or rem or header != _trace_header(d):
        raise IoFailure(f"{path}: not a trace CSV header: {lines[0]!r}")
    width = 3 * d + 3
    final = lines[-1].split(",") if len(lines) > 1 else []
    if len(final) != width or any(final[2 + d :]):
        raise IoFailure(f"{path}: no final-state row with {2 * d + 1} empty cells (truncated?)")
    body = lines[1:-1]
    if set(map(str.count, body, repeat(","))) - {width - 1}:
        raise IoFailure(f"{path}: a row is not {width} numeric cells")
    try:  # the body's cells, then the final row's numeric ones, in one flat parse
        cells = np.array(",".join(body + final[: 2 + d]).split(","), dtype=float)
    except ValueError as exc:
        raise IoFailure(f"{path}: a row is not {width} numeric cells: {exc}") from exc
    if not np.isfinite(cells).all():
        raise IoFailure(f"{path}: a cell is not finite; write_trace_csv writes none")
    n_steps = len(body)
    table, final = cells[: n_steps * width].reshape(n_steps, width), cells[n_steps * width :]
    if not (np.array_equal(table[:, 0], np.arange(n_steps)) and final[0] == n_steps):
        raise IoFailure(f"{path}: the n column does not run 0..{n_steps}")
    return IterateTrace(
        states=np.vstack([table[:, 2 : 2 + d], final[2:]]),
        drifts=table[:, 2 + d : 2 + 2 * d],
        noises=table[:, 2 + 2 * d : 2 + 3 * d],
        steps=table[:, 2 + 3 * d],
        times=np.append(table[:, 1], final[1]),
        seed=seed,
        field_name=field_name,
    )


def write_trajectory_csv(path, trajectory):
    """One row per point (t, x, mode); point i carries mode label i, and the
    points past the last label reuse it ("" when there is none)."""
    d, n = trajectory.dimension, len(trajectory.times)
    labels = list(trajectory.mode_labels)
    modes = np.array((labels + (labels[-1:] or [""]) * n)[:n], dtype=object)
    header = ["t"] + [f"x_{i + 1}" for i in range(d)] + ["mode"]
    row_format = ",".join(["%.17g"] * (d + 1)) + ",%s\n"
    atomic_write_text(
        path,
        ",".join(header) + "\n"
        + _render_rows(row_format, np.column_stack([trajectory.times, trajectory.points, modes])),
    )


def write_tracking_csv(path, rows):
    """Rows: TrackingReport.to_rows(), or [] for a seed whose tracking was skipped."""
    header = ["window_index", "n_start", "t_start", "T", "error", "noise_flag"]
    write_table(path, header, ([r[k] for k in header] for r in rows))


def write_residuals_csv(path, checkpoint_rows):
    """Rows: dicts with checkpoint_n, t_n, member_index, residual, envelope."""
    header = ["checkpoint_n", "t_n", "member_index", "residual", "envelope"]
    write_table(path, header, ([r[k] for k in header] for r in checkpoint_rows))


def write_support_csv(path, support_rows):
    """Rows: dicts with eps, filippov_fraction, krasovskii_fraction."""
    header = ["eps", "filippov_fraction", "krasovskii_fraction"]
    write_table(path, header, ([r[k] for k in header] for r in support_rows))


def canonical_json(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def write_json(path, obj):
    atomic_write_text(path, json.dumps(obj, sort_keys=True, indent=2) + "\n")
