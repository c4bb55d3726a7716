"""Deterministic CSV/JSON artifact writers with atomic replacement.

Every CSV cell is rendered by one rule, `_cell`; floats get 17 significant
digits, so they read back bit-exactly and reruns with identical configs and
seeds produce byte-identical files.  The trace and trajectory bodies are
all-number columns (plus a text label column for trajectories), so they apply
that rule through %-templates, one `%` operation per block of `_BLOCK_ROWS`
rows: "%d" is the integer rule, "%.17g" the float rule, "%s" the text rule.

A trace's n, t and a columns depend only on its times and steps, which every
trace of a run shares.  So a trace block's template holds them already
rendered, with a "%.17g" slot for each x, z and M cell.  Inside
`shared_trace_templates`, which `experiments` opens around a run, the
templates are kept per (d, times, steps) and reused by later traces; the
memo is dropped when the block exits, and a write outside one renders its
own templates.

`read_trace_csv` refuses by text searches what `float()` takes but the writer
never writes (" 4", "+0_5"), then parses the body in one `np.loadtxt` pass.
"""

from __future__ import annotations

import contextlib
import contextvars
import json
import os
import re
import tempfile

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
            os.umask(umask := os.umask(0o077))  # os.umask reads the umask only by setting one
            os.chmod(tmp, 0o666 & ~umask)  # the mode open(path, "w") gives, not mkstemp's 0600
            with os.fdopen(fd, "w", newline="") as handle:
                handle.write(text)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise IoFailure(f"could not write {path}: {exc}") from exc


def copy_text(source, path):
    """Write source's text to path, byte for byte, through atomic_write_text."""
    try:
        with open(source, newline="") as handle:
            text = handle.read()
    except OSError as exc:
        raise IoFailure(f"could not read {source}: {exc}") from exc
    atomic_write_text(path, text)


def write_table(path, header, rows):
    """A CSV file of one header line and one line per row, each cell
    rendered by _cell and joined with ','.  Text cells are written as
    given, so they must hold no ',' and no line break."""
    lines = [",".join(header)]
    lines.extend(",".join(map(_cell, row)) for row in rows)
    atomic_write_text(path, "\n".join(lines) + "\n")


_BLOCK_ROWS = 4096


def _block_formats(row_format, n):
    """The %-templates of the _BLOCK_ROWS-row blocks of n rows that all go
    through row_format."""
    return [row_format * min(_BLOCK_ROWS, n - i) for i in range(0, n, _BLOCK_ROWS)]


def _render_rows(block_formats, table):
    """The blocks of _BLOCK_ROWS rows of the 2-d array `table`, block i
    through the %-template block_formats[i] in one `%` operation."""
    starts = range(0, len(table), _BLOCK_ROWS)
    return [
        fmt % tuple(table[i : i + _BLOCK_ROWS].ravel().tolist())
        for fmt, i in zip(block_formats, starts)
    ]


def _trace_header(d):
    return ["n", "t"] + [f"{name}_{i + 1}" for name in "xzM" for i in range(d)] + ["a"]


# {(d, times[:-1] bytes, steps bytes): block templates} inside
# shared_trace_templates, None outside it
_trace_templates_memo = contextvars.ContextVar("trace_templates_memo", default=None)


@contextlib.contextmanager
def shared_trace_templates():
    """Inside the block, traces that share d, times and steps share their
    row templates, so a run renders its n, t and a columns once.  A nested
    block uses the outer one's memo; the memo is dropped when the outermost
    block exits."""
    if _trace_templates_memo.get() is not None:
        yield
        return
    token = _trace_templates_memo.set({})
    try:
        yield
    finally:
        _trace_templates_memo.reset(token)


def _trace_templates(trace):
    """Per block of body rows, the template "n,t,%.17g,...,%.17g,a" per row:
    n, t and a rendered by `_cell`'s rule, one slot per x, z and M cell."""
    d = trace.dimension
    times, steps = np.asarray(trace.times[:-1], float), np.asarray(trace.steps, float)
    key = (d, times.tobytes(), steps.tobytes())  # bytes, so -0.0 is not 0.0
    memo = _trace_templates_memo.get()
    templates = memo.get(key) if memo is not None else None
    if templates is None:
        row_format = "%d,%.17g," + "%%.17g," * (3 * d) + "%.17g\n"
        table = np.column_stack([np.arange(steps.size), times, steps])
        templates = _render_rows(_block_formats(row_format, steps.size), table)
        if memo is not None:
            memo[key] = templates
    return templates


def write_trace_csv(path, trace):
    """One row per step n < N (n, t, x, z, M, a) and a final-state row
    (N, t, x) whose 2d+1 remaining cells are empty.  Every number is
    rendered by `_cell`'s rule ("%d" for n, "%.17g" for the rest), so the
    file is the one `write_table` would write."""
    d, n = trace.dimension, trace.n_steps
    body = np.column_stack([trace.states[:-1], trace.drifts, trace.noises])
    final = [n, trace.times[-1], *trace.states[-1]] + [""] * (2 * d + 1)
    atomic_write_text(
        path,
        "".join(
            [
                ",".join(_trace_header(d)) + "\n",
                *_render_rows(_trace_templates(trace), body),
                ",".join(map(_cell, final)) + "\n",
            ]
        ),
    )


_NOT_IN_ROWS = (" ", "\t", "\v", "\f", "\r", "\x1c", "\x1d", "\x1e", "\x1f", "_", "E")
# an n cell, up to its comma, not spelled as a str(int): "+4", "04", "4.0", "4e0"
_ODD_N_CELL = re.compile(r"\n(?!0,|[1-9][0-9]*,)[^,\n]*,")


def read_trace_csv(path, seed=0, field_name=""):
    """The trace write_trace_csv wrote, bit-exactly.  Anything else (another
    header, text that is not ASCII, CRLF line ends, whitespace, '_' or 'E'
    inside a row, a row with missing, extra, non-numeric or non-finite
    cells, no final-state row, an n column that is not "0", "1", ..., "N")
    raises IoFailure naming the path.  The last newline may be missing."""
    try:
        with open(path, encoding="ascii", newline="") as handle:
            text = handle.read()
    except OSError as exc:
        raise IoFailure(f"could not read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise IoFailure(f"{path}: not ASCII text, which write_trace_csv writes: {exc}") from exc
    head_end = text.find("\n") if "\n" in text else len(text)
    if any(text.find(c, head_end) >= 0 for c in _NOT_IN_ROWS):
        raise IoFailure(
            f"{path}: a row holds whitespace or '_' (or 'E'), which write_trace_csv never writes"
        )
    if _ODD_N_CELL.search(text):
        raise IoFailure(f"{path}: an n cell is not spelled as write_trace_csv spells its row index")
    if not text:
        raise IoFailure(f"{path}: empty file, not a trace CSV")
    header = text[:head_end].split(",")
    d, rem = divmod(len(header) - 3, 3)
    if d < 1 or rem or header != _trace_header(d):
        raise IoFailure(f"{path}: not a trace CSV header: {text[:head_end]!r}")
    width = 3 * d + 3
    final_start = text.rfind("\n", 0, len(text) - 1) + 1  # 0: the header is all there is
    final = text[final_start:].removesuffix("\n").split(",") if final_start else []
    if len(final) != width or any(final[2 + d :]):
        raise IoFailure(f"{path}: no final-state row with {2 * d + 1} empty cells (truncated?)")
    body = text[head_end + 1 : final_start].split("\n")[:-1]  # blank rows too
    n_steps = len(body)
    try:
        final = np.array(final[: 2 + d], dtype=float)
        # loadtxt skips blank rows (counted below) and warns on a body without data
        table = (np.loadtxt(body, float, delimiter=",", comments=None, ndmin=2)
                 if any(body) else np.empty((0, width)))
    except ValueError as exc:
        raise IoFailure(f"{path}: a row is not {width} numeric cells: {exc}") from exc
    if table.shape != (n_steps, width):
        raise IoFailure(f"{path}: a row is not {width} numeric cells")
    if not (np.isfinite(table).all() and np.isfinite(final).all()):
        raise IoFailure(f"{path}: a cell is not finite; write_trace_csv writes none")
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
    table = np.column_stack([trajectory.times, trajectory.points, modes])
    atomic_write_text(
        path, "".join([",".join(header) + "\n", *_render_rows(_block_formats(row_format, n), table)])
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


def _finite_or_null(obj):
    if isinstance(obj, dict):
        return {key: _finite_or_null(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return list(map(_finite_or_null, obj))
    return None if isinstance(obj, float) and not np.isfinite(obj) else obj


def write_json(path, obj):
    """obj as key-sorted, indented JSON, with null for a NaN or infinite float."""
    text = json.dumps(_finite_or_null(obj), sort_keys=True, indent=2, allow_nan=False)
    atomic_write_text(path, text + "\n")
