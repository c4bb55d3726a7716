import csv
import io
import os
import pathlib
import stat
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import driftlab as dl
from driftlab import io as dio
from driftlab.sa import IterateTrace


def _oracle_fmt(value):
    return format(float(value), ".17g")


def _oracle_trace_text(trace):
    """The trace rendering of the csv.writer implementation, cell by cell."""
    d = trace.dimension
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["n", "t"]
        + [f"{s}_{i + 1}" for s in "xzM" for i in range(d)]
        + ["a"]
    )
    for n in range(trace.n_steps + 1):
        row = [str(n), _oracle_fmt(trace.times[n])] + [_oracle_fmt(v) for v in trace.states[n]]
        if n < trace.n_steps:
            row += [_oracle_fmt(v) for v in trace.drifts[n]]
            row += [_oracle_fmt(v) for v in trace.noises[n]]
            row.append(_oracle_fmt(trace.steps[n]))
        else:
            row += [""] * (2 * d + 1)
        writer.writerow(row)
    return buf.getvalue()


_double = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308, 0.1, 1.0 / 3.0]
)
_step = st.floats(min_value=0.0, allow_infinity=False) | st.just(0.0)


@st.composite
def _traces(draw):
    d = draw(st.integers(1, 3))
    n = draw(st.integers(0, 12))

    def grid(rows, cols):
        cells = draw(st.lists(_double, min_size=rows * cols, max_size=rows * cols))
        return np.array(cells, dtype=float).reshape(rows, cols)

    return IterateTrace(
        states=grid(n + 1, d),
        drifts=grid(n, d),
        noises=grid(n, d),
        steps=np.array(draw(st.lists(_step, min_size=n, max_size=n)), dtype=float),
        times=grid(n + 1, 1)[:, 0],
        seed=0,
    )


def _fixed_trace(d, values, steps):
    n = len(steps)
    cycle = np.resize(np.array(values, dtype=float), (n + 1) * (3 * d + 1))
    return IterateTrace(
        states=cycle[: (n + 1) * d].reshape(n + 1, d),
        drifts=cycle[(n + 1) * d : (2 * n + 1) * d].reshape(n, d),
        noises=cycle[(2 * n + 1) * d : (3 * n + 1) * d].reshape(n, d),
        steps=np.array(steps, dtype=float),
        times=cycle[-(n + 1) :],
        seed=0,
    )


def _assert_same_bits(mine, theirs):
    for name in ("states", "drifts", "noises", "steps", "times"):
        a, b = getattr(mine, name), getattr(theirs, name)
        assert a.shape == b.shape, name
        assert np.array_equal(a.view(np.int64), b.view(np.int64)), name  # -0.0 is not 0.0


def _assert_round_trip(path, trace):
    dio.write_trace_csv(str(path), trace)
    assert path.read_text() == _oracle_trace_text(trace)
    _assert_same_bits(dio.read_trace_csv(str(path)), trace)


def _read_trace_oracle(path):
    """The reader read_trace_csv replaced: split the text into lines, count
    each body line's commas, then parse every cell through Python's float in
    one flat np.array.  Its refusals and its numbers are the reference."""
    try:
        with open(path, encoding="ascii", newline="") as handle:
            text = handle.read()
    except UnicodeDecodeError as exc:
        raise dl.IoFailure(f"{path}: not ASCII") from exc
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()
    rows_start = len(lines[0]) if lines else 0
    if any(text.find(c, rows_start) >= 0 for c in dio._NOT_IN_ROWS):
        raise dl.IoFailure(f"{path}: whitespace or '_' (or 'E') in a row")
    if dio._ODD_N_CELL.search(text):
        raise dl.IoFailure(f"{path}: an n cell is not spelled as str(n)")
    if not lines:
        raise dl.IoFailure(f"{path}: empty file")
    header = lines[0].split(",")
    d, rem = divmod(len(header) - 3, 3)
    if d < 1 or rem or header != dio._trace_header(d):
        raise dl.IoFailure(f"{path}: header")
    width = 3 * d + 3
    final = lines[-1].split(",") if len(lines) > 1 else []
    if len(final) != width or any(final[2 + d :]):
        raise dl.IoFailure(f"{path}: no final-state row")
    body = lines[1:-1]
    if any(line.count(",") != width - 1 for line in body):
        raise dl.IoFailure(f"{path}: a row is not {width} cells")
    try:
        cells = np.array(",".join(body + final[: 2 + d]).split(","), dtype=float)
    except ValueError as exc:
        raise dl.IoFailure(f"{path}: a cell is not numeric") from exc
    if not np.isfinite(cells).all():
        raise dl.IoFailure(f"{path}: not finite")
    n_steps = len(body)
    table, final = cells[: n_steps * width].reshape(n_steps, width), cells[n_steps * width :]
    if not (np.array_equal(table[:, 0], np.arange(n_steps)) and final[0] == n_steps):
        raise dl.IoFailure(f"{path}: the n column")
    return IterateTrace(
        states=np.vstack([table[:, 2 : 2 + d], final[2:]]),
        drifts=table[:, 2 + d : 2 + 2 * d],
        noises=table[:, 2 + 2 * d : 2 + 3 * d],
        steps=table[:, 2 + 3 * d],
        times=np.append(table[:, 1], final[1]),
        seed=0,
    )


def _assert_readers_agree(path):
    """Both readers refuse the file with IoFailure, or both return the same
    bits; the trace read is returned, or None."""
    try:
        expected = _read_trace_oracle(str(path))
    except dl.IoFailure:
        with pytest.raises(dl.IoFailure):
            dio.read_trace_csv(str(path))
        return None
    back = dio.read_trace_csv(str(path))
    _assert_same_bits(back, expected)
    return back


_B = dio._BLOCK_ROWS


class TestTraceCsv:
    @given(trace=_traces())
    @settings(max_examples=80, deadline=None)
    @example(trace=_fixed_trace(1, [-0.0, 5e-324, 1e308, -1e308], [0.0, 0.0, 0.5]))
    @example(trace=_fixed_trace(3, [-0.0, -5e-324, 1.7976931348623157e308, 0.1], [0.0, 1e-300]))
    def test_matches_oracle_and_reads_back_bit_exactly(self, tmp_path_factory, trace):
        _assert_round_trip(tmp_path_factory.mktemp("trace") / "trace.csv", trace)

    @pytest.mark.parametrize("n", [0, 1, _B - 1, _B, _B + 1, 2 * _B + 1])
    def test_block_boundaries(self, tmp_path, n):
        """The body is rendered _BLOCK_ROWS rows at a time; the hypothesis
        traces above are far shorter than one block."""
        rng = np.random.default_rng(n)
        values = rng.standard_normal(97) * 10.0 ** rng.integers(-300, 300, 97)
        values[:6] = [-0.0, 5e-324, -5e-324, 1e308, -1e308, 1.0 / 3.0]
        steps = np.resize([0.0, 5e-324, 0.5, 1e-300, 0.1], n)
        _assert_round_trip(tmp_path / "trace.csv", _fixed_trace(2, values, steps))


def test_record_writers_match_oracle(tmp_path):
    values = [0.1, -0.0, 5e-324, 1e308, 1.0 / 3.0]
    tracking = [
        {"window_index": j, "n_start": 10 * j, "t_start": v, "T": 1.0, "error": -v,
         "noise_flag": j % 2 == 0}
        for j, v in enumerate(values)
    ]
    residuals = [
        {"checkpoint_n": 100, "t_n": v, "member_index": j, "residual": v / 7, "envelope": 2 * v}
        for j, v in enumerate(values)
    ]
    support = [
        {"eps": v, "filippov_fraction": 1 - v, "krasovskii_fraction": np.float64(v)}
        for v in values
    ]
    fmt, ident = _oracle_fmt, str
    cases = (
        (dio.write_tracking_csv, tracking,
         (ident, ident, fmt, fmt, fmt, lambda b: str(b).lower())),
        (dio.write_residuals_csv, residuals, (ident, fmt, ident, fmt, fmt)),
        (dio.write_support_csv, support, (fmt, fmt, fmt)),
    )
    for writer, rows, renderers in cases:
        path = tmp_path / f"{writer.__name__}.csv"
        writer(str(path), rows)
        header = list(rows[0])
        expected = [",".join(header)] + [
            ",".join(r(row[k]) for r, k in zip(renderers, header)) for row in rows
        ]
        assert path.read_text() == "\n".join(expected) + "\n", writer.__name__
    dio.write_tracking_csv(str(tmp_path / "empty.csv"), [])
    assert (tmp_path / "empty.csv").read_text() == (
        "window_index,n_start,t_start,T,error,noise_flag\n"
    )


@pytest.mark.parametrize(
    "n_points, labels",
    [
        (5, ["+", "-", "slide:0", "corner"]),  # the last point reuses the last label
        (4, ["+", "-", "+", "-"]),
        (3, []),
        (1, []),
        (_B + 2, ["+", "-"] * (_B // 2) + ["slide:0"]),
    ],
)
def test_trajectory_writer_matches_cell_oracle(tmp_path, n_points, labels):
    times = np.concatenate([[-0.0, 5e-324], np.arange(1, n_points - 2) * 0.1, [1e308]])[-n_points:]
    points = np.resize(np.array([0.1, -0.0, 5e-324, 1e308, -1e308, 1.0 / 3.0]), (n_points, 2))
    path = tmp_path / "trajectory.csv"
    dio.write_trajectory_csv(str(path), dl.Trajectory(times, points, labels))
    rows = [
        [t, *x, labels[min(i, len(labels) - 1)] if labels else ""]
        for i, (t, x) in enumerate(zip(times, points))
    ]
    expected = ["t,x_1,x_2,mode"] + [",".join(map(dio._cell, row)) for row in rows]
    assert path.read_text() == "\n".join(expected) + "\n"


class TestMalformedTrace:
    """read_trace_csv accepts exactly what write_trace_csv writes."""

    @pytest.fixture()
    def text(self, tmp_path):
        field = dl.builtin_field("relay")
        trace = dl.run_sa(
            field, [0.5], dl.StepsizeSchedule(kind="power", a0=1.0, gamma=0.75),
            dl.NoiseModel(kind="gaussian", scale=0.1), 20, seed=1,
        )
        path = tmp_path / "trace.csv"
        dio.write_trace_csv(str(path), trace)
        return path.read_text()

    def _rejects(self, tmp_path, content, match):
        path = tmp_path / "bad.csv"
        path.write_text(content, encoding="utf-8")
        with pytest.raises(dl.IoFailure, match=match) as info:
            dio.read_trace_csv(str(path))
        assert str(path) in str(info.value)
        with pytest.raises(dl.IoFailure):
            _read_trace_oracle(str(path))

    @staticmethod
    def _accepts(path, content):
        path.write_text(content, encoding="utf-8")
        back = _assert_readers_agree(path)
        assert back is not None
        return back

    def test_empty_file(self, tmp_path):
        self._rejects(tmp_path, "", "empty file")

    def test_cut_mid_row(self, tmp_path, text):
        self._rejects(tmp_path, text[: len(text) // 2], "final-state row")

    def test_cut_at_row_boundary(self, tmp_path, text):
        lines = text.splitlines(keepends=True)
        self._rejects(tmp_path, "".join(lines[:-3]), "final-state row")

    def test_header_only(self, tmp_path, text):
        self._rejects(tmp_path, text.splitlines(keepends=True)[0], "final-state row")

    @pytest.mark.parametrize(
        "header", ["n,t,x_1,z_1,M_1", "n,t,x_1,z_1,M_1,b", "n,t,y_1,z_1,M_1,a", "a,b,c"]
    )
    def test_wrong_header(self, tmp_path, text, header):
        self._rejects(tmp_path, header + text[text.index("\n") :], "header")

    def test_row_with_missing_cell(self, tmp_path, text):
        lines = text.splitlines()
        lines[5] = lines[5].rsplit(",", 1)[0]
        self._rejects(tmp_path, "\n".join(lines) + "\n", "not 6 numeric cells")

    def test_non_numeric_cell(self, tmp_path, text):
        lines = text.splitlines()
        cells = lines[3].split(",")
        cells[2] = "x"
        lines[3] = ",".join(cells)
        self._rejects(tmp_path, "\n".join(lines) + "\n", "not 6 numeric cells")

    @pytest.mark.parametrize(
        "edits",
        [
            [(3, 2, "nan"), (7, 4, "inf")],
            [(5, 5, "-Infinity")],
            [(-1, 2, "inf")],  # the final-state row's x
        ],
        ids=["nan-and-inf", "minus-infinity", "final-row"],
    )
    def test_non_finite_cell(self, tmp_path, text, edits):
        lines = text.splitlines()
        for line, cell, value in edits:
            cells = lines[line].split(",")
            cells[cell] = value
            lines[line] = ",".join(cells)
        self._rejects(tmp_path, "\n".join(lines) + "\n", "not finite")

    @staticmethod
    def _edited(text, line, cell, value):
        lines = text.splitlines()
        cells = lines[line].split(",")
        cells[cell] = value
        lines[line] = ",".join(cells)
        return "\n".join(lines) + "\n"

    # float() strips whitespace around a number; each of these cells reads
    # back as the number the writer wrote there, or as another one
    @pytest.mark.parametrize(
        "line, cell, value",
        [(5, 0, " 4"), (5, 0, "4 "), (6, 0, "\t5"), (7, 3, "\x1f0.25"), (-1, 0, "20\x0c")],
        ids=["space-before-n", "space-after-n", "tab", "unit-separator", "form-feed-final-row"],
    )
    def test_whitespace_in_row(self, tmp_path, text, line, cell, value):
        self._rejects(tmp_path, self._edited(text, line, cell, value), "whitespace or '_'")

    @pytest.mark.parametrize(
        "line, cell, value", [(5, 3, "+0_5"), (4, 1, "1_000e-3"), (-1, 2, "0_0.5")],
        ids=["z-cell", "t-cell", "final-row"],
    )
    def test_underscore_in_cell(self, tmp_path, text, line, cell, value):
        self._rejects(tmp_path, self._edited(text, line, cell, value), "whitespace or '_'")

    @pytest.mark.parametrize(
        "line, cell, value",
        [(5, 0, "\u0664"), (6, 0, "\uff15"), (-1, 2, "\uff10.\uff15")],
        ids=["arabic-indic-n", "fullwidth-n", "fullwidth-final-row"],
    )
    def test_non_ascii_digit(self, tmp_path, text, line, cell, value):
        self._rejects(tmp_path, self._edited(text, line, cell, value), "not ASCII")

    def test_undecodable_byte(self, tmp_path, text):
        path = tmp_path / "bad.csv"
        path.write_bytes(text.encode().replace(b"\n", b"\xff\n", 3))
        with pytest.raises(dl.IoFailure, match="not ASCII") as info:
            dio.read_trace_csv(str(path))
        assert str(path) in str(info.value)

    # each reads back as the row's index, but the writer spells n as str(n)
    @pytest.mark.parametrize(
        "line, value",
        [(5, "+4"), (5, "04"), (5, "4.0"), (5, "4."), (5, "4e0"), (1, "-0"),
         (-1, "2e1"), (-1, "+20")],
        ids=["plus", "leading-zero", "point-zero", "trailing-point", "exponent", "minus-zero",
             "final-row-exponent", "final-row-plus"],
    )
    def test_n_cell_not_str_of_index(self, tmp_path, text, line, value):
        self._rejects(tmp_path, self._edited(text, line, 0, value), "n cell is not spelled")

    @pytest.mark.parametrize(
        "line, cell, value", [(5, 0, "4E0"), (6, 3, "2.5E-1")], ids=["n-cell", "z-cell"]
    )
    def test_capital_exponent(self, tmp_path, text, line, cell, value):
        self._rejects(tmp_path, self._edited(text, line, cell, value), r"\(or 'E'\)")

    def test_crlf_line_ends(self, tmp_path, text):
        self._rejects(tmp_path, text.replace("\n", "\r\n"), "whitespace or '_'")

    def test_blank_line_in_body(self, tmp_path, text):
        lines = text.splitlines()
        lines.insert(6, "")
        self._rejects(tmp_path, "\n".join(lines) + "\n", "not 6 numeric cells")

    def test_short_row_beside_long_row(self, tmp_path, text):
        """The total cell count is unchanged, so only a per-row count sees it."""
        lines = text.splitlines()
        lines[5], moved = lines[5].rsplit(",", 1)
        lines[6] += "," + moved
        self._rejects(tmp_path, "\n".join(lines) + "\n", "not 6 numeric cells")

    def test_trailing_comma(self, tmp_path, text):
        lines = text.splitlines()
        lines[8] += ","
        self._rejects(tmp_path, "\n".join(lines) + "\n", "not 6 numeric cells")

    def test_n_column_not_consecutive(self, tmp_path, text):
        lines = text.splitlines()
        del lines[4]
        self._rejects(tmp_path, "\n".join(lines) + "\n", r"n column does not run 0\.\.19")

    # np.loadtxt parses the body: its comment character, quote character and
    # float grammar must not let through a cell that float() refuses.  "1#"
    # sits in a row's last cell, where cutting a comment off keeps 6 cells.
    @pytest.mark.parametrize(
        "line, cell, value, match",
        [
            (5, 5, "1#", "not 6 numeric cells"),
            (6, 3, '"1"', "not 6 numeric cells"),
            (7, 2, "", "not 6 numeric cells"),
            (8, 4, "0x1", "not 6 numeric cells"),
            (9, 3, "1j", "not 6 numeric cells"),
            (10, 2, "infinity", "not finite"),
        ],
        ids=["hash-in-last-cell", "quoted", "empty", "hex", "imaginary", "infinity"],
    )
    def test_cell_float_refuses(self, tmp_path, text, line, cell, value, match):
        self._rejects(tmp_path, self._edited(text, line, cell, value), match)

    def test_second_trailing_newline(self, tmp_path, text):
        self._rejects(tmp_path, text + "\n", "final-state row")

    def test_no_trailing_newline(self, tmp_path, text):
        whole = self._accepts(tmp_path / "whole.csv", text)
        _assert_same_bits(self._accepts(tmp_path / "cut.csv", text[:-1]), whole)

    @pytest.mark.filterwarnings("error")  # loadtxt warns on a body without data
    @pytest.mark.parametrize("steps", [[], [0.5]], ids=["no-steps", "one-row-body"])
    def test_short_trace(self, tmp_path, steps):
        trace = _fixed_trace(2, [0.1, -0.0, 5e-324, 1e308, -1.0 / 3.0], steps)
        dio.write_trace_csv(str(tmp_path / "trace.csv"), trace)
        text = (tmp_path / "trace.csv").read_text()
        _assert_same_bits(self._accepts(tmp_path / "short.csv", text), trace)

    def test_missing_file(self, tmp_path):
        with pytest.raises(dl.IoFailure, match="could not read"):
            dio.read_trace_csv(str(tmp_path / "none.csv"))


def test_copy_text_writes_the_same_bytes(tmp_path):
    source = tmp_path / "source.csv"
    source.write_bytes(b"a,b\n1,-0\n2,0.10000000000000001")
    dio.copy_text(str(source), str(tmp_path / "copy.csv"))
    assert (tmp_path / "copy.csv").read_bytes() == source.read_bytes()
    with pytest.raises(dl.IoFailure, match="could not read"):
        dio.copy_text(str(tmp_path / "none.csv"), str(tmp_path / "other.csv"))
    assert not (tmp_path / "other.csv").exists()
    with pytest.raises(dl.IoFailure, match="could not write"):
        dio.copy_text(str(source), str(tmp_path))  # a directory, not a file
    assert sorted(p.name for p in tmp_path.iterdir()) == ["copy.csv", "source.csv"]


@pytest.mark.parametrize("umask", [0o022, 0o077], ids=["umask022", "umask077"])
def test_atomic_write_text_gives_the_mode_of_open(tmp_path, umask):
    previous = os.umask(umask)
    try:
        dio.atomic_write_text(str(tmp_path / "atomic.txt"), "x\n")
        with open(tmp_path / "plain.txt", "w") as handle:
            handle.write("x\n")
    finally:
        os.umask(previous)
    modes = [stat.S_IMODE((tmp_path / name).stat().st_mode) for name in ("atomic.txt", "plain.txt")]
    assert modes == [0o666 & ~umask] * 2


_MUTATION_CHARS = ',\n#"-+.e0 _E\r\x00'


@st.composite
def _mutated_trace_texts(draw):
    """A d = 1 or d = 2 trace text after one or two edits: a character of
    _MUTATION_CHARS inserted, put in place of another or a character
    deleted; a line dropped, doubled or blanked; the last newline dropped;
    or the text cut."""
    d, n = draw(st.sampled_from([1, 2])), draw(st.integers(0, 6))
    values = draw(st.lists(_double, min_size=1, max_size=(n + 1) * (3 * d + 1)))
    steps = draw(st.lists(_step, min_size=n, max_size=n))
    text = _oracle_trace_text(_fixed_trace(d, values, steps))
    for _ in range(draw(st.integers(1, 2))):
        kind = draw(st.sampled_from(["insert", "replace", "delete", "drop", "double", "blank",
                                     "no last newline", "cut"]))
        if kind in ("insert", "replace", "delete"):
            i = draw(st.integers(0, max(len(text) - (kind != "insert"), 0)))
            c = "" if kind == "delete" else draw(st.sampled_from(_MUTATION_CHARS))
            text = text[:i] + c + text[i + (kind != "insert") :]
        elif kind in ("drop", "double", "blank"):
            lines = text.splitlines(keepends=True) or [""]
            i = draw(st.integers(0, len(lines) - 1))
            lines[i] = {"drop": "", "double": lines[i] * 2, "blank": "\n"}[kind]
            text = "".join(lines)
        elif kind == "no last newline":
            text = text.removesuffix("\n")
        else:
            text = text[: draw(st.integers(0, len(text)))]
    return text


class TestReaderOracle:
    """read_trace_csv accepts and refuses what the line-split reader did,
    and reads the same bits."""

    @given(text=_mutated_trace_texts())
    @settings(max_examples=400, deadline=None)
    @example(text="n,t,x_1,z_1,M_1,a\n0,0,1,2,3,1#\n1,1,2,,,\n")
    @example(text="n,t,x_1,z_1,M_1,a\n0,0,1,2,3,0.5\n\n1,1,2,,,\n")
    @example(text="n,t,x_1,z_1,M_1,a\n\n1,1,2,,,\n")
    @example(text="n,t,x_1,z_1,M_1,a\n0,-0,1,2,3,0.5\n1,1,2,,,")
    def test_agrees_with_the_line_split_reader(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("mutated") / "trace.csv"
        path.write_bytes(text.encode("ascii"))
        _assert_readers_agree(path)


class TestSharedTraceTemplates:
    """Traces of one (d, times, steps) share their n, t and a rendering: the
    last key rendered keeps its templates.  Each file stays the one a lone
    write, which renders its own, gives."""

    @staticmethod
    def _renders(write):
        """The memo misses (template renderings) during write(), from an
        empty memo; the memo holds one entry after it."""
        dio._block_templates.cache_clear()
        write()
        info = dio._block_templates.cache_info()
        assert info.currsize == 1
        return info.misses

    @staticmethod
    def _assert_lone_write(tmp_path, path, trace):
        dio._block_templates.cache_clear()
        dio.write_trace_csv(str(tmp_path / "lone.csv"), trace)
        assert pathlib.Path(path).read_bytes() == (tmp_path / "lone.csv").read_bytes(), path

    def _assert_shared_writes_match_lone_ones(self, tmp_path, traces):
        paths = [str(tmp_path / f"shared{i}.csv") for i in range(len(traces))]

        def write():
            for path, trace in zip(paths, traces):
                dio.write_trace_csv(path, trace)

        renders = self._renders(write)
        for path, trace in zip(paths, traces):
            self._assert_lone_write(tmp_path, path, trace)
        return renders

    @staticmethod
    def _run(field, x0, steps, seed=1):
        schedule = dl.StepsizeSchedule(kind="custom", sequence=steps)
        noise = dl.NoiseModel(kind="gaussian", scale=0.1)
        return dl.run_sa(dl.builtin_field(field), x0, schedule, noise, len(steps), seed)

    def test_steps_differing_only_in_the_sign_of_zero(self, tmp_path):
        # "%.17g" writes -0.0 as "-0": array_equal would take one for the other
        plus, minus = np.full(50, 0.1), np.full(50, 0.1)
        plus[[0, 7]], minus[[0, 7]] = 0.0, -0.0
        runs = [self._run("relay", [0.5], s) for s in (plus, plus, minus)]
        # the same times, so only the steps tell these two apart
        by_hand = [replace(runs[0], steps=runs[0].steps.copy()) for _ in range(2)]
        by_hand[1].steps[[0, 7]] = -0.0
        # keys: plus, plus, minus, plus, plus with minus's steps
        traces = runs + by_hand
        assert self._assert_shared_writes_match_lone_ones(tmp_path, traces) == 4

    def test_equal_steps_with_other_times(self, tmp_path):
        trace = self._run("relay", [0.5], np.full(30, 0.25))
        shifted = replace(trace, times=trace.times + 1.0)
        read_back_path = tmp_path / "source.csv"
        dio.write_trace_csv(str(read_back_path), shifted)
        read_back = dio.read_trace_csv(str(read_back_path))
        traces = [trace, shifted, read_back, trace]
        assert self._assert_shared_writes_match_lone_ones(tmp_path, traces) == 3

    def test_one_schedule_in_two_dimensions(self, tmp_path):
        steps = 1.0 / np.arange(1.0, 41.0) ** 0.75
        traces = [
            self._run("relay", [0.5], steps),
            self._run("relay", [0.5], steps, seed=2),
            self._run("example1", [0.0, 1.0], steps),
            self._run("example1", [0.0, 1.0], steps, seed=2),
        ]
        assert self._assert_shared_writes_match_lone_ones(tmp_path, traces) == 2

    def test_block_boundaries(self, tmp_path):
        steps = 1.0 / np.arange(1.0, _B + 3.0) ** 0.75
        traces = [self._run("relay", [0.5], steps[:n], seed) for n in (_B - 1, _B, _B + 1)
                  for seed in (1, 2)]
        assert self._assert_shared_writes_match_lone_ones(tmp_path, traces) == 3
        dio.write_trace_csv(str(tmp_path / "trace.csv"), traces[-1])
        assert (tmp_path / "trace.csv").read_text() == _oracle_trace_text(traces[-1])

    def test_a_run_and_a_study_share_one_rendering(self, tmp_path, monkeypatch):
        """All traces of a run, and of both arms of a study, share d,
        schedule and n_steps: one rendering each."""
        write = dio.write_trace_csv

        def recording(path, trace):
            write(path, trace)
            written.append((path, trace))

        cfg = dl.config_from_dict({
            "field": "spurious_equilibrium", "x0": [0.0],
            "schedule": {"kind": "power", "a0": 1.0, "gamma": 0.75},
            "noise": {"kind": "gaussian", "scale": 0.1}, "n_steps": 300, "seeds": [1, 2],
            "tracking": {"T": 0.5, "n_windows": 1, "dt": 1e-2},
            "measures": {"checkpoints": [300], "eps": [0.05]},
            "output_dir": str(tmp_path / "out"),
        })
        # the study's zero-noise arm renders its first seed's trace only
        for run, n_traces in ((dl.run_experiment, 2), (dl.compare_noise_study, 3)):
            written = []
            monkeypatch.setattr(dio, "write_trace_csv", recording)
            assert self._renders(lambda: run(cfg, str(tmp_path / run.__name__))) == 1
            monkeypatch.setattr(dio, "write_trace_csv", write)
            assert len(written) == n_traces
            for path, trace in written:
                self._assert_lone_write(tmp_path, path, trace)
