import csv
import io

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


def _assert_round_trip(path, trace):
    dio.write_trace_csv(str(path), trace)
    assert path.read_text() == _oracle_trace_text(trace)
    back = dio.read_trace_csv(str(path))
    for name in ("states", "drifts", "noises", "steps", "times"):
        mine, theirs = getattr(back, name), getattr(trace, name)
        assert mine.shape == theirs.shape, name
        assert mine.tobytes() == theirs.tobytes(), name


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

    def test_missing_file(self, tmp_path):
        with pytest.raises(dl.IoFailure, match="could not read"):
            dio.read_trace_csv(str(tmp_path / "none.csv"))
