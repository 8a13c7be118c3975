import math
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from alleewaves import cli, output
from alleewaves.output import FLOAT_FMT, _fmt, read_csv, write_csv, write_svg


def reference_write_csv(path, header: dict, columns: dict, mask=None):
    """The cell-by-cell writer the bulk write_csv must match byte for byte."""
    names = list(columns)
    arrays = [np.asarray(columns[n]) for n in names]
    n = len(arrays[0])
    if any(len(a) != n for a in arrays):
        raise ValueError("all columns must have the same length")
    if mask is not None and len(mask) != n:
        raise ValueError("mask length must match the columns")
    with open(path, "w") as fh:
        for key, val in header.items():
            fh.write(f"# {key}={_fmt(val)}\n")
        cols = names + (["pole_flag"] if mask is not None else [])
        fh.write(",".join(cols) + "\n")
        for i in range(n):
            if mask is not None and not mask[i]:
                # keep the x coordinate, blank the field values
                row = [FLOAT_FMT % arrays[0][i]] + [""] * (len(names) - 1) + ["1"]
            else:
                row = [FLOAT_FMT % a[i] for a in arrays]
                if mask is not None:
                    row.append("0")
            fh.write(",".join(row) + "\n")


def reference_svg_path(xs, ys, x_to_px, y_to_px):
    """The point-by-point polyline builder the bulk _svg_path must match."""
    parts = []
    pen_up = True
    for x, y in zip(xs, ys):
        if not (math.isfinite(x) and math.isfinite(y)):
            pen_up = True
            continue
        cmd = "M" if pen_up else "L"
        parts.append(f"{cmd}{x_to_px(x):.2f},{y_to_px(y):.2f}")
        pen_up = False
    return " ".join(parts)


def reference_write_svg(*args, **kwargs):
    """write_svg with its polylines drawn by reference_svg_path."""
    with mock.patch.object(output, "_svg_path", reference_svg_path):
        write_svg(*args, **kwargs)


SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e-310,
           math.nan, math.inf, -math.inf, 1.7976931348623157e308, 0.1, -1.5]
cell = st.one_of(st.floats(), st.sampled_from(SPECIAL))
finite_cell = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                        st.sampled_from([v for v in SPECIAL if math.isfinite(v)]))


@st.composite
def tables(draw, ints=True):
    """(columns, mask) with 0, 1 or many rows, 1-5 float or int columns."""
    n = draw(st.one_of(st.sampled_from([0, 1]), st.integers(2, 60)))
    ncols = draw(st.integers(1, 5))
    columns = {}
    for j in range(ncols):
        if ints and draw(st.booleans()):
            col = draw(arrays(np.int64, n, elements=st.integers(-2**63, 2**63 - 1)))
        else:
            col = draw(arrays(np.float64, n, elements=cell))
        columns[f"c{j}"] = col
    mask = None
    if draw(st.booleans()):
        # runs at either end as well as inside
        mask = np.ones(n, dtype=bool)
        for _ in range(draw(st.integers(0, 3))):
            lo = draw(st.integers(0, n))
            hi = draw(st.integers(lo, n))
            mask[lo:hi] = False
    return columns, mask


def _bytes(writer, *args, **kwargs):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out"
        writer(path, *args, **kwargs)
        return path.read_bytes()


class TestCsvRoundTrip:
    def test_exact_round_trip(self, tmp_path):
        path = tmp_path / "t.csv"
        rng = np.random.RandomState(5)
        cols = {"x": np.linspace(0, 1, 50), "u": rng.randn(50),
                "v": 1e-17 * rng.randn(50)}
        hdr = {"alpha": 1.2, "note": "free text"}
        write_csv(path, hdr, cols)
        hdr2, cols2 = read_csv(path)
        assert hdr2["alpha"] == "1.2"
        assert hdr2["note"] == "free text"
        for name in cols:
            assert np.array_equal(cols[name], cols2[name])

    def test_masked_rows_blank_and_flagged(self, tmp_path):
        path = tmp_path / "t.csv"
        x = np.linspace(0, 1, 10)
        ok = np.ones(10, dtype=bool)
        ok[3] = False
        write_csv(path, {}, {"x": x, "u": x * 2}, mask=ok)
        _, cols = read_csv(path)
        assert np.isnan(cols["u"][3])
        assert cols["x"][3] == x[3]
        assert cols["pole_flag"][3] == 1.0
        assert np.all(cols["pole_flag"][ok] == 0.0)

    def test_mismatched_lengths(self, tmp_path):
        with pytest.raises(ValueError):
            write_csv(tmp_path / "t.csv", {},
                      {"x": np.zeros(4), "u": np.zeros(5)})


class TestSvg:
    def test_writes_polylines(self, tmp_path):
        path = tmp_path / "t.svg"
        x = np.linspace(0, 10, 200)
        y1 = np.sin(x)
        y2 = np.cos(x)
        y2[50:60] = np.nan  # gap must split the polyline, not corrupt it
        write_svg(path, x, [y1, y2], ["a", "b"], [False, True], title="demo")
        text = path.read_text()
        assert text.startswith("<svg")
        assert text.count("<path d=") == 2
        # the NaN gap splits the second curve into two pen strokes
        second = text.split("<path d=")[2]
        assert second.split('"')[1].count("M") == 2
        assert "demo" in text
        assert "nan" not in text


def _same_bits(a, b):
    """Equal bit for bit, except that any NaN matches any NaN."""
    a, b = np.asarray(a, float), np.asarray(b, float)
    nan = np.isnan(a)
    return (np.array_equal(nan, np.isnan(b))
            and np.array_equal(a[~nan].view(np.int64), b[~nan].view(np.int64)))


class TestBulkMatchesReference:
    """The bulk writers against the cell-by-cell ones they replaced."""

    @settings(max_examples=300, deadline=None)
    @given(table=tables(), block=st.sampled_from([1, 2, 7, 256]))
    def test_csv_bytes(self, table, block):
        columns, mask = table
        header = {"alpha": 1.2, "n": 3, "note": "free text"}
        with mock.patch.object(output, "_ROW_BLOCK", block):
            got = _bytes(write_csv, header, columns, mask=mask)
        assert got == _bytes(reference_write_csv, header, columns, mask=mask)

    @pytest.mark.parametrize("block", [1, 3, 256])
    def test_csv_masked_runs_at_both_ends(self, tmp_path, block):
        ok = np.array([0, 0, 1, 1, 0, 1, 1, 0, 0], dtype=bool)
        x = np.linspace(-1.0, 1.0, len(ok))
        columns = {"x": x, "u": np.sin(x), "v": np.arange(len(ok))}
        with mock.patch.object(output, "_ROW_BLOCK", block):
            got = _bytes(write_csv, {}, columns, mask=ok)
        assert got == _bytes(reference_write_csv, {}, columns, mask=ok)
        assert got.decode().splitlines()[1] == "%.17g,,,1" % x[0]

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n=st.integers(0, 60),
           lims=st.tuples(finite_cell, finite_cell, finite_cell, finite_cell))
    def test_svg_path_bytes(self, data, n, lims):
        xs = data.draw(arrays(np.float64, n, elements=cell))
        ys = data.draw(arrays(np.float64, n, elements=cell))
        x_lo, x_hi, y_lo, y_hi = lims

        def x_px(v):
            return 60 + (v - x_lo) / (x_hi - x_lo) * 720

        def y_px(v):
            return 455 - (v - y_lo) / (y_hi - y_lo) * 415

        with np.errstate(all="ignore"):
            got = output._svg_path(xs, ys, x_px, y_px)
            want = reference_svg_path(xs, ys, x_px, y_px)
        assert got == want

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), n=st.integers(2, 60), nseries=st.integers(1, 3))
    def test_svg_bytes(self, data, n, nseries):
        x = data.draw(arrays(np.float64, n, elements=finite_cell))
        with np.errstate(over="ignore"):
            width = x.max() - x.min()
        if not 0.0 < width < math.inf:
            x = np.linspace(-3.0, 5.0, n)
        series = [data.draw(arrays(np.float64, n, elements=cell))
                  for _ in range(nseries)]
        series[0][0] = 0.5  # something to plot
        args = (x, series, [f"s{i}" for i in range(nseries)],
                [i % 2 == 1 for i in range(nseries)])
        with np.errstate(all="ignore"):
            got = _bytes(write_svg, *args, title="t")
            want = _bytes(reference_write_svg, *args, title="t")
        assert got == want

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_figure_bytes(self, n, tmp_path, monkeypatch):
        assert cli.main(["figure", str(n), "--out", str(tmp_path / "bulk")]) == 0
        monkeypatch.setattr(cli, "write_csv", reference_write_csv)
        monkeypatch.setattr(cli, "write_svg", reference_write_svg)
        assert cli.main(["figure", str(n), "--out", str(tmp_path / "ref")]) == 0
        for name in (f"figure{n}.csv", f"figure{n}.svg"):
            assert ((tmp_path / "bulk" / name).read_bytes()
                    == (tmp_path / "ref" / name).read_bytes())


# finite arrays of any spread, or drawn from a few values so that ties and
# signed zeros are common
spread_values = arrays(np.float64, st.integers(1, 60), elements=finite_cell)
tied_values = arrays(np.float64, st.integers(1, 60),
                     elements=st.sampled_from([-0.0, 0.0, 1.0, -2.5, 1e300]))


class TestPercentiles:
    @settings(max_examples=300, deadline=None)
    @given(a=st.one_of(spread_values, tied_values),
           q=st.floats(0.0, 100.0, allow_nan=False))
    def test_bit_identical_to_np_percentile(self, a, q):
        qs = [1.0, 99.0, q]
        with np.errstate(over="ignore", invalid="ignore"):  # b - a may overflow
            got, want = output._percentiles(a, qs), np.percentile(a, qs)
        assert got.tobytes() == want.tobytes()


class TestRoundTripProperty:
    @settings(max_examples=200, deadline=None)
    @given(table=tables(ints=False), h=st.floats(allow_nan=False))
    def test_values_come_back_bit_exact(self, table, h):
        columns, mask = table
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.csv"
            write_csv(path, {"h": h, "note": "x=1"}, columns, mask=mask)
            hdr, back = read_csv(path)
        assert _same_bits(float(hdr["h"]), h)
        assert hdr["note"] == "x=1"
        names = list(columns)
        assert list(back) == names + (["pole_flag"] if mask is not None else [])
        ok = np.ones(len(columns[names[0]]), bool) if mask is None else mask
        assert _same_bits(back[names[0]], columns[names[0]])  # x is always kept
        for name in names[1:]:
            assert _same_bits(back[name][ok], columns[name][ok])
            assert np.isnan(back[name][~ok]).all()
        if mask is not None:
            assert np.array_equal(back["pole_flag"], np.where(ok, 0.0, 1.0))


class TestWriterErrors:
    def test_csv_needs_a_column(self, tmp_path):
        with pytest.raises(ValueError, match="at least one column"):
            write_csv(tmp_path / "t.csv", {}, {})

    def test_svg_zero_width_x_range(self, tmp_path):
        with pytest.raises(ValueError, match=r"x range \[2, 2\]"):
            write_svg(tmp_path / "t.svg", np.full(5, 2.0), [np.arange(5.0)],
                      ["a"], [False])

    def test_svg_series_must_match_x(self, tmp_path):
        with pytest.raises(ValueError, match="one value per x"):
            write_svg(tmp_path / "t.svg", np.arange(5.0), [np.arange(4.0)],
                      ["a"], [False])
