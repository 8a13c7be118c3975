"""CSV and SVG emitters used by the command-line front end.

CSV layout: '# key=value' provenance lines, a column-name row, then data
rows with floats printed at 17 significant digits so re-parsing is lossless.
Masked samples become empty cells plus a nonzero pole_flag.

Both writers format in bulk rather than cell by cell.  ``write_csv`` works
in blocks of ``_ROW_BLOCK`` rows, so its peak memory does not grow with the
row count: each column's block becomes a list in one call, and one ``%``
over the joined row templates and the flat cell values formats the block.
A masked row's template prints x and swallows its other cells with
``%.0s``.
``_svg_path`` maps the finite samples to pixels as arrays, with the same
IEEE operations in the same order as the scalar form, and formats them with
one ``%``: the template joins one ``M%.2f,%.2f`` or ``L%.2f,%.2f`` per point
(``_PENS``, picked by whether the pen lifts there), over the flat (x, y)
pixel pairs.  The bytes written are the same as those of the cell-by-cell
form.  ``write_svg`` clips its y-range with ``_percentiles``, NumPy's
linear-method percentile bit for bit (one partition, then NumPy's lerp),
because ``np.percentile`` imports ``numpy.ma`` on its first call.
"""

from __future__ import annotations

import math
from itertools import chain

import numpy as np

FLOAT_FMT = "%.17g"
_ROW_BLOCK = 256  # rows formatted per write: keeps peak memory flat
_PENS = ("L%.2f,%.2f", "M%.2f,%.2f")  # one SVG point, indexed by pen-up


def _fmt(val) -> str:
    if isinstance(val, float):
        return FLOAT_FMT % val
    return str(val)


def write_csv(path, header: dict, columns: dict, mask=None):
    """Write columns (name -> 1d array) with provenance header.

    mask, if given, marks valid rows; invalid rows get empty numeric cells
    and pole_flag=1.
    """
    names = list(columns)
    if not names:
        raise ValueError("need at least one column")
    arrays = [np.asarray(columns[n]) for n in names]
    n = len(arrays[0])
    if any(len(a) != n for a in arrays):
        raise ValueError("all columns must have the same length")
    if mask is not None and len(mask) != n:
        raise ValueError("mask length must match the columns")
    row = ",".join([FLOAT_FMT] * len(names))
    if mask is not None:
        # a masked row keeps x; %.0s consumes each other cell and prints nothing
        templates = (FLOAT_FMT + ",%.0s" * (len(names) - 1) + ",1\n", row + ",0\n")
        valid = np.asarray(mask, dtype=bool)
    with open(path, "w") as fh:
        for key, val in header.items():
            fh.write(f"# {key}={_fmt(val)}\n")
        cols = names + (["pole_flag"] if mask is not None else [])
        fh.write(",".join(cols) + "\n")
        for lo in range(0, n, _ROW_BLOCK):
            hi = min(lo + _ROW_BLOCK, n)
            if mask is None:
                fmt = (row + "\n") * (hi - lo)
            else:
                fmt = "".join([templates[ok] for ok in valid[lo:hi].tolist()])
            cells = zip(*[a[lo:hi].tolist() for a in arrays])
            fh.write(fmt % tuple(chain.from_iterable(cells)))


def read_csv(path):
    """Parse a file written by write_csv: (header dict, column dict).

    Empty cells come back as NaN.
    """
    header = {}
    names = None
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("# "):
                key, _, val = line[2:].partition("=")
                header[key] = val
            elif names is None:
                names = line.split(",")
            elif line:
                rows.append([float(c) if c else math.nan for c in line.split(",")])
    data = np.array(rows, dtype=float) if rows else np.empty((0, len(names or [])))
    return header, {name: data[:, i] for i, name in enumerate(names or [])}


def _svg_path(xs, ys, x_to_px, y_to_px):
    """Polyline segments, broken at NaNs; the pixel maps act on arrays."""
    finite = np.isfinite(xs) & np.isfinite(ys)
    # the pen lifts at the first sample and after every non-finite one
    pen_up = np.concatenate(([True], ~finite))[:-1][finite]
    fmt = " ".join([_PENS[up] for up in pen_up.tolist()])
    xy = np.column_stack((x_to_px(xs[finite]), y_to_px(ys[finite])))
    return fmt % tuple(xy.ravel().tolist())


def _percentiles(a, qs):
    """np.percentile(a, qs) of a finite 1-D array, bit for bit, by NumPy's own
    steps (the linear method): one partition at the bracketing ranks, then its
    lerp.  np.percentile itself imports numpy.ma, through np.unique."""
    v = (len(a) - 1) * (np.asarray(qs, dtype=float) / 100)
    lo = np.where(v >= len(a) - 1, -1, np.floor(v)).astype(np.intp)
    hi = np.where(lo < 0, -1, lo + 1)
    s = np.partition(a, sorted({0, -1, *lo.tolist(), *hi.tolist()}))  # NumPy's kth
    a, b, t = s[lo], s[hi], v - lo
    return np.where(t >= 0.5, b - (b - a) * (1 - t), a + (b - a) * t)


def write_svg(path, x, series, labels, dashed, title=""):
    """Minimal static line chart: one polyline per series, optional dashing.

    The y-range is clipped to the 1-99 percentile of the finite samples so
    pole blow-ups do not flatten the rest of the profile.
    """
    width, height = 800, 500
    ml, mr, mt, mb = 60, 20, 40, 45
    x = np.asarray(x, dtype=float)
    series = [np.asarray(s, float) for s in series]
    if any(len(s) != len(x) for s in series):
        raise ValueError("every series must have one value per x")
    finite = np.concatenate([s[np.isfinite(s)] for s in series])
    if finite.size == 0:
        raise ValueError("nothing to plot")
    y_lo, y_hi = _percentiles(finite, [1.0, 99.0])
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 1.0, y_hi + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad
    x_lo, x_hi = float(np.min(x)), float(np.max(x))
    if not 0.0 < x_hi - x_lo < math.inf:
        raise ValueError(f"x range [{x_lo:.6g}, {x_hi:.6g}] must be finite"
                         " with positive width")

    def x_px(v):
        return ml + (v - x_lo) / (x_hi - x_lo) * (width - ml - mr)

    def y_px(v):
        return height - mb - (v - y_lo) / (y_hi - y_lo) * (height - mt - mb)

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width/2:.0f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{title}</text>',
        # axes
        f'<line x1="{ml}" y1="{height-mb}" x2="{width-mr}" y2="{height-mb}" '
        'stroke="black"/>',
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{height-mb}" stroke="black"/>',
    ]
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        xv = x_lo + frac * (x_hi - x_lo)
        yv = y_lo + frac * (y_hi - y_lo)
        lines.append(
            f'<text x="{x_px(xv):.1f}" y="{height-mb+18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{xv:.3g}</text>')
        lines.append(
            f'<text x="{ml-8}" y="{y_px(yv)+4:.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{yv:.3g}</text>')

    colors = ("#1f3d7a", "#a03030", "#2a7a2a", "#806020")
    clip_id = "plotclip"
    lines.append(f'<clipPath id="{clip_id}"><rect x="{ml}" y="{mt}" '
                 f'width="{width-ml-mr}" height="{height-mt-mb}"/></clipPath>')
    for i, (s, lbl, dsh) in enumerate(zip(series, labels, dashed)):
        d = _svg_path(x, s, x_px, y_px)
        dash = ' stroke-dasharray="8,5"' if dsh else ""
        lines.append(f'<path d="{d}" fill="none" stroke="{colors[i % 4]}" '
                     f'stroke-width="1.6" clip-path="url(#{clip_id})"{dash}/>')
        lines.append(
            f'<text x="{width-mr-8}" y="{mt+18+16*i}" text-anchor="end" '
            f'font-family="sans-serif" font-size="12" fill="{colors[i % 4]}">'
            f'{lbl}{" (dashed)" if dsh else " (solid)"}</text>')
    lines.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
