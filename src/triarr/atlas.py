"""Multiplicity-lattice atlases: 2-D grids of exponent data, four renderers.

A grid ranges over (m1, m2) with the third coordinate either fixed
(SliceM3) or determined by a fixed total |mu| (SliceSum, blank below the
plane).  Cells carry the exponent gap, the lower exponent, or a 0/1 flag
for gap == 0; component centers can be marked.  Renderers: aligned ascii,
csv (stable header "mu1\\mu2,..."), json, and a self-contained svg with one
unit square per cell, grayscale by value and outlined centers.

Grids are painted, not walked point by point.  Every cell first gets the
base rule: 2 max(mu) - |mu| when unbalanced, |mu| mod 2 when balanced.
Then, for the scales q = p, p^2, ... in ascending order, every ball of
radius q around a center zeta in q * (balanced, odd-sum lattice) that meets
the slice is painted with q - |mu - zeta|_1 on the cells strictly inside
it (the center geometry of ``fastexp``).  Same-scale balls are disjoint and
a larger scale paints over a smaller one, so each cell ends with the gap of
the largest scale whose ball holds it, as ``fast_exponents`` reports.  Such
a ball holds only balanced points with |mu| > 2q, so the scales stop at the
first q with 2q >= max |mu|.  A marked center is a ball center that no larger
ball paints over, or a balanced cell of odd |mu| that no ball paints.  The
cost is one base-rule pass over the cells plus one list comprehension per
ball row, about one repaint of the slice per scale: a 401 x 401 plane at
p = 2 takes about 0.1 s.
"""

from __future__ import annotations

from typing import NamedTuple

from .derivmod import as_multiplicity
from .fpcore import GuardError, Prime

GRID_GUARD = 10**6

MODES = ("m3", "sum")
CELLS = ("delta", "lowdegree", "zero")


class _SpecFields(NamedTuple):
    p: int
    mode: str  # "m3": third coordinate fixed; "sum": |mu| fixed
    value: int
    max_mu1: int
    max_mu2: int
    cell: str = "delta"
    mark_centers: bool = False


class AtlasSpec(_SpecFields):
    """What to tabulate: prime, slice mode and value, ranges, cell statistic."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        Prime(self.p)
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if self.cell not in CELLS:
            raise ValueError(f"cell must be one of {CELLS}")
        if self.max_mu1 < 0 or self.max_mu2 < 0 or self.value < 0:
            raise ValueError("ranges and slice value must be nonnegative")
        cells = (self.max_mu1 + 1) * (self.max_mu2 + 1)
        if cells > GRID_GUARD:
            raise GuardError(f"{cells} cells exceed the grid guard {GRID_GUARD}")
        return self


class AtlasGrid(NamedTuple):
    """Computed atlas: values[m1][m2] (None = out of domain) plus center cells."""

    spec: AtlasSpec
    values: list[list[int | None]]
    centers: set[tuple[int, int]]

    @property
    def vmax(self) -> int:
        flat = [v for row in self.values for v in row if v is not None]
        return max(flat) if flat else 0


def _ball_centers(q: int, c0: int, s: int, n1: int, n2: int):
    """The centers q * nu (nu balanced, odd sum) whose radius-q ball can meet
    the slice mu3 + s (mu1 + mu2) = c0 within the ranges of mu1 and mu2."""
    # |L(mu) - L(zeta)| <= |mu - zeta|_1 for L = mu3 + s (mu1 + mu2), so
    # t = L(nu) has |q t - c0| < q; nu_i >= 1 since nu is balanced and odd
    for t in range(c0 // q, -(-c0 // q) + 1):
        for v1 in range(1, (n1 + q - 2) // q + 1):
            for v2 in range(1, (n2 + q - 2) // q + 1):
                v3 = t - s * (v1 + v2)
                tot = v1 + v2 + v3
                if tot & 1 and 2 * max(v1, v2, v3) < tot:
                    yield q * v1, q * v2, q * v3


def _within(a: int, b: int, r: int, n: int) -> tuple[int, int]:
    """(lo, hi): lo <= m < hi exactly for the m in range(n) with |a m - b| < r."""
    if a == 0:
        return (0, n) if abs(b) < r else (0, 0)
    return max(0, (b - r) // a + 1), min(n, -((-b - r) // a))


def build_atlas(spec: AtlasSpec) -> AtlasGrid:
    """Compute the grid: the base rule, then the balls scale by scale."""
    p, c0 = spec.p, spec.value
    n1, n2 = spec.max_mu1 + 1, spec.max_mu2 + 1
    s = 1 if spec.mode == "sum" else 0  # the slice is mu3 = c0 - s (m1 + m2)
    # the largest |mu| on the slice; as_multiplicity refuses it past DEGREE_GUARD
    top = as_multiplicity((0, 0, c0) if s else (n1 - 1, n2 - 1, c0)).total
    marks: set[tuple[int, int]] = set()  # filled only when centers are marked
    gaps = []
    for m1 in range(n1):
        c = c0 - s * m1  # along the row mu3 = c - s m2 and |mu| = m1 + c + (1 - s) m2
        end = max(0, min(n2, c + 1)) if s else n2
        # e = 2 max(mu) - |mu| has the parity of |mu|
        row = [
            e if (e := 2 * max(m1, m2, c - s * m2) - m1 - c - (1 - s) * m2) > 0 else e & 1
            for m2 in range(end)
        ]
        if spec.mark_centers:  # balanced with odd |mu|: its own center until painted
            marks.update(
                (m1, m2) for m2, g in enumerate(row)
                if g == 1 and 2 * max(m1, m2, c - s * m2) < m1 + c + (1 - s) * m2
            )
        gaps.append(row + [None] * (n2 - end))
    q = p
    while 2 * q < top:
        for z1, z2, z3 in _ball_centers(q, c0, s, n1, n2):
            for m1 in range(max(0, z1 - q + 1), min(n1, z1 + q)):
                r = q - abs(m1 - z1)
                c3 = c0 - s * m1 - z3  # mu3 - z3 = c3 - s m2
                # |x| + |y| < r iff |x + y| < r and |x - y| < r, where
                # x = m2 - z2 and y = c3 - s m2
                lo1, hi1 = _within(1 - s, z2 - c3, r, n2)
                lo2, hi2 = _within(1 + s, z2 + c3, r, n2)
                lo, hi = max(lo1, lo2), min(hi1, hi2)
                if lo >= hi:
                    continue
                gaps[m1][lo:hi] = [r - abs(m2 - z2) - abs(c3 - s * m2) for m2 in range(lo, hi)]
                if spec.mark_centers:
                    marks.difference_update([(m1, m2) for m2 in range(lo, hi)])
            if spec.mark_centers and z3 == c0 - s * (z1 + z2) and z1 < n1 and z2 < n2:
                marks.add((z1, z2))
        q *= p
    if spec.cell == "lowdegree":  # (|mu| - gap) / 2 with |mu| = c0 + (1 - s)(m1 + m2)
        gaps = [
            [None if g is None else (c0 + (1 - s) * (m1 + m2) - g) // 2 for m2, g in enumerate(row)]
            for m1, row in enumerate(gaps)
        ]
    elif spec.cell == "zero":
        gaps = [[None if g is None else int(g == 0) for g in row] for row in gaps]
    return AtlasGrid(spec, gaps, marks)


def render_ascii(grid: AtlasGrid) -> str:
    spec = grid.spec
    width = max(len(str(grid.vmax)), len(str(spec.max_mu2))) + 1
    head = "mu1\\mu2".ljust(8) + "".join(
        str(m2).rjust(width + 2) for m2 in range(spec.max_mu2 + 1)
    )
    lines = [head]
    for m1, row in enumerate(grid.values):
        cells = []
        for m2, v in enumerate(row):
            if v is None:
                cells.append("." .rjust(width + 2))
            elif (m1, m2) in grid.centers:
                cells.append(("[" + str(v) + "]").rjust(width + 2))
            else:
                cells.append(str(v).rjust(width + 1) + " ")
        lines.append(str(m1).ljust(8) + "".join(cells))
    return "\n".join(lines) + "\n"


def render_csv(grid: AtlasGrid) -> str:
    spec = grid.spec
    lines = ["mu1\\mu2," + ",".join(str(m2) for m2 in range(spec.max_mu2 + 1))]
    for m1, row in enumerate(grid.values):
        lines.append(
            str(m1) + "," + ",".join("" if v is None else str(v) for v in row)
        )
    return "\n".join(lines) + "\n"


def render_json_obj(grid: AtlasGrid) -> dict:
    spec = grid.spec
    return {
        "p": spec.p,
        "mode": spec.mode,
        "value": spec.value,
        "cell": spec.cell,
        "range": [spec.max_mu1, spec.max_mu2],
        "values": grid.values,
        "centers": sorted(list(c) for c in grid.centers),
    }


CELL_PX = 10  # svg pixels per cell side


def render_svg(grid: AtlasGrid) -> str:
    """Self-contained SVG: unit squares, grayscale by value, legend strip.

    Low values print dark so that the zero-gap set reads as the filled
    region; centers are outlined.  No external renderer is involved.
    """
    spec = grid.spec
    n1, n2 = spec.max_mu1 + 1, spec.max_mu2 + 1
    vmax = grid.vmax
    legend_h = 3 * CELL_PX
    w, h = max(n2, 22) * CELL_PX, n1 * CELL_PX + legend_h  # legend: 11 swatches of 2 cells
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}">',
        f'<rect width="{w}" height="{h}" fill="white"/>',
    ]
    for m1, row in enumerate(grid.values):
        for m2, v in enumerate(row):
            if v is None:
                continue
            if spec.cell == "zero":
                shade = 0 if v else 255
            else:
                shade = 255 if vmax == 0 else 255 - round(255 * v / vmax)
            x, y = m2 * CELL_PX, m1 * CELL_PX
            outline = ' stroke="red" stroke-width="1"' if (m1, m2) in grid.centers else ""
            parts.append(
                f'<rect x="{x}" y="{y}" width="{CELL_PX}" height="{CELL_PX}" '
                f'fill="rgb({shade},{shade},{shade})"{outline}/>'
            )
    ly = n1 * CELL_PX + CELL_PX
    for t in range(11):
        shade = 255 - round(255 * t / 10)
        parts.append(
            f'<rect x="{t * 2 * CELL_PX}" y="{ly}" width="{2 * CELL_PX}" '
            f'height="{CELL_PX}" fill="rgb({shade},{shade},{shade})"/>'
        )
    lo, hi = ("filled: gap 0", "") if spec.cell == "zero" else ("0", str(vmax))
    parts.append(
        f'<text x="0" y="{ly + 2 * CELL_PX}" font-size="{CELL_PX}">{lo}</text>'
    )
    if hi:
        parts.append(
            f'<text x="{20 * CELL_PX}" y="{ly + 2 * CELL_PX}" '
            f'font-size="{CELL_PX}" text-anchor="end">{hi}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
