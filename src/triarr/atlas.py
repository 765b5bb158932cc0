"""Multiplicity-lattice atlases: 2-D grids of exponent data, four renderers.

A grid ranges over (m1, m2) with the third coordinate either fixed
(SliceM3) or determined by a fixed total |mu| (SliceSum, blank below the
plane).  Cells carry the exponent gap, the lower exponent, or a 0/1 flag
for gap == 0; component centers can be marked.  Renderers: aligned ascii,
csv (stable header "mu1\\mu2,..."), json, and a self-contained svg with one
unit square per cell, grayscale by value and outlined centers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .derivmod import Multiplicity
from .fastexp import fast_exponents
from .fpcore import GuardError

GRID_GUARD = 10**6

MODES = ("m3", "sum")
CELLS = ("delta", "lowdegree", "zero")


@dataclass(frozen=True)
class AtlasSpec:
    """What to tabulate: prime, slice mode and value, ranges, cell statistic."""

    p: int
    mode: str  # "m3": third coordinate fixed; "sum": |mu| fixed
    value: int
    max_mu1: int
    max_mu2: int
    cell: str = "delta"
    mark_centers: bool = False

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if self.cell not in CELLS:
            raise ValueError(f"cell must be one of {CELLS}")
        if self.max_mu1 < 0 or self.max_mu2 < 0 or self.value < 0:
            raise ValueError("ranges and slice value must be nonnegative")
        cells = (self.max_mu1 + 1) * (self.max_mu2 + 1)
        if cells > GRID_GUARD:
            raise GuardError(f"{cells} cells exceed the grid guard {GRID_GUARD}")


@dataclass
class AtlasGrid:
    """Computed atlas: values[m1][m2] (None = out of domain) plus center cells."""

    spec: AtlasSpec
    values: list[list[int | None]] = field(default_factory=list)
    centers: set[tuple[int, int]] = field(default_factory=set)

    @property
    def vmax(self) -> int:
        flat = [v for row in self.values for v in row if v is not None]
        return max(flat) if flat else 0


def _mu_at(spec: AtlasSpec, m1: int, m2: int) -> Multiplicity | None:
    if spec.mode == "m3":
        return Multiplicity(m1, m2, spec.value)
    m3 = spec.value - m1 - m2
    return Multiplicity(m1, m2, m3) if m3 >= 0 else None


def build_atlas(spec: AtlasSpec) -> AtlasGrid:
    """Compute the grid in this process, one fast_exponents call per cell."""
    grid = AtlasGrid(spec)
    for m1 in range(spec.max_mu1 + 1):
        row: list[int | None] = []
        for m2 in range(spec.max_mu2 + 1):
            mu = _mu_at(spec, m1, m2)
            if mu is None:
                row.append(None)
                continue
            report = fast_exponents(mu, spec.p)
            if spec.cell == "delta":
                row.append(report.delta)
            elif spec.cell == "lowdegree":
                row.append(report.exponents[0])
            else:
                row.append(1 if report.delta == 0 else 0)
            if spec.mark_centers and report.center == mu:
                grid.centers.add((m1, m2))
        grid.values.append(row)
    return grid


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


def render_svg(grid: AtlasGrid, cell_px: int = 10) -> str:
    """Self-contained SVG: unit squares, grayscale by value, legend strip.

    Low values print dark so that the zero-gap set reads as the filled
    region; centers are outlined.  No external renderer is involved.
    """
    spec = grid.spec
    n1, n2 = spec.max_mu1 + 1, spec.max_mu2 + 1
    vmax = grid.vmax
    legend_h = 3 * cell_px
    w, h = n2 * cell_px, n1 * cell_px + legend_h
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
            x, y = m2 * cell_px, m1 * cell_px
            outline = ' stroke="red" stroke-width="1"' if (m1, m2) in grid.centers else ""
            parts.append(
                f'<rect x="{x}" y="{y}" width="{cell_px}" height="{cell_px}" '
                f'fill="rgb({shade},{shade},{shade})"{outline}/>'
            )
    ly = n1 * cell_px + cell_px
    for t in range(11):
        shade = 255 - round(255 * t / 10)
        parts.append(
            f'<rect x="{t * 2 * cell_px}" y="{ly}" width="{2 * cell_px}" '
            f'height="{cell_px}" fill="rgb({shade},{shade},{shade})"/>'
        )
    lo, hi = ("filled: gap 0", "") if spec.cell == "zero" else ("0", str(vmax))
    parts.append(
        f'<text x="0" y="{ly + 2 * cell_px}" font-size="{cell_px}">{lo}</text>'
    )
    if hi:
        parts.append(
            f'<text x="{20 * cell_px}" y="{ly + 2 * cell_px}" '
            f'font-size="{cell_px}" text-anchor="end">{hi}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
