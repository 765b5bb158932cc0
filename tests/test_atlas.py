import random

import pytest

from triarr.atlas import (
    CELLS,
    AtlasSpec,
    build_atlas,
    render_ascii,
    render_csv,
    render_json_obj,
    render_svg,
)
from triarr.derivmod import Multiplicity
from triarr.fastexp import fast_exponents
from triarr.fpcore import GuardError


def spec(**kw):
    base = dict(p=3, mode="m3", value=4, max_mu1=6, max_mu2=6, cell="delta")
    base.update(kw)
    return AtlasSpec(**base)


def reference_atlas(p, mode, value, max_mu1, max_mu2):
    """The per-cell loop that painting replaced, one fast_exponents call per
    cell: the rows for every cell type, and the cells with center == mu."""
    values = {cell: [] for cell in CELLS}
    centers = set()
    for m1 in range(max_mu1 + 1):
        rows = {cell: [] for cell in CELLS}
        for m2 in range(max_mu2 + 1):
            m3 = value if mode == "m3" else value - m1 - m2
            if m3 < 0:
                for row in rows.values():
                    row.append(None)
                continue
            mu = Multiplicity(m1, m2, m3)
            report = fast_exponents(mu, p)
            rows["delta"].append(report.delta)
            rows["lowdegree"].append(report.exponents[0])
            rows["zero"].append(1 if report.delta == 0 else 0)
            if report.center == mu:
                centers.add((m1, m2))
        for cell, row in rows.items():
            values[cell].append(row)
    return values, centers


EVERY_CELL = [(cell, mark) for cell in CELLS for mark in (False, True)]


def assert_painted_as_reference(p, mode, value, r1, r2, cuts=(), kinds=EVERY_CELL):
    """build_atlas equals the per-cell loop for each (cell, mark_centers) in
    kinds, on the full range and on the smaller ranges in cuts."""
    values, centers = reference_atlas(p, mode, value, r1, r2)
    for s1, s2 in [(r1, r2), *cuts]:
        for cell, mark in kinds:
            grid = build_atlas(AtlasSpec(p, mode, value, s1, s2, cell, mark))
            where = (p, mode, value, s1, s2, cell, mark)
            assert grid.values == [row[: s2 + 1] for row in values[cell][: s1 + 1]], where
            expect = {(a, b) for a, b in centers if a <= s1 and b <= s2} if mark else set()
            assert grid.centers == expect, where


class TestSpec:
    def test_guard(self):
        with pytest.raises(GuardError):
            AtlasSpec(p=2, mode="m3", value=1, max_mu1=10**4, max_mu2=10**4)

    def test_validation(self):
        with pytest.raises(ValueError):
            spec(mode="diag")
        with pytest.raises(ValueError):
            spec(cell="rainbow")


class TestGridValues:
    def test_m3_slice_matches_direct_reports(self):
        grid = build_atlas(spec())
        for m1 in range(7):
            for m2 in range(7):
                assert grid.values[m1][m2] == fast_exponents((m1, m2, 4), 3).delta

    def test_sum_slice_blanks_below_plane(self):
        grid = build_atlas(spec(mode="sum", value=3, max_mu1=4, max_mu2=4))
        assert grid.values[4][4] is None  # m3 would be -5
        assert grid.values[0][0] == fast_exponents((0, 0, 3), 3).delta

    def test_lowdegree_cells(self):
        grid = build_atlas(spec(cell="lowdegree", value=16, max_mu1=8, max_mu2=8))
        for m1 in range(9):
            for m2 in range(9):
                assert grid.values[m1][m2] == fast_exponents((m1, m2, 16), 3).exponents[0]

    def test_zero_cells(self):
        grid = build_atlas(spec(cell="zero"))
        for m1 in range(7):
            for m2 in range(7):
                expect = 1 if fast_exponents((m1, m2, 4), 3).delta == 0 else 0
                assert grid.values[m1][m2] == expect

    def test_m16_lowdegree_plateau(self):
        # on the m3=16 slice the cells with lower exponent exactly 16 are
        # precisely the binomial-basis members with m1 + m2 >= 16
        from triarr.basisfactory import gamma_membership

        grid = build_atlas(spec(cell="lowdegree", value=16, max_mu1=20, max_mu2=20))
        for m1 in range(21):
            for m2 in range(21):
                expect = gamma_membership((m1, m2, 16), 3) and m1 + m2 >= 16
                assert (grid.values[m1][m2] == 16) == expect

    def test_centers_marked(self):
        grid = build_atlas(spec(mode="m3", value=1, max_mu1=3, max_mu2=3,
                                mark_centers=True))
        assert (1, 1) in grid.centers  # (1,1,1) is its own component
        # derived oracle check on the first row of this slice
        row = [fast_exponents((0, m2, 1), 2).delta for m2 in range(3)]
        assert row == [1, 0, 1]


class TestPaintedAgainstPerCellLoop:
    # every table cli-mix draws: p in {2, 3, 5, 7}, m3 in [0, 60], totals in
    # [10, 80] and the Pascal planes 2 p^k - 2 <= 100, ranges 8..40 a side
    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_every_cli_mix_table(self, p):
        rng = random.Random(p)
        pascal = [2 * p**k - 2 for k in range(1, 8) if 2 * p**k - 2 <= 100]
        slices = [("m3", v) for v in range(61)]
        slices += [("sum", v) for v in sorted(set(range(10, 81)) | set(pascal))]
        for mode, value in slices:
            cut = (rng.randint(8, 40), rng.randint(8, 40))
            assert_painted_as_reference(p, mode, value, 40, 40, [cut])

    # the ROADMAP planes (401 x 401 and larger) and two m3 slices of half
    # that size, where |mu| reaches 1,000; the cell types are checked
    # exhaustively above
    @pytest.mark.parametrize(
        "p, mode, value, r1, r2",
        [(2, "sum", 400, 400, 400), (3, "sum", 400, 400, 400), (2, "sum", 510, 510, 510),
         (5, "sum", 372, 372, 372), (7, "sum", 300, 300, 300), (2, "m3", 400, 400, 200),
         (3, "m3", 255, 200, 400)],
    )
    def test_large_planes(self, p, mode, value, r1, r2):
        kinds = [("delta", True), ("zero", False)]
        assert_painted_as_reference(p, mode, value, r1, r2, [(r1 // 3, r2)], kinds)


class TestRenderers:
    def test_csv_header_and_blanks(self):
        grid = build_atlas(spec(mode="sum", value=2, max_mu1=3, max_mu2=3))
        text = render_csv(grid)
        lines = text.strip().split("\n")
        assert lines[0] == "mu1\\mu2,0,1,2,3"
        assert lines[3].startswith("2,")
        assert lines[4].split(",")[1:] == ["", "", "", ""]  # mu1=3 row blank beyond plane? m3 = 2-3-m2 < 0

    def test_csv_deterministic(self):
        s = spec(cell="zero", value=8, max_mu1=12, max_mu2=12)
        assert render_csv(build_atlas(s)) == render_csv(build_atlas(s))

    def test_ascii_brackets_centers(self):
        grid = build_atlas(spec(mode="m3", value=1, max_mu1=2, max_mu2=2,
                                p=2, mark_centers=True))
        text = render_ascii(grid)
        assert "[1]" in text and text.startswith("mu1\\mu2")

    def test_json_roundtrip(self):
        import json

        grid = build_atlas(spec(mark_centers=True))
        obj = json.loads(json.dumps(render_json_obj(grid)))
        assert obj["p"] == 3 and obj["values"] == grid.values

    def test_svg_self_contained(self):
        grid = build_atlas(spec(cell="zero", mark_centers=True))
        svg = render_svg(grid)
        assert svg.startswith("<svg") and "</svg>" in svg and "rect" in svg
        # the only external reference is the xml namespace
        assert "http" not in svg.replace("http://www.w3.org/2000/svg", "")
