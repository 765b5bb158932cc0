import pytest

from triarr.atlas import (
    AtlasSpec,
    build_atlas,
    render_ascii,
    render_csv,
    render_json_obj,
    render_svg,
)
from triarr.fastexp import fast_exponents
from triarr.fpcore import GuardError


def spec(**kw):
    base = dict(p=3, mode="m3", value=4, max_mu1=6, max_mu2=6, cell="delta")
    base.update(kw)
    return AtlasSpec(**base)


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
