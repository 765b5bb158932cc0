import json
import subprocess
import sys
import time
from pathlib import Path
from xml.etree import ElementTree

from triarr import atlas, basisfactory, cli, fastexp, fpcore, homopoly, verify

from triarr.cli import main
from triarr.derivmod import VectorField, saito_check
from triarr.homopoly import HomoPoly


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestParser:
    def test_built_once_across_calls(self, capsys, monkeypatch):
        subparsers = []
        real = cli._common_flags

        def counting(sp, *args, **kwargs):
            subparsers.append(sp.prog)
            real(sp, *args, **kwargs)

        monkeypatch.setattr(cli, "_common_flags", counting)
        cli.build_parser.cache_clear()
        assert run(capsys, "exp", "-p", "3", "--mu", "1,1,1")[0] == 0
        assert run(capsys, "exp", "-p", "5", "--mu", "3,3,4")[0] == 0
        assert len(subparsers) == 7


class TestExp:
    def test_paper_eg31_text(self, capsys):
        code, out, _ = run(capsys, "exp", "-p", "3", "--mu", "41,52,31")
        assert code == 0
        assert "delta: 8" in out and "exp: (58, 66)" in out
        assert "center: (54, 54, 27)" in out and "k: 3" in out

    def test_unbalanced(self, capsys):
        code, out, _ = run(capsys, "exp", "-p", "2", "--mu", "0,0,5")
        assert code == 0
        assert "delta: 5" in out and "Unbalanced" in out

    def test_json_schema(self, capsys):
        code, out, _ = run(capsys, "exp", "-p", "5", "--mu", "3,3,4", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj == {
            "p": 5,
            "mu": [3, 3, 4],
            "delta": 0,
            "exp": [5, 5],
            "tag": "K0Even",
            "k": 0,
            "center": None,
            "alpha": None,
            "beta": None,
        }

    def test_malformed_mu_exits_2(self, capsys):
        code, _, err = run(capsys, "exp", "-p", "3", "--mu", "1,2")
        assert code == 2 and "error" in err

    def test_composite_p_exits_2(self, capsys):
        code, _, _ = run(capsys, "exp", "-p", "6", "--mu", "1,1,1")
        assert code == 2


class TestBasis:
    def test_psi_strategy_golden(self, capsys):
        code, out, _ = run(
            capsys, "basis", "-p", "3", "--mu", "3,3,4", "--strategy", "psi"
        )
        assert code == 0
        assert "(x^4 + x^3*y) dx + (x*y^3 + y^4) dy" in out
        assert "(x^3*y^3) dy - (x^3*y^3) dx" in out
        assert "certified: true" in out

    def test_psi_outside_region_exits_3(self, capsys):
        code, _, err = run(
            capsys, "basis", "-p", "5", "--mu", "3,3,4", "--strategy", "psi"
        )
        assert code == 3 and "error" in err

    def test_oracle_strategy_trivial(self, capsys):
        code, out, _ = run(
            capsys, "basis", "-p", "2", "--mu", "0,0,0", "--strategy", "oracle"
        )
        assert code == 0
        assert "low:  (1) dx" in out and "high: (1) dy" in out

    def test_plan_eg31(self, capsys):
        code, out, _ = run(capsys, "basis", "-p", "3", "--mu", "41,52,31")
        assert code == 0
        assert "exp: (58, 66)" in out and "certified: true" in out

    def test_json_roundtrip_recertifies(self, capsys):
        code, out, _ = run(
            capsys, "basis", "-p", "3", "--mu", "41,52,31", "--format", "json"
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["certified"] is True
        p = obj["p"]
        fields = []
        for key in ("low", "high"):
            parts = []
            for side in ("dx", "dy"):
                coeffs = [0] * (obj[key]["degree"] + 1)
                for i, _, c in obj[key][side]:
                    coeffs[i] = c
                parts.append(HomoPoly(p, coeffs))
            fields.append(VectorField(*parts))
        assert saito_check(fields[0], fields[1], tuple(obj["mu"]))
        assert obj["exp"] == [58, 66]


    def test_row_beyond_dense_guard_exits_2_at_once(self, capsys):
        # refused before any list is built: the degree guard alone would
        # admit |mu| up to 2^32
        for argv in (
            # (x + y)^m with m + 1 > 2^22 coefficients
            ("basis", "--mu", f"0,0,{1 << 22}", "--strategy", "psi"),
            # a basis of degree up to |mu| = 2^22 + 1: the monomial x^m1 of
            # psi_alt, and the oracle's high row
            ("basis", "--mu", f"{1 << 22},0,1", "--strategy", "psi"),
            ("basis", "--mu", f"{1 << 22},0,1", "--strategy", "plan"),
            ("oracle", "--mu", f"{1 << 22},0,1"),
            # the planner's period shift from (0, 0, 1) to its image
            ("basis", "--mu", f"{1 << 21},{1 << 21},1", "--strategy", "plan"),
        ):
            start = time.perf_counter()
            code, _, err = run(capsys, argv[0], "-p", "2", *argv[1:])
            assert code == 2 and "error" in err, argv
            assert time.perf_counter() - start < 1.0, argv

    def test_row_at_dense_guard_is_built(self, capsys, monkeypatch):
        monkeypatch.setattr(homopoly, "DENSE_ROW_GUARD", 9)
        assert run(capsys, "basis", "-p", "2", "--mu", "0,0,8", "--strategy", "psi")[0] == 0
        assert run(capsys, "basis", "-p", "2", "--mu", "0,0,9", "--strategy", "psi")[0] == 2
        assert run(capsys, "basis", "-p", "2", "--mu", "0,0,9", "--strategy", "oracle")[0] == 2


class TestOracleCommand:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "oracle", "-p", "2", "--mu", "3,3,4")
        assert code == 0
        assert "exp: (4, 6)" in out and "certified: true" in out

    def test_same_as_basis_oracle_strategy(self, capsys):
        for fmt in ("text", "json"):
            alias = run(capsys, "oracle", "-p", "3", "--mu", "4,5,6", "--format", fmt)
            basis = run(
                capsys, "basis", "-p", "3", "--mu", "4,5,6", "--strategy", "oracle",
                "--format", fmt,
            )
            assert alias == basis and alias[0] == 0


class TestTable:
    def test_csv_stable_and_correct(self, capsys):
        args = (
            "table", "-p", "3", "--mode", "m3", "--m", "16",
            "--range", "8,8", "--cell", "delta", "--format", "csv",
        )
        code, out1, _ = run(capsys, *args)
        assert code == 0
        code, out2, _ = run(capsys, *args)
        assert out1 == out2
        assert out1.startswith("mu1\\mu2,0,1,2,3,4,5,6,7,8")

    def test_ascii_default(self, capsys):
        code, out, _ = run(
            capsys, "table", "-p", "2", "--mode", "m3", "--m", "1", "--range", "2,2"
        )
        assert code == 0
        # first row of the m3=1 slice: gaps 1, 0, 1
        assert out.splitlines()[1].split() == ["0", "1", "0", "1"]

    def test_svg(self, capsys, tmp_path):
        target = tmp_path / "atlas.svg"
        code, out, _ = run(
            capsys, "table", "-p", "2", "--mode", "sum", "--total", "14",
            "--range", "14,14", "--cell", "zero", "--format", "svg",
            "--out", str(target),
        )
        assert code == 0 and out == ""
        text = target.read_text()
        assert text.startswith("<svg") and "</svg>" in text

    def test_svg_legend_inside_viewbox(self, capsys):
        # the legend is 22 cells wide: a 9-column table still shows all of it
        code, out, _ = run(
            capsys, "table", "-p", "3", "--mode", "m3", "--m", "4",
            "--range", "8,8", "--format", "svg",
        )
        root = ElementTree.fromstring(out)
        _, _, w, h = (float(v) for v in root.get("viewBox").split())
        assert code == 0 and (w, h) == (220, 120)
        shapes = [e for e in root.iter() if e.tag.rsplit("}", 1)[-1] in ("rect", "text")]
        assert len(shapes) > 81
        for e in shapes:
            x, y = float(e.get("x", 0)), float(e.get("y", 0))
            right, bottom = x + float(e.get("width", 0)), y + float(e.get("height", 0))
            assert 0 <= x <= right <= w and 0 <= y <= bottom <= h, e.attrib

    def test_malformed_range_exits_2(self, capsys):
        for bad in ("5", "5,5,5"):
            code, out, err = run(
                capsys, "table", "-p", "2", "--mode", "m3", "--m", "1", "--range", bad
            )
            assert code == 2 and out == ""
            assert f"expected two comma-separated values, got '{bad}'" in err

    def test_guard_exits_2(self, capsys):
        code, _, err = run(
            capsys, "table", "-p", "2", "--mode", "m3", "--m", "1",
            "--range", "2000,2000",
        )
        assert code == 2 and "error" in err

    def test_slice_beyond_degree_guard_exits_2(self, capsys):
        # |mu| reaches 2^32 + 1 only at the far corner of the first slice
        for flags in (
            ("--mode", "m3", "--m", str(2**32 - 1), "--range", "1,1"),
            ("--mode", "m3", "--m", str(2**32 + 1), "--range", "2,2"),
            ("--mode", "sum", "--total", str(2**32 + 1), "--range", "2,2"),
        ):
            code, out, err = run(capsys, "table", "-p", "2", *flags)
            assert code == 2 and out == "" and "desk-scale guard" in err
        code, _, _ = run(capsys, "table", "-p", "2", "--mode", "m3", "--m", str(2**32 - 2),
                         "--range", "1,1")
        assert code == 0

    def test_missing_mode_value_exits_2(self, capsys):
        code, _, _ = run(capsys, "table", "-p", "2", "--mode", "sum", "--range", "4,4")
        assert code == 2

    def test_bad_format_exits_2_before_building(self, capsys, monkeypatch):
        def no_build(spec):
            raise AssertionError("atlas built for a bad --format")

        monkeypatch.setattr(atlas, "build_atlas", no_build)
        code, out, _ = run(
            capsys, "table", "-p", "2", "--mode", "m3", "--m", "1", "--range", "2,2",
            "--format", "xml",
        )
        assert code == 2 and out == ""


class TestWorkers:
    # --workers is parsed for compatibility and changes nothing
    def test_output_is_identical_with_and_without(self, capsys):
        for argv in (
            ("table", "-p", "3", "--mode", "m3", "--m", "9", "--range", "14,11",
             "--mark-centers"),
            ("table", "-p", "2", "--mode", "sum", "--total", "20", "--range", "20,20",
             "--format", "csv"),
            ("exp", "-p", "3", "--mu", "41,52,31", "--format", "json"),
        ):
            plain = run(capsys, *argv)
            assert plain[0] == 0
            for n in ("1", "2", "4"):
                assert run(capsys, *argv, "--workers", n) == plain

    def test_no_process_pool(self):
        # a fresh interpreter: a worker pool would import multiprocessing
        src = Path(cli.__file__).parent.parent
        code = (
            "import os, sys\n"
            "from triarr import cli\n"
            "argv = ['table', '-p', '2', '--mode', 'sum', '--total', '40',\n"
            "        '--range', '20,20', '--workers', '4', '--out', os.devnull]\n"
            "print(cli.main(argv), 'multiprocessing' in sys.modules)"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], cwd=src, capture_output=True, text=True,
            check=True,
        )
        assert out.stdout == "0 False\n"


class TestCenters:
    def test_eg31_center_listed(self, capsys):
        code, out, _ = run(
            capsys, "centers", "-p", "3", "-k", "3", "--box", "60,60,60",
            "--format", "json",
        )
        assert code == 0
        obj = json.loads(out)
        assert [54, 54, 27] in obj["centers"] and obj["radius"] == 27

    def test_unit_center(self, capsys):
        code, out, _ = run(capsys, "centers", "-p", "2", "-k", "0", "--box", "3,3,3")
        assert code == 0 and "(1, 1, 1)" in out

    def test_empty_box(self, capsys):
        code, out, _ = run(
            capsys, "centers", "-p", "3", "-k", "1", "--box", "1,1,1",
            "--format", "json",
        )
        assert code == 0 and json.loads(out)["centers"] == []

    def test_radius_beyond_guard_exits_2_at_once(self, capsys):
        start = time.perf_counter()
        code, _, err = run(
            capsys, "centers", "-p", "3", "-k", "1000000000", "--box", "1,1,1"
        )
        assert code == 2 and "guard" in err
        assert time.perf_counter() - start < 1.0

    def test_box_beyond_candidate_guard_exits_2_at_once(self, capsys):
        # about 2.7e10 candidate points at radius 1: refused before the loop
        start = time.perf_counter()
        code, _, err = run(
            capsys, "centers", "-p", "2", "-k", "0", "--box", "3000,3000,3000"
        )
        assert code == 2 and "guard" in err
        assert time.perf_counter() - start < 1.0

    def test_box_at_candidate_guard_is_scanned(self, capsys, monkeypatch):
        # the guard counts (box_i // p^k + 1) per side; a box of exactly the
        # bound passes, one more candidate is refused
        monkeypatch.setattr(fastexp, "CENTER_CANDIDATE_GUARD", 27)
        assert run(capsys, "centers", "-p", "2", "-k", "0", "--box", "2,2,2")[0] == 0
        assert run(capsys, "centers", "-p", "2", "-k", "1", "--box", "5,5,5")[0] == 0
        assert run(capsys, "centers", "-p", "2", "-k", "0", "--box", "2,2,3")[0] == 2

    def test_negative_k_exits_2(self, capsys):
        code, out, err = run(capsys, "centers", "-p", "3", "-k", "-1", "--box", "3,3,3")
        assert code == 2 and out == "" and "k must be nonnegative" in err

    def test_radius_at_guard_is_empty(self, capsys):
        code, out, _ = run(capsys, "centers", "-p", "2", "-k", "32", "--box", "1,1,1")
        assert code == 0 and out == "centers of radius 4294967296 within (1, 1, 1):\n"


class TestGamma:
    def test_m16_lists(self, capsys):
        code, out, _ = run(capsys, "gamma", "-p", "3", "-m", "16", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["g_set"] == [0, 1, 3, 4, 6, 7, 9, 10, 12, 13, 15, 16]
        assert len(obj["b_set"]) == 12 and len(obj["s_set"]) == 11

    def test_level_zero_exits_2(self, capsys):
        code, out, err = run(capsys, "gamma", "-p", "3", "-m", "0")
        assert code == 2 and out == "" and "gamma_slice requires m >= 1" in err

    def test_level_past_the_mu_cap_exits_2(self, capsys, monkeypatch):
        # 7^11: the maximal member (m, m, m) has |mu| = 3m > 2^32.  2^31: each
        # minimal non-member has |mu| = 2m + 2 > 2^32, refused before G_m
        for p, m, g_sets in (("7", 7**11, [7**11]), ("2", 2**31, [])):
            calls = []
            monkeypatch.setattr(basisfactory, "g_set",
                                lambda m, p: calls.append(m) or fpcore.g_set(m, p))
            for fmt in ("text", "json"):
                calls.clear()
                code, out, err = run(capsys, "gamma", "-p", p, "-m", str(m), "--format", fmt)
                assert code == 2 and out == "" and "exceeds the desk-scale guard" in err
                assert calls == g_sets

    def test_level_at_the_mu_cap_answers(self, capsys):
        # 3^19: the largest |mu| is 3^20 <= 2^32
        m = 3**19
        code, out, _ = run(capsys, "gamma", "-p", "3", "-m", str(m))
        assert code == 0 and out == (
            f"m: {m}\ng_set: [0, {m}]\ns_set: [({m}, {m}, {m})]\n"
            f"b_set: [(1, {m + 1}, {m}), ({m + 1}, 1, {m})]\n"
        )

    def test_membership_flag(self, capsys):
        code, out, _ = run(capsys, "gamma", "-p", "3", "-m", "4", "--mu", "3,3,4")
        assert code == 0 and "member((3, 3, 4)): true" in out

    def test_membership_far_outside_answers_at_once(self, capsys):
        # a per-j scan would test 2 * 10^8 or 2^30 binomials, all zero mod 2
        for m, mu in (
            ("1048576", "200000000,0,1048576"),
            ("1073741824", "1073741824,1073741824,1073741824"),
        ):
            start = time.perf_counter()
            code, out, _ = run(capsys, "gamma", "-p", "2", "-m", m, "--mu", mu)
            assert code == 0 and out.endswith("): true\n")
            assert time.perf_counter() - start < 1.0

    def test_one_g_set_per_command(self, capsys, monkeypatch):
        calls = []
        real = fpcore.g_set

        def counting(m, p):
            calls.append(m)
            return real(m, p)

        for ns in (fpcore, basisfactory, cli):
            if hasattr(ns, "g_set"):
                monkeypatch.setattr(ns, "g_set", counting)
        for fmt in ("text", "json"):
            calls.clear()
            assert run(capsys, "gamma", "-p", "3", "-m", "16", "--mu", "3,3,16",
                       "--format", fmt)[0] == 0
            assert calls == [16]


class TestVerify:
    def test_golden_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "-p", "3", "--suite", "golden")
        assert code == 0 and "golden: PASS (12 checks)" in out
        assert "p=" not in out  # the golden examples fix their own primes

    def test_differential_small_box(self, capsys):
        code, out, _ = run(
            capsys, "verify", "-p", "2", "--box", "5,5,5", "--suite", "differential",
            "--workers", "1",
        )
        assert code == 0 and "differential (p=2): PASS (216 checks)" in out

    def test_workers_do_not_change_output(self, capsys):
        base = ("verify", "-p", "2", "--box", "4,4,4", "--suite", "differential")
        _, out1, _ = run(capsys, *base, "--workers", "1")
        _, out2, _ = run(capsys, *base, "--workers", "2")
        assert out1 == out2

    def test_multi_suite(self, capsys):
        code, out, _ = run(
            capsys, "verify", "-p", "2", "--box", "4,4,4",
            "--suite", "adjacency,saito", "--seed", "7",
        )
        assert code == 0
        assert "adjacency (p=2): PASS" in out and "saito (p=2): PASS" in out

    def test_seed_belongs_to_verify(self, capsys):
        assert run(capsys, "verify", "-p", "2", "--suite", "golden", "--seed", "3")[0] == 0
        code, out, err = run(capsys, "exp", "-p", "3", "--mu", "1,1,1", "--seed", "3")
        assert code == 2 and out == "" and "--seed" in err

    def test_unknown_suite_exits_2(self, capsys):
        code, _, _ = run(capsys, "verify", "-p", "2", "--suite", "nonsense")
        assert code == 2

    def test_unknown_suite_rejected_before_any_suite_runs(self, capsys, monkeypatch):
        def no_golden(p, box, seed):
            raise AssertionError("golden ran before the unknown name was rejected")

        monkeypatch.setitem(verify.SUITES, "golden", no_golden)
        code, out, err = run(capsys, "verify", "-p", "2", "--suite", "golden,nonsense")
        assert code == 2 and out == "" and "nonsense" in err

    def test_json_format_exits_2(self, capsys):
        code, out, _ = run(
            capsys, "verify", "-p", "3", "--suite", "golden", "--format", "json"
        )
        assert code == 2 and out == ""

    def test_empty_suite_list_exits_2(self, capsys):
        for suites in ("", ",", " , "):
            code, out, err = run(capsys, "verify", "-p", "2", "--suite", suites)
            assert code == 2 and out == "" and "no suite" in err, repr(suites)


    def test_suite_with_no_check_exits_2(self, capsys):
        # the centers suite has no radius to scan in a one-point box
        code, out, err = run(capsys, "verify", "-p", "2", "--suite", "centers", "--box", "0,0,0")
        assert code == 2 and out == ""
        assert "suite 'centers' made no check on box (0, 0, 0)" in err


class TestOut:
    def test_unwritable_out_exits_2(self, capsys, tmp_path):
        for target, argv in (
            (tmp_path / "missing" / "x.txt", ("exp", "-p", "2", "--mu", "1,1,1")),
            (tmp_path, ("exp", "-p", "2", "--mu", "1,1,1", "--format", "json")),
            (tmp_path / "missing" / "v.txt", ("verify", "-p", "2", "--suite", "golden")),
        ):
            code, out, err = run(capsys, *argv, "--out", str(target))
            assert code == 2 and out == "" and "error" in err, (target, argv)
