import json
import os
import time

from triarr import atlas, cli, fastexp, verify

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
            f = HomoPoly.from_terms(p, [tuple(t) for t in obj[key]["dx"]])
            g = HomoPoly.from_terms(p, [tuple(t) for t in obj[key]["dy"]])
            fields.append(VectorField(f, g))
        assert saito_check(fields[0], fields[1], tuple(obj["mu"]))
        assert obj["exp"] == [58, 66]


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

    def test_guard_exits_2(self, capsys):
        code, _, err = run(
            capsys, "table", "-p", "2", "--mode", "m3", "--m", "1",
            "--range", "2000,2000",
        )
        assert code == 2 and "error" in err

    def test_missing_mode_value_exits_2(self, capsys):
        code, _, _ = run(capsys, "table", "-p", "2", "--mode", "sum", "--range", "4,4")
        assert code == 2

    def test_bad_format_exits_2_before_building(self, capsys, monkeypatch):
        def no_build(spec, workers=1):
            raise AssertionError("atlas built for a bad --format")

        monkeypatch.setattr(atlas, "build_atlas", no_build)
        code, out, _ = run(
            capsys, "table", "-p", "2", "--mode", "m3", "--m", "1", "--range", "2,2",
            "--format", "xml",
        )
        assert code == 2 and out == ""


class TestWorkers:
    def resolved(self, capsys, monkeypatch, *flags):
        seen = []
        real = atlas.build_atlas

        def record(spec, workers=1):
            seen.append(workers)
            return real(spec, workers=1)

        monkeypatch.setattr(atlas, "build_atlas", record)
        code, _, _ = run(
            capsys, "table", "-p", "2", "--mode", "m3", "--m", "1", "--range", "2,2",
            *flags,
        )
        assert code == 0
        return seen

    def test_default_is_one(self, capsys, monkeypatch):
        assert self.resolved(capsys, monkeypatch) == [1]

    def test_clamped_to_cpu_count(self, capsys, monkeypatch):
        cpus = os.cpu_count() or 1
        assert self.resolved(capsys, monkeypatch, "--workers", "100000") == [cpus]
        assert self.resolved(capsys, monkeypatch, "--workers", "0") == [1]


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

    def test_unknown_suite_exits_2(self, capsys):
        code, _, _ = run(capsys, "verify", "-p", "2", "--suite", "nonsense")
        assert code == 2

    def test_unknown_suite_rejected_before_any_suite_runs(self, capsys, monkeypatch):
        def no_golden():
            raise AssertionError("golden ran before the unknown name was rejected")

        monkeypatch.setattr(verify, "run_golden", no_golden)
        code, out, err = run(capsys, "verify", "-p", "2", "--suite", "golden,nonsense")
        assert code == 2 and out == "" and "nonsense" in err

    def test_json_format_exits_2(self, capsys):
        code, out, _ = run(
            capsys, "verify", "-p", "3", "--suite", "golden", "--format", "json"
        )
        assert code == 2 and out == ""
