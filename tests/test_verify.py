"""Check counts of the verify suites, and their failure reporting with one
engine or transport made wrong on purpose."""

import pytest

from triarr import basisfactory, oracle, verify
from triarr.basisfactory import TransformStep
from triarr.cli import main


def wrong_exponents_at(monkeypatch, target):
    real = oracle.oracle_exponents

    def patched(mu, p):
        d1, d2, pair = real(mu, p)
        return (d1 + 1, d2 + 1, pair) if tuple(mu) == target else (d1, d2, pair)

    monkeypatch.setattr(oracle, "oracle_exponents", patched)


def wrong_delta_at(monkeypatch, targets):
    real = oracle.oracle_delta

    def patched(mu, p):
        return real(mu, p) + (2 if tuple(mu) in targets else 0)

    monkeypatch.setattr(oracle, "oracle_delta", patched)


@pytest.mark.parametrize(
    "args, line",
    [
        (("differential", 2, (4, 5, 3)), "differential (p=2): PASS (120 checks)"),
        (("adjacency", 2, (4, 5, 3)), "adjacency (p=2): PASS (286 checks)"),
        (("frobenius", 2), "frobenius (p=2): PASS (343 checks)"),
        (("frobenius", 3, (4, 5, 3)), "frobenius (p=3): PASS (120 checks)"),
        (("periodicity", 2), "periodicity (p=2): PASS (1377 checks)"),
        (("periodicity", 2, (4, 5, 3)), "periodicity (p=2): PASS (330 checks)"),
        (("periodicity", 3, (4, 5, 3)), "periodicity (p=3): PASS (360 checks)"),
        (("duality", 2), "duality (p=2): PASS (152 checks)"),
        (("duality", 3, (4, 5, 3)), "duality (p=3): PASS (1064 checks)"),  # box unread
        (("gamma", 2), "gamma (p=2): PASS (7549 checks)"),
        (("centers", 3, (4, 5, 3)), "centers (p=3): PASS (14 checks)"),
        (("saito", 2), "saito (p=2): PASS (203 checks)"),
        (("saito", 2, (4, 5, 3), 7), "saito (p=2): PASS (207 checks)"),
        (("golden", 5), "golden: PASS (12 checks)"),
    ],
)
def test_passing_line(args, line):
    # a changed count means the suite checks a different set of points
    assert verify.run_suite(*args).line() == line


def test_empty_suite_list_is_refused():
    # an empty run would report "all suites passed" after checking nothing
    with pytest.raises(ValueError, match="no suite"):
        verify.run_suites([], 2)


def test_suite_with_no_check_is_refused():
    # a one-point box has no neighbour pair and no radius to scan
    for name in ("adjacency", "centers"):
        with pytest.raises(ValueError, match=rf"suite '{name}' made no check on box \(0, 0, 0\)"):
            verify.run_suite(name, 2, (0, 0, 0))


class TestTransportFailures:
    # one hop's image comes back uncertified: that hop alone fails, and
    # the text names mu and the hop parameter
    @pytest.mark.parametrize(
        "name, p, hop, line",
        [
            pytest.param(
                "periodicity", 2, ((1, 0, 2), TransformStep("PeriodShift", 2)),
                "periodicity (p=2): FAIL (81 checks, 1 failures, first: mu=(1, 0, 2), d=2)",
                id="periodicity",
            ),
            pytest.param(
                "frobenius", 3, ((2, 0, 1), TransformStep("FrobeniusLift", 3)),
                "frobenius (p=3): FAIL (27 checks, 1 failures, first: mu=(2, 0, 1), q=3)",
                id="frobenius",
            ),
            pytest.param(
                "duality", 2, ((3, 1, 0), TransformStep("Dual", 2)),
                "duality (p=2): FAIL (152 checks, 1 failures, first: mu=(3, 1, 0), d=2)",
                id="duality",
            ),
        ],
    )
    def test_one_uncertified_hop_is_one_failure(self, monkeypatch, name, p, hop, line):
        real = basisfactory.transport

        def patched(pair, mu, step):
            moved, image = real(pair, mu, step)
            if (tuple(mu), step) == hop:
                moved = moved._replace(certified=False)
            return moved, image

        monkeypatch.setattr(basisfactory, "transport", patched)
        assert verify.run_suite(name, p, (2, 2, 2)).line() == line


class TestDifferentialFailures:
    def test_one_wrong_point_is_one_failure(self, monkeypatch):
        wrong_exponents_at(monkeypatch, (2, 1, 3))
        r = verify.run_suite("differential", 2, (3, 3, 3))
        assert (r.checks, r.failures) == (64, 1)
        assert r.line() == (
            "differential (p=2): FAIL (64 checks, 1 failures, "
            "first: mu=(2, 1, 3): fast (3, 3) vs oracle (4, 4))"
        )

    def test_first_failure_in_box_order_is_reported(self, monkeypatch):
        wrong_exponents_at(monkeypatch, (2, 1, 3))
        real = oracle.oracle_exponents

        def also_uncertified(mu, p):
            d1, d2, pair = real(mu, p)
            if tuple(mu) == (0, 3, 3):
                pair = pair._replace(certified=False)
            return d1, d2, pair

        monkeypatch.setattr(oracle, "oracle_exponents", also_uncertified)
        r = verify.run_suite("differential", 2, (3, 3, 3))
        assert r.failures == 2
        assert r.first_counterexample == "mu=(0, 3, 3): oracle basis not certified"

    def test_cli_exits_1(self, capsys, monkeypatch):
        wrong_exponents_at(monkeypatch, (2, 1, 3))
        code = main(["verify", "-p", "2", "--box", "3,3,3", "--suite", "differential"])
        out = capsys.readouterr().out
        assert code == 1
        assert "FAIL (64 checks, 1 failures, first: mu=(2, 1, 3)" in out
        assert out.endswith("FAILURES detected\n")


class TestCenterFailures:
    # p = 2, box (3,3,3): four centers of radius 1 and (2,2,2) of radius 2;
    # (2,2,2) and (2,2,4) lie in the checked shells of that one ball only
    def test_passes_unpatched(self):
        r = verify.run_suite("centers", 2, (3, 3, 3))
        assert r.line() == "centers (p=2): PASS (10 checks)"

    def test_one_failure_per_center(self, monkeypatch):
        wrong_delta_at(monkeypatch, {(2, 2, 2), (2, 2, 4)})
        r = verify.run_suite("centers", 2, (3, 3, 3))
        assert r.line() == (
            "centers (p=2): FAIL (10 checks, 1 failures, "
            "first: zeta=(2, 2, 2), mu=(2, 2, 2): gap profile broken)"
        )

    def test_cli_exits_1(self, capsys, monkeypatch):
        wrong_delta_at(monkeypatch, {(2, 2, 4)})
        code = main(["verify", "-p", "2", "--box", "3,3,3", "--suite", "centers"])
        out = capsys.readouterr().out
        assert code == 1
        assert "FAIL (10 checks, 1 failures, first: zeta=(2, 2, 2), mu=(2, 2, 4)" in out
