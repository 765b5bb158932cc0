"""Failure reporting of the verify suites, with one engine made wrong on purpose."""

from triarr import oracle, verify
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


class TestDifferentialFailures:
    def test_one_wrong_point_is_one_failure(self, monkeypatch):
        wrong_exponents_at(monkeypatch, (2, 1, 3))
        r = verify.run_differential(2, (3, 3, 3))
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
        r = verify.run_differential(2, (3, 3, 3))
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
        r = verify.run_centers(2, (3, 3, 3))
        assert r.line() == "centers (p=2): PASS (10 checks)"

    def test_one_failure_per_center(self, monkeypatch):
        wrong_delta_at(monkeypatch, {(2, 2, 2), (2, 2, 4)})
        r = verify.run_centers(2, (3, 3, 3))
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
