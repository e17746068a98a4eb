"""Soundness rows: a corrupted intermediate that no verified claim passes.

Each row corrupts one value the program computes, runs the claims that
read it, and expects every claim that reads the value to end failed with
the check that caught it in its evidence.
"""

import pytest

from enumtc.claims import run_claims
from enumtc.koszul import KoszulComplex


def _understate_d1_rank(monkeypatch, p, t):
    """Every Koszul complex over F_p is built with rank d_1 in internal
    degree t already memoised, one too low; returns the list of them."""
    corrupted = []
    build = KoszulComplex.__init__

    def build_corrupted(self, elements):
        build(self, elements)
        if self.p == p:
            self._ranks[1, t] = self.rank(1, t) - 1
            corrupted.append(self)

    monkeypatch.setattr(KoszulComplex, "__init__", build_corrupted)
    return corrupted


@pytest.mark.parametrize("p, t, name, coefficients", [
    # (1+t)^3 carries the extra quotient class at t = 10 to 13: 192 + 8
    (3, 10, "pu4k", [1, 3, 6, 10, 14, 18, 21, 23, 23, 21, 19, 17, 13, 7, 3,
                     1]),
    (2, 6, "pu3h", [1, 2, 3, 4, 4, 4, 4, 2, 1]),
], ids=["K-p3-t10", "H-p2-t6"])
def test_an_understated_shared_d1_rank_fails_its_readers(
        monkeypatch, p, t, name, coefficients):
    corrupted = _understate_d1_rank(monkeypatch, p, t)
    report = run_claims([f"em-poincare-{name}", "tor-concentration"])
    # one complex over F_p carries the rank to all three claims
    assert len(corrupted) == 1
    # the corrupted degree t <= s lies below the Artinian window, so the
    # certificate itself still holds
    regseq = report.claim(f"regseq-{name}")
    assert regseq.status == "verified"
    assert t <= regseq.evidence["certificate"]["s"]
    em = report.claim(f"em-poincare-{name}").to_json()
    assert em["status"] == "failed"
    assert em["evidence"]["coefficients"] == coefficients
    assert em["evidence"]["total"] == sum(coefficients)
    tor = report.claim("tor-concentration")
    assert tor.status == "failed"
    assert tor.evidence[name]["failures"] == [{"i": 1, "t": t, "dim": 1}]
    other = "pu3h" if name == "pu4k" else "pu4k"
    assert tor.evidence[other]["ok"]
    assert not report.ok()
